"""Rectangle-balance verification, exhaustive and sampled.

The balance property quantifies over all color sets A of size M/D and all
S x S rectangles; for a fixed rectangle the worst A is the M/D most
frequent colors, so each rectangle needs one histogram and a top-k sum
(the dominant-subset check) instead of a C(M, M/D) enumeration.  Checking
rectangles of side exactly S suffices: a larger rectangle's color fraction
is the average of its S x S sub-rectangles' fractions.

Every verifier ends in one core, :func:`_check_counts`: a (K, U) matrix
holds the histograms of K rectangles over U ascending color labels, and
the core finds, in exact integers, the worst numerator over 2 * area and
the first violating row, whose offending colors :func:`_colorset` names.
Only the final worst ratio becomes a ``Fraction``.

Exhaustive mode fills the matrix for every pair of S-subsets, rows and
columns in lexicographic order: each chunk of rectangles gathers its cells
from the cached subset index arrays with two ``take`` calls and counts
them with one ``bincount``, one row per rectangle, so memory is bounded
per chunk, not with N * N * M.  Sampled mode draws seeded random
rectangles chunk by chunk (rows and columns by a sparse partial
Fisher-Yates, sample j from streams 2j and 2j+1 of the verification seed),
gathers each one's cells with two ``take`` calls, or computes them for a
keyed table, and writes its histogram as one row; when M > 2^20 it ranks
the colors present with ``np.unique`` instead.  A chunk of samples holds
its O(chunk x S) draws, its count matrix and its rectangles' cells, so
memory grows with neither the sample count nor N.  Sampled mode is a
Monte-Carlo relaxation with no certificate.

Reports are reproducible: the witness is the first violating rectangle in
enumeration/sample order and the worst ratio is a max over checked
rectangles, both independent of the worker count.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .core import InvalidParams, TableParams, TooLarge
from .mixing import GAMMA, MASK64, partial_shuffle_batch, scramble_np
from .tables import EXPLICIT_N_EXP_CAP, BalancedTable, keyed_colors_grid

DEFAULT_ENUM_CAP = 10**8
_CHUNK = 1 << 14             # entries of a chunk's gathered cells, count matrix or draws
_DENSE_COLORS = 1 << 20      # above this many colors, sampled mode ranks colors
# a sampled rectangle holds at most as many cells as the largest explicit table
_MAX_AREA = 1 << 2 * EXPLICIT_N_EXP_CAP


@dataclass(frozen=True)
class Rectangle:
    rows: tuple[int, ...]
    cols: tuple[int, ...]


@dataclass(frozen=True)
class ColorSet:
    colors: tuple[int, ...]


@dataclass(frozen=True)
class VerificationReport:
    mode: str                      # "exhaustive" or "sampled"
    samples: int | None
    passed: bool
    rectangles_checked: int
    worst_ratio: Fraction
    witness: tuple[Rectangle, ColorSet] | None
    check_s_exp: int
    check_d_exp: int
    prefix_mode: bool
    table_params: TableParams
    table_digest: str

    def to_json_dict(self) -> dict:
        w = None
        if self.witness is not None:
            rect, colors = self.witness
            w = {
                "rows": list(rect.rows),
                "cols": list(rect.cols),
                "colors": list(colors.colors),
            }
        d = {
            "mode": self.mode,
            "passed": self.passed,
            "rectangles_checked": self.rectangles_checked,
            "worst_ratio": {
                "num": self.worst_ratio.numerator,
                "den": self.worst_ratio.denominator,
            },
            "witness": w,
            "params": {
                "n_exp": self.table_params.n_exp,
                "m_exp": self.table_params.m_exp,
                "s_exp": self.check_s_exp,
                "d_exp": self.check_d_exp,
            },
            "prefix_mode": self.prefix_mode,
            "table_digest": self.table_digest,
        }
        if self.samples is not None:
            d["samples"] = self.samples
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# The histogram-check core
# ---------------------------------------------------------------------------


class _Rule(NamedTuple):
    """The bound each rectangle histogram is checked against."""

    m_exp: int
    d_exp: int
    prefix: bool
    rows: int                  # rectangle sides
    cols: int

    @property
    def area(self) -> int:
        return self.rows * self.cols


def _rule(
    table: BalancedTable,
    s_exp: int | None,
    d_exp: int,
    *,
    prefix: bool = False,
    sides: tuple[int, int] | None = None,
) -> _Rule:
    """The parameter check every verifier goes through: S x S rectangles
    for ``s_exp``, or the given (rows, cols) ``sides``."""
    p = table.params
    if sides is None:
        if not 0 <= s_exp <= p.n_exp:
            raise InvalidParams(f"need 0 <= s_exp <= n_exp = {p.n_exp}, got {s_exp}")
        sides = (1 << s_exp, 1 << s_exp)
    rows, cols = sides
    if not (1 <= rows <= p.n_side and 1 <= cols <= p.n_side):
        raise InvalidParams(f"rectangle sides {sides} must lie in [1, N = {p.n_side}]")
    if not 0 <= d_exp <= p.m_exp:
        raise InvalidParams("need 0 <= d_exp <= m_exp")
    return _Rule(p.m_exp, d_exp, prefix, rows, cols)


def _check_counts(counts: np.ndarray, labels: np.ndarray, rule: _Rule):
    """Check every row of a (K, U) count matrix over ascending color labels.

    Returns the worst numerator over 2 * area, in exact integers, and the
    first violating row (None when every row passes).  Labels matter only
    to the prefix rule.
    """
    bound = 2 * rule.area
    if rule.prefix:
        return _check_prefix(counts, labels, rule.m_exp, bound)
    kdom = min(1 << (rule.m_exp - rule.d_exp), counts.shape[1])
    mass = np.add.reduce(np.sort(counts, axis=1)[:, -kdom:], axis=1)
    worst = int(np.maximum.reduce(mass)) << rule.d_exp
    if worst <= bound:
        return worst, None
    return worst, int((mass > bound >> rule.d_exp).argmax())   # mass * D > 2 * area


def _prefix_buckets(counts: np.ndarray, labels: np.ndarray, m_exp: int):
    """Yield (level, bucket ids, (K, B) bucket counts) for levels m_exp..1.

    Level l buckets colors by their top l bits; labels ascend, so each
    bucket is a run of columns.
    """
    for level in range(m_exp, 0, -1):
        ids = labels >> (m_exp - level)
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        yield level, ids[starts], np.add.reduceat(counts, starts, axis=1)


def _check_prefix(counts: np.ndarray, labels: np.ndarray, m_exp: int, bound: int):
    """Prefix rule: a level-l bucket may hold at most bound / 2^l cells."""
    worst = 0
    first = None
    for level, _, buckets in _prefix_buckets(counts, labels, m_exp):
        top = buckets.max(axis=1)
        worst = max(worst, int(top.max()) << level)
        over = top > bound >> level
        if over.any():
            k = int(over.argmax())
            first = k if first is None else min(first, k)
    return worst, first


def _colorset(row: np.ndarray, labels: np.ndarray, rule: _Rule, ranked: bool):
    """The offending color set of a violating count row.

    Dominant rule: the M/D most frequent colors by (-count, color), zero
    counts included, or, when ``ranked`` (labels from ``np.unique``), only
    the colors present, ascending.  Prefix rule: the colors present in the
    bucket with the largest count * 2^l; ties go to the longer prefix,
    then to the smaller bucket.
    """
    if not rule.prefix:
        top = np.argsort(-row, kind="stable")[:1 << (rule.m_exp - rule.d_exp)]
        if ranked:
            top = np.sort(top[row[top] > 0])
        return tuple(int(labels[i]) for i in top)
    best, colors = 0, None
    for level, ids, buckets in _prefix_buckets(row[None], labels, rule.m_exp):
        b = int(buckets[0].argmax())
        if int(buckets[0, b]) << level > best:
            best = int(buckets[0, b]) << level
            inside = ((labels >> (rule.m_exp - level)) == ids[b]) & (row > 0)
            colors = tuple(int(c) for c in labels[inside])
    return colors


def _scan(chunks, rule: _Rule, ranked: bool = False):
    """(worst numerator, first witness) over (rectangle of row, count
    matrix, labels) chunks taken in order."""
    worst, witness = 0, None
    for rect, counts, labels in chunks:
        num, first = _check_counts(counts, labels, rule)
        worst = max(worst, num)
        if first is not None and witness is None:
            colors = _colorset(counts[first], labels, rule, ranked)
            witness = (rect(first), ColorSet(colors))
    return worst, witness


def _report(table, s_exp, rule, result, samples=None) -> VerificationReport:
    worst, witness = result
    n_side = table.params.n_side
    if samples is None:
        checked = math.comb(n_side, rule.rows) * math.comb(n_side, rule.cols)
    else:
        checked = samples
    return VerificationReport(
        mode="exhaustive" if samples is None else "sampled", samples=samples,
        passed=witness is None, rectangles_checked=checked,
        worst_ratio=Fraction(worst, 2 * rule.area), witness=witness,
        check_s_exp=s_exp, check_d_exp=rule.d_exp, prefix_mode=rule.prefix,
        table_params=table.params, table_digest=table.digest(),
    )


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=2)
def _enumeration(n_side: int, rows: int, cols: int, m_colors: int):
    """What enumerating the rows x cols rectangles of an N x N table with M
    colors needs besides its cells: the row and column subsets, each as
    tuples and as a (count, side) index array, the color labels, the column
    subsets per chunk and the count-row offset of each rectangle in a chunk.

    A chunk holds several row subsets only when it holds every column
    subset, so chunks stay in rows-major order.  Its gathered cells and its
    count matrix hold at most _CHUNK entries, unless one rectangle's do.
    """
    row_sets = tuple(combinations(range(n_side), rows))
    col_sets = tuple(combinations(range(n_side), cols))
    per_rect = max(rows * cols, m_colors)
    n_cols = min(len(col_sets), max(1, _CHUNK // per_rect))
    n_rows = 1
    if n_cols == len(col_sets):
        n_rows = min(len(row_sets), max(1, _CHUNK // (n_cols * per_rect)))
    rect_ids = np.arange(n_rows)[:, None, None, None] * n_cols
    rect_ids = rect_ids + np.arange(n_cols)[:, None]
    arrays = (
        np.array(row_sets, dtype=np.intp).reshape(len(row_sets), rows),
        np.array(col_sets, dtype=np.intp).reshape(len(col_sets), cols),
        np.arange(m_colors),
        rect_ids * m_colors,            # (rows in chunk, 1, cols in chunk, 1)
    )
    for a in arrays:
        a.setflags(write=False)
    return row_sets, col_sets, *arrays, n_cols


def _exhaustive(table: BalancedTable, rule: _Rule, enum_cap: int):
    """Yield (rectangle of row, count matrix, labels) chunks covering every
    rectangle of the rule's sides, rows-major in lexicographic order.

    Each chunk gathers its rectangles' cells with two ``take`` calls and
    counts them with one ``bincount``, each rectangle into its own row.
    """
    if table.cells is None:
        raise TooLarge("exhaustive verification requires an explicit table")
    n_side, m_colors = table.params.n_side, table.params.m_colors
    count = math.comb(n_side, rule.rows) * math.comb(n_side, rule.cols)
    if count > enum_cap:
        raise TooLarge(f"{count} rectangles exceed the enumeration cap {enum_cap}")
    row_sets, col_sets, row_index, col_index, labels, offsets, n_cols = _enumeration(
        n_side, rule.rows, rule.cols, m_colors
    )
    for r0 in range(0, len(row_sets), len(offsets)):
        rows = row_index[r0:r0 + len(offsets)]
        block = table.cells.take(rows, axis=0)                 # (k, rows, N)
        for c0 in range(0, len(col_sets), n_cols):
            chunk = col_index[c0:c0 + n_cols]
            grid = block.take(chunk, axis=2)                   # (k, rows, w, cols)
            slots = grid + offsets[:len(block), :, :len(chunk)]
            size = len(block) * len(chunk) * m_colors
            counts = np.bincount(slots.ravel(), minlength=size)

            def rect(i, r0=r0, c0=c0, width=len(chunk)):
                r, c = divmod(i, width)
                return Rectangle(row_sets[r0 + r], col_sets[c0 + c])

            yield rect, counts.reshape(-1, m_colors), labels


def _holds(table: BalancedTable, rule: _Rule) -> bool:
    """Exhaustive pass/fail, stopping at the first violating chunk."""
    for _, counts, labels in _exhaustive(table, rule, DEFAULT_ENUM_CAP):
        if _check_counts(counts, labels, rule)[1] is not None:
            return False
    return True


def verify_exhaustive(
    table: BalancedTable,
    s_exp: int,
    d_exp: int,
    *,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> VerificationReport:
    """Check every S x S rectangle against the dominant-subset bound."""
    rule = _rule(table, s_exp, d_exp)
    result = _scan(_exhaustive(table, rule, enum_cap), rule)
    return _report(table, s_exp, rule, result)


def balance_holds(table: BalancedTable, s_exp: int, d_exp: int) -> bool:
    """Early-exit exhaustive pass/fail (used by the canonical search)."""
    return _holds(table, _rule(table, s_exp, d_exp))


def check_rectangle_sides(
    table: BalancedTable, side_rows: int, side_cols: int, d_exp: int
) -> bool:
    """Pass/fail over all rectangles of the given (possibly unequal) sides.

    Supports the averaging property tests: balance verified at side S
    should persist at any larger sides.
    """
    return _holds(table, _rule(table, None, d_exp, sides=(side_rows, side_cols)))


# ---------------------------------------------------------------------------
# Sampled verification
# ---------------------------------------------------------------------------


def _sample_rect_indices(seed: int, start: int, count: int, n_side: int, s_side: int):
    """Row/col index arrays for samples start..start+count-1 (batched FY)."""
    j = np.arange(start, start + count, dtype=np.uint64)
    row_states = scramble_np(
        np.uint64(seed & MASK64) + (2 * j + 1) * np.uint64(GAMMA)
    )
    col_states = scramble_np(
        np.uint64(seed & MASK64) + (2 * j + 2) * np.uint64(GAMMA)
    )
    rows = partial_shuffle_batch(row_states, n_side, s_side)
    cols = partial_shuffle_batch(col_states, n_side, s_side)
    return rows, cols


def _rect_colors(table: BalancedTable, rows: np.ndarray, cols: np.ndarray):
    """The rectangle's cells: explicit ones gathered by two ``take`` calls,
    keyed ones below 2^63 as an intp view that ``bincount`` counts as is."""
    if table.cells is not None:
        return table.cells.take(rows, axis=0).take(cols, axis=1)
    p = table.params
    if p.m_exp <= 64:
        grid = keyed_colors_grid(table.seed_or_key, p.n_exp, p.m_exp, rows, cols)
        return grid if p.m_exp == 64 else grid.view(np.intp)
    return np.array(
        [[table.lookup(int(r), int(c)) for c in cols] for r in rows], dtype=object
    )


def _sampled(table: BalancedTable, rule: _Rule, seed: int, start: int, count: int,
             ranked: bool):
    """Yield (rectangle of row, count matrix, labels) chunks for samples
    start..start+count-1.  Samples are drawn in batches whose row and
    column draws hold at most _CHUNK entries each, and counted in chunks
    sized by their count matrix."""
    p = table.params
    if ranked:    # k rectangles hold at most k * area distinct colors
        step = max(1, math.isqrt(_CHUNK // rule.area))
    else:
        step = max(1, _CHUNK // p.m_colors)
        labels = np.arange(p.m_colors)
    draw = max(1, _CHUNK // rule.rows)

    def chunks():
        for d0 in range(0, count, draw):
            batch = list(zip(*_sample_rect_indices(
                seed, start + d0, min(draw, count - d0), p.n_side, rule.rows)))
            for b0 in range(0, len(batch), step):
                yield batch[b0:b0 + step]

    for rects in chunks():
        if ranked:
            grids = [_rect_colors(table, r, c).ravel() for r, c in rects]
            labels, inverse = np.unique(np.concatenate(grids), return_inverse=True)
            which = np.repeat(np.arange(len(rects)), rule.area) * len(labels) + inverse
            counts = np.bincount(which, minlength=len(rects) * len(labels))
            counts = counts.reshape(len(rects), len(labels))
        else:
            counts = np.empty((len(rects), p.m_colors), dtype=np.int64)
            for k, (r, c) in enumerate(rects):
                counts[k] = np.bincount(_rect_colors(table, r, c).ravel(),
                                        minlength=p.m_colors)

        def rect(k, rects=rects):
            rows, cols = rects[k]
            return Rectangle(tuple(int(i) for i in rows), tuple(int(i) for i in cols))

        yield rect, counts, labels


def _run_sampled(table: BalancedTable, rule: _Rule, samples: int, seed: int,
                 threads: int):
    """(worst numerator, witness) over ``samples`` rectangles.  Worker
    chunks merge in sample order, so the report does not depend on
    ``threads``."""
    if samples < 1:
        raise InvalidParams("need samples >= 1")
    if threads < 1:
        raise InvalidParams("need threads >= 1")
    if rule.area > _MAX_AREA:
        raise TooLarge(f"a sampled rectangle of {rule.area} cells exceeds {_MAX_AREA}")
    per = (samples + threads - 1) // threads
    starts = range(0, samples, per)
    # rank the colors present instead of indexing all M of them when there
    # are too many colors
    ranked = table.params.m_colors > _DENSE_COLORS

    def run(s0):
        chunks = _sampled(table, rule, seed, s0, min(per, samples - s0), ranked)
        return _scan(chunks, rule, ranked)

    if threads == 1 or len(starts) == 1:
        results = [run(s0) for s0 in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, starts))
    worst = max(num for num, _ in results)
    witness = next((wit for _, wit in results if wit is not None), None)
    return worst, witness


def verify_sampled(
    table: BalancedTable,
    s_exp: int,
    d_exp: int,
    samples: int,
    seed: int,
    *,
    threads: int = 1,
) -> VerificationReport:
    """Dominant-subset check on ``samples`` seeded random S x S rectangles."""
    rule = _rule(table, s_exp, d_exp)
    result = _run_sampled(table, rule, samples, seed, threads)
    return _report(table, s_exp, rule, result, samples)


def verify_prefix_balance(
    table: BalancedTable,
    s_exp: int,
    *,
    mode: str = "exhaustive",
    samples: int = 1000,
    seed: int = 0,
    enum_cap: int = DEFAULT_ENUM_CAP,
    threads: int = 1,
) -> VerificationReport:
    """Check, per rectangle, every color-prefix bucket of every length.

    Applies in the D = M regime: for each prefix v of length l in
    [1, m_exp], the cells whose color starts with v must number at most
    2 * 2^-l * area.  At l = m_exp this is exactly the single-color
    dominant check.  ``threads`` applies to sampled mode.
    """
    rule = _rule(table, s_exp, table.params.m_exp, prefix=True)
    if mode == "exhaustive":
        result = _scan(_exhaustive(table, rule, enum_cap), rule)
        return _report(table, s_exp, rule, result)
    if mode == "sampled":
        result = _run_sampled(table, rule, samples, seed, threads)
        return _report(table, s_exp, rule, result, samples)
    raise InvalidParams(f"unknown mode {mode!r}")
