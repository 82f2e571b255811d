"""Rectangle-balance verification, exhaustive and sampled.

The balance property quantifies over all color sets A of size M/D and all
S x S rectangles; for a fixed rectangle the worst A is the M/D most
frequent colors, so each rectangle needs one histogram and a top-k sum
(the dominant-subset check) instead of a C(M, M/D) enumeration.  Every
verifier checks S x S rectangles only, and that suffices: a larger
rectangle's color fraction is the average of its S x S sub-rectangles'
fractions.  The prefix rule (D = M, every color-prefix bucket) reduces
to the single-color check, see :func:`_check_counts`.

Every verifier ends in one core, :func:`_check_counts`, on a color-major
(U, K) count array: row u holds one of U ascending color labels, column k
one of K rectangles, so each step across colors is one numpy operation
over all K rectangles.  The top-k sum is a max (k = 1), a sum (k = U), a
compare-exchange network over color rows (U <= 8) or a per-rectangle sort.
The core finds, in exact integers, the worst numerator over 2 * area and
the first violating rectangle, whose offending colors :func:`_colorset`
names.  Only the final worst ratio becomes a ``Fraction``.

Exhaustive mode covers every pair of S-subsets, rows and columns in
lexicographic order, chunk by chunk.  Where the shape suits it, one
``bincount`` first builds each table row's histogram over every column
subset, and a chunk of row subsets sums its rows' histograms with one
contiguous ``take`` per row; otherwise each chunk gathers its rectangles'
cells with two ``take`` calls and counts them with one ``bincount``.
Either way memory is bounded per chunk, not with N * N * M or with the
number of subsets.  Sampled mode draws seeded random rectangles chunk by
chunk (rows and columns by a sparse partial Fisher-Yates, sample j from
streams 2j and 2j+1 of the verification seed), gathers each one's cells
with two ``take`` calls, or computes them from a random table's formula
or for a keyed table, and counts them into one row of a rectangle-major
array that the core reads transposed; when M > 2^20 it ranks the colors
present with ``np.unique`` instead.  A chunk of samples holds its
O(chunk x S) draws, its count array and its rectangles' cells, so memory
grows with neither the sample count nor N.  Sampled mode is a Monte-Carlo
relaxation with no certificate.

Reports are reproducible: the witness is the first violating rectangle in
enumeration/sample order and the worst ratio is a max over checked
rectangles, both independent of the worker count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .core import InvalidParams, TableParams, TooLarge, seed64
from .mixing import partial_shuffle_batch, stream_block_np
from .tables import EXPLICIT_N_EXP_CAP, BalancedTable, keyed_colors_grid

ENUM_CAP = 10**8             # most rectangles an exhaustive check enumerates
_CHUNK = 1 << 14             # entries of a chunk's gathered cells, count array or draws
_NETWORK_COLORS = 8          # up to this many colors, a dominant check sorts by network
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
    """A verifier's verdict on one table.

    The report keeps the checked table, so the table's cells stay in memory
    as long as the report does, and hashes it only when ``table_digest`` is
    first read: a caller that reads only the verdict never hashes every
    cell.  Two reports are equal when their fields and table digests are.
    """

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
    _table: BalancedTable = field(repr=False, compare=False)

    @property
    def table_digest(self) -> str:
        return self._table.digest()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        same = all(getattr(self, f.name) == getattr(other, f.name)
                   for f in fields(self) if f.compare)
        return same and self.table_digest == other.table_digest

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
    prefix: bool               # a prefix report, checked with d_exp = m_exp
    side: int                  # the rectangle side S

    @property
    def area(self) -> int:
        return self.side * self.side


def _rule(table: BalancedTable, s_exp: int, d_exp: int, *, prefix: bool = False) -> _Rule:
    """The parameter check every verifier goes through."""
    p = table.params
    if not 0 <= s_exp <= p.n_exp:
        raise InvalidParams(f"need 0 <= s_exp <= n_exp = {p.n_exp}, got {s_exp}")
    if not 0 <= d_exp <= p.m_exp:
        raise InvalidParams("need 0 <= d_exp <= m_exp")
    return _Rule(p.m_exp, d_exp, prefix, 1 << s_exp)


def _check_counts(counts: np.ndarray, rule: _Rule):
    """Check every rectangle of a color-major (U, K) count array: row u
    holds one color's count in each of K rectangles, colors ascending.

    Returns the worst numerator over 2 * area, in exact integers, and the
    first violating rectangle (None when every one passes).

    The prefix rule needs no levels of its own.  It is checked with
    D = M, and a level-l bucket of 2^(m-l) colors holds at most 2^(m-l)
    times its heaviest color's count, so count * 2^l never exceeds that
    color's count * 2^m: the single-color level m has the worst ratio
    and, ties going to the longer prefix, the witness.
    """
    kdom = min(1 << (rule.m_exp - rule.d_exp), len(counts))
    mass = _dominant_mass(counts, kdom)
    worst = int(np.maximum.reduce(mass)) << rule.d_exp
    bound = 2 * rule.area
    if worst <= bound:
        return worst, None
    return worst, int((mass > bound >> rule.d_exp).argmax())   # mass * D > 2 * area


def _dominant_mass(counts: np.ndarray, kdom: int) -> np.ndarray:
    """Per rectangle, the summed counts of its kdom most frequent colors.

    Up to _NETWORK_COLORS colors, kdom bubble passes of compare-exchanges
    over whole color rows move each rectangle's kdom largest counts to the
    last rows; more colors sort each rectangle's counts.
    """
    u = len(counts)
    if kdom == 1:
        return np.maximum.reduce(counts)
    if kdom == u:
        return np.add.reduce(counts)
    if u > _NETWORK_COLORS:
        top = np.sort(np.ascontiguousarray(counts.T))[:, u - kdom:]
        return np.add.reduce(np.ascontiguousarray(top.T))
    rows = list(counts)
    for p in range(kdom):
        for i in range(u - 1 - p):
            a, b = rows[i], rows[i + 1]
            rows[i + 1] = np.maximum(a, b)
            if p < kdom - 1:
                rows[i] = np.minimum(a, b)
    return sum(rows[u - kdom:])


def _colorset(row: np.ndarray, labels: np.ndarray, rule: _Rule, ranked: bool):
    """The offending color set of a violating rectangle's count vector: the
    M/D most frequent colors by (-count, color), zero counts included, or,
    when ``ranked`` (labels from ``np.unique``), only the colors present,
    ascending.  A prefix witness (D = M) is its heaviest color."""
    top = np.argsort(-row, kind="stable")[:1 << (rule.m_exp - rule.d_exp)]
    if ranked:
        top = np.sort(top[row[top] > 0])
    return tuple(int(labels[i]) for i in top)


def _scan(chunks, rule: _Rule, ranked: bool = False):
    """(worst numerator, first witness) over (rectangle of column, count
    array, labels) chunks taken in order."""
    worst, witness = 0, None
    for rect, counts, labels in chunks:
        num, first = _check_counts(counts, rule)
        worst = max(worst, num)
        if first is not None and witness is None:
            colors = _colorset(counts[:, first], labels, rule, ranked)
            witness = (rect(first), ColorSet(colors))
    return worst, witness


def _report(table, s_exp, rule, result, samples=None) -> VerificationReport:
    worst, witness = result
    if samples is None:
        checked = math.comb(table.params.n_side, rule.side) ** 2
    else:
        checked = samples
    return VerificationReport(
        mode="exhaustive" if samples is None else "sampled", samples=samples,
        passed=witness is None, rectangles_checked=checked,
        worst_ratio=Fraction(worst, 2 * rule.area), witness=witness,
        check_s_exp=s_exp, check_d_exp=rule.d_exp, prefix_mode=rule.prefix,
        table_params=table.params, _table=table,
    )


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------


class _Enumeration(NamedTuple):
    """What enumerating the S x S rectangles of an N x N table with M colors
    needs besides its cells."""

    index: np.ndarray               # S-subsets of rows and of columns, lexicographic
    labels: np.ndarray              # np.arange(M)
    n_rows: int                     # row and column subsets per chunk
    n_cols: int
    by_row: bool                    # count from per-row histograms
    slots: np.ndarray               # bincount slot offsets, see _exhaustive


@lru_cache(maxsize=2)
def _enumeration(n_side: int, side: int, m_colors: int) -> _Enumeration:
    """The subsets, labels, chunk shape and count method of an enumeration.

    Counting ``by_row`` builds, once per table, each row's histogram over
    every column subset, M * N * C(N, S) entries, and sums a rectangle's
    rows of them, S * M reads.  It is chosen whenever those histograms and
    their gathered cells fit in _CHUNK entries, so they never grow with
    the number of subsets.  Otherwise each chunk gathers and counts its
    rectangles' cells, and holds several row subsets only when it holds
    every column subset, so chunks stay in rows-major order.  Either way a
    chunk's gathered cells and count array hold at most _CHUNK entries,
    unless one rectangle's do.
    """
    subsets = math.comb(n_side, side)
    by_row = n_side * subsets * max(side, m_colors) <= _CHUNK
    if by_row:
        n_cols = subsets
        n_rows = min(subsets, max(1, _CHUNK // (m_colors * subsets)))
        # (row r, subset c) of a color's per-row histograms
        slots = (np.arange(n_side)[:, None] * subsets + np.arange(subsets))[:, :, None]
    else:
        per_rect = max(side * side, m_colors)
        n_cols = min(subsets, max(1, _CHUNK // per_rect))
        n_rows = 1
        if n_cols == subsets:
            n_rows = min(subsets, max(1, _CHUNK // (n_cols * per_rect)))
        # the count row of each rectangle in a chunk
        slots = (np.arange(n_rows)[:, None, None, None] * n_cols
                 + np.arange(n_cols)[:, None]) * m_colors
    arrays = (
        np.array(list(combinations(range(n_side), side)), np.intp).reshape(subsets, side),
        np.arange(m_colors),
        slots,
    )
    for a in arrays:
        a.setflags(write=False)
    index, labels, slots = arrays
    return _Enumeration(index, labels, n_rows, n_cols, by_row, slots)


def _exhaustive(table: BalancedTable, rule: _Rule):
    """Yield (rectangle of column, count array, labels) chunks covering
    every S x S rectangle, rows-major in lexicographic order.

    By rows, one ``bincount`` builds the (M, N, C(N, S)) per-row
    histograms, and a chunk of row subsets sums its rows' histograms with
    one contiguous ``take`` per row.  Directly, each chunk gathers its
    rectangles' cells with two ``take`` calls and counts them with one
    ``bincount``, each rectangle into its own run of M slots, and yields
    the transposed view.
    """
    if not table.is_explicit:
        raise TooLarge("exhaustive verification requires an explicit table")
    n_side, m_colors = table.params.n_side, table.params.m_colors
    count = math.comb(n_side, rule.side) ** 2
    if count > ENUM_CAP:
        raise TooLarge(f"{count} rectangles exceed the enumeration cap {ENUM_CAP}")
    e = _enumeration(n_side, rule.side, m_colors)
    subsets = len(e.index)
    cells = table.cells
    if cells is None:            # a formula table's cells, held for this check only
        cells = table.grid(np.arange(n_side), np.arange(n_side))

    def chunk_rect(r0, c0, width):
        def rect(i):
            r, c = divmod(i, width)
            return Rectangle(tuple(e.index[r0 + r].tolist()),
                             tuple(e.index[c0 + c].tolist()))
        return rect

    if e.by_row:
        cells = cells.take(e.index, axis=1)                     # (N, w, S)
        slots = cells * np.intp(n_side * subsets) + e.slots
        hist = np.bincount(slots.ravel(), minlength=m_colors * n_side * subsets)
        hist = hist.reshape(m_colors, n_side, subsets)
        for r0 in range(0, subsets, e.n_rows):
            rows = e.index[r0:r0 + e.n_rows]
            counts = hist.take(rows[:, 0], axis=1)              # (M, k, w)
            for j in range(1, rule.side):
                counts += hist.take(rows[:, j], axis=1)
            yield chunk_rect(r0, 0, subsets), counts.reshape(m_colors, -1), e.labels
        return
    for r0 in range(0, subsets, e.n_rows):
        block = cells.take(e.index[r0:r0 + e.n_rows], axis=0)   # (k, S, N)
        for c0 in range(0, subsets, e.n_cols):
            chunk = e.index[c0:c0 + e.n_cols]
            grid = block.take(chunk, axis=2)                    # (k, S, w, S)
            slots = grid + e.slots[:len(block), :, :len(chunk)]
            size = len(block) * len(chunk) * m_colors
            counts = np.bincount(slots.ravel(), minlength=size)
            yield (chunk_rect(r0, c0, len(chunk)), counts.reshape(-1, m_colors).T,
                   e.labels)


def verify_exhaustive(
    table: BalancedTable,
    s_exp: int,
    d_exp: int,
) -> VerificationReport:
    """Check every S x S rectangle against the dominant-subset bound."""
    rule = _rule(table, s_exp, d_exp)
    result = _scan(_exhaustive(table, rule), rule)
    return _report(table, s_exp, rule, result)


def balance_holds(table: BalancedTable, s_exp: int, d_exp: int) -> bool:
    """Early-exit exhaustive pass/fail (used by the canonical search):
    stops at the first violating chunk."""
    rule = _rule(table, s_exp, d_exp)
    return all(_check_counts(counts, rule)[1] is None
               for _, counts, _ in _exhaustive(table, rule))


# ---------------------------------------------------------------------------
# Sampled verification
# ---------------------------------------------------------------------------


def _rect_colors(table: BalancedTable, rows: np.ndarray, cols: np.ndarray):
    """The rectangle's cells: explicit ones from :meth:`BalancedTable.grid`,
    keyed ones below 2^63 as an intp view that ``bincount`` counts as is."""
    if table.is_explicit:
        return table.grid(rows, cols)
    p = table.params
    if p.m_exp <= 64:
        grid = keyed_colors_grid(table.seed_or_key, p.n_exp, p.m_exp, rows, cols)
        return grid if p.m_exp == 64 else grid.view(np.intp)
    return np.array(
        [[table.lookup(int(r), int(c)) for c in cols] for r in rows], dtype=object
    )


def _sampled(table: BalancedTable, rule: _Rule, seed: int, start: int, count: int,
             ranked: bool):
    """Yield (rectangle of column, count array, labels) chunks for samples
    start..start+count-1.  Sample j's rows and columns are partial
    Fisher-Yates draws seeded by outputs 2j and 2j + 1 of the seed's
    stream.  Samples are drawn in batches whose row and column draws hold
    at most _CHUNK entries each, and counted in chunks sized by their
    count array, one rectangle per row, yielded transposed to
    color-major."""
    p = table.params
    if ranked:    # k rectangles hold at most k * area distinct colors
        step = max(1, math.isqrt(_CHUNK // rule.area))
    else:
        step = max(1, _CHUNK // p.m_colors)
        labels = np.arange(p.m_colors)
    draw = max(1, _CHUNK // rule.side)

    def chunks():
        for d0 in range(0, count, draw):
            states = stream_block_np(seed, 2 * (start + d0), 2 * min(draw, count - d0))
            batch = list(zip(partial_shuffle_batch(states[0::2], p.n_side, rule.side),
                             partial_shuffle_batch(states[1::2], p.n_side, rule.side)))
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

        yield rect, counts.T, labels


def _run_sampled(table: BalancedTable, rule: _Rule, samples: int, seed: int,
                 threads: int):
    """(worst numerator, witness) over ``samples`` rectangles.  Worker
    chunks merge in sample order, so the report does not depend on
    ``threads``."""
    if samples < 1:
        raise InvalidParams("need samples >= 1")
    seed64(seed)
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
        from concurrent.futures import ThreadPoolExecutor

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
    threads: int = 1,
) -> VerificationReport:
    """Check, per rectangle, every color-prefix bucket of every length.

    Applies in the D = M regime: for each prefix v of length l in
    [1, m_exp], the cells whose color starts with v must number at most
    2 * 2^-l * area.  At l = m_exp this is exactly the single-color
    dominant check, and it implies every shorter level, so that is the
    check made.  ``threads`` applies to sampled mode.
    """
    rule = _rule(table, s_exp, table.params.m_exp, prefix=True)
    if mode == "exhaustive":
        result = _scan(_exhaustive(table, rule), rule)
        return _report(table, s_exp, rule, result)
    if mode == "sampled":
        result = _run_sampled(table, rule, samples, seed, threads)
        return _report(table, s_exp, rule, result, samples)
    raise InvalidParams(f"unknown mode {mode!r}")
