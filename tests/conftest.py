"""Shared test helpers: the scalar bounded draw, structured balanced micro
tables, the naive all-colorset balance oracle, scalar per-rectangle check
oracles, a scalar partial Fisher-Yates, a dict-based oracle for the
MatchCompressor parse, a one-trial-at-a-time oracle for planted
experiments, a per-word oracle for the keyed mixing function, a per-bit
oracle for the seeded stream, and a tracemalloc peak.  Every test starts
and ends with an empty table cache."""

import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from balext import extract, seqtransform
from balext.core import BitString, TableParams, ceil_log2
from balext.mixing import GAMMA, MASK64, scramble, stream_value
from balext.sources import (
    MatchCompressor,
    PlantedPairSpec,
    TrialRow,
    dep_estimate,
    gen_planted_pair,
)
from balext.tables import BACKEND_RANDOM, BalancedTable


def bounded(u: int, n: int) -> int:
    """Map a 64-bit value to [0, n), 1 <= n <= 2**64, by multiply-high: the
    scalar form of the draw that ``mixing.partial_shuffle_batch`` makes."""
    if n < 1 << 32:
        return ((u >> 32) * n) >> 32
    return (u * n) >> 64


def structured_table(seed: int, n_exp: int = 3, m_exp: int = 2) -> BalancedTable:
    """A seeded micro table that provably satisfies (S, M)-balance at S = N/2.

    Base pattern (a*r + b*c + e) mod M with odd a, b spreads every color
    evenly across residue classes; seeded row/column permutations and a
    color relabeling (all balance-preserving bijections) give distinct
    tables per seed.  Random tables at these parameters essentially never
    pass, so these are the test corpus for balance-implies-X properties.
    """
    n_side, m_colors = 1 << n_exp, 1 << m_exp
    a = 1 + 2 * bounded(stream_value(seed, 0), m_colors // 2)
    b = 1 + 2 * bounded(stream_value(seed, 1), m_colors // 2)
    e = bounded(stream_value(seed, 2), m_colors)
    perm_r = sorted(range(n_side), key=lambda r: stream_value(seed, 10 + r))
    perm_c = sorted(range(n_side), key=lambda c: stream_value(seed, 200 + c))
    recolor = sorted(range(m_colors), key=lambda m: stream_value(seed, 400 + m))
    cells = np.array(
        [
            [recolor[(a * perm_r[r] + b * perm_c[c] + e) % m_colors]
             for c in range(n_side)]
            for r in range(n_side)
        ],
        dtype=np.uint8,
    )
    cells.setflags(write=False)
    params = TableParams(n_exp, m_exp, n_exp - 1, m_exp)
    return BalancedTable(params, BACKEND_RANDOM, seed, cells)


def constant_table(n_exp: int = 3, m_exp: int = 2, color: int = 0) -> BalancedTable:
    n_side = 1 << n_exp
    cells = np.full((n_side, n_side), color, dtype=np.uint8)
    cells.setflags(write=False)
    params = TableParams(n_exp, m_exp, n_exp - 1, m_exp)
    return BalancedTable(params, BACKEND_RANDOM, 0, cells)


def partial_shuffle_oracle(state: int, n: int, take: int) -> list[int]:
    """The first ``take`` entries of a seeded partial Fisher-Yates over
    [0, n): swap k exchanges positions k and k + bounded(output k, n - k).
    Only moved positions are stored, so any n <= 2**64 works."""
    moved: dict[int, int] = {}
    out = []
    for k in range(take):
        j = k + bounded(stream_value(state, k), n - k)
        out.append(moved.get(j, j))
        moved[j] = moved.get(k, k)
    return out


def naive_balance_oracle(table: BalancedTable, s_exp: int, d_exp: int,
                         sides: tuple[int, int] | None = None) -> bool:
    """Definition-verbatim check: every size-M/D color set against every
    S x S rectangle, or every rectangle of the given (rows, cols) ``sides``,
    no histogram shortcuts."""
    p = table.params
    n_side, m_colors = p.n_side, p.m_colors
    side_rows, side_cols = sides or (1 << s_exp, 1 << s_exp)
    kdom = m_colors >> d_exp
    bound_rhs = 2 * side_rows * side_cols  # compare mass * D <= 2 * area
    d_div = 1 << d_exp
    for rows in combinations(range(n_side), side_rows):
        for cols in combinations(range(n_side), side_cols):
            counts = {}
            for r in rows:
                for c in cols:
                    v = int(table.cells[r, c])
                    counts[v] = counts.get(v, 0) + 1
            for colorset in combinations(range(m_colors), kdom):
                mass = sum(counts.get(a, 0) for a in colorset)
                if mass * d_div > bound_rhs:
                    return False
    return True


def dominant_check_oracle(hist, m_colors, kdom, d_div, area):
    """(ratio, offending colorset or None) for the dominant-subset rule:
    the kdom most frequent colors by (-count, color) against 2 * area / D."""
    order = sorted(range(m_colors), key=lambda c: (-hist[c], c))
    mass = sum(hist[c] for c in order[:kdom])
    ratio = Fraction(mass * d_div, 2 * area)
    if mass * d_div > 2 * area:
        return ratio, tuple(order[:kdom])
    return ratio, None


def prefix_check_oracle(hist, m_exp, area):
    """Worst (ratio, bad colorset) over all prefix lengths 1..m_exp.

    Level l partitions colors by their top l bits; the count of any bucket
    must be <= 2 * area / 2^l.  Buckets are produced by pairwise folding
    from the full histogram.
    """
    worst = Fraction(0)
    bad = None
    level_hist = list(hist)
    size = len(level_hist)
    for level in range(m_exp, 0, -1):
        scale = 1 << level
        top = max(range(size), key=lambda v: (level_hist[v], -v))
        count = level_hist[top]
        ratio = Fraction(count * scale, 2 * area)
        if ratio > worst:
            worst = ratio
            if count * scale > 2 * area:
                width = m_exp - level
                bad = tuple(
                    c for c in range(top << width, (top + 1) << width) if hist[c] > 0
                )
        if size > 1:
            level_hist = [
                level_hist[2 * i] + level_hist[2 * i + 1] for i in range(size // 2)
            ]
            size //= 2
    return worst, bad


class _SuffixAutomaton:
    """Online suffix automaton with one transition dict per state; accepts
    every factor of the text."""

    def __init__(self) -> None:
        self.link = [-1]
        self.length = [0]
        self.go: list[dict[int, int]] = [{}]
        self.last = 0

    def extend(self, c: int) -> None:
        link, length, go = self.link, self.length, self.go
        cur = len(length)
        length.append(length[self.last] + 1)
        link.append(0)
        go.append({})
        p = self.last
        while p != -1 and c not in go[p]:
            go[p][c] = cur
            p = link[p]
        if p != -1:
            q = go[p][c]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(length)
                length.append(length[p] + 1)
                link.append(link[q])
                go.append(dict(go[q]))
                while p != -1 and go[p].get(c) == q:
                    go[p][c] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        self.last = cur


def _gamma_bits(n: int) -> int:
    return 2 * (n.bit_length() - 1) + 1


def match_cost_oracle(s: BitString) -> int:
    """MatchCompressor's token cost, parsed bit by bit on a dict-based
    suffix automaton with ``ceil_log2`` offsets."""
    n = len(s)
    if n == 0:
        return 1
    bits = [s.bit(i) for i in range(n)]
    sa = _SuffixAutomaton()
    go = sa.go
    cost = 0
    lit_run = 0
    i = 0
    while i < n:
        node = 0
        j = i
        while j < n:
            nxt = go[node].get(bits[j])
            if nxt is None:
                break
            node = nxt
            j += 1
        match_len = j - i
        offs = max(1, ceil_log2(i)) if i > 0 else 1
        if match_len >= 1 and match_len > 1 + _gamma_bits(match_len) + offs:
            if lit_run:
                cost += 1 + _gamma_bits(lit_run) + lit_run
                lit_run = 0
            cost += 1 + _gamma_bits(match_len) + offs
            for k in range(i, j):
                sa.extend(bits[k])
            i = j
        else:
            lit_run += 1
            sa.extend(bits[i])
            i += 1
    if lit_run:
        cost += 1 + _gamma_bits(lit_run) + lit_run
    return cost


def experiment_chunk_oracle(spec, table, trials):
    """(rows, output counts) of trials 0 .. trials-1, one trial at a time: a
    spec and a pair per trial seed, the table's scalar lookup and an estimate
    per trial, as ``sources._experiment_chunk`` returns them."""
    hexw = (table.params.m_exp + 3) // 4
    estimator = MatchCompressor()
    rows = []
    outs: Counter = Counter()
    for t in range(trials):
        t_seed = stream_value(spec.seed, t)
        x, y = gen_planted_pair(PlantedPairSpec(spec.n, spec.sigma, spec.alpha, t_seed))
        z = table.lookup(x.value, y.value)
        outs[z] += 1
        dep_hat = dep_estimate(x, y, estimator)
        rows.append(TrialRow(t, t_seed, spec.shared_bits, dep_hat, format(z, f"0{hexw}x")))
    return rows, outs


def keyed_color_oracle(key: int, n_exp: int, m_exp: int, row: int, col: int) -> int:
    """``tables.keyed_color`` one word at a time: each absorbed word is
    shifted out of the row or column, and each output word is or-ed in."""

    def absorb(h, word):
        return scramble(((h ^ word) + GAMMA) & MASK64)

    words = (n_exp + 63) // 64
    h = absorb(0, key & MASK64)
    h = absorb(h, n_exp)
    h = absorb(h, m_exp)
    for t in range(words):
        h = absorb(h, (row >> (64 * t)) & MASK64)
    h = absorb(h, key >> 64)
    for t in range(words):
        h = absorb(h, (col >> (64 * t)) & MASK64)
    color = 0
    for t in range((m_exp + 63) // 64):
        color |= stream_value(h, t) << (64 * t)
    return color & ((1 << m_exp) - 1)


def stream_bit_oracle(seed: int, pos: int) -> int:
    """Bit ``pos`` of ``SeededBitStream(seed)``, read one position at a
    time: bit 63 - pos % 64 of the seed stream's output pos // 64."""
    return (stream_value(seed, pos // 64) >> (63 - pos % 64)) & 1


def peak_traced_bytes(fn) -> int:
    """Peak bytes that tracemalloc traces while ``fn()`` runs; numpy
    buffers are traced."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(autouse=True)
def _empty_table_cache():
    """No test sees a table that an earlier test put in the process-wide
    cache, so a monkeypatched builder is always the one that runs, and no
    test depends on when garbage collection drops the record of checked
    block tables."""
    extract._cached_table.cache_clear()
    seqtransform._checked_tables.clear()
    yield
    extract._cached_table.cache_clear()
    seqtransform._checked_tables.clear()


@pytest.fixture
def micro_params() -> TableParams:
    return TableParams(3, 2, 2, 2)
