"""Evaluation harness: planted-dependency sources, complexity surrogates,
dependency estimation, and output-quality metrics.

The planted generator produces pairs x = r1 || shared || 0-pad and
y = r2 || shared || 0-pad whose dependency is |shared| by construction,
giving every experiment a ground-truth axis next to the noisy estimate.

The complexity surrogate is a bit-level greedy parser with an
unbounded previous-occurrence window, whose match decisions for all
positions come from one numpy sort (see :class:`MatchCompressor` for the
exact token costs and the parse).  It is self-contained and platform
independent; the thresholds THETA_INDEP / THETA_SYM below were fixed once
by the committed calibration campaign (scripts/calibrate_thresholds.py)
and are not tuned to any test.

Collision entropy is the primary output metric: the plug-in min-entropy
estimator is badly biased at desk-scale sample counts, while the collision
probability concentrates fast.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    BitString,
    InvalidParams,
    ceil_log2,
    derive_string_params,
    round_half_up,
    seed64,
)
from .extract import TablePolicy, table_for
from .mixing import stream_bits, stream_block_np, stream_values_np, substream

# Fixed by the calibration campaign committed under calibration/ (n = 1024,
# 1000 seeds): max |dep| observed on independent pairs was 48 bits and the
# max symmetry gap 44 bits; both scaled by 1.5 and rounded up to 8.
THETA_INDEP = 72.0
THETA_SYM = 72.0


@dataclass(frozen=True)
class PlantedPairSpec:
    """Generative model: each string carries round(sigma*n) seeded-random
    bits of which the trailing round(alpha*n) are shared between the pair;
    the rest of the length is zero padding."""

    n: int
    sigma: Fraction
    alpha: Fraction
    seed: int

    def __post_init__(self) -> None:
        sigma = Fraction(self.sigma)
        alpha = Fraction(self.alpha)
        if not 0 <= alpha <= sigma <= 1:
            raise InvalidParams("need 0 <= alpha <= sigma <= 1")
        if self.n < 1:
            raise InvalidParams("need n >= 1")
        seed64(self.seed)

    @property
    def shared_bits(self) -> int:
        return _bit_counts(self.n, self.sigma, self.alpha)[0]

    @property
    def random_bits(self) -> int:
        return _bit_counts(self.n, self.sigma, self.alpha)[1]


def _bit_counts(n: int, sigma, alpha) -> tuple[int, int]:
    # (shared, random) bits of a pair
    return round_half_up(Fraction(alpha) * n), round_half_up(Fraction(sigma) * n)


def gen_planted_pair(
    spec: PlantedPairSpec, *, seed: int | None = None
) -> tuple[BitString, BitString]:
    """Deterministic planted pair; streams 1, 2, 3 of the spec seed feed
    r1, r2, and the shared block respectively.  A given ``seed`` replaces
    the spec's: the pair of that seed at the spec's shape."""
    n_shared, n_random = _bit_counts(spec.n, spec.sigma, spec.alpha)
    seed = spec.seed if seed is None else seed64(seed)
    n_free = n_random - n_shared
    pad = spec.n - n_random
    shared = stream_bits(substream(seed, 3), n_shared)
    r1 = stream_bits(substream(seed, 1), n_free)
    r2 = stream_bits(substream(seed, 2), n_free)
    x = ((r1 << n_shared) | shared) << pad
    y = ((r2 << n_shared) | shared) << pad
    return BitString(x, spec.n), BitString(y, spec.n)


def _planted_pairs_np(
    n: int, n_shared: int, n_random: int, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`gen_planted_pair` for every uint64 seed at once, as the uint64
    values of x and y; needs n <= 64.  No shift reaches 64 bits."""

    def bits(tag: int, count: int) -> np.ndarray:
        # stream_bits(substream(seed, tag), count), count <= 64
        if count == 0:
            return np.zeros_like(seeds)
        return stream_values_np(stream_values_np(seeds, tag), 0) >> np.uint64(64 - count)

    n_free = n_random - n_shared
    shared = bits(3, n_shared)

    def place(r: np.ndarray) -> np.ndarray:
        # ((r << n_shared) | shared) << pad; n_free > 0 makes n_shared < 64,
        # and n_random > 0 makes pad < 64
        v = (r << np.uint64(n_shared)) | shared if n_free else shared
        return v << np.uint64(n - n_random) if n_random else v

    return place(bits(1, n_free)), place(bits(2, n_free))


# ---------------------------------------------------------------------------
# Complexity surrogates
# ---------------------------------------------------------------------------


_LITERAL_ONLY_MAX = 25   # no match pays in a shorter input (MatchCompressor)
_KEY_BITS = 64   # width of the packed sort keys (MatchCompressor)
_SCAN_MAX = 16   # candidates scanned at a take without a numpy filter first
_BYTE_SHIFTS = np.arange(8, dtype=np.uint64)
_LAYOUT_CACHE_MAX_N = 1 << 14   # longer inputs build their parse layout per call


def _take_tests(offs: int) -> tuple[tuple[int, int], ...]:
    """(L, weight) pairs for the match positions whose offset costs
    ``offs`` bits: a match of length l pays, l > 9 and l > 2 *
    l.bit_length() + offs, iff the weights of the pairs with L <= l sum to
    more than 0.

    l - 2 * l.bit_length() grows with l except for a drop of 1 at each
    power of two, so the lengths that pay are l >= L0 minus at most the one
    power of two L with L - 1 >= L0 that falls back to offs; that L gets
    weight -1 and L + 1 weight +1.  No drop at or beyond 2 * L0 reaches
    back to offs, since l - L0 outgrows twice the rise of the bit length.
    """
    def pays(length: int) -> bool:
        return length > 9 and length > 2 * length.bit_length() + offs

    first = next(length for length in itertools.count(10) if pays(length))
    tests = [(first, 1)]
    for length in range(first + 1, 2 * first):
        if not pays(length):
            tests += [(length, -1), (length + 1, 1)]
    return tuple(tests)


@dataclass(frozen=True)
class _ParseLayout:
    """The match tests for inputs of n bits.  Test j asks "l(i) >= L" at
    the positions i of one offs group, and sorts the keys (test j, L-bit
    window at p, p) for p = 0..hi, key positions start[j]..start[j] + hi.
    Sorting keeps each test's keys at its own positions, so every per-key
    array below holds for the sorted keys too."""

    hi: tuple[int, ...]
    start: tuple[int, ...]
    base: tuple[int, ...]   # offs b -> the test of group b's smallest L
    pos: np.ndarray         # p
    shift: np.ndarray       # packed: window >> shift, low p_bits cleared, is
    low: np.ndarray         # the L-bit window << p_bits; or j << (Lmax + p_bits) | p
    key_L: np.ndarray       # l(i) >= L passes at i iff its run's first p <= i - L
    key_lo: np.ndarray      # and i >= lo, the first position of the group
    key_start: np.ndarray
    key_weight: np.ndarray  # take(i) iff the passed tests' weights sum to > 0
    p_bits: int
    packed: bool            # one _KEY_BITS integer holds (j, window, p)


def _parse_layout(n: int) -> _ParseLayout:
    return _cached_layout(n) if n <= _LAYOUT_CACHE_MAX_N else _build_layout(n)


def _build_layout(n: int) -> _ParseLayout:
    tests = []   # (L, weight, lo, hi)
    base = [0]
    b = 1
    while (lo := 0 if b == 1 else (1 << (b - 1)) + 1) < n:
        base.append(len(tests))
        for length, weight in _take_tests(b):
            # l(i) <= i and l(i) <= n - i, so only i in [L, n - L] can pass
            hi = min(1 << b, n - length)
            if hi >= max(lo, length):
                tests.append((length, weight, lo, hi))
        b += 1
    L, weight, lo, hi = (np.array(col, dtype=np.int64) for col in zip(*tests))
    start = np.concatenate(([0], np.cumsum(hi + 1)[:-1]))
    test = np.repeat(np.arange(len(tests)), hi + 1)
    pos = np.arange(int(hi.sum()) + len(tests)) - start[test]
    p_bits = int(hi.max()).bit_length()
    top = int(L.max()) + p_bits
    packed = top + (len(tests) - 1).bit_length() <= _KEY_BITS
    shift = (64 - p_bits - L[test]).clip(0).astype(np.uint64)
    low = (test.astype(np.uint64) << np.uint64(top if packed else 0)) | pos.astype(np.uint64)
    per_key = [pos, shift, low, L[test], lo[test], start[test], weight[test].astype(np.float64)]
    for a in per_key:
        a.flags.writeable = False   # shared by every parse of this length
    return _ParseLayout(tuple(hi.tolist()), tuple(start.tolist()), tuple(base), *per_key,
                        p_bits, packed)


_cached_layout = functools.lru_cache(maxsize=8)(_build_layout)


def _windows(s: BitString) -> np.ndarray:
    """W[p] = bits p..p+63 of s as a uint64, most significant first, read
    as zeros past the end."""
    n = len(s)
    nbytes = (n + 7) // 8
    buf = s.to_bytes() + bytes(8)
    # the big-endian word at every byte offset q, and byte q + 8
    words = np.ndarray((nbytes,), ">u8", buf, strides=(1,)).astype(np.uint64)
    after = np.frombuffer(buf, np.uint8, nbytes, 8).astype(np.uint64)
    w = words[:, None] << _BYTE_SHIFTS
    w |= after[:, None] >> (8 - _BYTE_SHIFTS)
    return w.ravel()[:n]


def _sorted_runs(w: np.ndarray, lay: _ParseLayout) -> tuple[np.ndarray, np.ndarray]:
    """(p, new) of every test's keys in sorted order: p, and whether the key
    starts a run of equal (test, window)."""
    p_mask = np.uint64((1 << lay.p_bits) - 1)
    if lay.packed:
        keys = w[lay.pos]
        keys >>= lay.shift
        keys &= ~p_mask
        keys |= lay.low
        keys.sort()
        group = keys >> np.uint64(lay.p_bits)
        new = np.empty(len(keys), dtype=bool)
        new[0] = True
        np.not_equal(group[1:], group[:-1], out=new[1:])
        return (keys & p_mask).view(np.int64), new
    # one stable sort by window per test: p stays ascending in each run
    ps, news = [], []
    for hi, start in zip(lay.hi, lay.start):
        win = w[:hi + 1] >> np.uint64(64 - int(lay.key_L[start]))
        order = np.argsort(win, kind="stable")
        win = win[order]
        ps.append(order)
        news.append(np.concatenate(([True], win[1:] != win[:-1])))
    return np.concatenate(ps).astype(np.int64), np.concatenate(news)


def _longest_match(word, t: int, cap: int, qs: list[int], best: int) -> int:
    """The longest min(lcp(q, t), t - q, cap) over best and the ascending
    candidates qs, where word(p) is the 64-bit window at p."""
    for q in qs:
        lim = min(t - q, cap)
        if lim <= best:
            break     # every later q is closer to t
        m = 0
        while m < lim:
            x = word(q + m) ^ word(t + m)
            if x:
                m += 64 - x.bit_length()
                break
            m += 64
        if m > best:
            best = min(m, lim)
    return best


class MatchCompressor:
    """Self-contained bit-level compressor used as the complexity surrogate.

    Greedy left-to-right parse.  At position i the parser finds the longest
    prefix of the remaining input that occurs as a factor of the already
    emitted text (positions 0..i-1, unbounded window).  A match of length L
    is taken iff L > 1 + gamma(L) + offs(i), i.e. iff its token is strictly
    cheaper than carrying the same bits literally; otherwise the bit joins
    the current literal run.  Token costs in bits:

        literal run of L bits:  1 + gamma(L) + L
        match of length L:      1 + gamma(L) + offs(i)

    where gamma(L) = 2*floor(log2 L) + 1 (Elias gamma) and offs(i) =
    max(1, ceil(log2 i)) encodes a match start within the emitted text.
    The estimate is the total token cost; the empty string costs 1 (an
    empty-stream marker).  The reference parse, one bit at a time on a
    suffix automaton, is ``tests/conftest.py::match_cost_oracle``.

    The match length l(i) at i, the longest prefix of s[i:] that occurs
    inside s[:i], depends on s alone, not on the parse so far.  So whether
    the parse would take a match at i, the take map, is computed for every
    i at once in numpy, and the parse loop visits only the matches, adding
    the literal runs between them in closed form:

    * For a fixed L, "l(i) >= L" holds iff the first occurrence of the
      L-bit window at i starts at or before i - L.  The take rule is
      l > 9 and l - 2 * l.bit_length() > offs(i), and offs(i) = b for i in
      (2^(b-1), 2^b], so group b needs the test at its threshold length
      L0(b).  Because l - 2 * l.bit_length() drops by 1 at each power of
      two, a match of 16 at offs 6 does not pay though 15 and 17 do, and
      likewise 32 at offs 20; those two groups also test 2^k and 2^k + 1
      (see :func:`_take_tests`).
    * The keys (test, top L bits of the 64-bit window at p, p) of every
      test, for p up to the group's last position, go through one plain
      ``np.sort``; p in the low bits makes every key unique, so no stable
      sort is needed.  The first p of each run of equal (test, window),
      against i - L, gives the test at every i of the group.  Where a key
      would not fit in 64 bits (n beyond about 2^23) each test is sorted
      on its own, stably by window.
    * At a take t the parse needs l(t) exactly; the first occurrence alone
      does not give it, since the longest match may start later.  The
      candidates are t's run in the test of its group's smallest L,
      visited from the farthest p on, until t - p, the most a closer one
      can match, is no more than the best so far.  Each is compared one
      64-bit window at a time as Python ints.  A run longer than
      ``_SCAN_MAX`` is first cut in numpy to the candidates that agree
      with t on the 64 bits that end at the best length so far, as any
      candidate that beats it must; long zero runs give such runs.

    The map costs O(n log n) in numpy on about 2n keys; the loop costs a
    few µs per take.  Windows are 64 bits, enough for every threshold up
    to offs 49, i.e. inputs up to 2^49 bits.

    Inputs of 1 to 25 bits cost n + 2 * n.bit_length(), one literal run,
    without a parse.  A match at i of length L lies in s[:i] and in s[i:],
    so L <= i and L <= n - i, hence L <= 12 when n <= 25.  It pays only if
    L > 2 * L.bit_length() + offs(i): never for L <= 9, since offs(i) >= 1,
    and for L in 10..12 only if offs(i) < L - 8 <= 4, i.e. i <= 8 < L.  The
    first match that pays is at i = L = 13 (12 < 13), so n = 26 is the
    shortest input that can cost less: 26 zeros cost 33, not 36.
    """

    def estimate(self, s: BitString) -> float:
        return float(self.cost_bits(s))

    def cost_bits(self, s: BitString) -> int:
        n = len(s)
        if n <= _LITERAL_ONLY_MAX:
            return n + 2 * n.bit_length() if n else 1
        lay = _parse_layout(n)
        w = _windows(s)
        p, new = _sorted_runs(w, lay)
        idx = np.arange(len(p))
        run_first = idx * new
        np.maximum.accumulate(run_first, out=run_first)
        least = p[run_first]
        least += lay.key_L
        np.maximum(least, lay.key_lo, out=least)
        score = np.bincount(p, weights=(p >= least) * lay.key_weight, minlength=n)
        takes = (score > 0).tobytes()   # one byte per position: 1 at a take

        cost = 0
        pos = 0     # the parse has emitted s[:pos]
        t = takes.find(1)
        if t >= 0:
            at_of = np.empty(len(p), dtype=np.intp)   # sorted index of (test, p)
            at_of[lay.key_start + p] = idx
            word = w.item
            while t >= 0:
                offs = (t - 1).bit_length() or 1
                at = at_of.item(lay.start[lay.base[offs]] + t)
                a = run_first.item(at)
                cap = n - t
                best = 0
                rest = p[a:at]
                while len(rest) > _SCAN_MAX:
                    best = _longest_match(word, t, cap, [rest.item(0)], best)
                    # a later candidate q beats best only if q < t - best and
                    # it agrees with t on bits 0..best, so on the last 64
                    rest = rest[1:np.searchsorted(rest, t - best if best < cap else 0)]
                    if len(rest) <= _SCAN_MAX:
                        break
                    if best < 64:
                        rest = rest[(w[rest] ^ w[t]) >> np.uint64(63 - best) == 0]
                    else:
                        rest = rest[w[rest + (best - 63)] == w[t + best - 63]]
                best = _longest_match(word, t, cap, rest.tolist(), best)
                if t > pos:
                    lit = t - pos
                    cost += 2 * lit.bit_length() + lit
                cost += 2 * best.bit_length() + offs
                pos = t + best
                t = takes.find(1, pos)
        if pos < n:
            lit = n - pos
            cost += 2 * lit.bit_length() + lit
        return cost


def dep_estimate(x: BitString, y: BitString, est: MatchCompressor) -> float:
    """est(x) + est(y) - est(x || y); may be negative."""
    return est.estimate(x) + est.estimate(y) - est.estimate(x.concat(y))


# ---------------------------------------------------------------------------
# Empirical entropy metrics
# ---------------------------------------------------------------------------


def _as_counter(samples) -> tuple[Counter, int]:
    if isinstance(samples, Counter):
        counts = samples
    else:
        counts = Counter(
            (s.value, s.length) if isinstance(s, BitString) else s for s in samples
        )
    total = sum(counts.values())
    if total == 0:
        raise InvalidParams("samples must be nonempty")
    return counts, total


def min_entropy_empirical(samples) -> float:
    """-log2 of the largest empirical frequency."""
    counts, total = _as_counter(samples)
    return -math.log2(max(counts.values()) / total) + 0.0


def collision_entropy_empirical(samples) -> float:
    """-log2 of the empirical collision probability sum p_i^2."""
    counts, total = _as_counter(samples)
    cp = sum(c * c for c in counts.values()) / (total * total)
    return -math.log2(cp) + 0.0


# ---------------------------------------------------------------------------
# Extraction experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRow:
    trial: int
    seed: int
    dep_planted: int
    dep_hat: float
    z_hex: str


@dataclass(frozen=True)
class ExperimentReport:
    spec: PlantedPairSpec
    trials: int
    m_exp: int
    nominal_bound_bits: Fraction   # (2 sigma - alpha) n - 9 ceil(log2 n)
    collision_entropy: float
    min_entropy: float
    distinct_outputs: int
    insufficient_sampling: bool
    dep_hat_mean: float
    dep_hat_min: float
    dep_hat_max: float
    table_digest: str
    rows: tuple[TrialRow, ...]

    def summary_dict(self) -> dict:
        return {
            "n": self.spec.n,
            "sigma": str(Fraction(self.spec.sigma)),
            "alpha": str(Fraction(self.spec.alpha)),
            "seed": self.spec.seed,
            "trials": self.trials,
            "m_exp": self.m_exp,
            "nominal_bound_bits": float(self.nominal_bound_bits),
            "collision_entropy": self.collision_entropy,
            "min_entropy": self.min_entropy,
            "distinct_outputs": self.distinct_outputs,
            "insufficient_sampling": self.insufficient_sampling,
            "dep_planted": self.spec.shared_bits,
            "dep_hat_mean": self.dep_hat_mean,
            "dep_hat_min": self.dep_hat_min,
            "dep_hat_max": self.dep_hat_max,
            "table_digest": self.table_digest,
        }

    def to_json(self) -> str:
        return json.dumps(self.summary_dict(), sort_keys=True)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["trial", "seed", "dep_planted", "dep_hat", "z_hex"])
            for r in self.rows:
                w.writerow([r.trial, r.seed, r.dep_planted, f"{r.dep_hat:.1f}", r.z_hex])


_BATCH_MAX_BITS = 64   # trials are batched while an input fits one uint64


def _experiment_chunk(spec, table, trials):
    n = spec.n
    n_shared, n_random = _bit_counts(n, spec.sigma, spec.alpha)
    seeds = stream_block_np(spec.seed, 0, trials)
    if n <= _BATCH_MAX_BITS:
        xs, ys = _planted_pairs_np(n, n_shared, n_random, seeds)
        pairs = list(zip(xs.tolist(), ys.tolist()))
    else:
        pairs = []
        for t_seed in seeds.tolist():
            x, y = gen_planted_pair(spec, seed=t_seed)
            pairs.append((x.value, y.value))
    # every distinct pair is estimated and looked up once, in order of
    # first appearance
    dep_of = dict.fromkeys(pairs)
    est = MatchCompressor()
    for x, y in dep_of:
        dep_of[x, y] = dep_estimate(BitString(x, n), BitString(y, n), est)
    color_of = {p: table.lookup(*p) for p in dep_of}
    zs = [color_of[p] for p in pairs]
    fmt = f"0{(table.params.m_exp + 3) // 4}x"
    rows = list(map(TrialRow, range(trials), seeds.tolist(),
                    itertools.repeat(n_shared), [dep_of[p] for p in pairs],
                    [format(z, fmt) for z in zs]))
    return rows, Counter(zs)


def run_extraction_experiment(
    spec: PlantedPairSpec,
    trials: int,
    policy: TablePolicy = TablePolicy(),
) -> ExperimentReport:
    """Extract one output per trial through a single fixed table.

    Trial t draws its pair from seed ``stream_value(spec.seed, t)``; the
    table comes from the policy once and is shared across trials.

    All trials run in one thread, as one run.  Up to n = 64 bits the run
    is batched: its seeds and pairs come from numpy uint64 arrays.  Longer
    inputs run one trial at a time through :func:`gen_planted_pair`.
    Either way each distinct (x, y) is estimated once and looked up once,
    with :meth:`BalancedTable.lookup` for every backend.
    """
    if trials < 1:
        raise InvalidParams("need trials >= 1")
    params = derive_string_params(spec.n, spec.sigma, spec.alpha, strict=False)
    table = table_for(params.table_params(), policy)
    m_exp = params.m_exp
    rows, outs = _experiment_chunk(spec, table, trials)

    deps = [r.dep_hat for r in rows]
    nominal = (2 * Fraction(spec.sigma) - Fraction(spec.alpha)) * spec.n - 9 * ceil_log2(
        spec.n
    )
    return ExperimentReport(
        spec=spec,
        trials=trials,
        m_exp=m_exp,
        nominal_bound_bits=nominal,
        collision_entropy=collision_entropy_empirical(outs),
        min_entropy=min_entropy_empirical(outs),
        distinct_outputs=len(outs),
        insufficient_sampling=trials < (1 << m_exp),
        dep_hat_mean=sum(deps) / len(deps),
        dep_hat_min=min(deps),
        dep_hat_max=max(deps),
        table_digest=table.digest(),
        rows=tuple(rows),
    )
