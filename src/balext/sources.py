"""Evaluation harness: planted-dependency sources, complexity surrogates,
dependency estimation, and output-quality metrics.

The planted generator produces pairs x = r1 || shared || 0-pad and
y = r2 || shared || 0-pad whose dependency is |shared| by construction,
giving every experiment a ground-truth axis next to the noisy estimate.

The built-in complexity surrogate is a bit-level greedy parser with an
unbounded previous-occurrence window (see :class:`MatchCompressor` for the
exact token costs).  It is self-contained and platform independent; the
thresholds THETA_INDEP / THETA_SYM below were fixed once by the committed
calibration campaign (scripts/calibrate_thresholds.py) and are not tuned
to any test.

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
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Protocol

import numpy as np

from .core import (
    BitString,
    InvalidParams,
    ceil_log2,
    derive_string_params,
    round_half_up,
)
from .extract import TablePolicy, table_for
from .mixing import GAMMA, MASK64, scramble_np, stream_bits, stream_block_np, substream

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

    @property
    def shared_bits(self) -> int:
        return _bit_counts(self.n, self.sigma, self.alpha)[0]

    @property
    def random_bits(self) -> int:
        return _bit_counts(self.n, self.sigma, self.alpha)[1]


@functools.lru_cache(maxsize=256)
def _bit_counts(n: int, sigma, alpha) -> tuple[int, int]:
    # (shared, random) bits of a pair; every trial of an experiment asks again
    return round_half_up(Fraction(alpha) * n), round_half_up(Fraction(sigma) * n)


def gen_planted_pair(
    spec: PlantedPairSpec, *, seed: int | None = None
) -> tuple[BitString, BitString]:
    """Deterministic planted pair; streams 1, 2, 3 of the spec seed feed
    r1, r2, and the shared block respectively.  A given ``seed`` replaces
    the spec's: the pair of that seed at the spec's shape."""
    n_shared, n_random = _bit_counts(spec.n, spec.sigma, spec.alpha)
    seed = spec.seed if seed is None else seed
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
        state = scramble_np(seeds + np.uint64((tag + 1) * GAMMA & MASK64))
        return scramble_np(state + np.uint64(GAMMA)) >> np.uint64(64 - count)

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


class ComplexityEstimator(Protocol):
    def estimate(self, s: BitString) -> float: ...


_MEMO_MAX = 1 << 16   # costs remembered per MatchCompressor
_LITERAL_ONLY_MAX = 25   # no match pays in a shorter input (MatchCompressor)


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
    empty-stream marker).

    The parse runs in O(n) time.  It grows a suffix automaton of the
    emitted text one bit at a time and keeps the current match s[i:j] with
    its state between positions (matching statistics):

    * after a literal at i, the match becomes s[i+1:j], which is in the same
      state or, when L - 1 equals the parent's longest length, in the
      suffix-link parent; if emitting bit i then clones that state and
      s[i+1:j] is no longer than the clone, it moves to the clone;
    * after a taken match, the walk restarts at the root with j = i.

    The walk only ever reads forward from j, so it makes O(n) steps in all,
    and extending the automaton costs amortized O(1) per bit.

    Inputs of 1 to 25 bits cost n + 2 * n.bit_length(), one literal run,
    without a parse.  A match at i of length L lies in s[:i] and in s[i:],
    so L <= i and L <= n - i, hence L <= 12 when n <= 25.  It pays only if
    L > 2 * L.bit_length() + offs(i): never for L <= 9, since offs(i) >= 1,
    and for L in 10..12 only if offs(i) < L - 8 <= 4, i.e. i <= 8 < L.  The
    first match that pays is at i = L = 13 (12 < 13), so n = 26 is the
    shortest input that can cost less: 26 zeros cost 33, not 36.

    ``estimate`` remembers the cost of each (value, length) it has parsed,
    up to ``_MEMO_MAX`` entries per instance; the memo starts over when
    full.  ``cost_bits`` always parses.
    """

    def __init__(self) -> None:
        self._memo: dict[tuple[int, int], int] = {}
        self._memo_lock = threading.Lock()

    def estimate(self, s: BitString) -> float:
        key = (s.value, s.length)
        cost = self._memo.get(key)
        if cost is None:
            cost = self.cost_bits(s)
            with self._memo_lock:
                if len(self._memo) >= _MEMO_MAX:
                    self._memo.clear()
                self._memo[key] = cost
        return float(cost)

    def cost_bits(self, s: BitString) -> int:
        n = len(s)
        if n <= _LITERAL_ONLY_MAX:
            return n + 2 * n.bit_length() if n else 1
        bits = bytes(s) + b"\x02"   # one byte 0/1 per position, then an end mark
        # Online suffix automaton of s[:i] over the bits {0, 1}: go[c][state]
        # is the state reached by bit c (-1: none), plus suffix links and
        # longest lengths.  At most 2n - 1 states ever exist, so the last
        # slot is free: the root's link -1 indexes it, and its transitions
        # of 0 stop the link walks there.  go[2] lets no walk pass the end.
        size = 2 * n + 1
        go0, go1 = [-1] * size, [-1] * size
        go0[-1] = go1[-1] = 0
        go = (go0, go1, [-1] * size)
        link, length = [-1] * size, [0] * size
        states = 1
        last = 0
        cost = 0
        lit_run = 0
        # At a parse position i, s[i:j] is the longest prefix of s[i:] that
        # occurs in s[:i] and node is its state; the parse emits bits up to
        # ``end``.  Neither j nor end ever moves back.
        node = 0
        j = end = 0
        for i in range(n):
            if i == end:
                while True:
                    nxt = go[bits[j]][node]
                    if nxt < 0:
                        break
                    node = nxt
                    j += 1
                match_len = j - i
                # 1 + gamma(L) = 2 * L.bit_length() and offs(i) =
                # (i - 1).bit_length() or 1, so a match of 9 bits or fewer
                # never costs less than its literal bits
                if match_len > 9 and match_len > (
                        token := 2 * match_len.bit_length() + ((i - 1).bit_length() or 1)):
                    if lit_run:
                        cost += 2 * lit_run.bit_length() + lit_run
                        lit_run = 0
                    cost += token
                    end = j
                    node = 0   # restart at the root, which is never cloned
                else:
                    lit_run += 1
                    end = i + 1
                    if j == i:
                        j = end
                    elif match_len - 1 <= length[link[node]]:
                        node = link[node]   # s[i+1:j] is in the parent state
                keep = j - end    # length of the match that node carries on
            # extend the automaton by bit i
            go_c = go[bits[i]]
            cur = states
            states += 1
            length[cur] = length[last] + 1
            p = last
            while go_c[p] < 0:
                go_c[p] = cur
                p = link[p]
            if p < 0:
                link[cur] = 0
            else:
                q = go_c[p]
                if length[p] + 1 == length[q]:
                    link[cur] = q
                else:
                    clone = states
                    states += 1
                    length[clone] = length[p] + 1
                    link[clone] = link[q]
                    go0[clone] = go0[q]
                    go1[clone] = go1[q]
                    while go_c[p] == q:
                        go_c[p] = clone
                        p = link[p]
                    link[q] = clone
                    link[cur] = clone
                    if node == q and keep <= length[clone]:
                        node = clone   # the carried match moved to the clone
            last = cur
        if lit_run:
            cost += 2 * lit_run.bit_length() + lit_run
        return cost


class ExternalCompressorEstimator:
    """Adapter for byte-oriented compressors (e.g. zlib.compress).

    Estimates 8 * len(compress(packed bits)).  Excluded from acceptance
    tests; results depend on the external library's version.
    """

    def __init__(self, compress: Callable[[bytes], bytes]):
        self._compress = compress

    def estimate(self, s: BitString) -> float:
        return 8.0 * len(self._compress(s.to_bytes()))


def dep_estimate(x: BitString, y: BitString, est: ComplexityEstimator) -> float:
    """est(x) + est(y) - est(x || y); may be negative for real estimators."""
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
    return -math.log2(cp)


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


def _experiment_chunk(spec, table, m_exp, estimator, start, count):
    n = spec.n
    n_shared, n_random = _bit_counts(n, spec.sigma, spec.alpha)
    seeds = stream_block_np(spec.seed, start, count)
    zs = None
    if n <= _BATCH_MAX_BITS:
        xs, ys = _planted_pairs_np(n, n_shared, n_random, seeds)
        if table.cells is not None:
            zs = table.cells[xs.astype(np.intp), ys.astype(np.intp)].tolist()
        pairs = list(zip(xs.tolist(), ys.tolist()))
    else:
        pairs = []
        for t_seed in seeds.tolist():
            x, y = gen_planted_pair(spec, seed=t_seed)
            pairs.append((x.value, y.value))
    # every distinct pair is estimated once (and looked up once in a keyed
    # table), in order of first appearance
    dep_of = dict.fromkeys(pairs)
    for x, y in dep_of:
        dep_of[x, y] = dep_estimate(BitString(x, n), BitString(y, n), estimator)
    if zs is None:
        color_of = {p: table.lookup(*p) for p in dep_of}
        zs = [color_of[p] for p in pairs]
    fmt = f"0{(m_exp + 3) // 4}x"
    rows = list(map(TrialRow, range(start, start + count), seeds.tolist(),
                    itertools.repeat(n_shared), [dep_of[p] for p in pairs],
                    [format(z, fmt) for z in zs]))
    return rows, Counter(zs)


def run_extraction_experiment(
    spec: PlantedPairSpec,
    trials: int,
    policy: TablePolicy = TablePolicy(),
    estimator: ComplexityEstimator | None = None,
    *,
    threads: int = 1,
) -> ExperimentReport:
    """Extract one output per trial through a single fixed table.

    Trial t draws its pair from seed ``stream_value(spec.seed, t)``; the
    table comes from the policy once and is shared across trials.  Reports
    are bit-identical for any thread count.

    Each thread takes one contiguous run of trials.  Up to n = 64 bits a
    run is batched: its seeds, pairs and explicit-table cells come from
    numpy uint64 arrays.  Longer inputs run one trial at a time through
    :func:`gen_planted_pair`.  Either way the estimator and a keyed table
    see each distinct (x, y) once.
    """
    if trials < 1:
        raise InvalidParams("need trials >= 1")
    if threads < 1:
        raise InvalidParams("need threads >= 1")
    estimator = estimator if estimator is not None else MatchCompressor()
    params = derive_string_params(spec.n, spec.sigma, spec.alpha, strict=False)
    table = table_for(params.table_params(), policy)
    m_exp = params.m_exp

    per = (trials + threads - 1) // threads
    starts = list(range(0, trials, per))
    args = [(spec, table, m_exp, estimator, s0, min(per, trials - s0)) for s0 in starts]
    if threads <= 1 or len(args) == 1:
        results = [_experiment_chunk(*a) for a in args]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = [f.result() for f in [pool.submit(_experiment_chunk, *a) for a in args]]

    rows: list[TrialRow] = []
    outs: Counter = Counter()
    for chunk_rows, chunk_outs in results:
        rows.extend(chunk_rows)
        outs.update(chunk_outs)

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
