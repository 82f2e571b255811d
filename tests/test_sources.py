import importlib.util
import json
import math
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balext.core import BitString, InvalidParams, TableParams
from balext.extract import TablePolicy
from balext.mixing import stream_bits, stream_value
from balext import sources
from balext.sources import (
    THETA_INDEP,
    THETA_SYM,
    MatchCompressor,
    PlantedPairSpec,
    collision_entropy_empirical,
    dep_estimate,
    gen_planted_pair,
    min_entropy_empirical,
    run_extraction_experiment,
)
from balext.tables import keyed_table, random_table
from conftest import experiment_chunk_oracle, match_cost_oracle


def random_bitstring(seed: int, n: int, tag: int = 1) -> BitString:
    return BitString(stream_bits(stream_value(seed, tag), n), n)


def _bitstrings(max_len: int):
    return st.integers(0, max_len).flatmap(
        lambda n: st.integers(0, (1 << n) - 1).map(lambda v: BitString(v, n)))


# inputs whose parse takes long matches and clones automaton states
_DOUBLED = _bitstrings(350).map(lambda x: x.concat(x))
_RUNS = st.lists(st.tuples(st.sampled_from("01"), st.integers(1, 58)), max_size=12).map(
    lambda runs: BitString.from01("".join(b * k for b, k in runs)))
_PERIODIC = st.tuples(_bitstrings(16).filter(len), st.integers(0, 700)).map(
    lambda pn: BitString.from01((pn[0].to01() * (700 // len(pn[0]) + 1))[:pn[1]]))


def _fibonacci_word(n: int) -> BitString:
    a, b = "0", "01"
    while len(b) < n:
        a, b = b, b + a
    return BitString.from01(b[:n])


def _thue_morse_word(n: int) -> BitString:
    return BitString.from01("".join(str(k.bit_count() & 1) for k in range(n)))


def _sparse_bitstring(seed: int, n: int) -> BitString:
    # about one bit in eight set
    a, b, c = (random_bitstring(seed, n, tag).value for tag in (1, 2, 3))
    return BitString(a & b & c, n)


# Fibonacci and Thue-Morse words clone automaton states at many positions;
# every length up to 200, then the Fibonacci lengths and a few more to 2000.
_WORD_LENGTHS = [*range(201), 233, 256, 377, 512, 610, 987, 1024, 1597, 2000]


class TestPlantedPairs:
    def test_layout(self):
        spec = PlantedPairSpec(16, F(1, 2), F(1, 4), seed=5)
        assert spec.shared_bits == 4      # of round(sigma * n) = 8 random bits
        x, y = gen_planted_pair(spec)
        assert len(x) == len(y) == 16
        # r || shared || zero pad: trailing 8 bits are padding
        assert x.substring(8, 16).value == 0
        assert x.substring(4, 8) == y.substring(4, 8)  # shared block
        assert x.substring(0, 4) != y.substring(0, 4)  # independent parts

    def test_deterministic(self):
        spec = PlantedPairSpec(64, F(1, 2), F(1, 8), seed=123)
        assert gen_planted_pair(spec) == gen_planted_pair(spec)

    def test_alpha_equals_sigma_collapses(self):
        x, y = gen_planted_pair(PlantedPairSpec(32, F(1, 2), F(1, 2), seed=9))
        assert x == y

    def test_full_entropy_independent(self):
        x, y = gen_planted_pair(PlantedPairSpec(32, F(1), F(0), seed=9))
        assert len(x) == 32 and x != y

    def test_invalid_rates(self):
        with pytest.raises(InvalidParams):
            PlantedPairSpec(16, F(1, 4), F(1, 2), seed=0)

    @settings(max_examples=20)
    @given(st.integers(1, 256), st.integers(0, 8), st.integers(0, 2**32))
    def test_lengths_always_n(self, n, anum, seed):
        alpha = F(anum, 16)
        spec = PlantedPairSpec(n, F(1, 2), min(alpha, F(1, 2)), seed=seed)
        x, y = gen_planted_pair(spec)
        assert len(x) == len(y) == n


class TestMatchCompressor:
    def test_deterministic_and_nonnegative(self):
        est = MatchCompressor()
        s = random_bitstring(4, 300)
        assert est.estimate(s) == est.estimate(s) >= 0

    def test_empty(self):
        assert MatchCompressor().estimate(BitString.zeros(0)) == 1.0

    def test_incompressible_near_length(self):
        est = MatchCompressor()
        s = random_bitstring(1, 1024)
        assert 0.9 * 1024 <= est.estimate(s) <= 1.15 * 1024

    @settings(max_examples=200)
    @given(st.one_of(_bitstrings(700), _DOUBLED, _RUNS, _PERIODIC))
    def test_cost_matches_dict_automaton_oracle(self, s):
        assert MatchCompressor().cost_bits(s) == match_cost_oracle(s)

    def test_long_costs_match_oracle(self):
        x = random_bitstring(5, 2048)
        for s in (random_bitstring(6, 4096), x.concat(x)):
            assert MatchCompressor().cost_bits(s) == match_cost_oracle(s)

    def test_every_short_string_matches_oracle(self):
        # no match pays below 26 bits, so these pin the closed form
        # n + 2 * n.bit_length() of the all-literal parse
        est = MatchCompressor()
        for n in range(17):
            for v in range(1 << n):
                s = BitString(v, n)
                assert est.cost_bits(s) == match_cost_oracle(s), s.to01()

    def test_closed_form_up_to_25_bits(self):
        est = MatchCompressor()
        strings = [random_bitstring(seed, 17 + seed % 9) for seed in range(2000)]
        strings += [BitString.from01((BitString(v, p).to01() * 25)[:n])
                    for p in range(1, 9) for v in range(1 << p) for n in range(17, 26)]
        for s in strings:
            n = len(s)
            assert est.cost_bits(s) == match_cost_oracle(s) == n + 2 * n.bit_length(), s
        # the bound is tight: 26 zeros take a match at i = 13
        zeros = BitString.zeros(26)
        assert est.cost_bits(zeros) == match_cost_oracle(zeros) == 33 != 26 + 2 * 5

    @pytest.mark.parametrize("doubled", [False, True])
    @pytest.mark.parametrize("word", [_fibonacci_word, _thue_morse_word])
    def test_clone_heavy_words_match_oracle(self, word, doubled):
        est = MatchCompressor()
        for n in _WORD_LENGTHS:
            s = word(n).concat(word(n)) if doubled else word(n)
            assert est.cost_bits(s) == match_cost_oracle(s), n

    def test_sparse_strings_match_oracle(self):
        # long zero runs move the carried match into freshly cloned states
        est = MatchCompressor()
        for seed in range(300):
            s = _sparse_bitstring(seed, 26 + 3 * seed)
            assert est.cost_bits(s) == match_cost_oracle(s), seed

    def test_take_tests_reproduce_the_take_rule(self):
        # l - 2 * l.bit_length() drops at each power of two, so offs 6 and
        # 20 take 15 and 17 but not 16, and 31 and 33 but not 32
        for offs in range(1, 41):
            tests = sources._take_tests(offs)
            for length in range(1, 257):
                taken = sum(w for t, w in tests if length >= t) > 0
                pays = length > 9 and length > 2 * length.bit_length() + offs
                assert taken == pays, (offs, length)
        assert sources._take_tests(6) == ((15, 1), (16, -1), (17, 1))
        assert sources._take_tests(20) == ((31, 1), (32, -1), (33, 1))

    @pytest.mark.parametrize("alpha", [F(0), F(1, 8), F(1, 4)])
    def test_planted_n256_parses_match_oracle(self, alpha):
        # the inputs of an n = 256 experiment: x, y and x || y per trial
        est = MatchCompressor()
        spec = PlantedPairSpec(256, F(1, 2), alpha, seed=11)
        for t in range(12):
            x, y = gen_planted_pair(spec, seed=stream_value(spec.seed, t))
            for s in (x, y, x.concat(y)):
                assert est.cost_bits(s) == match_cost_oracle(s), (t, s.to01())

    def test_anchor_repeats_match_oracle(self):
        # one fixed 30-bit block between fresh blocks: every take has a run
        # of earlier anchors to choose from
        est = MatchCompressor()
        for seed in range(6):
            anchor = random_bitstring(seed, 30, tag=9)
            s = BitString.zeros(0)
            for k in range(1 + seed * 9):
                fresh = random_bitstring(1000 * seed + k, 10 + 11 * (seed % 3), tag=4)
                s = s.concat(anchor).concat(fresh)
            assert est.cost_bits(s) == match_cost_oracle(s), seed

    def test_long_zero_runs_match_oracle(self):
        # zero runs of tens to hundreds of bits put hundreds of candidates
        # in one run, which the parse cuts down in numpy first
        est = MatchCompressor()
        for seed in range(8):
            n = 700 + 300 * seed
            v = random_bitstring(seed, n, tag=1).value
            for tag in range(2, 3 + seed % 5):
                v &= random_bitstring(seed, n, tag=tag).value
            s = BitString(v, n)
            assert est.cost_bits(s) == match_cost_oracle(s), seed

    @pytest.mark.parametrize("zeros", [40, 100])
    def test_candidate_one_bit_past_the_best_is_found(self, zeros):
        # at the second zero run the farthest candidate matches `zeros`
        # bits; the one whose run ends as t's does matches one bit more
        # (the 1), and only it, among more than _SCAN_MAX candidates
        est = MatchCompressor()
        for seed in range(4):
            a = random_bitstring(seed, 40, tag=5)
            r = random_bitstring(seed, 40, tag=6)
            if a.bit(0) == r.bit(0):
                r = BitString(r.value ^ (1 << 39), 40)
            s = BitString.from01("0" * 2 * zeros + "1" + a.to01() + "0" * zeros + "1" + r.to01())
            assert est.cost_bits(s) == match_cost_oracle(s), seed

    @pytest.mark.parametrize("n", [26, 63, 64, 65, 127, 128, 129, 4095, 4096, 4097])
    def test_word_boundary_lengths_match_oracle(self, n):
        est = MatchCompressor()
        half = random_bitstring(n, n // 2)
        strings = [random_bitstring(n, n), BitString.zeros(n), _sparse_bitstring(n, n),
                   half.concat(half).concat(BitString.zeros(n % 2)),
                   _fibonacci_word(n), _thue_morse_word(n)]
        for s in strings:
            assert est.cost_bits(s) == match_cost_oracle(s), s.to01()

    def test_one_sort_per_test_when_keys_do_not_fit(self, monkeypatch):
        # inputs beyond about 2^23 bits sort each test on its own; forcing
        # that path at small n must give the same costs
        monkeypatch.setattr(sources, "_KEY_BITS", 0)
        sources._cached_layout.cache_clear()
        try:
            est = MatchCompressor()
            x = random_bitstring(3, 300)
            strings = [x, x.concat(x), BitString.zeros(1000), _sparse_bitstring(2, 900),
                       _thue_morse_word(700), _fibonacci_word(1024)]
            for s in strings:
                assert not sources._parse_layout(len(s)).packed
                assert est.cost_bits(s) == match_cost_oracle(s), s.to01()
        finally:
            sources._cached_layout.cache_clear()

    def test_redundancy_detected(self):
        est = MatchCompressor()
        s = random_bitstring(2, 256)
        rep = s.concat(s).concat(s).concat(s)
        assert est.estimate(rep) < 0.5 * len(rep)

    def test_dep_duplicate_example(self):
        # dep(x, x) >= 0.8 K(x) for random 2^10-bit strings
        est = MatchCompressor()
        for seed in range(20):
            x = random_bitstring(seed, 1024)
            assert dep_estimate(x, x, est) >= 0.8 * est.estimate(x)

    def test_dep_empty_is_small(self):
        est = MatchCompressor()
        y = random_bitstring(3, 512)
        assert abs(dep_estimate(BitString.zeros(0), y, est)) <= 2

    def test_dep_independent_within_threshold(self):
        est = MatchCompressor()
        within = 0
        for seed in range(100):
            x = random_bitstring(seed, 1024, tag=1)
            y = random_bitstring(seed, 1024, tag=2)
            if abs(dep_estimate(x, y, est)) <= THETA_INDEP:
                within += 1
        assert within >= 95

    def test_dep_symmetry_gap_within_threshold(self):
        est = MatchCompressor()
        for seed in range(40):
            x = random_bitstring(seed, 1024, tag=1)
            y = random_bitstring(seed, 1024, tag=2)
            gap = abs(dep_estimate(x, y, est) - dep_estimate(y, x, est))
            assert gap <= THETA_SYM


def test_calibration_reproduces_committed_thresholds(tmp_path, capsys):
    # the campaign's defaults (1000 seeds at n = 1024) must give back the
    # committed JSON byte for byte
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "calibrate_thresholds", root / "scripts" / "calibrate_thresholds.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "thresholds.json"
    assert script.main(["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (root / "calibration" / "thresholds.json").read_bytes()


class TestEntropyMetrics:
    def test_all_identical_is_zero(self):
        assert min_entropy_empirical([BitString(3, 4)] * 10) == 0.0

    def test_all_identical_is_positive_zero(self):
        # -log2(1.0) is -0.0, which JSON reports would print as "-0.0"
        for metric in (min_entropy_empirical, collision_entropy_empirical):
            for samples in ([BitString(3, 4)] * 10, [7], Counter({5: 3})):
                assert math.copysign(1.0, metric(samples)) == 1.0

    def test_uniform_singletons(self):
        samples = [BitString(v, 6) for v in range(64)]
        assert min_entropy_empirical(samples) == 6.0
        assert collision_entropy_empirical(samples) == 6.0

    def test_counter_input(self):
        # max frequency 3/4: -log2(0.75)
        assert min_entropy_empirical(Counter({0: 3, 1: 1})) == pytest.approx(
            0.4150374992788438
        )

    def test_empty_rejected(self):
        with pytest.raises(InvalidParams):
            min_entropy_empirical([])

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=200))
    def test_bounds(self, values):
        samples = Counter(values)
        me = min_entropy_empirical(samples)
        ce = collision_entropy_empirical(samples)
        assert 0 <= me <= math.log2(len(values)) + 1e-9
        assert me <= ce + 1e-9  # min-entropy lower-bounds collision entropy
        if len(set(values)) == len(values):
            assert me == pytest.approx(math.log2(len(values)))

    def test_large_uniform_sample_accuracy(self):
        cnt = Counter(stream_value(77, i) & 255 for i in range(100_000))
        assert min_entropy_empirical(cnt) >= 7.5


class TestExperiment:
    def test_report_reproducible_and_thread_invariant(self):
        spec = PlantedPairSpec(12, F(1, 2), F(1, 8), seed=4)
        pol = TablePolicy(kind="random", seed=42)
        a = run_extraction_experiment(spec, 500, pol)
        b = run_extraction_experiment(spec, 500, pol)
        assert a == b

    def test_single_trial_flags_insufficient(self):
        spec = PlantedPairSpec(12, F(1, 2), F(0), seed=1)
        rep = run_extraction_experiment(spec, 1, TablePolicy(kind="random", seed=42))
        assert rep.min_entropy == 0.0
        assert rep.insufficient_sampling

    def test_rows_and_summary(self, tmp_path):
        spec = PlantedPairSpec(12, F(1, 2), F(1, 4), seed=2)
        rep = run_extraction_experiment(spec, 50, TablePolicy(kind="random", seed=42))
        assert len(rep.rows) == 50
        assert all(r.dep_planted == spec.shared_bits for r in rep.rows)
        assert rep.rows[3].seed == stream_value(2, 3)
        doc = json.loads(rep.to_json())
        assert doc["m_exp"] == 8 and doc["trials"] == 50
        assert doc["nominal_bound_bits"] == (2 * 0.5 - 0.25) * 12 - 9 * 4
        path = tmp_path / "rows.csv"
        rep.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "trial,seed,dep_planted,dep_hat,z_hex"
        assert len(lines) == 51

    def test_fixed_table_across_trials(self):
        spec = PlantedPairSpec(12, F(1, 2), F(0), seed=3)
        rep = run_extraction_experiment(spec, 20, TablePolicy(kind="random", seed=42))
        rep2 = run_extraction_experiment(spec, 20, TablePolicy(kind="random", seed=42))
        assert rep.table_digest == rep2.table_digest


class TestBatchedTrials:
    """Batched trials (n <= 64) and the per-trial loop (n > 64) against the
    one-trial-at-a-time oracle."""

    @pytest.mark.parametrize("n", [1, 2, 12, 63, 64, 65])
    def test_chunk_equals_oracle(self, n):
        params = TableParams(n, 7, 0, 0)
        tables = [keyed_table(params, key=0xABCDEF)]
        if n <= 12:
            tables.append(random_table(params, seed=3))
        for table in tables:
            for sigma in (F(1, 2), F(1)):
                for alpha in (F(0), sigma):
                    spec = PlantedPairSpec(n, sigma, alpha, seed=2**64 - 5)
                    args = (spec, table, 150)
                    assert sources._experiment_chunk(*args) == experiment_chunk_oracle(*args)

    @pytest.mark.parametrize("n, kind", [(12, "random"), (12, "keyed"), (65, "keyed")])
    def test_each_distinct_pair_estimated_once(self, monkeypatch, n, kind):
        # 4 random bits per input: at most 2^8 distinct pairs in 300 trials
        calls = []
        estimate = MatchCompressor.estimate

        def counted(self, s):
            calls.append(s)
            return estimate(self, s)

        monkeypatch.setattr(MatchCompressor, "estimate", counted)
        for shared in (0, 2, 4):
            spec = PlantedPairSpec(n, F(4, n), F(shared, n), seed=7)
            calls.clear()
            rep = run_extraction_experiment(spec, 300, TablePolicy(kind=kind, seed=1))
            pairs = {(x.value, y.value) for x, y in (
                gen_planted_pair(spec, seed=r.seed) for r in rep.rows)}
            assert len(pairs) <= 1 << (8 - shared)
            assert len(calls) == 3 * len(pairs), shared

    @pytest.mark.parametrize("kind", ["auto", "keyed"])
    @pytest.mark.parametrize("n", [12, 63, 64, 65, 256])
    def test_report_bytes_equal_oracle(self, tmp_path, monkeypatch, n, kind):
        # the experiment's bytes against the one-trial oracle's; "auto" at
        # n = 12 and sigma = 1/2 is the one explicit table (a formula) here
        batched = sources._experiment_chunk
        trials = 40 if n > 64 else 200

        def report_bytes(spec, chunk):
            monkeypatch.setattr(sources, "_experiment_chunk", chunk)
            rep = run_extraction_experiment(spec, trials, TablePolicy(kind=kind, seed=5))
            rep.write_csv(tmp_path / "rows.csv")
            return (tmp_path / "rows.csv").read_bytes(), rep.to_json()

        for sigma in (F(1, 2), F(1)):
            for alpha in (F(0), sigma):
                spec = PlantedPairSpec(n, sigma, alpha, seed=n)
                assert report_bytes(spec, batched) == report_bytes(
                    spec, experiment_chunk_oracle), (sigma, alpha)
