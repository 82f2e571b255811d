"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Budgets are asserted
from the stated limits; statistical baselines were frozen from the first
committed run of the pinned constructions and carry a +/-0.2-bit tolerance.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction as F

from balext.cli import main as cli_main
from balext.core import BitString, TableParams, derive_seq_schedule
from balext.extract import TablePolicy, extract_string
from balext.mixing import stream_bits, substream
from balext.seqtransform import CountingBitStream, SeededBitStream, SequenceTransformer
from balext.sources import (
    THETA_INDEP,
    MatchCompressor,
    PlantedPairSpec,
    dep_estimate,
    run_extraction_experiment,
)
from balext.tables import existence_condition_exponents, random_table
from balext.verify import (
    verify_exhaustive,
    verify_prefix_balance,
    verify_sampled,
)
from conftest import naive_balance_oracle, structured_table


def _emit(line: str) -> None:
    # bypass pytest capture so the per-criterion verdict always shows
    import sys

    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


@contextmanager
def criterion(num: int, desc: str, budget_s: float):
    t0 = time.time()
    try:
        yield
    except BaseException:
        _emit(f"ACCEPTANCE C{num:02d} FAIL: {desc} ({time.time() - t0:.1f}s)")
        raise
    dt = time.time() - t0
    _emit(f"ACCEPTANCE C{num:02d} PASS: {desc} ({dt:.1f}s, budget {budget_s:.0f}s)")
    assert dt < budget_s, f"criterion {num} exceeded its runtime budget"


def test_c01_existence_checker():
    with criterion(1, "existence-condition checker matches hand evaluation", 1.0):
        # N=2^10, S=2^8, M=2^4, D=2
        c = existence_condition_exponents(10, 4, 8, 1)
        hand = 48 + 48 * math.log(2) + 3072 + 3072 * math.log(1024 / 256)
        assert c.holds and c.lhs == 65536
        assert abs(float(c.rhs) - hand) / hand < 1e-6
        assert c.lhs > c.rhs_upper  # provably on the correct side
        # N=2^3, S=2^2, M=2^2, D=2
        c = existence_condition_exponents(3, 2, 2, 1)
        hand = 12 + 12 * math.log(2) + 48 + 48 * math.log(2)
        assert not c.holds and c.lhs == 16
        assert abs(float(c.rhs) - hand) / hand < 1e-6
        assert c.lhs <= c.rhs_lower
        # D=1, S=N, M=1: rhs collapses to exactly 3 + 6N; holds for N >= 9
        for n_exp in (4, 5, 6, 8):
            c = existence_condition_exponents(n_exp, 0, n_exp, 0)
            n_side = 1 << n_exp
            assert c.lhs == n_side * n_side
            assert c.rhs_lower == c.rhs_upper == 3 + 6 * n_side
            assert c.holds


def test_c02_exhaustive_verifier_vs_naive_oracle():
    with criterion(2, "dominant-subset verifier agrees with all-colorset oracle "
                      "on 100 tables", 120.0):
        params = TableParams(3, 2, 2, 1)
        agreements = 0
        for seed in range(100):
            table = random_table(params, seed)
            # the stated D=2 point, plus D=4 where violations actually occur
            for d_exp in (1, 2):
                report = verify_exhaustive(table, 2, d_exp)
                assert report.passed == naive_balance_oracle(table, 2, d_exp)
                agreements += 1
        assert agreements == 200


def test_c03_balance_implies_prefix_balance():
    with criterion(3, "prefix-balance holds on 50 balanced micro tables", 300.0):
        checked = 0
        for seed in range(50):
            table = structured_table(seed)
            assert verify_exhaustive(table, 2, 2).passed, (
                f"corpus table {seed} is not (S,M)-balanced"
            )
            report = verify_prefix_balance(table, 2)
            assert report.passed, f"prefix violation at seed {seed}: {report.witness}"
            checked += 1
        assert checked == 50


def test_c04_size_s_sufficiency():
    with criterion(4, "exact-S balance extends to all larger rectangle sides", 300.0):
        for seed in range(20):
            table = structured_table(seed)
            if not verify_exhaustive(table, 2, 2).passed:
                continue  # antecedent false; nothing to extend
            for side in (5, 6, 7, 8):
                assert naive_balance_oracle(table, 2, 2, (side, side)), (seed, side)
            assert verify_exhaustive(table, 3, 2).passed, seed


def test_c05_probabilistic_construction_sampled():
    with criterion(5, "seeded random tables at a condition-satisfying point pass "
                      "10^4 sampled rectangles for 20 seeds", 600.0):
        assert existence_condition_exponents(10, 4, 8, 1).holds
        params = TableParams(10, 4, 8, 1)
        for seed in range(20):
            table = random_table(params, seed)
            report = verify_sampled(table, 8, 1, 10_000, seed=seed)
            assert report.passed, (seed, report.witness)


def test_c05s_supplementary_nonvacuous_divisor():
    # D=2 makes the bound coincide with the rectangle area, so the stated
    # point cannot fail; this companion reruns at D=8 (condition still
    # holds) where the bound actually binds.
    with criterion(5, "supplementary: sampled check at D=8 (binding bound)", 600.0):
        check = existence_condition_exponents(10, 4, 8, 3)
        assert check.holds
        params = TableParams(10, 4, 8, 3)
        for seed in range(5):
            table = random_table(params, seed)
            report = verify_sampled(table, 8, 3, 10_000, seed=seed)
            assert report.passed, (seed, report.witness)
            assert report.worst_ratio < 1


GOLDEN_STRING_N12 = "10101101"
GOLDEN_TRANSFORM_11 = "00101101000"


def test_c06_extractor_goldens():
    with criterion(6, "pinned constructions reproduce committed goldens", 60.0):
        x = BitString(1, 12)
        y = BitString(1 << 11, 12)
        z = extract_string(x, y, F(1, 2), F(1, 8), TablePolicy(kind="random", seed=7))
        assert z.to01() == GOLDEN_STRING_N12
        sched = derive_seq_schedule(F(1, 2), F(1, 2), 2, 4)
        zt = SequenceTransformer(
            SeededBitStream(101), SeededBitStream(202), sched, TablePolicy(seed=3)
        ).transform_prefix(11)
        assert zt.to01() == GOLDEN_TRANSFORM_11


def test_c07_truth_table_property():
    with criterion(7, "output bits read exactly the block prefix, "
                      "content-independently", 60.0):
        sched = derive_seq_schedule(F(1, 2), F(1, 2), 2, 4)
        # positions in blocks 2..4 read sum_{j<=i} n_j bits from each stream
        expected = {0: 6, 1: 14, 3: 14, 4: 30, 10: 30}
        for pos, want in expected.items():
            cx = CountingBitStream(SeededBitStream(101))
            cy = CountingBitStream(SeededBitStream(202))
            SequenceTransformer(cx, cy, sched, TablePolicy(seed=3)).output_bit(pos)
            assert sorted(cx.positions) == list(range(want)), pos
            assert sorted(cy.positions) == list(range(want)), pos
        # identical read sets under different stream contents
        seen = []
        for seeds in ((11, 22), (1 << 60, 5)):
            cx = CountingBitStream(SeededBitStream(seeds[0]))
            cy = CountingBitStream(SeededBitStream(seeds[1]))
            SequenceTransformer(cx, cy, sched, TablePolicy(seed=3)).output_bit(6)
            seen.append((tuple(sorted(cx.positions)), tuple(sorted(cy.positions))))
        assert seen[0] == seen[1]


# Frozen from the first committed run (n=12, sigma=1/2, pair seed 1000,
# table policy random/42, 10^5 trials per point).
REGRESSION_BASELINES = {F(0): 7.9145, F(1, 8): 7.5925, F(1, 4): 7.3771}


def test_c08_statistical_extraction_regression():
    with criterion(8, "collision-entropy sweep: level, monotonicity, baselines",
                   900.0):
        policy = TablePolicy(kind="random", seed=42)
        measured = {}
        for alpha in (F(0), F(1, 8), F(1, 4)):
            spec = PlantedPairSpec(12, F(1, 2), alpha, seed=1000)
            report = run_extraction_experiment(spec, 100_000, policy)
            measured[alpha] = report.collision_entropy
        m_exp = 8
        assert measured[F(0)] >= m_exp - 1, measured
        sweep = [measured[F(0)], measured[F(1, 8)], measured[F(1, 4)]]
        assert sweep[0] >= sweep[1] >= sweep[2], sweep
        for alpha, baseline in REGRESSION_BASELINES.items():
            assert abs(measured[alpha] - baseline) <= 0.2, (alpha, measured[alpha])


def test_c09_surrogate_sanity():
    with criterion(9, "estimator: dep(x,x) >= 0.8 K(x) and independent pairs "
                      "within theta on >= 95% of 1000 seeds", 300.0):
        est = MatchCompressor()
        ok = 0
        n = 1024
        for seed in range(1000):
            x = BitString(stream_bits(substream(seed, 1), n), n)
            y = BitString(stream_bits(substream(seed, 2), n), n)
            dup_ok = dep_estimate(x, x, est) >= 0.8 * est.estimate(x)
            indep_ok = abs(dep_estimate(x, y, est)) <= THETA_INDEP
            ok += dup_ok and indep_ok
        assert ok >= 950, ok


def _run_cli(tmp_path, *argv):
    code = cli_main([str(a) for a in argv])
    return code


def test_c10_cli_determinism(tmp_path, capsys):
    with criterion(10, "every subcommand is byte-deterministic and "
                       "thread-count-invariant", 300.0):
        x = tmp_path / "x.bin"
        y = tmp_path / "y.bin"
        x.write_bytes(bytes([0x0F, 0xA3, 0x55, 0x00, 0x11, 0x22, 0x33, 0x44]))
        y.write_bytes(bytes([0xF0, 0x5A, 0xAA, 0xFF, 0x99, 0x88, 0x77, 0x66]))

        def twice(name, argv_fn):
            blobs = []
            for tag in ("a", "b"):
                files = argv_fn(tag)
                assert _run_cli(tmp_path, *files["argv"]) == files.get("code", 0), name
                blobs.append(b"".join(p.read_bytes() for p in files["outputs"]))
            assert blobs[0] == blobs[1], f"{name} not deterministic"

        twice("gen-table", lambda tag: {
            "argv": ["gen-table", "--n-exp", 6, "--m-exp", 3, "--s-exp", 4,
                     "--d-exp", 3, "--backend", "random", "--seed", 5,
                     "--out", tmp_path / f"t{tag}.btab"],
            "outputs": [tmp_path / f"t{tag}.btab"],
        })
        twice("verify-table", lambda tag: {
            "argv": ["verify-table", "--table", tmp_path / "ta.btab", "--mode",
                     "sampled", "--samples", 300, "--seed", 1,
                     "--report", tmp_path / f"r{tag}.json"],
            "outputs": [tmp_path / f"r{tag}.json"],
        })
        twice("extract", lambda tag: {
            "argv": ["extract", "--x", x, "--y", y, "--sigma", "1/2",
                     "--alpha", "1/8", "--seed", 7,
                     "--out", tmp_path / f"z{tag}.bin"],
            "outputs": [tmp_path / f"z{tag}.bin"],
        })
        xl = tmp_path / "xl.bin"
        yl = tmp_path / "yl.bin"
        xl.write_bytes(bytes(range(128)))
        yl.write_bytes(bytes(reversed(range(128))))
        twice("extract-cond", lambda tag: {
            "argv": ["extract-cond", "--x", xl, "--y", yl, "--s", "512",
                     "--alpha", "32", "--seed", 2,
                     "--out", tmp_path / f"c{tag}.bin"],
            "outputs": [tmp_path / f"c{tag}.bin"],
        })
        twice("transform", lambda tag: {
            "argv": ["transform", "--x", x, "--y", y, "--tau", "1/2",
                     "--delta", "1/2", "--B", 2, "--out-bits", 11, "--seed", 3,
                     "--out", tmp_path / f"s{tag}.bin"],
            "outputs": [tmp_path / f"s{tag}.bin"],
        })
        twice("experiment", lambda tag: {
            "argv": ["experiment", "--n", 12, "--sigma", "1/2", "--alpha", "1/8",
                     "--trials", 400, "--seed", 4, "--csv", tmp_path / f"e{tag}.csv",
                     "--summary", tmp_path / f"e{tag}.json"],
            "outputs": [tmp_path / f"e{tag}.csv", tmp_path / f"e{tag}.json"],
        })

        # worker-count invariance
        for name, argv_fn in (
            ("verify-table", lambda k: ["verify-table", "--table", tmp_path / "ta.btab",
                                        "--mode", "sampled", "--samples", 300,
                                        "--seed", 1, "--threads", k,
                                        "--report", tmp_path / f"rt{k}.json"]),
            ("experiment", lambda k: ["experiment", "--n", 12, "--sigma", "1/2",
                                      "--alpha", "0", "--trials", 400, "--seed", 4,
                                      "--threads", k, "--csv", tmp_path / f"et{k}.csv",
                                      "--summary", tmp_path / f"et{k}.json"]),
        ):
            for k in (1, 4):
                assert _run_cli(tmp_path, *argv_fn(k)) == 0
        assert (tmp_path / "rt1.json").read_bytes() == (tmp_path / "rt4.json").read_bytes()
        assert (tmp_path / "et1.csv").read_bytes() == (tmp_path / "et4.csv").read_bytes()
        assert (tmp_path / "et1.json").read_bytes() == (tmp_path / "et4.json").read_bytes()
        capsys.readouterr()  # swallow CLI stdout, keep the criterion line visible
