import json
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balext.core import InvalidParams, TableParams, TooLarge
from balext import verify
from balext.mixing import stream_value
from balext.tables import BalancedTable, keyed_table, key_from_seed, random_table
from balext.verify import (
    _check_counts,
    _colorset,
    _Rule,
    verify_exhaustive,
    verify_prefix_balance,
    verify_sampled,
)
from conftest import (
    constant_table,
    dominant_check_oracle,
    naive_balance_oracle,
    partial_shuffle_oracle,
    peak_traced_bytes,
    prefix_check_oracle,
    structured_table,
)


class TestDominantSubsetEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 2))
    def test_matches_naive_oracle(self, seed, d_exp):
        table = random_table(TableParams(3, 2, 2, 2), seed)
        report = verify_exhaustive(table, 2, d_exp)
        assert report.passed == naive_balance_oracle(table, 2, d_exp)

    def test_worst_ratio_is_max_over_colorsets(self):
        # reconstruct the worst ratio by explicit colorset enumeration
        from itertools import combinations

        table = random_table(TableParams(3, 2, 2, 2), seed=5)
        report = verify_exhaustive(table, 2, 2)
        worst = Fraction(0)
        for rows in combinations(range(8), 4):
            for cols in combinations(range(8), 4):
                hist = np.bincount(table.cells[np.ix_(rows, cols)].ravel(), minlength=4)
                for colorset in combinations(range(4), 1):
                    mass = int(sum(hist[a] for a in colorset))
                    worst = max(worst, Fraction(mass * 4, 2 * 16))
        assert report.worst_ratio == worst


@st.composite
def count_rows(draw):
    """(m_exp, d_exp, area, rows): count vectors over M = 2^m_exp colors with
    many ties; in about half the draws every row has at most M/D colors
    present, so zero-count colors enter the dominant witness."""
    m_exp = draw(st.integers(1, 6))
    d_exp = draw(st.integers(0, m_exp))
    m_colors = 1 << m_exp
    limit = m_colors >> d_exp if draw(st.booleans()) else m_colors
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        present = draw(st.lists(st.integers(0, m_colors - 1), min_size=1,
                                max_size=limit, unique=True))
        row = [0] * m_colors
        for c in present:
            row[c] = draw(st.integers(1, 4))
        rows.append(row)
    area = draw(st.integers(1, max(sum(r) for r in rows)))
    return m_exp, d_exp, area, rows


@st.composite
def count_arrays(draw):
    """(m_exp, d_exp, area, rows): 100-400 count rows over M = 2^m_exp colors
    from a seeded generator, counts up to 1-4 so that ties abound, each
    color absent from a row with a drawn probability, and an area at a
    drawn quantile of the rows' worst masses, so that several rows violate
    and the first violating row falls anywhere."""
    m_exp = draw(st.integers(1, 6))
    d_exp = draw(st.integers(0, m_exp))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, m_colors = draw(st.integers(100, 400)), 1 << m_exp
    rows = rng.integers(1, draw(st.integers(1, 4)) + 1, size=(k, m_colors))
    rows[rng.random((k, m_colors)) < draw(st.sampled_from([0, 0.5, 0.9]))] = 0
    rows[np.arange(k), rng.integers(0, m_colors, size=k)] += 1
    kdom = m_colors >> d_exp
    worst = np.sort(rows, axis=1)[:, m_colors - kdom:].sum(axis=1) << d_exp
    quantile = draw(st.sampled_from([0.3, 0.7, 0.95, 1.0]))
    area = max(1, int(np.quantile(worst, quantile)) // 2)
    return m_exp, d_exp, area, rows.tolist()


class _AreaRule(NamedTuple):
    """The fields of a rule that the core reads, at any area: S x S
    rectangles have square areas only."""

    m_exp: int
    d_exp: int
    prefix: bool
    area: int


def _check_core(m_exp, d_exp, area, rows, prefix):
    """The core's worst ratio, first violating row and offending colors on
    dense and ranked labels, from contiguous (U, K) counts and from a
    transposed (K, U) array, against the scalar oracles row by row."""
    m_colors = 1 << m_exp
    if prefix:
        d_exp = m_exp
        expected = [prefix_check_oracle(r, m_exp, area) for r in rows]
    else:
        kdom, d_div = m_colors >> d_exp, 1 << d_exp
        expected = [dominant_check_oracle(r, m_colors, kdom, d_div, area)
                    for r in rows]
    worst = max(ratio for ratio, _ in expected)
    first = next((k for k, (_, bad) in enumerate(expected) if bad), None)
    rule = _AreaRule(m_exp, d_exp, prefix, area)
    counts = np.array(rows, dtype=np.int64)
    present = np.flatnonzero(counts.any(axis=0))
    for labels, ranked in ((np.arange(m_colors), False), (present, True)):
        by_color = counts[:, labels].T
        for layout in (np.ascontiguousarray(by_color), by_color):
            num, got_first = _check_counts(layout, rule)
            assert Fraction(num, 2 * area) == worst
            assert got_first == first
        if first is None:
            continue
        want = expected[first][1]
        if ranked:
            want = tuple(sorted(c for c in want if rows[first][c] > 0))
        assert _colorset(by_color[:, first], labels, rule, ranked) == want
    return first


class TestCoreAgainstScalarOracles:
    """The vectorized core, dense and ranked, against the scalar checks."""

    @settings(max_examples=300, deadline=None)
    @given(count_rows(), st.booleans())
    def test_matches_oracles(self, case, prefix):
        _check_core(*case, prefix)

    @settings(max_examples=60, deadline=None)
    @given(count_arrays(), st.booleans())
    def test_matches_oracles_across_hundreds_of_rows(self, case, prefix):
        # palettes of 2-64 colors: both sides of the _NETWORK_COLORS choice
        _check_core(*case, prefix)

    def test_rare_heavy_colors_violate_late(self):
        # 300 rows of counts 0-2 over 8 colors, one color 6 heavier in about
        # 5% of them: at area 10, 15 rows violate the D = 2 dominant rule,
        # the first at row 47, and 17 violate the prefix rule, from row 46
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 3, size=(300, 8))
        heavy = rng.random(300) < 0.05
        rows[heavy, rng.integers(0, 8, size=heavy.sum())] += 6
        assert _check_core(3, 1, 10, rows.tolist(), False) == 47
        assert _check_core(3, 1, 10, rows.tolist(), True) == 46


class TestExhaustive:
    def test_constant_table_boundary_d2(self):
        report = verify_exhaustive(constant_table(), 2, 1)
        assert report.passed
        assert report.worst_ratio == 1  # boundary met with <=

    def test_constant_table_fails_d4(self):
        report = verify_exhaustive(constant_table(), 2, 2)
        assert not report.passed
        assert report.worst_ratio == 2
        rect, colors = report.witness
        assert 0 in colors.colors
        assert len(rect.rows) == len(rect.cols) == 4

    def test_witness_is_first_in_lex_order(self):
        report = verify_exhaustive(constant_table(), 2, 2)
        rect, _ = report.witness
        assert rect.rows == (0, 1, 2, 3)
        assert rect.cols == (0, 1, 2, 3)

    def test_rectangle_count(self):
        report = verify_exhaustive(random_table(TableParams(3, 2, 2, 1), 0), 2, 1)
        assert report.rectangles_checked == 70 * 70

    def test_enum_cap(self):
        # C(1024, 32)^2 rectangles exceed the 10^8 enumeration cap
        t = random_table(TableParams(10, 4, 8, 1), 0)
        with pytest.raises(TooLarge):
            verify_exhaustive(t, 5, 1)

    def test_enum_cap_is_inclusive(self, monkeypatch):
        # C(8, 4)^2 = 4900 rectangles: a cap of exactly 4900 enumerates
        # them, a cap one lower refuses them
        t = random_table(TableParams(3, 2, 2, 1), 0)
        monkeypatch.setattr(verify, "ENUM_CAP", 4900)
        assert verify_exhaustive(t, 2, 1).rectangles_checked == 4900
        monkeypatch.setattr(verify, "ENUM_CAP", 4899)
        with pytest.raises(TooLarge):
            verify_exhaustive(t, 2, 1)

    def test_single_cells_of_a_large_table(self):
        # 2^20 single-cell rectangles of a 2^10 table, chunk by chunk: each
        # holds one cell, so with D = 2 every ratio is 2 * 1 / (2 * 1) = 1
        t = random_table(TableParams(10, 4, 0, 1), 0)
        report = verify_exhaustive(t, 0, 1)
        assert report.passed
        assert report.rectangles_checked == 1 << 20
        assert report.worst_ratio == 1

    def test_chunking_keeps_reports(self, monkeypatch):
        # at _CHUNK = 8 the cells are counted directly: each chunk of the
        # 4 x 4 and 8 x 8 rectangles holds one column subset of one row
        # subset, and each chunk of the 2 x 2 ones two column subsets; at
        # 2240 they are counted by rows, and the row subsets of the 4 x 4
        # rectangles span 9 chunks.  Witnesses must stay first in
        # rows-major order either way
        tables = [constant_table()] + [random_table(TableParams(3, 2, 2, 1), s)
                                       for s in range(4)]

        def reports():
            verify._enumeration.cache_clear()
            out = []
            for t in tables:
                out += [verify_exhaustive(t, s, d).to_json()
                        for s in (1, 2, 3) for d in (1, 2)]
                out.append(verify_prefix_balance(t, 1).to_json())
            return out

        def chunks(side):
            e = verify._enumeration(8, side, 4)
            rule = _Rule(2, 1, False, side)
            return e, sum(1 for _ in verify._exhaustive(tables[1], rule))

        want = reports()
        try:
            monkeypatch.setattr(verify, "_CHUNK", 8)
            assert reports() == want
            for side in (4, 8):
                e, n = chunks(side)
                assert not e.by_row
                assert n == len(e.index) ** 2
            e, n = chunks(2)
            assert not e.by_row and (e.n_rows, e.n_cols) == (1, 2)
            assert n == len(e.index) ** 2 // 2
            monkeypatch.setattr(verify, "_CHUNK", 2240)
            assert reports() == want
            e, n = chunks(4)
            assert e.by_row and 4 * 8 * len(e.index) == 2240
            assert n == 9 and e.n_rows * n >= len(e.index) > e.n_rows * (n - 1)
        finally:
            verify._enumeration.cache_clear()

    def test_exhaustive_memory_is_independent_of_subsets(self):
        # N = 32 and 64 give 496 and 2016 column subsets, which span one and
        # two chunks per row subset; per-row histograms over all 2016 would
        # take 16 MB
        def peak(n_exp):
            t = random_table(TableParams(n_exp, 4, 1, 2), 1)
            verify_exhaustive(t, 1, 2)           # caches the enumeration
            return peak_traced_bytes(lambda: verify_exhaustive(t, 1, 2))

        few, many = peak(5), peak(6)
        assert many < few + (256 << 10)
        assert many < 2 << 20

    def test_requires_explicit(self):
        t = keyed_table(TableParams(3, 2, 2, 1), key=1)
        with pytest.raises(TooLarge):
            verify_exhaustive(t, 2, 1)

    def test_monotone_in_s(self):
        # passing at S implies passing exhaustively at any S' >= S
        for seed in range(10):
            t = structured_table(seed)
            assert verify_exhaustive(t, 2, 2).passed
            assert verify_exhaustive(t, 3, 2).passed

    def test_size_s_sufficiency(self):
        # all exactly-S rectangles pass => all larger rectangles pass,
        # including unequal sides
        for seed in range(8):
            t = structured_table(seed)
            assert verify_exhaustive(t, 2, 2).passed
            for rows_side in (4, 5, 6, 7, 8):
                for cols_side in (4, 6, 8):
                    assert naive_balance_oracle(t, 2, 2, (rows_side, cols_side)), (
                        seed, rows_side, cols_side,
                    )


class TestSampled:
    def test_passing_table_passes_sampled(self):
        t = structured_table(3)
        assert verify_exhaustive(t, 2, 2).passed
        for seed in (0, 1, 99):
            assert verify_sampled(t, 2, 2, 500, seed).passed

    def test_constant_fails_with_confirmed_witness(self):
        t = constant_table()
        report = verify_sampled(t, 2, 2, 1, seed=11)
        assert not report.passed
        rect, colors = report.witness
        # confirm the witness by direct recount (exhaustive semantics)
        hist = np.bincount(
            t.cells[np.ix_(rect.rows, rect.cols)].ravel(), minlength=4
        )
        mass = int(sum(hist[c] for c in colors.colors))
        assert mass * 4 > 2 * 16

    def test_deterministic_per_seed(self):
        t = random_table(TableParams(6, 3, 4, 3), 2)
        a = verify_sampled(t, 4, 3, 200, seed=7)
        b = verify_sampled(t, 4, 3, 200, seed=7)
        assert a == b

    def test_thread_count_invariant(self):
        t = random_table(TableParams(6, 3, 4, 3), 2)
        reports = [verify_sampled(t, 4, 3, 333, seed=5, threads=k) for k in (1, 2, 4)]
        assert reports[0] == reports[1] == reports[2]

    def test_keyed_table_sampled(self):
        t = keyed_table(TableParams(10, 4, 8, 3), key=key_from_seed(4))
        report = verify_sampled(t, 8, 3, 50, seed=0)
        assert report.passed

    def test_keyed_wide_colors_sampled(self):
        # m_exp > 64 exercises the sparse histogram path; with D = M = 2^80
        # the per-color bound 2*area/M falls below one cell, so every
        # rectangle violates and the report must say so
        t = keyed_table(TableParams(8, 80, 4, 80), key=key_from_seed(9))
        report = verify_sampled(t, 4, 80, 20, seed=0)
        assert not report.passed
        assert report.witness is not None
        assert report.worst_ratio > 1

    def test_keyed_wide_colors_prefix_matches_color_check(self):
        # a bucket never outweighs its heaviest color (count * 2^l), so the
        # prefix check reduces to the D = M color check, here on ranked
        # Python-int colors
        t = keyed_table(TableParams(8, 80, 4, 80), key=key_from_seed(9))
        prefix = verify_prefix_balance(t, 4, mode="sampled", samples=20, seed=0)
        color = verify_sampled(t, 4, 80, 20, seed=0)
        assert prefix.witness == color.witness
        assert prefix.worst_ratio == color.worst_ratio

    @pytest.mark.parametrize("case", [
        ("explicit", (6, 3, 4, 3), 3, 333),
        ("explicit-prefix", (6, 3, 4, 3), None, 333),
        ("keyed", (16, 8, 3, 3), 3, 150),
        ("keyed-prefix", (16, 8, 3, 8), None, 150),
        ("keyed-ranked", (16, 24, 2, 24), 24, 40),
    ])
    def test_reports_identical_at_threads_1_2_3(self, case):
        kind, exps, d_exp, samples = case
        params = TableParams(*exps)
        if kind.startswith("explicit"):
            t = random_table(params, 2)
        else:
            t = keyed_table(params, key=key_from_seed(6))

        def report(threads):
            if d_exp is None:
                return verify_prefix_balance(t, exps[2], mode="sampled", samples=samples,
                                             seed=5, threads=threads).to_json()
            return verify_sampled(t, exps[2], d_exp, samples, seed=5,
                                  threads=threads).to_json()

        assert report(1) == report(2) == report(3)

    @pytest.mark.parametrize("n_exp", [40, 64])
    @pytest.mark.parametrize("m_exp", [24, 64])
    def test_keyed_draws_at_wide_sides(self, n_exp, m_exp):
        # every rectangle fails when 2 * area / M falls below one cell, so the
        # witness is sample 0, drawn from streams 0 and 1 of the seed
        t = keyed_table(TableParams(n_exp, m_exp, 2, m_exp), key=key_from_seed(9))
        report = verify_sampled(t, 2, m_exp, 3, seed=11)
        rect = report.witness[0]
        n_side = 1 << n_exp
        assert list(rect.rows) == partial_shuffle_oracle(stream_value(11, 0), n_side, 4)
        assert list(rect.cols) == partial_shuffle_oracle(stream_value(11, 1), n_side, 4)
        assert len(set(rect.rows)) == 4 and max(rect.rows) < n_side

    def test_draws_beyond_64_bits_refused(self):
        t = keyed_table(TableParams(65, 8, 2, 3), key=key_from_seed(9))
        with pytest.raises(TooLarge):
            verify_sampled(t, 2, 3, 3, seed=0)

    def test_rectangle_beyond_the_explicit_cap_refused(self):
        t = keyed_table(TableParams(40, 8, 13, 3), key=key_from_seed(9))
        with pytest.raises(TooLarge):
            verify_sampled(t, 13, 3, 1, seed=0)

    def test_area_cap_is_inclusive(self, monkeypatch):
        # 4 x 4 rectangles: a cap of exactly 16 cells samples them, a cap
        # one lower refuses them
        t = random_table(TableParams(3, 2, 2, 1), 0)
        monkeypatch.setattr(verify, "_MAX_AREA", 16)
        assert verify_sampled(t, 2, 1, 5, seed=0).rectangles_checked == 5
        monkeypatch.setattr(verify, "_MAX_AREA", 15)
        with pytest.raises(TooLarge):
            verify_sampled(t, 2, 1, 5, seed=0)

    @pytest.mark.parametrize("table_seed, seed, samples, first", [
        (2, 3, 101, 81),    # in a later batch of the last worker at threads 2 and 3
        (3, 0, 91, 91),     # just past the last sample
    ])
    def test_reports_across_draw_batches(self, monkeypatch, table_seed, seed, samples,
                                         first):
        # at _CHUNK = 64 a worker draws its 8 x 8 rectangles in batches of
        # 8.  Reports at threads 1-3, over a sample count that no thread
        # count divides, must equal one drawn in a single batch, and the
        # witness is the first violating sample, drawn from streams 2j and
        # 2j + 1 of the seed
        t = random_table(TableParams(6, 3, 3, 3), table_seed)

        def report(threads, n=samples):
            return json.loads(verify_sampled(t, 3, 3, n, seed=seed, threads=threads)
                              .to_json())

        monkeypatch.setattr(verify, "_CHUNK", 1 << 20)
        want = report(1)
        monkeypatch.setattr(verify, "_CHUNK", 64)
        assert report(1) == report(2) == report(3) == want
        assert (want["witness"] is None) == (first >= samples)
        witness = report(1, max(samples, first + 1))["witness"]
        assert witness["rows"] == partial_shuffle_oracle(stream_value(seed, 2 * first), 64, 8)
        assert witness["cols"] == partial_shuffle_oracle(stream_value(seed, 2 * first + 1),
                                                         64, 8)

    def test_keyed_memory_is_independent_of_n(self):
        # a samples x N draw array would be 400 MB here
        t = keyed_table(TableParams(20, 8, 8, 3), key=key_from_seed(3))
        assert peak_traced_bytes(lambda: verify_sampled(t, 8, 3, 48, seed=1)) < 8 << 20

    def test_explicit_memory_is_independent_of_samples(self):
        t = random_table(TableParams(10, 4, 6, 3), 1)
        few = peak_traced_bytes(lambda: verify_sampled(t, 6, 3, 1_000, seed=1))
        many = peak_traced_bytes(lambda: verify_sampled(t, 6, 3, 10_000, seed=1))
        assert many < few + (256 << 10)
        assert many < 4 << 20

    def test_samples_validation(self):
        t = constant_table()
        with pytest.raises(InvalidParams):
            verify_sampled(t, 2, 2, 0, seed=0)
        with pytest.raises(InvalidParams):
            verify_sampled(t, 2, 2, 10, seed=0, threads=0)


class TestParameterChecks:
    """Every verifier refuses out-of-range sides and exponents with
    InvalidParams instead of passing vacuously or crashing."""

    @pytest.mark.parametrize("s_exp", [-1, 4])
    def test_s_exp_outside_table(self, s_exp):
        t = constant_table()
        for verify in (
            lambda: verify_exhaustive(t, s_exp, 1),
            lambda: verify_sampled(t, s_exp, 1, 10, seed=0),
            lambda: verify_prefix_balance(t, s_exp),
            lambda: verify_prefix_balance(t, s_exp, mode="sampled", samples=10),
        ):
            with pytest.raises(InvalidParams):
                verify()

    @pytest.mark.parametrize("seed", range(4))
    def test_lower_bounds_are_inclusive(self, seed):
        # S = 1 (one cell per rectangle) and D = 1 (every color) are in range,
        # and sampled rectangles agree with the oracle there: at D = 1 every
        # rectangle passes, and at S = 1 every cell gives the ratio D / 2
        t = random_table(TableParams(2, 2, 1, 1), seed)
        for s_exp, d_exp in ((0, 0), (0, 1), (0, 2), (1, 0), (2, 0)):
            want = naive_balance_oracle(t, s_exp, d_exp)
            exhaustive = verify_exhaustive(t, s_exp, d_exp)
            sampled = verify_sampled(t, s_exp, d_exp, 20, seed)
            assert exhaustive.passed == sampled.passed == want, (s_exp, d_exp)
            if s_exp == 0:
                assert exhaustive.worst_ratio == sampled.worst_ratio == Fraction(1 << d_exp, 2)

    def test_d_exp_outside_colors(self):
        t = constant_table()
        for d_exp in (-1, 3):
            for verify in (
                lambda: verify_exhaustive(t, 2, d_exp),
                lambda: verify_sampled(t, 2, d_exp, 10, seed=0),
            ):
                with pytest.raises(InvalidParams):
                    verify()


class TestPrefixBalance:
    def test_balanced_implies_prefix_balanced(self):
        for seed in range(25):
            t = structured_table(seed)
            assert verify_exhaustive(t, 2, 2).passed
            assert verify_prefix_balance(t, 2).passed

    def test_full_length_level_agrees_with_color_check(self):
        for seed in range(15):
            t = random_table(TableParams(3, 2, 2, 2), seed)
            color_rep = verify_exhaustive(t, 2, 2)
            prefix_rep = verify_prefix_balance(t, 2)
            # at m=2 the l=1 level is vacuous, so pass/fail must coincide and
            # the worst ratio can only come from the l=m color level
            assert prefix_rep.passed == color_rep.passed
            assert prefix_rep.worst_ratio >= color_rep.worst_ratio

    def test_constant_table_levels(self):
        report = verify_prefix_balance(constant_table(), 2)
        # l=1: count 16 == 2*(1/2)*16 passes with equality; l=2 fails
        assert not report.passed
        assert report.worst_ratio == 2
        _, colors = report.witness
        assert colors.colors == (0,)

    def test_multi_level_structured(self):
        for seed in range(10):
            t = structured_table(seed, n_exp=3, m_exp=3)
            if verify_exhaustive(t, 2, 3).passed:
                assert verify_prefix_balance(t, 2).passed

    def test_sampled_mode(self):
        t = structured_table(1)
        assert verify_prefix_balance(t, 2, mode="sampled", samples=100, seed=3).passed

    def test_unknown_mode(self):
        with pytest.raises(InvalidParams):
            verify_prefix_balance(constant_table(), 2, mode="adaptive")


class TestReportJson:
    def test_schema(self):
        t = constant_table()
        report = verify_exhaustive(t, 2, 2)
        doc = json.loads(report.to_json())
        assert doc["mode"] == "exhaustive"
        assert doc["passed"] is False
        assert doc["rectangles_checked"] == 4900
        assert doc["worst_ratio"] == {"num": 2, "den": 1}
        assert doc["witness"]["rows"] == [0, 1, 2, 3]
        assert doc["witness"]["colors"] == [0]
        assert doc["params"] == {"n_exp": 3, "m_exp": 2, "s_exp": 2, "d_exp": 2}
        assert doc["table_digest"] == t.digest()

    def test_reports_compare_by_table_digest(self):
        # a report holds its table but compares by digest: the same cells in
        # another table object give an equal report, other cells do not
        t = random_table(TableParams(3, 2, 2, 1), 0)
        twin = BalancedTable(t.params, t.backend, t.seed_or_key, t.cells.copy())
        report, again = verify_exhaustive(t, 2, 1), verify_exhaustive(twin, 2, 1)
        assert report == again and hash(report) == hash(again)
        other = random_table(TableParams(3, 2, 2, 1), 1)
        assert other.digest() != t.digest()
        assert replace(report, _table=other) != report
        assert report.table_params == t.params
        assert "cells" not in repr(report)

    def test_sampled_schema_carries_count(self):
        t = structured_table(0)
        doc = json.loads(verify_sampled(t, 2, 2, 17, seed=1).to_json())
        assert doc["mode"] == "sampled"
        assert doc["samples"] == 17
        assert doc["witness"] is None


class TestPinnedReports:
    """Exact report bytes, witnesses included.

    Dense witnesses list the M/D most frequent colors by (-count, color),
    zero counts included; ranked (sparse) ones list only the colors present,
    ascending.  A prefix witness is the bucket with the largest count * 2^l.
    """

    def test_exhaustive_dominant(self):
        report = verify_exhaustive(random_table(TableParams(3, 2, 2, 1), 5), 2, 2)
        assert report.to_json() == (
            '{"mode": "exhaustive", "params": {"d_exp": 2, "m_exp": 2, "n_exp": 3, '
            '"s_exp": 2}, "passed": false, "prefix_mode": false, '
            '"rectangles_checked": 4900, "table_digest": '
            '"81f05280ebb34410ec309e059f51297d89141d8f8ab3821f6b75bec38e35cda6", '
            '"witness": {"colors": [0], "cols": [1, 2, 3, 4], "rows": [0, 2, 4, 5]}, '
            '"worst_ratio": {"den": 4, "num": 5}}'
        )

    def test_exhaustive_prefix(self):
        report = verify_prefix_balance(random_table(TableParams(3, 3, 2, 3), 0), 2)
        assert report.to_json() == (
            '{"mode": "exhaustive", "params": {"d_exp": 3, "m_exp": 3, "n_exp": 3, '
            '"s_exp": 2}, "passed": false, "prefix_mode": true, '
            '"rectangles_checked": 4900, "table_digest": '
            '"146b8b4d63fa566e11b09d5f4512933daea77a6b0391f54dfb1b84ea5242c8be", '
            '"witness": {"colors": [6], "cols": [0, 1, 3, 6], "rows": [0, 1, 2, 3]}, '
            '"worst_ratio": {"den": 1, "num": 2}}'
        )

    def test_sampled_explicit_lists_zero_count_colors(self):
        # the witness rectangle holds colors 10, 10, 0, 14: M/D = 4 colors by
        # (-count, color), so zero-count color 1 completes the set
        t = random_table(TableParams(5, 4, 1, 2), 11)
        report = verify_sampled(t, 1, 2, 6, seed=2)
        assert report.to_json() == (
            '{"mode": "sampled", "params": {"d_exp": 2, "m_exp": 4, "n_exp": 5, '
            '"s_exp": 1}, "passed": false, "prefix_mode": false, '
            '"rectangles_checked": 6, "samples": 6, "table_digest": '
            '"942f38b7fe09c8e5208e159eb615cbd33e7b7ac9a2810de55e43b01f8abdb51d", '
            '"witness": {"colors": [10, 0, 14, 1], "cols": [2, 26], "rows": [12, 3]}, '
            '"worst_ratio": {"den": 1, "num": 2}}'
        )

    def test_sampled_keyed_ranked_colors(self):
        t = keyed_table(TableParams(8, 80, 4, 80), key=key_from_seed(9))
        report = verify_sampled(t, 4, 80, 20, seed=0)
        assert report.to_json() == (
            '{"mode": "sampled", "params": {"d_exp": 80, "m_exp": 80, "n_exp": 8, '
            '"s_exp": 4}, "passed": false, "prefix_mode": false, '
            '"rectangles_checked": 20, "samples": 20, "table_digest": '
            '"d74f671f090313beb2e9fd0826e03dc6d122a26b980e40cde1efb19041d674f7", '
            '"witness": {"colors": [1585777743999640875442], "cols": [70, 56, 225, '
            '41, 109, 133, 96, 0, 138, 62, 226, 98, 51, 255, 97, 140], "rows": [167, '
            '179, 100, 169, 202, 41, 200, 73, 101, 149, 108, 36, 32, 147, 150, 99]}, '
            '"worst_ratio": {"den": 1, "num": 2361183241434822606848}}'
        )
