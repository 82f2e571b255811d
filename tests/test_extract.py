import concurrent.futures  # noqa: F401  (its import is not the fill's memory)
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_traced_bytes

from balext import extract, tables
from balext.core import BitString, InvalidParams, NotFound, TooLarge
from balext.extract import TablePolicy, extract_conditional, extract_string, table_for
from balext.core import TableParams, derive_string_params

# Golden outputs pinned from the first run of the fixed construction; any
# change to the generator, bit order, or derivation breaks these on purpose.
GOLDEN_STRING_N12 = "10101101"
GOLDEN_COND_HEX = "033a5af2ee5688b80d75bceb161f9d6440e7c07df32ddbc"


class TestExtractString:
    def test_golden_n12(self):
        x = BitString(1, 12)        # 0...01
        y = BitString(1 << 11, 12)  # 10...0
        z = extract_string(x, y, F(1, 2), F(1, 8), TablePolicy(kind="random", seed=7))
        assert z.to01() == GOLDEN_STRING_N12

    def test_golden_matches_table_cell(self):
        # the output is exactly the color at (row 1, column 2^11)
        x = BitString(1, 12)
        y = BitString(1 << 11, 12)
        policy = TablePolicy(kind="random", seed=7)
        params = derive_string_params(12, F(1, 2), F(1, 8))
        table = table_for(params, policy)
        z = extract_string(x, y, F(1, 2), F(1, 8), policy)
        assert z.value == table.lookup(1, 1 << 11)
        assert len(z) == params.m_exp

    def test_zero_inputs_pin_bit_order(self):
        x = y = BitString.zeros(12)
        policy = TablePolicy(kind="random", seed=7)
        z = extract_string(x, y, F(1, 2), F(1, 8), policy)
        params = derive_string_params(12, F(1, 2), F(1, 8))
        table = table_for(params, policy)
        assert z == BitString(table.lookup(0, 0), 8)

    def test_swap_changes_output_somewhere(self):
        policy = TablePolicy(kind="random", seed=7)
        found = False
        for v in range(1, 40):
            x, y = BitString(v, 12), BitString(v * 17 % 4096, 12)
            if x == y:
                continue
            a = extract_string(x, y, F(1, 2), F(1, 8), policy)
            b = extract_string(y, x, F(1, 2), F(1, 8), policy)
            if a != b:
                found = True
                break
        assert found, "table unexpectedly symmetric on all probed pairs"

    def test_length_mismatch(self):
        with pytest.raises(InvalidParams):
            extract_string(BitString(0, 8), BitString(0, 9), F(1, 2), F(1, 8))

    def test_invalid_rates(self):
        x = y = BitString.zeros(12)
        with pytest.raises(InvalidParams):
            extract_string(x, y, F(0), F(0))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 4095), st.integers(0, 4095), st.integers(0, 50))
    def test_output_length_and_purity(self, xv, yv, seed):
        x, y = BitString(xv, 12), BitString(yv, 12)
        policy = TablePolicy(kind="random", seed=seed)
        a = extract_string(x, y, F(1, 2), F(1, 8), policy)
        b = extract_string(x, y, F(1, 2), F(1, 8), policy)
        assert a == b
        assert len(a) == 8

    def test_large_n_uses_keyed_automatically(self):
        x = BitString(3, 64)
        y = BitString(5, 64)
        z = extract_string(x, y, F(1, 2), F(1, 8), TablePolicy(kind="auto", seed=1))
        assert len(z) == 58  # floor(64) - 6

    def test_table_reuse_is_bitwise(self):
        # two calls with identical config see bitwise-identical tables
        policy = TablePolicy(kind="random", seed=9)
        params = derive_string_params(12, F(1, 2), F(1, 8))
        t1 = table_for(params, policy)
        t2 = table_for(params, policy)
        assert t1.digest() == t2.digest()


    def test_cache_bounded_by_cell_bytes(self):
        # a random table holds at most 2^20 cells of at most two bytes, and a
        # larger one is a formula that holds none, so the 8-table cap bounds
        # the cached cells at 16 MB
        big = [table_for(TableParams(12, 8, 4, 2), TablePolicy(kind="random", seed=s))
               for s in (101, 102, 103)]
        assert list(extract._table_cache.values()) == big
        assert all(t.cells is None for t in big)
        held = [table_for(TableParams(10, 16, 4, 2), TablePolicy(kind="random", seed=s))
                for s in range(9)]
        cached = list(extract._table_cache.values())
        assert cached == held[1:] and len(cached) == extract._TABLE_CACHE_MAX
        assert sum(t.cells.nbytes for t in cached) == 16 << 20
        assert table_for(TableParams(10, 16, 4, 2),
                         TablePolicy(kind="random", seed=8)) is held[-1]

    def test_room_is_made_before_the_fill(self):
        # three 2^24-cell tables built, digested and written in turn peak at
        # the fill's scratch and stripes (about 1 MB per fill worker): none
        # of them ever holds its 16 MB of cells
        params = TableParams(12, 8, 4, 2)

        def build_three(tmp):
            for seed in (101, 102, 103):
                table = table_for(params, TablePolicy(kind="random", seed=seed))
                table.digest()
                table.write(tmp / f"{seed}.btab")

        with tempfile.TemporaryDirectory() as tmp:
            peak = peak_traced_bytes(lambda: build_three(Path(tmp)))
        assert peak < (tables._FILL_WORKERS + 1) << 20, peak / 2**20

    def test_small_tables_share_the_budget(self):
        # small tables, which hold their cells, and formula tables share the
        # 8-table cap, and no table evicts another for its size
        small = [table_for(TableParams(8, 8, 4, 2), TablePolicy(kind="random", seed=s))
                 for s in range(3)]
        assert list(extract._table_cache.values()) == small
        big = table_for(TableParams(12, 8, 4, 2), TablePolicy(kind="random", seed=1))
        wide = table_for(TableParams(12, 9, 4, 2), TablePolicy(kind="random", seed=1))
        assert list(extract._table_cache.values()) == small + [big, wide]
        assert big.cells is None and wide.cells is None
        assert all(t.cells is not None for t in small)

    def test_cold_extract_at_12_bits_builds_nothing(self):
        # the table is a formula: the golden cell comes from two scrambles
        x = BitString(1, 12)
        y = BitString(1 << 11, 12)
        out = []
        peak = peak_traced_bytes(lambda: out.append(
            extract_string(x, y, F(1, 2), F(1, 8), TablePolicy(kind="random", seed=7))))
        assert out[0].to01() == GOLDEN_STRING_N12
        assert peak < 1 << 20, peak / 2**20

    @pytest.mark.parametrize("params, kind", [
        (TableParams(13, 8, 4, 2), "random"),      # beyond the explicit side cap
        (TableParams(4, 17, 2, 2), "random"),      # beyond the explicit color cap
        (TableParams(1, 2, 0, 2), "canonical"),    # no balanced table exists
    ])
    def test_refused_build_evicts_nothing(self, params, kind):
        for seed in (1, 2):
            table_for(TableParams(12, 8, 4, 2), TablePolicy(kind="random", seed=seed))
        table_for(TableParams(3, 2, 2, 1), TablePolicy(kind="random", seed=1))
        before = list(extract._table_cache.items())
        with pytest.raises((TooLarge, NotFound)):
            table_for(params, TablePolicy(kind=kind, seed=3))
        after = list(extract._table_cache.items())
        assert [k for k, _ in after] == [k for k, _ in before]
        assert all(a is b for (_, a), (_, b) in zip(after, before))


class TestExtractConditional:
    def test_small_n_rejected(self):
        # m = 32 - 42 < 1
        x = y = BitString.zeros(64)
        with pytest.raises(InvalidParams):
            extract_conditional(x, y, 64, 0)

    def test_golden_n1024(self):
        x = BitString(0x123456789ABCDEF, 1024)
        y = BitString((1 << 1000) | 0xFEDCBA, 1024)
        z = extract_conditional(x, y, 512, 32, TablePolicy(kind="auto", seed=11))
        assert len(z) == 186
        assert format(z.value, "047x") == GOLDEN_COND_HEX

    def test_determinism_and_column_sensitivity(self):
        x = BitString(7, 1024)
        policy = TablePolicy(kind="auto", seed=11)
        z1 = extract_conditional(x, BitString(1, 1024), 512, 32, policy)
        z2 = extract_conditional(x, BitString(1, 1024), 512, 32, policy)
        z3 = extract_conditional(x, BitString(2, 1024), 512, 32, policy)
        assert z1 == z2
        assert z1 != z3  # distinct columns almost surely differ

    def test_length_mismatch(self):
        with pytest.raises(InvalidParams):
            extract_conditional(BitString(0, 10), BitString(0, 12), 8, 0)


class TestPolicy:
    def test_canonical_policy_micro(self):
        policy = TablePolicy(kind="canonical")
        t = table_for(TableParams(1, 1, 1, 1), policy)
        assert t.backend_name == "canonical"

    def test_only_tables_with_cells_are_cached(self):
        keyed = TablePolicy(kind="keyed", seed=4)
        params = TableParams(64, 58, 32, 58)
        assert table_for(params, keyed) is not table_for(params, keyed)
        assert extract._table_cache == {}
        small = TableParams(4, 2, 2, 2)
        table = table_for(small, TablePolicy(seed=4))
        assert extract._table_cache == {(small, "random", 4): table}
        assert table_for(small, TablePolicy(kind="random", seed=4)) is table

    def test_unknown_kind(self):
        with pytest.raises(InvalidParams):
            table_for(TableParams(1, 1, 1, 1), TablePolicy(kind="quantum"))

    def test_explicit_key_overrides_seed(self):
        p = TablePolicy(kind="keyed", seed=5, key=123)
        assert p.effective_key() == 123


class TestLibrarySeeds:
    """Every 64-bit seed the library takes lies in [0, 2^64): one outside
    is refused, not reduced mod 2^64 to the seed it aliases."""

    @staticmethod
    def calls(seed):
        from balext.core import derive_seq_schedule
        from balext.seqtransform import SeededBitStream, block_table
        from balext.sources import PlantedPairSpec, gen_planted_pair
        from balext.verify import verify_prefix_balance, verify_sampled

        p = TableParams(3, 2, 2, 1)
        x, y = BitString(1, 12), BitString(1 << 11, 12)
        held = tables.random_table(p, 5)
        schedule = derive_seq_schedule(F(1, 2), F(1, 2), 2, 4)
        return {
            "random_table": lambda: tables.random_table(p, seed),
            "key_from_seed": lambda: tables.key_from_seed(seed),
            "extract_string": lambda: extract_string(
                x, y, F(1, 2), F(1, 8), TablePolicy(seed=seed)),
            "extract_string keyed": lambda: extract_string(
                x, y, F(1, 2), F(1, 8), TablePolicy(kind="keyed", seed=seed)),
            "verify_sampled": lambda: verify_sampled(held, 2, 1, 10, seed),
            "verify_prefix_balance": lambda: verify_prefix_balance(
                held, 2, mode="sampled", samples=10, seed=seed),
            "PlantedPairSpec": lambda: PlantedPairSpec(12, F(1, 2), F(1, 8), seed),
            "gen_planted_pair": lambda: gen_planted_pair(
                PlantedPairSpec(100, F(1, 2), F(1, 8), 0), seed=seed),
            "SeededBitStream": lambda: SeededBitStream(seed),
            "block_table": lambda: block_table(schedule, 2, TablePolicy(seed=seed)),
        }

    @pytest.mark.parametrize("seed", [1 << 64, (1 << 64) + 7, -1, 1 << 128])
    def test_seed_outside_64_bits_refused(self, seed):
        for name, call in self.calls(seed).items():
            try:
                call()
            except InvalidParams as e:
                assert str(e).startswith("seed must lie in [0, 2^64)"), name
            else:
                pytest.fail(f"{name} accepted seed {seed}")

    def test_top_seed_accepted(self):
        for call in self.calls((1 << 64) - 1).values():
            call()
