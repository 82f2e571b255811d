import logging
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balext import extract

from balext.core import BitString, InvalidParams, OutOfRange, derive_seq_schedule
from balext.extract import TablePolicy, table_for
from balext.seqtransform import (
    BitStringStream,
    CountingBitStream,
    SeededBitStream,
    SequenceTransformer,
    block_seed,
    block_table,
    read_prefix,
)
from balext.mixing import stream_bits, stream_value
from balext.tables import BACKEND_RANDOM, BalancedTable, random_table
from balext.verify import verify_prefix_balance
from conftest import stream_bit_oracle

GOLDEN_TRANSFORM_11 = "00101101000"  # tau=1/2 delta=1/2 B=2, x=seed101, y=seed202, tables seed 3


BITS_7 = BitString(stream_bits(7, 5000), 5000)

# the three in-tree streams, each built fresh per read, with the rule for
# their bit i: the per-bit oracle, or the wrapped BitString's own bit
STREAMS = {
    "seeded": (lambda: SeededBitStream(42), lambda i: stream_bit_oracle(42, i)),
    "bitstring": (lambda: BitStringStream(BITS_7), BITS_7.bit),
    "counting": (lambda: CountingBitStream(SeededBitStream(42)),
                 lambda i: stream_bit_oracle(42, i)),
}


def constant_table(params, seed):
    """A stand-in for ``random_table``: every cell has color 0."""
    cells = np.zeros((params.n_side, params.n_side), dtype=np.uint8)
    cells.setflags(write=False)
    return BalancedTable(params, BACKEND_RANDOM, seed, cells)


def b2_schedule(max_block=4):
    return derive_seq_schedule(F(1, 2), F(1, 2), 2, max_block)


class TestStreams:
    def test_seeded_stream_is_repeatable_and_addressable(self):
        s = SeededBitStream(42)
        first = s.prefix(100)
        assert s.prefix(100) == first
        assert list(first) == [stream_bit_oracle(42, i) for i in range(100)]
        assert s.prefix(78).bit(77) == first.bit(77)
        # documented rule: bit p is bit p%64 (MSB-first) of output p//64
        assert first.bit(0) == stream_value(42, 0) >> 63
        assert first.bit(64) == stream_value(42, 1) >> 63

    def test_bitstring_stream_bounds(self):
        s = BitStringStream(BitString.from01("101"))
        assert list(s.prefix(3)) == [1, 0, 1]
        with pytest.raises(OutOfRange):
            s.prefix(4)

    def test_read_prefix(self):
        p = read_prefix(SeededBitStream(1), 70)
        assert len(p) == 70
        assert list(p) == [stream_bit_oracle(1, i) for i in range(70)]

    @pytest.mark.parametrize("kind", sorted(STREAMS))
    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 4097])
    def test_read_prefix_equals_bit_reads(self, kind, count):
        make, bit = STREAMS[kind]
        bulk = read_prefix(make(), count)
        assert len(bulk) == count
        assert list(bulk) == [bit(i) for i in range(count)]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           counts=st.lists(st.integers(0, 300), max_size=6))
    def test_prefixes_match_oracles(self, seed, counts):
        # across word boundaries: each prefix agrees bit for bit with the
        # per-bit rule, and a counting wrapper reads them as prefix reads
        want = [stream_bit_oracle(seed, i) for i in range(300)]
        bits = BitString(stream_bits(seed ^ 1, 300), 300)
        counting = CountingBitStream(SeededBitStream(seed))
        for count in counts:
            assert list(SeededBitStream(seed).prefix(count)) == want[:count]
            assert list(BitStringStream(bits).prefix(count)) == [
                bits.bit(i) for i in range(count)]
            assert list(counting.prefix(count)) == want[:count]
        assert counting.reads == sum(counts)
        assert counting.positions == range(max(counts, default=0))

    def test_prefix_past_the_end(self):
        bits = BitString(stream_bits(9, 100), 100)
        assert BitStringStream(bits).prefix(100) == bits
        with pytest.raises(OutOfRange):
            BitStringStream(bits).prefix(101)
        with pytest.raises(OutOfRange):
            SeededBitStream(9).prefix(-1)

    def test_output_bit_on_short_stream(self):
        short = BitStringStream(read_prefix(SeededBitStream(101), 20))
        tr = SequenceTransformer(short, short, b2_schedule(), TablePolicy(seed=3))
        assert tr.output_bit(1) in (0, 1)   # block 3 ends at input bit 14
        with pytest.raises(OutOfRange):
            tr.output_bit(5)                # block 4 ends at input bit 30

    @pytest.mark.parametrize("count", [0, 1, 65, 4097])
    def test_counting_prefix_counts_like_bit_reads(self, count):
        # one prefix read counts as reading each of positions 0..count-1 once
        bulk = CountingBitStream(BitStringStream(read_prefix(SeededBitStream(3), 5000)))
        bulk.prefix(count)
        assert bulk.reads == count
        assert bulk.positions == range(count)

    def test_counting_positions_past_maxsize(self):
        # a range longer than sys.maxsize has no len(), and must still grow
        class Unbuilt:
            def prefix(self, count):
                return count            # stands in for a prefix too long to build

        s = CountingBitStream(Unbuilt())
        assert s.prefix(1 << 64) == 1 << 64
        s.prefix(5)
        assert s.positions == range(1 << 64)
        s.prefix((1 << 64) + 1)
        assert s.positions == range((1 << 64) + 1)
        assert s.reads == (1 << 65) + 6

    def test_counting_prefix_records_nothing_on_error(self):
        neg = CountingBitStream(SeededBitStream(1))
        with pytest.raises(OutOfRange):
            neg.prefix(-1)
        past = CountingBitStream(BitStringStream(read_prefix(SeededBitStream(1), 10)))
        with pytest.raises(OutOfRange):
            past.prefix(11)
        for s in (neg, past):
            assert s.reads == 0
            assert s.positions == range(0)


class TestLayout:
    def test_b2_example(self):
        s = b2_schedule()
        assert s.first_emitting_block == 2
        assert s.input_ends == (2, 6, 14, 30)
        # output positions 0, 1..3, 4..10 map to blocks 2, 3, 4
        assert s.block_of_output(0) == 2
        assert [s.block_of_output(p) for p in (1, 2, 3)] == [3, 3, 3]
        assert [s.block_of_output(p) for p in (4, 10)] == [4, 4]
        assert s.total_output_bits == 11
        with pytest.raises(OutOfRange):
            s.block_of_output(11)

    def test_input_ranges_cover_invalid_blocks(self):
        s = b2_schedule()
        assert s.input_range(1) == (0, 2)  # consumed though it emits nothing
        assert s.input_range(4) == (14, 30)

    def test_output_range_of_invalid_block(self):
        s = b2_schedule()
        with pytest.raises(InvalidParams):
            s.output_range(1)


class TestTransform:
    def test_golden_prefix(self):
        z = SequenceTransformer(
            SeededBitStream(101), SeededBitStream(202), b2_schedule(), TablePolicy(seed=3),
        ).transform_prefix(11)
        assert z.to01() == GOLDEN_TRANSFORM_11

    def test_output_bit_agrees_with_prefix(self):
        sched = b2_schedule()
        x, y = SeededBitStream(101), SeededBitStream(202)
        pol = TablePolicy(seed=3)
        bits = [SequenceTransformer(x, y, sched, pol).output_bit(p) for p in range(11)]
        assert BitString.from_bits(bits).to01() == GOLDEN_TRANSFORM_11

    def test_empty_prefix(self):
        z = SequenceTransformer(SeededBitStream(1), SeededBitStream(2),
                                b2_schedule()).transform_prefix(0)
        assert len(z) == 0

    def test_single_block_prefix_equals_block_color(self):
        sched = b2_schedule()
        x, y = SeededBitStream(101), SeededBitStream(202)
        pol = TablePolicy(seed=3)
        z = SequenceTransformer(x, y, sched, pol).transform_prefix(1)  # m_2 = 1
        t2 = block_table(sched, 2, pol)
        x2 = read_prefix(x, 6).substring(2, 6)
        y2 = read_prefix(y, 6).substring(2, 6)
        assert z.value == t2.lookup(x2.value, y2.value)

    def test_prefix_consistency(self):
        sched = b2_schedule()
        pol = TablePolicy(seed=3)
        x, y = SeededBitStream(5), SeededBitStream(6)
        full = SequenceTransformer(x, y, sched, pol).transform_prefix(11)
        for k in range(12):
            tr = SequenceTransformer(x, y, sched, pol)
            assert tr.transform_prefix(min(k, 11)) == full.prefix(min(k, 11))

    def test_interleaved_cursors_identical(self):
        sched = b2_schedule()
        pol = TablePolicy(seed=9)
        x, y = SeededBitStream(7), SeededBitStream(8)
        tr1 = SequenceTransformer(x, y, sched, pol)
        tr2 = SequenceTransformer(x, y, sched, pol)
        a = [tr1.output_bit(p) for p in range(11)]
        b = []
        for p in range(0, 11, 2):
            b.append((p, tr2.output_bit(p)))
        for p in range(1, 11, 2):
            b.append((p, tr2.output_bit(p)))
        assert [bit for _, bit in sorted(b)] == a

    def test_out_len_beyond_schedule(self):
        with pytest.raises(InvalidParams):
            SequenceTransformer(SeededBitStream(1), SeededBitStream(2),
                                b2_schedule()).transform_prefix(12)

    @pytest.mark.parametrize("policy", [TablePolicy(kind="canonical", seed=3, key=99),
                                        TablePolicy(kind="random", seed=3),
                                        TablePolicy(kind="keyed", seed=3),
                                        TablePolicy(seed=3, key=99)],
                             ids=["canonical-key", "random", "keyed", "auto-key"])
    def test_policy_other_than_auto_refused(self, policy):
        # block tables read only the policy's seed; a kind or key that they
        # would ignore is refused, not answered with the seed-3 golden
        tr = SequenceTransformer(SeededBitStream(101), SeededBitStream(202),
                                 b2_schedule(), policy)
        with pytest.raises(InvalidParams):
            tr.transform_prefix(11)
        with pytest.raises(InvalidParams):
            tr.output_bit(0)
        with pytest.raises(InvalidParams):
            block_table(b2_schedule(), 2, policy)


class TestTruthTableProperty:
    @pytest.mark.parametrize("pos,block,expect_read", [(0, 2, 6), (1, 3, 14), (5, 4, 30)])
    def test_reads_exactly_block_prefix(self, pos, block, expect_read):
        sched = b2_schedule()
        cx = CountingBitStream(SeededBitStream(101))
        cy = CountingBitStream(SeededBitStream(202))
        SequenceTransformer(cx, cy, sched, TablePolicy(seed=3)).output_bit(pos)
        assert sorted(cx.positions) == list(range(expect_read))
        assert sorted(cy.positions) == list(range(expect_read))

    def test_read_set_is_content_independent(self):
        sched = b2_schedule()
        pol = TablePolicy(seed=3)
        reads = []
        for xs, ys in ((11, 22), (1 << 40, 17)):
            cx = CountingBitStream(SeededBitStream(xs))
            cy = CountingBitStream(SeededBitStream(ys))
            SequenceTransformer(cx, cy, sched, pol).output_bit(7)
            reads.append((tuple(sorted(cx.positions)), tuple(sorted(cy.positions))))
        assert reads[0] == reads[1]

    def test_transform_prefix_total_reads_bounded(self):
        sched = b2_schedule()
        cx = CountingBitStream(SeededBitStream(1))
        cy = CountingBitStream(SeededBitStream(2))
        SequenceTransformer(cx, cy, sched, TablePolicy(seed=3)).transform_prefix(11)
        total = len(cx.positions) + len(cy.positions)
        assert total <= 2 * sum(b.n_bits for b in sched.blocks)
        assert cx.reads == 30  # one pass, no re-reads

    def test_block_isolation(self):
        # changing input bits after block i's region leaves blocks <= i alone
        sched = b2_schedule()
        pol = TablePolicy(seed=3)
        base_x = read_prefix(SeededBitStream(101), 30)
        base_y = read_prefix(SeededBitStream(202), 30)
        z_base = SequenceTransformer(
            BitStringStream(base_x), BitStringStream(base_y), sched, pol
        ).transform_prefix(11)
        # flip a bit inside block 4's input region (positions 14..29)
        flipped = base_x.value ^ (1 << (30 - 1 - 20))
        z_flip = SequenceTransformer(
            BitStringStream(BitString(flipped, 30)), BitStringStream(base_y), sched, pol,
        ).transform_prefix(11)
        assert z_flip.prefix(4) == z_base.prefix(4)  # blocks 2..3 untouched


class TestBlockTables:
    def test_block_seed_rule(self):
        assert block_seed(77, 3) == stream_value(77, 3)

    def test_backend_escalation(self):
        sched = b2_schedule()
        pol = TablePolicy(seed=3)
        assert block_table(sched, 2, pol).is_explicit
        assert block_table(sched, 3, pol).is_explicit
        assert not block_table(sched, 4, pol).is_explicit  # n=16 > cap 12

    def test_blocks_share_one_table_cache(self, monkeypatch):
        # the explicit blocks 2 and 3 are built once, by the first transform;
        # fresh transformers with the same seed then only hit the cache
        sched = b2_schedule(15)
        pol = TablePolicy(seed=9)
        built = []

        def counting(*args, **kwargs):
            built.append(args[0])
            return random_table(*args, **kwargs)

        monkeypatch.setattr(extract, "random_table", counting)
        x, y = SeededBitStream(101), SeededBitStream(202)
        z = SequenceTransformer(x, y, sched, pol).transform_prefix(sched.total_output_bits)
        assert [p.n_exp for p in built] == [4, 8]
        built.clear()
        for i in range(2, 13):
            start, end = sched.output_range(i)
            for pos in (start, end - 1):
                tr = SequenceTransformer(SeededBitStream(101), SeededBitStream(202),
                                         sched, pol)
                assert tr.output_bit(pos) == z.bit(pos)
        assert built == []

    def test_failing_block_warns_once_per_built_table(self, caplog, monkeypatch):
        sched = derive_seq_schedule(F(1), F(1, 2), 2, 3)   # blocks 1-3 explicit
        pol = TablePolicy(seed=5)

        monkeypatch.setattr(extract, "random_table", constant_table)

        def run():
            SequenceTransformer(SeededBitStream(1), SeededBitStream(2), sched,
                                pol).transform_prefix(3)    # block 2 holds bits 1-3
            SequenceTransformer(SeededBitStream(3), SeededBitStream(4), sched,
                                pol).output_bit(2)

        # a constant block 1 (M = 2, every cell color 0) meets the prefix
        # bound exactly; a constant block 2 (M = 8) fails it
        with caplog.at_level(logging.WARNING, logger="balext.seqtransform"):
            run()
            run()                                     # cache hits warn no more
            assert [m.split(" explicit")[0] for m in caplog.messages] == ["block 2"]
            extract._table_cache.clear()
            run()
        assert [m.split(" explicit")[0] for m in caplog.messages] == ["block 2"] * 2

    def test_table_another_caller_built_is_checked(self, caplog, monkeypatch):
        # block 2's table enters the cache through a plain table_for call
        # under the block's policy; block_table checks it the first time it
        # gets it, and only then
        sched = derive_seq_schedule(F(1), F(1, 2), 2, 3)
        pol = TablePolicy(seed=5)
        monkeypatch.setattr(extract, "random_table", constant_table)
        built = table_for(sched.block(2).table_params(),
                          TablePolicy(seed=block_seed(pol.seed, 2)))
        with caplog.at_level(logging.WARNING, logger="balext.seqtransform"):
            assert block_table(sched, 2, pol) is built
            assert block_table(sched, 2, pol) is built
        assert caplog.messages == [
            "block 2 explicit table failed sampled prefix-balance check (worst ratio 4)"
        ]

    def test_construction_warning_on_unbalanced_block(self, caplog):
        # tiny blocks pass vacuously; force a warning via an adversarial cap
        sched = derive_seq_schedule(F(1), F(1, 2), 3, 2)  # m_2 = 8 with n_2 = 9
        pol = TablePolicy(seed=0)
        import logging

        with caplog.at_level(logging.WARNING):
            block_table(sched, 2, pol)
        # warning may or may not fire depending on the draw; the call itself
        # must succeed either way
        assert block_table(sched, 2, pol).is_explicit

    def test_block_check_hashes_no_table(self, caplog, monkeypatch):
        # block_table reads only the report's verdict and worst ratio, and a
        # report hashes its table only when its digest is read
        def no_digest(self):
            raise AssertionError("the block check hashed its table")

        checked = []
        for sched, build in ((b2_schedule(), random_table),     # S < N: 16 samples
                             (derive_seq_schedule(F(1), F(1, 2), 2, 3), constant_table)):
            with monkeypatch.context() as m:
                m.setattr(extract, "_table_cache", {})
                m.setattr(extract, "random_table", build)
                m.setattr(BalancedTable, "digest", no_digest)
                with caplog.at_level(logging.WARNING, logger="balext.seqtransform"):
                    for i in (2, 3):
                        table = block_table(sched, i, TablePolicy(seed=5))
                        assert table.is_explicit
                        checked.append((i, table))
        want = []
        for i, table in checked:
            p = table.params
            report = verify_prefix_balance(
                table, p.s_exp, mode="sampled", samples=1 if p.s_exp == p.n_exp else 16,
                seed=block_seed(5, i))
            if not report.passed:
                want.append(f"block {i} explicit table failed sampled prefix-balance "
                            f"check (worst ratio {report.worst_ratio})")
        assert len(want) == 2 and caplog.messages == want

    def test_whole_table_blocks_warn_as_with_sixteen_samples(self, caplog, monkeypatch):
        # at S = N every sample is the whole table, so block_table checks one:
        # its verdict, worst ratio and warning are those of 16 samples
        sched = derive_seq_schedule(F(1), F(1, 2), 2, 3)   # n = s_exp = 2, 4, 8
        pol = TablePolicy(seed=5)

        def checks(table, i):
            s_exp = table.params.s_exp
            return [verify_prefix_balance(table, s_exp, mode="sampled", samples=k,
                                          seed=block_seed(pol.seed, i))
                    for k in (1, 16)]

        for i in (1, 2, 3):
            params = sched.block(i).table_params()
            assert params.s_exp == params.n_exp
            for table in (block_table(sched, i, pol),
                          constant_table(params, 0)):
                one, sixteen = checks(table, i)
                assert (one.passed, one.worst_ratio) == (sixteen.passed, sixteen.worst_ratio)
        # the block 2 table built above is cached; start from an empty
        # cache so that table_for builds block 2 with the patched builder
        monkeypatch.setattr(extract, "_table_cache", {})
        monkeypatch.setattr(extract, "random_table", constant_table)
        with caplog.at_level(logging.WARNING, logger="balext.seqtransform"):
            table = block_table(sched, 2, pol)
        _, sixteen = checks(table, 2)
        assert not sixteen.passed
        assert caplog.messages == [
            "block 2 explicit table failed sampled prefix-balance check "
            f"(worst ratio {sixteen.worst_ratio})"
        ]
