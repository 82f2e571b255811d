import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balext.core import (
    BitString,
    BlockSpec,
    InvalidParams,
    OutOfRange,
    TableParams,
    ceil_log2,
    derive_cond_params,
    derive_seq_schedule,
    derive_string_params,
    parse_fraction,
    round_half_up,
    seed64,
)


class TestBitString:
    def test_msb_first_value(self):
        assert BitString.from01("101").value == 5
        assert BitString.from01("0001").value == 1
        assert BitString(1, 12).to01() == "000000000001"

    def test_indexing(self):
        s = BitString.from01("1100")
        assert [s.bit(i) for i in range(4)] == [1, 1, 0, 0]
        assert list(s) == [1, 1, 0, 0]
        with pytest.raises(OutOfRange):
            s.bit(4)

    @given(st.lists(st.integers(0, 1), max_size=5000))
    @example([1, 0, 0] * 1666 + [1])
    def test_bits_roundtrip(self, bits):
        s = BitString.from_bits(bits)
        assert list(s) == bits
        assert len(s) == len(bits)
        assert BitString.from01(s.to01()) == s

    @pytest.mark.parametrize("bad", [2, -1])
    def test_from_bits_refuses_non_bits(self, bad):
        with pytest.raises(InvalidParams):
            BitString.from_bits([0, 1, bad, 1])
        with pytest.raises(InvalidParams):
            BitString.from_bits([bad])

    @given(st.binary(max_size=64))
    def test_bytes_roundtrip(self, data):
        s = BitString.from_bytes(data)
        assert s.to_bytes() == data
        assert len(s) == 8 * len(data)

    @given(st.binary(min_size=1, max_size=16), st.data())
    def test_truncation(self, data, draw):
        bits = draw.draw(st.integers(0, 8 * len(data)))
        s = BitString.from_bytes(data, bits)
        full = BitString.from_bytes(data)
        assert s == full.prefix(bits)

    def test_concat_and_substring(self):
        a, b = BitString.from01("101"), BitString.from01("0011")
        ab = a.concat(b)
        assert ab.to01() == "1010011"
        assert ab.substring(2, 5).to01() == "100"
        assert ab.substring(0, 3) == a
        assert ab.prefix(0).length == 0

    def test_value_range_enforced(self):
        with pytest.raises(InvalidParams):
            BitString(4, 2)
        with pytest.raises(InvalidParams):
            BitString(1, 0)


def test_ceil_log2():
    assert [ceil_log2(n) for n in (1, 2, 3, 4, 12, 64, 1000, 1024)] == [
        0, 1, 2, 2, 4, 6, 10, 10,
    ]


def test_seed64_is_the_64_bit_range():
    for seed in (0, 1, (1 << 64) - 1):
        assert seed64(seed) == seed
    for seed in (-1, 1 << 64, 1 << 128):
        with pytest.raises(InvalidParams, match=rf"^seed must lie in \[0, 2\^64\), got {seed}$"):
            seed64(seed)
    with pytest.raises(InvalidParams, match=r"^--seed must lie"):
        seed64(-1, "--seed")


def test_round_half_up():
    assert round_half_up(F(3, 2)) == 2
    assert round_half_up(F(5, 2)) == 3
    assert round_half_up(F(1, 4)) == 0
    assert round_half_up(F(12, 8)) == 2


class TestTableParams:
    def test_invariants(self):
        p = TableParams(10, 4, 8, 1)
        assert (p.n_side, p.m_colors, 1 << p.s_exp, 1 << p.d_exp) == (1024, 16, 256, 2)
        assert p.m_colors >> p.d_exp == 8     # |A| = M/D

    @pytest.mark.parametrize(
        "bad", [(0, 1, 0, 0), (1, 0, 0, 0), (2, 2, 3, 1), (2, 2, 1, 3)]
    )
    def test_rejects(self, bad):
        with pytest.raises(InvalidParams):
            TableParams(*bad)


def _log2_ceil(n):
    """Smallest k with 2**k >= n, by counting up: the derivations' oracle."""
    k = 0
    while 2**k < n:
        k += 1
    return k


_RATES = st.fractions(min_value=F(-1, 4), max_value=F(5, 4), max_denominator=64)


class TestStringParams:
    def test_example_n64(self):
        p = derive_string_params(64, F(1, 2), F(1, 8))
        assert p == TableParams(64, 58, 32, 56)      # d_exp < m_exp: a guarantee

    def test_example_n4_clamps_d_to_m(self):
        # d = ceil(4/4) + 8*2 = 17 >= m = 4 - 2 = 2: no guarantee, d_exp = m_exp
        assert derive_string_params(4, F(1, 2), F(1, 4)) == TableParams(4, 2, 2, 2)

    def test_example_n2_clamps_d_to_m(self):
        # m = 4 - 1 = 3, s = 2, d = 1 + 8 = 9 >= 3
        assert derive_string_params(2, F(1), F(1, 2)) == TableParams(2, 3, 2, 3)

    def test_degenerate_small_n_clamps_d_to_m(self):
        # d = ceil(12/8) + 8*4 = 34 >= m = 12 - 4 = 8
        assert derive_string_params(12, F(1, 2), F(1, 8)) == TableParams(12, 8, 6, 8)

    def test_hypothesis_bounds_enforced(self):
        # the paper's 0 < alpha < sigma is the caller's to keep; the
        # derivation refuses rates outside 0 <= alpha <= sigma <= 1, sigma > 0
        msg = "need 0 <= alpha <= sigma <= 1 with sigma > 0"
        for sigma, alpha in [(F(3, 2), F(1, 8)), (F(1, 4), F(1, 2)), (F(0), F(0)),
                             (F(1, 2), F(-1, 8))]:
            with pytest.raises(InvalidParams) as exc:
                derive_string_params(64, sigma, alpha)
            assert str(exc.value) == msg
        assert derive_string_params(64, F(1, 2), F(1, 2)) == TableParams(64, 58, 32, 58)
        assert derive_string_params(64, F(1, 2), F(0)) == TableParams(64, 58, 32, 48)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_n_below_two_refused(self, n):
        with pytest.raises(InvalidParams) as exc:
            derive_string_params(n, F(1, 2), F(1, 8))
        assert str(exc.value) == f"n must be >= 2, got {n}"

    @settings(max_examples=400, deadline=None)
    @given(n=st.integers(2, 2**16), sigma=_RATES, alpha=_RATES)
    @example(n=4, sigma=F(1, 2), alpha=F(1, 4))
    @example(n=2, sigma=F(1, 4), alpha=F(0))         # m = 1 - 1 = 0
    @example(n=64, sigma=F(1, 2), alpha=F(1, 8))
    @example(n=65536, sigma=F(1), alpha=F(1))
    def test_equals_fraction_formulas(self, n, sigma, alpha):
        log_n = _log2_ceil(n)
        m = math.floor(2 * sigma * n) - log_n
        s = math.ceil(sigma * n)                         # <= n whenever sigma <= 1
        d = math.ceil(alpha * n) + 8 * log_n
        if not (0 <= alpha <= sigma <= 1 and sigma > 0):
            msg = "need 0 <= alpha <= sigma <= 1 with sigma > 0"
        elif m < 1:
            msg = f"derived m_exp = {m} < 1: n too small for sigma"
        else:
            p = derive_string_params(n, sigma, alpha)
            assert p == TableParams(n, m, s, min(d, m))
            assert p.s_exp <= n
            assert (p.d_exp == p.m_exp) == (d >= m)
            return
        with pytest.raises(InvalidParams) as exc:
            derive_string_params(n, sigma, alpha)
        assert str(exc.value) == msg

    @given(st.integers(8, 4096), st.integers(1, 16), st.integers(1, 16))
    def test_pure_and_deterministic(self, n, snum, anum):
        sigma = F(snum, 16)
        alpha = F(anum, 32)
        if not 0 < alpha < sigma <= 1:
            return
        try:
            a = derive_string_params(n, sigma, alpha)
        except InvalidParams:
            return
        b = derive_string_params(n, sigma, alpha)
        assert a == b
        assert a.n_exp == n and a.s_exp <= n and a.d_exp <= a.m_exp


class TestCondParams:
    def test_example_n1024(self):
        p = derive_cond_params(1024, 512, 64)
        assert p == TableParams(1024, 186, 256, 186)     # D = M

    def test_example_boundary(self):
        with pytest.raises(InvalidParams):
            derive_cond_params(64, 36, 4)  # 6*6 = 36 is not < 36

    def test_example_n256(self):
        p = derive_cond_params(256, 256, 0)
        assert (p.m_exp, p.s_exp) == (72, 128)

    def test_too_small_m(self):
        with pytest.raises(InvalidParams):
            derive_cond_params(64, 37, 0)  # floor(37/2) - 42 < 1

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_n_below_two_refused(self, n):
        with pytest.raises(InvalidParams) as exc:
            derive_cond_params(n, 1, 0)
        assert str(exc.value) == f"n must be >= 2, got {n}"

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), n=st.integers(2, 2**16))
    def test_equals_integer_formulas(self, data, n):
        s_of_n = data.draw(st.integers(-2, n + 2), label="s_of_n")
        alpha_of_n = data.draw(st.integers(-2, 2 * n), label="alpha_of_n")
        log_n = _log2_ceil(n)
        m = math.floor(F(s_of_n, 2)) - 7 * log_n
        if not 6 * log_n < s_of_n <= n:
            msg = (f"need 6*ceil(log2 n) = {6 * log_n} < s_of_n <= n, "
                   f"got s_of_n = {s_of_n}")
        elif alpha_of_n < 0:
            msg = "alpha_of_n must be >= 0"
        elif m < 1:
            msg = f"derived m_exp = {m} < 1: s_of_n too small"
        else:
            p = derive_cond_params(n, s_of_n, alpha_of_n)
            assert p == TableParams(n, m, math.ceil(F(s_of_n, 2)), m)
            return
        with pytest.raises(InvalidParams) as exc:
            derive_cond_params(n, s_of_n, alpha_of_n)
        assert str(exc.value) == msg


class TestSeqSchedule:
    def test_example_b2(self):
        s = derive_seq_schedule(F(1, 2), F(1, 2), 2, 4)
        assert s.epsilon == F(1, 8)
        assert s.alpha == F(97, 76800)
        assert abs(float(s.alpha) - 0.001263) < 1e-6
        assert [b.n_bits for b in s.blocks] == [2, 4, 8, 16]
        assert [b.m_bits for b in s.blocks] == [0, 1, 3, 7]
        assert not s.blocks[0].valid
        assert s.first_emitting_block == 2

    def test_example_b3(self):
        s = derive_seq_schedule(F(1, 2), F(1, 2), 3, 3)
        assert [b.n_bits for b in s.blocks] == [3, 9, 27]
        assert [b.m_bits for b in s.blocks] == [1, 4, 13]

    def test_vacuous_rate_accepted(self):
        s = derive_seq_schedule(F(1), F(4), 2, 2)
        assert s.epsilon == 1     # delta >= 1: the target rate is vacuous

    def test_block_params_and_monotonicity(self):
        s = derive_seq_schedule(F(1, 2), F(1, 2), 2, 8)
        first = s.first_emitting_block
        ms = [b.m_bits for b in s.blocks if b.index >= first]
        assert all(b2 > b1 for b1, b2 in zip(ms, ms[1:]))
        for b in s.blocks:
            if b.valid:
                tp = b.table_params()
                assert tp.d_exp == tp.m_exp == b.m_bits
                assert tp.s_exp <= tp.n_exp

    @settings(max_examples=150, deadline=None)
    @given(tau=st.fractions(min_value=0, max_value=1, max_denominator=1000)
           .filter(lambda t: t > 0),
           base=st.integers(min_value=2, max_value=12))
    def test_every_block_side_fits_its_input(self, tau, base):
        # s_i = ceil(0.98 tau n_i) <= n_i since tau <= 1
        for b in derive_seq_schedule(tau, F(1, 2), base, 20).blocks:
            assert b.s_exp <= b.n_bits
            if b.valid:
                assert b.table_params() == TableParams(b.n_bits, b.m_bits, b.s_exp, b.m_bits)

    def test_block_side_beyond_input_refused(self):
        with pytest.raises(InvalidParams, match="s_exp <= n_exp"):
            BlockSpec(index=1, n_bits=4, m_bits=2, s_exp=5).table_params()

    @pytest.mark.parametrize("tau", [F(1, 2), F(1), F(3, 7), F(99, 100)])
    @pytest.mark.parametrize("base", [2, 3, 12])
    def test_integer_blocks_equal_fraction_formula(self, tau, base):
        # m_i = floor(0.97 tau n_i), s_i = ceil(0.98 tau n_i), in Fractions
        s = derive_seq_schedule(tau, F(1, 2), base, 64)
        expected = [(base**i, math.floor(F(97, 100) * tau * base**i),
                     math.ceil(F(98, 100) * tau * base**i)) for i in range(1, 65)]
        assert [(b.n_bits, b.m_bits, b.s_exp) for b in s.blocks] == expected
        assert [b.index for b in s.blocks] == list(range(1, 65))

    @settings(max_examples=150, deadline=None)
    @given(tau=st.fractions(min_value=0, max_value=1, max_denominator=1000)
           .filter(lambda t: t > 0),
           delta=st.fractions(min_value=F(1, 100), max_value=4, max_denominator=100),
           base=st.integers(min_value=2, max_value=12),
           max_block=st.integers(min_value=1, max_value=20))
    def test_offsets_match_a_scan_of_the_blocks(self, tau, delta, base, max_block):
        s = derive_seq_schedule(tau, delta, base, max_block)

        def block_by_scan(pos):
            # the emitting block whose output bits hold pos, by a linear scan
            out = 0
            for b in s.blocks:
                if b.valid and out <= pos < out + b.m_bits:
                    return b.index
                out += b.m_bits if b.valid else 0
            return None

        ends, starts, probes = [], [], set()
        inp = out = 0
        for b in s.blocks:
            assert s.input_range(b.index) == (inp, inp + b.n_bits)
            inp += b.n_bits
            ends.append(inp)
            starts.append(out)
            if b.valid:
                assert s.output_range(b.index) == (out, out + b.m_bits)
                probes |= {out - 1, out, out + b.m_bits // 2, out + b.m_bits - 1}
                out += b.m_bits
            else:
                with pytest.raises(InvalidParams, match=f"block {b.index} emits no output"):
                    s.output_range(b.index)
        assert s.input_ends == tuple(ends)
        assert s.output_starts == tuple(starts)
        assert s.total_output_bits == out
        for pos in sorted(p for p in probes if p >= 0):
            assert s.block_of_output(pos) == block_by_scan(pos)
        for pos in (-1, out):
            with pytest.raises(OutOfRange, match=rf"output position {pos} outside the "
                                                 rf"schedule \(covers {out} bits\)"):
                s.block_of_output(pos)
        for i in (0, len(s.blocks) + 1):
            with pytest.raises(OutOfRange, match=f"block index {i} outside"):
                s.input_range(i)

    def test_preconditions(self):
        with pytest.raises(InvalidParams):
            derive_seq_schedule(F(0), F(1, 2), 2, 3)
        with pytest.raises(InvalidParams):
            derive_seq_schedule(F(1, 2), F(1, 2), 1, 3)


def test_parse_fraction():
    assert parse_fraction("1/2") == F(1, 2)
    assert parse_fraction("3") == 3
    assert parse_fraction(" 97/100 ") == F(97, 100)


@pytest.mark.parametrize("text", ["1/x", "1/0", "abc", "", "/", "3/", "1/2/3", "0.5"])
def test_parse_fraction_refuses_non_fractions(text):
    with pytest.raises(InvalidParams, match="not a fraction"):
        parse_fraction(text)
