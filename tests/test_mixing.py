import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from balext.core import TooLarge
from balext.mixing import (
    GAMMA,
    MASK64,
    absorb,
    partial_shuffle_batch,
    scramble,
    scramble_inplace,
    scramble_np,
    stream_bits,
    stream_block_np,
    stream_steps,
    stream_value,
    stream_values_np,
    stream_words,
    substream,
)

from conftest import bounded, partial_shuffle_oracle

# First outputs of SplitMix64 seeded with 0 (widely published sequence);
# pins the generator across platforms and versions.
SPLITMIX64_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]


def test_pinned_splitmix64_sequence():
    assert [stream_value(0, k) for k in range(4)] == SPLITMIX64_SEED0


def test_scramble_is_bijective_on_samples():
    seen = {scramble(v) for v in range(10_000)}
    assert len(seen) == 10_000


@given(st.integers(min_value=0, max_value=MASK64))
def test_scramble_stays_in_range(v):
    assert 0 <= scramble(v) <= MASK64


def test_vectorized_matches_scalar():
    state = 0xDEADBEEF
    block = np.arange(1, 65, dtype=np.uint64) * np.uint64(GAMMA) + np.uint64(state)
    vec = scramble_np(block)
    assert [int(x) for x in vec] == [stream_value(state, k) for k in range(64)]


def test_scramble_inplace_matches():
    z = np.arange(1, 1001, dtype=np.uint64) * np.uint64(GAMMA)
    want = scramble_np(z)
    assert np.array_equal(scramble_inplace(z, np.empty_like(z)), want)
    assert np.array_equal(z, want)


U64 = st.integers(min_value=0, max_value=MASK64)


@given(st.lists(U64, max_size=6), st.lists(U64, max_size=6))
def test_stream_values_np_matches_scalar(states, ks):
    # both ends of the range are always drawn; numpy flags uint64 wraparound
    # only on scalar paths, and the suite makes such a warning an error
    states, ks = states + [0, MASK64], [MASK64] + ks + [0]
    sv, kv = np.array(states, dtype=np.uint64), np.array(ks, dtype=np.uint64)
    want = [[stream_value(s, k) for k in ks] for s in states]
    got = stream_values_np(sv[:, None], kv)                     # column x row
    assert got.dtype == np.uint64 and got.tolist() == want
    for i, s in enumerate(states):                              # scalar x vector
        assert stream_values_np(s, kv).tolist() == want[i]
        assert stream_values_np(np.uint64(s), kv).tolist() == want[i]
    for j, k in enumerate(ks):                                  # vector x scalar
        assert stream_values_np(sv, k).tolist() == [row[j] for row in want]
    for i, s in enumerate(states):                              # 0-d
        for j, k in enumerate(ks):
            for a, b in ((s, k), (np.uint64(s), np.uint64(k)),
                         (np.array(s, dtype=np.uint64), np.array(k, dtype=np.uint64))):
                one = stream_values_np(a, b)
                assert one.shape == () and int(one) == want[i][j]
        # the last outputs before index 2**64, whose step wraps to 0
        assert stream_block_np(s, MASK64 - 2, 3).tolist() == [
            stream_value(s, k) for k in range(MASK64 - 2, MASK64 + 1)]
        assert stream_block_np(s, 0, 3).tolist() == [stream_value(s, k) for k in range(3)]


@given(U64)
def test_stream_steps_are_output_offsets(k):
    step = stream_steps(k)
    assert isinstance(step, np.uint64) and int(step) == (k + 1) * GAMMA & MASK64
    assert stream_steps(np.array([k, 0], dtype=np.uint64)).tolist() == [int(step), GAMMA]
    assert int(scramble_np(np.add(np.uint64(12345), step))) == stream_value(12345, k)


@pytest.mark.parametrize("state", [-5, (1 << 64) + 3])
def test_stream_block_np_takes_the_state_mod_2_64(state):
    want = [stream_value(state, k) for k in range(7, 11)]
    assert stream_block_np(state, 7, 4).tolist() == want


@given(U64, st.integers(min_value=1, max_value=1 << 64))
def test_bounded_in_range(u, n):
    assert 0 <= bounded(u, n) < n


@given(st.integers(min_value=0, max_value=MASK64))
def test_bounded_is_multiply_high(u):
    # below 2**32 the draw keeps its 32-bit fixed-point form; from 2**32 on it
    # uses all 64 bits of u, so every value in [0, n) can be drawn
    for n in (1, 7, (1 << 32) - 1):
        assert bounded(u, n) == ((u >> 32) * n) >> 32
    for n in (1 << 32, (1 << 40) + 3, 1 << 64):
        assert bounded(u, n) == (u * n) >> 64
    assert bounded(MASK64, 1 << 64) == MASK64


@given(U64, st.lists(U64, max_size=8))
def test_absorb_is_a_stream_value_chain(h, words):
    for state in (h, 0, MASK64):
        for ws in (words, words + [0, MASK64], []):
            want = state
            for word in ws:
                want = stream_value(want ^ word, 0)
            assert absorb(state, ws) == absorb(state, tuple(ws)) == want


@given(U64, st.integers(min_value=0, max_value=40))
def test_stream_words_are_the_first_outputs(state, count):
    for s in (state, 0, MASK64):
        assert stream_words(s, count) == [stream_value(s, t) for t in range(count)]
        assert stream_words(s, 0) == []


def test_stream_bits_msb_first():
    word = stream_value(42, 0)
    got = stream_bits(42, 16)
    assert got == word >> 48
    # 64-bit boundary: bits 64.. come from the next output
    got = stream_bits(42, 65)
    assert got == (word << 1) | (stream_value(42, 1) >> 63)


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 128, 1000, 1024, 1025, 4097])
def test_stream_bits_per_word_rule(count):
    state = 0x0123_4567_89AB_CDEF
    got = stream_bits(state, count)
    assert 0 <= got < (1 << count)
    for j in range(count):
        want = (stream_value(state, j // 64) >> (63 - j % 64)) & 1
        assert (got >> (count - 1 - j)) & 1 == want


def test_substream_decorrelates():
    a = [stream_value(substream(7, 1), k) & 1 for k in range(64)]
    b = [stream_value(substream(7, 2), k) & 1 for k in range(64)]
    assert a != b


@given(st.integers(min_value=0, max_value=MASK64),
       st.integers(min_value=1, max_value=40))
def test_partial_shuffle_is_subset_without_replacement(state, take):
    n = 40
    out = partial_shuffle_batch(np.array([state], dtype=np.uint64), n, take)[0]
    assert len(out) == take
    assert len(set(out.tolist())) == take
    assert all(0 <= v < n for v in out.tolist())


def test_partial_shuffle_batch_matches_scalar():
    states = np.array([0, 1, 0xFFFF_FFFF_FFFF_FFFF], dtype=np.uint64)
    batch = partial_shuffle_batch(states, 17, 9)
    assert batch.dtype == np.uint64
    for i, s in enumerate([0, 1, MASK64]):
        assert batch[i].tolist() == partial_shuffle_oracle(s, 17, 9)


SHUFFLE_TAKE = 24


@given(st.sampled_from([SHUFFLE_TAKE, (1 << 32) - 1, 1 << 32, (1 << 32) + 5, 1 << 40,
                        1 << 64]),
       st.lists(st.integers(min_value=0, max_value=MASK64), min_size=1, max_size=64),
       st.integers(min_value=0, max_value=SHUFFLE_TAKE))
def test_partial_shuffle_batch_matches_oracle(n, states, take):
    batch = partial_shuffle_batch(np.array(states, dtype=np.uint64), n, take)
    assert batch.shape == (len(states), take)
    for row, s in zip(batch, states):
        assert row.tolist() == partial_shuffle_oracle(s, n, take)


@pytest.mark.parametrize("n", [5, 64])
def test_partial_shuffle_batch_full_permutation(n):
    # take = n shuffles the whole range, with repeated draws of a position
    states = np.arange(32, dtype=np.uint64)
    batch = partial_shuffle_batch(states, n, n)
    for row, s in zip(batch, states.tolist()):
        assert sorted(row.tolist()) == list(range(n))
        assert row.tolist() == partial_shuffle_oracle(s, n, n)


def test_partial_shuffle_batch_refuses():
    states = np.zeros(2, dtype=np.uint64)
    with pytest.raises(TooLarge):
        partial_shuffle_batch(states, (1 << 64) + 1, 1)
    with pytest.raises(ValueError):
        partial_shuffle_batch(states, 3, 4)
