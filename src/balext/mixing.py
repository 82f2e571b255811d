"""Deterministic mixing primitives behind every seeded object in the package.

All pseudorandomness (explicit table fill, implicit keyed tables, rectangle
sampling, planted source pairs, per-block seeds) derives from SplitMix64:

    output_k = scramble(state + (k + 1) * GAMMA)   (mod 2**64)

where ``scramble`` is the SplitMix64 finalizer and ``GAMMA`` is the
golden-ratio increment 0x9E3779B97F4A7C15.  Outputs are indexed rather than
generated statefully, so any output of any stream is computable in O(1), the
scheme is platform independent, and parallel consumers can share nothing.

Stream splitting: the k-th output of a stream (``stream_value``) may itself
be used as the state of a child stream (``substream``).  Consumers document
which tags they reserve, so no two consumers ever draw from the same stream.

No other module does stream-index arithmetic.  The scalar per-word loops
are :func:`absorb` and :func:`stream_words`, the finalizer inlined.  In
numpy they draw through ``stream_values_np``, ``stream_value`` broadcast
over states and indices, or add ``stream_steps``, the (k + 1) * GAMMA of
output k, to their states before an in-place :func:`scramble_inplace`.

Bounded draws are a multiply-high, as in Lemire, *Fast random integer
generation in an interval* (arXiv:1805.10941): the draw ``bounded(u, n)``
of a 64-bit u in [0, n) is ``(u * n) >> 64`` for 2**32 <= n <= 2**64, and
``((u >> 32) * n) >> 32`` (the same with the low 32 bits of u cleared) for
n < 2**32, where it keeps the 32-bit fixed-point draws of earlier versions.
In numpy the 128-bit product is formed from 32-bit halves of u and n, each
partial product within 64 bits.
"""

from __future__ import annotations

import struct

import numpy as np

from .core import InvalidParams, TooLarge

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def scramble(z: int) -> int:
    """SplitMix64 finalizer; a bijection on 64-bit integers."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & MASK64
    return z ^ (z >> 31)


def stream_value(state: int, k: int) -> int:
    """The k-th (0-based) output of the SplitMix64 stream rooted at ``state``."""
    return scramble(state + (k + 1) * GAMMA)


def substream(state: int, tag: int) -> int:
    """State of the child stream reserved under ``tag``."""
    return stream_value(state, tag)


def absorb(h: int, words) -> int:
    """``h = stream_value(h ^ word, 0)`` for each word in turn."""
    for word in words:
        z = ((h ^ word) + GAMMA) & MASK64
        z = ((z ^ (z >> 30)) * _MUL1) & MASK64
        z = ((z ^ (z >> 27)) * _MUL2) & MASK64
        h = z ^ (z >> 31)
    return h


def stream_words(state: int, count: int) -> list[int]:
    """Outputs 0..count-1 of the stream rooted at ``state``."""
    out = []
    for _ in range(count):
        state = (state + GAMMA) & MASK64
        z = ((state ^ (state >> 30)) * _MUL1) & MASK64
        z = ((z ^ (z >> 27)) * _MUL2) & MASK64
        out.append(z ^ (z >> 31))
    return out


def stream_bits(state: int, count: int) -> int:
    """First ``count`` bits of the stream, MSB-first, packed into an int.

    Bit j of the result (counting from the MSB) is bit (63 - j%64) of
    output j//64.
    """
    if count <= 0:
        return 0
    if count <= 64:
        return stream_value(state, 0) >> (64 - count)
    words = (count + 63) // 64
    data = struct.pack(f">{words}Q", *stream_words(state, words))
    return int.from_bytes(data, "big") >> (64 * words - count)


# ---------------------------------------------------------------------------
# Vectorized counterparts (numpy uint64, silent wraparound semantics).
# ---------------------------------------------------------------------------

_NP_GAMMA = np.uint64(GAMMA)
_NP_MUL1 = np.uint64(_MUL1)
_NP_MUL2 = np.uint64(_MUL2)
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def scramble_np(z) -> np.ndarray:
    """:func:`scramble` of each entry of ``z``, as a new uint64 array."""
    z = np.array(z, dtype=np.uint64)
    return scramble_inplace(z, np.empty_like(z))


def scramble_inplace(
    z: np.ndarray, tmp: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """:func:`scramble_np` of uint64 ``z``, written into ``z``; ``tmp``, of
    the same shape, is overwritten as scratch.  With ``out``, the last step
    writes there instead (``z`` is then left holding an intermediate), cast
    to ``out``'s unsigned dtype, which keeps the low bits of each output."""
    for shift, mul in ((30, _NP_MUL1), (27, _NP_MUL2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= mul
    np.right_shift(z, np.uint64(31), out=tmp)
    if out is None:
        out = z
    return np.bitwise_xor(z, tmp, out=out, casting="unsafe")


def stream_steps(ks) -> np.ndarray:
    """(k + 1) * GAMMA mod 2**64 for each index k in [0, 2**64) of ``ks``:
    what output k of a stream adds to its state before the scramble.  A
    Python int gives a uint64 scalar, computed without numpy's slower
    scalar arithmetic."""
    if isinstance(ks, int):
        return np.uint64((ks + 1) * GAMMA & MASK64)
    return np.multiply(np.asarray(ks, np.uint64) + 1, _NP_GAMMA)


def stream_values_np(states, ks) -> np.ndarray:
    """:func:`stream_value` of ``states`` and ``ks`` in [0, 2**64),
    broadcast together, as a new uint64 array (0-d for two scalars)."""
    return scramble_np(np.add(np.asarray(states, np.uint64), stream_steps(ks)))


def stream_block_np(state: int, start: int, count: int) -> np.ndarray:
    """Outputs ``start .. start+count-1`` of a stream as a uint64 array."""
    ks = np.arange(start, start + count, dtype=np.uint64)
    return stream_values_np(state & MASK64, ks)


def _positions(u: np.ndarray, n: int) -> np.ndarray:
    """k + bounded(u[:, k], n - k) for each column k of uint64 ``u``."""
    ks = np.arange(u.shape[1], dtype=np.int64)
    low = (n & 0xFFFFFFFF) - ks                      # 32-bit halves of n - k
    borrow = low < 0
    n_hi = np.uint64(n >> 32) - borrow.astype(np.uint64)
    n_lo = (low + (borrow.astype(np.int64) << 32)).astype(np.uint64)
    u_hi = u >> _32
    u_lo = np.where(n_hi > 0, u & _LOW32, np.uint64(0))   # n - k < 2**32: top half only
    hl = u_hi * n_lo
    lh = u_lo * n_hi
    carry = ((u_lo * n_lo) >> _32) + (hl & _LOW32) + (lh & _LOW32)
    high = u_hi * n_hi + (hl >> _32) + (lh >> _32) + (carry >> _32)
    return high + ks.astype(np.uint64)


def partial_shuffle_batch(states: np.ndarray, n: int, take: int) -> np.ndarray:
    """Seeded partial Fisher-Yates over [0, n), batched, for n <= 2**64.

    ``states[b]`` seeds an independent stream whose outputs drive the swaps
    for batch element b; row b of the result is the first ``take`` entries
    of the shuffled range, i.e. a uniform ``take``-subset in draw order, as
    uint64.  Swap k exchanges positions k and j_k = k + bounded(output k,
    n - k).

    The swaps reach only positions below ``take`` and the drawn j_k, so each
    stream keeps 2 * take slots: slot p < take holds position p, and the
    stream's distinct j_k >= take hold the slots from ``take`` up, in
    ascending order.  Memory is O(b * take), whatever n.
    """
    if not 0 <= take <= n:
        raise InvalidParams(f"need 0 <= take <= n, got take={take}, n={n}")
    if n > 1 << 64:
        raise TooLarge(f"shuffle draws need n <= 2**64, got a {n.bit_length()}-bit n")
    b = states.shape[0]
    ks = np.arange(take, dtype=np.uint64)
    drawn = stream_values_np(states[:, None], ks)
    drawn = _positions(drawn, n)                        # (b, take), j_k in [k, n)
    # slot of each j_k: its rank among the stream's distinct draws, past take
    rows = np.arange(b)[:, None]
    order = np.argsort(drawn, axis=1)
    ranked = drawn[rows, order]
    fresh = np.ones(ranked.shape, dtype=np.intp)
    fresh[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    slots = np.empty_like(order)
    slots[rows, order] = take - 1 + np.cumsum(fresh, axis=1)
    np.copyto(slots, drawn, casting="unsafe", where=drawn < np.uint64(take))
    # slot-major layout: slot s of stream r sits at s * b + r
    there = (slots * b + rows).T.copy()                 # (take, b): swap k's far slots
    vals = np.empty((2 * take, b), dtype=np.uint64)
    flat = vals.ravel()
    flat[there] = drawn.T
    vals[:take] = ks[:, None]
    for k, far in enumerate(there):
        kept = vals[k].copy()
        vals[k] = flat[far]
        flat[far] = kept
    return np.ascontiguousarray(vals[:take].T)
