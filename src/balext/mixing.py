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

Bounded draws use 32-bit fixed-point scaling ``((u >> 32) * n) >> 32``,
exact enough for every n used here (n <= 2**20, bias < 2**-12 relative).
"""

from __future__ import annotations

import numpy as np

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


def bounded(u: int, n: int) -> int:
    """Map a 64-bit value to [0, n) by fixed-point scaling (n < 2**32)."""
    return ((u >> 32) * n) >> 32


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
    data = b"".join([stream_value(state, k).to_bytes(8, "big") for k in range(words)])
    return int.from_bytes(data, "big") >> (64 * words - count)


# ---------------------------------------------------------------------------
# Vectorized counterparts (numpy uint64, silent wraparound semantics).
# ---------------------------------------------------------------------------

_NP_GAMMA = np.uint64(GAMMA)
_NP_MUL1 = np.uint64(_MUL1)
_NP_MUL2 = np.uint64(_MUL2)


def scramble_np(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _NP_MUL1
    z = (z ^ (z >> np.uint64(27))) * _NP_MUL2
    return z ^ (z >> np.uint64(31))


def stream_block_np(state: int, start: int, count: int) -> np.ndarray:
    """Outputs ``start .. start+count-1`` of a stream as a uint64 array."""
    ks = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return scramble_np(np.uint64(state & MASK64) + ks * _NP_GAMMA)


def partial_shuffle_batch(states: np.ndarray, n: int, take: int) -> np.ndarray:
    """Seeded partial Fisher-Yates over [0, n), batched.

    ``states[b]`` seeds an independent stream whose outputs drive the swaps
    for batch element b; row b of the result is the first ``take`` entries
    of the shuffled range, i.e. a uniform ``take``-subset in draw order.
    """
    b = states.shape[0]
    arr = np.broadcast_to(np.arange(n, dtype=np.int64), (b, n)).copy()
    rows = np.arange(b)
    st = states.astype(np.uint64)
    for k in range(take):
        u = scramble_np(st + np.uint64(((k + 1) * GAMMA) & MASK64))
        j = k + (((u >> np.uint64(32)) * np.uint64(n - k)) >> np.uint64(32)).astype(
            np.int64
        )
        ak = arr[rows, k].copy()
        arr[rows, k] = arr[rows, j]
        arr[rows, j] = ak
    return arr[:, :take]


def partial_shuffle(state: int, n: int, take: int) -> list[int]:
    """Scalar counterpart of :func:`partial_shuffle_batch` (same outputs)."""
    arr = list(range(n))
    for k in range(take):
        u = stream_value(state, k)
        j = k + bounded(u, n - k)
        arr[k], arr[j] = arr[j], arr[k]
    return arr[:take]
