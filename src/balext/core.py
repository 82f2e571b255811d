"""Domain types and exact parameter derivation for the extractors.

Everything here is pure and exact: rates are ``fractions.Fraction``,
lengths and exponents are ints, and log means log2 throughout.  Rounding
policy: sizes that must not exceed their real-valued target are floored
(output lengths m), thresholds that must not fall below it are ceiled
(s and d exponents, log terms), which keeps every derived parameterization
on the conservative side of the real-valued one.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence


class InvalidParams(ValueError):
    """A parameter derivation or precondition failed."""


class TooLarge(ValueError):
    """A construction exceeds its configured resource cap."""


class NotFound(LookupError):
    """Exhaustive search finished without finding a qualifying object."""


class OutOfRange(IndexError):
    """A row/column/position index is outside its domain."""


def ceil_log2(n: int) -> int:
    """Smallest k with 2**k >= n, for n >= 1."""
    if n < 1:
        raise InvalidParams(f"ceil_log2 needs n >= 1, got {n}")
    return (n - 1).bit_length()


def seed64(seed: int, name: str = "seed") -> int:
    """``seed`` if it lies in [0, 2^64); any other value is refused, not
    reduced mod 2^64."""
    if not 0 <= seed < 1 << 64:
        raise InvalidParams(f"{name} must lie in [0, 2^64), got {seed}")
    return seed


def round_half_up(x: Fraction) -> int:
    """Exact round-half-up of a rational (0.5 rounds to 1)."""
    return math.floor(x + Fraction(1, 2))


# ---------------------------------------------------------------------------
# Bit strings
# ---------------------------------------------------------------------------

# maps the ASCII digits "0"/"1" to the byte values 0/1
_DIGIT_TO_BIT = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class BitString:
    """An immutable finite bit string, stored as (value, length).

    ``value`` is the integer read off the bits most-significant-first, so a
    BitString doubles as the row/column index of a table whose side is
    2**length.  The same MSB-first convention governs byte packing and the
    prefix semantics used by the prefix-balance verifier.
    """

    value: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise InvalidParams("negative length")
        if not 0 <= self.value < (1 << self.length):
            raise InvalidParams("value does not fit in length bits")

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        return cls(0, length)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        digits = bytearray()
        for b in bits:
            if b not in (0, 1):
                raise InvalidParams(f"bit must be 0 or 1, got {b!r}")
            digits.append(48 + b)   # ASCII "0" or "1"
        return cls(int(digits, 2) if digits else 0, len(digits))

    @classmethod
    def from01(cls, text: str) -> "BitString":
        return cls.from_bits(int(c) for c in text)

    @classmethod
    def from_bytes(cls, data: bytes, bits: int | None = None) -> "BitString":
        """Unpack bytes MSB-first, optionally truncating to ``bits``."""
        total = 8 * len(data)
        if bits is None:
            bits = total
        if bits > total:
            raise InvalidParams(f"asked for {bits} bits, data has {total}")
        value = int.from_bytes(data, "big") >> (total - bits) if data else 0
        return cls(value, bits)

    def to_bytes(self) -> bytes:
        """Pack MSB-first; the final byte is zero-padded on the right."""
        nbytes = (self.length + 7) // 8
        return (self.value << (8 * nbytes - self.length)).to_bytes(nbytes, "big")

    def to01(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    def bit(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise OutOfRange(f"bit index {i} out of range [0, {self.length})")
        return (self.value >> (self.length - 1 - i)) & 1

    def concat(self, other: "BitString") -> "BitString":
        return BitString((self.value << other.length) | other.value,
                         self.length + other.length)

    def prefix(self, k: int) -> "BitString":
        if not 0 <= k <= self.length:
            raise OutOfRange(f"prefix length {k} out of range")
        return BitString(self.value >> (self.length - k), k)

    def substring(self, start: int, end: int) -> "BitString":
        """Bits [start, end), counted from the most significant end."""
        if not 0 <= start <= end <= self.length:
            raise OutOfRange(f"substring [{start}, {end}) out of range")
        width = end - start
        return BitString((self.value >> (self.length - end)) & ((1 << width) - 1), width)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        return self.bit(i)

    def __iter__(self):
        return iter(self.to01().encode().translate(_DIGIT_TO_BIT))


# ---------------------------------------------------------------------------
# Table shape parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableParams:
    """Exponents of the table sizes: N=2**n_exp rows/cols, M=2**m_exp colors,
    S=2**s_exp the rectangle side, D=2**d_exp the color-set divisor.  The
    balance definition quantifies over color sets A of size |A| = M/D."""

    n_exp: int
    m_exp: int
    s_exp: int
    d_exp: int

    def __post_init__(self) -> None:
        if self.n_exp < 1 or self.m_exp < 1:
            raise InvalidParams("n_exp and m_exp must be >= 1")
        if not 0 <= self.s_exp <= self.n_exp:
            raise InvalidParams("need 0 <= s_exp <= n_exp")
        if not 0 <= self.d_exp <= self.m_exp:
            raise InvalidParams("need 0 <= d_exp <= m_exp")

    @property
    def n_side(self) -> int:
        return 1 << self.n_exp

    @property
    def m_colors(self) -> int:
        return 1 << self.m_exp

    @property
    def s_side(self) -> int:
        return 1 << self.s_exp

    @property
    def d_divisor(self) -> int:
        return 1 << self.d_exp


# ---------------------------------------------------------------------------
# String-extractor parameters
# ---------------------------------------------------------------------------


def derive_string_params(n: int, sigma: Fraction, alpha: Fraction) -> TableParams:
    """The table shape of the unconditional extractor at input length n.

    m_exp = floor(2*sigma*n) - ceil(log2 n),
    s_exp = ceil(sigma*n),
    d_exp = min(ceil(alpha*n) + 8*ceil(log2 n), m_exp).

    Refuses n < 2, rates outside 0 <= alpha <= sigma <= 1 with sigma > 0,
    m_exp < 1 and s_exp > n.  The complexity guarantee needs the paper's
    hypothesis 0 < alpha < sigma, which the caller owns, and
    ceil(alpha*n) + 8*ceil(log2 n) < m_exp.  So a returned d_exp = m_exp
    marks a shape that carries no guarantee: n is too small for the rates.
    Extraction through its table still works mechanically, with no quality
    claim attached.
    """
    sigma = Fraction(sigma)
    alpha = Fraction(alpha)
    if n < 2:
        raise InvalidParams(f"n must be >= 2, got {n}")
    if not (0 <= alpha <= sigma <= 1) or sigma == 0:
        raise InvalidParams("need 0 <= alpha <= sigma <= 1 with sigma > 0")
    log_n = ceil_log2(n)
    m_exp = math.floor(2 * sigma * n) - log_n
    s_exp = math.ceil(sigma * n)
    d_exp = math.ceil(alpha * n) + 8 * log_n
    if m_exp < 1:
        raise InvalidParams(f"derived m_exp = {m_exp} < 1: n too small for sigma")
    if s_exp > n:
        raise InvalidParams(f"derived s_exp = {s_exp} > n = {n}")
    return TableParams(n, m_exp, s_exp, min(d_exp, m_exp))


def derive_cond_params(n: int, s_of_n: int, alpha_of_n: int) -> TableParams:
    """The table shape of the conditional extractor at input length n.

    m_exp = floor(s(n)/2) - 7*ceil(log2 n), s_exp = ceil(s(n)/2), D = M.
    Requires 6*ceil(log2 n) < s(n) <= n and alpha(n) >= 0.  alpha(n) does
    not shape the table: the conditional-complexity guarantee subtracts the
    slack alpha(n) + 11*ceil(log2 n) from m, and is never enforced.
    """
    if n < 2:
        raise InvalidParams(f"n must be >= 2, got {n}")
    log_n = ceil_log2(n)
    if not 6 * log_n < s_of_n <= n:
        raise InvalidParams(
            f"need 6*ceil(log2 n) = {6 * log_n} < s_of_n <= n, got s_of_n = {s_of_n}"
        )
    if alpha_of_n < 0:
        raise InvalidParams("alpha_of_n must be >= 0")
    m_exp = s_of_n // 2 - 7 * log_n
    if m_exp < 1:
        raise InvalidParams(f"derived m_exp = {m_exp} < 1: s_of_n too small")
    return TableParams(n, m_exp, (s_of_n + 1) // 2, m_exp)


# ---------------------------------------------------------------------------
# Block schedule for the sequence transformer
# ---------------------------------------------------------------------------

RATE_NUM = Fraction(97, 100)   # output-length rate factor applied to tau
SIDE_NUM = Fraction(98, 100)   # rectangle-side rate factor applied to tau


@dataclass(frozen=True)
class BlockSpec:
    """Per-block parameters: block i covers n_bits input bits from each
    stream and, when valid, emits m_bits output bits via a 2**n_bits-sided
    table with 2**m_bits colors (D = M)."""

    index: int
    n_bits: int
    m_bits: int
    s_exp: int

    @property
    def valid(self) -> bool:
        return self.m_bits >= 1

    def table_params(self) -> TableParams:
        if not self.valid:
            raise InvalidParams(f"block {self.index} emits nothing (m_bits < 1)")
        return TableParams(self.n_bits, self.m_bits, self.s_exp, self.m_bits)


@dataclass(frozen=True)
class SeqSchedule:
    """Geometric block schedule for the stream transformer, with its offsets.

    Blocks are numbered from 1 with n_i = B**i.  Blocks whose derived
    output length rounds to zero are kept but flagged invalid; the first
    valid block is where output begins.  ``alpha`` is the dependency rate
    up to which the target randomness rate 1 - delta is claimed; when
    delta >= 1 that target is vacuous, and the schedule is still built.

    The offsets follow from ``blocks``: ``input_ends[i-1]`` is the input
    bits each stream holds through block i, and ``output_starts[i-1]`` the
    sum of m_bits, which is 0 for an invalid block, over the blocks before i.
    """

    tau: Fraction
    delta: Fraction
    block_base: int
    epsilon: Fraction
    alpha: Fraction
    blocks: tuple[BlockSpec, ...] = field(repr=False)
    input_ends: tuple[int, ...] = field(init=False, repr=False, compare=False)
    output_starts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        emitted = [b.m_bits for b in self.blocks[:-1]]
        object.__setattr__(self, "input_ends",
                           tuple(accumulate(b.n_bits for b in self.blocks)))
        object.__setattr__(self, "output_starts", tuple(accumulate(emitted, initial=0)))

    @property
    def first_emitting_block(self) -> int | None:
        for b in self.blocks:
            if b.valid:
                return b.index
        return None

    @property
    def total_output_bits(self) -> int:
        return self.output_starts[-1] + self.blocks[-1].m_bits

    def block(self, i: int) -> BlockSpec:
        if not 1 <= i <= len(self.blocks):
            raise OutOfRange(f"block index {i} outside 1..{len(self.blocks)}")
        return self.blocks[i - 1]

    def input_range(self, i: int) -> tuple[int, int]:
        n_bits = self.block(i).n_bits
        end = self.input_ends[i - 1]
        return end - n_bits, end

    def output_range(self, i: int) -> tuple[int, int]:
        b = self.block(i)
        if not b.valid:
            raise InvalidParams(f"block {i} emits no output")
        start = self.output_starts[i - 1]
        return start, start + b.m_bits

    def block_of_output(self, pos: int) -> int:
        if pos < 0 or pos >= self.total_output_bits:
            raise OutOfRange(
                f"output position {pos} outside the schedule "
                f"(covers {self.total_output_bits} bits)"
            )
        # m_i never falls as n_i grows, so the blocks that emit nothing all
        # come first and share start 0 with the first block that emits
        return bisect.bisect_right(self.output_starts, pos)


def derive_seq_schedule(
    tau: Fraction,
    delta: Fraction,
    block_base: int,
    max_block: int,
) -> SeqSchedule:
    """Build the schedule: epsilon = delta/4, alpha = (1/3)*eps^2*(0.97 tau)/B,
    n_i = B**i, m_i = floor(0.97 tau n_i), s_i = ceil(0.98 tau n_i), D_i = M_i.
    """
    tau = Fraction(tau)
    delta = Fraction(delta)
    if not 0 < tau <= 1:
        raise InvalidParams("need 0 < tau <= 1")
    if delta <= 0:
        raise InvalidParams("need delta > 0")
    if block_base < 2:
        raise InvalidParams("need block base B >= 2")
    if max_block < 1:
        raise InvalidParams("need max_block >= 1")
    eps = delta / 4
    alpha = Fraction(1, 3) * eps * eps * (RATE_NUM * tau) * Fraction(1, block_base)
    # floor(r * tau * n) and ceil(r * tau * n) over the integer ratio
    # r * tau = num / den, one integer division per block
    m_num, m_den = (RATE_NUM * tau).as_integer_ratio()
    s_num, s_den = (SIDE_NUM * tau).as_integer_ratio()
    blocks = []
    n_i = 1
    for i in range(1, max_block + 1):
        n_i *= block_base
        m_i = m_num * n_i // m_den
        s_i = -(-s_num * n_i // s_den)
        blocks.append(BlockSpec(index=i, n_bits=n_i, m_bits=m_i, s_exp=s_i))
    return SeqSchedule(
        tau=tau, delta=delta, block_base=block_base,
        epsilon=eps, alpha=alpha, blocks=tuple(blocks),
    )


def parse_fraction(text: str) -> Fraction:
    """Parse 'P/Q' or a plain integer string into an exact Fraction.

    Anything else, a zero denominator included, raises InvalidParams."""
    num, slash, den = text.strip().partition("/")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError) as e:
        raise InvalidParams(f"not a fraction P/Q: {text!r}") from e
