"""Color-table construction backends, existence check, and serialization.

Three backends produce a table T : [N] x [N] -> [M]:

* explicit-random: cells drawn from seeded SplitMix64 streams, one stream
  per row.  Row r's stream is ``substream(seed, r)``; the color of cell
  (r, c) is the low m_exp bits of that stream's c-th output.  Bit-exact
  across platforms and runs.  The rule for every random table: held at
  <= 2^20 cells, formula beyond.  A held table's cells are the formula's
  grid over every row and column, filled on the calling thread.  A
  formula stores no cells: its lookups and rectangle grids compute cells
  from (seed, row, col) with the stream helpers of :mod:`balext.mixing`,
  which does all of the stream arithmetic, and its digest, file and bytes
  stream from one fill loop, in row stripes of at most
  ``_FILL_CHUNK`` cells: worker k of W (one per usable CPU, up to 2)
  fills stripes k, k + W, ... and hands each to the sink in turn, so the
  sink sees the rows in order whatever W is, and no full cell array is
  ever held.
* explicit-canonical: exhaustive search, in lexicographic order of the
  row-major color sequence, for the first table passing exhaustive
  (S, D)-balance verification.  Only feasible at micro scale.
* keyed: an implicit table whose colors are computed on demand by a fixed
  128-bit-keyed mixing function (see :func:`keyed_color`).  A stand-in for
  tables too large to materialize; no balance guarantee, only sampled
  verification applies.

Random and canonical tables are explicit, whether or not they hold their
cells; keyed tables are not.

The binary file format (little-endian) is:

    magic "BTAB" | version u16 | backend u8 | n_exp u8 | m_exp u8 |
    s_exp u8 | d_exp u8 | seed/key 16 bytes zero-padded |
    row-major cells at 8 or 16 bits per cell (explicit backends only)

Cells use 1 byte when m_exp <= 8, else 2 bytes (:func:`cell_dtype`).
Readers reject unknown versions and backend tags, and files shorter than
the 27-byte header.  Exponents beyond 255 cannot be serialized, and no file
is created for them.  File I/O holds the cells at most once: writing sends
the cell buffer, or a formula table's stripes, after the header, and
reading checks the payload size against the file's size and reads the
payload straight into the cell array.  A table read from a file holds its
cells, since a file need not match its seed's formula.

A table's digest is the SHA-256 of its file bytes; writing a table also
records its digest, so ``gen-table`` fills a formula table once.  A table
with an exponent beyond 255 (a keyed table for 256-bit inputs, say) has no
file, so its digest hashes the wide header instead, which no file carries:

    magic "BTBW" | version u16 | backend u8 | n_exp u32 | m_exp u32 |
    s_exp u32 | d_exp u32 | seed/key 16 bytes zero-padded | cells as above
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import stat
import struct
import threading
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import InvalidParams, NotFound, OutOfRange, TableParams, TooLarge, seed64
from .mixing import (
    MASK64,
    absorb,
    scramble,
    scramble_inplace,
    stream_steps,
    stream_value,
    stream_values_np,
    stream_words,
)

MAGIC = b"BTAB"
WIDE_MAGIC = b"BTBW"         # digest-only header for exponents beyond 255
FORMAT_VERSION = 1
HEADER_BYTES = 27
# (magic, struct layout of version, backend and the four exponents, exponent limit)
_FILE_HEADER = (MAGIC, "<HBBBBB", 0xFF)
_WIDE_HEADER = (WIDE_MAGIC, "<HBIIII", 0xFFFFFFFF)

BACKEND_RANDOM = 0
BACKEND_CANONICAL = 1
BACKEND_KEYED = 2
_BACKEND_NAMES = {BACKEND_RANDOM: "random",
                  BACKEND_CANONICAL: "canonical",
                  BACKEND_KEYED: "keyed"}

EXPLICIT_N_EXP_CAP = 12      # at most 2**24 explicit cells
EXPLICIT_M_EXP_CAP = 16      # colors must fit the 1/2-byte cell storage
MICRO_DESCRIPTION_CAP = 24   # canonical search cap on N*N*m_exp bits
_CONDITION_EXP_CAP = 0xFFFF   # existence check: 2**cap is an 8 KB integer
_FILL_CHUNK = 1 << 16        # cells per fill stripe: its two uint64 buffers stay in cache
_SERIAL_FILL_CELLS = 1 << 20  # random tables up to this size hold their cells, filled
                              # on the calling thread alone; larger ones are formulas
_FILL_MAX_WORKERS = 2         # each worker holds two _FILL_CHUNK uint64 buffers (1 MB);
                              # more workers have been timed only on 2 CPUs
try:                          # fill threads: the CPUs this process may run on
    _FILL_WORKERS = min(_FILL_MAX_WORKERS, len(os.sched_getaffinity(0)))
except AttributeError:        # no affinity call on this platform
    _FILL_WORKERS = min(_FILL_MAX_WORKERS, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Existence condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExistenceCheck:
    """Outcome of the balanced-table existence inequality

        S^2 > 3M + 3M ln D + 6SD + 6SD ln(N/S).

    ``lhs`` is exact; the right-hand side is irrational whenever a log term
    survives, so it is bracketed by exact rationals tight enough that the
    comparison is provably on the correct side (and the midpoint is within
    1e-9 relative of the true value).
    """

    holds: bool
    lhs: int
    rhs_lower: Fraction
    rhs_upper: Fraction

    @property
    def rhs(self) -> Fraction:
        return (self.rhs_lower + self.rhs_upper) / 2


def _ln2_bounds(terms: int) -> tuple[Fraction, Fraction]:
    # ln 2 = 2 atanh(1/3) = 2 * sum_{k>=0} 3^-(2k+1) / (2k+1); the tail after
    # `terms` terms is below (9/4) * 3^-(2*terms+1) / (2*terms+1).
    s = Fraction(0)
    for k in range(terms):
        s += Fraction(1, (2 * k + 1) * 3 ** (2 * k + 1))
    lo = 2 * s
    tail = Fraction(9, 4 * (2 * terms + 1) * 3 ** (2 * terms + 1))
    return lo, lo + tail


def existence_condition_exponents(
    n_exp: int, m_exp: int, s_exp: int, d_exp: int
) -> ExistenceCheck:
    """Check the existence inequality for N=2^n, M=2^m, S=2^s, D=2^d.

    Accepts m_exp = 0 (a single color), unlike :class:`TableParams`, since
    the inequality itself is defined for any positive sizes.  Exponents
    above 65535 raise TooLarge rather than build their powers of two.
    """
    if n_exp < 0 or m_exp < 0 or not 0 <= s_exp <= n_exp or not 0 <= d_exp <= m_exp:
        raise InvalidParams("need 0 <= s_exp <= n_exp and 0 <= d_exp <= m_exp")
    if max(n_exp, m_exp) > _CONDITION_EXP_CAP:
        raise TooLarge(f"exponents above {_CONDITION_EXP_CAP} are not evaluated")
    big_s = 1 << s_exp
    big_m = 1 << m_exp
    big_d = 1 << d_exp
    lhs = big_s * big_s
    # rhs = A + B ln 2 with A, B exact integers
    coeff_a = 3 * big_m + 6 * big_s * big_d
    coeff_b = 3 * big_m * d_exp + 6 * big_s * big_d * (n_exp - s_exp)
    if coeff_b == 0:
        rhs = Fraction(coeff_a)
        return ExistenceCheck(lhs > rhs, lhs, rhs, rhs)
    terms = 16
    while True:
        lo2, hi2 = _ln2_bounds(terms)
        rhs_lo = coeff_a + coeff_b * lo2
        rhs_hi = coeff_a + coeff_b * hi2
        decided = lhs > rhs_hi or lhs <= rhs_lo
        tight = (rhs_hi - rhs_lo) * 10**12 <= rhs_lo
        if decided and tight:
            return ExistenceCheck(lhs > rhs_hi, lhs, rhs_lo, rhs_hi)
        terms *= 2


# ---------------------------------------------------------------------------
# The keyed mixing function
# ---------------------------------------------------------------------------


def _words(value: int, count: int) -> tuple[int, ...]:
    """The ``count`` little-endian 64-bit words of a value below 2^(64 count)."""
    return struct.unpack(f"<{count}Q", value.to_bytes(8 * count, "little"))


def keyed_color(key: int, n_exp: int, m_exp: int, row: int, col: int) -> int:
    """Color of cell (row, col) under the fixed keyed mixing function.

    The 128-bit key splits into k0 (low) and k1 (high 64 bits).  A 64-bit
    state absorbs, in order: k0, n_exp, m_exp, the row's little-endian
    64-bit words (ceil(n_exp/64) of them), k1, then the column's words;
    each absorption is ``stream_value(h ^ word, 0)``.  The color is the
    low m_exp bits of the state's output stream (64-bit outputs
    ``stream_value(h, t)`` concatenated low-word-first).

    The cost is linear in n_exp + m_exp, one loop step per word: the row
    and column are split into words once, and the output words are joined
    once.
    """
    words = (n_exp + 63) // 64
    h = absorb(_keyed_state_through_key(key, n_exp, m_exp),
               _words(row, words) + (key >> 64,) + _words(col, words))
    out = stream_words(h, (m_exp + 63) // 64)
    return int.from_bytes(struct.pack(f"<{len(out)}Q", *out), "little") & ((1 << m_exp) - 1)


def _keyed_state_through_key(key: int, n_exp: int, m_exp: int) -> int:
    return absorb(0, (key & MASK64, n_exp, m_exp))


def keyed_colors_grid(
    key: int, n_exp: int, m_exp: int, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`keyed_color` over a rows x cols grid, as uint64.

    Only for n_exp <= 64 and m_exp <= 64 (single-word absorb and output).
    The grid's two scrambles run in place in the result, with one
    temporary of its size, each adding output 0's scalar step.
    """
    if n_exp > 64 or m_exp > 64:
        raise TooLarge("vectorized keyed lookup needs n_exp, m_exp <= 64")
    h0 = np.uint64(_keyed_state_through_key(key, n_exp, m_exp))
    hr = stream_values_np(h0 ^ rows.astype(np.uint64), 0)
    hr = stream_values_np(hr ^ np.uint64(key >> 64), 0)
    grid = np.bitwise_xor(hr[:, None], cols.astype(np.uint64))
    tmp = np.empty_like(grid)
    step = stream_steps(0)
    for _ in range(2):         # absorb the column, then stream_value(h, 0)
        grid += step
        scramble_inplace(grid, tmp)
    if m_exp < 64:
        grid &= np.uint64((1 << m_exp) - 1)
    return grid


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def cell_dtype(m_exp: int) -> np.dtype:
    """The cells' type in memory and in files: uint8, else little-endian uint16."""
    return np.dtype(np.uint8) if m_exp <= 8 else np.dtype("<u2")


@dataclass(frozen=True, eq=False)
class BalancedTable:
    """An (N, M) color table with one of the three backends.

    Explicit backends store the full row-major cell array (read-only),
    except a random table of more than ``_SERIAL_FILL_CELLS`` cells, which
    computes its cells from the seed's formula; the keyed backend computes
    colors on demand.  Instances are immutable and safe to share across
    threads.
    """

    params: TableParams
    backend: int
    seed_or_key: int
    cells: np.ndarray | None
    _digest: str | None = field(default=None, init=False, repr=False)

    @property
    def backend_name(self) -> str:
        return _BACKEND_NAMES[self.backend]

    @property
    def is_explicit(self) -> bool:
        """Not keyed: the cells are stored, or follow a random table's formula."""
        return self.backend != BACKEND_KEYED

    def lookup(self, row: int, col: int) -> int:
        p = self.params
        if not (0 <= row < p.n_side and 0 <= col < p.n_side):
            raise OutOfRange(f"cell ({row}, {col}) outside [{p.n_side}]^2")
        if self.cells is not None:
            return int(self.cells[row, col])
        if self.is_explicit:
            return stream_value(stream_value(self.seed_or_key, row), col) & (p.m_colors - 1)
        return keyed_color(self.seed_or_key, p.n_exp, p.m_exp, row, col)

    def grid(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Cells rows x cols of an explicit table, in its cell dtype:
        gathered by two ``take`` calls, or filled block by block from the
        formula with O(``_FILL_CHUNK``) scratch."""
        if self.cells is not None:
            return self.cells.take(rows, axis=0).take(cols, axis=1)
        out = np.empty((len(rows), len(cols)), dtype=cell_dtype(self.params.m_exp))
        step = min(len(rows), max(1, _FILL_CHUNK // max(1, len(cols))))
        _fill_rows(stream_values_np(self.seed_or_key, rows), stream_steps(cols), out,
                   np.empty((2, step, len(cols)), dtype=np.uint64),
                   _narrow_mask(self.params.m_exp))
        return out

    def _header(self, layout) -> bytes:
        magic, fmt, limit = layout
        p = self.params
        for name, e in (("n_exp", p.n_exp), ("m_exp", p.m_exp),
                        ("s_exp", p.s_exp), ("d_exp", p.d_exp)):
            if e > limit:
                raise InvalidParams(f"{name} = {e} exceeds file-format range ({limit})")
        header = magic + struct.pack(
            fmt, FORMAT_VERSION, self.backend, p.n_exp, p.m_exp, p.s_exp, p.d_exp
        )
        return header + self.seed_or_key.to_bytes(16, "little")

    def _send_cells(self, sink) -> None:
        """Pass an explicit table's cells to ``sink`` in file byte order:
        the cell buffer in one call, or a formula table's fill stripe by
        stripe (each stripe's buffer is reused once ``sink`` returns)."""
        p = self.params
        if self.cells is not None:
            sink(np.ascontiguousarray(self.cells, dtype=cell_dtype(p.m_exp)))
        elif self.is_explicit:
            _fill_stripes(self.seed_or_key, p.n_exp, p.m_exp, sink)

    def to_bytes(self) -> bytes:
        parts = [self._header(_FILE_HEADER)]
        self._send_cells(lambda cells: parts.append(cells.tobytes()))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BalancedTable":
        return _load(io.BytesIO(data), len(data))

    def write(self, path) -> None:
        """The header (refused before the file opens), then the cells.
        The bytes written also give the digest, so a formula table is
        filled once for both."""
        header = self._header(_FILE_HEADER)
        h = hashlib.sha256(header)
        with open(path, "wb") as fh:
            fh.write(header)

            def sink(cells):
                fh.write(cells)
                h.update(cells)

            self._send_cells(sink)
        object.__setattr__(self, "_digest", h.hexdigest())

    @classmethod
    def read(cls, path) -> "BalancedTable":
        """A table file's table, its payload read straight into the cell
        array once the header and the file's size have been checked."""
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            if not stat.S_ISREG(st.st_mode):      # a pipe has no size to check
                return cls.from_bytes(fh.read())
            return _load(fh, st.st_size)

    def digest(self) -> str:
        """SHA-256 of the file bytes, or of the wide header encoding when an
        exponent exceeds the file format's 255.  Computed once per table."""
        if self._digest is None:
            p = self.params
            wide = max(p.n_exp, p.m_exp, p.s_exp, p.d_exp) > 0xFF
            h = hashlib.sha256(self._header(_WIDE_HEADER if wide else _FILE_HEADER))
            self._send_cells(h.update)
            object.__setattr__(self, "_digest", h.hexdigest())
        return self._digest


def _parse_header(head: bytes, size: int):
    """(params, backend, seed or key, cell dtype or None when the table
    has no cells) of a table file from its first ``HEADER_BYTES`` and its
    size, refused with :class:`InvalidParams` as a malformed file."""
    if head[:4] != MAGIC:
        raise InvalidParams("not a table file (bad magic)")
    if size < HEADER_BYTES:
        raise InvalidParams(f"truncated table file: {size} bytes, header needs {HEADER_BYTES}")
    version, backend, n_exp, m_exp, s_exp, d_exp = struct.unpack("<HBBBBB", head[4:11])
    if version != FORMAT_VERSION:
        raise InvalidParams(f"unsupported table format version {version}")
    if backend not in _BACKEND_NAMES:
        raise InvalidParams(f"unknown backend tag {backend}")
    seed_or_key = int.from_bytes(head[11:27], "little")
    params = TableParams(n_exp, m_exp, s_exp, d_exp)
    payload = size - HEADER_BYTES
    if backend == BACKEND_KEYED:
        if payload:
            raise InvalidParams("keyed table file carries unexpected cell data")
        return params, backend, seed_or_key, None
    dt = cell_dtype(m_exp)
    if payload != params.n_side * params.n_side * dt.itemsize:
        raise InvalidParams("cell payload size does not match header")
    return params, backend, seed_or_key, dt


def _load(fh, size: int) -> BalancedTable:
    """The table in a table file of ``size`` bytes open at its start: the
    header checked against the size, the payload read straight into the
    cell array, and the colors range-checked before the cells freeze."""
    params, backend, seed_or_key, dt = _parse_header(fh.read(HEADER_BYTES), size)
    cells = None
    if dt is not None:
        cells = np.empty((params.n_side, params.n_side), dtype=dt)
        if fh.readinto(cells) != cells.nbytes or fh.read(1):
            raise InvalidParams("cell payload size does not match header")
        if int(cells.max(initial=0)) >= params.m_colors:
            raise InvalidParams("cell payload contains out-of-range colors")
        cells.setflags(write=False)
    return BalancedTable(params, backend, seed_or_key, cells)


# ---------------------------------------------------------------------------
# The random table's fill
# ---------------------------------------------------------------------------


def _narrow_mask(m_exp: int):
    """The color mask in the cell dtype, or None when the cells are no wider."""
    dtype = cell_dtype(m_exp)
    return dtype.type((1 << m_exp) - 1) if m_exp < 8 * dtype.itemsize else None


def _fill_rows(row_states: np.ndarray, col_steps: np.ndarray, out: np.ndarray,
               scratch: np.ndarray, mask) -> None:
    """out[i, j] = scramble(row_states[i] + col_steps[j]), cut to out's
    dtype and masked, in blocks of rows that fit the (2, rows, columns)
    uint64 ``scratch``.  Row r's state is output r of the table's seed
    (:func:`stream_values_np`), and column c's step is what output c adds
    to it (:func:`stream_steps`), so cell (r, c) is output c of row r's
    stream.

    The fill runs in place: each block's SplitMix steps reuse the two
    scratch buffers, and the last xor writes straight into ``out``,
    keeping the low 8 or 16 bits; the mask then runs on the narrow cells,
    and only when m_exp is below their width.  numpy's ufuncs release the
    GIL, so fill workers run side by side.
    """
    z_buf, tmp_buf = scratch
    step = z_buf.shape[0]
    for r0 in range(0, len(row_states), step):
        r1 = min(len(row_states), r0 + step)
        z = np.add(row_states[r0:r1, None], col_steps, out=z_buf[:r1 - r0])
        cells = scramble_inplace(z, tmp_buf[:r1 - r0], out=out[r0:r1])
        if mask is not None:
            cells &= mask


def _fill_stripes(seed: int, n_exp: int, m_exp: int, sink) -> None:
    """Pass random table (seed, n_exp, m_exp)'s cells to ``sink`` in row
    stripes of at most ``_FILL_CHUNK`` cells, top to bottom.

    ``_FILL_WORKERS`` threads fill the stripes: worker k fills stripes k,
    k + W, ... into its own stripe buffer, and passes stripe i to ``sink``
    only after stripe i - 1's call has returned, so a sink that hashes or
    writes runs on the workers in turn while the others fill.  Every cell
    depends only on (seed, row, col), so the stripes do not depend on W.
    If a worker raises, the sink included, every worker stops at its next
    turn and the error reaches the caller.  Buffers are allocated here, on
    the calling thread, so that they do not stay resident in per-thread
    arenas.
    """
    n_side = 1 << n_exp
    rows = min(n_side, max(1, _FILL_CHUNK // n_side))
    stripes = range(0, n_side, rows)
    workers = _FILL_WORKERS
    row_states = stream_values_np(seed, np.arange(n_side, dtype=np.uint64))
    col_steps = stream_steps(np.arange(n_side, dtype=np.uint64))
    mask = _narrow_mask(m_exp)
    buffers = [(np.empty((2, rows, n_side), dtype=np.uint64),
                np.empty((rows, n_side), dtype=cell_dtype(m_exp)))
               for _ in range(workers)]
    turn = threading.Condition()
    sent, failed = 0, False

    def fill(k: int) -> None:
        nonlocal sent, failed
        scratch, cells = buffers[k]
        try:
            for i in range(k, len(stripes), workers):
                r0 = stripes[i]
                r1 = min(n_side, r0 + rows)
                stripe = cells[:r1 - r0]
                _fill_rows(row_states[r0:r1], col_steps, stripe, scratch, mask)
                with turn:
                    turn.wait_for(lambda: sent == i or failed)
                    if failed:
                        return
                sink(stripe)
                with turn:
                    sent += 1
                    turn.notify_all()
        except BaseException:
            with turn:
                failed = True
                turn.notify_all()
            raise

    if workers == 1:
        fill(0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(workers)))


def random_table(params: TableParams, seed: int) -> BalancedTable:
    """Explicit table with independently uniform seeded-pseudorandom colors:
    its cells are the formula's :meth:`BalancedTable.grid` over every row
    and column, held when there are at most ``_SERIAL_FILL_CELLS`` of them;
    a larger table stays the formula, built in O(1)."""
    if params.n_exp > EXPLICIT_N_EXP_CAP:
        raise TooLarge(f"n_exp = {params.n_exp} exceeds the explicit-backend cap "
                       f"{EXPLICIT_N_EXP_CAP}")
    if params.m_exp > EXPLICIT_M_EXP_CAP:
        raise TooLarge(f"m_exp = {params.m_exp} exceeds explicit color storage (16)")
    formula = BalancedTable(params, BACKEND_RANDOM, seed64(seed), None)
    if params.n_side ** 2 > _SERIAL_FILL_CELLS:
        return formula
    side = np.arange(params.n_side)
    cells = formula.grid(side, side)
    cells.setflags(write=False)
    return BalancedTable(params, BACKEND_RANDOM, formula.seed_or_key, cells)


def keyed_table(params: TableParams, key: int) -> BalancedTable:
    """Implicit table backed by the fixed keyed mixing function."""
    if not 0 <= key < (1 << 128):
        raise InvalidParams("key must be a 128-bit value")
    return BalancedTable(params, BACKEND_KEYED, key, None)


def canonical_table(params: TableParams) -> BalancedTable:
    """First table, in lexicographic row-major color order, passing the
    exhaustive (S, D)-balance check at its own (s_exp, d_exp).  Searches
    only descriptions of at most ``MICRO_DESCRIPTION_CAP`` bits.
    """
    from .verify import balance_holds

    n_side = params.n_side
    ncells = n_side * n_side
    description_bits = ncells * params.m_exp
    if description_bits > MICRO_DESCRIPTION_CAP:
        raise TooLarge(
            f"table description is {description_bits} bits, "
            f"cap is {MICRO_DESCRIPTION_CAP}"
        )
    m_colors = params.m_colors
    mask = m_colors - 1
    dtype = cell_dtype(params.m_exp)
    for value in range(1 << description_bits):
        flat = [
            (value >> (params.m_exp * (ncells - 1 - i))) & mask for i in range(ncells)
        ]
        cells = np.array(flat, dtype=dtype).reshape(n_side, n_side)
        cells.setflags(write=False)
        candidate = BalancedTable(params, BACKEND_CANONICAL, 0, cells)
        if balance_holds(candidate, params.s_exp, params.d_exp):
            return candidate
    raise NotFound("no balanced table exists at these parameters")


def key_from_seed(seed: int) -> int:
    """Expand a 64-bit seed into the 128-bit key (seed, scramble(seed))."""
    return seed64(seed) | (scramble(seed) << 64)
