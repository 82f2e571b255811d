"""Block-wise transformation of two bit streams into one output stream.

Input streams split into consecutive blocks of geometrically growing
length n_i = B**i.  Block i of each stream indexes a per-block table T_i
and contributes that table's color (m_i bits) to the output; the output is
the concatenation of the valid blocks' colors.  Blocks whose output length
rounds to zero still consume their input bits.  The schedule owns the
offsets (:class:`~balext.core.SeqSchedule`): which input bits a block
reads, which output bits it emits, and which block holds an output bit.
A transformer never touches a block past the last one its output needs,
so one long schedule serves every output length.

Streams are read by prefix only: ``prefix(count)``, bits 0..count-1, is
the whole stream protocol.  Computing any output bit reads both input
streams from position 0 through the end of the containing block and
nothing else; the read set depends only on the schedule and the position,
never on stream contents (the transform is a truth-table reduction).

Per-block tables are reproducible: block i's seed is output i of the
master seed's stream.  Every block table comes from ``extract.table_for``
with that seed: blocks that fit the explicit cap get explicit random
tables (sampled-verified once per table, logging a warning on failure),
larger blocks get keyed tables.
"""

from __future__ import annotations

import weakref
from typing import Protocol

from .core import BitString, InvalidParams, OutOfRange, SeqSchedule, seed64
from .extract import TablePolicy, table_for
from .mixing import stream_bits, stream_value
from .tables import BalancedTable

_BLOCK_CHECK_SAMPLES = 16
# explicit block tables already checked, by identity: a table rebuilt after
# the cache dropped it is a new object and is checked again
_checked_tables: weakref.WeakSet[BalancedTable] = weakref.WeakSet()


class BitStream(Protocol):
    """A repeatable source of bits, read by prefix only.

    ``prefix(count)`` returns bits 0..count-1 as one BitString, the same
    bits on every call, in time linear in count.  It raises OutOfRange
    when count is negative or runs past the end of a finite stream.
    """

    def prefix(self, count: int) -> BitString: ...


class SeededBitStream:
    """Infinite pseudorandom stream: bit p is bit p%64 (MSB-first) of the
    seed stream's output p//64."""

    def __init__(self, seed: int):
        self.seed = seed64(seed)

    def prefix(self, count: int) -> BitString:
        if count < 0:
            raise OutOfRange("negative prefix length")
        return BitString(stream_bits(self.seed, count), count)


class BitStringStream:
    """Finite stream over a BitString; reads past the end raise OutOfRange."""

    def __init__(self, bits: BitString):
        self.bits = bits

    def prefix(self, count: int) -> BitString:
        return self.bits.prefix(count)


class CountingBitStream:
    """Instrumented wrapper: ``reads`` sums the prefix lengths served, and
    ``positions`` is ``range(longest prefix served)``, the exact set of
    positions read, since a stream is read by prefix only.  A refused read
    records nothing."""

    def __init__(self, inner: BitStream):
        self.inner = inner
        self.positions = range(0)
        self.reads = 0

    def prefix(self, count: int) -> BitString:
        bits = self.inner.prefix(count)
        if count > self.positions.stop:     # not len(): it overflows past sys.maxsize
            self.positions = range(count)
        self.reads += count
        return bits


def read_prefix(stream: BitStream, count: int) -> BitString:
    """Bits 0..count-1 of the stream."""
    return stream.prefix(count)


def block_seed(master_seed: int, i: int) -> int:
    """Block i's table seed: output i of the master seed's stream."""
    return stream_value(master_seed, i)


def block_table(
    schedule: SeqSchedule, i: int, policy: TablePolicy = TablePolicy()
) -> BalancedTable:
    """Block i's table, from :func:`table_for` under an "auto" policy with
    block i's seed, so the process-wide table cache serves every
    transformer and every block.  A block that fits the explicit cap gets
    an explicit random table, a larger one a keyed table.  Only the
    policy's seed is read: any other kind, or a key, is refused with
    :class:`InvalidParams`.

    An explicit table, held or a formula (the rule is in the
    :mod:`balext.tables` docstring), is checked once per table object,
    the first time :func:`table_for` returns it here, whoever built it: a
    sampled prefix-balance check of ``_BLOCK_CHECK_SAMPLES`` rectangles,
    or of one when S = N.  A failed check logs one warning per table.  Two
    threads that get an unchecked table at once may both check it.
    """
    if policy.kind != "auto" or policy.key is not None:
        raise InvalidParams(f"block tables take kind 'auto' and no key, not {policy}")
    params = schedule.block(i).table_params()
    seed = block_seed(seed64(policy.seed), i)
    table = table_for(params, TablePolicy(seed=seed))
    if table.is_explicit and table not in _checked_tables:
        _checked_tables.add(table)
        # D = M per block, so the prefix check is the relevant one: it
        # covers every output-prefix length, not just whole colors.  At
        # S = N every sample is the whole table, so one gives the verdict
        # and the worst ratio of any number.
        from .verify import verify_prefix_balance

        report = verify_prefix_balance(
            table, params.s_exp, mode="sampled",
            samples=1 if params.s_exp == params.n_exp else _BLOCK_CHECK_SAMPLES,
            seed=seed,
        )
        if not report.passed:
            import logging     # on first use: it costs process start otherwise

            logging.getLogger(__name__).warning(
                "block %d explicit table failed sampled prefix-balance check "
                "(worst ratio %s)", i, report.worst_ratio,
            )
    return table


class SequenceTransformer:
    """Binds (x, y, schedule, policy); block tables come from
    :func:`block_table`, whose cache is the process-wide one of
    :func:`table_for`, and which reads only the policy's seed."""

    def __init__(
        self,
        x: BitStream,
        y: BitStream,
        schedule: SeqSchedule,
        policy: TablePolicy = TablePolicy(),
    ):
        self.x = x
        self.y = y
        self.schedule = schedule
        self.policy = policy

    def _block_output(self, i: int, x_prefix: BitString, y_prefix: BitString) -> BitString:
        a, b = self.schedule.input_range(i)
        x_i = x_prefix.substring(a, b)
        y_i = y_prefix.substring(a, b)
        table = block_table(self.schedule, i, self.policy)
        return BitString(table.lookup(x_i.value, y_i.value), table.params.m_exp)

    def output_bit(self, pos: int) -> int:
        """One output bit; reads both streams through the containing block."""
        i = self.schedule.block_of_output(pos)
        read_to = self.schedule.input_ends[i - 1]
        x_prefix = read_prefix(self.x, read_to)
        y_prefix = read_prefix(self.y, read_to)
        z_i = self._block_output(i, x_prefix, y_prefix)
        start, _ = self.schedule.output_range(i)
        return z_i.bit(pos - start)

    def transform_prefix(self, out_len: int) -> BitString:
        """First ``out_len`` output bits; reads each stream once."""
        if out_len < 0:
            raise InvalidParams("out_len must be >= 0")
        if out_len == 0:
            return BitString.zeros(0)
        if out_len > self.schedule.total_output_bits:
            raise InvalidParams(
                f"schedule covers only {self.schedule.total_output_bits} output bits"
            )
        i_max = self.schedule.block_of_output(out_len - 1)
        read_to = self.schedule.input_ends[i_max - 1]
        x_prefix = read_prefix(self.x, read_to)
        y_prefix = read_prefix(self.y, read_to)
        out = BitString.zeros(0)
        for i in range(self.schedule.first_emitting_block, i_max + 1):
            out = out.concat(self._block_output(i, x_prefix, y_prefix))
        return out.prefix(out_len)
