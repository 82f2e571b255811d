"""The two string extractors: unconditional and conditional.

Both index a color table with the two input strings (rows by the first
input, columns by the second, bits read most-significant-first) and return
the cell's color as an m_exp-bit string, most significant bit first.  The
complexity guarantee itself is uncomputable and is never a postcondition;
the sources module provides the statistical stand-in.

Table policy: "canonical" works at micro scale only, "random" materializes
a seeded explicit table up to the explicit cap, "keyed" computes colors on
demand at any size, and "auto" picks random when the shape fits the cap
and keyed otherwise (keyed key expanded from the seed).  :func:`table_for`
is the one constructor behind a policy, for the extractors, the
experiments and the sequence transformer alike.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    BitString,
    InvalidParams,
    TableParams,
    derive_cond_params,
    derive_string_params,
)
from .tables import (
    EXPLICIT_M_EXP_CAP,
    EXPLICIT_N_EXP_CAP,
    MICRO_DESCRIPTION_CAP,
    BalancedTable,
    canonical_table,
    key_from_seed,
    keyed_table,
    random_table,
)


@dataclass(frozen=True)
class TablePolicy:
    """How extractors obtain their table."""

    kind: str = "auto"            # auto | random | keyed | canonical
    seed: int = 0
    key: int | None = None        # keyed backend; derived from seed when None
    explicit_cap: int = EXPLICIT_N_EXP_CAP
    micro_cap: int = MICRO_DESCRIPTION_CAP

    def effective_key(self) -> int:
        return self.key if self.key is not None else key_from_seed(self.seed)

    def fits_explicit(self, params: TableParams) -> bool:
        return (
            params.n_exp <= self.explicit_cap and params.m_exp <= EXPLICIT_M_EXP_CAP
        )


_table_cache: dict[tuple, BalancedTable] = {}
_table_cache_lock = threading.Lock()
_TABLE_CACHE_MAX = 8
_TABLE_CACHE_MAX_BYTES = 1 << 25   # cell bytes kept beyond the newest table


def _cache_key(params: TableParams, policy: TablePolicy) -> tuple | None:
    """(params, kind, what else picks the table) for a table with cells,
    with "auto" resolved to the kind it picks for these params; None for a
    keyed table, which is never cached."""
    kind = policy.kind
    if kind == "auto":
        kind = "random" if policy.fits_explicit(params) else "keyed"
    if kind == "random":
        return (params, kind, policy.seed, policy.explicit_cap)
    if kind == "canonical":
        return (params, kind, policy.micro_cap)
    if kind == "keyed":
        return None
    raise InvalidParams(f"unknown table policy kind {policy.kind!r}")


def cached_table(params: TableParams, policy: TablePolicy) -> BalancedTable | None:
    """The table :func:`table_for` would return from its cache, or None
    when that call would build one."""
    key = _cache_key(params, policy)
    if key is None:
        return None
    with _table_cache_lock:
        return _table_cache.get(key)


def table_for(params: TableParams, policy: TablePolicy) -> BalancedTable:
    """Construct (or fetch from the process-wide cache) the policy's table.

    The extractors, the planted experiments and every block of the
    sequence transformer get their tables here.

    Cached instances are immutable, so this is observationally identical
    to reconstructing the table on every call.  Only tables with cells are
    cached: a keyed table is built in O(1) and never evicts one that cost a
    fill.  The cache keeps at most ``_TABLE_CACHE_MAX`` tables and, apart
    from the newest one, at most ``_TABLE_CACHE_MAX_BYTES`` of cells; the
    oldest entries go first.
    """
    key = _cache_key(params, policy)
    if key is None:
        return keyed_table(params, policy.effective_key())
    with _table_cache_lock:
        if key in _table_cache:
            return _table_cache[key]
    if key[1] == "random":
        table = random_table(params, policy.seed, explicit_cap=policy.explicit_cap)
    else:
        table = canonical_table(params, micro_cap=policy.micro_cap)
    with _table_cache_lock:
        _table_cache.pop(key, None)
        _table_cache[key] = table
        while len(_table_cache) > 1 and (
            len(_table_cache) > _TABLE_CACHE_MAX
            or _cached_cell_bytes() > _TABLE_CACHE_MAX_BYTES
        ):
            _table_cache.pop(next(iter(_table_cache)))
    return table


def _cached_cell_bytes() -> int:
    return sum(t.cells.nbytes for t in _table_cache.values())


def _extract(x: BitString, y: BitString, derive, policy: TablePolicy) -> BitString:
    """The color at (row x, column y) of the policy's table for the
    parameters ``derive(n)`` gives at the common input length n."""
    if len(x) != len(y):
        raise InvalidParams(f"input lengths differ: {len(x)} != {len(y)}")
    params = derive(len(x))
    table = table_for(params.table_params(), policy)
    return BitString(table.lookup(x.value, y.value), params.m_exp)


def extract_string(
    x: BitString,
    y: BitString,
    sigma: Fraction,
    alpha: Fraction,
    policy: TablePolicy = TablePolicy(),
) -> BitString:
    """Unconditional extraction: the table color at (row x, column y).

    Parameters are derived non-strictly: input lengths too small for the
    complexity guarantee still extract (the derivation flags them as
    guarantee-degenerate), but shapes with no output bits are rejected.
    """
    return _extract(x, y, lambda n: derive_string_params(n, sigma, alpha, strict=False),
                    policy)


def extract_conditional(
    x: BitString,
    y: BitString,
    s_of_n: int,
    alpha_of_n: int,
    policy: TablePolicy = TablePolicy(),
) -> BitString:
    """Conditional extraction (D = M parameterization)."""
    return _extract(x, y, lambda n: derive_cond_params(n, s_of_n, alpha_of_n), policy)
