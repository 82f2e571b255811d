"""The two string extractors: unconditional and conditional.

Both index a color table with the two input strings (rows by the first
input, columns by the second, bits read most-significant-first) and return
the cell's color as an m_exp-bit string, most significant bit first.  The
complexity guarantee itself is uncomputable and is never a postcondition;
the sources module provides the statistical stand-in.

Table policy: "canonical" works at micro scale only (descriptions up to
``tables.MICRO_DESCRIPTION_CAP`` bits), "random" gives a seeded explicit
table up to ``tables.EXPLICIT_N_EXP_CAP`` (held or a formula by the rule
in the :mod:`balext.tables` docstring), "keyed" computes colors on demand
at any size, and "auto" picks random when the shape fits that cap and
keyed otherwise (keyed key expanded from the seed).
:func:`build_table` is the one builder behind a policy, and
:func:`table_for` is the one cache around it, for the extractors, the
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

    def effective_key(self) -> int:
        return self.key if self.key is not None else key_from_seed(self.seed)

    def kind_for(self, params: TableParams) -> str:
        """The kind of table this policy gives for these params: "auto" is
        random when the shape fits the explicit caps and keyed otherwise."""
        if self.kind == "auto":
            fits = params.n_exp <= EXPLICIT_N_EXP_CAP and params.m_exp <= EXPLICIT_M_EXP_CAP
            return "random" if fits else "keyed"
        if self.kind not in ("random", "keyed", "canonical"):
            raise InvalidParams(f"unknown table policy kind {self.kind!r}")
        return self.kind


_table_cache: dict[tuple, BalancedTable] = {}
_table_cache_lock = threading.Lock()
_TABLE_CACHE_MAX = 8


def build_table(params: TableParams, policy: TablePolicy) -> BalancedTable:
    """Build the policy's table, uncached; the one place that maps a
    policy kind to a table builder."""
    kind = policy.kind_for(params)
    if kind == "random":
        return random_table(params, policy.seed)
    if kind == "canonical":
        return canonical_table(params)
    return keyed_table(params, policy.effective_key())


def table_for(params: TableParams, policy: TablePolicy) -> BalancedTable:
    """The policy's table from :func:`build_table`, through the
    process-wide cache.

    The extractors, the planted experiments and every block of the
    sequence transformer get their tables here.

    Cached instances are immutable, so this is observationally identical
    to reconstructing the table on every call.  Only explicit tables are
    cached, keyed by (params, kind, seed): a keyed table is built in O(1)
    and never evicts one that cost a fill or carries a digest.  The cache
    keeps the newest ``_TABLE_CACHE_MAX`` tables.  A random table holds
    its cells or is a formula by the rule in the :mod:`balext.tables`
    docstring, so with two bytes a cell at most, the cache holds at most
    16 MB of cells.
    """
    kind = policy.kind_for(params)
    if kind == "keyed":
        return build_table(params, policy)
    key = (params, kind, policy.seed)
    with _table_cache_lock:
        if key in _table_cache:
            return _table_cache[key]
    table = build_table(params, policy)
    with _table_cache_lock:
        _table_cache.pop(key, None)
        _table_cache[key] = table
        while len(_table_cache) > _TABLE_CACHE_MAX:
            _table_cache.pop(next(iter(_table_cache)))
    return table


def _extract(x: BitString, y: BitString, derive, policy: TablePolicy) -> BitString:
    """The color at (row x, column y) of the policy's table for the shape
    ``derive(n)`` gives at the common input length n."""
    if len(x) != len(y):
        raise InvalidParams(f"input lengths differ: {len(x)} != {len(y)}")
    params = derive(len(x))
    table = table_for(params, policy)
    return BitString(table.lookup(x.value, y.value), params.m_exp)


def extract_string(
    x: BitString,
    y: BitString,
    sigma: Fraction,
    alpha: Fraction,
    policy: TablePolicy = TablePolicy(),
) -> BitString:
    """Unconditional extraction: the table color at (row x, column y).

    The table shape is :func:`derive_string_params` at the input length n.
    Shapes with no output bits are refused.  An input length too small for
    the complexity guarantee (derived d_exp = m_exp) still extracts, with
    no quality claim attached; the guarantee also needs the paper's
    hypothesis 0 < alpha < sigma, which the caller owns.
    """
    return _extract(x, y, lambda n: derive_string_params(n, sigma, alpha), policy)


def extract_conditional(
    x: BitString,
    y: BitString,
    s_of_n: int,
    alpha_of_n: int,
    policy: TablePolicy = TablePolicy(),
) -> BitString:
    """Conditional extraction (D = M parameterization).

    The table shape is :func:`derive_cond_params` at the input length n;
    the conditional guarantee's slack is alpha(n) + 11*ceil(log2 n).
    """
    return _extract(x, y, lambda n: derive_cond_params(n, s_of_n, alpha_of_n), policy)
