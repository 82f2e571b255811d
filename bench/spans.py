"""Span tracing for the traced replay, and the per-layer metrics it yields.

While a Tracer is installed, each traced public function of balext is
replaced, in every balext module that binds it, by a wrapper that records a
span: (id, name, start ns, end ns, parent id, round id, info). ``info`` holds
the few facts about the call that the metrics need (sizes, table kind). Spans
are kept in memory and written out once, at the end of the run.

The wrapper keeps one parent stack, so traced calls must come from a single
thread: the replay runs every job with ``--threads 1``.

A name a later version of balext no longer has is skipped; the metrics that
need it are reported as absent, with the reason, instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("core", "mixing", "tables", "verify", "extract", "sources",
          "seqtransform", "cli")


def _arg(args, kwargs, i, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[i] if len(args) > i else default


def _explicit(table) -> bool:
    return getattr(table, "cells", None) is not None


def _report(result) -> dict:
    return {"rects": result.rectangles_checked, "mode": result.mode,
            "witness": result.witness is not None}


# name -> info(args, kwargs, result). Hot scalar helpers (scramble,
# stream_value, BitString.bit, keyed_color) are left out: a span per call
# would cost more than the call.
TRACED = {
    "core": {
        "BitString.from_bits": lambda a, k, r: {"n": len(r)},
        "BitString.from_bytes": None,
        "BitString.concat": None,
        "derive_string_params": None,
        "derive_cond_params": None,
        "derive_seq_schedule": None,
    },
    "mixing": {
        "scramble_np": lambda a, k, r: {"n": int(r.size)},
        "stream_block_np": None,
        "stream_bits": lambda a, k, r: {"n": max(0, _arg(a, k, 1, "count"))},
        "partial_shuffle_batch": lambda a, k, r: {"n": int(a[0].shape[0])},
    },
    "tables": {
        "random_table": lambda a, k, r: {"cells": r.params.n_side ** 2},
        "keyed_table": None,
        "canonical_table": None,
        "keyed_colors_grid": lambda a, k, r: {"n": int(r.size)},
        "BalancedTable.lookup": lambda a, k, r: {"explicit": _explicit(a[0])},
        "BalancedTable.read": None,
        "BalancedTable.from_bytes": None,
        "BalancedTable.to_bytes": None,
        "BalancedTable.digest": None,
        "existence_condition_exponents": None,
    },
    "verify": {
        "verify_exhaustive": lambda a, k, r: _report(r),
        "verify_sampled": lambda a, k, r: dict(_report(r), explicit=_explicit(a[0])),
        "verify_prefix_balance": lambda a, k, r: dict(_report(r),
                                                      explicit=_explicit(a[0])),
        "balance_holds": None,
    },
    "extract": {
        "table_for": None,     # info filled by Tracer._hold_table
        "extract_string": None,
        "extract_conditional": None,
    },
    "sources": {
        "gen_planted_pair": None,
        "dep_estimate": None,
        "MatchCompressor.cost_bits": lambda a, k, r: {"n": len(a[1]),
                                                      "key": (a[1].value, len(a[1]))},
        "run_extraction_experiment": lambda a, k, r: {"trials": _arg(a, k, 1, "trials")},
        "collision_entropy_empirical": None,
        "min_entropy_empirical": None,
        "ExperimentReport.write_csv": None,
    },
    "seqtransform": {
        "read_prefix": lambda a, k, r: {
            "n": _arg(a, k, 1, "count"),
            "counting": type(a[0]).__name__ == "CountingBitStream"},
        "block_table": lambda a, k, r: {"explicit": _explicit(r)},
        "SequenceTransformer.output_bit": None,
        "SequenceTransformer.transform_prefix": lambda a, k, r: {"n": len(r)},
    },
    "cli": {
        "main": None,
    },
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.round_id = None
        self.enabled = True
        self.absent: dict[str, str] = {}     # traced name -> why it is missing
        self._stack: list[int] = []
        self._next = 0
        self._undo: list = []
        self._held: list = []                # keeps table_for results alive per round

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, info):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = tracer._next
            tracer._next += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                t1 = perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, tracer.round_id,
                                     {"error": type(e).__name__}))
                raise
            t1 = perf_counter_ns()
            stack.pop()
            tracer.spans.append((sid, name, t0, t1, parent, tracer.round_id,
                                 info(args, kwargs, result) if info else None))
            return result

        return traced

    def start_round(self, round_id) -> None:
        self.round_id = round_id
        self._held.clear()

    @contextmanager
    def paused(self):
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if (n == "balext" or n.startswith("balext.")) and m is not None]
        for layer, names in TRACED.items():
            try:
                mod = importlib.import_module(f"balext.{layer}")
            except ImportError:
                self.absent.update({f"{layer}.{q}": f"no module balext.{layer}"
                                    for q in names})
                continue
            for qual, info in names.items():
                full = f"{layer}.{qual}"
                if full == "extract.table_for":
                    info = self._hold_table
                if "." in qual:
                    self._patch_method(mod, qual, full, info)
                else:
                    self._patch_function(mod, modules, qual, full, info)

    def _hold_table(self, args, kwargs, table):
        # identity counts distinct tables only while they stay alive
        self._held.append(table)
        return {"table": id(table)}

    def _patch_function(self, mod, modules, qual, full, info) -> None:
        fn = getattr(mod, qual, None)
        if not callable(fn):
            self.absent[full] = f"balext.{mod.__name__.split('.')[-1]} has no function {qual}"
            return
        wrapped = self._wrap(full, fn, info)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, wrapped)
                    self._undo.append((m, attr, fn))

    def _patch_method(self, mod, qual, full, info) -> None:
        cls_name, meth = qual.split(".")
        cls = getattr(mod, cls_name, None)
        raw = inspect.getattr_static(cls, meth, None) if cls is not None else None
        if raw is None:
            self.absent[full] = f"balext.{mod.__name__.split('.')[-1]} has no {qual}"
            return
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._wrap(full, raw.__func__, info))
        else:
            new = self._wrap(full, raw, info)
        setattr(cls, meth, new)
        self._undo.append((cls, meth, raw))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        self._held.clear()

    def span_overhead_ns(self, calls: int = 20000) -> float:
        """Cost of one traced call beyond the call itself, per call."""
        def noop():
            return None

        wrapped = self._wrap("calibration", noop, None)
        saved, self.spans = self.spans, []
        t0 = perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = perf_counter_ns()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter_ns()
        self.spans = saved
        return ((t2 - t1) - (t1 - t0)) / calls

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, rid, info in self.spans:
                if info and "key" in info:
                    info = {k: v for k, v in info.items() if k != "key"}
                fh.write(json.dumps([sid, name, t0, t1, parent, rid, info]) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# metric -> (unit, traced names it needs, the end-to-end metric it should
# move and the workload where that shows). Times are span durations per unit
# of work; a value comes from the workload's own traced rounds, or from a
# coverage round of another workload when its own jobs do not exercise it.
_VS, _ES, _LI, _VE = ("verify-sampled", "experiment-short", "long-inputs",
                      "verify-exhaustive")
_PREFIX = "verify.verify_prefix_balance"
_REPORTS = ["verify.verify_exhaustive", "verify.verify_sampled", _PREFIX]
_COST = "sources.MatchCompressor.cost_bits"
PER_LAYER = {
    "mixing.shuffle_us_per_rect": ("us", ["mixing.partial_shuffle_batch"],
                                   f"rects_per_s and peak_rss_mb on {_VS}"),
    "mixing.scramble_ns_per_output": ("ns", ["mixing.scramble_np"],
                                      f"round_p50_s on {_ES} and {_VS}"),
    "mixing.stream_bits_ns_per_bit": ("ns", ["mixing.stream_bits"],
                                      f"trials_per_s on {_ES}"),
    "tables.fill_ns_per_cell": ("ns", ["tables.random_table"],
                                f"round_p50_s on {_ES} and {_VS}"),
    "tables.read_ms": ("ms", ["tables.BalancedTable.read"],
                       f"round_p50_s on {_ES} and {_VS}"),
    "tables.digest_ms": ("ms", ["tables.BalancedTable.digest"],
                         f"round_p50_s on {_ES} and {_VS}"),
    "tables.lookup_ns_explicit": ("ns", ["tables.BalancedTable.lookup"],
                                  f"trials_per_s on {_ES}"),
    "tables.lookup_us_keyed": ("us", ["tables.BalancedTable.lookup"],
                               f"in_bits_per_s on {_LI}"),
    "tables.keyed_grid_ns_per_cell": ("ns", ["tables.keyed_colors_grid"],
                                      f"rects_per_s on {_VS}"),
    "verify.exhaustive_us_per_rect": ("us", ["verify.verify_exhaustive"],
                                      f"rects_per_s on {_VE} only"),
    "verify.exhaustive_prefix_us_per_rect": ("us", [_PREFIX],
                                             f"rects_per_s on {_VE} only"),
    "verify.sampled_us_per_rect": ("us", ["verify.verify_sampled"],
                                   f"rects_per_s on {_VS}"),
    "verify.sampled_prefix_us_per_rect": ("us", [_PREFIX], f"rects_per_s on {_VS}"),
    "verify.sampled_keyed_us_per_rect": ("us", ["verify.verify_sampled", _PREFIX],
                                         f"rects_per_s on {_VS}"),
    "verify.block_check_ms": ("ms", [_PREFIX, "seqtransform.block_table"],
                              f"round_p50_s on {_LI}"),
    "verify.rects_checked": ("count", _REPORTS, "context: rectangles per round"),
    "verify.witness_frac": ("ratio", _REPORTS, "context: share of failing reports"),
    "sources.gen_pair_us": ("us", ["sources.gen_planted_pair"], f"trials_per_s on {_ES}"),
    "sources.trial_us": ("us", ["sources.run_extraction_experiment"],
                         f"trials_per_s on {_ES}"),
    "sources.compress_us_per_bit_short": ("us", [_COST], f"trials_per_s on {_ES}"),
    "sources.compress_us_per_bit_long": ("us", [_COST], f"in_bits_per_s on {_LI}"),
    "sources.estimator_calls": ("count", [_COST], "context: estimator calls per round"),
    "sources.estimator_distinct_frac": ("ratio", [_COST],
                                        "context: headroom for memoization"),
    "extract.table_for_first_ms": ("ms", ["extract.table_for"], f"round_p50_s on {_ES}"),
    "extract.table_for_cached_us": ("us", ["extract.table_for"], f"round_p50_s on {_ES}"),
    "extract.table_builds_per_round": ("count", ["extract.table_for"],
                                       f"round_p50_s on {_ES}"),
    "extract.extract_us": ("us", ["extract.extract_string"], f"in_bits_per_s on {_LI}"),
    "extract.extract_cond_us": ("us", ["extract.extract_conditional"],
                                f"in_bits_per_s on {_LI}"),
    "seqtransform.read_ns_per_bit": ("ns", ["seqtransform.read_prefix"],
                                     f"in_bits_per_s on {_LI}"),
    "seqtransform.prefix_us_per_out_bit": (
        "us", ["seqtransform.SequenceTransformer.transform_prefix"],
        f"in_bits_per_s on {_LI}"),
    "seqtransform.output_bit_ms": ("ms", ["seqtransform.SequenceTransformer.output_bit"],
                                   f"in_bits_per_s on {_LI}"),
    "seqtransform.block_table_explicit_ms": ("ms", ["seqtransform.block_table"],
                                             f"in_bits_per_s on {_LI}"),
    "seqtransform.block_table_keyed_ms": ("ms", ["seqtransform.block_table"],
                                          f"in_bits_per_s on {_LI}"),
    "seqtransform.bits_read_per_out_bit": (
        "count", ["seqtransform.SequenceTransformer.output_bit"],
        f"in_bits_per_s on {_LI}"),
    # the self time of cli.main: its time minus the library calls it makes
    "cli.overhead_ms": ("ms", ["cli.main"], f"round_p50_s, mostly on {_VE}"),
}
PER_LAYER.update({f"{layer}.self_ms_per_round": ("ms", [], "context: self time")
                  for layer in LAYERS})
PER_LAYER["trace.overhead_ratio"] = ("x", [], "traced over untraced round_p50_s")
PER_LAYER["trace.span_overhead_ns"] = ("ns", [], "cost of one traced call")

CONSTRUCTORS = {"tables.random_table", "tables.keyed_table", "tables.canonical_table"}
SHORT_INPUT_BITS = 64


def _dur(s) -> int:
    return s[3] - s[2]


def _mean_ns(spans):
    return sum(map(_dur, spans)) / len(spans) if spans else None


def _per(spans, key):
    """Total span time per unit of ``info[key]``, in ns."""
    units = sum(s[6][key] for s in spans)
    return sum(map(_dur, spans)) / units if spans and units else None


def layer_values(spans: list[tuple], rounds: int, job_infos: list[dict]) -> dict:
    """Every per-layer value computable from these spans; None when the spans
    do not exercise the layer."""
    by = defaultdict(list)
    for s in spans:
        by[s[1]].append(s)
    ok = defaultdict(list)      # spans whose call returned normally
    for name, ss in by.items():
        ok[name] = [s for s in ss if not (s[6] and "error" in s[6])]
    index = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append(s)

    def parent_name(s):
        p = index.get(s[4])
        return p[1] if p else None

    def self_time(s):
        return _dur(s) - sum(_dur(c) for c in children[s[0]])

    def us(v, scale=1e-3):   # ns -> us by default; scale=1e-6 gives ms
        return None if v is None else v * scale

    out = {}
    out["mixing.shuffle_us_per_rect"] = us(
        _per(ok["mixing.partial_shuffle_batch"], "n"), 2e-3)
    out["mixing.scramble_ns_per_output"] = _per(ok["mixing.scramble_np"], "n")
    out["mixing.stream_bits_ns_per_bit"] = _per(ok["mixing.stream_bits"], "n")
    out["tables.fill_ns_per_cell"] = _per(ok["tables.random_table"], "cells")
    out["tables.read_ms"] = us(_mean_ns(ok["tables.BalancedTable.read"]), 1e-6)
    out["tables.digest_ms"] = us(_mean_ns(ok["tables.BalancedTable.digest"]), 1e-6)
    lookups = ok["tables.BalancedTable.lookup"]
    out["tables.lookup_ns_explicit"] = _mean_ns([s for s in lookups if s[6]["explicit"]])
    out["tables.lookup_us_keyed"] = us(_mean_ns([s for s in lookups if not s[6]["explicit"]]))
    out["tables.keyed_grid_ns_per_cell"] = _per(ok["tables.keyed_colors_grid"], "n")

    prefix = [s for s in ok["verify.verify_prefix_balance"]
              if parent_name(s) != "seqtransform.block_table"]
    block_checks = [s for s in ok["verify.verify_prefix_balance"]
                    if parent_name(s) == "seqtransform.block_table"]
    sampled = ok["verify.verify_sampled"]
    out["verify.exhaustive_us_per_rect"] = us(_per(ok["verify.verify_exhaustive"], "rects"))
    out["verify.exhaustive_prefix_us_per_rect"] = us(
        _per([s for s in prefix if s[6]["mode"] == "exhaustive"], "rects"))
    out["verify.sampled_us_per_rect"] = us(
        _per([s for s in sampled if s[6]["explicit"]], "rects"))
    out["verify.sampled_prefix_us_per_rect"] = us(
        _per([s for s in prefix if s[6]["mode"] == "sampled" and s[6]["explicit"]], "rects"))
    out["verify.sampled_keyed_us_per_rect"] = us(
        _per([s for s in sampled + prefix
              if s[6]["mode"] == "sampled" and not s[6]["explicit"]], "rects"))
    out["verify.block_check_ms"] = us(_mean_ns(block_checks), 1e-6)
    reports = ok["verify.verify_exhaustive"] + sampled + ok["verify.verify_prefix_balance"]
    out["verify.rects_checked"] = (
        sum(s[6]["rects"] for s in reports) / rounds if reports else None)
    out["verify.witness_frac"] = (
        sum(s[6]["witness"] for s in reports) / len(reports) if reports else None)

    out["sources.gen_pair_us"] = us(_mean_ns(ok["sources.gen_planted_pair"]))
    # per-trial time leaves out the table build and the report digest
    experiments = ok["sources.run_extraction_experiment"]
    trial_ns = sum(_dur(s) - sum(_dur(c) for c in children[s[0]] if c[1] in (
        "extract.table_for", "tables.BalancedTable.digest")) for s in experiments)
    trials = sum(s[6]["trials"] for s in experiments)
    out["sources.trial_us"] = us(trial_ns / trials) if trials else None
    calls = ok["sources.MatchCompressor.cost_bits"]
    out["sources.compress_us_per_bit_short"] = us(
        _per([s for s in calls if s[6]["n"] <= SHORT_INPUT_BITS], "n"))
    out["sources.compress_us_per_bit_long"] = us(
        _per([s for s in calls if s[6]["n"] > SHORT_INPUT_BITS], "n"))
    out["sources.estimator_calls"] = len(calls) / rounds if calls else None
    seen, distinct = set(), 0
    for s in calls:
        key = (s[5], s[6]["key"])
        distinct += key not in seen
        seen.add(key)
    out["sources.estimator_distinct_frac"] = distinct / len(calls) if calls else None

    table_for = ok["extract.table_for"]
    built = [s for s in table_for if any(c[1] in CONSTRUCTORS for c in children[s[0]])]
    built_ids = {s[0] for s in built}
    cached = [s for s in table_for if s[0] not in built_ids]
    out["extract.table_for_first_ms"] = us(_mean_ns(built), 1e-6)
    out["extract.table_for_cached_us"] = us(_mean_ns(cached))
    out["extract.table_builds_per_round"] = (
        len({(s[5], s[6]["table"]) for s in table_for}) / rounds if table_for else None)
    out["extract.extract_us"] = us(_mean_ns(ok["extract.extract_string"]))
    out["extract.extract_cond_us"] = us(_mean_ns(ok["extract.extract_conditional"]))

    reads = [s for s in ok["seqtransform.read_prefix"] if not s[6]["counting"]]
    out["seqtransform.read_ns_per_bit"] = _per(reads, "n")
    out["seqtransform.prefix_us_per_out_bit"] = us(
        _per(ok["seqtransform.SequenceTransformer.transform_prefix"], "n"))
    out["seqtransform.output_bit_ms"] = us(
        _mean_ns(ok["seqtransform.SequenceTransformer.output_bit"]), 1e-6)
    blocks = ok["seqtransform.block_table"]
    out["seqtransform.block_table_explicit_ms"] = us(
        _mean_ns([s for s in blocks if s[6]["explicit"]]), 1e-6)
    out["seqtransform.block_table_keyed_ms"] = us(
        _mean_ns([s for s in blocks if not s[6]["explicit"]]), 1e-6)
    read_counts = [i["bits_read"] for i in job_infos if "bits_read" in i]
    out["seqtransform.bits_read_per_out_bit"] = (
        sum(read_counts) / len(read_counts) if read_counts else None)

    mains = by["cli.main"]
    out["cli.overhead_ms"] = us(sum(map(self_time, mains)) / len(mains), 1e-6) if mains else None

    self_ns = defaultdict(int)
    for s in spans:
        self_ns[s[1].split(".")[0]] += self_time(s)
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_round"] = (
            self_ns[layer] * 1e-6 / rounds if layer in self_ns else None)
    return out

