"""Benchmark of balext: four workloads of user sessions, timed end to end,
plus a traced replay that gives per-layer costs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1] [--quick]
    python3 bench/run.py --record-digests

Run from the repository root. One invocation runs one workload in this fresh
process: it times rounds for ``--seconds`` (tracing off), checks every job's
output, then runs an untimed check pass. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Full records (provenance, every round, failures, where each
layer value came from) go to ``bench/.work/<workload>/``.

``--all`` runs every workload, each in its own process, and prints each
metric by name with its unit; ``--quick`` makes every run one short round.
``--record-digests`` rewrites ``bench/digests.json`` from round 0 at the
default seed; only do that when an output change is intended.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

# The other benchmark modules (workloads, checks, spans) import balext, so
# functions import them only after import_balext() has put this checkout's
# src/ first on sys.path.
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 1
SETUP_PROBES = 9
REF_PROC_NOMINAL_S = 0.15  # scaled set-up times assume the reference process takes this long
TAIL_BEYOND = 10        # the tail percentile keeps at least this many rounds above it
REF_NOMINAL_S = 0.010   # scaled times assume the reference work takes this long
CHECK_THREADS = 2       # the check pass reruns round 0 at this thread count


def import_balext():
    """Import balext from this checkout's sources, or exit without a result."""
    src = ROOT / "src"
    if not (src / "balext" / "__init__.py").is_file():
        sys.exit(f"error: no balext sources under {src}")
    sys.path.insert(0, str(src))
    import balext

    if Path(balext.__file__).resolve().parent != (src / "balext").resolve():
        sys.exit(f"error: imported balext from {balext.__file__}, not from {src}")
    return balext


def reference_seconds() -> float:
    """Wall time of a fixed mix of interpreter, big-integer and numpy work.

    The machines this runs on change speed by tens of percent over seconds
    to minutes, as co-tenants come and go. Timing this fixed work right
    around each measurement tracks that speed, and times are reported scaled
    by REF_NOMINAL_S / reference_seconds(). It calls no balext code, so no
    change to balext moves it; changing this function changes the unit of
    every scaled time, so results from before and after would not compare.
    The numpy arrays stay at 200 KB, so this adds nothing to the peak RSS
    that a round sets.
    """
    import numpy as np

    t0 = perf_counter()
    x = 0
    for j in range(60000):
        x += j * j & 7
    v = 0
    for j in range(3000):
        v = (v << 1) | (j & 1)
    a = np.arange(25000, dtype=np.uint64)
    for _ in range(8):
        int((a * a ^ (a >> np.uint64(3))).sum())
    return perf_counter() - t0


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


class Runner:
    """Runs rounds of one workload and keeps their records."""

    def __init__(self, wl, seed: int, wdir: Path, tracer=None):
        self.wl, self.seed, self.wdir, self.tracer = wl, seed, wdir, tracer
        self.rounds: list[dict] = []

    def paused(self):
        return self.tracer.paused() if self.tracer else nullcontext()

    def run_round(self, r, *, wl=None, traced=False, threads=1, slot=None) -> dict:
        import workloads

        wl = wl or self.wl
        d = self.wdir / (slot or ("r0" if r == 0 else "cur"))
        if slot is None and r != 0:
            shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True, exist_ok=True)
        ctx = workloads.Context(workloads.derive_seed(wl.name, self.seed, r), d, threads)
        with self.paused():
            jobs = wl.build(ctx)
        gc.collect()
        if self.tracer:
            self.tracer.start_round(r)
        rec = {"round": r, "workload": wl.name, "seed": ctx.seed, "seconds": 0.0,
               "traced": traced, "work": 0, "counts": Counter(), "jobs": []}
        ref_before = reference_seconds()
        if traced:
            self.tracer.install()
        try:
            for job in jobs:
                res = job.run()
                with self.paused():
                    problem = judge(job, res)
                rec["seconds"] += res.seconds
                rec["work"] += job.work.get(wl.unit, 0)
                rec["counts"].update(job.work)
                rec["jobs"].append({
                    "id": job.id, "seconds": res.seconds, "code": res.code,
                    "problem": problem, "error_line": res.error_line or None,
                    "known": problem is not None and res.error_line == job.known_failure,
                    "known_failure": job.known_failure,
                    "info": dict(res.info), "digest": job.digest(res),
                })
        finally:
            if traced:
                self.tracer.uninstall()
        rec["ref_s"] = (ref_before + reference_seconds()) / 2
        rec["scaled_s"] = rec["seconds"] * REF_NOMINAL_S / rec["ref_s"]
        return rec

    def run_for(self, seconds: float, first: int, **kw) -> int:
        """Run rounds from ``first`` until ``seconds`` have passed (at least one)."""
        t_end = perf_counter() + seconds
        r = first
        while True:
            self.rounds.append(self.run_round(r, **kw))
            r += 1
            if perf_counter() >= t_end:
                return r

    def check_pass(self) -> list[str]:
        """Untimed: rerun round 0 with --threads 2 and require identical bytes,
        reproduce the extractor goldens, and at the default seed compare
        round 0 with the digests recorded when the benchmark was defined.
        A job with a known failure has no recorded digest: once fixed, its
        own output check judges it."""
        import checks

        problems = []
        first = {j["id"]: j["digest"] for j in self.rounds[0]["jobs"]}
        again = self.run_round(0, threads=CHECK_THREADS)
        for j in again["jobs"]:
            if j["digest"] != first.get(j["id"]):
                problems.append(f"{j['id']}: output differs at --threads {CHECK_THREADS}")
        with self.paused():
            golden = checks.check_goldens()
        if golden:
            problems.append(golden)
        if self.seed == DEFAULT_SEED:
            recorded = json.loads(DIGESTS.read_text()).get(self.wl.name, {})
            for j in self.rounds[0]["jobs"]:
                if not j["known_failure"] and recorded.get(j["id"]) != j["digest"]:
                    problems.append(f"{j['id']}: output differs from the recorded digest")
        return problems


def judge(job, res) -> str | None:
    """None when the job ran normally and its output passed its check."""
    if res.error is None and res.code in job.ok_codes:
        try:
            return job.check(job, res)
        except Exception as e:   # a check that cannot read the output fails the job
            return f"check failed: {type(e).__name__}: {e}"
    return f"exit {res.code}: {res.error_line}"


def tally(rounds: list[dict]) -> tuple[int, int, list[dict]]:
    jobs = [(r, j) for r in rounds for j in r["jobs"]]
    failed = [dict(j, round=r["round"], workload=r["workload"])
              for r, j in jobs if j["problem"]]
    return len(jobs), len(failed), failed


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def probe_process(kind: str) -> float:
    """Seconds from starting a fresh process of this script until it is ready.

    ``balext``: interpreter start and ``import balext`` with its CLI, which is
    all a workload needs before its first round. ``reference``: the same
    start, importing numpy instead of balext; no change to balext moves it."""
    t0 = perf_counter()
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe", kind],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    return float(out.strip().splitlines()[-1]) - t0


def measure_setup(probes: int) -> tuple[list[float], list[float]]:
    """Set-up probes, each between two reference processes.

    Process start and imports are file and process-creation work, whose
    speed the in-process reference does not track; each probe is therefore
    scaled by the mean of the reference processes right before and after it.
    Returns (scaled, raw) seconds."""
    refs = [probe_process("reference")]
    raw = []
    for _ in range(probes):
        raw.append(probe_process("balext"))
        refs.append(probe_process("reference"))
    scaled = [t * 2 * REF_PROC_NOMINAL_S / (a + b) for t, a, b in zip(raw, refs, refs[1:])]
    return scaled, raw


def tail(times: list[float]) -> tuple[float, float]:
    """(time, percentile) of the highest percentile with at least
    TAIL_BEYOND rounds above it; the median when there are too few rounds."""
    ts = sorted(times)
    i = max(len(ts) - 1 - TAIL_BEYOND, len(ts) // 2)
    return ts[i], 100.0 * (i + 1) / len(ts)


def end_to_end(wl, measured: list[dict], setup: tuple[list[float], list[float]],
               rss_mb: float) -> tuple[dict, dict]:
    """Times are scaled to the nominal machine speed (see reference_seconds
    and measure_setup); the wall-clock figures go into the record next to
    them."""
    setup_scaled, setup_raw = setup
    scaled = [r["scaled_s"] for r in measured]
    wall = [r["seconds"] for r in measured]
    work = sum(r["work"] for r in measured)
    t_tail, pct = tail(scaled)
    return {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "round_p50_s": (statistics.median(scaled), "s"),
        "round_tail_s": (t_tail, "s"),
        "work_per_s": (work / sum(scaled), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, {
        "rounds": len(scaled), "tail_percentile": pct,
        f"{wl.unit}_total": work, wl.rate: work / sum(scaled),
        f"wall_{wl.rate}": work / sum(wall), "wall_round_p50_s": statistics.median(wall),
        "wall_round_tail_s": tail(wall)[0], "wall_seconds_total": sum(wall),
        "setup_probes": len(setup_raw), "wall_setup_s": statistics.median(setup_raw),
        "reference_p50_s": statistics.median(r["ref_s"] for r in measured),
    }


def per_layer(runner, tracer, own: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    import spans
    import workloads

    def values(rounds):
        rids = {r["round"] for r in rounds}
        sel = [s for s in tracer.spans if s[5] in rids]
        infos = [j["info"] for r in rounds for j in r["jobs"]]
        return spans.layer_values(sel, len(rounds), infos)

    # Layers this workload does not exercise are measured on one traced round
    # of each other workload, so every run reports every per-layer metric.
    own_values = values(own)
    coverage, problems, refs = {}, [], [r["ref_s"] for r in own]
    for name, wl in workloads.WORKLOADS.items():
        if name != runner.wl.name:
            rec = runner.run_round(f"cov:{name}", wl=wl, traced=True, slot=f"cov-{name}")
            coverage[name] = values([rec])
            refs.append(rec["ref_s"])
            problems += [f"{name} {j['id']}: {j['problem']}" for j in rec["jobs"]
                         if j["problem"] and not j["known"]]
    # span times are scaled like round times, by the run's median reference
    scale = REF_NOMINAL_S / statistics.median(refs)
    metrics, sources, absent = {}, {}, {}
    for name, (unit, needs, _) in spans.PER_LAYER.items():
        missing = [n for n in needs if n in tracer.absent]
        value, source = own_values.get(name), runner.wl.name
        for cname, cvals in coverage.items():
            if value is None and cvals.get(name) is not None:
                value, source = cvals[name], f"coverage round of {cname}"
        if missing:
            absent[name] = "; ".join(tracer.absent[n] for n in missing)
        elif value is not None:
            metrics[name] = (value * scale if unit in ("ns", "us", "ms") else value, unit)
            sources[name] = source
        elif name not in ("trace.overhead_ratio", "trace.span_overhead_ns"):
            absent[name] = "no job of any workload exercises it"
    base = statistics.median(r["scaled_s"] for r in untraced)
    traced = statistics.median(r["scaled_s"] for r in own)
    metrics["trace.overhead_ratio"] = (traced / base, "x")
    metrics["trace.span_overhead_ns"] = (tracer.span_overhead_ns() * scale, "ns")
    moves = {name: entry[2] for name, entry in spans.PER_LAYER.items()}
    return metrics, {"sources": sources, "moves": moves, "absent": absent,
                     "coverage_problems": problems,
                     "traced_round_p50_s": traced, "untraced_round_p50_s": base,
                     "reference_p50_s": statistics.median(refs)}


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------


def provenance() -> dict:
    import numpy

    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=30).stdout.strip() or None
        except OSError:
            rev = None
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "balext").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "nproc_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "git_rev": rev,
        "src_sha256": src.hexdigest(),
    }


def emit(wl, args, metrics: dict, rounds: list[dict], check_problems, extra: dict) -> int:
    """Write the full record, print a summary and, last, the result line."""
    attempted, failed, failures = tally(rounds)
    unexpected = [f for f in failures if not f["known"]]
    correct = not unexpected and not check_problems
    detail = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "provenance": provenance(), "correct": correct,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [{k: f[k] for k in ("workload", "round", "id", "problem",
                                        "error_line", "known")} for f in failures],
        "check_pass": check_problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
        "rounds": [{k: r[k] for k in ("round", "workload", "seed", "seconds", "ref_s",
                                      "scaled_s", "counts", "traced")} for r in rounds],
    }
    out = WORK / wl.name / f"result-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, default=str) + "\n")

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} rounds, {attempted} jobs")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for key, value in extra.items():
        if isinstance(value, (int, float)):
            print(f"  {key} = {value:.6g}")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    for f in {(f["id"], f["problem"], f["known"]) for f in failures}:
        print(f"  {'known failure' if f[2] else 'FAILED'}: {f[0]}: {f[1]}")
    for p in check_problems:
        print(f"  CHECK FAILED: {p}")
    for name, why in extra.get("absent", {}).items():
        print(f"  absent: {name}: {why}")
    print(f"  details: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    wdir = WORK / wl.name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    if args.trace:
        return run_traced(wl, args, wdir)
    setup = measure_setup(1 if args.quick else SETUP_PROBES)
    runner = Runner(wl, args.seed, wdir)
    if args.quick:
        runner.rounds.append(runner.run_round(0))
        measured = runner.rounds
    else:
        runner.rounds.append(runner.run_round(0))        # warm-up, checked not timed
        runner.run_for(args.seconds, 1)
        measured = runner.rounds[1:]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics, extra = end_to_end(wl, measured, setup, rss_mb)
    problems = runner.check_pass()
    return emit(wl, args, metrics, runner.rounds, problems, extra)


def run_traced(wl, args, wdir: Path) -> int:
    import spans

    tracer = spans.Tracer()
    runner = Runner(wl, args.seed, wdir, tracer)
    runner.rounds.append(runner.run_round(0))        # warm-up, checked not timed
    # Untraced and traced rounds alternate, so the tracing overhead compares
    # rounds run at the same time on a machine whose speed drifts.
    t_end = perf_counter() + args.seconds
    r = 1
    while r < 3 or (not args.quick and perf_counter() < t_end):
        runner.rounds.append(runner.run_round(r, traced=r % 2 == 0))
        r += 1
    own = [rec for rec in runner.rounds if rec["traced"]]
    untraced = [rec for rec in runner.rounds[1:] if not rec["traced"]]
    metrics, extra = per_layer(runner, tracer, own, untraced)
    tracer.write(wdir / "spans.jsonl")
    extra["spans"] = len(tracer.spans)
    problems = extra["coverage_problems"] + runner.check_pass()
    return emit(wl, args, metrics, runner.rounds, problems, extra)


def run_all(args) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    names = [w["name"] for w in spec()["workloads"]]
    table, status = [], 0
    for name in names:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        for metric, v in result["metrics"].items():
            table.append((name, metric, v["value"], v["unit"]))
    print()
    for name, metric, value, unit in table:
        print(f"{name:18} {metric:40} {value:14.6g} {unit}")
    return status


def record_digests() -> int:
    import workloads

    recorded = {}
    for name, wl in workloads.WORKLOADS.items():
        wdir = WORK / name
        shutil.rmtree(wdir, ignore_errors=True)
        rec = Runner(wl, DEFAULT_SEED, wdir).run_round(0)
        bad = [j["id"] for j in rec["jobs"] if j["problem"] and not j["known"]]
        if bad:
            sys.exit(f"error: {name}: jobs {bad} failed; digests not recorded")
        recorded[name] = {j["id"]: j["digest"] for j in rec["jobs"] if not j["known_failure"]}
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec_seconds())
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="one short round per run")
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--record-digests", action="store_true")
    ap.add_argument("--setup-probe", choices=("balext", "reference"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if args.setup_probe == "reference":
        import numpy  # noqa: F401

        print(perf_counter())
        return 0
    import_balext()
    import workloads

    if args.setup_probe:
        print(perf_counter())
        return 0
    if args.all:
        return run_all(args)
    if args.record_digests:
        return record_digests()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    return run_workload(args)


def spec_seconds() -> float:
    try:
        return float(spec()["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 10.0


if __name__ == "__main__":
    sys.exit(main())
