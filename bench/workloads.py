"""The four benchmark workloads: the job list of one round of each.

A round is one user session at one seed. Every round of a workload runs the
same job list; only the round seed changes, so round-time percentiles
describe one job shape. Jobs drive balext through its CLI
(``balext.cli.main``, called in-process) or through public library
functions, and each job carries a check of its own output.

Sizes were chosen so that one round takes well under a second on a 2-core
machine, which gives enough rounds in a run for a tail percentile.
"""

from __future__ import annotations

import hashlib
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

from balext import cli, core, extract, seqtransform, sources

import checks

ROOT = Path(__file__).resolve().parent.parent

# The one job whose failure is known at the commit that defined the benchmark:
# the experiment runs every trial, then serializing the keyed table for the
# report digest fails. It stays in `long-inputs` and counts as failed, so a
# fix lowers the failure share without moving any timing.
KNOWN_FAILURE_N256 = "error: invalid-params: n_exp = 256 exceeds file-format range (255)"


def derive_seed(*parts) -> int:
    """A 32-bit seed from labelled parts; stable across platforms."""
    text = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


def seeded_bytes(n: int, *parts) -> bytes:
    return hashlib.shake_256("/".join(str(p) for p in parts).encode()).digest(n)


@dataclass
class Context:
    """What a job list is built from: the round seed, the directory its files
    go to, and the ``--threads`` value for jobs that take one."""

    seed: int
    dir: Path
    threads: int = 1


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    seconds: float
    error: str | None = None           # exception raised out of the call
    info: dict = field(default_factory=dict)

    @property
    def error_line(self) -> str:
        if self.error:
            return self.error
        lines = self.stderr.strip().splitlines()
        return lines[-1] if lines else ""


@dataclass
class Job:
    id: str
    call: Callable[["Job"], int]       # runs the job, returns its exit code
    check: Callable[["Job", Result], str | None]   # None, or why the output is wrong
    work: dict[str, int]               # rects / trials / in_bits the job consumes
    outputs: tuple[Path, ...] = ()
    argv: list[str] | None = None      # CLI jobs only
    ok_codes: tuple[int, ...] = (0,)   # exit codes that are a normal outcome
    known_failure: str | None = None   # the error line of a known defect
    info: dict = field(default_factory=dict)

    def run(self) -> Result:
        out, err = io.StringIO(), io.StringIO()
        error = None
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = self.call(self)
            except Exception as e:  # a crash is a failed job, not a failed run
                code = -1
                error = f"{type(e).__name__}: {e}"
            t1 = perf_counter()
        return Result(code, out.getvalue(), err.getvalue(), t1 - t0, error, self.info)

    def digest(self, res: Result) -> dict:
        """Byte digests of everything the job produced."""
        files = {}
        for p in self.outputs:
            files[p.name] = checks.sha256_file(p) if p.exists() else None
        return {
            "code": res.code,
            "stdout": checks.sha256_text(res.stdout),
            "stderr": checks.sha256_text(res.stderr),
            "files": files,
        }


def _rel(p: Path) -> str:
    return str(p.relative_to(ROOT))


def _cli_job(jid, argv, check, work, outputs=(), **kw) -> Job:
    argv = [str(a) for a in argv]
    return Job(jid, lambda job: cli.main(job.argv), check, work, tuple(outputs),
               argv, **kw)


# ---------------------------------------------------------------------------
# Job constructors
# ---------------------------------------------------------------------------


def gen_table(jid, out: Path, n, m, s, d, seed, backend="random") -> Job:
    argv = ["gen-table", "--n-exp", n, "--m-exp", m, "--s-exp", s, "--d-exp", d,
            "--backend", backend, "--seed", seed, "--out", _rel(out)]

    def check(job, res):
        want = f"backend={backend} digest={checks.sha256_file(out)}\n"
        return None if res.stdout == want else f"stdout {res.stdout!r} != {want!r}"

    return _cli_job(jid, argv, check, {}, [out])


def verify_table(jid, ctx: Context, table: Path, mode, n_side, s_exp, *,
                 samples=None, d_exp=None, prefix=False) -> Job:
    report = table.with_name(f"{jid}.json")
    argv = ["verify-table", "--table", _rel(table), "--mode", mode]
    if samples is not None:
        argv += ["--samples", samples, "--seed", derive_seed(ctx.seed, jid)]
    if d_exp is not None:
        argv += ["--d-exp", d_exp]
    if prefix:
        argv += ["--prefix-balance"]
    argv += ["--report", _rel(report), "--threads", ctx.threads]
    rects = samples if samples is not None else math.comb(n_side, 1 << s_exp) ** 2

    def check(job, res):
        return checks.check_verify_report(res, table, report, mode, rects, d_exp, prefix)

    return _cli_job(jid, argv, check, {"rects": rects}, [report], ok_codes=(0, 2))


def experiment(jid, ctx: Context, n, alpha, trials, known_failure=None) -> Job:
    csv_path = ctx.dir / f"{jid}.csv"
    summary = ctx.dir / f"{jid}.json"
    argv = ["experiment", "--n", n, "--sigma", "1/2", "--alpha", alpha,
            "--trials", trials, "--seed", ctx.seed,
            "--csv", _rel(csv_path), "--summary", _rel(summary),
            "--threads", ctx.threads]

    def check(job, res):
        return checks.check_experiment(res, csv_path, summary, n, Fraction(1, 2),
                                       Fraction(alpha), trials)

    work = {"trials": trials, "in_bits": 2 * n * trials}
    return _cli_job(jid, argv, check, work, [csv_path, summary],
                    known_failure=known_failure)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def verify_exhaustive_jobs(ctx: Context) -> list[Job]:
    a, b = ctx.dir / "a.btab", ctx.dir / "b.btab"
    return [
        gen_table("gen-n8", a, 3, 2, 2, 1, derive_seed(ctx.seed, "a")),
        verify_table("exh-d2", ctx, a, "exhaustive", 8, 2, d_exp=1),
        verify_table("exh-d4", ctx, a, "exhaustive", 8, 2, d_exp=2),
        verify_table("exh-prefix", ctx, a, "exhaustive", 8, 2, prefix=True),
        gen_table("gen-n16", b, 4, 2, 1, 1, derive_seed(ctx.seed, "b")),
        verify_table("exh-n16-s2", ctx, b, "exhaustive", 16, 1),
    ]


SAMPLED_EXPLICIT = 64
SAMPLED_KEYED = 48


def verify_sampled_jobs(ctx: Context) -> list[Job]:
    e, k = ctx.dir / "explicit.btab", ctx.dir / "keyed.btab"
    return [
        gen_table("gen-explicit", e, 10, 4, 8, 3, derive_seed(ctx.seed, "e")),
        verify_table("sampled-explicit", ctx, e, "sampled", 1 << 10, 8,
                     samples=SAMPLED_EXPLICIT),
        verify_table("sampled-explicit-prefix", ctx, e, "sampled", 1 << 10, 8,
                     samples=SAMPLED_EXPLICIT, prefix=True),
        gen_table("gen-keyed", k, 16, 8, 8, 3, derive_seed(ctx.seed, "k"), "keyed"),
        verify_table("sampled-keyed", ctx, k, "sampled", 1 << 16, 8,
                     samples=SAMPLED_KEYED),
        verify_table("sampled-keyed-prefix", ctx, k, "sampled", 1 << 16, 8,
                     samples=SAMPLED_KEYED, prefix=True),
    ]


EXPERIMENT_TRIALS = 128


def experiment_short_jobs(ctx: Context) -> list[Job]:
    return [experiment(f"exp-alpha{a.replace('/', '_')}", ctx, 12, a, EXPERIMENT_TRIALS)
            for a in ("0", "1/8", "1/4")]


STREAM_BYTES = 8192
TRANSFORM_OUT_BITS = 30000
SCHEDULE = (Fraction(1, 2), Fraction(1, 2), 2)   # tau, delta, block base B
OUTPUT_BIT_BLOCKS = (2, 3, 4, 6, 8, 10, 12)
DEP_BITS = 1024
N256_TRIALS = 8


def long_inputs_jobs(ctx: Context) -> list[Job]:
    xf, yf = ctx.dir / "x.bin", ctx.dir / "y.bin"
    xf.write_bytes(seeded_bytes(STREAM_BYTES, ctx.seed, "x"))
    yf.write_bytes(seeded_bytes(STREAM_BYTES, ctx.seed, "y"))
    x = core.BitString.from_bytes(xf.read_bytes())
    y = core.BitString.from_bytes(yf.read_bytes())
    z = ctx.dir / "z.bin"
    tseed = derive_seed(ctx.seed, "transform")
    tau, delta, base = SCHEDULE
    jobs = [_cli_job(
        "transform",
        ["transform", "--x", _rel(xf), "--y", _rel(yf), "--tau", str(tau),
         "--delta", str(delta), "--B", base, "--out-bits", TRANSFORM_OUT_BITS,
         "--seed", tseed, "--out", _rel(z)],
        lambda job, res: checks.check_bits_out(res, z, TRANSFORM_OUT_BITS),
        {"in_bits": 2 * checks.input_end(SCHEDULE, TRANSFORM_OUT_BITS - 1)},
        [z],
    )]
    for blk in OUTPUT_BIT_BLOCKS:
        start, end = checks.output_range(SCHEDULE, blk)
        pos = start + derive_seed(ctx.seed, "pos", blk) % (end - start)
        jobs.append(_output_bit_job(f"output-bit-block{blk}", x, y, tseed, pos, z))
    ext, cond = ctx.dir / "e.bin", ctx.dir / "c.bin"
    eseed = derive_seed(ctx.seed, "extract")
    jobs.append(_cli_job(
        "extract-4096",
        ["extract", "--x", _rel(xf), "--y", _rel(yf), "--sigma", "1/2",
         "--alpha", "1/8", "--bits", 4096, "--seed", eseed, "--out", _rel(ext)],
        lambda job, res: checks.check_bits_out(res, ext, checks.string_m_exp(4096)),
        {"in_bits": 2 * 4096}, [ext],
    ))
    jobs.append(_cli_job(
        "extract-cond-1024",
        ["extract-cond", "--x", _rel(xf), "--y", _rel(yf), "--s", 512,
         "--alpha", 32, "--bits", 1024, "--seed", eseed, "--out", _rel(cond)],
        lambda job, res: checks.check_bits_out(res, cond, checks.cond_m_exp(1024, 512)),
        {"in_bits": 2 * 1024}, [cond],
    ))
    jobs.append(_dep_job("dep-independent", x.prefix(DEP_BITS), y.prefix(DEP_BITS),
                         duplicated=False))
    jobs.append(_dep_job("dep-duplicated", x.prefix(DEP_BITS), x.prefix(DEP_BITS),
                         duplicated=True))
    jobs.append(experiment("exp-n256", ctx, 256, "1/8", N256_TRIALS,
                           known_failure=KNOWN_FAILURE_N256))
    return jobs


def _output_bit_job(jid, x, y, tseed: int, pos: int, z: Path) -> Job:
    def call(job):
        # Every round counts reads, so traced and untraced rounds do the same work.
        xs = seqtransform.CountingBitStream(seqtransform.BitStringStream(x))
        ys = seqtransform.CountingBitStream(seqtransform.BitStringStream(y))
        tau, delta, base = SCHEDULE
        schedule = core.derive_seq_schedule(tau, delta, base, 15)
        tr = seqtransform.SequenceTransformer(
            xs, ys, schedule, extract.TablePolicy(kind="auto", seed=tseed))
        bit = tr.output_bit(pos)
        job.info["bits_read"] = xs.reads + ys.reads
        print(f"pos={pos} bit={bit}")
        return 0

    return Job(jid, call,
               lambda job, res: checks.check_output_bit(res, z, pos),
               {"in_bits": 2 * checks.input_end(SCHEDULE, pos)})


def _dep_job(jid, x, y, duplicated: bool) -> Job:
    def call(job):
        print(f"dep={sources.dep_estimate(x, y, sources.MatchCompressor())!r}")
        return 0

    return Job(jid, call, lambda job, res: checks.check_dep(res, x, duplicated),
               {"in_bits": len(x) + len(y)})


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str        # the work a round does: rects, trials or in_bits
    rate: str        # name of the work rate in the report
    build: Callable[[Context], list[Job]]


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-exhaustive", "rects", "rects_per_s", verify_exhaustive_jobs),
        Workload("verify-sampled", "rects", "rects_per_s", verify_sampled_jobs),
        Workload("experiment-short", "trials", "trials_per_s", experiment_short_jobs),
        Workload("long-inputs", "in_bits", "in_bits_per_s", long_inputs_jobs),
    )
}
