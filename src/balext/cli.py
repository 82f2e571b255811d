"""Command-line surface.

Every subcommand is deterministic given its flags (seeds included):
repeated invocations produce byte-identical output files, and worker-count
flags never change results.  Bit files are raw bytes, most significant bit
first; an optional --bits flag truncates the trailing bits of the last
byte.  Exit codes: 0 success, 1 invalid parameters, 2 verification
failure, 3 I/O errors.  Errors print one machine-parsable line to stderr:
``error: <code>: <detail>``.

A line that starts with a subcommand is parsed once, by that subcommand's
own parser; any other line goes to the top-level parser, which refuses it
or prints help.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .core import (
    BitString,
    InvalidParams,
    NotFound,
    OutOfRange,
    TableParams,
    TooLarge,
    derive_seq_schedule,
    parse_fraction,
    seed64,
)
from .extract import TablePolicy, build_table, extract_conditional, extract_string
from .seqtransform import BitStringStream, SequenceTransformer
from .sources import PlantedPairSpec, run_extraction_experiment
from .tables import BalancedTable, existence_condition_exponents
from .verify import verify_exhaustive, verify_prefix_balance, verify_sampled

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2
EXIT_IO = 3

_MAX_BLOCKS = 64             # longest transform schedule


class _CliError(Exception):
    def __init__(self, exit_code: int, code: str, detail: str):
        super().__init__(detail)
        self.exit_code = exit_code
        self.code = code


def _read_bits(path: str, bits: int | None) -> BitString:
    if bits is not None and bits < 0:
        raise InvalidParams(f"--bits must be >= 0, got {bits}")
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise _CliError(EXIT_IO, "io", f"cannot read {path}: {e}") from e
    try:
        return BitString.from_bytes(data, bits)
    except InvalidParams as e:
        raise _CliError(EXIT_IO, "io", f"{path}: {e}") from e


def _write_bytes(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as e:
        raise _CliError(EXIT_IO, "io", f"cannot write {path}: {e}") from e


def _int_auto(text: str) -> int:
    return int(text, 0)


def _seed64(seed: int) -> int:
    return seed64(seed, "--seed")


def _cmd_gen_table(args) -> int:
    if args.backend == "canonical" and args.seed is not None:
        raise InvalidParams("--seed does not apply to --backend canonical")
    seed = 0 if args.seed is None else args.seed
    if args.backend == "random":
        _seed64(seed)
    params = TableParams(args.n_exp, args.m_exp, args.s_exp, args.d_exp)
    # uncached: a table written to a file is not kept; the write also gives the digest
    table = build_table(params, TablePolicy(args.backend, seed=seed, key=seed))
    try:
        table.write(args.out)
    except OSError as e:
        raise _CliError(EXIT_IO, "io", f"cannot write {args.out}: {e}") from e
    print(f"backend={table.backend_name} digest={table.digest()}")
    return EXIT_OK


def _cmd_verify_table(args) -> int:
    if args.prefix_balance and args.d_exp is not None:
        raise InvalidParams("--d-exp does not apply to --prefix-balance (D = M)")
    if args.mode == "exhaustive" and (args.samples, args.seed) != (None, None):
        raise InvalidParams("--samples and --seed apply to sampled mode only")
    if args.mode == "exhaustive" and args.threads < 1:
        raise InvalidParams("need threads >= 1")
    samples = 1000 if args.samples is None else args.samples
    seed = _seed64(0 if args.seed is None else args.seed)
    try:
        table = BalancedTable.read(args.table)
    except OSError as e:
        raise _CliError(EXIT_IO, "io", f"cannot read {args.table}: {e}") from e
    s_exp = args.s_exp if args.s_exp is not None else table.params.s_exp
    d_exp = args.d_exp if args.d_exp is not None else table.params.d_exp
    if args.prefix_balance:
        report = verify_prefix_balance(table, s_exp, mode=args.mode, samples=samples,
                                       seed=seed, threads=args.threads)
    elif args.mode == "exhaustive":
        report = verify_exhaustive(table, s_exp, d_exp)
    else:
        report = verify_sampled(table, s_exp, d_exp, samples, seed, threads=args.threads)
    doc = report.to_json()
    if args.report:
        _write_bytes(args.report, doc.encode() + b"\n")
    print(doc)
    if not report.passed:
        print("error: verify-failed: table failed the balance check", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _cmd_check_condition(args) -> int:
    check = existence_condition_exponents(args.n_exp, args.m_exp, args.s_exp, args.d_exp)
    print(f"holds={str(check.holds).lower()}")
    print(f"lhs={check.lhs}")
    print(f"rhs={float(check.rhs):.10g}")
    return EXIT_OK


def _cmd_extract(args) -> int:
    policy = TablePolicy(seed=_seed64(args.seed))
    x = _read_bits(args.x, args.bits)
    y = _read_bits(args.y, args.bits)
    z = extract_string(x, y, parse_fraction(args.sigma), parse_fraction(args.alpha), policy)
    _write_bytes(args.out, z.to_bytes())
    print(f"bits={len(z)} out={args.out}")
    return EXIT_OK


def _cmd_extract_cond(args) -> int:
    policy = TablePolicy(seed=_seed64(args.seed))
    x = _read_bits(args.x, args.bits)
    y = _read_bits(args.y, args.bits)
    z = extract_conditional(x, y, args.s, args.alpha, policy)
    _write_bytes(args.out, z.to_bytes())
    print(f"bits={len(z)} out={args.out}")
    return EXIT_OK


def _cmd_transform(args) -> int:
    policy = TablePolicy(seed=_seed64(args.seed))
    x = _read_bits(args.x, None)
    y = _read_bits(args.y, None)
    # the longest schedule: the transformer reads no block past the one
    # that holds the last requested output bit
    schedule = derive_seq_schedule(
        parse_fraction(args.tau), parse_fraction(args.delta), args.block_base,
        _MAX_BLOCKS,
    )
    if schedule.total_output_bits < args.out_bits:
        raise _CliError(
            EXIT_INVALID, "invalid-params",
            "schedule cannot cover the requested output length",
        )
    used = schedule.block_of_output(args.out_bits - 1) if args.out_bits > 0 else 0
    needed = schedule.input_ends[used - 1] if used else 0
    if needed > len(x) or needed > len(y):
        raise _CliError(
            EXIT_IO, "io",
            f"input too short: need {needed} bits, have {len(x)} (x) / {len(y)} (y)",
        )
    tr = SequenceTransformer(BitStringStream(x), BitStringStream(y), schedule, policy)
    z = tr.transform_prefix(args.out_bits)
    _write_bytes(args.out, z.to_bytes())
    print(f"bits={len(z)} blocks_used={used} out={args.out}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    spec = PlantedPairSpec(
        args.n, parse_fraction(args.sigma), parse_fraction(args.alpha), _seed64(args.seed)
    )
    if args.threads < 1:
        raise InvalidParams("need threads >= 1")
    report = run_extraction_experiment(spec, args.trials, TablePolicy(seed=args.seed))
    if args.csv:
        try:
            report.write_csv(args.csv)
        except OSError as e:
            raise _CliError(EXIT_IO, "io", f"cannot write {args.csv}: {e}") from e
    if args.summary:
        _write_bytes(args.summary, report.to_json().encode() + b"\n")
    print(report.to_json())
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Refuses a malformed command line like any other invalid parameter:
    one ``error: invalid-params:`` line and exit 1, not argparse's usage
    block and exit 2, the code of a failed verification."""

    def error(self, message: str):
        raise InvalidParams(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process."""
    ap = _Parser(
        prog="balext",
        description="Construct and verify balanced color tables and run the "
        "table-indexing extractors over strings, streams, and experiments.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-table", help="construct a table and write it to a file")
    p.add_argument("--n-exp", type=int, required=True, help="log2 of the side N")
    p.add_argument("--m-exp", type=int, required=True, help="log2 of the color count M")
    p.add_argument("--s-exp", type=int, required=True, help="log2 of the rectangle side S")
    p.add_argument("--d-exp", type=int, required=True, help="log2 of the divisor D")
    p.add_argument("--backend", choices=["random", "canonical", "keyed"],
                   default="random")
    p.add_argument("--seed", type=_int_auto, default=None,
                   help="64-bit seed (random) or raw 128-bit key (keyed), default 0; "
                   "not with --backend canonical; 0x-hex accepted")
    p.add_argument("--out", required=True, help="output table file (BTAB format)")
    p.set_defaults(fn=_cmd_gen_table)

    p = sub.add_parser("verify-table", help="check a table file for balance")
    p.add_argument("--table", required=True, help="table file (BTAB format)")
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--samples", type=int, default=None,
                   help="rectangle count, default 1000; sampled mode only")
    p.add_argument("--seed", type=_int_auto, default=None,
                   help="64-bit sampling seed, default 0; sampled mode only")
    p.add_argument("--prefix-balance", action="store_true",
                   help="check color-prefix buckets at every length (D = M regime)")
    p.add_argument("--s-exp", type=int, default=None,
                   help="override the table's stored s_exp")
    p.add_argument("--d-exp", type=int, default=None,
                   help="override the table's stored d_exp; not with --prefix-balance")
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads, must be >= 1; applies to sampled mode only")
    p.set_defaults(fn=_cmd_verify_table)

    p = sub.add_parser(
        "check-condition",
        help="evaluate the balanced-table existence inequality "
        "S^2 > 3M + 3M ln D + 6SD + 6SD ln(N/S)",
    )
    p.add_argument("--n-exp", type=int, required=True)
    p.add_argument("--m-exp", type=int, required=True)
    p.add_argument("--s-exp", type=int, required=True)
    p.add_argument("--d-exp", type=int, required=True)
    p.set_defaults(fn=_cmd_check_condition)

    p = sub.add_parser("extract", help="extract from two equal-length bit files")
    p.add_argument("--x", required=True, help="first input bit file (MSB-first bytes)")
    p.add_argument("--y", required=True, help="second input bit file")
    p.add_argument("--sigma", required=True, help="complexity rate as P/Q")
    p.add_argument("--alpha", required=True, help="dependency rate as P/Q")
    p.add_argument("--bits", type=int, default=None,
                   help="truncate both inputs to this many bits")
    p.add_argument("--seed", type=_int_auto, default=0)
    p.add_argument("--out", required=True, help="output bit file")
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("extract-cond",
                       help="conditional extraction (D = M parameterization)")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--s", type=int, required=True, help="complexity threshold in bits")
    p.add_argument("--alpha", type=int, required=True, help="dependency bound in bits")
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--seed", type=_int_auto, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_extract_cond)

    p = sub.add_parser("transform",
                       help="block-wise transform of two input streams")
    p.add_argument("--x", required=True, help="first input stream file")
    p.add_argument("--y", required=True, help="second input stream file")
    p.add_argument("--tau", required=True, help="input randomness rate as P/Q")
    p.add_argument("--delta", required=True, help="target rate defect as P/Q")
    p.add_argument("--B", dest="block_base", type=int, required=True,
                   help="block growth base (n_i = B**i)")
    p.add_argument("--out-bits", type=int, required=True)
    p.add_argument("--seed", type=_int_auto, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("experiment",
                       help="planted-pair extraction experiment with metrics")
    p.add_argument("--n", type=int, required=True, help="input length in bits")
    p.add_argument("--sigma", required=True, help="complexity rate as P/Q")
    p.add_argument("--alpha", required=True, help="planted dependency rate as P/Q")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=_int_auto, default=0)
    p.add_argument("--csv", default=None, help="per-trial CSV output")
    p.add_argument("--summary", default=None, help="JSON summary output")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility, must be >= 1; trials run "
                   "in one thread")
    p.set_defaults(fn=_cmd_experiment)

    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        ap = build_parser()
        sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
        own = sub.choices.get(argv[0]) if argv else None
        args = own.parse_args(argv[1:]) if own else ap.parse_args(argv)
        return args.fn(args)
    except _CliError as e:
        print(f"error: {e.code}: {e}", file=sys.stderr)
        return e.exit_code
    except (InvalidParams, OutOfRange) as e:
        print(f"error: invalid-params: {e}", file=sys.stderr)
        return EXIT_INVALID
    except TooLarge as e:
        print(f"error: too-large: {e}", file=sys.stderr)
        return EXIT_INVALID
    except NotFound as e:
        print(f"error: not-found: {e}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as e:
        print(f"error: io: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
