import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from balext import cli, extract
from balext.cli import build_parser, main
from balext.core import TableParams
from balext.extract import TablePolicy, build_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheckCondition:
    def test_holding_example(self, capsys):
        code, out, _ = run(
            capsys, "check-condition", "--n-exp", "10", "--m-exp", "4",
            "--s-exp", "8", "--d-exp", "1",
        )
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert lines["holds"] == "true"
        assert lines["lhs"] == "65536"
        assert abs(float(lines["rhs"]) - 7411.967342) < 1e-3

    def test_failing_example(self, capsys):
        code, out, _ = run(
            capsys, "check-condition", "--n-exp", "3", "--m-exp", "2",
            "--s-exp", "2", "--d-exp", "1",
        )
        assert code == 0
        assert "holds=false" in out

    def test_invalid_exponents(self, capsys):
        code, _, err = run(
            capsys, "check-condition", "--n-exp", "2", "--m-exp", "2",
            "--s-exp", "5", "--d-exp", "1",
        )
        assert code == 1
        assert err.startswith("error: invalid-params:")

    def test_huge_exponent_is_one_line_error(self, capsys):
        code, stdout, err = run(
            capsys, "check-condition", "--n-exp", str(2**64), "--m-exp", "2",
            "--s-exp", "1", "--d-exp", "1",
        )
        assert code == 1 and stdout == ""
        assert err == "error: too-large: exponents above 65535 are not evaluated\n"


class TestGenVerify:
    def test_roundtrip_random(self, tmp_path, capsys):
        out = tmp_path / "t.btab"
        code, stdout, _ = run(
            capsys, "gen-table", "--n-exp", "3", "--m-exp", "2", "--s-exp", "2",
            "--d-exp", "1", "--backend", "random", "--seed", "5",
            "--out", str(out),
        )
        assert code == 0 and out.exists()
        code, stdout, _ = run(
            capsys, "verify-table", "--table", str(out), "--mode", "exhaustive",
            "--report", str(tmp_path / "rep.json"),
        )
        assert code == 0
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert doc["passed"] is True

    def test_verify_failure_exit_2(self, tmp_path, capsys):
        out = tmp_path / "bad.btab"
        # canonical all-zero table at D=1, then verify against D=4
        code, _, _ = run(
            capsys, "gen-table", "--n-exp", "1", "--m-exp", "2", "--s-exp", "1",
            "--d-exp", "0", "--backend", "canonical", "--out", str(out),
        )
        assert code == 0
        code, stdout, err = run(
            capsys, "verify-table", "--table", str(out), "--d-exp", "2",
            "--report", str(tmp_path / "rep.json"),
        )
        assert code == 2
        assert "verify-failed" in err
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert doc["passed"] is False and doc["witness"] is not None

    @pytest.mark.parametrize("backend, n_exp, seed", [
        ("random", 6, 7), ("keyed", 40, 2**127 + 5), ("canonical", 1, None)])
    def test_gen_table_builds_through_build_table(self, tmp_path, capsys,
                                                  backend, n_exp, seed):
        # gen-table builds uncached through the one policy-to-builder map,
        # and for keyed tables --seed is the raw key
        out = tmp_path / "t.btab"
        seed_argv = [] if seed is None else ["--seed", str(seed)]
        code, stdout, _ = run(
            capsys, "gen-table", "--n-exp", str(n_exp), "--m-exp", "2", "--s-exp", "1",
            "--d-exp", "1", "--backend", backend, *seed_argv, "--out", str(out),
        )
        assert code == 0
        want = build_table(TableParams(n_exp, 2, 1, 1),
                           TablePolicy(backend, seed=seed or 0, key=seed))
        assert out.read_bytes() == want.to_bytes()
        assert stdout == f"backend={backend} digest={want.digest()}\n"
        assert want.seed_or_key == (seed or 0)
        assert extract._table_cache == {}
        assert not {"random_table", "keyed_table", "canonical_table"} & set(vars(cli))

    def test_canonical_refuses_seed(self, tmp_path, capsys):
        # the canonical search takes no seed, so a --seed would be ignored
        out = tmp_path / "t.btab"
        code, stdout, err = run(
            capsys, "gen-table", "--n-exp", "1", "--m-exp", "2", "--s-exp", "1",
            "--d-exp", "0", "--backend", "canonical", "--seed", "0", "--out", str(out),
        )
        assert code == 1 and stdout == "" and not out.exists()
        assert err == "error: invalid-params: --seed does not apply to --backend canonical\n"

    @pytest.mark.parametrize("flag", ["--samples", "--seed"])
    def test_exhaustive_refuses_sampling_flags(self, tmp_path, capsys, flag):
        # exhaustive mode draws nothing, so either flag would be ignored
        out, report = tmp_path / "t.btab", tmp_path / "r.json"
        run(
            capsys, "gen-table", "--n-exp", "3", "--m-exp", "2", "--s-exp", "2",
            "--d-exp", "2", "--backend", "random", "--seed", "3", "--out", str(out),
        )
        code, stdout, err = run(
            capsys, "verify-table", "--table", str(out), flag, "5", "--report", str(report),
        )
        assert code == 1 and stdout == "" and not report.exists()
        assert err == ("error: invalid-params: --samples and --seed apply to "
                       "sampled mode only\n")

    def test_sampled_threads_identical(self, tmp_path, capsys):
        out = tmp_path / "t.btab"
        run(
            capsys, "gen-table", "--n-exp", "6", "--m-exp", "3", "--s-exp", "4",
            "--d-exp", "3", "--backend", "random", "--seed", "1", "--out", str(out),
        )
        reports = []
        for k in ("1", "4"):
            code, stdout, _ = run(
                capsys, "verify-table", "--table", str(out), "--mode", "sampled",
                "--samples", "200", "--seed", "9", "--threads", k,
            )
            assert code == 0
            reports.append(stdout)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("n_exp", ["40", "64"])
    def test_sampled_keyed_wide_sides(self, tmp_path, capsys, n_exp):
        out = tmp_path / "k.btab"
        run(
            capsys, "gen-table", "--n-exp", n_exp, "--m-exp", "8", "--s-exp", "4",
            "--d-exp", "3", "--backend", "keyed", "--seed", "5", "--out", str(out),
        )
        code, stdout, err = run(
            capsys, "verify-table", "--table", str(out), "--mode", "sampled",
            "--samples", "20", "--seed", "3",
        )
        assert code in (0, 2)
        doc = json.loads(stdout)
        assert doc["samples"] == 20
        rows = doc["witness"]["rows"] if doc["witness"] else []
        assert all(0 <= r < 1 << int(n_exp) for r in rows)

    @pytest.mark.parametrize("argv", [
        ["--n-exp", "65", "--s-exp", "4"],      # draws beyond 64 bits
        ["--n-exp", "40", "--s-exp", "30"],     # a rectangle of 2^60 cells
    ])
    def test_sampled_keyed_too_large_is_one_line_error(self, tmp_path, capsys, argv):
        out = tmp_path / "k.btab"
        run(
            capsys, "gen-table", *argv, "--m-exp", "8", "--d-exp", "3",
            "--backend", "keyed", "--seed", "5", "--out", str(out),
        )
        code, stdout, err = run(
            capsys, "verify-table", "--table", str(out), "--mode", "sampled",
            "--samples", "2",
        )
        assert code == 1 and stdout == ""
        assert err.startswith("error: too-large:") and err.count("\n") == 1

    def test_prefix_balance_flag(self, tmp_path, capsys):
        out = tmp_path / "t.btab"
        run(
            capsys, "gen-table", "--n-exp", "3", "--m-exp", "2", "--s-exp", "2",
            "--d-exp", "2", "--backend", "random", "--seed", "3", "--out", str(out),
        )
        code, stdout, _ = run(
            capsys, "verify-table", "--table", str(out), "--prefix-balance",
        )
        doc = json.loads(stdout)
        assert doc["prefix_mode"] is True
        assert code in (0, 2)

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_prefix_balance_refuses_d_exp(self, tmp_path, capsys, mode):
        # the prefix check is D = M, so a --d-exp would be ignored
        out, report = tmp_path / "t.btab", tmp_path / "r.json"
        run(
            capsys, "gen-table", "--n-exp", "3", "--m-exp", "2", "--s-exp", "2",
            "--d-exp", "2", "--backend", "random", "--seed", "3", "--out", str(out),
        )
        code, stdout, err = run(
            capsys, "verify-table", "--table", str(out), "--mode", mode,
            "--prefix-balance", "--d-exp", "0", "--report", str(report),
        )
        assert code == 1 and stdout == "" and not report.exists()
        assert err.startswith("error: invalid-params: --d-exp") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--mode", "sampled", "--prefix-balance", "--s-exp", "4"],
        ["--s-exp", "-1"],
        ["--mode", "sampled", "--threads", "0"],
    ])
    def test_out_of_range_check_is_one_line_error(self, tmp_path, capsys, argv):
        out = tmp_path / "t.btab"
        run(
            capsys, "gen-table", "--n-exp", "3", "--m-exp", "2", "--s-exp", "2",
            "--d-exp", "2", "--backend", "random", "--seed", "3", "--out", str(out),
        )
        code, stdout, err = run(capsys, "verify-table", "--table", str(out), *argv)
        assert code == 1 and stdout == ""
        assert err.startswith("error: invalid-params:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--threads", "0"],
        ["--mode", "exhaustive", "--threads", "-2"],
        ["--prefix-balance", "--threads", "0"],
    ])
    def test_exhaustive_threads_below_one_refused(self, tmp_path, capsys, argv):
        # refused before the table is read: the path does not exist
        missing = str(tmp_path / "none.btab")
        code, stdout, err = run(capsys, "verify-table", "--table", missing, *argv)
        assert (code, stdout, err) == (1, "", "error: invalid-params: need threads >= 1\n")
        # the line sampled mode gives
        out = tmp_path / "t.btab"
        run(
            capsys, "gen-table", "--n-exp", "3", "--m-exp", "2", "--s-exp", "2",
            "--d-exp", "2", "--backend", "random", "--seed", "3", "--out", str(out),
        )
        sampled = run(capsys, "verify-table", "--table", str(out), "--mode", "sampled",
                      "--threads", "0")
        assert sampled == (code, stdout, err)

    def test_truncated_table_is_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "short.btab"
        out.write_bytes(b"BTAB\x01")
        code, _, err = run(capsys, "verify-table", "--table", str(out))
        assert code == 1
        assert err.startswith("error: invalid-params: truncated table file")
        assert err.count("\n") == 1

    def test_missing_table_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify-table", "--table", str(tmp_path / "no.btab"))
        assert code == 3
        assert err.startswith("error: io:")

    def test_gen_table_into_missing_directory_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "no" / "t.btab"
        code, stdout, err = run(
            capsys, "gen-table", "--n-exp", "3", "--m-exp", "2", "--s-exp", "2",
            "--d-exp", "1", "--seed", "5", "--out", str(out),
        )
        assert code == 3 and stdout == ""
        assert err.startswith(f"error: io: cannot write {out}: ")
        assert err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_gen_table_of_a_formula_table_onto_a_full_device(self, capsys):
        # the write fails inside the fill workers' stripe turns: every
        # worker stops, and the error is the usual one line
        threads = threading.active_count()
        code, stdout, err = run(
            capsys, "gen-table", "--n-exp", "12", "--m-exp", "8", "--s-exp", "4",
            "--d-exp", "2", "--seed", "5", "--out", "/dev/full",
        )
        assert code == 3 and stdout == ""
        assert err.startswith("error: io: cannot write /dev/full: ")
        assert err.count("\n") == 1
        assert threading.active_count() == threads

    def test_gen_table_beyond_file_format_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "wide.btab"
        code, stdout, err = run(
            capsys, "gen-table", "--n-exp", "300", "--m-exp", "8", "--s-exp", "4",
            "--d-exp", "3", "--backend", "keyed", "--out", str(out),
        )
        assert code == 1 and stdout == ""
        assert err == ("error: invalid-params: n_exp = 300 exceeds "
                       "file-format range (255)\n")
        assert not out.exists()

    def test_keyed_gen(self, tmp_path, capsys):
        out = tmp_path / "k.btab"
        code, stdout, _ = run(
            capsys, "gen-table", "--n-exp", "40", "--m-exp", "12", "--s-exp", "20",
            "--d-exp", "12", "--backend", "keyed", "--seed", "0xDEADBEEF",
            "--out", str(out),
        )
        assert code == 0
        assert "backend=keyed" in stdout


class TestExtractCommands:
    def test_extract_deterministic(self, tmp_path, capsys):
        x = tmp_path / "x.bin"
        y = tmp_path / "y.bin"
        x.write_bytes(bytes([0x00, 0x01]))
        y.write_bytes(bytes([0x80, 0x00]))
        outs = []
        for name in ("z1.bin", "z2.bin"):
            out = tmp_path / name
            code, stdout, _ = run(
                capsys, "extract", "--x", str(x), "--y", str(y),
                "--sigma", "1/2", "--alpha", "1/8", "--seed", "7",
                "--out", str(out),
            )
            assert code == 0
            assert "bits=12" in stdout
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_extract_golden_n12(self, tmp_path, capsys):
        # --bits 12 reduces the 16-bit files to the golden n=12 case
        x = tmp_path / "x.bin"
        y = tmp_path / "y.bin"
        x.write_bytes(bytes([0x00, 0x10]))  # first 12 bits = 0...01
        y.write_bytes(bytes([0x80, 0x00]))  # first 12 bits = 10...0
        out = tmp_path / "z.bin"
        code, stdout, _ = run(
            capsys, "extract", "--x", str(x), "--y", str(y), "--bits", "12",
            "--sigma", "1/2", "--alpha", "1/8", "--seed", "7", "--out", str(out),
        )
        assert code == 0 and "bits=8" in stdout
        assert out.read_bytes() == bytes([0b10101101])

    def test_extract_length_mismatch_exit_1(self, tmp_path, capsys):
        x = tmp_path / "x.bin"
        y = tmp_path / "y.bin"
        x.write_bytes(bytes(2))
        y.write_bytes(bytes(3))
        code, _, err = run(
            capsys, "extract", "--x", str(x), "--y", str(y),
            "--sigma", "1/2", "--alpha", "1/8", "--out", str(tmp_path / "z.bin"),
        )
        assert code == 1
        assert err.startswith("error: invalid-params:")

    def test_extract_cond(self, tmp_path, capsys):
        x = tmp_path / "x.bin"
        y = tmp_path / "y.bin"
        x.write_bytes(bytes(128))
        y.write_bytes(bytes(range(128)))
        out = tmp_path / "z.bin"
        code, stdout, _ = run(
            capsys, "extract-cond", "--x", str(x), "--y", str(y), "--s", "512",
            "--alpha", "32", "--seed", "11", "--out", str(out),
        )
        assert code == 0
        assert "bits=186" in stdout
        assert len(out.read_bytes()) == (186 + 7) // 8


class TestFlagValues:
    @pytest.mark.parametrize("value", ["1/x", "1/0", "abc", ""])
    def test_bad_rate_is_one_line_error(self, tmp_path, capsys, value):
        x = tmp_path / "x.bin"
        x.write_bytes(bytes(8))
        for argv in (
            ["transform", "--x", str(x), "--y", str(x), "--tau", value, "--delta", "1/2",
             "--B", "2", "--out-bits", "11"],
            ["extract", "--x", str(x), "--y", str(x), "--sigma", value, "--alpha", "1/8"],
        ):
            code, stdout, err = run(capsys, *argv, "--out", str(tmp_path / "z.bin"))
            assert code == 1 and stdout == ""
            assert err == f"error: invalid-params: not a fraction P/Q: {value!r}\n"

    @pytest.mark.parametrize("cmd,flags", [
        ("extract", ["--sigma", "1/2", "--alpha", "1/8"]),
        ("extract-cond", ["--s", "8", "--alpha", "2"]),
    ])
    def test_negative_bits_is_invalid_params(self, tmp_path, capsys, cmd, flags):
        x = tmp_path / "x.bin"
        x.write_bytes(bytes(2))
        code, stdout, err = run(
            capsys, cmd, "--x", str(x), "--y", str(x), *flags, "--bits", "-3",
            "--out", str(tmp_path / "z.bin"),
        )
        assert code == 1 and stdout == ""
        assert err == "error: invalid-params: --bits must be >= 0, got -3\n"
        assert not (tmp_path / "z.bin").exists()

    @pytest.mark.parametrize("argv,detail", [
        (["gen-table", "--n-exp", "x", "--m-exp", "2", "--s-exp", "1", "--d-exp", "1",
          "--out", "t.btab"], "argument --n-exp: invalid int value: 'x'"),
        (["gen-table", "--n-exp", "3"],
         "the following arguments are required: --m-exp, --s-exp, --d-exp, --out"),
        (["experiment", "--n", "12", "--sigma", "1/2", "--alpha", "0", "--trials", "4",
          "--threads"], "argument --threads: expected one argument"),
        (["check-condition", "--n-exp", "3", "--m-exp", "2", "--s-exp", "2",
          "--d-exp", "1", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
        (["bogus", "--n", "1"], "argument command: invalid choice: 'bogus' (choose from "
         "'gen-table', 'verify-table', 'check-condition', 'extract', 'extract-cond', "
         "'transform', 'experiment')"),
        (["--seed", "1", "gen-table"], "argument command: invalid choice: '1' (choose "
         "from 'gen-table', 'verify-table', 'check-condition', 'extract', "
         "'extract-cond', 'transform', 'experiment')"),
        (["-x", "check-condition", "--n-exp", "3", "--m-exp", "2", "--s-exp", "2",
          "--d-exp", "1"], "unrecognized arguments: -x"),
    ])
    def test_argparse_refusal_is_one_line_error(self, capsys, argv, detail):
        code, stdout, err = run(capsys, *argv)
        assert code == 1 and stdout == ""
        assert err == f"error: invalid-params: {detail}\n"

    def test_own_parser_namespace_equals_top_level(self):
        # main parses a line that starts with a subcommand with that
        # subcommand's parser alone; the top-level parser adds only "command"
        top = build_parser()
        sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
        dirs = {"in": "in", "out": "out"}
        for (cmd, flag), cases in _FLAG_CASES.items():
            for context, base, pair, _ in cases:
                for setting in pair:
                    argv = [a.format(**dirs) for a in base + setting]
                    want = vars(top.parse_args(argv))
                    assert want.pop("command") == argv[0]
                    got = vars(sub.choices[argv[0]].parse_args(argv[1:]))
                    assert got == want, (cmd, flag, context, setting)


class TestEntryPoint:
    @pytest.mark.parametrize("argv", [
        [],
        ["check-condition", "--n-exp", "10", "--m-exp", "2", "--s-exp", "8",
         "--d-exp", "1"],
    ])
    def test_module_run_equals_in_process_main(self, capsys, argv):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-m", "balext.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)


class TestTransformCommand:
    def test_transform_golden_length(self, tmp_path, capsys):
        x = tmp_path / "x.bin"
        y = tmp_path / "y.bin"
        x.write_bytes(bytes(8))
        y.write_bytes(bytes([0xFF] * 8))
        out = tmp_path / "z.bin"
        code, stdout, _ = run(
            capsys, "transform", "--x", str(x), "--y", str(y), "--tau", "1/2",
            "--delta", "1/2", "--B", "2", "--out-bits", "11", "--seed", "3",
            "--out", str(out),
        )
        assert code == 0
        assert "bits=11" in stdout
        assert len(out.read_bytes()) == 2

    def test_transform_deterministic(self, tmp_path, capsys):
        x = tmp_path / "x.bin"
        y = tmp_path / "y.bin"
        x.write_bytes(bytes([0xA5] * 8))
        y.write_bytes(bytes([0x3C] * 8))
        blobs = []
        for name in ("a.bin", "b.bin"):
            out = tmp_path / name
            code, _, _ = run(
                capsys, "transform", "--x", str(x), "--y", str(y), "--tau", "1/2",
                "--delta", "1/2", "--B", "2", "--out-bits", "11", "--seed", "3",
                "--out", str(out),
            )
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_transform_insufficient_input_exit_3(self, tmp_path, capsys):
        x = tmp_path / "x.bin"
        y = tmp_path / "y.bin"
        x.write_bytes(bytes(2))  # 16 bits < 30 needed
        y.write_bytes(bytes(8))
        code, _, err = run(
            capsys, "transform", "--x", str(x), "--y", str(y), "--tau", "1/2",
            "--delta", "1/2", "--B", "2", "--out-bits", "11", "--seed", "3",
            "--out", str(tmp_path / "z.bin"),
        )
        assert code == 3
        assert err.startswith("error: io:")


    @pytest.mark.parametrize("out_bits", [0, 1, 11, 400])
    def test_transform_matches_the_longest_schedule(self, tmp_path, capsys, out_bits):
        # the command runs the longest schedule, of which it reads only the
        # blocks it needs
        from balext.core import BitString, derive_seq_schedule
        from balext.extract import TablePolicy
        from balext.seqtransform import BitStringStream, SequenceTransformer

        data = bytes(range(7, 7 + 200))
        x, y = tmp_path / "x.bin", tmp_path / "y.bin"
        x.write_bytes(data)
        y.write_bytes(data[::-1])
        out = tmp_path / "z.bin"
        code, stdout, _ = run(
            capsys, "transform", "--x", str(x), "--y", str(y), "--tau", "1/2",
            "--delta", "1/2", "--B", "2", "--out-bits", str(out_bits), "--seed", "3",
            "--out", str(out),
        )
        assert code == 0
        tr = SequenceTransformer(
            BitStringStream(BitString.from_bytes(data)),
            BitStringStream(BitString.from_bytes(data[::-1])),
            derive_seq_schedule(Fraction(1, 2), Fraction(1, 2), 2, 64),
            TablePolicy(kind="auto", seed=3),
        )
        assert out.read_bytes() == tr.transform_prefix(out_bits).to_bytes()
        used = tr.schedule.block_of_output(out_bits - 1) if out_bits else 0
        assert stdout == f"bits={out_bits} blocks_used={used} out={out}\n"

    @pytest.mark.parametrize("x_bytes, tau, out_bits, code, out_len, sha, stdout, err", [
        # no output bits
        (200, "1/2", 0, 0, 0, hashlib.sha256(b"").hexdigest(),
         "bits=0 blocks_used=0 out={out}\n", ""),
        # the last output bit the inputs cover: block 9 ends at input bit 1022
        (200, "1/2", 491, 0, 62,
         "270d229a8dd4b21dd8468bd70a27fdfa0d780568d981198c12ab6919224a0b55",
         "bits=491 blocks_used=9 out={out}\n", ""),
        # one past it: block 10 ends at input bit 2046
        (200, "1/2", 492, 3, None, None, "",
         "error: io: input too short: need 2046 bits, have 1600 (x) / 1600 (y)\n"),
        # the last bit the 64-block schedule covers at tau = 2^-60, then one past it
        (200, f"1/{2**60}", 26, 3, None, None, "",
         "error: io: input too short: need 36893488147419103230 bits, "
         "have 1600 (x) / 1600 (y)\n"),
        (200, f"1/{2**60}", 27, 1, None, None, "",
         "error: invalid-params: schedule cannot cover the requested output length\n"),
        # x shorter than y
        (100, "1/2", 300, 3, None, None, "",
         "error: io: input too short: need 1022 bits, have 800 (x) / 1600 (y)\n"),
    ])
    def test_transform_bytes_are_pinned(self, tmp_path, capsys, x_bytes, tau, out_bits,
                                        code, out_len, sha, stdout, err):
        data = bytes(range(7, 7 + 200))
        x, y = tmp_path / "x.bin", tmp_path / "y.bin"
        x.write_bytes(data[:x_bytes])
        y.write_bytes(data[::-1])
        out = tmp_path / "z.bin"
        got = run(
            capsys, "transform", "--x", str(x), "--y", str(y), "--tau", tau,
            "--delta", "1/2", "--B", "2", "--out-bits", str(out_bits), "--seed", "3",
            "--out", str(out),
        )
        assert got == (code, stdout.format(out=out), err)
        if out_len is None:
            assert not out.exists()
        else:
            z = out.read_bytes()
            assert (len(z), hashlib.sha256(z).hexdigest()) == (out_len, sha)

    def test_transform_schedule_that_cannot_cover(self, tmp_path, capsys):
        x = tmp_path / "x.bin"
        x.write_bytes(bytes(8))
        code, _, err = run(
            capsys, "transform", "--x", str(x), "--y", str(x), "--tau", "1/" + "1" + "0" * 30,
            "--delta", "1/2", "--B", "2", "--out-bits", "1", "--out", str(tmp_path / "z"),
        )
        assert code == 1
        assert err == ("error: invalid-params: schedule cannot cover the requested "
                       "output length\n")


class TestExperimentCommand:
    def test_summary_and_csv(self, tmp_path, capsys):
        csvp = tmp_path / "e.csv"
        summ = tmp_path / "e.json"
        code, stdout, _ = run(
            capsys, "experiment", "--n", "12", "--sigma", "1/2", "--alpha", "0",
            "--trials", "300", "--seed", "9", "--csv", str(csvp),
            "--summary", str(summ),
        )
        assert code == 0
        doc = json.loads(summ.read_text())
        assert doc["trials"] == 300 and doc["m_exp"] == 8
        assert csvp.read_text().startswith("trial,seed,dep_planted,dep_hat,z_hex")

    def test_single_trial_entropies_print_positive_zero(self, tmp_path, capsys):
        summ = tmp_path / "e.json"
        code, stdout, _ = run(
            capsys, "experiment", "--n", "12", "--sigma", "1/2", "--alpha", "0",
            "--trials", "1", "--seed", "5", "--summary", str(summ),
        )
        text = summ.read_text()
        assert code == 0 and stdout == text
        assert '"collision_entropy": 0.0,' in text and '"min_entropy": 0.0,' in text
        assert "-0.0" not in text

    def test_exponents_beyond_file_format(self, capsys):
        # n = 256 needs a keyed table whose n_exp no file can hold; its
        # digest comes from the wide header
        code, stdout, _ = run(
            capsys, "experiment", "--n", "256", "--sigma", "1/2", "--alpha", "1/8",
            "--trials", "2", "--seed", "1",
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["n"] == 256 and len(doc["table_digest"]) == 64

    def test_threads_identical_bytes(self, tmp_path, capsys):
        blobs = []
        for k in ("1", "4"):
            summ = tmp_path / f"s{k}.json"
            csvp = tmp_path / f"c{k}.csv"
            code, _, _ = run(
                capsys, "experiment", "--n", "12", "--sigma", "1/2", "--alpha",
                "1/8", "--trials", "200", "--seed", "4", "--csv", str(csvp),
                "--summary", str(summ), "--threads", k,
            )
            assert code == 0
            blobs.append(summ.read_bytes() + csvp.read_bytes())
        assert blobs[0] == blobs[1]


    def test_zero_threads_is_one_line_error(self, capsys):
        code, stdout, err = run(
            capsys, "experiment", "--n", "12", "--sigma", "1/2", "--alpha", "1/8",
            "--trials", "10", "--seed", "1", "--threads", "0",
        )
        assert code == 1 and stdout == ""
        assert err.startswith("error: invalid-params:") and err.count("\n") == 1


class TestHelp:
    @pytest.mark.parametrize(
        "cmd",
        ["gen-table", "verify-table", "check-condition", "extract", "extract-cond",
         "transform", "experiment"],
    )
    def test_every_subcommand_has_help(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out and "usage" in out.lower()


# Every flag of every subcommand, case by case: the argv it is added to, two
# valid settings (an empty one leaves the flag out; argparse keeps the last
# of a repeated flag, so a required flag's pair follows the base argv), and
# what the pair must give.  "differ": output bytes (stdout and the files written)
# that differ; "refused": exit 1 with one invalid-params line each time;
# "same": identical bytes.  "ignored" also asks for identical bytes, and is
# allowed only for the flags in _IGNORED.  In argv, {in} is the input
# directory and {out} the output directory.
_GEN = ["gen-table", "--n-exp", "3", "--m-exp", "2", "--s-exp", "2", "--d-exp", "1",
        "--out", "{out}/t"]
_CANONICAL = ["gen-table", "--n-exp", "1", "--m-exp", "2", "--s-exp", "1",
              "--d-exp", "0", "--backend", "canonical", "--out", "{out}/t"]
_EXHAUSTIVE = ["verify-table", "--table", "{in}/t3"]
_SAMPLED = ["verify-table", "--table", "{in}/t3", "--mode", "sampled", "--s-exp", "1",
            "--d-exp", "2", "--samples", "16"]
_EXTRACT = ["extract", "--x", "{in}/x", "--y", "{in}/y", "--sigma", "1/2",
            "--alpha", "1/8", "--out", "{out}/z"]
_COND = ["extract-cond", "--x", "{in}/x", "--y", "{in}/y", "--s", "512",
         "--alpha", "32", "--out", "{out}/z"]
_TRANSFORM = ["transform", "--x", "{in}/x", "--y", "{in}/y", "--tau", "1/2",
              "--delta", "1/2", "--B", "2", "--out-bits", "11", "--out", "{out}/z"]
_EXPERIMENT = ["experiment", "--n", "12", "--sigma", "1/2", "--alpha", "1/8",
               "--trials", "16"]
_CHECK = ["check-condition", "--n-exp", "3", "--m-exp", "2", "--s-exp", "2",
          "--d-exp", "1"]


def _pair(flag, a, b):
    return [flag, a], [flag, b]


_FLAG_CASES = {
    ("gen-table", "--n-exp"): [("", _GEN, _pair("--n-exp", "3", "4"), "differ")],
    ("gen-table", "--m-exp"): [("", _GEN, _pair("--m-exp", "2", "3"), "differ")],
    ("gen-table", "--s-exp"): [("", _GEN, _pair("--s-exp", "2", "1"), "differ")],
    ("gen-table", "--d-exp"): [("", _GEN, _pair("--d-exp", "1", "0"), "differ")],
    ("gen-table", "--out"): [("", _GEN, _pair("--out", "{out}/t", "{out}/u"), "differ")],
    ("gen-table", "--backend"): [("", _GEN, _pair("--backend", "random", "keyed"),
                                  "differ")],
    ("gen-table", "--seed"): [
        ("random", _GEN, _pair("--seed", "0", "1"), "differ"),
        ("keyed", _GEN + ["--backend", "keyed"], _pair("--seed", "0", "1"), "differ"),
        ("canonical", _CANONICAL, _pair("--seed", "0", "1"), "refused"),
    ],
    ("verify-table", "--table"): [
        ("", _EXHAUSTIVE, _pair("--table", "{in}/t3", "{in}/t3b"), "differ")],
    ("verify-table", "--mode"): [
        ("", _EXHAUSTIVE, _pair("--mode", "exhaustive", "sampled"), "differ")],
    ("verify-table", "--samples"): [
        ("sampled", _SAMPLED[:-2], _pair("--samples", "16", "17"), "differ"),
        ("exhaustive", _EXHAUSTIVE, _pair("--samples", "16", "17"), "refused"),
    ],
    ("verify-table", "--seed"): [
        ("sampled", _SAMPLED, _pair("--seed", "0", "1"), "differ"),
        ("exhaustive", _EXHAUSTIVE, _pair("--seed", "0", "1"), "refused"),
    ],
    ("verify-table", "--prefix-balance"): [
        ("", _EXHAUSTIVE, ([], ["--prefix-balance"]), "differ")],
    ("verify-table", "--s-exp"): [("", _EXHAUSTIVE, _pair("--s-exp", "1", "2"), "differ")],
    ("verify-table", "--d-exp"): [("", _EXHAUSTIVE, _pair("--d-exp", "1", "2"), "differ")],
    ("verify-table", "--report"): [
        ("", _EXHAUSTIVE, ([], ["--report", "{out}/r.json"]), "differ")],
    ("verify-table", "--threads"): [
        ("sampled", _SAMPLED, _pair("--threads", "1", "3"), "same"),
        ("exhaustive", _EXHAUSTIVE, _pair("--threads", "1", "2"), "ignored"),
    ],
    ("check-condition", "--n-exp"): [("", _CHECK, _pair("--n-exp", "3", "4"), "differ")],
    ("check-condition", "--m-exp"): [("", _CHECK, _pair("--m-exp", "2", "3"), "differ")],
    ("check-condition", "--s-exp"): [("", _CHECK, _pair("--s-exp", "2", "1"), "differ")],
    ("check-condition", "--d-exp"): [("", _CHECK, _pair("--d-exp", "1", "0"), "differ")],
    ("extract", "--x"): [("", _EXTRACT, _pair("--x", "{in}/x", "{in}/y"), "differ")],
    ("extract", "--y"): [("", _EXTRACT, _pair("--y", "{in}/y", "{in}/x"), "differ")],
    ("extract", "--sigma"): [("", _EXTRACT, _pair("--sigma", "1/2", "1/4"), "differ")],
    ("extract", "--alpha"): [
        ("512 bits", _EXTRACT + ["--bits", "512"], _pair("--alpha", "1/8", "1/2"),
         "ignored"),
        ("12 bits", _EXTRACT + ["--bits", "12"], _pair("--alpha", "1/8", "1/2"),
         "ignored"),
    ],
    ("extract", "--out"): [("", _EXTRACT, _pair("--out", "{out}/z", "{out}/w"), "differ")],
    ("extract", "--bits"): [("", _EXTRACT, _pair("--bits", "16", "24"), "differ")],
    ("extract", "--seed"): [("", _EXTRACT, _pair("--seed", "0", "1"), "differ")],
    ("extract-cond", "--x"): [("", _COND, _pair("--x", "{in}/x", "{in}/y"), "differ")],
    ("extract-cond", "--y"): [("", _COND, _pair("--y", "{in}/y", "{in}/x"), "differ")],
    ("extract-cond", "--s"): [("", _COND, _pair("--s", "512", "600"), "differ")],
    ("extract-cond", "--alpha"): [("", _COND, _pair("--alpha", "0", "999"), "ignored")],
    ("extract-cond", "--out"): [("", _COND, _pair("--out", "{out}/z", "{out}/w"),
                                 "differ")],
    ("extract-cond", "--bits"): [("", _COND, _pair("--bits", "512", "1024"), "differ")],
    ("extract-cond", "--seed"): [("", _COND, _pair("--seed", "0", "1"), "differ")],
    ("transform", "--x"): [("", _TRANSFORM, _pair("--x", "{in}/x", "{in}/y"), "differ")],
    ("transform", "--y"): [("", _TRANSFORM, _pair("--y", "{in}/y", "{in}/x"), "differ")],
    ("transform", "--tau"): [("", _TRANSFORM, _pair("--tau", "1/2", "1/4"), "differ")],
    ("transform", "--delta"): [("", _TRANSFORM, _pair("--delta", "1/2", "7"), "ignored")],
    ("transform", "--B"): [("", _TRANSFORM, _pair("--B", "2", "3"), "differ")],
    ("transform", "--out-bits"): [("", _TRANSFORM, _pair("--out-bits", "11", "12"),
                                   "differ")],
    ("transform", "--out"): [("", _TRANSFORM, _pair("--out", "{out}/z", "{out}/w"),
                              "differ")],
    ("transform", "--seed"): [("", _TRANSFORM, _pair("--seed", "0", "1"), "differ")],
    ("experiment", "--n"): [("", _EXPERIMENT, _pair("--n", "12", "13"), "differ")],
    ("experiment", "--sigma"): [("", _EXPERIMENT, _pair("--sigma", "1/2", "5/8"),
                                 "differ")],
    ("experiment", "--alpha"): [("", _EXPERIMENT, _pair("--alpha", "1/8", "1/4"),
                                 "differ")],
    ("experiment", "--trials"): [("", _EXPERIMENT, _pair("--trials", "16", "17"),
                                  "differ")],
    ("experiment", "--seed"): [("", _EXPERIMENT, _pair("--seed", "0", "1"), "differ")],
    ("experiment", "--csv"): [("", _EXPERIMENT, ([], ["--csv", "{out}/e.csv"]), "differ")],
    ("experiment", "--summary"): [
        ("", _EXPERIMENT, ([], ["--summary", "{out}/e.json"]), "differ")],
    ("experiment", "--threads"): [("", _EXPERIMENT, _pair("--threads", "1", "2"),
                                   "ignored")],
}

# Flags accepted and ignored, each until ROADMAP item 5 lets the benchmark
# drop them: its workloads pass them.  The rates alpha and delta set the
# paper's guarantee, not the construction, so they are only range-checked.
_IGNORED = {
    ("verify-table", "--threads", "exhaustive"): "ROADMAP item 5: bench passes it",
    ("experiment", "--threads", ""): "ROADMAP item 5: bench passes it",
    ("extract", "--alpha", "512 bits"): "bench passes it (ROADMAP item 5)",
    ("extract", "--alpha", "12 bits"): "bench passes it (ROADMAP item 5)",
    ("extract-cond", "--alpha", ""): "bench passes it (ROADMAP item 5)",
    ("transform", "--delta", ""): "bench passes it (ROADMAP item 5)",
}


def _flag_dirs(tmp_path, capsys) -> dict:
    """{in} and {out} of the flag cases: inputs x and y of 1024 bits, t3 and
    t3b, random 8 x 8 tables with 4 colors, and an empty output directory."""
    inp, out = tmp_path / "in", tmp_path / "out"
    inp.mkdir()
    out.mkdir()
    (inp / "x").write_bytes(bytes(range(7, 135)))
    (inp / "y").write_bytes(bytes(range(128))[::-1])
    assert run(capsys, *_GEN[:-1], str(inp / "t3"), "--seed", "5")[0] == 0
    assert run(capsys, *_GEN[:-1], str(inp / "t3b"), "--seed", "6")[0] == 0
    return {"in": inp, "out": out}


def _flags():
    """(subcommand, flag) for every flag, required or optional, of every
    subcommand."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [pytest.param(cmd, a.option_strings[0], id=cmd + a.option_strings[0])
            for cmd, p in sub.choices.items() for a in p._actions
            if a.option_strings and a.dest != "help"]


class TestFlagGuard:
    @pytest.mark.parametrize("cmd, flag", _flags())
    def test_no_flag_is_accepted_and_ignored(self, tmp_path, capsys, cmd, flag):
        assert (cmd, flag) in _FLAG_CASES, "every flag needs a case"
        dirs = _flag_dirs(tmp_path, capsys)
        out = dirs["out"]
        for context, base, pair, expected in _FLAG_CASES[cmd, flag]:
            seen = []
            for setting in pair:
                shutil.rmtree(out)
                out.mkdir()
                argv = [a.format(**dirs) for a in base + setting]
                code, stdout, err = run(capsys, *argv)
                files = b"".join(p.name.encode() + p.read_bytes()
                                 for p in sorted(out.iterdir()))
                seen.append((code, err, stdout.encode() + files))
            if expected == "refused":
                for code, err, _ in seen:
                    assert code == 1 and err.startswith("error: invalid-params:"), context
                    assert err.count("\n") == 1, context
                continue
            assert all(code in (0, 2) and "invalid-params" not in err
                       for code, err, _ in seen), (context, seen)
            if expected == "differ":
                assert seen[0][2] != seen[1][2], context
            else:
                assert expected == "same" or (cmd, flag, context) in _IGNORED
                assert seen[0][2] == seen[1][2], context


class TestSeeds:
    """Every 64-bit --seed outside [0, 2^64) is refused, not reduced mod
    2^64; gen-table's keyed backend takes a raw 128-bit key instead."""

    CASES = {
        "gen-table": _GEN + ["--backend", "random"],
        "verify-table": _SAMPLED,
        "extract": _EXTRACT,
        "extract-cond": _COND,
        "transform": _TRANSFORM,
        "experiment": _EXPERIMENT,
    }

    @pytest.mark.parametrize("cmd", sorted(CASES))
    def test_seeds_beyond_64_bits_refused(self, tmp_path, capsys, cmd):
        dirs = _flag_dirs(tmp_path, capsys)
        base = [a.format(**dirs) for a in self.CASES[cmd]]
        assert run(capsys, *base, "--seed", "0xffffffffffffffff")[0] in (0, 2)
        for seed in ("0x10000000000000000", "-18446744073709551616", "-1"):
            code, stdout, err = run(capsys, *base, "--seed", seed)
            assert code == 1 and stdout == "", seed
            assert err.startswith("error: invalid-params: --seed must lie in [0, 2^64)")
            assert err.count("\n") == 1


class TestProcessStart:
    def test_import_leaves_logging_and_futures_unloaded(self):
        # both load on first use, so importing the CLI does not pay for them
        src = Path(cli.__file__).resolve().parents[1]
        code = ("import sys, balext, balext.cli; "
                "print(sorted({'logging', 'concurrent.futures'} & set(sys.modules)))")
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


# Flag values for the argv fuzz.  Every pool keeps a run small: no pool
# holds a value between 512 and 2**64, whose power of two would have to be
# built in memory (2**64 itself fails at once), --n and --trials stay at or
# below 64, and --threads stays in 1..4.
_RATES = ["1/2", "1/8", "0", "1", "2", "-1", "-1/2", "1/0", "1/x", "abc", "", "3/",
          str(2**64), "1/" + str(2**64)]
_EXPS = ["-1", "0", "1", "2", "3", "8", "255", "256", "300", str(2**64), "x", ""]
_SMALL = ["-1", "0", "1", "2", "12", "64"]
_INTS = ["-3", "-1", "0", "1", "8", "12", "16", "512", str(2**64), "x", ""]
_SEEDS = ["0", "-1", "7", "0x1f", str(2**64), str(2**128), "x"]
_THREADS = ["1", "2", "4"]
_ERROR_LINE = re.compile(r"^error: [a-z-]+: ", re.M)


@st.composite
def _mutated(draw, cmd, valid: dict, pools: dict, tail: list):
    """``cmd`` with a valid flag set of which up to three values are
    replaced from their pools."""
    flags = dict(valid)
    for name in draw(st.lists(st.sampled_from(sorted(pools)), max_size=3, unique=True)):
        flags[name] = draw(st.sampled_from(pools[name]))
    return [cmd, *(a for kv in flags.items() for a in kv if a is not None), *tail]


def _fuzz_argv(tmp: Path):
    """Strategy for one argv of any subcommand, every file under ``tmp``.

    Tables come from `gen-table` at --n-exp <= 8 (the random backend
    refuses anything above 12 before it allocates) or from the keyed
    backend; the canonical backend is left out because its search may
    check up to 2**24 candidate tables.
    """
    x, y, table, keyed = (str(tmp / name) for name in ("x", "y", "t3", "k16"))
    out = str(tmp / "out")
    exps = {"--n-exp": _EXPS, "--m-exp": _EXPS, "--s-exp": _EXPS, "--d-exp": _EXPS}
    return st.one_of(
        _mutated("gen-table",
                 {"--n-exp": "3", "--m-exp": "2", "--s-exp": "2", "--d-exp": "1",
                  "--backend": "random", "--seed": "5"},
                 {**exps, "--backend": ["random", "keyed"], "--seed": _SEEDS},
                 ["--out", out]),
        _mutated("verify-table",
                 {"--table": table, "--mode": "exhaustive", "--threads": "1",
                  "--prefix-balance": None},
                 {"--table": [table, keyed, x, str(tmp / "none")],
                  "--mode": ["exhaustive", "sampled"], "--samples": _SMALL,
                  "--seed": _SEEDS, "--s-exp": _EXPS, "--d-exp": _EXPS,
                  "--threads": _THREADS, "--prefix-balance": [None]},
                 ["--report", out]),
        _mutated("check-condition",
                 {"--n-exp": "10", "--m-exp": "4", "--s-exp": "8", "--d-exp": "1"},
                 exps, []),
        _mutated("extract",
                 {"--x": x, "--y": y, "--sigma": "1/2", "--alpha": "1/8",
                  "--bits": "12", "--seed": "7"},
                 {"--sigma": _RATES, "--alpha": _RATES, "--bits": _INTS,
                  "--seed": _SEEDS},
                 ["--out", out]),
        _mutated("extract-cond",
                 {"--x": x, "--y": y, "--s": "512", "--alpha": "32", "--seed": "11"},
                 {"--s": _INTS, "--alpha": _INTS, "--bits": _INTS, "--seed": _SEEDS},
                 ["--out", out]),
        _mutated("transform",
                 {"--x": x, "--y": y, "--tau": "1/2", "--delta": "1/2", "--B": "2",
                  "--out-bits": "11", "--seed": "3"},
                 {"--tau": _RATES, "--delta": _RATES, "--B": _INTS,
                  "--out-bits": _INTS, "--seed": _SEEDS},
                 ["--out", out]),
        _mutated("experiment",
                 {"--n": "12", "--sigma": "1/2", "--alpha": "1/8", "--trials": "64",
                  "--seed": "1", "--threads": "1"},
                 {"--n": _SMALL, "--sigma": _RATES, "--alpha": _RATES,
                  "--trials": _SMALL, "--seed": _SEEDS, "--threads": _THREADS},
                 ["--csv", out, "--summary", out + ".json"]),
    )


class TestArgvFuzz:
    def test_every_argv_ends_in_an_exit_code_and_one_error_line(self, tmp_path, capsys):
        (tmp_path / "x").write_bytes(bytes(range(7, 71)))
        (tmp_path / "y").write_bytes(bytes(range(64))[::-1])
        for name, n_exp, backend in (("t3", "3", "random"), ("k16", "16", "keyed")):
            code, _, _ = run(capsys, "gen-table", "--n-exp", n_exp, "--m-exp", "2",
                             "--s-exp", "2", "--d-exp", "1", "--backend", backend,
                             "--out", str(tmp_path / name))
            assert code == 0

        @settings(max_examples=300, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(_fuzz_argv(tmp_path))
        def check(argv):
            code = main(argv)
            _, err = capsys.readouterr()
            assert code in (0, 1, 2, 3), (argv, code)
            assert "Traceback" not in err
            assert len(_ERROR_LINE.findall(err)) <= 1, (argv, err)

        check()
