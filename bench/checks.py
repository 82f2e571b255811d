"""Output checks for benchmark jobs.

Checks read what a job wrote (exit code, stdout, files) and compare it with
values the benchmark derives on its own: the table digest from the table
file's bytes, exhaustive reports from a numpy oracle, output lengths and
block offsets from the paper's formulas, experiment summaries from the
per-trial CSV. Each check returns None when the output is right, else one
line saying what is wrong.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import struct
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

GOLDEN_STRING_N12 = "10101101"
GOLDEN_TRANSFORM_11 = "00101101000"


def sha256_file(p: Path) -> str:
    return hashlib.sha256(p.read_bytes()).hexdigest()


def sha256_text(s: str) -> str:
    return hashlib.sha256(s.encode()).hexdigest()


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


# ---------------------------------------------------------------------------
# Parameter formulas (the paper's derivations, restated)
# ---------------------------------------------------------------------------


def string_m_exp(n: int, sigma=Fraction(1, 2)) -> int:
    return math.floor(2 * sigma * n) - _ceil_log2(n)


def cond_m_exp(n: int, s_of_n: int) -> int:
    return s_of_n // 2 - 7 * _ceil_log2(n)


def _blocks(schedule):
    """(index, output start, output end, input end) of each block in turn."""
    tau, _, base = schedule
    out = inp = 0
    for i in itertools.count(1):
        n_i = base**i
        m_i = math.floor(Fraction(97, 100) * tau * n_i)
        inp += n_i
        yield i, out, out + m_i, inp
        out += m_i


def output_range(schedule, block: int) -> tuple[int, int]:
    for i, start, end, _ in _blocks(schedule):
        if i == block:
            return start, end


def input_end(schedule, pos: int) -> int:
    """Bits read from each stream to produce output bit ``pos``."""
    for _, start, end, inp in _blocks(schedule):
        if start <= pos < end:
            return inp


# ---------------------------------------------------------------------------
# Table files and the exhaustive oracle
# ---------------------------------------------------------------------------


def parse_table(data: bytes) -> dict:
    """Header fields and, for explicit tables, the cell array of a BTAB file."""
    if data[:4] != b"BTAB" or len(data) < 27:
        raise ValueError("not a BTAB table file")
    _, backend, n, m, s, d = struct.unpack("<HBBBBB", data[4:11])
    body = data[27:]
    cells = None
    if body:
        dt = np.uint8 if m <= 8 else np.dtype("<u2")
        cells = np.frombuffer(body, dtype=dt).reshape(1 << n, 1 << n)
    return {"backend": backend, "n": n, "m": m, "s": s, "d": d, "cells": cells}


def _witness(rows, cols, colors) -> dict:
    return {"rows": [int(r) for r in rows], "cols": [int(c) for c in cols],
            "colors": [int(c) for c in colors]}


def exhaustive_report(table_bytes: bytes, d_exp: int | None, prefix: bool) -> str:
    """The exact JSON report ``verify-table --mode exhaustive`` must print.

    Enumerates every S x S rectangle with numpy (histograms as indicator
    products), in the lexicographic order the report's witness refers to.
    """
    t = parse_table(table_bytes)
    cells, m_exp, s_exp = t["cells"], t["m"], t["s"]
    m_colors, side = 1 << m_exp, 1 << s_exp
    area = side * side
    subsets = list(itertools.combinations(range(cells.shape[0]), side))
    ind = np.zeros((len(subsets), cells.shape[0]), dtype=np.int64)
    for i, sub in enumerate(subsets):
        ind[i, list(sub)] = 1
    onehot = (cells[None] == np.arange(m_colors)[:, None, None]).astype(np.int64)
    hist = np.einsum("ri,mij,cj->rcm", ind, onehot, ind, optimize=True)
    hist = hist.reshape(-1, m_colors)          # rectangle k = (k // R, k % R)

    if prefix:
        d_exp = m_exp
        best = np.zeros(len(hist), dtype=np.int64)
        best_level = np.zeros(len(hist), dtype=np.int64)
        best_top = np.zeros(len(hist), dtype=np.int64)
        for level in range(m_exp, 0, -1):
            buckets = hist.reshape(len(hist), 1 << level, -1).sum(axis=2)
            top = buckets.argmax(axis=1)
            num = buckets.max(axis=1) << level
            better = num > best
            best = np.where(better, num, best)
            best_level = np.where(better, level, best_level)
            best_top = np.where(better, top, best_top)
        worst_num = int(best.max())
        bad = np.nonzero(best > 2 * area)[0]
        witness = None
        if len(bad):
            k = int(bad[0])
            width = m_exp - int(best_level[k])
            lo = int(best_top[k]) << width
            colors = [c for c in range(lo, lo + (1 << width)) if hist[k, c] > 0]
            witness = _witness(subsets[k // len(subsets)], subsets[k % len(subsets)],
                               colors)
    else:
        d_exp = t["d"] if d_exp is None else d_exp
        kdom, d_div = 1 << (m_exp - d_exp), 1 << d_exp
        mass = np.sort(hist, axis=1)[:, -kdom:].sum(axis=1) * d_div
        worst_num = int(mass.max())
        bad = np.nonzero(mass > 2 * area)[0]
        witness = None
        if len(bad):
            k = int(bad[0])
            order = sorted(range(m_colors), key=lambda c: (-hist[k, c], c))[:kdom]
            witness = _witness(subsets[k // len(subsets)], subsets[k % len(subsets)],
                               order)
    worst = Fraction(worst_num, 2 * area)
    doc = {
        "mode": "exhaustive",
        "passed": witness is None,
        "rectangles_checked": len(hist),
        "worst_ratio": {"num": worst.numerator, "den": worst.denominator},
        "witness": witness,
        "params": {"n_exp": t["n"], "m_exp": m_exp, "s_exp": s_exp, "d_exp": d_exp},
        "prefix_mode": prefix,
        "table_digest": hashlib.sha256(table_bytes).hexdigest(),
    }
    return json.dumps(doc, sort_keys=True)


def _sampled_witness_error(t: dict, doc: dict, prefix: bool) -> str | None:
    """For an explicit table, confirm the reported witness rectangle violates."""
    w = doc["witness"]
    side = 1 << t["s"]
    rows, cols, colors = w["rows"], w["cols"], w["colors"]
    if len(set(rows)) != side or len(set(cols)) != side:
        return "witness rectangle has the wrong side"
    grid = t["cells"][np.ix_(rows, cols)]
    mass = int(np.isin(grid, colors).sum())
    area, m_exp = side * side, t["m"]
    if not prefix:
        bad = mass * (1 << doc["params"]["d_exp"]) > 2 * area
    else:
        bad = any(
            len({c >> (m_exp - lv) for c in colors}) == 1 and mass << lv > 2 * area
            for lv in range(1, m_exp + 1)
        )
    return None if bad else "witness rectangle does not violate the bound"


def check_verify_report(res, table: Path, report: Path, mode: str, rects: int,
                        d_exp: int | None, prefix: bool) -> str | None:
    text = report.read_text() if report.exists() else None
    if text is None or text != res.stdout:
        return "report file differs from stdout"
    doc = json.loads(text)
    table_bytes = table.read_bytes()
    t = parse_table(table_bytes)
    passed = res.code == 0
    worst = Fraction(doc["worst_ratio"]["num"], doc["worst_ratio"]["den"])
    if doc["passed"] != passed or (doc["witness"] is None) != passed:
        return f"exit code {res.code} disagrees with the report"
    if (worst <= 1) != passed:
        return f"worst ratio {worst} disagrees with passed={passed}"
    if doc["rectangles_checked"] != rects or doc["mode"] != mode:
        return f"report covers {doc['rectangles_checked']} rectangles, expected {rects}"
    if doc["table_digest"] != hashlib.sha256(table_bytes).hexdigest():
        return "report's table digest does not match the table file"
    want_d = t["m"] if prefix else (t["d"] if d_exp is None else d_exp)
    if doc["params"] != {"n_exp": t["n"], "m_exp": t["m"], "s_exp": t["s"],
                         "d_exp": want_d} or doc["prefix_mode"] != prefix:
        return f"report params {doc['params']} do not match the table"
    if mode == "exhaustive":
        want = exhaustive_report(table_bytes, d_exp, prefix) + "\n"
        return None if text == want else "report differs from the exhaustive oracle"
    if doc["witness"] is not None and t["cells"] is not None:
        return _sampled_witness_error(t, doc, prefix)
    return None


# ---------------------------------------------------------------------------
# Experiments, streams, extractors, estimator
# ---------------------------------------------------------------------------


def check_experiment(res, csv_path: Path, summary: Path, n: int, sigma: Fraction,
                     alpha: Fraction, trials: int) -> str | None:
    if not summary.exists() or summary.read_text() != res.stdout:
        return "summary file differs from stdout"
    doc = json.loads(res.stdout)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["trial", "seed", "dep_planted", "dep_hat", "z_hex"]:
        return "CSV header changed"
    rows = rows[1:]
    m_exp = string_m_exp(n, sigma)
    planted = math.floor(alpha * n + Fraction(1, 2))
    if [int(r[0]) for r in rows] != list(range(trials)):
        return f"CSV has {len(rows)} trials, expected {trials}"
    if any(int(r[2]) != planted or len(r[4]) != (m_exp + 3) // 4 for r in rows):
        return "CSV rows disagree with the planted shape"
    counts = Counter(int(r[4], 16) for r in rows)
    if any(z >= 1 << m_exp for z in counts):
        return "output exceeds m_exp bits"
    cp = sum(c * c for c in counts.values()) / (trials * trials)
    deps = [float(r[3]) for r in rows]
    want = {
        "n": n, "sigma": str(sigma), "alpha": str(alpha), "trials": trials,
        "m_exp": m_exp, "dep_planted": planted, "distinct_outputs": len(counts),
        "insufficient_sampling": trials < (1 << m_exp),
    }
    got = {k: doc.get(k) for k in want}
    if got != want:
        return f"summary {got} != {want}"
    if abs(doc["collision_entropy"] - -math.log2(cp)) > 1e-9:
        return "collision entropy does not match the CSV outputs"
    if abs(doc["min_entropy"] - -math.log2(max(counts.values()) / trials)) > 1e-9:
        return "min entropy does not match the CSV outputs"
    if (f"{doc['dep_hat_min']:.1f}", f"{doc['dep_hat_max']:.1f}") != (
            f"{min(deps):.1f}", f"{max(deps):.1f}"):
        return "dep_hat range does not match the CSV"
    return None


def _bit(data: bytes, pos: int) -> int:
    return (data[pos // 8] >> (7 - pos % 8)) & 1


def check_bits_out(res, path: Path, bits: int) -> str | None:
    if not path.exists() or len(path.read_bytes()) != (bits + 7) // 8:
        return f"output file does not hold {bits} bits"
    prefix = f"bits={bits} "
    return None if res.stdout.startswith(prefix) else f"stdout {res.stdout!r}"


def check_output_bit(res, z: Path, pos: int) -> str | None:
    """The bit must equal the transform's output at ``pos`` (same streams,
    schedule and seed), which is computed by a different code path."""
    if not z.exists():
        return "no transform output to compare against"
    want = f"pos={pos} bit={_bit(z.read_bytes(), pos)}\n"
    return None if res.stdout == want else f"{res.stdout!r} != {want!r}"


def check_dep(res, x, duplicated: bool) -> str | None:
    text = res.stdout.strip()
    if not text.startswith("dep="):
        return f"stdout {text!r}"
    dep = float(text[4:])
    if not math.isfinite(dep):
        return "dependency estimate is not finite"
    if duplicated:
        from balext import sources

        k = sources.MatchCompressor().estimate(x)
        if dep < 0.8 * k:
            return f"dep(x, x) = {dep} < 0.8 K(x) = {0.8 * k}"
    return None


def check_goldens() -> str | None:
    """Reproduce the two committed extractor goldens through the public API."""
    from balext import core, extract, seqtransform

    half = Fraction(1, 2)
    z = extract.extract_string(core.BitString(1, 12), core.BitString(1 << 11, 12),
                               half, Fraction(1, 8),
                               extract.TablePolicy(kind="random", seed=7))
    if z.to01() != GOLDEN_STRING_N12:
        return f"extract_string golden {z.to01()} != {GOLDEN_STRING_N12}"
    tr = seqtransform.SequenceTransformer(
        seqtransform.SeededBitStream(101), seqtransform.SeededBitStream(202),
        core.derive_seq_schedule(half, half, 2, 4), extract.TablePolicy(seed=3))
    zt = tr.transform_prefix(11).to01()
    if zt != GOLDEN_TRANSFORM_11:
        return f"transform golden {zt} != {GOLDEN_TRANSFORM_11}"
    return None
