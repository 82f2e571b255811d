#!/usr/bin/env python3
"""One-time calibration campaign for the estimator thresholds.

Measures, over 1000 seeded independent pairs of 1024-bit strings:

* the dependency estimate dep(x, y) of the built-in compressor, whose
  spread fixes THETA_INDEP (independence threshold), and
* the asymmetry |dep(x, y) - dep(y, x)|, whose spread fixes THETA_SYM.

Thresholds are set to roughly 1.5x the observed maxima, rounded up to a
multiple of 8, and committed both here (calibration/thresholds.json) and
as constants in balext.sources.  Rerunning this script must reproduce the
JSON byte-for-byte; the constants are never tuned to a test.

Usage: python scripts/calibrate_thresholds.py [--seeds 1000] [--n 1024] [--out PATH]

Reproducibility check (the committed JSON must come back byte for byte):

    python scripts/calibrate_thresholds.py --out /tmp/t.json && cmp /tmp/t.json calibration/thresholds.json

tests/test_sources.py runs the same check with the defaults.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from balext.core import BitString  # noqa: E402
from balext.mixing import stream_bits, substream  # noqa: E402
from balext.sources import MatchCompressor, dep_estimate  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=1000)
    ap.add_argument("--n", type=int, default=1024)
    ap.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parents[1] / "calibration" / "thresholds.json"),
    )
    args = ap.parse_args(argv)

    est = MatchCompressor()
    deps = []
    gaps = []
    for seed in range(args.seeds):
        x = BitString(stream_bits(substream(seed, 1), args.n), args.n)
        y = BitString(stream_bits(substream(seed, 2), args.n), args.n)
        d_xy = dep_estimate(x, y, est)
        d_yx = dep_estimate(y, x, est)
        deps.append(d_xy)
        gaps.append(abs(d_xy - d_yx))

    def roundup8(v: float) -> float:
        return float(-(-int(v * 1.5) // 8) * 8)

    doc = {
        "n": args.n,
        "seeds": args.seeds,
        "dep_indep": {
            "min": min(deps),
            "max": max(deps),
            "mean": round(statistics.mean(deps), 3),
            "abs_max": max(abs(d) for d in deps),
        },
        "sym_gap": {
            "max": max(gaps),
            "mean": round(statistics.mean(gaps), 3),
        },
        "theta_indep": roundup8(max(abs(d) for d in deps)),
        "theta_sym": roundup8(max(gaps)),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
