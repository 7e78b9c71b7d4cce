#!/usr/bin/env python3
"""Run the whole verification battery across seeded random parameter sets.

For every degree N up to --max-degree and every q on the family grid, one
parameter set is drawn from the documented splitmix64 stream and the full
check list (zero identities, closed-form spectrum, trace/determinant,
isospectrality, finite-difference Jacobian) is evaluated. Prints one line
per instance and a final tally; exits 2 if anything failed. An instance
that raises a typed numerical failure (QZerosError) counts as failed, and
the run goes on.

Usage:
    python scripts/run_full_verification.py
    python scripts/run_full_verification.py --family aw --max-degree 8 --seed 3
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qzeros.cli import run_verify
from qzeros.errors import QZerosError
from qzeros.sweeps import SplitMix64
from qzeros.zeroflow import FAMILIES

Q_GRIDS = {"aw": (0.3, 0.6, 0.5 + 0.2j), "racah": (0.3, 0.6)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", choices=("aw", "racah", "both"), default="both")
    parser.add_argument("--max-degree", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    families = ("aw", "racah") if args.family == "both" else (args.family,)
    failures = 0
    total = 0
    started = time.monotonic()
    for family in families:
        stream = SplitMix64(args.seed)
        draw = FAMILIES[family].draw
        for n in range(1, args.max_degree + 1):
            for q in Q_GRIDS[family]:
                params = draw(stream, q, n)
                total += 1
                try:
                    report = run_verify(params, seed=args.seed)
                except QZerosError as exc:
                    failures += 1
                    print(f"{family:5s} N={n:2d} q={q!s:10s} {type(exc).__name__}: {exc}  FAIL")
                    continue
                worst = max((c.residual / c.tolerance for c in report.checks), default=0.0)
                status = "ok" if report.passed else "FAIL"
                print(
                    f"{family:5s} N={n:2d} q={q!s:10s} checks={len(report.checks):2d} "
                    f"worst residual/tol={worst:8.1e}  {status}"
                )
                if not report.passed:
                    failures += 1
                    for c in report.checks:
                        if not c.passed:
                            print(f"      failed: {c.name} residual={c.residual:.3e}")
    elapsed = time.monotonic() - started
    print(f"\n{total - failures}/{total} instances fully verified in {elapsed:.1f}s")
    return 0 if failures == 0 else 2


if __name__ == "__main__":
    sys.exit(main())
