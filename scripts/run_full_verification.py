#!/usr/bin/env python3
"""Run the whole verification battery across seeded random parameter sets.

For every degree N up to --max-degree and every q on the family grid, one
parameter set is drawn from the documented splitmix64 stream and the full
check list (zero identities, closed-form spectrum, trace/determinant,
isospectrality, finite-difference Jacobian) is evaluated. Prints one line
per instance and a final tally; exits 2 if anything failed. An instance
that raises a typed numerical failure (QZerosError) counts as failed, and
the run goes on.

With --grid it runs the census of the verify-grid benchmark cells instead:
seeds 0-39 and 7919, both families, q in {0.3, 0.6}, N in {4, 10, 16, 24},
each cell the first draw of a fresh stream for its seed, as the benchmark
draws it. It prints each cell that does not pass, then the tally of cells
that pass, fail a check (qz verify's exit 2) and raise a typed numerical
failure (exit 3), and exits 2 if any cell does not pass.

Usage:
    python scripts/run_full_verification.py
    python scripts/run_full_verification.py --family aw --max-degree 8 --seed 3
    python scripts/run_full_verification.py --grid
"""

import argparse
import collections
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qzeros.cli import run_verify
from qzeros.errors import QZerosError
from qzeros.sweeps import SplitMix64
from qzeros.zeroflow import FAMILIES

Q_GRIDS = {"aw": (0.3, 0.6, 0.5 + 0.2j), "racah": (0.3, 0.6)}
#: The verify-grid cells of --grid.
GRID_SEEDS = (*range(40), 7919)
GRID_Q = (0.3, 0.6)
GRID_N = (4, 10, 16, 24)


def verify(label: str, params, seed: int, quiet: bool = False) -> int:
    """run_verify on params; returns qz verify's exit code: 0 on a pass, 2 on a failed check,
    3 on a typed numerical failure. Prints the instance's line and its failed checks; with
    ``quiet`` only for an instance that does not pass."""
    try:
        report = run_verify(params, seed=seed)
    except QZerosError as exc:
        print(f"{label} {type(exc).__name__}: {exc}  FAIL")
        return 3
    if quiet and report.passed:
        return 0
    worst = max((c.residual / c.tolerance for c in report.checks), default=0.0)
    status = "ok" if report.passed else "FAIL"
    print(f"{label} checks={len(report.checks):2d} worst residual/tol={worst:8.1e}  {status}")
    for c in report.checks:
        if not c.passed:
            print(f"      failed: {c.name} residual={c.residual:.3e}")
    return 0 if report.passed else 2


def census() -> int:
    """The --grid run; returns 0 if every cell passes, else 2."""
    tally = collections.Counter()
    started = time.monotonic()
    for seed in GRID_SEEDS:
        for family in FAMILIES:
            for q in GRID_Q:
                for n in GRID_N:
                    params = FAMILIES[family].draw(SplitMix64(seed), complex(q), n)
                    label = f"{family:5s} seed={seed:4d} N={n:2d} q={q}"
                    tally[verify(label, params, seed, quiet=True)] += 1
    elapsed = time.monotonic() - started
    cells = sum(tally.values())
    counts = f"{tally[0]}/{tally[2]}/{tally[3]} of {cells} cells"
    print(f"\n{counts} pass / exit 2 / exit 3 in {elapsed:.1f}s")
    return 0 if tally[0] == cells else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", choices=("aw", "racah", "both"), default="both")
    parser.add_argument("--max-degree", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--grid", action="store_true", help="run the verify-grid census instead")
    args = parser.parse_args(argv)
    if args.grid:
        return census()

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
                failures += verify(f"{family:5s} N={n:2d} q={q!s:10s}", params, args.seed) != 0
    elapsed = time.monotonic() - started
    print(f"\n{total - failures}/{total} instances fully verified in {elapsed:.1f}s")
    return 0 if failures == 0 else 2


if __name__ == "__main__":
    sys.exit(main())
