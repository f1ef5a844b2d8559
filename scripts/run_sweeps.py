#!/usr/bin/env python3
"""Run every registered convergence sweep and print a compact summary table.

Each sweep measures an error that should shrink (or stay bounded) as the
kernel concentrates; the exit code is nonzero if any sweep misses its verdict.
"""

import argparse
import sys
from pathlib import Path

from nonlocalopt import emit_csv
from nonlocalopt.sweeps import REGISTRY, convergence_sweep


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/sweeps", type=Path)
    parser.add_argument("--n-values", default=[4, 8, 16, 32], type=int, nargs="+")
    args = parser.parse_args()

    failed = []
    for name in sorted(REGISTRY):
        n_values = args.n_values if name != "newton-floor" else [8, 16, 32]
        report = convergence_sweep(name, n_values)
        emit_csv(report, args.out / f"sweep_{name}.csv")
        verdict = report.within_bound if report.within_bound is not None else report.monotone
        status = "ok" if verdict else "MISS"
        errs = " ".join(f"{e:.3e}" for e in report.errors)
        print(f"{name:<24} [{status:>4}] n={list(report.param_values)} errors: {errs}")
        if not verdict:
            failed.append(name)
    if failed:
        print(f"failed sweeps: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
