#!/usr/bin/env python3
"""Run the BP error-rate sweep over the test-matrix alphabet size.

Reproduces the waterfall-style experiment: n=100 subjects, d=15 defectives,
m=50 tests, threshold step 2, q from 2 to 11, 400 planted sets per point,
20 BP iterations, both selection rules, noiseless plus two substitution
noise levels. Writes one CSV per master seed.

    python scripts/run_error_sweep.py --outdir results/ --seeds 101 102
"""

import argparse
import pathlib
import sys

from sqgt.errors import SqgtError
from sqgt.simulate import SweepConfig, rows_to_csv, run_simulation


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--seeds", type=int, nargs="+", default=[101])
    ap.add_argument("--trials", type=int, default=400)
    ap.add_argument("--threads", type=int, default=None,
                    help="worker cap; the output bytes do not depend on it")
    ap.add_argument("--damping", type=float, default=0.5)
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for seed in args.seeds:
        cfg = SweepConfig(
            n=100, d=15, m=50, eta_step=2, q_values=tuple(range(2, 12)),
            gammas=((0.0, 0.0), (0.02, 0.02), (0.04, 0.04)),
            trials=args.trials, iterations=20, methods=("top-d", "threshold"),
            seed=seed, damping=args.damping,
        )
        rows = run_simulation(cfg, threads=args.threads)
        path = outdir / f"sweep_seed{seed}.csv"
        path.write_text(rows_to_csv(rows))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SqgtError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        sys.exit(2)
