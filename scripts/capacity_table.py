#!/usr/bin/env python3
"""Tabulate capacity lower bounds for q-ary inputs and a Q-level output
(ternary and 3-level by default).

For each defective count d, grid-searches the input distribution and all
contiguous Q-region quantizers of the sum range and prints the best rate
objective in bits, the maximizing distribution, and its quantizer.

    python scripts/capacity_table.py --dmax 6 --grid-step 0.01
    python scripts/capacity_table.py --q 4 --Q 4 --dmax 4 --grid-step 0.05
"""

import argparse
import sys

from sqgt.capacity import capacity_search
from sqgt.errors import BadRange, SqgtError


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dmax", type=int, default=6)
    ap.add_argument("--q", type=int, default=3)
    ap.add_argument("--Q", type=int, default=3)
    ap.add_argument("--grid-step", type=float, default=0.02)
    args = ap.parse_args()
    if args.dmax < 1:
        raise BadRange(f"need dmax >= 1, got {args.dmax}")

    for d in range(1, args.dmax + 1):
        pt, quant, bits = capacity_search(d, args.q, args.Q, grid_step=args.grid_step)
        if d == 1:  # printed once the first search has accepted the inputs
            print(f"{'d':>3}  {'alpha (bits)':>12}  distribution / quantizer")
        probs = " ".join(f"{p:.3f}" for p in pt)
        print(f"{d:>3}  {bits:>12.6f}  [{probs}]  {quant}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SqgtError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        sys.exit(2)
