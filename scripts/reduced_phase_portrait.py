#!/usr/bin/env python3
"""Phase-portrait dataset of the 2-d odd-periodic reduced amplitude flow.

Emits the reduced vector field on a grid of (y1, y2) points together with
the classified fixed points (rolls attract, equal-amplitude states are
saddles on the invariant circle), as two CSV files.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from shbif.harness import write_csv
from shbif.reduced import build_reduced, cubic_flow, reduced_fixed_points
from shbif.spectral import Domain


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--length", type=float, default=2 * math.pi)
    ap.add_argument("--lambda", dest="lam", type=float, default=0.2)
    ap.add_argument("--grid-points", type=int, default=21)
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    d = Domain.make(2, args.length, "odd-periodic", grid_n=32, band=8)
    sys = build_reduced(d)
    fps = reduced_fixed_points(sys, args.lam)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    scale = 1.4 * max(float(np.max(np.abs(f.y))) for f in fps)
    grid = np.linspace(-scale, scale, args.grid_points)
    field_path = write_csv(out / "reduced-flow-field.csv", "y1,y2,dy1,dy2",
                           ((a, b, *cubic_flow(np.array([a, b]), args.lam, sys))
                            for a in grid for b in grid))
    fp_path = write_csv(out / "reduced-fixed-points.csv", "y1,y2,kind,eig1,eig2",
                        ((*f.y, f.kind, *f.eigenvalues) for f in fps))
    print(f"wrote {field_path} and {fp_path}")


if __name__ == "__main__":
    main()
