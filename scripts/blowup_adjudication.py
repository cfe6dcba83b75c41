#!/usr/bin/env python3
"""Blow-up leading-constant adjudication.

Two candidate values exist for the coefficient of B log B in the point
count on the blow-up model (weights m1 = m2 = 1):

  (i)  the assembled constant: residues 1/(m1+1) * 1/(2 m2+1), regularized
       Euler product zeta(2)^-2, archimedean integral 4 (1+m1)(1+m2);
  (ii) the published closed form (1+m1)(1+m2)/(2 m1 m2) prod (1-2/p^2+1/p^3).

This script enumerates N(B) over decades, prints the windowed single-term
fit N/(B log B) together with per-decade slopes of N/B against log B (the
slope estimator cancels the linear term c2*B, which is large here: the
single-term ratio overshoots every candidate for B <= 1e9), and names the
candidate the data supports.  Each count prints its wall time (about
0.25 s at 1e13 and 0.6 s at 1e14 on a 2-CPU Linux machine).

Usage:
    python scripts/blowup_adjudication.py --bmax 1e13
"""

import argparse
import math
import sys
import time
from fractions import Fraction

from orbicount import constants, enumeration, fitting
from orbicount.orbifold import PlaceSet, blowup_p2


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--bmax", default="1e6")
    args = ap.parse_args()
    try:
        bmax = int(Fraction(args.bmax))
    except (ValueError, ZeroDivisionError):
        ap.error(f"--bmax must be a number, got {args.bmax!r}")
    if bmax <= 10**4:  # the top-window slope reads three grid points from 1e3
        ap.error(f"--bmax must exceed 1e4, got {args.bmax}")
    S0 = PlaceSet.of()
    model = blowup_p2(1, 1)

    grid = []
    b = 1000
    while b <= bmax:
        grid.append(b)
        b *= 10
    if grid[-1] != bmax:
        grid.append(bmax)

    pts = []
    for b in grid:
        start = time.perf_counter()
        n = enumeration.count_blowup(1, 1, S0, b, "darmon")
        wall = time.perf_counter() - start
        pts.append((float(b), n))
        print(
            f"B = {b:>12d}  N = {n:>16d}  N/(B log B) = {n / (b * math.log(b)):.5f}"
            f"  ({wall:.2f} s)"
        )

    assembled = constants.leading_constant(model, S0).count_coefficient
    published, tail = constants.blowup_reference_constant(1, 1)
    print(f"\ncandidate (i)  assembled : {assembled:.6f}")
    print(f"candidate (ii) published : {published:.6f} +- {tail:.1e}")

    fit = fitting.fit_counts(pts, 1, 2, window=(1e3, min(1e5, float(bmax))))
    print(
        f"\nsingle-term fit on [1e3, {min(10**5, bmax)}]: kappa = "
        f"{fit.coefficient:.4f} (residual {fit.residual:.3f})"
    )
    print("per-decade slopes of N/B vs log B (cancel the linear term):")
    for (b1, n1), (b2, n2) in zip(pts, pts[1:]):
        slope = (n2 / b2 - n1 / b1) / math.log(b2 / b1)
        print(f"  [{b1:.0e}, {b2:.0e}]: {slope:.4f}")
    last_slope = (pts[-1][1] / pts[-1][0] - pts[-3][1] / pts[-3][0]) / math.log(
        pts[-1][0] / pts[-3][0]
    )
    winner = "assembled" if abs(last_slope - assembled) < abs(last_slope - published) else "published"
    print(
        f"\ntop-window slope {last_slope:.4f} -> the data supports the "
        f"{winner} constant"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
