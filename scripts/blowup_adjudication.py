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

import math
import sys

import report
from orbicount import constants, fitting
from orbicount.orbifold import PlaceSet, blowup_p2


def main() -> int:
    bmax = report.bmax_argument(least=10**4 + 1)  # the top-window slope needs 3 grid points
    S0, model = PlaceSet.of(), blowup_p2(1, 1)
    pts = []
    for b in sorted({*(10**k for k in range(3, len(str(bmax)))), bmax}):
        n, wall = report.timed_count(model, S0, b, "darmon")
        pts.append((float(b), n))
        print(f"N({b}) = {n}  N/(B log B) = {n / (b * math.log(b)):.5f}  ({wall:.2f} s)")

    assembled = constants.leading_constant(model, S0).count_coefficient
    published, tail = constants.blowup_reference_constant(1, 1)
    print(f"\ncandidate (i)  assembled : {assembled:.6f}")
    print(f"candidate (ii) published : {published:.6f} +- {tail:.1e}")

    fit = fitting.fit_counts(pts, 1, 2, window=(1e3, min(1e5, float(bmax))))
    print(f"\nsingle-term fit on [1e3, {min(10**5, bmax)}]: kappa = "
          f"{fit.coefficient:.4f} (residual {fit.residual:.3f})")
    print("per-decade slopes of N/B vs log B (cancel the linear term):")
    for lower, upper in zip(pts, pts[1:]):
        print(f"  [{lower[0]:.0e}, {upper[0]:.0e}]: {report.slope(lower, upper):.4f}")
    last_slope = report.slope(pts[-3], pts[-1])
    nearer = abs(last_slope - assembled) < abs(last_slope - published)
    winner = "assembled" if nearer else "published"
    print(f"\ntop-window slope {last_slope:.4f} -> the data supports the {winner} constant")
    return 0


if __name__ == "__main__":
    sys.exit(main())
