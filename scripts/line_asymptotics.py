#!/usr/bin/env python3
"""Line-model counting experiments.

Enumerates rational / m-full (Campana) / m-th-power (Darmon) points of
bounded height on the line model and compares the endpoint coefficients
N(B)/B^a against the closed-form constants, including the S-place
correction ratio.  Each row prints the wall time of its count.

The rational count takes the Mertens route (O(B^(2/3)) time and memory)
and the m = 2 Darmon and Campana counts the divisor sum over the shapes of
q (about B^(1/2) work), so all run at the full bound.  On a 2-CPU Linux
machine --bmax 1e9 takes 1.7 s, most of it interpreter start; --bmax 1e12
takes 12 s, 9.5 s of it the rational count (which peaks near 0.5 GB) and
1.1 s the Campana count with S = {inf, 2, 3}.

Usage:
    python scripts/line_asymptotics.py --bmax 1e12
"""

import argparse
import sys
import time
from fractions import Fraction

from orbicount import constants, enumeration
from orbicount.orbifold import PlaceSet


def timed(m, S, B, mode):
    start = time.perf_counter()
    n = enumeration.count_p1(m, S, B, mode, budget=None)
    return n, time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--bmax", default="1e6")
    args = ap.parse_args()
    try:
        B = int(Fraction(args.bmax))
    except (ValueError, ZeroDivisionError):
        ap.error(f"--bmax must be a number, got {args.bmax!r}")
    if B < 1:  # every row divides by a power of B
        ap.error(f"--bmax must be at least 1, got {args.bmax}")
    S0 = PlaceSet.of()
    S2 = PlaceSet.of([2])
    S23 = PlaceSet.of([2, 3])

    print(f"== line model, B = {B} ==")
    n, t = timed(1, S0, B, "rational")
    print(
        f"m=1 rational: N({B}) = {n}; N/B^2 = {n / B**2:.6f} "
        f"vs 2/zeta(2) = {2 / constants.ZETA2:.6f}  [{t:.2f} s]"
    )

    nd, t = timed(2, S0, B, "darmon")
    print(
        f"m=2 darmon:   N({B}) = {nd}; N/B^1.5 = {nd / B**1.5:.6f} "
        f"vs 2/zeta(2) = {2 / constants.ZETA2:.6f}  [{t:.2f} s]"
    )

    nc, t = timed(2, S0, B, "campana")
    camp, tail = constants.p1_campana_constant(2, S0)
    print(
        f"m=2 campana:  N({B}) = {nc}; N/B^1.5 = {nc / B**1.5:.6f} "
        f"vs {camp:.6f} +- {tail:.1e}  [{t:.2f} s]"
    )

    ns, t = timed(2, S2, B, "darmon")
    ref = constants.p1_reference_constants(2, S2).count_coefficient
    print(
        f"m=2 darmon, S={{inf,2}}: N({B}) = {ns}; N/B^1.5 = {ns / B**1.5:.8f} "
        f"vs {ref:.8f}; count ratio to S={{inf}} = {ns / nd:.6f} "
        f"vs S-factor {constants.p1_s_factor(2, 2):.6f}  [{t:.2f} s]"
    )

    nc23, t = timed(2, S23, B, "campana")
    camp23, tail23 = constants.p1_campana_constant(2, S23)
    print(
        f"m=2 campana, S={{inf,2,3}}: N({B}) = {nc23}; N/B^1.5 = {nc23 / B**1.5:.6f} "
        f"vs {camp23:.6f} +- {tail23:.1e}  [{t:.2f} s]"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
