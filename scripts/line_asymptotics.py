#!/usr/bin/env python3
"""Line-model counting experiments.

Enumerates rational / m-full (Campana) / m-th-power (Darmon) points of
bounded height on the line model and compares the endpoint coefficients
N(B)/B^a against the closed-form constants, including the S-place
correction ratio.

The rational count takes the Mertens route (O(B^(2/3))), so it runs at the
full bound; --bmax 1e9 takes about 20 s, nearly all of it in the m = 2
per-denominator counts.

Usage:
    python scripts/line_asymptotics.py --bmax 1e9
"""

import argparse
import sys
from fractions import Fraction

from orbicount import constants, enumeration
from orbicount.orbifold import PlaceSet


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--bmax", default="1e6")
    args = ap.parse_args()
    B = int(Fraction(args.bmax))
    S0 = PlaceSet.of()
    S2 = PlaceSet.of([2])

    print(f"== line model, B = {B} ==")
    n = enumeration.count_p1(1, S0, B, "rational")
    print(
        f"m=1 rational: N({B}) = {n}; N/B^2 = {n / B**2:.6f} "
        f"vs 2/zeta(2) = {2 / constants.ZETA2:.6f}"
    )

    nd = enumeration.count_p1(2, S0, B, "darmon")
    print(
        f"m=2 darmon:   N({B}) = {nd}; N/B^1.5 = {nd / B**1.5:.6f} "
        f"vs 2/zeta(2) = {2 / constants.ZETA2:.6f}"
    )

    nc = enumeration.count_p1(2, S0, B, "campana")
    camp, tail = constants.p1_campana_constant(2, S0)
    print(
        f"m=2 campana:  N({B}) = {nc}; N/B^1.5 = {nc / B**1.5:.6f} "
        f"vs {camp:.6f} +- {tail:.1e}"
    )

    ns = enumeration.count_p1(2, S2, B, "darmon")
    print(
        f"m=2 darmon, S={{inf,2}}: N({B}) = {ns}; count ratio = {ns / nd:.6f} "
        f"vs S-factor {constants.p1_s_factor(2, 2):.6f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
