#!/usr/bin/env python3
"""Line-model counting experiments.

Enumerates rational / m-full (Campana) / m-th-power (Darmon) points of
bounded height on the line model and compares the endpoint coefficients
N(B)/B^a against the closed-form constants, including the S-place
correction ratio.  Each row prints the wall time of its count.

The rational count takes the Mertens route (O(B^(2/3)) time and memory)
and the m = 2 Darmon and Campana counts the divisor sum over the shapes of
q (about B^(1/2) work), so all run at the full bound.  On a 2-CPU Linux
machine --bmax 1e9 takes 0.4 s, most of it interpreter start; --bmax 1e12
takes 7.3 s, 6.4 s of it the rational count (which peaks near 0.46 GB) and
0.3 s the Campana count with S = {inf, 2, 3}.

Usage:
    python scripts/line_asymptotics.py --bmax 1e12
"""

import sys

import report
from orbicount import constants
from orbicount.orbifold import PlaceSet, projective_space


def main() -> int:
    B = report.bmax_argument(least=1)  # every row divides by a power of B
    S0, S2, S23 = PlaceSet.of(), PlaceSet.of([2]), PlaceSet.of([2, 3])
    line1, line2 = projective_space(1, 1), projective_space(1, 2)
    closed = constants.p1_reference_constants
    rows = [  # model, S, mode, (reference constant, its truncation bound)
        (line1, S0, "rational", (closed(1, S0).count_coefficient, 0.0)),
        (line2, S0, "darmon", (closed(2, S0).count_coefficient, 0.0)),
        (line2, S0, "campana", constants.p1_campana_constant(2, S0)),
        (line2, S2, "darmon", (closed(2, S2).count_coefficient, 0.0)),
        (line2, S23, "campana", constants.p1_campana_constant(2, S23)),
    ]
    print(f"== line model, B = {B} ==")
    counts = []
    for model, S, mode, (ref, tail) in rows:
        n, t = report.timed_count(model, S, B, mode, budget=None)
        counts.append(n)
        m = model.params["m"]
        places = ",".join(["inf", *map(str, S.finite_primes)])
        bound = f" +- {tail:.1e}" if tail else ""
        print(f"m={m} {mode}, S={{{places}}}: N({B}) = {n}; N/B^{1 + 1 / m:g} = "
              f"{n / B ** (1 + 1 / m):.8f} vs {ref:.8f}{bound}  [{t:.2f} s]")
    print(f"m=2 darmon count ratio S={{inf,2}} / S={{inf}} = {counts[3] / counts[1]:.6f}"
          f" vs S-factor {constants.p1_s_factor(2, 2):.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
