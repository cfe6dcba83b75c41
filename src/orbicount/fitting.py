"""Height-zeta partial sums and asymptotic coefficient fitting.

The height-zeta sums walk the same enumeration cores as the counts in
``enumeration``: the line sum runs over ``line_denominators`` and the
blow-up sum over the cells (g, c) of ``blowup_cells``, weighting each point
by H^-s instead of 1.  Both charge ``enumeration.DEFAULT_BUDGET`` their
predicted steps (the line's prefix sums and denominators, the blow-up's
strata and x_2 tails) before allocating or looping.

The fit works in ratio space: kappa is the mean of N(B) / (B^a (log B)^(b-1))
over the grid points inside the window (top two decades by default), and the
returned c_hat is kappa * a * (b-1)!.  No second-order term is fitted; the
relative RMS residual is reported so subleading contamination stays visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .arith import count_coprime, signed_squarefree_divisors
from .enumeration import (
    DEFAULT_BUDGET,
    CountSeries,
    all_denominators_admissible,
    blowup_cells,
    charge,
    line_denominators,
)
from .errors import DomainError
from .orbifold import OrbifoldModel, PlaceSet, a_invariant, b_invariant

__all__ = [
    "ZetaPartialSum",
    "zeta_partial_sum",
    "residue_probe",
    "FitResult",
    "fit_counts",
    "fit_series",
]


@dataclass(frozen=True)
class ZetaPartialSum:
    s: float
    bound: float
    value: float
    mode: str


def zeta_partial_sum(
    model: OrbifoldModel,
    S: PlaceSet,
    s: float,
    B: Union[int, float, Fraction],
    mode: str = "darmon",
) -> ZetaPartialSum:
    """sum of H(x)^-s over the mode's points with H(x) <= B (exact heights).

    Divergence for s below the critical exponent is the caller's concern: the
    partial sum is finite and is returned as-is.
    """
    s = float(s)
    Bf = Fraction(B)
    if model.name == "p1":
        value = _zeta_line(model, S, s, Bf, mode)
    elif model.name == "blowup":
        value = _zeta_blowup(model, S, s, Bf, mode)
    else:
        raise DomainError(f"no height-zeta summation for model {model.name!r}")
    return ZetaPartialSum(s=s, bound=float(Bf), value=value, mode=mode)


def _zeta_line(model, S, s, Bf, mode) -> float:
    Bint = math.floor(Bf)
    if Bint < 1:
        return 0.0
    m = model.params["m"]
    denominators = line_denominators(m, S, Bint, mode, DEFAULT_BUDGET)
    n_denominators = Bint if all_denominators_admissible(m, mode) else len(denominators)
    charge(DEFAULT_BUDGET, Bint + 1 + n_denominators)
    powers = np.arange(Bint + 1, dtype=np.float64)
    powers[0] = 1.0
    powers **= -s
    powers[0] = 0.0
    prefix = np.cumsum(powers)  # prefix[X] = sum_{n <= X} n^-s

    def coprime_power_sum(X: int, divs: Sequence[int]) -> float:
        total = 0.0
        for d in divs:
            if d > 0:
                total += d**-s * prefix[X // d]
            else:
                total -= (-d) ** -s * prefix[X // -d]
        return total

    value = 0.0
    for q, primes in denominators:
        divs = signed_squarefree_divisors(primes)
        at_q = 2 * count_coprime(q, primes) + (1 if q == 1 else 0)
        value += float(q) ** -s * at_q
        value += 2.0 * (coprime_power_sum(Bint, divs) - coprime_power_sum(q, divs))
    return float(value)


def _zeta_blowup(model, S, s, Bf, mode) -> float:
    m1, m2 = model.params["m1"], model.params["m2"]
    e1 = 1 + 1.0 / m1
    e2 = 1 + 1.0 / m2 - 1.0 / m1
    value = 0.0
    for weight, g, M2, gp, X2 in blowup_cells(m1, m2, S, Bf, mode):
        base = float(M2 // g) ** e2
        core = 2 * count_coprime(M2, gp) + (1 if g == 1 else 0)
        value += weight * core * (float(M2) ** e1 * base) ** -s
        for t in range(M2 + 1, X2 + 1):
            if math.gcd(t, g) != 1:
                continue
            value += weight * 2 * (float(t) ** e1 * base) ** -s
    return value


def residue_probe(
    model: OrbifoldModel,
    S: PlaceSet,
    s_values: Sequence[float],
    B: Union[int, float, Fraction],
    mode: str = "darmon",
) -> List[Tuple[float, float]]:
    """(s, (s - a)^b * partial zeta sum) along a grid of s above a.

    Diagnostic only: expected to flatten toward the residue constant as
    s decreases to a with B large, with no convergence guarantee."""
    a = float(a_invariant(model))
    b = b_invariant(model)
    out = []
    for s in s_values:
        z = zeta_partial_sum(model, S, float(s), B, mode)
        out.append((float(s), (float(s) - a) ** b * z.value))
    return out


# --------------------------------------------------------------------------
# count fitting
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    c_hat: float
    coefficient: float  # c_hat / (a (b-1)!) = fitted kappa
    a_used: float
    b_used: int
    residual: float  # relative RMS over the window
    window: Tuple[float, float]
    n_points: int


def fit_counts(
    points: Sequence[Tuple[float, int]],
    a: Union[float, Fraction],
    b: int,
    window: Optional[Tuple[float, float]] = None,
) -> FitResult:
    """Fit N(B) ~ kappa B^a (log B)^(b-1) over grid points inside the window."""
    if not points:
        raise DomainError("no count points to fit")
    if b < 1:
        raise DomainError("b must be a positive integer")
    a = float(a)
    bmax = max(B for B, _ in points)
    if window is None:
        window = (bmax / 100.0, bmax)
    lo, hi = float(window[0]), float(window[1])
    sel = [(B, N) for B, N in points if lo <= B <= hi]
    if not sel:
        raise DomainError("window excludes all grid points")
    ratios = [
        N / (B**a * math.log(B) ** (b - 1)) if B > 1 else float(N) for B, N in sel
    ]
    kappa = math.fsum(ratios) / len(ratios)
    if kappa > 0:
        resid = math.sqrt(math.fsum((r / kappa - 1) ** 2 for r in ratios) / len(ratios))
    else:
        resid = 0.0
    return FitResult(
        c_hat=kappa * a * math.factorial(b - 1),
        coefficient=kappa,
        a_used=a,
        b_used=b,
        residual=resid,
        window=(lo, hi),
        n_points=len(sel),
    )


def fit_series(
    series: CountSeries,
    mode: str = "darmon",
    a: Optional[Union[float, Fraction]] = None,
    b: Optional[int] = None,
    window: Optional[Tuple[float, float]] = None,
) -> FitResult:
    """Fit one column of a count series, defaulting a and b to the model's
    invariants."""
    column = {
        "rational": "n_rational",
        "campana": "n_campana",
        "darmon": "n_darmon",
    }[mode]
    pts = []
    for rec in series.records:
        v = getattr(rec, column)
        if v is not None:
            pts.append((float(rec.bound), v))
    if a is None:
        if mode == "rational":
            # rational counts have the epsilon = 0 exponent
            if series.model.name in ("p1", "pn"):
                a = Fraction(series.model.dimension + 1)
            elif series.model.params == {"m1": 1, "m2": 1}:
                a = Fraction(1)
            else:
                raise DomainError(
                    "pass a explicitly to fit rational counts on the blow-up"
                )
        else:
            a = a_invariant(series.model)
    if b is None:
        b = b_invariant(series.model)
    return fit_counts(pts, a, b, window)
