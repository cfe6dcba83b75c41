"""Height-zeta partial sums and asymptotic coefficient fitting.

The height-zeta sums walk the same enumeration cores as the counts in
``enumeration``: the line sum runs over ``line_denominators`` and the
blow-up sum over the cells (g, c) of ``blowup_cells``, weighting each point
by H^-s instead of 1.  Sums of n^-s over the n coprime to a q come from one
float64 prefix array by inclusion-exclusion over the squarefree divisors
of q, so no loop runs over single points:

- when every q is admissible the line sum is 4 sum_{n <= B} phi(n) n^-s - 1,
  one Moebius sieve and one prefix array reduced over blocks of d (about
  9 bytes per unit of B);
- a Darmon or Campana line takes one prefix array of B + 1 entries
  (8 bytes each) and 2^(omega(q) + 1) prefix lookups per denominator q;
- the blow-up takes one prefix array up to the longest x_2 tail and
  2^(omega(g) + 1) lookups per cell.

Both charge ``enumeration.DEFAULT_BUDGET`` before allocating or looping:
the line its denominators, then 2B + 1 (all admissible) or B + 1 plus the
denominators; the blow-up its weight table, its prefix length and its
prefix lookups, 2^(omega(g) + 1) per cell (``blowup_cells``).  These
charges are upper bounds.

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

from .arith import count_coprime, mobius_sieve, signed_squarefree_divisors
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
    if all_denominators_admissible(m, mode):
        charge(DEFAULT_BUDGET, 2 * Bint + 1)
        # summed over every q the points of height n number 4 phi(n), less
        # one at n = 1 (the point 0 is counted once)
        return 4.0 * _phi_power_sum(Bint, s) - 1.0
    charge(DEFAULT_BUDGET, Bint + 1 + len(denominators))
    prefix = _power_prefix(Bint, s)
    value = 0.0
    for q, primes in denominators:
        divs = signed_squarefree_divisors(primes)
        at_q = 2 * count_coprime(q, primes) + (1 if q == 1 else 0)
        value += float(q) ** -s * at_q
        tail = _coprime_power_sum(prefix, s, Bint, divs)
        value += 2.0 * (tail - _coprime_power_sum(prefix, s, q, divs))
    return float(value)


def _power_prefix(X: int, s: float) -> np.ndarray:
    """prefix[x] = sum_{n <= x} n^-s for 0 <= x <= X: one float64 array."""
    prefix = np.arange(X + 1, dtype=np.float64)
    prefix[0] = 1.0
    prefix **= -s
    prefix[0] = 0.0
    return np.cumsum(prefix, out=prefix)


def _coprime_power_sum(
    prefix: np.ndarray, s: float, X: int, divs: Sequence[int]
) -> float:
    """sum of n^-s over the n <= X coprime to the primes whose signed
    squarefree divisors are ``divs``, from ``prefix = _power_prefix(., s)``:
    sum_{f | rad} mu(f) f^-s prefix[X // f]."""
    total = 0.0
    for d in divs:
        if d > 0:
            total += d**-s * prefix[X // d]
        else:
            total -= (-d) ** -s * prefix[X // -d]
    return total


_PHI_BLOCK = 1 << 16


def _phi_power_sum(B: int, s: float) -> float:
    """sum_{n <= B} phi(n) n^-s = sum_{d <= B} mu(d) d^-s P(floor(B/d)), with
    P(x) = sum_{n <= x} n^(1-s): one Moebius sieve and one prefix array
    (9 bytes per entry), reduced over blocks of d with ``np.sum`` and
    across blocks with ``math.fsum`` (a float64 ``np.dot`` would start BLAS
    threads)."""
    mu = mobius_sieve(B)
    prefix = _power_prefix(B, s - 1.0)
    blocks = []
    for lo in range(1, B + 1, _PHI_BLOCK):
        d = np.arange(lo, min(lo + _PHI_BLOCK, B + 1))
        terms = prefix[B // d]
        terms *= mu[lo : lo + len(d)]
        terms *= d.astype(np.float64) ** -s
        blocks.append(float(np.sum(terms)))
    return math.fsum(blocks)


def _zeta_blowup(model, S, s, Bf, mode) -> float:
    m1, m2 = model.params["m1"], model.params["m2"]
    s1 = s * (1 + 1.0 / m1)
    s2 = s * (1 + 1.0 / m2 - 1.0 / m1)
    prefix = None
    value = 0.0
    for weight, g, M2, gp, X2 in blowup_cells(m1, m2, S, Bf, mode):
        if prefix is None:
            # the first cell, (g, c) = (1, 1), has the longest x2 tail
            prefix = _power_prefix(X2, s1)
        divs = signed_squarefree_divisors(gp)
        core = 2 * count_coprime(M2, gp) + (1 if g == 1 else 0)
        tail = _coprime_power_sum(prefix, s1, X2, divs)
        tail -= _coprime_power_sum(prefix, s1, M2, divs)
        at_c = core * float(M2) ** -s1 + 2.0 * tail
        value += weight * float(M2 // g) ** -s2 * at_c
    return float(value)


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
