"""Height-zeta partial sums and asymptotic coefficient fitting.

The height-zeta sums weight each point by H^-s instead of 1, on float64
prefix or suffix arrays of n^-s, so no loop runs over single points.  The
blow-up sum runs on the blow-up count's core in ``enumeration``; the line
sums do not run on the line count's divisor sum:

- when every q is admissible the line sum is 4 sum_{n <= B} phi(n) n^-s - 1,
  one Moebius sieve and one prefix array reduced over blocks of d (about
  9 bytes per unit of B);
- a Darmon or Campana line takes one prefix array of B + 1 entries
  (8 bytes each) and 2^(omega(q) + 1) prefix lookups per denominator q of
  ``line_denominators``, by inclusion-exclusion over the squarefree
  divisors of q;
- the blow-up takes the count's rows and columns c (``blowup_columns``)
  and a few float64 dots per column over a suffix array of n^-s1.

Both charge ``enumeration.DEFAULT_BUDGET`` before allocating or looping:
the line 2B + 1 (all admissible), or its denominators and then B + 1 plus
the denominators; the blow-up the count's charge of ``blowup_columns`` with
three passes over its dot entries (the dots, Q with the R_c and P1) and the
two tables Q and P1.  These charges are upper bounds.

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
    blowup_columns,
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
    if all_denominators_admissible(m, mode):
        charge(DEFAULT_BUDGET, 2 * Bint + 1)
        # summed over every q the points of height n number 4 phi(n), less
        # one at n = 1 (the point 0 is counted once)
        return 4.0 * _phi_power_sum(Bint, s) - 1.0
    denominators = line_denominators(m, S, Bint, mode, DEFAULT_BUDGET)
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


def _power_suffix(X: int, s: float) -> np.ndarray:
    """suffix[x] = sum_{x < n <= X} n^-s for 0 <= x <= X, summed from the
    top, so a short tail keeps its relative precision."""
    suffix = np.arange(1, X + 2, dtype=np.float64)  # suffix[x] = x + 1
    suffix **= -s
    suffix[X] = 0.0
    np.cumsum(suffix[::-1], out=suffix[::-1])
    return suffix


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
    """sum_c w(c) c^-s2 [(2 c sum_{g <= G} phi(g) g^-s1 + 1) c^-s1
    + 2 sum_{rows <= k} mu(d) d^-s1 (Q(c g/d) - Q(X2 // d))] over the
    columns of ``blowup_columns``: the x2 with |x2| <= g c, then the tail by
    Moebius over d | g; s1 = s (1 + 1/m1), s2 = s (1 + 1/m2 - 1/m1), Q(x) =
    sum_{x < n <= Mmax} n^-s1 and phi(g) g^-s1 = sum_{d | g} mu(d) d^-s1
    (g/d)^(1-s1).  When every g = f h is admissible the sums over h <= H =
    G // f are P1(H), P1 the prefix of h^(1-s1), and R_c(H) - H Q(X2 // f),
    R_c(H) = sum_{h <= H} Q(c h).  Dots are ``np.sum`` (no BLAS threads)."""
    m1, m2 = model.params["m1"], model.params["m2"]
    s1 = s * (1 + 1.0 / m1)
    s2 = s * (1 + 1.0 / m2 - 1.0 / m1)
    core = blowup_columns(m1, m2, S, Bf, mode, DEFAULT_BUDGET, passes=3)
    Q = _power_suffix(core.mmax, s1)
    dw = core.sign * core.d.astype(np.float64) ** -s1
    if core.every_g:
        P1 = _power_prefix(core.mmax, s1 - 1.0)
    else:
        h = core.g // core.d
        phi_rows = dw * h.astype(np.float64) ** (1.0 - s1)
    at_c = []
    for c, weight, X, G, k in core.columns:
        d, w = core.d[:k], dw[:k]
        if core.every_g:
            H = G // d
            R = np.cumsum(Q[c : c * G + 1 : c])
            phi_sum = np.sum(w * P1[H])
            tail = np.sum(w * (R[H - 1] - H * Q[X // d]))
        else:
            phi_sum = np.sum(phi_rows[:k])
            tail = np.sum(w * (Q[c * h[:k]] - Q[X // d]))
        column = (2 * c * phi_sum + 1) * float(c) ** -s1 + 2 * tail
        at_c.append(weight * float(c) ** -s2 * column)
    return math.fsum(at_c)


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
