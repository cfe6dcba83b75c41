"""Zeta values, regularized Euler products with rigorous tails, and assembly
of the leading constant of the counting asymptotic.

The assembled constant is a product of three blocks:

* one residue factor 1/(m_a lam_a) per critical boundary component (the
  components attaining the a-invariant: their zeta regularizer has a simple
  pole at s = a with that residue);
* the regularized Euler product of normalized local factors at s = a.  For
  both built-ins every regularized factor collapses algebraically: the
  projective model gives 1 - p^(-n-1) (so the product is 1/zeta(n+1)) and
  the blow-up gives (1 - p^-2)^2 (so 1/zeta(2)^2).  The truncated-product
  route is kept alongside with an explicit tail bound; it evaluates the
  factors in float64 over segmented blocks of the primes up to the cutoff;
* the archimedean height integral at s = a, and one correction ratio per
  finite place of S (constraint-waived factor over the generic one).

Published closed-form counterparts for both models are computed next to the
assembly so disagreements are visible and can be adjudicated empirically by
the count fit; no candidate is silently preferred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Sequence, Tuple

import mpmath
import numpy as np

from .arith import prime_blocks
from .enumeration import DEFAULT_BUDGET, charge
from .errors import DomainError
from .localfactors import (
    archimedean_blowup,
    archimedean_projective,
    denef_factor,
    normalized_factors,
)
from .orbifold import (
    OrbifoldModel,
    PlaceSet,
    a_invariant,
    b_invariant,
    critical_set,
)

__all__ = [
    "ZETA2",
    "ZETA4",
    "riemann_zeta",
    "euler_product",
    "ConstantBreakdown",
    "leading_constant",
    "residue_exponents",
    "p1_s_factor",
    "p1_reference_constants",
    "P1ReferenceConstants",
    "p1_campana_constant",
    "campana_s_factor",
    "blowup_reference_constant",
    "blowup_archimedean_reference",
    "DEFAULT_PRIME_CUTOFF",
]

DEFAULT_PRIME_CUTOFF = 10**6

ZETA2 = math.pi**2 / 6
ZETA4 = math.pi**4 / 90


def riemann_zeta(s: float) -> float:
    """zeta(s) for real s > 1, from mpmath at double precision."""
    s = float(s)
    if s <= 1:
        raise DomainError("riemann_zeta requires s > 1")
    if s == 2.0:
        return ZETA2
    if s == 4.0:
        return ZETA4
    return float(mpmath.zeta(s))


# --------------------------------------------------------------------------
# truncated Euler products
# --------------------------------------------------------------------------


def euler_product(
    factors: Callable[[np.ndarray], Sequence[float]],
    prime_cutoff: int,
    decay_constant: float,
    decay_exponent: float,
) -> Tuple[float, float]:
    """(prod_{p <= prime_cutoff} f(p), absolute tail bound), where
    |log f(p)| <= decay_constant p^-decay_exponent beyond the cutoff.

    ``factors`` is called once per block of ``prime_blocks(prime_cutoff)``:
    it takes an ascending float64 array of primes and gives the values f(p)
    at them, one per prime.  The cutoff is charged to the default budget
    before any sieving.  Each block's log-factors are summed by ``np.sum``
    and the block sums by ``math.fsum``, in ascending prime order
    (deterministic reduction); the tail uses the integral bound
    sum_{p > P0} C p^-sigma <= C P0^(1-sigma) / (sigma - 1).
    """
    if prime_cutoff < 1:
        raise ValueError(f"prime cutoff must be at least 1, got {prime_cutoff}")
    if decay_exponent <= 1:
        raise ValueError("decay exponent must exceed 1")
    charge(DEFAULT_BUDGET, prime_cutoff, f"the Euler product up to p0 = {prime_cutoff}")
    log_sums = []
    for primes in prime_blocks(prime_cutoff):
        values = np.asarray(factors(primes), dtype=np.float64)
        bad = (~(values > 0)).nonzero()[0]
        if bad.size:
            raise DomainError(f"nonpositive Euler factor at p={int(primes[bad[0]])}")
        log_sums.append(float(np.sum(np.log(values))))
    value = math.exp(math.fsum(log_sums))
    sigma = decay_exponent
    tail_log = decay_constant * prime_cutoff ** (1 - sigma) / (sigma - 1)
    return value, value * math.expm1(tail_log)


# --------------------------------------------------------------------------
# the assembled leading constant
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantBreakdown:
    a: Fraction
    b: int
    residue_factors: Tuple[Tuple[str, Fraction], ...]
    finite_product: float
    tail_bound: float
    archimedean: float
    s_factors: Tuple[Tuple[int, float], ...]
    total: float

    @property
    def count_coefficient(self) -> float:
        """total / (a (b-1)!): the coefficient of B^a (log B)^(b-1)."""
        return self.total / (float(self.a) * math.factorial(self.b - 1))


def residue_exponents(model: OrbifoldModel) -> Dict[str, Fraction]:
    """m_a (a lam_a - rho_a + 1) for the critical components; each must be 1
    for the residue factors 1/(m_a lam_a) to apply (exact rational check)."""
    a = a_invariant(model)
    out: Dict[str, Fraction] = {}
    for label in sorted(critical_set(model)):
        comp = model.component(label)
        if comp.m is None:
            raise DomainError("critical component with infinite weight")
        out[label] = comp.m * (a * comp.lam - comp.rho + 1)
    return out


def leading_constant(
    model: OrbifoldModel,
    S: PlaceSet,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
    method: str = "exact",
) -> ConstantBreakdown:
    """Assemble the leading constant for a built-in model.

    method "exact" evaluates the regularized Euler product through the
    algebraic collapse to zeta values (tail 0); "truncated" multiplies the
    normalized local factors up to the cutoff and reports the tail bound.
    """
    if not model.is_builtin:
        raise DomainError("leading_constant is wired for built-in models only")
    a = a_invariant(model)
    b = b_invariant(model)
    for label, e in residue_exponents(model).items():
        if e != 1:
            raise DomainError(f"critical exponent at {label} is {e}, expected 1")
    residues = tuple(
        (label, Fraction(1, model.component(label).m) / model.component(label).lam)
        for label in sorted(critical_set(model))
    )
    if method == "exact":
        if model.name in ("p1", "pn"):
            finite = 1.0 / riemann_zeta(model.dimension + 1)
        else:
            finite = 1.0 / riemann_zeta(2) ** 2
        tail = 0.0
    elif method == "truncated":
        finite, tail = euler_product(
            lambda primes: normalized_factors(model, primes, a),
            prime_cutoff,
            decay_constant=2.0 * len(model.components),
            decay_exponent=2.0,
        )
    else:
        raise DomainError(f"unknown method {method!r}")
    if model.name in ("p1", "pn"):
        n = model.dimension
        arch = archimedean_projective(n, float(a)).closed_form
    else:
        arch = archimedean_blowup(
            model.params["m1"], model.params["m2"], float(a)
        ).closed_form
    s_factors = tuple(
        (p, float(denef_factor(model, p, a, in_S=True) / denef_factor(model, p, a)))
        for p in S.finite_primes
    )
    total = float(math.prod(float(r) for _, r in residues))
    total *= finite * arch
    for _, f in s_factors:
        total *= f
    breakdown = ConstantBreakdown(
        a=a,
        b=b,
        residue_factors=residues,
        finite_product=finite,
        tail_bound=tail,
        archimedean=arch,
        s_factors=s_factors,
        total=total,
    )
    parts = (finite, tail, arch, total, breakdown.count_coefficient, *(f for _, f in s_factors))
    if not all(map(math.isfinite, parts)):  # JSON has no Infinity or NaN
        raise DomainError(f"the leading constant of {model.name} {dict(model.params)}"
                          " passes the float range")
    return breakdown


# --------------------------------------------------------------------------
# published closed forms, kept for side-by-side comparison
# --------------------------------------------------------------------------


def p1_s_factor(p: int, m: int) -> float:
    """Correction ratio at a place of S for the line model:
    (1 - p^(-1-1/m)) / (1 - p^(-1/m) + p^-1 - p^(-1-1/m))."""
    x = float(p) ** (-1.0 / m)
    return (1 - x / p) / (1 - x + 1.0 / p - x / p)


@dataclass(frozen=True)
class P1ReferenceConstants:
    """Closed-form constants for the line count of exponent a = 1 + 1/m.

    ``count_coefficient`` multiplies B^(1+1/m) in the counting function;
    ``residue`` is a times that (the height-zeta residue at s = a);
    ``residue_times_m`` is the variant published without the 1/m residue
    factor.  The two displays disagree by the factor m for m >= 2; the
    count fit adjudicates (the coefficient route wins empirically).
    """

    m: int
    count_coefficient: float
    residue: float
    residue_times_m: float


def p1_reference_constants(m: int, S: PlaceSet) -> P1ReferenceConstants:
    s_part = math.prod(p1_s_factor(p, m) for p in S.finite_primes)
    coeff = 2.0 / riemann_zeta(2) * s_part
    a = 1 + 1.0 / m
    return P1ReferenceConstants(
        m=m,
        count_coefficient=coeff,
        residue=a * coeff,
        residue_times_m=m * a * coeff,
    )


def campana_s_factor(p: int, m: int) -> float:
    """S-place correction for the m-full count:
    (1 - p^(-1-1/m)) / (1 - p^(-1/m) + p^-1 - p^-2)."""
    x = float(p) ** (-1.0 / m)
    return (1 - x / p) / (1 - x + 1.0 / p - p**-2.0)


def p1_campana_constant(
    m: int, S: PlaceSet, prime_cutoff: int = DEFAULT_PRIME_CUTOFF
) -> Tuple[float, float]:
    """Coefficient of B^(1+1/m) for the m-full (Campana) line count, m >= 2:
    2 prod_p (1 - p^-2 + (1-1/p) p^-1 sum_{k=1}^{m-1} p^(-k/m)) times the
    S corrections.  Returns (value, tail bound)."""
    if m < 2:
        raise DomainError("the m-full closed form requires m >= 2")

    def factors(p: np.ndarray) -> np.ndarray:
        x = p ** (-1.0 / m)
        geom = sum(x**k for k in range(1, m))
        return 1 - p**-2.0 + (1 - 1.0 / p) * geom / p

    value, tail = euler_product(
        factors, prime_cutoff, decay_constant=float(m + 1), decay_exponent=1 + 1.0 / m
    )
    s_part = math.prod(campana_s_factor(p, m) for p in S.finite_primes)
    return 2.0 * value * s_part, 2.0 * tail * s_part


def blowup_reference_constant(
    m1: int, m2: int, prime_cutoff: int = DEFAULT_PRIME_CUTOFF
) -> Tuple[float, float]:
    """Published blow-up candidate ((1+m1)(1+m2)/(2 m1 m2)) prod (1 - 2/p^2 + 1/p^3)
    with a truncation tail bound.  Compare against the assembled constant."""
    def factors(p: np.ndarray) -> np.ndarray:
        return 1 - 2.0 / p**2 + 1.0 / p**3

    value, tail = euler_product(factors, prime_cutoff, decay_constant=3.0, decay_exponent=2.0)
    front = (1 + m1) * (1 + m2) / (2.0 * m1 * m2)
    return front * value, front * tail


def blowup_archimedean_reference(m1: int, m2: int) -> float:
    """Published archimedean value (1+m1)(1+m2); direct integration gives four
    times this (one factor 2 per coordinate axis), see archimedean_blowup."""
    return float((1 + m1) * (1 + m2))
