"""Boundary-divisor descriptors for the built-in geometries.

A model records, for every irreducible boundary component: its coefficient
in the anticanonical class (``rho``), its coefficient in the metrized line
bundle that drives heights (``lam``), and its orbifold weight ``m`` (a
positive integer, or None for the integrality condition epsilon = 1).
A stratum table assigns to each subset B of component labels a polynomial
in q counting residue-field points on the locally closed stratum where
exactly the components in B meet.

Two built-ins are provided: projective n-space with its boundary hyperplane,
and the blow-up of the projective plane at a boundary point with its two
boundary components.  Arbitrary component/stratum data is accepted as well
so the generic local-factor evaluator can be exercised on custom models,
but enumeration and constant assembly are wired only for the built-ins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from .arith import is_prime
from .errors import DomainError

__all__ = [
    "MODES",
    "progression",
    "BoundaryComponent",
    "OrbifoldModel",
    "PlaceSet",
    "projective_space",
    "blowup_p2",
    "a_invariant",
    "critical_set",
    "b_invariant",
    "eval_count_poly",
]


@dataclass(frozen=True)
class BoundaryComponent:
    """One irreducible boundary component.

    ``m`` is the orbifold weight: a finite weight m encodes the coefficient
    epsilon = 1 - 1/m, while None encodes epsilon = 1 (multiplicity must
    vanish outside S).
    """

    label: str
    rho: int
    lam: Fraction
    m: Optional[int] = 1

    @property
    def epsilon(self) -> Fraction:
        if self.m is None:
            return Fraction(1)
        return 1 - Fraction(1, self.m)


MODES = ("rational", "campana", "darmon")


def progression(m: Optional[int], mode: str) -> Optional[Tuple[int, int]]:
    """(f, d): at a prime outside S a component of weight m admits the
    multiplicities 0, f, f + d, f + 2d, ... in the mode: Darmon (m, m),
    Campana (m, 1), rational mode, weight 1 and the primes of S (1, 1).
    None (0 alone) at m None outside rational mode.  The one mode reader."""
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}")
    if mode == "rational" or m == 1:
        return 1, 1
    if m is None:
        return None
    return (m, m) if mode == "darmon" else (m, 1)


StratumTable = Dict[FrozenSet[str], Tuple[int, ...]]


@dataclass(frozen=True)
class OrbifoldModel:
    name: str  # "p1", "pn" or "blowup"
    dimension: int
    components: Tuple[BoundaryComponent, ...]
    strata: Mapping[FrozenSet[str], Tuple[int, ...]] = field(repr=False)
    params: Mapping[str, int] = field(default_factory=dict)

    def component(self, label: str) -> BoundaryComponent:
        for c in self.components:
            if c.label == label:
                return c
        raise KeyError(label)

    @property
    def is_builtin(self) -> bool:
        return self.name in ("p1", "pn", "blowup")


@dataclass(frozen=True)
class PlaceSet:
    """A finite set of places: the archimedean place plus ``finite_primes``."""

    finite_primes: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for p in self.finite_primes:
            if not is_prime(p):
                raise ValueError(f"PlaceSet entries must be prime, got {p}")
        object.__setattr__(self, "finite_primes", tuple(sorted(set(self.finite_primes))))

    @classmethod
    def of(cls, primes: Sequence[int] = ()) -> "PlaceSet":
        return cls(tuple(primes))

    def __contains__(self, p: int) -> bool:
        return p in self.finite_primes


def eval_count_poly(coeffs: Sequence[int], q: int) -> int:
    """Evaluate a count polynomial (ascending coefficients) at q."""
    total = 0
    for c in reversed(coeffs):
        total = total * q + c
    return total


def projective_space(n: int, m: int) -> OrbifoldModel:
    """Projective n-space; one boundary hyperplane of weight m.

    rho = n + 1, lam = 1; strata: the open cell has q^n points, the
    punctured hyperplane 1 + q + ... + q^(n-1).
    """
    if n < 1 or m < 1:
        raise ValueError("projective_space requires n >= 1 and m >= 1")
    comp = BoundaryComponent("D", rho=n + 1, lam=Fraction(1), m=m)
    strata: StratumTable = {
        frozenset(): (0,) * n + (1,),
        frozenset({"D"}): (1,) * n,
    }
    name = "p1" if n == 1 else "pn"
    return OrbifoldModel(name, n, (comp,), strata, {"n": n, "m": m})


def blowup_p2(m1: int, m2: int) -> OrbifoldModel:
    """The plane blown up at a boundary point; two boundary components.

    D1 is the exceptional curve (rho = 2, lam = 1 + 1/m1), D2 the strict
    transform of the line through the center (rho = 3, lam = 2 + 1/m2).
    Each punctured component has q residue-field points and the crossing
    point is rational, so the full table is {(): q^2, D1: q, D2: q, both: 1}.
    """
    if m1 < 1 or m2 < 1:
        raise ValueError("blowup_p2 requires m1 >= 1 and m2 >= 1")
    comps = (
        BoundaryComponent("D1", rho=2, lam=1 + Fraction(1, m1), m=m1),
        BoundaryComponent("D2", rho=3, lam=2 + Fraction(1, m2), m=m2),
    )
    strata: StratumTable = {
        frozenset(): (0, 0, 1),
        frozenset({"D1"}): (0, 1),
        frozenset({"D2"}): (0, 1),
        frozenset({"D1", "D2"}): (1,),
    }
    return OrbifoldModel("blowup", 2, comps, strata, {"m1": m1, "m2": m2})


# --------------------------------------------------------------------------
# invariants
# --------------------------------------------------------------------------


def _ratio(comp: BoundaryComponent) -> Fraction:
    return (comp.rho - comp.epsilon) / comp.lam


def a_invariant(model: OrbifoldModel) -> Fraction:
    """max over components of (rho - epsilon) / lam, in exact arithmetic."""
    return max(_ratio(c) for c in model.components)


def critical_set(model: OrbifoldModel) -> FrozenSet[str]:
    """Labels of the components attaining the a-invariant (exact argmax)."""
    a = a_invariant(model)
    return frozenset(c.label for c in model.components if _ratio(c) == a)


def b_invariant(model: OrbifoldModel) -> int:
    return len(critical_set(model))
