"""Points of the built-in geometries: boundary multiplicities, the Darmon
and Campana predicates, and local/global heights.

Conventions.  On projective n-space a point of the open cell is written in
primitive integer coordinates (x_0 : ... : x_n) with the boundary hyperplane
at x_n = 0.  On the blow-up a point is an affine pair (u, w) carried together
with the primitive triple of (1 : u : w).

The finite part of every height is held exactly as integer bases with
rational exponents, so "height <= bound" decisions never pass through
floating point; only archimedean values are floats.

Blow-up multiplicity convention: at the strict-transform component the
implemented multiplicity is max(0, v(x_0) - v(x_1)).  The transposed variant
max(0, v(x_1) - v(x_0)) is inconsistent with the local height factorization
H_p = p^(sum lam_a * n_a); the test suite keeps it to demonstrate that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple, Union

from .arith import (
    distinct_primes,
    int_valuation,
    is_prime,
    primitive_coords,
)
from .errors import BoundaryPointError, PointParseError
from .orbifold import OrbifoldModel, PlaceSet

__all__ = [
    "ProjectivePoint",
    "BlowupPoint",
    "Point",
    "multiplicities",
    "multiplicities_pn",
    "multiplicities_blowup",
    "is_darmon",
    "is_campana",
    "LocalHeight",
    "local_height",
    "GlobalHeight",
    "global_height",
    "relevant_primes",
    "parse_point",
]

ARCH = math.inf  # the archimedean place marker


@dataclass(frozen=True)
class ProjectivePoint:
    """Primitive integer coordinates, first nonzero entry positive."""

    coords: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) < 2:
            raise ValueError("need at least two homogeneous coordinates")
        # an all-zero tuple fails on its gcd 0 before next() looks for a sign
        if math.gcd(*self.coords) != 1 or next(filter(None, self.coords)) < 0:
            raise ValueError("coordinates are not in primitive normalized form")

    @classmethod
    def from_rationals(cls, xs: Sequence[Union[int, Fraction]]) -> "ProjectivePoint":
        return cls(primitive_coords(xs))

    @classmethod
    def from_affine(cls, us: Sequence[Union[int, Fraction]]) -> "ProjectivePoint":
        """Affine coordinates (u_1, ..., u_n) of the open cell, x_n = 1 slice."""
        return cls.from_rationals(tuple(us) + (1,))

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    @property
    def in_open_cell(self) -> bool:
        return self.coords[-1] != 0


@dataclass(frozen=True)
class BlowupPoint:
    """Affine pair (u, w) plus the primitive triple of (1 : u : w), which is
    (L, u L, w L) for L the lcm of the denominators of u and w."""

    u: Fraction
    w: Fraction
    triple: Tuple[int, int, int] = field(init=False)

    def __post_init__(self) -> None:
        u, w = Fraction(self.u), Fraction(self.w)
        L = math.lcm(u.denominator, w.denominator)
        triple = (L, u.numerator * (L // u.denominator), w.numerator * (L // w.denominator))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "triple", triple)

    @classmethod
    def from_affine(cls, u, w) -> "BlowupPoint":
        return cls(Fraction(u), Fraction(w))


Point = Union[ProjectivePoint, BlowupPoint]


# --------------------------------------------------------------------------
# multiplicities
# --------------------------------------------------------------------------


def _check_prime(p: int) -> None:
    """Refuse a place that is not a prime: ``int_valuation`` does not check,
    and at p = 1 it would never return."""
    if not is_prime(p):
        raise ValueError(f"valuation requires a prime, got {p}")


def multiplicities_pn(point: ProjectivePoint, p: int) -> Dict[str, int]:
    """Contact order with the hyperplane: max(0, v_p(x_n/x_i) over i < n).

    Scaling invariant as written; for primitive coordinates it equals
    v_p(x_n).
    """
    if not point.in_open_cell:
        raise BoundaryPointError("point lies on the boundary divisor x_n = 0")
    _check_prime(p)
    vn = int_valuation(point.coords[-1], p)
    best = 0
    for xi in point.coords[:-1]:
        if xi == 0:
            continue
        v = vn - int_valuation(xi, p)
        if v > best:
            best = v
    return {"D": best}


def multiplicities_blowup(point: BlowupPoint, p: int) -> Dict[str, int]:
    """Contact orders with the exceptional curve (D1) and the strict transform (D2).

    n(D1) = min(v(x_0), v(x_1)); n(D2) = max(0, v(x_0) - v(x_1)).
    """
    _check_prime(p)
    x0, x1, _ = point.triple
    v0 = int_valuation(x0, p)
    if x1 == 0:
        return {"D1": v0, "D2": 0}
    v1 = int_valuation(x1, p)
    return {"D1": min(v0, v1), "D2": max(0, v0 - v1)}


def multiplicities(point: Point, model: OrbifoldModel, p: int) -> Dict[str, int]:
    if model.name in ("p1", "pn"):
        return multiplicities_pn(point, p)
    if model.name == "blowup":
        return multiplicities_blowup(point, p)
    raise ValueError(f"no multiplicity rule for model {model.name!r}")


def relevant_primes(point: Point, model: OrbifoldModel) -> Tuple[int, ...]:
    """Primes where some boundary multiplicity can be nonzero."""
    if model.name in ("p1", "pn"):
        if not point.in_open_cell:
            raise BoundaryPointError("point lies on the boundary divisor x_n = 0")
        return distinct_primes(abs(point.coords[-1]))
    if model.name == "blowup":
        return distinct_primes(point.triple[0])
    raise ValueError(f"no prime support rule for model {model.name!r}")


# --------------------------------------------------------------------------
# semi-integrality predicates
# --------------------------------------------------------------------------


def is_darmon(point: Point, model: OrbifoldModel, S: PlaceSet) -> bool:
    """Every multiplicity at p outside S is divisible by the component weight
    (and zero where the weight is infinite)."""
    for p in relevant_primes(point, model):
        if p in S:
            continue
        mult = multiplicities(point, model, p)
        for comp in model.components:
            n = mult[comp.label]
            if comp.m is None:
                if n != 0:
                    return False
            elif n % comp.m != 0:
                return False
    return True


def is_campana(point: Point, model: OrbifoldModel, S: PlaceSet) -> bool:
    """Every multiplicity at p outside S is zero or at least the weight."""
    for p in relevant_primes(point, model):
        if p in S:
            continue
        mult = multiplicities(point, model, p)
        for comp in model.components:
            n = mult[comp.label]
            if comp.m is None:
                if n != 0:
                    return False
            elif 0 < n < comp.m:
                return False
    return True


# --------------------------------------------------------------------------
# heights
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalHeight:
    place: float  # a prime, or ARCH
    value: float
    exponent: Optional[Fraction]  # value == place ** exponent at finite places


def _blowup_exponents(model: OrbifoldModel) -> Tuple[Fraction, Fraction]:
    """(1 + 1/m1, 1 + 1/m2 - 1/m1) = (lam(D1), lam(D2) - lam(D1))."""
    lam1 = model.component("D1").lam
    return lam1, model.component("D2").lam - lam1


def local_height(point: Point, model: OrbifoldModel, place: Union[int, float]) -> LocalHeight:
    """One local height factor.

    Projective space: max(1, |x_0/x_n|, ..., |x_{n-1}/x_n|) at the place.
    Blow-up: max(1,|u|,|w|)^(1+1/m1) * max(1,|u|)^(1+1/m2-1/m1).
    """
    if model.name in ("p1", "pn"):
        if not point.in_open_cell:
            raise BoundaryPointError("point lies on the boundary divisor x_n = 0")
        xn = point.coords[-1]
        if place == ARCH:
            val = max(1.0, *(abs(xi / xn) for xi in point.coords[:-1]))
            return LocalHeight(ARCH, val, None)
        p = int(place)
        exp = multiplicities_pn(point, p)["D"]  # max(0, v_p(x_n / x_i) over i < n)
        return LocalHeight(p, float(p) ** exp, Fraction(exp))
    if model.name == "blowup":
        e1, e2 = _blowup_exponents(model)
        if place == ARCH:
            u, w = float(point.u), float(point.w)
            val = max(1.0, abs(u), abs(w)) ** float(e1) * max(1.0, abs(u)) ** float(e2)
            return LocalHeight(ARCH, val, None)
        p = int(place)
        _check_prime(p)
        x0, x1, x2 = point.triple
        v0 = int_valuation(x0, p)
        # |u|_p, |w|_p exceed 1 exactly when v(x0) exceeds the other valuation;
        # coordinates equal to zero never attain the max.
        a1 = max(
            0,
            v0 - (int_valuation(x1, p) if x1 else v0),
            v0 - (int_valuation(x2, p) if x2 else v0),
        )
        b1 = max(0, v0 - (int_valuation(x1, p) if x1 else v0))
        exp = a1 * e1 + b1 * e2
        return LocalHeight(p, float(p) ** float(exp), exp)
    raise ValueError(f"no height rule for model {model.name!r}")


@dataclass(frozen=True)
class GlobalHeight:
    """A product of integer bases raised to positive rational exponents.

    ``factors`` is the full closed form; ``finite_factors`` the product of
    the finite local factors; ``archimedean`` the remaining float factor.
    """

    factors: Tuple[Tuple[int, Fraction], ...]
    finite_factors: Tuple[Tuple[int, Fraction], ...]
    archimedean: float

    @property
    def value(self) -> float:
        out = 1.0
        for base, exp in self.factors:
            out *= float(base) ** float(exp)
        return out

    def compare(self, bound: Fraction) -> int:
        """Exact sign of (height - bound); bound must be rational."""
        bound = Fraction(bound)
        if bound <= 0:
            return 1
        denom = 1
        for _, exp in self.factors:
            denom = denom * exp.denominator // math.gcd(denom, exp.denominator)
        lhs = 1
        for base, exp in self.factors:
            lhs *= base ** int(exp * denom)
        rhs = bound**denom
        if lhs == rhs:
            return 0
        return -1 if lhs < rhs else 1

    def le(self, bound: Fraction) -> bool:
        return self.compare(bound) <= 0


def global_height(point: Point, model: OrbifoldModel) -> GlobalHeight:
    """Product of all local heights, via the closed form.

    Projective space: max over |x_i| of a primitive coordinate vector.
    Blow-up: max(|x_0|,|x_1|,|x_2|)^(1+1/m1) * (max(|x_0|,|x_1|)/g)^(1+1/m2-1/m1)
    with g = gcd(x_0, x_1).
    """
    if model.name in ("p1", "pn"):
        if not point.in_open_cell:
            raise BoundaryPointError("point lies on the boundary divisor x_n = 0")
        big = max(abs(c) for c in point.coords)
        xn = abs(point.coords[-1])
        return GlobalHeight(
            factors=((big, Fraction(1)),),
            finite_factors=((xn, Fraction(1)),),
            archimedean=big / xn,
        )
    if model.name == "blowup":
        e1, e2 = _blowup_exponents(model)
        x0, x1, x2 = point.triple
        big = max(x0, abs(x1), abs(x2))
        big2 = max(x0, abs(x1))
        g = math.gcd(x0, x1)
        lam1 = model.component("D1").lam
        lam2 = model.component("D2").lam
        arch = max(1.0, abs(float(point.u)), abs(float(point.w))) ** float(e1) * max(
            1.0, abs(float(point.u))
        ) ** float(e2)
        return GlobalHeight(
            factors=((big, e1), (big2 // g, e2)),
            finite_factors=((g, lam1), (x0 // g, lam2)),
            archimedean=arch,
        )
    raise ValueError(f"no height rule for model {model.name!r}")


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise PointParseError(f"cannot parse rational {text!r}: {exc}") from exc


def parse_point(model: OrbifoldModel, text: str) -> Point:
    """Parse the model's point syntax.

    p1: "p/q";  pn: "x0:x1:...:xn";  blowup: "u,w" with rational entries.
    """
    text = text.strip()
    if model.name == "blowup":
        parts = text.split(",")
        if len(parts) != 2:
            raise PointParseError("blow-up points are written 'u,w'")
        return BlowupPoint(_parse_fraction(parts[0]), _parse_fraction(parts[1]))
    if model.name in ("p1", "pn"):
        if ":" in text:
            parts = [_parse_fraction(t) for t in text.split(":")]
            if len(parts) != model.dimension + 1:
                raise PointParseError(
                    f"expected {model.dimension + 1} homogeneous coordinates"
                )
            try:
                pt = ProjectivePoint.from_rationals(parts)
            except ValueError as exc:
                raise PointParseError(str(exc)) from exc
        else:
            if model.dimension != 1:
                raise PointParseError("affine input is only supported on the line")
            pt = ProjectivePoint.from_affine((_parse_fraction(text),))
        if not pt.in_open_cell:
            raise BoundaryPointError("point lies on boundary divisor")
        return pt
    raise PointParseError(f"no parser for model {model.name!r}")
