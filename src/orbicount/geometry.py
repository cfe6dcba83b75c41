"""Points of the built-in geometries: boundary multiplicities, one
semi-integrality predicate (Darmon and Campana are two of its modes), and
local/global heights.

Conventions.  Both models compactify a vector group, so a point of the open
cell is one ``ProjectivePoint``: primitive integer coordinates, first
nonzero entry positive.  On projective n-space it is (x_0 : ... : x_n) with
the boundary hyperplane at x_n = 0; on the blow-up it is the point
(x0 : x1 : x2) = (1 : u : w) of the plane it blows up, so x0 > 0 is the lcm
of the denominators of u and w.  Each model reads the denominator of its
affine coordinates from that tuple, x_n on projective space and x0 on the
blow-up, and a zero denominator (or a blow-up tuple that is not a triple)
lies off the open cell.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple, Union

from . import arith
from .arith import int_valuation, is_prime, primitive_coords
from .errors import BoundaryPointError, PointParseError
from .orbifold import OrbifoldModel, PlaceSet, progression

__all__ = [
    "ProjectivePoint",
    "multiplicities",
    "multiplicities_pn",
    "multiplicities_blowup",
    "semi_integral",
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


def _pn_denominator(point: ProjectivePoint) -> int:
    """x_n, refused on the boundary hyperplane x_n = 0."""
    if not point.coords[-1]:
        raise BoundaryPointError("point lies on the boundary divisor x_n = 0")
    return point.coords[-1]


def _blowup_denominator(point: ProjectivePoint) -> int:
    """x0 of the triple (x0 : x1 : x2) = (1 : u : w), refused unless the
    point is a triple with x0 != 0 (then x0 > 0)."""
    if len(point.coords) != 3 or not point.coords[0]:
        raise BoundaryPointError(
            f"{point.coords} is not a blow-up point (x0 : x1 : x2) = (1 : u : w)")
    return point.coords[0]


# --------------------------------------------------------------------------
# multiplicities
# --------------------------------------------------------------------------


def _prime(p: int) -> int:
    """p, refused unless it is a prime: ``int_valuation`` does not check,
    and at p = 1 it would never return."""
    if not is_prime(p):
        raise ValueError(f"valuation requires a prime, got {p}")
    return p


def multiplicities_pn(point: ProjectivePoint, p: int) -> Dict[str, int]:
    """Contact order with the hyperplane x_n = 0: v_p(x_n), which on the
    primitive coordinates of a ``ProjectivePoint`` is max(0, v_p(x_n/x_i)
    over i < n)."""
    return {"D": int_valuation(_pn_denominator(point), _prime(p))}


def multiplicities_blowup(point: ProjectivePoint, p: int) -> Dict[str, int]:
    """Contact orders with the exceptional curve (D1) and the strict transform (D2).

    n(D1) = min(v(x_0), v(x_1)); n(D2) = max(0, v(x_0) - v(x_1)).
    """
    v0 = int_valuation(_blowup_denominator(point), _prime(p))
    x1 = point.coords[1]
    v1 = int_valuation(x1, p) if x1 else v0  # x1 = 0 gives (v0, 0) as v(x1) = inf
    return {"D1": min(v0, v1), "D2": max(0, v0 - v1)}


def multiplicities(point: ProjectivePoint, model: OrbifoldModel, p: int) -> Dict[str, int]:
    if model.name in ("p1", "pn"):
        return multiplicities_pn(point, p)
    if model.name == "blowup":
        return multiplicities_blowup(point, p)
    raise ValueError(f"no multiplicity rule for model {model.name!r}")


def relevant_primes(point: ProjectivePoint, model: OrbifoldModel) -> Tuple[int, ...]:
    """Primes where some boundary multiplicity can be nonzero."""
    if model.name in ("p1", "pn"):
        return tuple(arith.factorize(abs(_pn_denominator(point))))
    if model.name == "blowup":
        return tuple(arith.factorize(_blowup_denominator(point)))
    raise ValueError(f"no prime support rule for model {model.name!r}")


# --------------------------------------------------------------------------
# semi-integrality predicates
# --------------------------------------------------------------------------


def semi_integral(
    point: ProjectivePoint, model: OrbifoldModel, S: PlaceSet, mode: str
) -> bool:
    """Every multiplicity n at a prime outside S lies in its component's
    ``progression`` (f, d) in the mode: n = 0, or n >= f with d | n - f
    (only n = 0 where the progression is None)."""
    steps = [(comp.label, progression(comp.m, mode)) for comp in model.components]
    for p in relevant_primes(point, model):
        if p in S:
            continue
        mult = multiplicities(point, model, p)
        for label, fd in steps:
            n = mult[label]
            if n and (fd is None or n < fd[0] or (n - fd[0]) % fd[1]):
                return False
    return True


def is_darmon(point: ProjectivePoint, model: OrbifoldModel, S: PlaceSet) -> bool:
    """Every multiplicity at p outside S is divisible by the component weight
    (and zero where the weight is infinite)."""
    return semi_integral(point, model, S, "darmon")


def is_campana(point: ProjectivePoint, model: OrbifoldModel, S: PlaceSet) -> bool:
    """Every multiplicity at p outside S is zero or at least the weight."""
    return semi_integral(point, model, S, "campana")


# --------------------------------------------------------------------------
# heights
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalHeight:
    value: float
    exponent: Optional[Fraction]  # value == p ** exponent at a finite place p


def _blowup_exponents(model: OrbifoldModel) -> Tuple[Fraction, Fraction]:
    """(1 + 1/m1, 1 + 1/m2 - 1/m1) = (lam(D1), lam(D2) - lam(D1))."""
    lam1 = model.component("D1").lam
    return lam1, model.component("D2").lam - lam1


def _blowup_archimedean(point: ProjectivePoint, e1: Fraction, e2: Fraction) -> float:
    """max(1,|u|,|w|)^e1 * max(1,|u|)^e2 for (1 : u : w) = (x0 : x1 : x2);
    |x1| / x0 is correctly rounded, so it is the float of |u|."""
    x0, x1, x2 = point.coords
    u, w = abs(x1) / x0, abs(x2) / x0
    return max(1.0, u, w) ** float(e1) * max(1.0, u) ** float(e2)


def local_height(
    point: ProjectivePoint, model: OrbifoldModel, place: Union[int, float]
) -> LocalHeight:
    """One local height factor.

    Projective space: max(1, |x_0/x_n|, ..., |x_{n-1}/x_n|) at the place.
    Blow-up: max(1,|u|,|w|)^(1+1/m1) * max(1,|u|)^(1+1/m2-1/m1).
    """
    if model.name in ("p1", "pn"):
        xn = _pn_denominator(point)
        if place == ARCH:
            val = max(1.0, *(abs(xi / xn) for xi in point.coords[:-1]))
            return LocalHeight(val, None)
        p = int(place)
        exp = multiplicities_pn(point, p)["D"]  # max(0, v_p(x_n / x_i) over i < n)
        return LocalHeight(float(p) ** exp, Fraction(exp))
    if model.name == "blowup":
        x0 = _blowup_denominator(point)
        e1, e2 = _blowup_exponents(model)
        if place == ARCH:
            return LocalHeight(_blowup_archimedean(point, e1, e2), None)
        p = _prime(int(place))
        v0 = int_valuation(x0, p)
        # |u|_p = p^(v(x0) - v(x1)) and |w|_p likewise; a zero coordinate
        # never attains the max
        d1, d2 = (v0 - int_valuation(x, p) if x else 0 for x in point.coords[1:])
        exp = max(0, d1, d2) * e1 + max(0, d1) * e2
        return LocalHeight(float(p) ** float(exp), exp)
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

    def compare(self, bound: Union[int, Fraction]) -> int:
        """Exact sign of (height - bound), in integers: with D the lcm of the
        exponent denominators, the sign of prod base^(D exp) - bound^D."""
        num, den = bound.numerator, bound.denominator
        if num <= 0:
            return 1
        D = math.lcm(*(exp.denominator for _, exp in self.factors))
        lhs = den**D
        for base, exp in self.factors:
            lhs *= base ** (exp.numerator * (D // exp.denominator))
        rhs = num**D
        if lhs == rhs:
            return 0
        return -1 if lhs < rhs else 1

    def le(self, bound: Union[int, Fraction]) -> bool:
        return self.compare(bound) <= 0


def global_height(point: ProjectivePoint, model: OrbifoldModel) -> GlobalHeight:
    """Product of all local heights, via the closed form.

    Projective space: max over |x_i| of a primitive coordinate vector.
    Blow-up: max(|x_0|,|x_1|,|x_2|)^(1+1/m1) * (max(|x_0|,|x_1|)/g)^(1+1/m2-1/m1)
    with g = gcd(x_0, x_1).
    """
    if model.name in ("p1", "pn"):
        xn = abs(_pn_denominator(point))
        big = max(abs(c) for c in point.coords)
        return GlobalHeight(
            factors=((big, Fraction(1)),),
            finite_factors=((xn, Fraction(1)),),
            archimedean=big / xn,
        )
    if model.name == "blowup":
        x0 = _blowup_denominator(point)
        e1, e2 = _blowup_exponents(model)
        _, x1, x2 = point.coords
        big = max(x0, abs(x1), abs(x2))
        big2 = max(x0, abs(x1))
        g = math.gcd(x0, x1)
        return GlobalHeight(
            factors=((big, e1), (big2 // g, e2)),
            finite_factors=((g, e1), (x0 // g, model.component("D2").lam)),
            archimedean=_blowup_archimedean(point, e1, e2),
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


def parse_point(model: OrbifoldModel, text: str) -> ProjectivePoint:
    """Parse the model's point syntax.

    p1: "p/q";  pn: "x0:x1:...:xn";  blowup: "u,w" with rational entries,
    the point (1 : u : w).
    """
    text = text.strip()
    if model.name == "blowup":
        parts = text.split(",")
        if len(parts) != 2:
            raise PointParseError("blow-up points are written 'u,w'")
        return ProjectivePoint.from_rationals((1, *map(_parse_fraction, parts)))
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
        _pn_denominator(pt)
        return pt
    raise PointParseError(f"no parser for model {model.name!r}")
