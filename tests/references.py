"""Test references that the package itself no longer calls: per-q coprime
counts, the Euler phi of one n, the place-by-place global height, and the
admissible denominators with their primes as tuples."""

import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from orbicount import enumeration
from orbicount.arith import factorize
from orbicount.geometry import ARCH, ProjectivePoint, local_height, relevant_primes
from orbicount.orbifold import OrbifoldModel, PlaceSet


def signed_squarefree_divisors(primes: Sequence[int]) -> List[int]:
    """Squarefree divisors of prod(primes), sign-encoding the Moebius value."""
    divs = [1]
    for p in primes:
        divs += [-d * p for d in divs]
    return divs


def count_coprime(limit: int, primes: Sequence[int]) -> int:
    """#{1 <= k <= limit : gcd(k, prod primes) = 1} by inclusion-exclusion."""
    if limit <= 0:
        return 0
    total = 0
    for d in signed_squarefree_divisors(primes):
        total += limit // d if d > 0 else -(limit // -d)
    return total


def euler_phi(n: int) -> int:
    phi = n
    for p in factorize(n):
        phi -= phi // p
    return phi


def global_height_by_places(
    point: ProjectivePoint, model: OrbifoldModel
) -> Tuple[Dict[int, Fraction], float]:
    """Place-by-place evaluation: exact finite exponents per prime + the
    archimedean float.  Serves as the oracle for the closed form."""
    exponents: Dict[int, Fraction] = {}
    for p in relevant_primes(point, model):
        lh = local_height(point, model, p)
        if lh.exponent:
            exponents[p] = lh.exponent
    return exponents, local_height(point, model, ARCH).value


def denominators(
    m: int, S: PlaceSet, limit: int, mode: str
) -> List[Tuple[int, Tuple[int, ...]]]:
    """The admissible last coordinates q <= limit of the projective models,
    ascending, each with its distinct primes: every q in rational mode, else
    the q whose exponent at each prime outside S is a multiple of m (Darmon)
    or at least m (Campana), from ``enumeration._denominator_walk``."""
    first, step = (1, 1) if mode == "rational" else (m, m if mode == "darmon" else 1)
    q, primes, omega = enumeration._denominator_walk(
        limit, S.finite_primes, first, step, math.inf)
    return [(v, tuple(row[:k]))
            for v, row, k in zip(q.tolist(), primes.tolist(), omega.tolist())]
