"""Test references that the package itself no longer calls: the
perfect-power and k-full tests, per-q coprime counts, the Euler phi of one n, the place-by-place global height, the
admissible denominators with their primes as tuples, and the blow-up
height-zeta sum one column at a time."""

import math
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from orbicount import enumeration, fitting
from orbicount.arith import factorize, integer_kth_root
from orbicount.geometry import ARCH, ProjectivePoint, local_height, relevant_primes
from orbicount.orbifold import OrbifoldModel, PlaceSet


def is_kth_power(n: int, k: int) -> bool:
    """True iff every exponent in factorize(n) is divisible by k.

    Computed by exact k-th root extraction, which is equivalent for n >= 1.
    """
    if n < 1 or k < 1:
        raise ValueError("is_kth_power requires n >= 1 and k >= 1")
    if k == 1 or n == 1:
        return True
    return integer_kth_root(n, k) ** k == n


def is_k_full(n: int, k: int) -> bool:
    """True iff every exponent in factorize(n) is >= k (n=1 vacuously)."""
    if n < 1 or k < 1:
        raise ValueError("is_k_full requires n >= 1 and k >= 1")
    if k == 1 or n == 1:
        return True
    return all(e >= k for e in factorize(n).values())


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


def zeta_blowup_by_columns(
    m1: int, m2: int, S: PlaceSet, B, mode: str
) -> Callable[[float], float]:
    """The blow-up height-zeta sum as a function of s, one column of
    ``enumeration.blowup_columns`` at a time with a few float64 sums each
    (the terms of ``fitting._zeta_blowup``, before it summed the entries in
    blocks): sum_c w(c) c^-s2 [(2 c sum_{g <= G} phi(g) g^-s1 + 1) c^-s1
    + 2 sum_{rows <= k} mu(d) d^-s1 (Q(c g/d) - Q(X2 // d))]."""
    core = enumeration.blowup_columns(m1, m2, S, Fraction(B), mode, None)
    d = core.d.astype(np.float64)
    if not core.every_g:
        h = core.g // core.d
        hf = h.astype(np.float64)

    def at(s: float) -> float:
        s1 = s * (1 + 1.0 / m1)
        s2 = s * (1 + 1.0 / m2 - 1.0 / m1)
        Q = fitting._power_suffix(core.mmax, s1)
        dw = core.sign * d**-s1
        if core.every_g:
            P1 = fitting._power_prefix(core.mmax, s1 - 1.0)
        else:
            phi_rows = dw * hf ** (1.0 - s1)
        at_c = []
        columns = (core.w, core.X2, core.G, core.k)
        for c, (weight, X, G, k) in enumerate(zip(*(a.tolist() for a in columns)), 1):
            dk, w = core.d[:k], dw[:k]
            if core.every_g:
                H = G // dk
                R = np.cumsum(Q[c : c * G + 1 : c])  # R[H - 1] = sum_{h <= H} Q(c h)
                phi_sum = np.sum(w * P1[H])
                tail = np.sum(w * (R[H - 1] - H * Q[X // dk]))
            else:
                phi_sum = np.sum(phi_rows[:k])
                tail = np.sum(w * (Q[c * h[:k]] - Q[X // dk]))
            column = (2 * c * phi_sum + 1) * float(c) ** -s1 + 2 * tail
            at_c.append(weight * float(c) ** -s2 * column)
        return math.fsum(at_c)

    return at
