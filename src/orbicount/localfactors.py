"""Local factors of the height integral.

At a finite place the factor is one stratum sum, driven by the model's
stratum table: for each subset B of components,
count_B(p) / p^(n - |B|) * prod_{a in B} (1 - 1/p) t_a / (1 - t_a)
with t_a = p^(-m_a (s lam_a - rho_a + 1)).  One evaluator computes it, and
with it the regularizer prod_a (1 - t_a), in either of two precisions:

* in mpmath (30 significant digits by default) at one prime, for
  ``denef_factor`` and ``normalized_factor``, so that oracle agreement can
  be asserted far below double precision;
* in float64 over a whole array of primes at once, for
  ``normalized_factors``, which the Euler products use.

Two independent routes cross-check it:

* per-model closed forms (``p1_factor``, ``blowup_factor``);
* ``shell_sum_oracle`` - a brute-force sum over valuation shells truncated at
  a given depth, returning the value together with a rigorous truncation
  bound (which includes a small precision cushion); its predicted terms are
  charged to the default budget first.

At a place in S the divisibility constraint on multiplicities is waived,
which amounts to replacing every weight by 1 (``in_S=True``).

Archimedean factors return a piecewise closed form next to a lazy
quadrature cross-check: each smooth region reduces to integrals over
(0, 1], which mpmath's tanh-sinh rule takes after the map t = e^-x, and
the integration runs only when ``quadrature`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
import operator
from typing import Callable, Optional, Sequence, Tuple, Union

import mpmath
import numpy as np
from mpmath import mpf

from .enumeration import DEFAULT_BUDGET, charge
from .errors import DomainError
from .orbifold import BoundaryComponent, OrbifoldModel

__all__ = [
    "DPS",
    "OracleResult",
    "ArchimedeanFactor",
    "denef_factor",
    "p1_factor",
    "blowup_factor",
    "normalized_factor",
    "normalized_factors",
    "shell_sum_oracle",
    "archimedean_projective",
    "archimedean_blowup",
]

DPS = 30  # working precision (significant digits) for finite-place factors
# budget steps per shell-sum term: one mpmath term takes about 4 us, one step
# of the Mertens count about 18 ns
_TERM_STEPS = 200

Number = Union[int, float, Fraction]


def _prime(p) -> mpf:
    """The prime p as an mpf: a Python or NumPy integer through
    ``operator.index``, or a float as it is (the Euler products pass their
    primes as float64)."""
    return mpf(p if isinstance(p, float) else operator.index(p))


def _to_mpf(x: Number) -> mpf:
    if isinstance(x, Fraction):
        return mpf(x.numerator) / mpf(x.denominator)
    return mpf(x)


@dataclass(frozen=True)
class OracleResult:
    value: mpf
    bound: mpf


@dataclass(frozen=True)
class ArchimedeanFactor:
    """Closed form of an archimedean integral.  ``quadrature`` calls
    ``integrate`` on its first read and keeps the value; the constants read
    only ``closed_form``, so they never integrate."""

    closed_form: float
    integrate: Callable[[], float] = field(repr=False, compare=False)

    @cached_property
    def quadrature(self) -> float:
        return self.integrate()

    @property
    def difference(self) -> float:
        return abs(self.closed_form - self.quadrature)


# --------------------------------------------------------------------------
# finite places: stratum sum and closed forms
# --------------------------------------------------------------------------


def _exponent(comp: BoundaryComponent, s: Number, in_S: bool) -> Optional[Fraction]:
    """m_a (s lam_a - rho_a + 1), exactly, with t_a = p^-exponent; None when
    the weight is infinite (no admissible contact order) outside S."""
    m_eff = 1 if in_S else comp.m
    if m_eff is None:
        return None
    exponent = m_eff * (Fraction(s) * comp.lam - comp.rho + 1)
    if exponent <= 0:
        raise DomainError(
            f"local factor diverges: component {comp.label} needs "
            f"s > {(comp.rho - 1)}/{comp.lam}"
        )
    return exponent


def _stratum_sum(
    model: OrbifoldModel, p: Union[mpf, np.ndarray], s: Number, in_S: bool, lib
) -> Tuple:
    """The stratum sum and prod_a (1 - t_a), at one mpf p under
    ``workdps(DPS)`` (``lib`` = mpmath) or at a float64 array of primes
    (``lib`` = numpy).  With log t_a = -e_a log p, 1 - t_a is
    -expm1(log t_a), exact to a few ulps when t_a is close to 1.  A stratum
    drops out when one of its components has infinite weight outside S."""
    real = _to_mpf if lib is mpmath else float
    log_p = lib.log(p)
    weight = 1 - 1 / p
    series, regularizer = {}, 1
    for comp in model.components:
        exponent = _exponent(comp, s, in_S)
        if exponent is None:
            continue
        log_t = -real(exponent) * log_p
        one_minus_t = -lib.expm1(log_t)
        series[comp.label] = weight * lib.exp(log_t) / one_minus_t
        regularizer = regularizer * one_minus_t
    total = 0
    for subset, coeffs in model.strata.items():
        if not subset <= series.keys():
            continue
        shift = model.dimension - len(subset)
        piece = sum(c * p ** (j - shift) for j, c in enumerate(coeffs) if c)
        for label in subset:
            piece = piece * series[label]
        total = total + piece
    return total, regularizer


def denef_factor(model: OrbifoldModel, p: int, s: Number, in_S: bool = False) -> mpf:
    """Finite-place factor as the stratum sum."""
    with mpmath.workdps(DPS):
        return _stratum_sum(model, _prime(p), s, in_S, mpmath)[0]


def p1_factor(p: int, m: int, s: Number, in_S: bool = False) -> mpf:
    """Closed form on the line: 1 + (1 - 1/p) t/(1 - t), t = p^(m_eff (1-s))."""
    with mpmath.workdps(DPS):
        m_eff = 1 if in_S else m
        sv = _to_mpf(s)
        if sv <= 1:
            raise DomainError("line local factor requires s > 1")
        pv = _prime(p)
        t = pv ** (m_eff * (1 - sv))
        return 1 + (1 - 1 / pv) * t / (1 - t)


def blowup_factor(p: int, m1: int, m2: int, s: Number, in_S: bool = False) -> mpf:
    """Closed form on the blow-up: (1 + A1)(1 + A2) written out as the
    four-term sum 1 + A1 + A2 + A1 A2."""
    with mpmath.workdps(DPS):
        m1e = 1 if in_S else m1
        m2e = 1 if in_S else m2
        sv = _to_mpf(s)
        lam1 = _to_mpf(1 + Fraction(1, m1))
        lam2 = _to_mpf(2 + Fraction(1, m2))
        e1 = m1e * (sv * lam1 - 1)
        e2 = m2e * (sv * lam2 - 2)
        if e1 <= 0 or e2 <= 0:
            raise DomainError("blow-up local factor diverges at this s")
        pv = _prime(p)
        t1 = pv**-e1
        t2 = pv**-e2
        w = 1 - 1 / pv
        a1 = w * t1 / (1 - t1)
        a2 = w * t2 / (1 - t2)
        return 1 + a1 + a2 + a1 * a2


def normalized_factor(model: OrbifoldModel, p: int, s: Number, in_S: bool = False) -> mpf:
    """denef_factor times prod_a (1 - t_a): the zeta-regularized local factor,
    equal to 1 + O(p^(-1-delta')) in the convergence region."""
    with mpmath.workdps(DPS):
        total, regularizer = _stratum_sum(model, _prime(p), s, in_S, mpmath)
        return total * regularizer


def normalized_factors(
    model: OrbifoldModel, primes: Sequence[int], s: Number, in_S: bool = False
) -> np.ndarray:
    """``normalized_factor`` at every prime of ``primes`` at once, in float64."""
    p = np.asarray(primes, dtype=np.float64)
    total, regularizer = _stratum_sum(model, p, s, in_S, np)
    return total * regularizer


# --------------------------------------------------------------------------
# shell-sum oracles
# --------------------------------------------------------------------------


def _shell_projective(
    n: int, m: int, p: int, s: Number, depth: int, in_S: bool
) -> OracleResult:
    """Sum over shells max|u|_p = p^l: measure p^(ln) (1 - p^-n), height p^(ls),
    contact order l gated by m | l."""
    m_eff = 1 if in_S else m
    sv = _to_mpf(s)
    pv = _prime(p)
    if sv <= n:
        raise DomainError("projective local factor requires s > n")
    shell = 1 - pv**-n
    ratio = pv ** (n - sv)  # per-shell growth; < 1 in the convergence region
    value = mpf(1)
    term = mpf(1)
    for l in range(1, depth + 1):
        term *= ratio
        if l % m_eff == 0:
            value += shell * term
    tail = shell * ratio ** (depth + 1) / (1 - ratio)
    cushion = mpf(10) ** (-(DPS - 6)) * (1 + abs(value))
    return OracleResult(value, tail + cushion)


def _shell_blowup(
    m1: int, m2: int, p: int, s: Number, depth: int, in_S: bool
) -> OracleResult:
    """Sum over the valuation lattice (j, l) = (v(u), v(w)), |j|,|l| <= depth.

    With t = -min(0, j, l) the contact orders are n1 = t + min(0, j) and
    n2 = max(0, -j); the cell carries measure p^(-j-l) (1-1/p)^2 and height
    p^(lam1 n1 + lam2 n2).  Cells with equal contributions are grouped, which
    keeps the cost linear in depth per admissible row.
    """
    K = depth
    m1e = 1 if in_S else m1
    m2e = 1 if in_S else m2
    sv = _to_mpf(s)
    pv = _prime(p)
    lam1 = _to_mpf(1 + Fraction(1, m1))
    lam2 = _to_mpf(2 + Fraction(1, m2))
    x1 = pv ** (-sv * lam1)  # per-unit n1 height decay
    x2 = pv ** (-sv * lam2)
    r1 = pv * x1  # tail ratios; must be < 1 for convergence
    r2 = pv * pv * x2
    if r1 >= 1 or r2 >= 1:
        raise DomainError("blow-up local factor diverges at this s")
    wfac = 1 - 1 / pv

    ppos = [mpf(1)]  # p^i
    for _ in range(2 * K + 1):
        ppos.append(ppos[-1] * pv)
    pneg = [mpf(1)]  # p^-i
    for _ in range(K + 1):
        pneg.append(pneg[-1] / pv)
    x1pow = [mpf(1)]
    for _ in range(K + 1):
        x1pow.append(x1pow[-1] * x1)
    x2pow = [mpf(1)]
    for _ in range(K + 1):
        x2pow.append(x2pow[-1] * x2)

    def weight(j: int) -> mpf:
        return (pneg[j] if j >= 0 else ppos[-j]) * wfac

    sum_w_pos = mpmath.fsum(weight(j) for j in range(0, K + 1))
    # rows j >= 0: n2 = 0 and n1 = max(0, -l) gated by m1
    rowsum = sum_w_pos + mpmath.fsum(
        weight(-k) * x1pow[k] for k in range(m1e, K + 1, m1e)
    )
    value = sum_w_pos * rowsum
    # rows j = -i: n2 = i gated by m2; n1 = 0 for l >= -i, else l = -i-k, n1 = k
    srow = sum_w_pos
    for i in range(1, K + 1):
        srow += weight(-i)
        if i % m2e:
            continue
        inner = srow
        for k in range(m1e, K - i + 1, m1e):
            inner += weight(-i - k) * x1pow[k]
        value += weight(-i) * x2pow[i] * inner

    # truncation bound: strips outside the window, bounded by geometric sums
    c_row = 1 + wfac * r1 / (1 - r1)  # any single row over l, all gates open
    u2 = pv * x2
    c_col = 1 + wfac * u2 / (1 - u2)  # any single column over j
    t_j_hi = pv ** (-(K + 1)) * c_row
    t_l_hi = pv ** (-(K + 1)) * c_col
    t_j_lo = wfac * c_row * r2 ** (K + 1) / (1 - r2)
    t_l_lo = wfac * r1 ** (K + 1) / (1 - r1)
    # deep-corner cells i, k >= 1 with i + k > K: exact geometric envelope
    t_corner = mpmath.fsum(
        r2**i * r1 ** (K - i + 1) for i in range(1, K + 1)
    ) / (1 - r1) + r2 ** (K + 1) / (1 - r2) * r1 / (1 - r1)
    cushion = mpf(10) ** (-(DPS - 6)) * (1 + abs(value))
    bound = t_j_hi + t_l_hi + t_j_lo + t_l_lo + t_corner + cushion
    return OracleResult(value, bound)


def shell_sum_oracle(
    model: OrbifoldModel,
    p: int,
    s: Number,
    depth: int = 60,
    in_S: bool = False,
) -> OracleResult:
    """Brute-force local factor with a rigorous truncation bound, over the
    valuation shells up to ``depth`` (at least 10).

    Before any mpmath work the default budget is charged _TERM_STEPS steps
    per predicted term: ``depth`` for projective space, and
    depth^2 / (2 m1 m2) + 8 depth for the blow-up, whose rows i and columns
    k step by the weights (1 in S)."""
    if depth < 10:
        raise ValueError("oracle depth must be at least 10")
    if model.name in ("p1", "pn"):
        terms, shell = depth, _shell_projective
        args = (model.dimension, model.params["m"], p, s, depth, in_S)
    elif model.name == "blowup":
        m1, m2 = (1, 1) if in_S else (model.params["m1"], model.params["m2"])
        terms, shell = depth * depth // (2 * m1 * m2) + 8 * depth, _shell_blowup
        args = (model.params["m1"], model.params["m2"], p, s, depth, in_S)
    else:
        raise DomainError(f"no shell oracle for model {model.name!r}")
    charge(DEFAULT_BUDGET, _TERM_STEPS * terms, f"the shell-sum oracle at depth {depth}")
    with mpmath.workdps(DPS):
        return shell(*args)


# --------------------------------------------------------------------------
# archimedean factors
# --------------------------------------------------------------------------

def _quad01(f) -> float:
    """int_0^1 f(t) dt with mpmath, taken as int_0^inf f(e^-x) e^-x dx: the
    map t = e^-x turns an endpoint singularity t^alpha into the exponential
    decay e^(-(alpha + 1) x), which tanh-sinh resolves at default precision.
    """
    def mapped(x):
        t = mpmath.exp(-x)
        return f(t) * t

    return float(mpmath.quad(mapped, [0, mpmath.inf]))


def archimedean_projective(n: int, s: float) -> ArchimedeanFactor:
    """integral over R^n of max(1, sup-norm)^(-s): closed form
    2^n (1 + n/(s-n)) next to quadrature."""
    s = float(s)
    if s <= n:
        raise DomainError("archimedean factor requires s > n")
    with np.errstate(over="ignore"):  # inf past the float range, for the caller to refuse
        closed = float(np.ldexp(1 + n / (s - n), n))

    def integrate() -> float:
        if n == 1:
            return 2.0 * (1.0 + _quad01(lambda t: t ** (s - 2)))
        if n == 2:
            strip = _quad01(lambda t: t ** (s - 2))
            # u, w > 1 corner after inversion, half of it by symmetry:
            # int_0^1 int_0^a b^s a^-2 b^-2 db da, and b = a t splits it into
            # int_0^1 a^(s-3) da times the strip integral
            corner = _quad01(lambda a: a ** (s - 3)) * strip
            return 4.0 * (1.0 + 2.0 * strip + 2.0 * corner)
        # radial reduction: 2^n + n 2^n int_1^inf r^(n-1-s) dr
        return 2.0**n + n * 2.0**n * _quad01(lambda t: t ** (s - n - 1))

    return ArchimedeanFactor(closed, integrate)


def archimedean_blowup(m1: int, m2: int, s: float) -> ArchimedeanFactor:
    """integral over R^2 of max(1,|u|,|w|)^(-A) max(1,|u|)^(-Bex) with
    A = s (1 + 1/m1), Bex = s (1 + 1/m2 - 1/m1).

    Piecewise closed form 4 A (A + Bex - 1) / ((A - 1)(A + Bex - 2)); the
    quadrature sums the four smooth regions of a quadrant, with the infinite
    pieces mapped to (0, 1] by inversion.
    """
    s = float(s)
    a_exp = s * (1 + 1 / m1)
    b_exp = s * (1 + 1 / m2 - 1 / m1)
    if a_exp <= 1 or a_exp + b_exp <= 2:
        raise DomainError("archimedean blow-up factor diverges at this s")
    closed = 4.0 * a_exp / (a_exp - 1) * (a_exp + b_exp - 1) / (a_exp + b_exp - 2)

    def integrate() -> float:
        core = 1.0  # u, w in [0,1]^2: integrand is identically 1
        hi_w = _quad01(lambda t: t ** (a_exp - 2))  # u <= 1 < w
        lo_w = _quad01(lambda t: t ** (a_exp + b_exp - 2))  # w <= 1 < u
        wedge = _quad01(lambda t: (1 - t) * t ** (a_exp + b_exp - 3))  # 1 < w <= u
        # w > u > 1 after w = u/r, u = 1/t; the r integral is hi_w's
        far = _quad01(lambda t: t ** (a_exp + b_exp - 3)) * hi_w
        return 4.0 * (core + hi_w + lo_w + wedge + far)

    return ArchimedeanFactor(closed, integrate)
