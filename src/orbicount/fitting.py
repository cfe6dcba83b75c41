"""Height-zeta partial sums and asymptotic coefficient fitting.

The height-zeta sums weight each point by H^-s instead of 1, so no loop runs
over single points.  Each sum does its s-free work (the budget charge, the
sieve, rows and columns) once and then runs per s, so ``residue_probe``
builds it once for all its s values.  The all-of-Q line sum reads one
s-free totient table, so each s costs one power per n <= B.  Every other
sum runs on the columns and divisor rows of a ``BlowupColumns``, the Darmon
or Campana line's as one column, with arrays of n^-s up to Mmax when every
g is admissible and otherwise no array that grows with B.  Each charges
``enumeration.DEFAULT_BUDGET`` before allocating or looping; the charges
are upper bounds, one per sum, so a probe of several s values charges as
one s does.

The fit works in ratio space: kappa is the mean of N(B) / (B^a (log B)^(b-1))
over the grid points inside the window (top two decades by default), and the
returned c_hat is kappa * a * (b-1)!.  No second-order term is fitted; the
relative RMS residual is reported so subleading contamination stays visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .arith import totient_sieve
from .enumeration import (
    DEFAULT_BUDGET,
    BlowupColumns,
    blowup_columns,
    charge,
    line_divisor_rows,
    ragged_blocks,
)
from .errors import DomainError
from .orbifold import OrbifoldModel, PlaceSet, a_invariant, b_invariant, progression

__all__ = [
    "ZetaPartialSum",
    "zeta_partial_sum",
    "residue_probe",
    "FitResult",
    "fit_counts",
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
    partial sum is finite and is returned as-is, unless it passes the float
    range (DomainError).
    """
    s = float(s)
    Bf = Fraction(B)
    value = _finite(_zeta_sum(model, S, Bf, mode), s)
    return ZetaPartialSum(s=s, bound=float(Bf), value=value, mode=mode)


def _finite(zeta: Callable[[float], float], s: float) -> float:
    """zeta(s), refused unless finite: for s far below 0, n^-s passes the
    float range, and for huge s so may the residue probe's (s - a)^b."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            value = zeta(s)
        except OverflowError:
            value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"the height-zeta sum at s = {s} passes the float range")
    return value


def _zeta_sum(model, S, Bf, mode) -> Callable[[float], float]:
    """The partial sum as a function of s: the s-free work (the budget
    charge, the sieve, rows and columns) is done here, once."""
    if model.name == "p1":
        return _zeta_line(model.params["m"], S, math.floor(Bf), mode)
    if model.name != "blowup":
        raise DomainError(f"no height-zeta summation for model {model.name!r}")
    m1, m2 = model.params["m1"], model.params["m2"]
    core = blowup_columns(m1, m2, S, Bf, mode, DEFAULT_BUDGET, passes=3)
    return _zeta_columns(core, 1 + 1.0 / m1, 1 + 1.0 / m2 - 1.0 / m1)


def _zeta_line(m, S, Bint, mode) -> Callable[[float], float]:
    """sum_q q^-s (2 phi_q(q) + [q = 1]) + 2 sum_q sum_{q < n <= B, (n, q) = 1}
    n^-s over the admissible q, phi_q(x) the n <= x coprime to q: when every
    q is admissible 4 sum_{n <= B} phi(n) n^-s - 1 over one totient table
    (``_phi_power_sum``), else the blow-up's sum on one column c = 1,
    X2 = G = B, over the rows (q, e) of ``line_divisor_rows``."""
    if Bint < 1:
        return lambda s: 0.0
    f, d = progression(m, mode)
    if (f, d) == (1, 1):
        charge(DEFAULT_BUDGET, 2 * Bint + 1)
        phi = totient_sieve(Bint)
        # summed over every q the points of height n number 4 phi(n), less
        # one at n = 1 (the point 0 is counted once)
        return lambda s: 4.0 * _phi_power_sum(phi, s) - 1.0
    q, per_q, e = line_divisor_rows(f, d, S, Bint, DEFAULT_BUDGET)
    sign = 2 * (e > 0).astype(np.int8) - 1
    one, column = np.ones(1, dtype=np.int64), np.array([Bint])  # object past int64
    rows = BlowupColumns(False, Bint, q.repeat(per_q), np.abs(e, out=e), sign,
                         one, one, column, column, np.array([len(e)]))
    return _zeta_columns(rows, 1.0, 0.0)


_HEAD = 1024  # P(x) comes from a table up to here, by Euler-Maclaurin above
# B_2k / (2k)! for k = 1..6: Euler-Maclaurin through B_12
_EM = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000)


class _EndPoints:
    """n integer points x >= 0, s-free, put in a slice at a time: the table
    index min(x, _HEAD), and for y = max(x, _HEAD) its inverse 1/y and
    log(y / _HEAD)."""

    def __init__(self, n: int):
        self.head, self.inverse, self.log = np.empty(n, np.int16), np.empty(n), np.empty(n)

    def put(self, x: np.ndarray, at: slice = slice(None)) -> "_EndPoints":
        self.head[at] = np.minimum(x, _HEAD)
        y = np.maximum(x, _HEAD).astype(np.float64)
        np.divide(1.0, y, out=self.inverse[at])
        y /= _HEAD
        np.log(y, out=self.log[at])
        return self


class _PowerSum:
    """P(x) = sum_{n <= x} n^-s for one real s as head[min(x, X0)] +
    J(max(x, X0)) - J(X0), X0 = _HEAD: head takes the powers n^-s in float64
    (each within half an ulp) and sums them in long double, and
    J(y) - J(x) is sum_{x < n <= y} n^-s for X0 <= x <= y by Euler-Maclaurin,
    J(y) = int_X0^y t^-s dt + y^-s / 2 - sum_{k <= 6} B_2k / (2k)! (s)_(2k-1)
    y^(1-s-2k).  The integral is X0^(1-s) expm1((1-s) log(y/X0)) / (1-s), so
    s at or near 1 does not cancel.  What is left out is at most
    2 zeta(14) / (2 pi)^14 |(s)_13| X0^(-s-13) < 1e-50 |(s)_13| X0^-s,
    and 0 when s is a non-positive integer."""

    def __init__(self, s: float):
        n = np.arange(1, _HEAD + 1, dtype=np.float64)
        self.head = np.zeros(_HEAD + 1)
        self.head[1:] = np.cumsum(n**-s, dtype=np.longdouble)
        self.t = 1.0 - s
        self.scale = float(_HEAD) ** self.t
        rising, self.coeffs = s, []  # rising = (s)_(2k-1)
        for k, c in enumerate(_EM, 1):
            self.coeffs.append(c * rising)
            rising *= (s + 2 * k - 1) * (s + 2 * k)

    def tail(self, points: _EndPoints, block: slice = slice(None)) -> np.ndarray:
        """J at the points' max(x, X0); 0 where X0^(1-s) underflows, since
        sum_{X0 < n <= y} n^-s < X0^(1-s) / (s - 1) for s > 1 (and the
        Euler-Maclaurin coefficients may have overflowed to inf there)."""
        r, L = points.inverse[block], points.log[block]
        if self.scale == 0:
            return np.zeros_like(r)
        if self.t == 0:
            grown, integral = 1.0, L  # y^(1-s) / X0^(1-s), the integral
        else:
            grown = np.expm1(self.t * L)
            integral = self.scale / self.t * grown
            grown += 1.0
        y2 = r * r
        series = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            series = series * y2 + c
        return integral + self.scale * grown * r * (0.5 - r * series)


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


_BLOCK = 1 << 16


def _phi_power_sum(phi: np.ndarray, s: float) -> float:
    """sum_{n <= B} phi(n) n^-s, phi = phi(0..B): one float64 power per n,
    each term phi(n) n^-s within an ulp, reduced over blocks of n with
    ``np.sum`` and across blocks with ``math.fsum`` (a float64 ``np.dot``
    would start BLAS threads)."""
    blocks = []
    for lo in range(1, len(phi), _BLOCK):
        terms = np.arange(lo, min(lo + _BLOCK, len(phi)), dtype=np.float64)
        terms **= -s
        terms *= phi[lo : lo + len(terms)]
        blocks.append(float(np.sum(terms)))
    return math.fsum(blocks)


def _zeta_columns(core: BlowupColumns, e1: float, e2: float) -> Callable[[float], float]:
    """sum_c w(c) c^-s2 [(2 c Phi(c) + 1) c^-s1 + 2 T(c)], s1 = e1 s and
    s2 = e2 s, over the columns of core: the x2 with |x2| <= g c, Phi(c) =
    sum_{g <= G(c)} phi(g) g^-s1 over the admissible g, then the tail by
    Moebius over the rows (g, d), h = g / d, T(c) = sum_{rows < k(c)} mu(d)
    d^-s1 sum_{c h < n <= X2 // d} n^-s1; the columns under one math.fsum."""
    sums = (lambda s1: _every_g_sums(core, s1)) if core.every_g else _sparse_sums(core)
    c, w = core.c.astype(np.float64), core.w

    def at(s: float) -> float:
        s1, s2 = s * e1, s * e2
        Phi, tail = sums(s1)
        column = (2 * c * Phi + 1) * c**-s1 + 2 * tail
        return math.fsum((w * c**-s2 * column).tolist())

    return at


def _sparse_sums(core: BlowupColumns) -> Callable[[float], Tuple[np.ndarray, np.ndarray]]:
    """Phi and T per column, per s, with no table: phi(g) = sum_d mu(d) h is
    exact per stratum g, Phi a long-double cumsum of phi(g) g^-s1, and T
    reads P at each entry's two ends (``_PowerSum``).  An entry keeps its
    lower end c h (``_EndPoints``) and an int32 index into its column's upper
    ends X2 // d, one per distinct d of the column's rows (ordered by first
    row, so a column's are a prefix).  Each difference P(X2 // d) - P(c h) is
    formed before it is weighted, so equal ends cancel exactly."""
    d = core.d
    if d.max(initial=0) > len(d):  # the d spread thinly: number them
        d, key = np.unique(d, return_inverse=True)
    else:
        key, d = d.astype(np.int64, copy=False), np.arange(int(d.max(initial=0)) + 1)
    first = np.full(len(d), len(key))
    np.minimum.at(first, key, np.arange(len(key)))  # each d's first row
    order = np.argsort(first)
    rank = np.empty(len(d), dtype=np.int32)
    rank[order] = np.arange(len(d))
    count = np.searchsorted(first[order], core.k)  # the distinct d per column
    offset = np.cumsum(count) - count
    column = np.repeat(np.arange(len(count)), count)
    pick = order[np.arange(len(column)) - offset[column]]
    d, mu = d[pick], core.sign[first[pick]].astype(np.float64)
    hi = _EndPoints(len(d)).put(core.X2[column] // d)
    d = d.astype(np.float64)
    starts = np.flatnonzero(core.d == 1)  # each stratum's rows begin at d = 1
    phi = np.add.reduceat(core.sign * (core.g // core.d), starts).astype(np.float64)
    g, last = core.g[starts].astype(np.float64), np.searchsorted(starts, core.k) - 1
    pair = np.empty(int(core.k.sum()), dtype=np.int32)
    lo, blocks, at = _EndPoints(len(pair)), [], 0
    for col, row, runs in ragged_blocks(core.k):
        block, at = slice(at, at + len(row)), at + len(row)
        pair[block] = offset[col] + rank[key[row]]
        lo.put(core.c[col] * (core.g[row] // core.d[row]), block)
        # every column reads the row g = 1, so no run is empty
        blocks.append((block, slice(col[0], col[-1] + 1), np.cumsum(runs) - runs))

    def sums(s1: float) -> Tuple[np.ndarray, np.ndarray]:
        P, w = _PowerSum(s1), mu * d**-s1
        head_hi, tail_hi, tail = P.head[hi.head], P.tail(hi), np.zeros(len(last))
        for block, columns, runs in blocks:
            j = pair[block]
            diff = head_hi[j] - P.head[lo.head[block]]
            diff += tail_hi[j] - P.tail(lo, block)
            diff *= w[j]
            tail[columns] += np.add.reduceat(diff, runs)
        Phi = np.cumsum(phi * g**-s1, dtype=np.longdouble)[last]
        return Phi.astype(np.float64), tail

    return sums


def _every_g_sums(core: BlowupColumns, s1: float) -> Tuple[np.ndarray, np.ndarray]:
    """Phi and T per column when every g = f h is admissible and the rows are
    the squarefree f: the sums over h <= H = G // f are P1(H), P1 the prefix
    of h^(1-s1), and R_c(H) - H Q(X2 // f), Q(x) = sum_{x < n <= Mmax} n^-s1
    and R_c(H) = sum_{h <= H} Q(c h) (``_RowSums``)."""
    Q = _power_suffix(core.mmax, s1)
    P1 = _power_prefix(core.mmax, s1 - 1.0)
    R = _RowSums(Q, core.c, core.G)
    dw = core.d**-s1  # int64 to float64 in the ufunc's buffer
    dw *= core.sign
    phi_sum, tail = np.zeros(len(core.c)), np.zeros(len(core.c))
    for col, row, runs in ragged_blocks(core.k):
        dr, w = core.d[row], dw[row]
        H, X = core.G[col], core.X2[col]
        H //= dr
        X //= dr
        phi = P1[H]
        phi *= w
        terms = R.at(col, H, int(runs[0]))
        terms -= H * Q[X]
        terms *= w
        # every column reads the row g = 1, so no run is empty
        starts = np.cumsum(runs) - runs
        columns = slice(col[0], col[-1] + 1)
        phi_sum[columns] += np.add.reduceat(phi, starts)
        tail[columns] += np.add.reduceat(terms, starts)
    return phi_sum, tail


class _RowSums:
    """R_c(H) = sum_{h <= H} Q(c h), 1 <= H <= G(c), at the entries of one
    block after another: one cumsum per column.  Only a block's first column
    can continue from the block before, so the last column's R_c is kept
    for the next block, and the others are built into one buffer per block.
    One instance serves one s (Q depends on it)."""

    def __init__(self, Q: np.ndarray, c: np.ndarray, G: np.ndarray):
        self.Q, self.c, self.G = Q, c, G
        self.kept, self.R = -1, None  # the column whose R_c is kept, and it

    def at(self, col: np.ndarray, H: np.ndarray, first_run: int) -> np.ndarray:
        """R_c(H) at a block's entries (columns col, ascending), whose first
        first_run entries are its first column's."""
        first, last = int(col[0]), int(col[-1])
        kept = first_run if self.kept == first else 0  # entries read from self.R
        lo = first + (kept > 0)  # the first column built here
        G = self.G[lo : last + 1]
        offset = np.cumsum(G) - G
        buffer = np.empty(int(G.sum()))
        for c, g, o in zip(self.c[lo : last + 1].tolist(), G.tolist(), offset.tolist()):
            np.cumsum(self.Q[c : c * g + 1 : c], out=buffer[o : o + g])
        out, at = np.empty(len(H)), H - 1
        if kept:
            np.take(self.R, at[:kept], out=out[:kept])
        at = at[kept:]
        at += offset[col[kept:] - lo]
        np.take(buffer, at, out=out[kept:])
        if last >= lo:
            self.kept, self.R = last, buffer[int(offset[-1]) :]
        return out


def residue_probe(
    model: OrbifoldModel,
    S: PlaceSet,
    s_values: Sequence[float],
    B: Union[int, float, Fraction],
    mode: str = "darmon",
) -> List[Tuple[float, float]]:
    """(s, (s - a)^b * partial zeta sum) along a grid of s above a, over
    one s-free core (the same charge as one ``zeta_partial_sum``).

    Diagnostic only: expected to flatten toward the residue constant as
    s decreases to a with B large, with no convergence guarantee."""
    a = float(a_invariant(model))
    b = b_invariant(model)
    zeta = _zeta_sum(model, S, Fraction(B), mode)

    def scaled(s: float) -> float:
        return (s - a) ** b * zeta(s)

    return [(float(s), _finite(scaled, float(s))) for s in s_values]


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
