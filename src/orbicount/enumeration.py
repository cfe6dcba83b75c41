"""Exact bounded-height point counts on the built-in geometries.

One counting core per model (points are counted, never materialized).  The
height-zeta sums in ``fitting`` run on the blow-up core's ``BlowupColumns``:
the blow-up's, and a Darmon or Campana line's as the one column c = 1 over
the rows (q, signed squarefree divisor of rad q) of ``line_divisor_rows``.
The line height-zeta sums do not run on the line count's divisor sum (the
all-of-Q one reads one totient table); the debug dump runs the oracle (see
below):

* projective n-space (p1 for n = 1, pn): a mode admits the last
  coordinates q with exponents 0, f, f + d, ... at each prime outside S,
  (f, d) its ``progression``.  Such a q is s a^f t in exactly one way, s S-smooth, a coprime
  to S and t = 1 when d = f, else a product of b_j^j, j = f+1..2f-1 (Ivic,
  The Riemann Zeta-Function, ch. 14).  One walk over the primes
  (``_denominator_walk``) gives these q as arrays, each with its distinct
  primes as one row of a prime matrix, for the blow-up and the line
  height-zeta sum: it joins the primes of S and the small primes to the
  rows one prime at a time, and the larger primes, of which a q has at
  most one, in a single step; no path calls ``factorize``.  One core
  counts every n and never visits a q: the points (x_1 : ... : x_n : q)
  number sum_{e | rad q} mu(e) T(floor(B/e)), T(x) = (2x + 1)^n, for each
  q.  The same walk yields the shapes s t, and per shape the sum over a
  becomes a sum over e2 <= A = (B/(s t))^(1/f) of mu(e2)
  T(floor(B/(e1 e2))) c_S(floor(A/e2)) for each e1 | rad(s t), over one
  Moebius sieve up to B^(1/f).  As e1 and the e2 taking part depend on
  R = rad(s t) alone, one walk and one sieve at the top bound of a count
  grid take every radical R of every bound: the entries (R, e2) in blocks
  with R's weights c_S summed, e1 as columns, one exact dot per block and
  column.  When every q is admissible, (f, d) = (1, 1), the count is the
  Moebius sum N(B) = sum_d mu(d) floor(B/d) T(floor(B/d)),
  one exact dot over the about 2 sqrt(B) runs of equal floor(B/d) with
  Mertens values M(floor(B/k)): a Moebius sieve up to about B^(2/3) and the
  recursion M(x) = 1 - sum_{j>=2} M(floor(x/j)) above it (Deleglise and
  Rivat), its sieve parts summed for runs of k at once
  (``_mertens_at_quotients``), so time and memory are O(B^(2/3)).
* blow-up: one set of rows, weights and columns under the count and the
  height-zeta sum.  The leading pairs (x_0, x_1) = (g a, g b),
  gcd(a, b) = 1, lie in cells (g, c), c = max(a, |b|); X_2 depends on c
  alone, and c <= C(g) exactly when g <= G(c), so both sums swap the sum
  over g inside the sum over c, as a Moebius sum (Pieropan, Smeets,
  Tanimoto and Varilly-Alvarado, Proc. LMS 2021), and no cell is visited:
  each column c reads a prefix of one table of rows.  One build
  (``_blowup_build``) charges and makes the rows, weights and columns:
  once for a count grid, at its top bound with every bound's columns, the
  rows shared by the modes with the same rows (``_blowup_grid``), and once
  at one bound for the height-zeta sum (``blowup_columns``).  Both sum
  every (column, row) entry, a grid's bounds together, in one pass over
  the blocks of ``ragged_blocks``, each block's terms (exact int64 for the
  count, float64 for the sum) added per column by ``np.add.reduceat``.
  X_2(c) for every c of every bound comes from one exact vectorised root.
  The column weights come from a totient sieve, or from the line's divisor
  rows (a, e) by one ``searchsorted`` per distinct |e| (``_blowup_weights``).

``iter_points`` is the point-by-point definitional oracle (exact gcd, mode
and height checks on every candidate, in integers; on a 2-CPU machine about
5-7 us per primitive candidate on projective space, 6-10 us on the blow-up).
The naive_count_* oracles count what it yields and ``dump_points`` writes
it, so a dump takes the oracle's time over every candidate, not the core's
(the core's count checks the dump cap first, then the candidates are
charged); the sieved counters must agree with the oracles exactly, which
the test suite checks.

``count_points`` and ``count_series`` take one grid path, which counts
modes with the same progressions once, after charging each at the top bound.
Every count runs in one process, with no pool.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import geometry
from .arith import (
    integer_kth_root,
    is_prime,
    mobius_sieve,
    primes_up_to,
    totient_sieve,
)
from .errors import BudgetExceededError, DomainError
from .orbifold import MODES, OrbifoldModel, PlaceSet, blowup_p2, progression, projective_space

__all__ = [
    "CountRecord",
    "MODES",
    "count_points",
    "count_series",
    "naive_count_p1",
    "naive_count_pn2",
    "naive_count_blowup",
    "iter_points",
    "blowup_columns",
    "BlowupColumns",
    "ragged_blocks",
    "line_divisor_rows",
    "write_series_csv",
    "read_counts_csv",
    "dump_points",
    "DEFAULT_BUDGET",
    "charge",
    "CSV_HEADER",
]

DEFAULT_BUDGET = 10**9
# a mode's column in the CSV, the JSON records and ``read_counts_csv`` rows
# is n_<mode>
CSV_HEADER = ",".join(["B"] + [f"n_{mode}" for mode in MODES])


@dataclass(frozen=True)
class CountRecord:
    """One grid point: its bound, the label it is printed with, and the count
    of each counted mode (a mode not counted is absent)."""

    bound: Fraction
    label: str
    counts: Dict[str, int]


def _floor_bound(B: Union[int, float, Fraction]) -> int:
    Bf = Fraction(B)
    return int(math.floor(Bf))


def _readable(amount: int) -> str:
    """amount itself up to 15 digits, else its first four digits and its power
    of ten, found from the integer (a float overflows past 1e308)."""
    if amount < 10**15:
        return str(amount)
    e = int(math.log10(amount))  # may be one off for a float near a power of ten
    e += (10 ** (e + 1) <= amount) - (10**e > amount)
    lead = amount // 10 ** (e - 3)
    return f"{lead // 1000}.{lead % 1000:03d}e{e}"


def charge(budget: Optional[int], amount: int, work: str = "enumeration") -> None:
    """Refuse predicted work of ``amount`` steps above the budget (None: no
    cap); the message names the refused ``work``."""
    if budget is not None and amount > budget:
        raise BudgetExceededError(
            f"{work} would take ~{_readable(amount)} steps"
            f" (budget {_readable(budget)})"
        )


# --------------------------------------------------------------------------
# admissible denominators
# --------------------------------------------------------------------------


def _join(rows: np.ndarray, powers: np.ndarray, of: np.ndarray, limit: int) -> np.ndarray:
    """The rows (q v, omega + 1, primes with of[i] at column omega) for each
    row (q, omega, primes) and each v = powers[i] <= limit // q, ``powers``
    ascending and of[i] the prime of powers[i]."""
    counts = powers.searchsorted(limit // rows[:, 0], side="right")
    new = rows.repeat(counts, axis=0)
    which = np.arange(len(new)) - (counts.cumsum() - counts).repeat(counts)
    new[:, 0] *= powers[which]
    new[np.arange(len(new)), (new[:, 1] + 2).astype(np.int64, copy=False)] = of[which]
    new[:, 1] += 1
    return new


def _denominator_walk(
    limit: int, s_primes: Sequence[int], first: int, step: int, last: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The q <= limit whose exponent is any e >= 1 at each prime of S and one
    of first, first + step, ... <= last at every other prime, ascending, as
    arrays (q, primes, omega): row i of primes holds the omega[i] distinct
    primes of q[i] in ascending order, padded with 1.  q and primes are
    int64, or object arrays when limit passes int64; omega is int64.

    A mode's q take its ``progression`` (f, d) as (f, d, inf), and the
    shapes s t of the divisor sum (f+1, 1, 2f-1) at d = 1, else (f+1, 1, f):
    no prime outside S.  The primes of S and the other primes p with
    p^first <= sqrt(limit) join the rows one at a time in ascending order,
    each row taking at most one of its allowed powers, and a row that no
    later prime fits is set aside.  Two of the larger primes
    exceed the limit together, so they join last, in one step over all
    their allowed powers.  Nothing is factored."""
    dtype = np.int64 if limit <= _INT64_MAX else object
    in_S = {p for p in s_primes if p <= limit}
    root = integer_kth_root(limit, first) if first <= last else 0
    others = [p for p in primes_up_to(root) if p not in in_S]
    cut = bisect.bisect_right(others, integer_kth_root(math.isqrt(limit), first))
    small = []  # (allowed powers, their prime) per prime, ascending in the prime
    for p in sorted(in_S.union(others[:cut])):
        least, factor, top = (p, p, limit) if p in in_S else (
            p**first, p**step, min(limit, p**last) if last < math.inf else limit)
        powers = [least]
        while powers[-1] * factor <= top:
            powers.append(powers[-1] * factor)
        small.append((np.array(powers, dtype=dtype), np.full(len(powers), p, dtype=dtype)))
    large = np.array(others[cut:], dtype=dtype)
    powers, of, e = [], [], first
    while e <= last:  # a larger p has p^(2 first) > limit, so e < 2 first
        k = int(large.searchsorted(integer_kth_root(limit, e), side="right"))
        if not k:
            break
        powers.append(large[:k] ** e)
        of.append(large[:k])
        e += step
    if powers:
        powers, of = np.concatenate(powers), np.concatenate(of)
        order = powers.argsort()
        powers, of = powers[order], of[order]
    # the least power that the i-th small prime or any later one adds
    least_after = [int(powers[0]) if len(powers) else limit + 1]
    for pw, _ in reversed(small):
        least_after.append(min(least_after[-1], int(pw[0])))
    rows = np.ones((int(limit >= 1), 2 + len(in_S) + _omega_max(root)), dtype=dtype)
    rows[:, 1] = 0
    parts = []
    for (pw, p), least in zip(small, reversed(least_after[1:])):
        fits = rows[:, 0] <= limit // least
        if not fits.all():
            parts.append(rows[~fits])
            rows = rows[fits]
        rows = np.concatenate((rows, _join(rows, pw, p, limit)))
    parts.append(rows)
    if len(powers):
        joined = _join(rows, powers, of, limit)
        if in_S and of[0] < max(in_S):  # a prime of S may come after the new one
            pad = limit + 1 if dtype is object else _INT64_MAX  # above every prime
            support = joined[:, 2:]
            support[support == 1] = pad
            support.sort(axis=1)
            support[support == pad] = 1
        parts.append(joined)
    rows = np.concatenate(parts)
    rows = rows[rows[:, 0].argsort()]
    omega = rows[:, 1].astype(np.int64)
    return rows[:, 0], rows[:, 2 : 2 + int(omega.max(initial=0))], omega


def _signed_divisors(primes: np.ndarray, omega: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(per, d): the 2^omega[i] squarefree divisors of the product of row i of
    ``primes`` (padded with 1), signed by mu, row after row; divisor j of a
    row takes the primes at the set bits of j.  The rows with k primes are
    built together as one array of 2^k columns."""
    per = np.left_shift(1, omega)
    start = per.cumsum() - per
    d = np.empty(int(per.sum()), dtype=primes.dtype)
    for k, count in enumerate(np.bincount(omega).tolist()):
        if not count:
            continue
        rows = (omega == k).nonzero()[0] if count < len(omega) else slice(None)
        divisors = np.ones((count, 1 << k), dtype=primes.dtype)
        for j in range(k):
            divisors[:, 1 << j : 2 << j] = -divisors[:, : 1 << j] * primes[rows, j : j + 1]
        d[start[rows, None] + np.arange(1 << k)] = divisors
    return per, d


def _denominator_bound(f: int, d: int, s_primes: Sequence[int], limit: int) -> int:
    """Upper bound on the number of q <= limit of the progression (f, d).

    The q = s a^f with s S-smooth number at most sum_s (limit/s)^(1/f)
    <= limit^(1/f) prod_{p in S} sum_{p^e <= limit} p^(-e/f), and each of
    these sums is at most min(1/(1 - p^(-1/f)), #{e : p^e <= limit}).  At
    d = 1 the f-full numbers <= X are a^f prod_{j=f+1}^{2f-1} b_j^j, b_j <=
    X^(1/j), at most X^(1/f) prod_j sum_{b <= X^(1/j)} b^(-j/f), and each of
    these sums is at most min(zeta(j/f) <= j/(j-f), floor(X^(1/j))), 1 once
    2^j > X.  The S zeta factors are rounded up to a multiple of 2^-20, so
    the bound is computed exactly for any limit."""
    bound = Fraction(integer_kth_root(limit, f) + 1)
    if d == 1:
        for j in range(f + 1, 2 * f):
            bound *= min(Fraction(j, j - f), integer_kth_root(limit, j))
    for p in s_primes:
        powers, pe = 1, p
        while pe <= limit:
            powers, pe = powers + 1, pe * p
        zeta_factor = math.ceil(2**20 / (1 - p ** (-1 / f)) * (1 + 1e-12))
        bound *= min(Fraction(zeta_factor, 2**20), powers)
    return math.ceil(bound)


def _omega_max(N: int) -> int:
    """Most distinct primes of any n <= N: the k with the k-th primorial
    <= N below the next."""
    k, primorial, p = 0, 2, 2
    while primorial <= N:
        k, p = k + 1, p + 1
        while not is_prime(p):
            p += 1
        primorial *= p
    return k


def _divisor_rows_bound(f: int, d: int, s_primes: Sequence[int], limit: int) -> int:
    """Upper bound on the rows of ``line_divisor_rows`` up to limit.  Every
    prime of q outside S divides a number whose f-th power is at most limit,
    so q has at most omega_max(limit^(1/f)) + |S| primes: the denominator
    bound times 2 to that power."""
    shift = _omega_max(integer_kth_root(limit, f)) + len(s_primes)
    return _denominator_bound(f, d, s_primes, limit) << shift


def line_divisor_rows(
    f: int, d: int, S: PlaceSet, Bint: int, budget: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, rows per q, e) over the denominators q <= Bint of the progression
    (f, d) other than (1, 1), ascending: for each q its 2^omega(q) signed
    squarefree divisors e of rad q (sign mu(|e|)), flat and in the order of
    q.  A budget is charged ``_divisor_rows_bound`` before the walk.  The
    arrays are int64, or object arrays when Bint passes int64."""
    if (f, d) == (1, 1):
        raise DomainError("divisor rows are for Darmon or Campana denominators")
    if budget is not None:
        charge(budget, _divisor_rows_bound(f, d, S.finite_primes, Bint))
    q, primes, omega = _denominator_walk(Bint, S.finite_primes, f, d, math.inf)
    per_q, e = _signed_divisors(primes, omega)
    return q, per_q, e


# --------------------------------------------------------------------------
# line and plane counts
# --------------------------------------------------------------------------


def _mertens_sieve_limit(N: int) -> int:
    """Sieve length of ``_mobius_sum``: about N^(2/3) / 2, at least isqrt(N)."""
    return max(math.isqrt(N), integer_kth_root(N, 3) ** 2 // 2)


def _mobius_sum_work(N: int) -> int:
    """Predicted steps of ``_mobius_sum`` at the bound N: the sieve length, the
    recursion's 2 sqrt(N/k) array entries for each k <= K (at most
    4 sqrt(N K)) and the 2 sqrt(N) final terms."""
    L = _mertens_sieve_limit(N)
    return L + 4 * math.isqrt(N * (N // (L + 1))) + 2 * math.isqrt(N)


def _row_sums(a: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """sum(a[i, lo[i] : hi[i]]) in int64 for each row i of the 2-D array a,
    0 <= lo[i] <= hi[i] <= a.shape[1], by one ``np.add.reduceat``; 0 for an
    empty range."""
    rows, width = a.shape
    starts = np.arange(rows, dtype=np.int64) * width
    at = np.stack((starts + lo, starts + hi), axis=1).ravel()
    if at[-1] == a.size:  # the last range runs to the end of the array
        at = at[:-1]
    # an index past the end can only start an empty range, whose sum is masked
    sums = np.add.reduceat(a.ravel(), np.minimum(at, a.size - 1), dtype=np.int64)
    return np.where(lo < hi, sums[::2], 0)


def _mertens_at_quotients(N: int, L: int, mu: np.ndarray, M: np.ndarray) -> List[int]:
    """M(N // k) for 1 <= k <= K = N // (L + 1) (list entry k; entry 0 is 0),
    from the Moebius values mu and the Mertens values M = cumsum(mu) up to L.

    At x = N // k the recursion M(x) = 1 - sum_{j=2}^{x} M(floor(x/j)), with
    r = isqrt(x) and J = x // (r+1), takes the j <= jk = min(J, K // k) from
    the points M(N // (k j)), j >= 2 (k j <= K), the j in (jk, J] from the
    sieve, and the rest by value v = floor(x/j) <= r, which after summation
    by parts is sum_{v <= r} mu(v) floor(x/v) - floor(x/(r+1)) M(r).  The
    sieve parts never read the points, so they are summed first: runs of
    consecutive k share one rectangle x // (1..width) of at most _BLOCK / 4
    entries, width the run's largest r, each row summed over its own
    columns by ``_row_sums``; a row too wide to share a rectangle takes one
    dot and one gather.  (At the default _BLOCK a rectangle's int64 arrays
    take 128 KB; a full block was slower up to N = 1e8, as fast at 1e10 and
    held more memory.)  Only the sum over the points is then a loop over k,
    from K down to 1."""
    K = N // (L + 1)
    if not K:
        return [0]
    k = np.arange(1, K + 1, dtype=np.int64)
    x = N // k
    r = np.sqrt(x).astype(np.int64)  # the float root is at most one off
    r -= r * r > x
    r += (r + 1) * (r + 1) <= x
    J = x // (r + 1)
    jk = np.minimum(J, K // k)  # j <= jk: floor(x/j) = floor(N/(k j)) > L
    base = (x // (r + 1)) * M[r]
    ar = np.arange(1, int(r[0]) + 2, dtype=np.int64)  # ar[i] = i + 1
    lo = 0
    while lo < K:
        width = int(r[lo])
        hi = min(K, lo + (_BLOCK >> 2) // width)
        if hi - lo < 2:  # the row fills a rectangle by itself
            quotients = int(x[lo]) // ar[:width]  # J <= r, so (jk, J] is inside
            base[lo] -= int(np.dot(mu[1 : width + 1], quotients))
            base[lo] -= int(M[quotients[int(jk[lo]) : int(J[lo])]].sum())
            lo += 1
            continue
        quotients = x[lo:hi, None] // ar[:width]
        base[lo:hi] -= _row_sums(M.take(quotients, mode="clip"), jk[lo:hi], J[lo:hi])
        quotients *= mu[1 : width + 1]
        base[lo:hi] -= _row_sums(quotients, 0, r[lo:hi])
        lo = hi
    big = [0] * (K + 1)
    for kk, b, j in zip(range(K, 0, -1), base[::-1].tolist(), jk[::-1].tolist()):
        big[kk] = 1 + b - sum(big[2 * kk : j * kk + 1 : kk])
    return big


def _mobius_sum(n: int, grid: Sequence[int]) -> List[int]:
    """sum_{d <= N} mu(d) floor(N/d) T(floor(N/d)), T(x) = (2x + 1)^n, exactly,
    for each N of the ascending grid, in O(top^(2/3)) time and memory.

    The Mertens function M(x) = sum_{d <= x} mu(d) comes from one Moebius
    sieve for x <= L = ``_mertens_sieve_limit(top)``, shared by every bound,
    and from ``_mertens_at_quotients`` at the points x = floor(N/k) > L.
    The sum takes d <= N // (s+1), s = isqrt(N), one at a time and the
    remaining d in runs of equal v = floor(N/d) <= s, each weighted by
    M(floor(N/v)) - M(floor(N/(v+1))), as one exact weighted dot: the
    entries whose float bound |weight| v T(v) is at most 2^62 over the
    number of entries go into one int64 dot, the others into one over
    object arrays.  Every int64 partial sum of the recursion stays below
    N (2 + 2 ln N), so N < 2^56 keeps its arrays exact.
    """
    top = grid[-1]
    if top >= 2**56:
        raise MemoryError(f"the Mertens sieve for B = {top} exceeds any memory")
    L = _mertens_sieve_limit(top)
    mu = mobius_sieve(L)
    M = mu.cumsum(dtype=np.int32 if L < 2**31 else np.int64)
    sums = []
    for i, N in enumerate(grid):
        K = N // (L + 1)
        big = np.array(_mertens_at_quotients(N, L, mu, M), dtype=np.int64)
        s = math.isqrt(N)
        ar = np.arange(1, s + 2, dtype=np.int64)  # ar[j] = j + 1
        D = N // (s + 1)
        at_quotients = np.concatenate((big[1:], M[N // ar[K : s + 1]]))  # v = 1..s+1
        w = np.concatenate((mu[1 : D + 1], at_quotients[:-1] - at_quotients[1:]))
        if i == len(grid) - 1:
            del mu, M  # the top bound's dot takes the sieve's room
        v = np.concatenate((N // ar[:D], ar[:s]))
        with np.errstate(over="ignore", invalid="ignore"):
            vf = v.astype(np.float64)
            size = np.abs(w) * (vf * _box(n, vf))
        small = size <= 2.0**62 / len(w)  # these entries sum below 2^62 in int64
        rest = ~small
        vs, vr = v[small], v[rest].astype(object)
        sums.append(int(np.dot(w[small], vs * _box(n, vs)))
                    + int(np.dot(w[rest].astype(object), vr * _box(n, vr))))
    return sums


_BLOCK = 1 << 16  # entries per block, rows (radical, e1) per chunk
_INT64_MAX = 2**63 - 1
_FLOAT_TOP = 2**1000  # integers past it take no float route


def _box(n: int, x):
    """T(x) = (2x + 1)^n, the points of [-x, x]^n, for an int or an array;
    int64 arrays by repeated products (numpy's integer power takes 4 to 10
    times as long at n = 1 and 3)."""
    if not isinstance(x, np.ndarray) or x.dtype == object:
        return (2 * x + 1) ** n
    side = value = 2 * x + 1
    for _ in range(n - 1):
        value = value * side
    return value


def _coprime_counter(s_primes: Sequence[int], limit: int) -> Callable:
    """c_S(x) = #{1 <= k <= x : k coprime to S} on int64 arrays of x <= limit,
    as (x // P) phi(P) + c_S(x mod P) with P = prod S, from a table of
    min(P, limit + 1) entries."""
    P, phi = math.prod(s_primes), math.prod(p - 1 for p in s_primes)
    if P > limit:
        P, phi = limit + 1, 0
    coprime = np.ones(P, dtype=np.int64)
    for p in s_primes:
        coprime[::p] = 0
    coprime[0] = 0
    table = coprime.cumsum()
    return lambda x: (x // P) * phi + table[x % P]


def _kth_roots(q: np.ndarray, m: int) -> np.ndarray:
    """floor(q^(1/m)) as int64 for an int64 or object array of q >= 1.  The
    float root is off by less than 1e-13 of itself below q = 1e308, so its
    floor is exact unless it lies within 1e-12 of itself of an integer c.
    There the floor is c - [c^m > q] in int64 for q <= 2^62, and
    ``integer_kth_root`` decides for larger q, for object arrays and for
    every q past _FLOAT_TOP."""
    huge = q > _FLOAT_TOP if q.dtype == object else False
    root = np.where(huge, 1, q).astype(np.float64) ** (1 / m)
    A = np.floor(root).astype(np.int64)
    near = np.abs(root - np.rint(root)) <= 1e-12 * root
    slow = (near | huge).nonzero()[0]
    if q.dtype != object and len(slow):
        # below 2^62 the root is within 0.003 of c = rint(root), and c^m < 2^63
        fits = q[slow] <= 2**62
        fix, slow = slow[fits], slow[~fits]
        c = np.rint(root[fix]).astype(np.int64)
        A[fix] = c - (c**m > q[fix])
    for i in slow.tolist():
        A[i] = integer_kth_root(int(q[i]), m)
    return A


def ragged_blocks(
    counts: np.ndarray,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The entries (i, j), j < counts[i], in order, in blocks of _BLOCK: per
    block the arrays (i, j) of its entries and ``runs``, the entries of each
    i from i[0] to i[-1] in the block."""
    ends = counts.cumsum()
    starts = ends - counts
    total = int(ends[-1]) if len(ends) else 0
    for b in range(0, total, _BLOCK):
        stop = min(b + _BLOCK, total)
        s0, s1 = ends.searchsorted([b, stop - 1], side="right")
        runs = np.minimum(ends[s0 : s1 + 1], stop) - np.maximum(starts[s0 : s1 + 1], b)
        i = np.arange(s0, s1 + 1).repeat(runs)
        yield i, np.arange(b, stop) - starts[i], runs


def _box_dot(n: int, w: np.ndarray, f: np.ndarray, size: float) -> int:
    """sum_r w_r T(f_r) exactly, T(x) = (2x + 1)^n, for at most _BLOCK
    entries of int64 w and f >= 0 (int64, or object: its entries past int64
    go apart in Python ints), given a float ``size`` >= sum_r |w_r| T(f_r) up
    to rounding.

    One int64 dot when size < 2^62: no partial sum can pass 2^63.  Else, for
    n <= 2, sum w f and sum w f^2 from the four 16-bit digits of f, exact in
    int64 while |w| <= 2^15, with the entries of larger |w| in Python ints;
    for larger n, all in Python ints."""
    if f.dtype == object:
        fits = f <= _INT64_MAX
        rest = int(np.dot(w[~fits].astype(object), _box(n, f[~fits])))
        return rest + _box_dot(n, w[fits], f[fits].astype(np.int64), size)
    if size < 2**62:
        return int(np.dot(w, _box(n, f)))
    if n > 2:
        return int(np.dot(w.astype(object), _box(n, f.astype(object))))
    total, apart = 0, np.abs(w) > (1 << 15)
    if apart.any():
        total = int(np.dot(w[apart].astype(object), _box(n, f[apart].astype(object))))
        w = np.where(apart, 0, w)
    digits = [((f >> k) & 0xFFFF, k) for k in (0, 16, 32, 48)]
    sums = [int(w.sum()), sum(int(np.dot(d, w)) << k for d, k in digits)]
    if n == 2:
        sums.append(sum(int(np.dot(d * e, w)) << (k + j)
                        for (d, k), (e, j) in itertools.product(digits, repeat=2)))
    return total + sum((math.comb(n, i) << i) * p for i, p in enumerate(sums))


def _divisor_sum(
    n: int, f: int, d: int, S: PlaceSet, grid: Sequence[int], budget: Optional[int]
) -> List[int]:
    """For each bound Bint of the ascending grid (every Bint >= 1), the sum
    over the q <= Bint of the progression (f, d), d = f or 1, of sum_{e |
    rad q} mu(e) T(Bint // e), T(x) = (2x + 1)^n, by the radical of q's shape.

    Each such q is s a^f t with s S-smooth, a coprime to S and t = prod_j
    b_j^j over j = f+1..2f-1 with the b_j squarefree, pairwise coprime and
    coprime to S (t = 1 when d = f), in exactly one way.  Splitting
    e = e1 e2 with e1 | R = rad(s t) and e2 | rad(a) coprime to S R (as e2 is
    coprime to S, (e2, t) = 1 exactly when (e2, R) = 1), and counting the
    a <= A_u = (Bint / u)^(1/f), u = s t, that e2 divides, gives the sum over
    the radicals R of sum_{e1} mu(e1) sum_{e2} mu(e2) T(Bint // (e1 e2))
    W_R(e2), W_R(e2) the sum of c_S(A_u // e2) (0 past A_u) over the shapes
    u <= Bint of radical R.  The caller charges the denominators before the
    walk; here the (shape, e1) rows and the sieve length are charged first.

    One walk and one Moebius sieve at the top bound serve every bound.  The
    radicals with k primes, by least shape (those of a smaller bound come
    first), go in chunks of about _BLOCK >> k, whose primes, primes outside
    S and 2^k signed divisors e1 (column j has sign (-1)^popcount(j)) are
    built once.  Per bound, the chunk's shapes <= Bint take A from exact
    roots (``_kth_roots``), and the entries (R, e2), e2 <= A of R's least
    shape, go in blocks of _BLOCK: the least shape's c_S inline, the
    others' added by ``np.add.at``.  w = mu(e2) W_R(e2), 0 where a prime of
    R outside S divides e2, is shared by one exact dot (``_box_dot``) per
    column against T(X // e2), X = Bint // e1, each of size at most
    sum |w| T(Bint / e2)."""
    s_primes, top = S.finite_primes, grid[-1]
    last = 2 * f - 1 if d == 1 else f  # d = f: no prime outside S
    shapes, primes, omega = _denominator_walk(top, s_primes, f + 1, 1, last)
    A_max = integer_kth_root(top, f)  # the A of the shape 1
    charge(budget, int(np.left_shift(1, omega).sum()) + A_max)
    mu = mobius_sieve(A_max)
    for p in s_primes:
        mu[::p] = 0
    e2_all = mu.nonzero()[0]  # the e2 with mu(e2) = mu_all != 0
    mu_all, mu = mu[e2_all], None
    c_S = _coprime_counter(s_primes, A_max)
    # radicals r by (k, least shape lead[r]); r's shapes: by_r[cut[r] : cut[r + 1]]
    R = np.ones(len(shapes), dtype=primes.dtype)
    for j in range(primes.shape[1]):
        R *= primes[:, j]
    by_R = R.argsort()
    ends = np.concatenate(([True], R[by_R[1:]] != R[by_R[:-1]], [True])).nonzero()[0]
    lead = np.minimum.reduceat(by_R, ends[:-1])
    order = (omega[lead] * len(shapes) + lead).argsort()
    lead, many = lead[order], (ends[1:] - ends[:-1])[order]
    cut = np.concatenate(([0], many.cumsum()))
    by_r = by_R[(ends[:-1][order] - cut[:-1]).repeat(many) + np.arange(len(shapes))]
    extra = by_r != lead.repeat(many)
    totals = [0] * len(grid)
    for k in range(int(omega.max(initial=0)) + 1):
        k0, k1 = omega[lead].searchsorted([k, k + 1])
        for lo in range(k0, k1, max(_BLOCK >> k, 1)):
            hi = min(lo + max(_BLOCK >> k, 1), k1)
            P = primes[lead[lo:hi], :k]
            if P.astype(np.float64).prod(axis=1).max(initial=1) < 2.0**62:
                P = P.astype(np.int64)  # every e1 | R fits int64
            # the primes of R outside S up to A_max first in each row; the
            # others, A_max + 1, divide no e2
            tp = np.minimum(P, A_max + 1).astype(np.int64)
            tp[(tp[..., None] == s_primes).any(axis=2)] = A_max + 1
            tp.sort(axis=1)
            tp = tp[:, : int((tp <= A_max).sum(axis=1).max(initial=0))]
            _, e1 = _signed_divisors(P, omega[lead[lo:hi]])
            e1 = np.abs(e1).reshape(hi - lo, 1 << k)
            signs = [(-1) ** bin(j).count("1") for j in range(1 << k)]
            # the chunk's least shapes, then the others and their radicals 0, 1, ...
            c = slice(cut[lo], cut[hi])
            u = np.concatenate((shapes[lead[lo:hi]], shapes[by_r[c][extra[c]]]))
            u_r = np.arange(hi - lo).repeat(many[lo:hi] - 1)
            heads = u[: hi - lo].searchsorted(grid, side="right")
            for b, (Bint, h) in enumerate(zip(grid, heads)):
                if not h:
                    continue
                fits = u <= Bint  # the least shapes <= Bint are the first h
                A_u = _kth_roots(Bint // u[fits], f)
                A, xA, xr = A_u[:h], A_u[h:], u_r[fits[hi - lo :]]
                X = Bint // (e1[:h] if Bint <= _INT64_MAX else e1[:h].astype(object))
                # X = Bint // e1 passes int64 just where e1 <= Bint >> 63
                columns = [X[:, j] if (e1[:h, j] <= Bint >> 63).any()
                           else X[:, j].astype(np.int64) for j in range(1 << k)]
                counts = e2_all.searchsorted(A, side="right")
                x_at = (counts.cumsum() - counts)[xr]  # extra shapes' entries [x_at, x_to)
                x_to = x_at + e2_all.searchsorted(xA, side="right")
                for b0, (sh, at, _) in zip(itertools.count(0, _BLOCK), ragged_blocks(counts)):
                    e2 = e2_all[at]
                    w = c_S(A[sh] // e2)
                    x0, x1 = xr.searchsorted([sh[0], sh[-1] + 1]) if len(xr) else (0, 0)
                    if x1 > x0:  # in pieces of at most 2 _BLOCK entries (shape, e2)
                        off = np.maximum(x_at[x0:x1] - b0, 0)
                        runs = np.minimum(np.maximum(x_to[x0:x1] - b0, 0), len(sh)) - off
                        piece = runs.cumsum() // _BLOCK
                        cuts = ((piece[1:] != piece[:-1]).nonzero()[0] + 1).tolist()
                        for y in map(slice, [0] + cuts, cuts + [x1 - x0]):
                            r = runs[y]
                            pos = np.arange(r.sum()) + (off[y] - r.cumsum() + r).repeat(r)
                            np.add.at(w, pos, c_S(xA[x0:x1][y].repeat(r) // e2[pos]))
                    w *= mu_all[at]
                    if tp.shape[1]:
                        w[(e2[:, None] % tp[sh] == 0).any(axis=1)] = 0
                    size = math.inf if Bint > _FLOAT_TOP else float(
                        (np.abs(w) * _box(n, Bint / e2)).sum())
                    for sign, column in zip(signs, columns):
                        totals[b] += sign * _box_dot(n, w, column[sh] // e2, size)
    return totals


def _count_pn(
    n: int, f: int, d: int, S: PlaceSet, grid: Sequence[int], budget: Optional[int]
) -> List[int]:
    """The points (x_1 : ... : x_n : q) of projective n-space with q of the
    progression (f, d) and height <= B for each B of the ascending grid of
    integers >= 1: one ``_divisor_sum`` over the admissible q, or one
    ``_mobius_sum`` at (1, 1), walking or sieving once at the top bound."""
    if (f, d) == (1, 1):
        return _mobius_sum(n, grid)
    return _divisor_sum(n, f, d, S, grid, budget)


# --------------------------------------------------------------------------
# blow-up counts
# --------------------------------------------------------------------------


def _iroot_ratio(num: int, den: int, k: int) -> int:
    """Largest x >= 0 with x^k * den <= num."""
    if num < 0:
        return -1
    return integer_kth_root(num // den, k)


def _blowup_mmax(Bf: Fraction, m1: int) -> int:
    """Largest M with M^(m1+1) <= B^m1: no point with max(x0, |x1|) > M has
    height <= B."""
    Bm1 = Bf**m1
    return _iroot_ratio(Bm1.numerator, Bm1.denominator, m1 + 1)


def _weights_work(f: int, d: int, s_primes: Sequence[int], cmax: int) -> int:
    """Predicted steps of ``_blowup_weights``: the totient sieve, or the
    divisor rows and sum cmax // |e| <= cmax H(n) <= cmax n.bit_length()
    searchsorted entries over the n <= min(rows, cmax) distinct |e|."""
    if (f, d) == (1, 1):
        return cmax
    rows = _divisor_rows_bound(f, d, s_primes, cmax)
    return rows + cmax * min(rows, cmax).bit_length()


def _blowup_weights(f: int, d: int, S: PlaceSet, cmax: int) -> np.ndarray:
    """w(c) for 0 <= c <= cmax: the points b/a of height exactly c, a of the
    progression (f, d), [c in A] (2 phi(c) + [c = 1]) + 2 #{a in A : a < c,
    gcd(a, c) = 1}.  At (1, 1) that is 4 phi(c), and 3 at c = 1, from one
    totient sieve.  Otherwise both parts come from the rows (a, e) of
    ``line_divisor_rows``: phi(a) = sum_e mu(e) a / |e|, and the a < c
    coprime to c number sum_{(a, e)} mu(e) [|e| divides c] [a < c], one
    searchsorted of the sorted a / |e| against 1..cmax // |e| for each
    distinct |e|."""
    if (f, d) == (1, 1):
        w = 4 * totient_sieve(cmax).astype(np.int64)
        w[1:2] = 3
        return w
    a, per, signed = line_divisor_rows(f, d, S, cmax)
    at = a.repeat(per)
    w = np.zeros(cmax + 1, dtype=np.int64)
    w[a] = 2 * np.add.reduceat(at // signed, per.cumsum() - per)  # e divides a
    w[1] += 1  # the point 0
    e = np.abs(signed)
    order = np.lexsort((at, e))
    e, k, sign = e[order], at[order] // e[order], np.sign(signed[order])
    starts = (e != np.concatenate(([0], e[:-1]))).nonzero()[0].tolist()
    for lo, hi in zip(starts, starts[1:] + [len(e)]):
        step = int(e[lo])  # the a < c = step j are the k < j
        below = k[lo:hi].searchsorted(np.arange(1, cmax // step + 1))
        w[step::step] += 2 * int(sign[lo]) * below
    return w


@dataclass(frozen=True)
class BlowupColumns:
    """Rows (g[i], d[i], sign[i]), ascending in g, and columns
    (w[j], X2[j], G[j], k[j]) for c = j + 1 = 1..C(1), every w(c) > 0 (a = 1
    is admissible): column c reads the k rows with g <= G(c) = X2(c) // c,
    and on the sparse route each stratum g's rows begin at d = 1.  The signs
    are int8 arrays, all others int64 (object for a line past int64, which
    the height-zeta sum takes as the one column c = 1, X2 = G = B)."""

    every_g: bool
    mmax: int
    g: np.ndarray
    d: np.ndarray
    sign: np.ndarray
    w: np.ndarray
    X2: np.ndarray
    G: np.ndarray
    k: np.ndarray


def _column_roots(
    E1: int, E2: int, ratios: Sequence[Tuple[int, int]]
) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """(X2, G, C) over the columns c = 1..C(1) of each B^(m1 m2) = num / den
    >= 1 of ``ratios``, one bound after another, C the list of their C(1):
    X2(c) = iroot(q, E1), q = B^(m1 m2) / c^E2, and G(c) = iroot(q / c^E1,
    E1) = X2(c) // c, which falls as c grows.  One exact root
    (``_kth_roots``) over the int64 quotients of every bound whose B^(m1 m2)
    fits int64, the other bounds' over object quotients, _BLOCK columns at a
    time."""
    C = [_iroot_ratio(num, den, E1 + E2) for num, den in ratios]
    ar = np.arange(1, max(C) + 1, dtype=np.int64)
    fits = np.array([num <= _INT64_MAX for num, _ in ratios]).repeat(C)
    narrow = [num // (den * ar[:n] ** E2)
              for (num, den), n in zip(ratios, C) if num <= _INT64_MAX]
    wide = [_kth_roots(num // (den * ar[lo : min(lo + _BLOCK, n)].astype(object) ** E2), E1)
            for (num, den), n in zip(ratios, C) if num > _INT64_MAX
            for lo in range(0, n, _BLOCK)]
    X2 = np.empty(len(fits), dtype=np.int64)
    X2[fits] = _kth_roots(np.concatenate(narrow), E1) if narrow else 0
    X2[~fits] = np.concatenate(wide) if wide else 0
    return X2, X2 // np.concatenate([ar[:n] for n in C]), C


def _blowup_build(
    m1: int, m2: int, S: PlaceSet, bounds: Sequence[Fraction],
    keys: Sequence[Tuple[Tuple[int, int], ...]], budget: Optional[int], passes: int,
) -> Tuple[int, tuple, Dict[tuple, tuple], Dict[tuple, np.ndarray]]:
    """(Mmax, (X2, G, C), rows, weights) of the blow-up over the ascending
    bounds B >= 1, built at the top bound for the keys (row and column
    progression): rows[fd] = (every_g, g, d, sign) once per distinct row
    progression, weights[fd] = w(1..C(1)) once per distinct column
    progression, and the columns of every bound from ``_column_roots``.  A
    cell (g, c) carries a point of height <= B exactly when g^E1 c^(E1+E2)
    <= B^(m1 m2), E1 = (m1 + 1) m2, E2 = m1 m2 + m1 - m2, that is
    g <= G(c); its w(c) pairs take the x2 coprime to g with |x2| <= X2(c),
    g c <= X2(c) <= X2(1) = Mmax.  The rows are the squarefree f <= Mmax
    with g = d = f and sign mu(f) when every g is admissible, and otherwise
    one row per stratum g and signed squarefree divisor d of g.

    Each key is charged at the top bound before any sieve, walk or table:
    the weight table (``_weights_work``), then on the every-g route the
    sieve length Mmax, passes - 1 tables of Mmax + 1 entries (the
    height-zeta sum's n^-s arrays) and passes times the dot entries
    sum_c G(c) <= (Mmax + 1)(1 + E1/E2); on the sparse route, which reads no
    table, the bound on the admissible g.  ``passes`` is how often the
    caller goes over each entry: 1 for the count, 3 for the height-zeta sum.
    The count's int64 sums bound Mmax (MemoryError past it): 2 Mmax^2 on the
    every-g route, rows times Mmax on the sparse route, checked as soon as
    the strata g are walked.  The columns come next, then the sparse route's
    exact entries at the top bound, passes times sum_g 2^omega(g) C(g),
    C(g) = #{c : G(c) >= g}, are charged before any divisor is expanded."""
    E1, E2 = (m1 + 1) * m2, m1 * m2 + m1 - m2
    ratios = [(Bf ** (m1 * m2)).as_integer_ratio() for Bf in bounds]
    Mmax, cmax = _blowup_mmax(bounds[-1], m1), _iroot_ratio(*ratios[-1], E1 + E2)
    for fd, columns in keys:
        work = _weights_work(*columns, S.finite_primes, cmax)
        if fd == (1, 1):
            entries = -(-(Mmax + 1) * (E1 + E2) // E2)
            charge(budget, work + Mmax + (passes - 1) * (Mmax + 1) + passes * entries)
            # each count term is at most X2 G <= Mmax^2, and sum 1/f^2 < 2
            if 2 * Mmax * Mmax > _INT64_MAX:
                raise MemoryError(f"the Moebius sieve for Mmax = {Mmax} exceeds any memory")
        else:
            charge(budget, work + _denominator_bound(*fd, S.finite_primes, Mmax))
            if Mmax > _INT64_MAX:  # each count term is at most X2 <= Mmax
                raise MemoryError(f"the divisor rows up to Mmax = {Mmax} exceed any memory")
    row_steps = list(dict.fromkeys(fd for fd, _ in keys))
    strata = {}  # the sparse route's (g, primes, omega, 2^omega)
    for fd in row_steps:
        if fd != (1, 1):
            gs, primes, omega = _denominator_walk(Mmax, S.finite_primes, *fd, math.inf)
            per = np.left_shift(1, omega)
            if int(per.sum()) * Mmax > _INT64_MAX:
                raise MemoryError(f"{per.sum()} divisor rows exceed any memory")
            strata[fd] = gs, primes, omega, per
    X2, G, C = _column_roots(E1, E2, ratios)
    for gs, _, _, per in strata.values():
        caps = (-G[len(G) - cmax :]).searchsorted(-gs, side="right")  # C(g) at the top bound
        charge(budget, passes * sum((caps * per).tolist()))  # exact, past int64 too
    rows = {}
    for fd in row_steps:
        if fd == (1, 1):
            mu = mobius_sieve(Mmax)
            d = mu.nonzero()[0]
            rows[fd] = True, d, d, mu[d]
        else:
            gs, primes, omega, _ = strata.pop(fd)
            per, signed = _signed_divisors(primes, omega)
            rows[fd] = (False, gs.repeat(per), np.abs(signed),
                        np.sign(signed).astype(np.int8))
    weights = {fd: _blowup_weights(*fd, S, cmax)[1:]
               for fd in dict.fromkeys(columns for _, columns in keys)}
    return Mmax, (X2, G, C), rows, weights


def blowup_columns(
    m1: int,
    m2: int,
    S: PlaceSet,
    B: Union[int, float, Fraction],
    mode: str,
    budget: Optional[int] = DEFAULT_BUDGET,
) -> BlowupColumns:
    """The rows and columns of the blow-up at one bound for the height-zeta
    sum, built by ``_blowup_build`` and charged for the sum's three passes
    over each (column, row) entry."""
    key = progression(m1, mode), progression(m2, mode)
    Bf = Fraction(B)
    if Bf < 1:
        none = np.zeros(0, dtype=np.int64)
        return BlowupColumns(key[0] == (1, 1), 0, *[none] * 7)
    Mmax, (X2, G, _), rows, weights = _blowup_build(m1, m2, S, [Bf], [key], budget, 3)
    every_g, g, d, sign = rows[key[0]]
    return BlowupColumns(every_g, Mmax, g, d, sign, weights[key[1]], X2, G,
                         g.searchsorted(G, side="right"))


def _blowup_grid(
    m1: int, m2: int, S: PlaceSet, bounds: Sequence[Fraction],
    keys: Sequence[Tuple[Tuple[int, int], ...]], budget: Optional[int],
) -> Dict[tuple, List[int]]:
    """Per key (row and column progression), the blow-up points of height
    <= B for each B of the ascending grid: N = sum_c w(c) (1 + 2 P(c)), the
    1 for x2 = 0 over g = 1, P(c) the admissible g <= G(c) and x <= X2(c)
    coprime to g, that is sum_f mu(f) floor(X2/f) floor(G/f) when every g is
    admissible, else sum mu(d) floor(X2/|d|) over the rows (g, d).  A
    bound's columns are a prefix of the top's and k = #{g <= G(c)} stops
    each at G(c) <= Mmax(B), so one ``_blowup_build`` at the top bound, with
    one pass, charges every key and builds the rows, the weights and every
    bound's columns (one root call) before anything is counted.  Per row
    progression, one pass sums every (bound, column, row < k) entry for
    every key sharing the rows, by one ``np.add.reduceat`` per block of
    _BLOCK into the int64 P, below 2^63 by the charge; P is split by bound
    only for the dots with w."""
    tops = [Bf for Bf in bounds if Bf >= 1]
    counts = {key: [0] * (len(bounds) - len(tops)) for key in keys}
    if not tops:
        return counts
    _, (X2, G, C), rows, weights = _blowup_build(m1, m2, S, tops, keys, budget, 1)
    for fd, (every_g, g, d, sign) in rows.items():
        P = np.zeros(len(G), dtype=np.int64)
        for col, row, runs in ragged_blocks(g.searchsorted(G, side="right")):
            dr = d[row]
            terms = X2[col] // dr
            if every_g:
                terms *= G[col] // dr
            terms *= sign[row]
            # every column of every bound reads the row g = 1: no run is empty
            P[col[0] : col[-1] + 1] += np.add.reduceat(terms, runs.cumsum() - runs)
        for key in (key for key in keys if key[0] == fd):
            w = weights[key[1]]
            counts[key] += [
                int(w[:n].sum()) + 2 * int(np.dot(w[:n].astype(object), P[at : at + n]))
                for n, at in zip(C, itertools.accumulate(C, initial=0))]
    return counts


# --------------------------------------------------------------------------
# definitional oracles
# --------------------------------------------------------------------------


def _box_top(model: OrbifoldModel, Bf: Fraction) -> int:
    """The largest |coordinate| of a point of height <= B: the oracle's box
    holds top (2 top + 1)^dim candidates."""
    if model.name in ("p1", "pn"):
        return _floor_bound(Bf)
    if model.name == "blowup":
        return _blowup_mmax(Bf, model.params["m1"])
    raise DomainError(f"no point oracle for model {model.name!r}")


def _candidates(model: OrbifoldModel, Bf: Fraction) -> Iterator[geometry.ProjectivePoint]:
    """Every primitive point whose coordinates lie in the box of
    ``_box_top``, in a fixed order: the denominator q (x_n on projective
    space, x0 on the blow-up) in the outer loop, the other coordinates in
    [-top, top] inside it."""
    top = _box_top(model, Bf)
    box = range(-top, top + 1)
    for q in range(1, top + 1):
        for xs in itertools.product(box, repeat=model.dimension):
            if math.gcd(q, *xs) == 1:
                if model.name == "blowup":
                    yield geometry.ProjectivePoint((q, *xs))
                elif next(filter(None, xs), q) > 0:
                    yield geometry.ProjectivePoint((*xs, q))
                else:
                    yield geometry.ProjectivePoint((*(-x for x in xs), -q))


def iter_points(
    model: OrbifoldModel, S: PlaceSet, B, mode: str
) -> Iterator[geometry.ProjectivePoint]:
    """Definitional oracle: every point of the model with global height <= B
    in the given mode, found by testing each candidate point by point (no
    mode test, so no factoring, when every progression is (1, 1))."""
    every = all(progression(c.m, mode) == (1, 1) for c in model.components)
    Bf = Fraction(B)
    for pt in _candidates(model, Bf):
        if ((every or geometry.semi_integral(pt, model, S, mode))
                and geometry.global_height(pt, model).le(Bf)):
            yield pt


def naive_count_p1(m: int, S: PlaceSet, B, mode: str) -> int:
    """Point-by-point oracle over all reduced p/q with max(|p|, q) <= B."""
    return sum(1 for _ in iter_points(projective_space(1, m), S, B, mode))


def naive_count_pn2(m: int, S: PlaceSet, B, mode: str) -> int:
    return sum(1 for _ in iter_points(projective_space(2, m), S, B, mode))


def naive_count_blowup(m1: int, m2: int, S: PlaceSet, B, mode: str) -> int:
    return sum(1 for _ in iter_points(blowup_p2(m1, m2), S, B, mode))


# --------------------------------------------------------------------------
# series over a grid
# --------------------------------------------------------------------------


def _count_grid(
    model: OrbifoldModel, S: PlaceSet, bounds: Sequence[Union[int, float, Fraction]],
    modes: Sequence[str], budget: Optional[int],
) -> Dict[str, List[int]]:
    """Per mode, the counts over the ascending grid ``bounds``.  Modes that
    give every component the same ``progression`` share one count.  Each
    distinct count is charged at the top bound before any is counted, then
    each model counts the whole grid at once."""
    keys = [tuple(progression(c.m, mode) for c in model.components) for mode in modes]
    first: Dict[tuple, str] = {}  # a key's first mode, which counts it
    for key, mode in zip(keys, modes):
        first.setdefault(key, mode)
    if model.name == "blowup":
        counts = _blowup_grid(model.params["m1"], model.params["m2"], S,
                              [Fraction(B) for B in bounds], list(first), budget)
    elif model.name in ("p1", "pn"):
        n = model.dimension
        grid = [Bint for Bint in map(_floor_bound, bounds) if Bint >= 1]
        for (fd,) in first if grid else ():
            charge(budget, _mobius_sum_work(grid[-1]) if fd == (1, 1)
                   else _denominator_bound(*fd, S.finite_primes, grid[-1]))
        below = [0] * (len(bounds) - len(grid))
        counts = {key: below + (_count_pn(n, *key[0], S, grid, budget) if grid else [])
                  for key in first}
    else:
        raise DomainError(f"no enumerator for model {model.name!r}")
    return {mode: counts[key] for key, mode in zip(keys, modes)}


def count_points(
    model: OrbifoldModel,
    S: PlaceSet,
    B,
    mode: str,
    budget: Optional[int] = DEFAULT_BUDGET,
) -> int:
    """Count a built-in model at one bound, as a grid of one."""
    return _count_grid(model, S, [B], [mode], budget)[mode][0]


def count_series(
    model: OrbifoldModel,
    S: PlaceSet,
    bounds: Sequence[Union[int, float, Fraction]],
    mode: str = "all",
    budget: Optional[int] = DEFAULT_BUDGET,
    labels: Optional[Sequence[str]] = None,
) -> Tuple[CountRecord, ...]:
    """Counts over a strictly increasing grid of bounds.

    mode "all" counts every mode; a single mode counts just that one.  Modes
    with the same points are counted once (``_count_grid``).
    """
    if not bounds:
        raise DomainError("empty bound grid")
    fracs = [Fraction(b) for b in bounds]
    if any(b2 <= b1 for b1, b2 in zip(fracs, fracs[1:])):
        raise DomainError("bounds must be strictly increasing")
    if labels is None:
        labels = [_format_bound(b) for b in fracs]
    wanted = MODES if mode == "all" else (mode,)
    per_mode = _count_grid(model, S, fracs, wanted, budget)
    counts = [{md: per_mode[md][i] for md in wanted} for i in range(len(fracs))]
    return tuple(CountRecord(b, label, c) for b, label, c in zip(fracs, labels, counts))


def _format_bound(b: Fraction) -> str:
    if b.denominator == 1:
        return str(b.numerator)
    return str(float(b))


# --------------------------------------------------------------------------
# CSV schema
# --------------------------------------------------------------------------


def write_series_csv(records: Sequence[CountRecord], fh) -> None:
    fh.write(CSV_HEADER + "\n")
    for rec in records:
        cells = [rec.label] + [str(rec.counts.get(md, "")) for md in MODES]
        fh.write(",".join(cells) + "\n")


def read_counts_csv(fh) -> List[Dict[str, Optional[Union[float, int]]]]:
    header = fh.readline().strip()
    if header != CSV_HEADER:
        raise DomainError(f"unexpected CSV header: {header!r}")
    rows = []
    for number, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        where = f"{getattr(fh, 'name', 'CSV')}, line {number}"
        cells = line.split(",")
        if len(cells) != 1 + len(MODES):
            raise DomainError(f"{where}: malformed CSV row: {line!r}")
        try:
            row: Dict[str, Optional[Union[float, int]]] = {"bound": float(Fraction(cells[0]))}
            for md, cell in zip(MODES, cells[1:]):
                row[f"n_{md}"] = int(cell) if cell else None
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"{where}: cannot read {line!r} ({exc})") from exc
        rows.append(row)
    return rows


# --------------------------------------------------------------------------
# debug dump
# --------------------------------------------------------------------------

_DUMP_CAP = 10**6  # points a dump may write
# budget steps per candidate of the oracle's box: one takes 3.5-7 us, one
# step of the Mertens count about 18 ns
_CANDIDATE_STEPS = 300


def dump_points(
    model: OrbifoldModel,
    S: PlaceSet,
    B,
    mode: str,
    fh,
    total: int,
    budget: Optional[int] = DEFAULT_BUDGET,
) -> int:
    """Write the counted points one per line (debug aid).  Refuses to start
    when their count ``total``, which the caller has counted, exceeds
    ``_DUMP_CAP``, then charges the budget _CANDIDATE_STEPS steps per
    candidate of the oracle's box."""
    if total > _DUMP_CAP:
        raise BudgetExceededError(f"{total} points exceed the dump cap {_DUMP_CAP}")
    top = _box_top(model, Fraction(B))
    candidates = top * (2 * top + 1) ** model.dimension
    charge(budget, _CANDIDATE_STEPS * candidates,
           f"the dump's oracle over {_readable(candidates)} candidates")
    written = 0
    for pt in iter_points(model, S, B, mode):
        if model.name == "blowup":
            x0, x1, x2 = pt.coords
            fh.write(f"{Fraction(x1, x0)},{Fraction(x2, x0)}\n")
        elif model.name == "p1":
            u = Fraction(*pt.coords)
            fh.write(f"{u.numerator}/{u.denominator}\n")
        else:
            fh.write(":".join(str(c) for c in pt.coords) + "\n")
        written += 1
    return written
