"""Exact bounded-height point counts on the built-in geometries.

One counting core per model (points are counted, never materialized).  The
blow-up height-zeta sum in ``fitting`` runs on the blow-up core; the line
height-zeta sums do not run on the line's divisor sum, but on the rows
(q, signed squarefree divisor of rad q) of ``line_divisor_rows`` (or a
Moebius sieve when every q is admissible); the debug dump runs the oracle
(see below):

* projective n-space (p1 for n = 1, pn): ``line_denominators`` lists the
  admissible last coordinates q, each with its distinct primes, for the
  blow-up and the line height-zeta sum.  A Darmon q is s d^m and a Campana
  q is s times an m-full number, with s S-smooth and the other factor
  coprime to S, so one walk over the primes builds these q together with
  their primes and no path calls ``factorize``.  One core counts every n
  (``count_p1`` and ``count_pn2`` are its n = 1 and n = 2) and never visits
  a q: the points (x_1 : ... : x_n : q) number
  sum_{e | rad q} mu(e) T(floor(B/e)), T(x) = (2x + 1)^n, for each q, and
  every admissible q is s a^m t in exactly one way (t = 1 in Darmon mode,
  else a product of b_j^j, j = m+1..2m-1; Ivic, The Riemann Zeta-Function,
  ch. 14).  The same walk yields the shapes s t, and per shape the sum over
  a becomes a sum over e2 <= A = (B/(s t))^(1/m) of mu(e2)
  T(floor(B/(e1 e2))) c_S(floor(A/e2)) for each e1 | rad(s t), over one
  Moebius sieve up to B^(1/m): one exact int64 dot per shape with A > 128,
  and one pass per e2 across all the shapes with smaller A.  When every q is
  admissible (rational mode, or weight 1) the count is the Moebius sum
  N(B) = sum_d mu(d) floor(B/d) T(floor(B/d)), summed over the about
  2 sqrt(B) runs of equal floor(B/d) with Mertens values M(floor(B/k)): a
  Moebius sieve up to about B^(2/3) and the recursion
  M(x) = 1 - sum_{j>=2} M(floor(x/j)) above it (Deleglise and Rivat), so
  time and memory are O(B^(2/3)).
* blow-up: ``blowup_columns`` is the one core under ``count_blowup`` and
  the height-zeta sum.  The leading pairs (x_0, x_1) = (g a, g b),
  gcd(a, b) = 1, lie in cells (g, c), c = max(a, |b|); X_2 depends on c
  alone, and c <= C(g) exactly when g <= G(c), so both sums swap the sum
  over g inside the sum over c, as a Moebius sum (Pieropan, Smeets,
  Tanimoto and Varilly-Alvarado, Proc. LMS 2021), and no cell is visited:
  each column c reads a prefix of one table of rows, by one exact int64
  dot for the count and a few float64 dots for the height-zeta sum.

``iter_points`` is the point-by-point definitional oracle (exact gcd, mode
and height checks on every candidate, about 40 us each on a 2-CPU machine).
The naive_count_* oracles count what it yields and ``dump_points`` writes
it, so a dump takes the oracle's time over every candidate, not the core's
(the core's count only checks the dump cap first); the sieved counters must
agree with the oracles exactly, which the test suite checks.

Every count runs in one process, with no pool: the ``workers`` parameters
are kept for callers and change nothing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import geometry
from .arith import (
    count_coprime,
    integer_kth_root,
    is_prime,
    mobius_sieve,
    primes_up_to,
    signed_squarefree_divisors,
    totient_sieve,
)
from .errors import BudgetExceededError, DomainError
from .orbifold import OrbifoldModel, PlaceSet, blowup_p2, projective_space

__all__ = [
    "CountRecord",
    "CountSeries",
    "MODES",
    "count_p1",
    "count_pn2",
    "count_blowup",
    "count_points",
    "count_series",
    "naive_count_p1",
    "naive_count_pn2",
    "naive_count_blowup",
    "iter_points",
    "blowup_columns",
    "BlowupColumns",
    "line_denominators",
    "line_divisor_rows",
    "all_denominators_admissible",
    "write_series_csv",
    "read_counts_csv",
    "dump_points",
    "DEFAULT_BUDGET",
    "charge",
    "CSV_HEADER",
]

MODES = ("rational", "campana", "darmon")
DEFAULT_BUDGET = 10**9
CSV_HEADER = "B,n_rational,n_campana,n_darmon"


@dataclass(frozen=True)
class CountRecord:
    bound: Fraction
    n_rational: Optional[int] = None
    n_campana: Optional[int] = None
    n_darmon: Optional[int] = None


@dataclass(frozen=True)
class CountSeries:
    model: OrbifoldModel
    s_primes: Tuple[int, ...]
    records: Tuple[CountRecord, ...]
    labels: Tuple[str, ...]


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


def charge(budget: Optional[int], amount: int) -> None:
    """Refuse predicted work of ``amount`` steps above the budget (None: no cap)."""
    if budget is not None and amount > budget:
        raise BudgetExceededError(
            f"enumeration would take ~{_readable(amount)} steps"
            f" (budget {_readable(budget)})"
        )


# --------------------------------------------------------------------------
# admissible denominators
# --------------------------------------------------------------------------


def _shaped_denominators(
    limit: int, s_primes: Sequence[int], first: int, step: int, last: float
) -> List[Tuple[int, Tuple[int, ...]]]:
    """(q, primes of q) for the q <= limit whose exponent is any e >= 1 at each
    prime of S and one of first, first + step, ... <= last at every other
    prime, ascending in q.

    Every q takes (1, 1, inf), the Darmon q (m, m, inf), the Campana q
    (m, 1, inf), and the shapes s t of the divisor sum (m+1, 1, 2m-1), or no
    prime outside S in Darmon mode (first > last).  One depth-first walk over
    the primes in ascending order: each support is built prime by prime, so
    it is ascending and holds the distinct primes of q.  When a prime's least
    entry overshoots, no later prime fits if it is in S; otherwise only a
    later prime of S can, with exponent 1 and possibly above
    limit^(1/first), so the walk skips ahead to it."""
    S = set(s_primes)
    ps = primes_up_to(integer_kth_root(limit, first)) if first <= last else []
    ps = sorted(set(ps) | {p for p in S if p <= limit})
    next_s = [len(ps)] * (len(ps) + 1)  # index of the first S prime >= ps[j]
    for j in reversed(range(len(ps))):
        next_s[j] = j if ps[j] in S else next_s[j + 1]
    # per prime: least entry, factor between entries, largest entry (None: any)
    entries = [
        (p, p, None) if p in S
        else (p**first, p**step, None if last == math.inf else p**last)
        for p in ps
    ]
    out: List[Tuple[int, Tuple[int, ...]]] = []
    stack = [(0, 1, ())]  # (index of the next prime, q so far, its primes)
    while stack:
        j, val, support = stack.pop()
        out.append((val, support))
        while j < len(ps):
            least, factor, top = entries[j]
            v = val * least
            if v > limit:
                if ps[j] in S:
                    break
                j = next_s[j + 1]
                continue
            cap = limit if top is None else min(limit, val * top)
            support_p = support + (ps[j],)
            while v <= cap:
                stack.append((j + 1, v, support_p))
                v *= factor
            j += 1
    out.sort()
    return out


def all_denominators_admissible(m: int, mode: str) -> bool:
    """True when every q >= 1 is an admissible last coordinate of the
    projective models: rational mode, or weight 1."""
    return mode == "rational" or m == 1


def _denominator_bound(m: int, s_primes: Sequence[int], limit: int, mode: str) -> int:
    """Upper bound on the number of Darmon or Campana denominators <= limit.

    The q = s d^m with s S-smooth number at most sum_s (limit/s)^(1/m)
    <= limit^(1/m) prod_{p in S} sum_{p^e <= limit} p^(-e/m), and each of
    these sums is at most min(1/(1 - p^(-1/m)), #{e : p^e <= limit}).  The
    m-full numbers <= X are a^m prod_{j=m+1}^{2m-1} b_j^j with b_j <= X^(1/j),
    at most X^(1/m) prod_j sum_{b <= X^(1/j)} b^(-j/m), and each of these
    sums is at most min(zeta(j/m) <= j/(j-m), floor(X^(1/j))), which is 1
    once 2^j > X.  The S zeta factors are rounded up to a multiple of 2^-20,
    so the bound is computed exactly for any limit."""
    bound = Fraction(integer_kth_root(limit, m) + 1)
    if mode == "campana":
        for j in range(m + 1, 2 * m):
            bound *= min(Fraction(j, j - m), integer_kth_root(limit, j))
    for p in s_primes:
        powers, pe = 1, p
        while pe <= limit:
            powers, pe = powers + 1, pe * p
        zeta_factor = math.ceil(2**20 / (1 - p ** (-1 / m)) * (1 + 1e-12))
        bound *= min(Fraction(zeta_factor, 2**20), powers)
    return math.ceil(bound)


def line_denominators(
    m: int, S: PlaceSet, Bint: int, mode: str, budget: Optional[int] = None
) -> Iterable[Tuple[int, Tuple[int, ...]]]:
    """Admissible last coordinates q <= Bint of the projective models,
    ascending, each with its distinct primes: pairs (q, primes of q).

    Every q when ``all_denominators_admissible``, otherwise the Darmon or
    Campana denominators away from S; either way one walk over the primes
    builds them, so none is factored.  The budget is charged Bint, or an
    upper bound on the Darmon or Campana denominators, before the walk."""
    if all_denominators_admissible(m, mode):
        charge(budget, Bint)
        m = 1  # any exponent at every prime
    else:
        charge(budget, _denominator_bound(m, S.finite_primes, Bint, mode))
    step = m if mode == "darmon" else 1
    return _shaped_denominators(Bint, S.finite_primes, m, step, math.inf)


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


def line_divisor_rows(
    m: int, S: PlaceSet, Bint: int, mode: str, budget: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, rows per q, f) over the Darmon or Campana denominators q <= Bint
    of ``line_denominators``: for each q its 2^omega(q) signed squarefree
    divisors f of rad q (sign mu(|f|)), flat and in the order of q, which
    runs through the q of each omega(q) in turn, ascending within each.

    Every prime of q outside S divides a number whose m-th power is at most
    Bint, so q has at most omega_max(Bint^(1/m)) + |S| primes; the budget is
    charged the denominator bound times 2 to that power before the walk.
    The divisors of the q with k primes are built as one array of 2^k
    columns; the arrays are int64, or object arrays when Bint passes int64."""
    if all_denominators_admissible(m, mode):
        raise DomainError("divisor rows are for Darmon or Campana denominators")
    shift = _omega_max(integer_kth_root(Bint, m)) + len(S.finite_primes)
    charge(budget, _denominator_bound(m, S.finite_primes, Bint, mode) << shift)
    by_omega: Dict[int, Tuple[List[int], List[Tuple[int, ...]]]] = {}
    for q, primes in line_denominators(m, S, Bint, mode):
        qs, supports = by_omega.setdefault(len(primes), ([], []))
        qs.append(q)
        supports.append(primes)
    dtype = np.int64 if Bint <= _INT64_MAX else object
    q, per_q, f = [], [], []
    for k in sorted(by_omega):
        qs, supports = by_omega.pop(k)
        primes = np.array(supports, dtype=dtype).reshape(len(qs), k)
        divisors = np.ones((len(qs), 1), dtype=dtype)
        for j in range(k):  # the order of ``signed_squarefree_divisors``
            divisors = np.hstack((divisors, -divisors * primes[:, j : j + 1]))
        q.append(np.array(qs, dtype=dtype))
        per_q.append(np.full(len(qs), 1 << k, dtype=np.int64))
        f.append(divisors.ravel())
    return np.concatenate(q), np.concatenate(per_q), np.concatenate(f)


# --------------------------------------------------------------------------
# line and plane counts
# --------------------------------------------------------------------------


def _mertens_sieve_limit(N: int) -> int:
    """Sieve length of ``_mobius_sum``: about N^(2/3) / 2, at least isqrt(N)."""
    return max(math.isqrt(N), integer_kth_root(N, 3) ** 2 // 2)


def _mobius_sum_work(N: int) -> int:
    """Predicted steps of ``_mobius_sum(N, ...)``: the sieve length, the
    recursion's 2 sqrt(N/k) array entries for each k <= K (at most
    4 sqrt(N K)) and the 2 sqrt(N) final terms."""
    L = _mertens_sieve_limit(N)
    return L + 4 * math.isqrt(N * (N // (L + 1))) + 2 * math.isqrt(N)


def _mobius_sum(N: int, term: Callable[[int], int]) -> int:
    """sum_{d <= N} mu(d) term(floor(N/d)), exactly, in O(N^(2/3)) time and
    memory.

    The Mertens function M(x) = sum_{d <= x} mu(d) comes from a Moebius sieve
    for x <= L, and at the K points x = floor(N/k) > L from the recursion
    M(x) = 1 - sum_{j=2}^{x} M(floor(x/j)), for k = K down to 1: with
    r = isqrt(x), the j <= x // (r+1) are summed one by one (floor(x/j) =
    floor(N/(k j)) is an earlier point or lies in the sieve), the others by
    value v = floor(x/j) <= r, which after summation by parts gives
    sum_{v <= r} mu(v) floor(x/v) - floor(x/(r+1)) M(r).  The sum itself
    takes d <= N // (s+1), s = isqrt(N), one at a time and the remaining d
    in runs of equal v = floor(N/d) <= s, each weighted by
    M(floor(N/v)) - M(floor(N/(v+1))).  Every int64 partial sum stays below
    N (2 + 2 ln N), so N < 2^56 keeps the arrays exact.
    """
    if N >= 2**56:
        raise MemoryError(f"the Mertens sieve for B = {N} exceeds any memory")
    L = _mertens_sieve_limit(N)
    K = N // (L + 1)
    mu = mobius_sieve(L)
    M = np.cumsum(mu, dtype=np.int32 if L < 2**31 else np.int64)
    s = math.isqrt(N)
    ar = np.arange(1, s + 2, dtype=np.int64)  # ar[i] = i + 1
    big = np.zeros(K + 1, dtype=np.int64)  # big[k] = M(N // k) for k <= K
    for k in range(K, 0, -1):
        x = N // k
        r = math.isqrt(x)
        J = x // (r + 1)
        jk = min(J, K // k)  # j <= jk: floor(x/j) = floor(N/(k j)) > L
        total = int(big[2 * k : jk * k + 1 : k].sum()) + int(M[x // ar[jk:J]].sum())
        total += int(np.dot(mu[1 : r + 1], x // ar[:r])) - (x // (r + 1)) * int(M[r])
        big[k] = 1 - total
    total = 0
    for d, mu_d in enumerate(mu[1 : N // (s + 1) + 1].tolist(), 1):
        if mu_d:
            total += mu_d * term(N // d)
    at_quotients = np.concatenate((big[1:], M[N // ar[K : s + 1]]))  # v = 1..s+1
    for v, run in enumerate((at_quotients[:-1] - at_quotients[1:]).tolist(), 1):
        if run:
            total += run * term(v)
    return total


_SMALL_A = 128  # shapes with A <= this are summed e2 by e2 across all of them
_BLOCK = 1 << 16  # e2 per block of one shape's dot, rows per digit block
_INT64_MAX = 2**63 - 1


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
    table = np.cumsum(coprime)
    return lambda x: (x // P) * phi + table[x % P]


def _head_length(n: int, X: int, A: int) -> int:
    """How many leading e of sum_{e <= A} w_e T(X // e), |w_e| <= A // e, go
    through Python ints so that the rest stays inside int64.

    T(x) = (2x + 1)^n.  As e <= A <= X, 2 (X // e) + 1 <= 3X / e, so
    T(X // e) <= (3/2)^n T(X) / e^n, and the terms after the first H >= 1 sum
    to at most (3/2)^n A T(X) / (n H^n); H is the least value that puts this
    below 2^63, or 0 when all the terms, at most (1 + (3/2)^n / n) A T(X),
    stay below it."""
    if X > _INT64_MAX:
        return A
    tail = 3**n * A * _box(n, X)  # n 2^n H^n times the bound past H
    unit = n << (n + 63)
    if tail + (n << n) * A * _box(n, X) < unit:
        return 0
    return min(A, integer_kth_root(tail // unit, n) + 1)


def _box_dot(n: int, w: np.ndarray, f: np.ndarray) -> int:
    """sum_r w_r T(f_r) exactly, T(x) = (2x + 1)^n, for arrays with 0 <= f
    and int64 |w| <= _SMALL_A.

    One int64 dot when no partial sum can overflow.  Otherwise, for n <= 2,
    the power sums sum w f and sum w f^2 from the four 16-bit digits of f,
    per block of _BLOCK rows, where every partial sum stays below 2^55; for
    larger n, or f an object array, one dot in Python ints."""
    if len(f) == 0:
        return 0
    if f.dtype != object and _box(n, int(f.max())) * _SMALL_A * len(f) <= _INT64_MAX:
        return int(np.dot(w, _box(n, f)))
    if f.dtype == object or n > 2:
        return int(np.dot(w.astype(object), _box(n, f.astype(object))))
    coeffs = [math.comb(n, i) << i for i in range(n + 1)]
    shifts = (0, 16, 32, 48)
    total = 0
    for i in range(0, len(f), _BLOCK):
        wb, fb = w[i : i + _BLOCK], f[i : i + _BLOCK]
        digits = np.stack([(fb >> k) & 0xFFFF for k in shifts])
        weighted = digits * wb
        linear = weighted.sum(axis=1).tolist()
        sums = [int(wb.sum()), sum(x << k for x, k in zip(linear, shifts))]
        if n == 2:
            pairs = (weighted @ digits.T).tolist()
            sums.append(sum(pairs[a][b] << (shifts[a] + shifts[b])
                            for a in range(4) for b in range(4)))
        total += sum(c * p for c, p in zip(coeffs, sums))
    return total


def _shape_dot(n, Bint, A, divisors, t_primes, mu, c_S) -> int:
    """sum_{e1} mu(e1) sum_{e2 <= A, (e2, S t) = 1} mu(e2) T(Bint // (e1 e2))
    c_S(A // e2) for one shape, e1 over the signed divisors, by one int64 dot
    per block of e2 and divisor after a head in Python ints."""
    heads = []
    for d in divisors:
        X = Bint // abs(d)
        heads.append((d, X, _head_length(n, X, A)))
    total = 0
    for lo in range(1, A + 1, _BLOCK):
        e = np.arange(lo, min(A, lo + _BLOCK - 1) + 1, dtype=np.int64)
        w = mu[lo : lo + len(e)].astype(np.int64)
        for p in t_primes:
            w[-lo % p :: p] = 0
        w *= c_S(A // e)
        for d, X, H in heads:
            k = min(max(H - lo + 1, 0), len(e))
            part = int(np.dot(w[k:], _box(n, X // e[k:]))) if k < len(e) else 0
            if k:
                part += _box_dot(n, w[:k], X // e[:k].astype(object))
            total += part if d > 0 else -part
    return total


def _small_shapes_sum(n, Bint, shapes, in_S, mu, c_S) -> int:
    """The divisor sum over shapes (A, primes of s t) with A <= _SMALL_A, in
    descending A, over chunks of about _BLOCK rows (shape, e1)."""
    bits = {p: 1 << i for i, p in enumerate(primes_up_to(_SMALL_A))}
    total = start = rows = 0
    for i, (_, primes) in enumerate(shapes, 1):
        rows += 1 << len(primes)
        if rows >= _BLOCK or i == len(shapes):
            chunk = shapes[start:i]
            total += _small_chunk_sum(n, Bint, chunk, in_S, bits, mu, c_S)
            start, rows = i, 0
    return total


def _small_chunk_sum(n, Bint, shapes, in_S, bits, mu, c_S) -> int:
    """One row per (shape, e1) with X = Bint // e1, its sign mu(e1), A and
    the bits of the primes <= _SMALL_A of t; rows whose X exceeds int64 are
    summed apart in Python ints."""
    n_primes = [len(primes) for _, primes in shapes]
    width = max(n_primes)
    table = np.array([primes + (1,) * (width - len(primes)) for _, primes in shapes])
    per_shape = np.left_shift(1, n_primes)
    shape_of = np.repeat(np.arange(len(shapes)), per_shape)
    first_row = np.repeat(np.cumsum(per_shape) - per_shape, per_shape)
    subset = np.arange(len(shape_of)) - first_row
    e1 = np.ones(len(shape_of), dtype=np.int64 if Bint <= _INT64_MAX else object)
    sign = np.ones(len(shape_of), dtype=np.int64)
    for j in range(width):  # the divisor of a row takes the j-th prime if bit j is set
        has = (subset >> j) & 1 == 1
        e1[has] *= table[shape_of[has], j]
        sign[has] *= -1
    X = Bint // e1
    A = np.repeat(np.array([A for A, _ in shapes], dtype=np.int64), per_shape)
    t_bits = [sum(bits.get(p, 0) for p in ps if p not in in_S) for _, ps in shapes]
    t_bits = np.repeat(np.array(t_bits, dtype=np.int64), per_shape)
    fits = X <= _INT64_MAX
    total = 0
    for rows, X_rows in ((fits, X[fits].astype(np.int64)), (~fits, X[~fits])):
        total += _rows_sum(
            n, X_rows, A[rows], sign[rows], t_bits[rows], bits, mu, c_S
        )
    return total


def _rows_sum(n, X, A, sign, t_bits, bits, mu, c_S) -> int:
    """sum over the rows, in descending A, of sign sum_{e2 <= A, (e2, S t) = 1}
    mu(e2) T(X // e2) c_S(A // e2): one pass per e2 over the rows with
    A >= e2, by ``_box_dot`` (object arrays: Python ints)."""
    if not len(A):
        return 0
    rows_from = np.searchsorted(-A, -np.arange(A[0] + 1), side="right")
    has_t = bool(t_bits.any())
    total = 0
    for e2 in range(1, int(A[0]) + 1):
        if not mu[e2]:
            continue
        k = int(rows_from[e2])
        w = sign[:k] * c_S(A[:k] // e2)
        if has_t and e2 > 1:
            w *= (t_bits[:k] & sum(b for p, b in bits.items() if e2 % p == 0)) == 0
        total += int(mu[e2]) * _box_dot(n, w, X[:k] // e2)
    return total


def _divisor_sum(
    n: int, m: int, S: PlaceSet, Bint: int, mode: str, budget: Optional[int]
) -> int:
    """sum over the Darmon or Campana q <= Bint of sum_{e | rad q} mu(e)
    T(Bint // e), T(x) = (2x + 1)^n, by the shape of q.

    Each such q is s a^m t with s S-smooth, a coprime to S and t = prod_j
    b_j^j over j = m+1..2m-1 with the b_j squarefree, pairwise coprime and
    coprime to S (t = 1 in Darmon mode), in exactly one way.  Splitting
    e = e1 e2 with e1 | rad(s t) and e2 | rad(a) coprime to s t, and counting
    the a <= A = (Bint / (s t))^(1/m) that e2 divides, gives the sum over the
    shapes s t of sum_{e1} mu(e1) sum_{e2 <= A, (e2, S t) = 1} mu(e2)
    T(Bint // (e1 e2)) c_S(A // e2).  The budget is charged the bound on the
    denominators before the shapes are walked, then the (shape, e1) rows and
    the sieve length before the sieve."""
    s_primes = S.finite_primes
    charge(budget, _denominator_bound(m, s_primes, Bint, mode))
    last = 2 * m - 1 if mode == "campana" else m  # Darmon: no prime outside S
    shapes = _shaped_denominators(Bint, s_primes, m + 1, 1, last)
    # ascending s t, so A falls and the shape 1 has the largest
    rows = [(integer_kth_root(Bint // v, m), primes) for v, primes in shapes]
    A_max = rows[0][0]
    charge(budget, sum(1 << len(primes) for _, primes in rows) + A_max)
    mu = mobius_sieve(A_max)
    for p in s_primes:
        mu[::p] = 0
    c_S = _coprime_counter(s_primes, A_max)
    in_S = set(s_primes)
    total = 0
    n_large = sum(1 for A, _ in rows if A > _SMALL_A)
    for A, primes in rows[:n_large]:
        t_primes = [p for p in primes if p not in in_S]
        divisors = signed_squarefree_divisors(primes)
        total += _shape_dot(n, Bint, A, divisors, t_primes, mu, c_S)
    return total + _small_shapes_sum(n, Bint, rows[n_large:], in_S, mu, c_S)


def _count_pn(
    n: int, m: int, S: PlaceSet, B: Union[int, float, Fraction], mode: str,
    budget: Optional[int],
) -> int:
    """Points (x_1 : ... : x_n : q) of projective n-space with height <= B in
    the given mode: the divisor sum of T(x) = (2x + 1)^n, the n-tuples in
    [-x, x]^n, over the admissible q, or sum_d mu(d) floor(B/d) T(floor(B/d))
    when every q is admissible."""
    _check_mode(mode)
    Bint = _floor_bound(B)
    if Bint < 1:
        return 0
    if all_denominators_admissible(m, mode):
        charge(budget, _mobius_sum_work(Bint))
        return _mobius_sum(Bint, lambda v: v * _box(n, v))
    return _divisor_sum(n, m, S, Bint, mode, budget)


def count_p1(
    m: int,
    S: PlaceSet,
    B: Union[int, float, Fraction],
    mode: str,
    workers: int = 1,
    budget: Optional[int] = DEFAULT_BUDGET,
) -> int:
    """Points of the line model with global height <= B in the given mode.
    The count runs in one process for any ``workers``."""
    return _count_pn(1, m, S, B, mode, budget)


def count_pn2(
    m: int,
    S: PlaceSet,
    B: Union[int, float, Fraction],
    mode: str,
    workers: int = 1,
    budget: Optional[int] = DEFAULT_BUDGET,
) -> int:
    """Plane model (projective, n = 2): last coordinate plays the role of q.
    The count runs in one process for any ``workers``."""
    return _count_pn(2, m, S, B, mode, budget)


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


def _blowup_weights(m2: int, S: PlaceSet, cmax: int, mode: str) -> np.ndarray:
    """w(c) for 0 <= c <= cmax: the points b/a of height exactly c on the
    weight-m2 line, [c in A] (2 phi(c) + [c = 1]) + 2 #{a in A : a < c,
    gcd(a, c) = 1}.  When every a is admissible that is 4 phi(c), and 3 at
    c = 1, from one totient sieve; otherwise one gcd row per a in A."""
    if all_denominators_admissible(m2, mode):
        w = 4 * totient_sieve(cmax)
        w[1:2] = 3
        return w
    w = np.zeros(cmax + 1, dtype=np.int64)
    for a, ap in line_denominators(m2, S, cmax, mode):
        w[a] += 2 * count_coprime(a, ap) + (a == 1)  # 2 phi(a) + [a = 1]
        w[a + 1 :] += 2 * (np.gcd(a, np.arange(a + 1, cmax + 1)) == 1)
    return w


@dataclass(frozen=True)
class BlowupColumns:
    """Rows (g[i], d[i], sign[i]), ascending in g, and columns
    (c, w(c), X2(c), G(c), k): column c reads the k rows with g <= G(c)."""

    every_g: bool
    mmax: int
    g: np.ndarray
    d: np.ndarray
    sign: np.ndarray
    columns: List[Tuple[int, int, int, int, int]]


def blowup_columns(
    m1: int,
    m2: int,
    S: PlaceSet,
    B: Union[int, float, Fraction],
    mode: str,
    budget: Optional[int] = DEFAULT_BUDGET,
    passes: int = 1,
) -> BlowupColumns:
    """The rows and columns that ``count_blowup`` and the height-zeta sum
    share.  A cell (g, c) carries a point of height <= B exactly when
    g^E1 c^(E1+E2) <= B^(m1 m2), E1 = (m1 + 1) m2, E2 = m1 m2 + m1 - m2,
    that is g <= G(c); its w(c) pairs take the x2 coprime to g with
    |x2| <= X2(c), g c <= X2(c) <= X2(1) = Mmax.  The columns are the
    c <= C(1) with w(c) > 0; the rows are the squarefree f <= Mmax with
    g = d = f and sign mu(f) when every g is admissible, and otherwise one
    row per stratum g and signed squarefree divisor d of g.

    The budget is charged before any sieve, list or table: the weight
    table, the g source (the sieve length Mmax, or the bound on the
    admissible g), passes - 1 tables of Mmax + 1 entries and passes times
    the dot entries sum_c G(c) <= (Mmax + 1)(1 + E1/E2), or on the sparse
    route, once the strata are built, sum_g 2^omega(g) C(g).  ``passes`` is
    how often the caller goes over each entry: 1 for the count, 3 for the
    height-zeta sum."""
    _check_mode(mode)
    Bf = Fraction(B)
    every_g = all_denominators_admissible(m1, mode)
    if Bf < 1:
        none = np.zeros(0, dtype=np.int64)
        return BlowupColumns(every_g, 0, none, none, none, [])
    E1, E2 = (m1 + 1) * m2, m1 * m2 + m1 - m2
    num, den = (Bf ** (m1 * m2)).as_integer_ratio()
    Mmax = _blowup_mmax(Bf, m1)
    cmax = _iroot_ratio(num, den, E1 + E2)
    per_a = 1 if all_denominators_admissible(m2, mode) else _denominator_bound(
        m2, S.finite_primes, cmax, mode)  # the totient sieve, or a gcd row per a
    work = cmax * per_a + (passes - 1) * (Mmax + 1)
    if every_g:
        entries = -(-(Mmax + 1) * (E1 + E2) // E2)
        charge(budget, work + Mmax + passes * entries)
        # each count term is at most X2 G <= Mmax^2, and sum 1/f^2 < 2
        if 2 * Mmax * Mmax > _INT64_MAX:
            raise MemoryError(f"the Moebius sieve for Mmax = {Mmax} exceeds any memory")
        mu = mobius_sieve(Mmax)
        g = d = np.flatnonzero(mu)
        sign = mu[d].astype(np.int64)
    else:
        charge(budget, work + _denominator_bound(m1, S.finite_primes, Mmax, mode))
        gs = line_denominators(m1, S, Mmax, mode)  # C(g) caps max(a, b) over g
        strata = [(g, gp, _iroot_ratio(num, den * g**E1, E1 + E2)) for g, gp in gs]
        charge(budget, passes * sum(C << len(gp) for _, gp, C in strata))
        rows = [signed_squarefree_divisors(gp) for _, gp, _ in strata]
        g = np.repeat([stratum[0] for stratum in strata], [len(r) for r in rows])
        signed = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64)
        sign, d = np.sign(signed), np.abs(signed)
        if len(d) * Mmax > _INT64_MAX:  # each count term is at most X2 <= Mmax
            raise MemoryError(f"{len(d)} divisor rows exceed any memory")
    columns = []
    for c, weight in enumerate(_blowup_weights(m2, S, cmax, mode).tolist()):
        if weight:
            q = num // (den * c**E2)
            X, G = integer_kth_root(q, E1), integer_kth_root(q // c**E1, E1)
            columns.append((c, weight, X, G, int(np.searchsorted(g, G, side="right"))))
    return BlowupColumns(every_g, Mmax, g, d, sign, columns)


def count_blowup(
    m1: int,
    m2: int,
    S: PlaceSet,
    B: Union[int, float, Fraction],
    mode: str,
    workers: int = 1,
    budget: Optional[int] = DEFAULT_BUDGET,
) -> int:
    """Blow-up model points with global height <= B in the given mode, in
    one process for any ``workers``: over the columns of ``blowup_columns``,
    N = sum_c w(c) (1 + 2 P(c)), the 1 for x2 = 0 over g = 1, where P(c)
    counts the admissible g <= G(c) and x <= X2(c) coprime to g, one exact
    int64 dot: sum_f mu(f) floor(X2/f) floor(G/f) when every g is
    admissible, else sum mu(d) floor(X2/|d|) over the rows (g, d)."""
    core = blowup_columns(m1, m2, S, B, mode, budget)
    total = 0
    for c, weight, X, G, k in core.columns:
        f = core.d[:k]
        terms = (X // f) * (G // f) if core.every_g else X // f
        total += weight * (1 + 2 * int(np.dot(core.sign[:k], terms)))
    return total


# --------------------------------------------------------------------------
# definitional oracles
# --------------------------------------------------------------------------


def _mode_ok(point, model: OrbifoldModel, S: PlaceSet, mode: str) -> bool:
    if mode == "rational":
        return True
    if mode == "darmon":
        return geometry.is_darmon(point, model, S)
    return geometry.is_campana(point, model, S)


def _candidates(model: OrbifoldModel, Bf: Fraction) -> Iterator[geometry.Point]:
    """Every primitive point whose coordinates lie in the box the height
    bound allows, in a fixed order."""
    if model.name in ("p1", "pn"):
        Bint = _floor_bound(Bf)
        box = range(-Bint, Bint + 1)
        for q in range(1, Bint + 1):
            for xs in itertools.product(box, repeat=model.dimension):
                if math.gcd(q, *xs) == 1:
                    yield geometry.ProjectivePoint.from_rationals(xs + (q,))
    elif model.name == "blowup":
        Mmax = _blowup_mmax(Bf, model.params["m1"])
        box = range(-Mmax, Mmax + 1)
        for x0 in range(1, Mmax + 1):
            for x1, x2 in itertools.product(box, repeat=2):
                if math.gcd(x0, x1, x2) == 1:
                    yield geometry.BlowupPoint(Fraction(x1, x0), Fraction(x2, x0))
    else:
        raise DomainError(f"no point oracle for model {model.name!r}")


def iter_points(
    model: OrbifoldModel, S: PlaceSet, B, mode: str
) -> Iterator[geometry.Point]:
    """Definitional oracle: every point of the model with global height <= B
    in the given mode, found by testing each candidate point by point."""
    _check_mode(mode)
    Bf = Fraction(B)
    for pt in _candidates(model, Bf):
        if _mode_ok(pt, model, S, mode) and geometry.global_height(pt, model).le(Bf):
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


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}")


def count_points(
    model: OrbifoldModel,
    S: PlaceSet,
    B,
    mode: str,
    workers: int = 1,
    budget: Optional[int] = DEFAULT_BUDGET,
) -> int:
    """Dispatch a single count for a built-in model."""
    if model.name == "p1":
        return count_p1(model.params["m"], S, B, mode, workers, budget)
    if model.name == "pn" and model.dimension == 2:
        return count_pn2(model.params["m"], S, B, mode, workers, budget)
    if model.name == "pn":
        return _count_pn(model.dimension, model.params["m"], S, B, mode, budget)
    if model.name == "blowup":
        return count_blowup(
            model.params["m1"], model.params["m2"], S, B, mode, workers, budget
        )
    raise DomainError(f"no enumerator for model {model.name!r}")


def count_series(
    model: OrbifoldModel,
    S: PlaceSet,
    bounds: Sequence[Union[int, float, Fraction]],
    mode: str = "all",
    workers: int = 1,
    budget: Optional[int] = DEFAULT_BUDGET,
    labels: Optional[Sequence[str]] = None,
) -> CountSeries:
    """Counts over a strictly increasing grid of bounds.

    mode "all" fills every column; a single mode fills just that one.
    """
    if not bounds:
        raise DomainError("empty bound grid")
    fracs = [Fraction(b) for b in bounds]
    if any(b2 <= b1 for b1, b2 in zip(fracs, fracs[1:])):
        raise DomainError("bounds must be strictly increasing")
    if labels is None:
        labels = [_format_bound(b) for b in fracs]
    wanted = MODES if mode == "all" else (mode,)
    records = []
    for b in fracs:
        counts: Dict[str, Optional[int]] = {m: None for m in MODES}
        for md in wanted:
            counts[md] = count_points(model, S, b, md, workers, budget)
        records.append(
            CountRecord(
                bound=b,
                n_rational=counts["rational"],
                n_campana=counts["campana"],
                n_darmon=counts["darmon"],
            )
        )
    return CountSeries(model, S.finite_primes, tuple(records), tuple(labels))


def _format_bound(b: Fraction) -> str:
    if b.denominator == 1:
        return str(b.numerator)
    return str(float(b))


# --------------------------------------------------------------------------
# CSV schema
# --------------------------------------------------------------------------


def write_series_csv(series: CountSeries, fh) -> None:
    fh.write(CSV_HEADER + "\n")
    for label, rec in zip(series.labels, series.records):
        cells = [label]
        for v in (rec.n_rational, rec.n_campana, rec.n_darmon):
            cells.append("" if v is None else str(v))
        fh.write(",".join(cells) + "\n")


def read_counts_csv(fh) -> List[Dict[str, Optional[Union[float, int]]]]:
    header = fh.readline().strip()
    if header != CSV_HEADER:
        raise DomainError(f"unexpected CSV header: {header!r}")
    rows = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != 4:
            raise DomainError(f"malformed CSV row: {line!r}")
        rows.append(
            {
                "bound": float(Fraction(cells[0])),
                "n_rational": int(cells[1]) if cells[1] else None,
                "n_campana": int(cells[2]) if cells[2] else None,
                "n_darmon": int(cells[3]) if cells[3] else None,
            }
        )
    return rows


# --------------------------------------------------------------------------
# debug dump
# --------------------------------------------------------------------------


def dump_points(
    model: OrbifoldModel,
    S: PlaceSet,
    B,
    mode: str,
    fh,
    cap: int = 10**6,
) -> int:
    """Write the counted points one per line (debug aid).  Refuses to start
    when the count exceeds the cap."""
    total = count_points(model, S, B, mode)
    if total > cap:
        raise BudgetExceededError(f"{total} points exceed the dump cap {cap}")
    written = 0
    for pt in iter_points(model, S, B, mode):
        if model.name == "blowup":
            fh.write(f"{pt.u},{pt.w}\n")
        elif model.name == "p1":
            u = Fraction(*pt.coords)
            fh.write(f"{u.numerator}/{u.denominator}\n")
        else:
            fh.write(":".join(str(c) for c in pt.coords) + "\n")
        written += 1
    return written
