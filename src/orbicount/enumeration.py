"""Exact bounded-height point counts on the built-in geometries.

One enumeration core per model; the counts, the height-zeta sums in
``fitting`` and the debug dump are all built on it (points are counted, never
materialized):

* line (p1) and plane (pn, n = 2): ``line_denominators`` is the one source of
  admissible last coordinates q, each with its distinct primes.  A Darmon q
  is s d^m and a Campana q is s times an m-full number, with s S-smooth and
  the other factor coprime to S, so one walk over the primes builds these q
  together with their primes and no Darmon or Campana path calls
  ``factorize``.  ``count_p1`` and ``count_pn2`` share one body: per q they
  count coprime numerators (line) or coprime pairs (plane) by
  inclusion-exclusion over the prime divisors of q.  When every q is
  admissible (rational mode, or weight 1) they take the Moebius sums
  N(B) = 1 + 2 * sum_d mu(d) * floor(B/d)^2 (line) and its plane analogue,
  summed over the about 2 sqrt(B) runs of equal floor(B/d) with Mertens
  values M(floor(B/k)): a Moebius sieve up to about B^(2/3) and the
  recursion M(x) = 1 - sum_{j>=2} M(floor(x/j)) above it (Deleglise and
  Rivat), so time and memory are O(B^(2/3)).
* blow-up: ``blowup_cells`` walks the cells (g, c) of the leading pairs
  (x_0, x_1) = (g a, g b), gcd(a, b) = 1, c = max(a, |b|): g runs over the
  ``line_denominators`` for weight m1 and c up to a cap C(g), so only pairs
  that carry a point of height <= B are covered.  The pairs over (g, c) are
  the points b/a of height c on the weight-m2 line, and one table of their
  number w(c) serves every g.  The x_2 range splits into a constant-height
  core |x_2| <= g c plus a tail up to X_2; ``count_blowup`` counts those
  points in closed form and the height-zeta sum weights them by H^-s, with
  exact integer height comparisons (the rational exponents cleared).

``iter_points`` is the point-by-point definitional oracle (exact gcd, mode
and height checks on every candidate).  The naive_count_* oracles count what
it yields and ``dump_points`` writes it; the sieved counters must agree with
the oracles exactly, which the test suite checks.

Work is partitioned into contiguous chunks over q (line/plane) or g
(blow-up); merging is integer addition, so results are identical for any
worker count.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import geometry
from .arith import (
    count_coprime,
    distinct_primes,
    integer_kth_root,
    mobius_sieve,
    primes_up_to,
    signed_squarefree_divisors,
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
    "blowup_cells",
    "line_denominators",
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


def charge(budget: Optional[int], amount: int) -> None:
    """Refuse predicted work of ``amount`` steps above the budget (None: no cap)."""
    if budget is not None and amount > budget:
        raise BudgetExceededError(
            f"enumeration would take ~{amount} steps (budget {budget})"
        )


# --------------------------------------------------------------------------
# admissible denominators
# --------------------------------------------------------------------------


def _shaped_denominators(
    limit: int, m: int, s_primes: Sequence[int], mode: str
) -> List[Tuple[int, Tuple[int, ...]]]:
    """(q, primes of q) for the Darmon or Campana q <= limit, ascending in q.

    One depth-first walk over the primes in ascending order: at a prime of
    S any exponent >= 1 enters, at any other prime the exponent is a multiple
    of m (Darmon) or at least m (Campana).  Each support is built prime by
    prime, so it is ascending and equals ``distinct_primes(q)``.  When a
    prime's least entry overshoots, no later prime fits if it is in S;
    otherwise only a later prime of S can, with exponent 1 and possibly
    above limit^(1/m), so the walk skips ahead to it."""
    S = set(s_primes)
    ps = primes_up_to(integer_kth_root(limit, m))
    ps = sorted(set(ps) | {p for p in S if p <= limit})
    next_s = [len(ps)] * (len(ps) + 1)  # index of the first S prime >= ps[j]
    for j in reversed(range(len(ps))):
        next_s[j] = j if ps[j] in S else next_s[j + 1]
    out: List[Tuple[int, Tuple[int, ...]]] = []
    stack = [(0, 1, ())]  # (index of the next prime, q so far, its primes)
    while stack:
        j, val, support = stack.pop()
        out.append((val, support))
        while j < len(ps):
            p = ps[j]
            in_S = p in S
            v = val * (p if in_S else p**m)
            if v > limit:
                if in_S:
                    break
                j = next_s[j + 1]
                continue
            step = p**m if mode == "darmon" and not in_S else p
            support_p = support + (p,)
            while v <= limit:
                stack.append((j + 1, v, support_p))
                v *= step
            j += 1
    out.sort()
    return out


def all_denominators_admissible(m: int, mode: str) -> bool:
    """True when every q >= 1 is an admissible last coordinate of the line
    and plane models: rational mode, or weight 1."""
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
    """Admissible last coordinates q <= Bint of the line and plane models,
    ascending, each with its distinct primes: pairs (q, primes of q).

    When ``all_denominators_admissible`` this is a lazy walk over every q
    that factors each one; otherwise it is the list of Darmon or Campana
    denominators away from S, whose primes come from building them.  The
    budget is charged an upper bound on their number before any of them is
    generated."""
    if all_denominators_admissible(m, mode):
        charge(budget, Bint)
        return ((q, distinct_primes(q)) for q in range(1, Bint + 1))
    charge(budget, _denominator_bound(m, S.finite_primes, Bint, mode))
    return _shaped_denominators(Bint, m, S.finite_primes, mode)


# --------------------------------------------------------------------------
# line and plane counts
# --------------------------------------------------------------------------


def _line_q_count(Bint: int, primes: Tuple[int, ...]) -> int:
    """Numerators p with |p| <= Bint and gcd(p, q) = 1, for the q with these
    distinct primes (p = 0 only for q = 1, the q without primes)."""
    return 2 * count_coprime(Bint, primes) + (0 if primes else 1)


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


def _count_line_all(Bint: int) -> int:
    """All of Q with height max(|p|, q) <= Bint: 1 + 2 sum mu(d) floor(B/d)^2."""
    return 1 + 2 * _mobius_sum(Bint, lambda f: f * f)


def _pn2_pair_count(Bint: int, primes: Tuple[int, ...]) -> int:
    """#{(x0, x1) in [-B, B]^2 : gcd(x0, x1, q) = 1} by inclusion-exclusion,
    for the q with these distinct primes."""
    total = 0
    for d in signed_squarefree_divisors(primes):
        k = 2 * (Bint // abs(d)) + 1
        total += k * k if d > 0 else -(k * k)
    return total


def _count_plane_all(Bint: int) -> int:
    """Rational-mode plane count: sum_d mu(d) floor(B/d) (2 floor(B/d) + 1)^2."""
    return _mobius_sum(Bint, lambda f: f * (2 * f + 1) ** 2)


def _per_q_chunk_worker(
    args: Tuple[Callable, int, Sequence[Tuple[int, Tuple[int, ...]]]]
) -> int:
    per_q, Bint, denominators = args
    return sum(per_q(Bint, primes) for _, primes in denominators)


def _count_by_denominator(
    per_q: Callable[[int, Tuple[int, ...]], int],
    count_all: Callable[[int], int],
    m: int,
    S: PlaceSet,
    B: Union[int, float, Fraction],
    mode: str,
    workers: int,
    budget: Optional[int],
) -> int:
    """Sum per_q(Bint, primes of q) over the admissible q, or count_all(Bint)
    when every q is admissible."""
    _check_mode(mode)
    Bint = _floor_bound(B)
    if Bint < 1:
        return 0
    if all_denominators_admissible(m, mode):
        charge(budget, _mobius_sum_work(Bint))
        return count_all(Bint)
    denominators = line_denominators(m, S, Bint, mode, budget)
    chunks = [(per_q, Bint, c) for c in _chunked(denominators)]
    return sum(_run_chunks(_per_q_chunk_worker, chunks, workers))


def count_p1(
    m: int,
    S: PlaceSet,
    B: Union[int, float, Fraction],
    mode: str,
    workers: int = 1,
    budget: Optional[int] = DEFAULT_BUDGET,
) -> int:
    """Points of the line model with global height <= B in the given mode."""
    return _count_by_denominator(
        _line_q_count, _count_line_all, m, S, B, mode, workers, budget
    )


def count_pn2(
    m: int,
    S: PlaceSet,
    B: Union[int, float, Fraction],
    mode: str,
    workers: int = 1,
    budget: Optional[int] = DEFAULT_BUDGET,
) -> int:
    """Plane model (projective, n = 2): last coordinate plays the role of q."""
    return _count_by_denominator(
        _pn2_pair_count, _count_plane_all, m, S, B, mode, workers, budget
    )


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


def _blowup_exponents(m1: int, m2: int) -> Tuple[int, int]:
    """(E1, E2): a pair (g a, g b) carries a point of height <= B exactly when
    g^E1 max(a, b)^(E1+E2) <= B^(m1 m2)."""
    return (m1 + 1) * m2, m1 * m2 + m1 - m2


def _blowup_strata(
    m1: int,
    m2: int,
    S: PlaceSet,
    Bf: Fraction,
    mode: str,
    budget: Optional[int] = None,
) -> List[Tuple[int, Tuple[int, ...], int]]:
    """(g, primes of g, C(g)) for the admissible gcds g, ascending, with C(g)
    the cap on max(a, b) of the pairs (g a, g b) that carry a point of
    height <= B.

    The budget is charged the admissible g first and then sum C(g) (C(g)+1),
    which bounds the cells and the weight table's gcds, before either."""
    E1, E2 = _blowup_exponents(m1, m2)
    num, den = (Bf ** (m1 * m2)).as_integer_ratio()
    gs = line_denominators(m1, S, _blowup_mmax(Bf, m1), mode, budget)
    strata = [(g, gp, _iroot_ratio(num, den * g**E1, E1 + E2)) for g, gp in gs]
    charge(budget, sum(C * (C + 1) for _, _, C in strata))
    return strata


def blowup_cells(
    m1: int,
    m2: int,
    S: PlaceSet,
    B: Union[int, float, Fraction],
    mode: str,
    strata: Optional[Sequence[Tuple[int, Tuple[int, ...], int]]] = None,
) -> Iterator[Tuple[int, int, int, Tuple[int, ...], int]]:
    """One yield per cell (g, c) of the leading pairs (x0, x1) = (g a, g b),
    gcd(a, b) = 1, c = max(a, |b|), that are admissible and carry a point of
    height <= B, over the strata (g, primes of g, C(g)) of ``_blowup_strata``.

    g is an admissible line denominator for weight m1, a one for weight m2
    (a in A), and c <= C(g).  So b/a is a point of height c on the weight-m2
    line, and the pairs over (g, c) number, for every g, its points of height
    exactly c: w(c) = [c in A] (2 phi(c) + [c = 1]) + 2 #{a in A : a < c,
    gcd(a, c) = 1}.  Yields (w(c), g, M2 = g c, primes of g, X2) for w(c) > 0.
    The points over each pair are the x2 coprime to g with |x2| <= X2, where
    X2 >= M2: those with |x2| <= M2 have height M2^(1+1/m1) c^(1+1/m2-1/m1),
    the others |x2|^(1+1/m1) c^(1+1/m2-1/m1).  Without given strata (the
    height-zeta sum) every admissible g is taken, and ``DEFAULT_BUDGET`` is
    charged the strata, then the x2 tail steps: at most the sum of X2 - g c
    over every g and c <= C(g).
    """
    Bf = Fraction(B)
    own_strata = strata is None
    if own_strata:
        strata = _blowup_strata(m1, m2, S, Bf, mode, DEFAULT_BUDGET)
    if not strata:
        return
    E1, E2 = _blowup_exponents(m1, m2)
    num, den = (Bf ** (m1 * m2)).as_integer_ratio()
    # the cap C(g) falls as g grows, so the first stratum's cap bounds c
    cmax = strata[0][2]
    X2 = [0] + [_iroot_ratio(num, den * c**E2, E1) for c in range(1, cmax + 1)]
    if own_strata:
        upto = list(itertools.accumulate(X2))
        charge(DEFAULT_BUDGET, sum(upto[C] - g * C * (C + 1) // 2 for g, _, C in strata))
    w = np.zeros(cmax + 1, dtype=np.int64)
    for a, ap in line_denominators(m2, S, cmax, mode):
        w[a] += 2 * count_coprime(a, ap) + (a == 1)  # 2 phi(a) + [a = 1]
        w[a + 1 :] += 2 * (np.gcd(a, np.arange(a + 1, cmax + 1)) == 1)
    cells = [(c, weight) for c, weight in enumerate(w.tolist()) if weight]
    for g, gp, C in strata:
        for c, weight in cells:
            if c > C:
                break
            yield weight, g, g * c, gp, X2[c]


def _blowup_chunk_worker(
    args: Tuple[
        int, int, PlaceSet, Fraction, str, Sequence[Tuple[int, Tuple[int, ...], int]]
    ]
) -> int:
    m1, m2, S, Bf, mode, strata = args
    total = 0
    for weight, g, _, gp, X2 in blowup_cells(m1, m2, S, Bf, mode, strata):
        total += weight * (2 * count_coprime(X2, gp) + (1 if g == 1 else 0))
    return total


def count_blowup(
    m1: int,
    m2: int,
    S: PlaceSet,
    B: Union[int, float, Fraction],
    mode: str,
    workers: int = 1,
    budget: Optional[int] = DEFAULT_BUDGET,
) -> int:
    """Blow-up model points with global height <= B in the given mode."""
    _check_mode(mode)
    Bf = Fraction(B)
    if Bf < 1:
        return 0
    strata = _blowup_strata(m1, m2, S, Bf, mode, budget)
    chunks = [(m1, m2, S, Bf, mode, c) for c in _chunked(strata)]
    return sum(_run_chunks(_blowup_chunk_worker, chunks, workers))


# --------------------------------------------------------------------------
# chunking / parallel plumbing
# --------------------------------------------------------------------------

_N_CHUNKS = 32  # fixed, so the partition never depends on the worker count


def _chunked(seq: Sequence) -> Iterable[Sequence]:
    if not seq:
        return []
    size = max(1, (len(seq) + _N_CHUNKS - 1) // _N_CHUNKS)
    return [seq[i : i + size] for i in range(0, len(seq), size)]


def _run_chunks(fn, chunk_args, workers: int) -> List[int]:
    if workers <= 1 or len(chunk_args) <= 1:
        return [fn(a) for a in chunk_args]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, chunk_args))


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
    if model.name == "pn":
        if model.dimension != 2:
            raise DomainError("plane enumeration is implemented for n = 2 only")
        return count_pn2(model.params["m"], S, B, mode, workers, budget)
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
