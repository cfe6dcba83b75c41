import io
import math
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicount import arith, cli, enumeration, geometry
from orbicount.arith import factorize, integer_kth_root, mobius_sieve
from orbicount.enumeration import (
    CSV_HEADER,
    DEFAULT_BUDGET,
    MODES,
    blowup_columns,
    count_points,
    count_series,
    dump_points,
    iter_points,
    naive_count_blowup,
    naive_count_p1,
    naive_count_pn2,
    read_counts_csv,
    write_series_csv,
)
from orbicount.errors import BudgetExceededError, DomainError
from orbicount.fitting import zeta_partial_sum
from orbicount.orbifold import PlaceSet, blowup_p2, progression, projective_space

from cell_walk import blowup_cells
from references import (
    count_coprime,
    denominators,
    is_k_full,
    is_kth_power,
    signed_squarefree_divisors,
)

S0 = PlaceSet.of()
S2 = PlaceSet.of([2])
S23 = PlaceSet.of([2, 3])


def count_pn(n, m, S, B, mode, budget=DEFAULT_BUDGET):
    """The count of projective n-space with weight m."""
    return count_points(projective_space(n, m), S, B, mode, budget)


def test_exact_small_counts_line():
    assert count_pn(1, 1, S0, 10, "rational") == 127
    assert count_pn(1, 2, S0, 10, "darmon") == 45
    assert count_pn(1, 2, S0, 10, "campana") == 55


def test_blowup_small_bounds():
    assert count_points(blowup_p2(1, 1), S0, 1, "rational") == 9
    assert count_points(blowup_p2(1, 1), S0, 4, "rational") == 21  # includes (1, 0, +-2), H = 4
    # heights here are integers; just below 4 only the nine H = 1 points remain
    assert count_points(blowup_p2(1, 1), S0, Fraction(399, 100), "rational") == 9


def _qs(m, S, limit, mode):
    return [q for q, _ in denominators(m, S, limit, mode)]


def _definitional_denominators(limit, m, s_primes, mode):
    def stripped(q):
        for p in s_primes:
            while q % p == 0:
                q //= p
        return q

    shape = is_kth_power if mode == "darmon" else is_k_full
    return [q for q in range(1, limit + 1) if shape(stripped(q), m)]


def test_denominator_generators_match_definitions():
    for m in (2, 3):
        for s_primes in ((), (2,), (2, 3)):
            S = PlaceSet.of(s_primes)
            for mode in ("darmon", "campana"):
                want = _definitional_denominators(399, m, s_primes, mode)
                assert _qs(m, S, 399, mode) == want


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 5),
    s_primes=st.sets(st.sampled_from((2, 3, 5, 7))),
    mode=st.sampled_from(("darmon", "campana")),
    limit=st.integers(1, 2 * 10**4),
)
def test_denominators_carry_their_primes_property(m, s_primes, mode, limit):
    pairs = denominators(m, PlaceSet.of(s_primes), limit, mode)
    want = _definitional_denominators(limit, m, s_primes, mode)
    assert [q for q, _ in pairs] == want
    assert all(primes == tuple(factorize(q)) for q, primes in pairs)


@lru_cache(maxsize=None)
def _factorizations(limit):
    return [factorize(q) for q in range(1, limit + 1)]


def _definitional_walk(limit, s_primes, first, step, last):
    """The q <= limit whose exponent at each prime outside S is one of first,
    first + step, ... <= last, by factoring every q."""
    def allowed(p, e):
        return p in s_primes or (first <= e <= last and (e - first) % step == 0)

    return [q for q, factors in enumerate(_factorizations(2 * 10**4)[:limit], 1)
            if all(allowed(p, e) for p, e in factors.items())]


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(2, 5),
    s_primes=st.sets(st.sampled_from((2, 3, 5, 7))),
    family=st.sampled_from(("darmon", "campana", "darmon shapes", "campana shapes")),
    limit=st.integers(1, 2 * 10**4),
)
def test_denominator_walk_matches_its_definition_property(m, s_primes, family, limit):
    # the line denominators (first exponent m) and the shapes s t of the
    # divisor sum (exponents m+1..2m-1 outside S, none in Darmon mode); each
    # row of the prime matrix holds the distinct primes of its q, ascending,
    # then 1s
    first, step, last = {
        "darmon": (m, m, math.inf),
        "campana": (m, 1, math.inf),
        "darmon shapes": (m + 1, 1, m),
        "campana shapes": (m + 1, 1, 2 * m - 1),
    }[family]
    walk = enumeration._denominator_walk(limit, sorted(s_primes), first, step, last)
    q, primes, omega = (a.tolist() for a in walk)
    assert q == _definitional_walk(limit, s_primes, first, step, last)
    for v, row, k in zip(q, primes, omega):
        assert tuple(row[:k]) == tuple(factorize(v))
        assert set(row[k:]) <= {1}


@pytest.mark.parametrize("limit, s_primes, first, step", [
    (10**6, (2, 3), 2, 1),  # int64, Campana squares: many large-prime powers
    (2**64, (2, 3), 20, 20),  # object: 5^20 and 7^20 are the large powers
])
def test_denominator_walk_is_strictly_increasing(limit, s_primes, first, step):
    # each q is walked once and each large power p^e is distinct, so an
    # unstable sort leaves the walk ascending
    q = enumeration._denominator_walk(limit, s_primes, first, step, math.inf)[0]
    assert q.dtype == (np.int64 if limit < 2**63 else object)
    q = q.tolist()
    assert len(q) > 100 and all(a < b for a, b in zip(q, q[1:]))


def test_progression_one_one_matches_the_denominator_walk():
    # the counts take the all-of-Q route exactly when the progression is
    # (1, 1), so that must agree with the denominator source on every (m, mode)
    for m in (1, 2, 3):
        for mode in ("rational", "darmon", "campana"):
            pairs = denominators(m, S0, 200, mode)
            every_q = [q for q, _ in pairs] == list(range(1, 201))
            assert (progression(m, mode) == (1, 1)) == every_q
            assert all(primes == tuple(factorize(q)) for q, primes in pairs)


def test_k_full_numbers_small():
    # the Campana denominators away from S are S-smooth times m-full
    assert _qs(2, S0, 100, "campana") == [1, 4, 8, 9, 16, 25, 27, 32, 36, 49, 64, 72, 81, 100]
    assert [q for q in _qs(3, S2, 50, "campana") if q % 2] == [1, 27]


def test_darmon_and_campana_paths_never_factor(monkeypatch):
    # the denominators come with their primes, so no count or height-zeta sum
    # over Darmon or Campana denominators factors a q again
    def refuse(*args):
        raise AssertionError("factorized a generated denominator")

    # no module keeps a copy of factorize that the patch below would miss
    assert not hasattr(enumeration, "factorize") and not hasattr(geometry, "factorize")
    monkeypatch.setattr(arith, "factorize", refuse)
    assert count_pn(1, 3, S2, 10**12, "campana") == 51669106212344925
    assert count_pn(2, 2, S0, 10**5, "darmon") == 10516750103593
    # the pinned value sums the rows with Hurwitz zeta differences at 30
    # digits (mpmath); the O(B) float64 prefix array was 1.5e-12 off it
    z = zeta_partial_sum(projective_space(1, 2), S0, 2.5, 10**5, "darmon")
    assert z.value == pytest.approx(4.048351949492850, rel=1e-13)
    # while the point oracle, which does factor, meets the patch
    line = projective_space(1, 2)
    with pytest.raises(AssertionError, match="factorized"):
        geometry.is_darmon(geometry.parse_point(line, "1/12"), line, S0)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("s_primes", [(), (2,)])
def test_sieved_equals_naive_line(m, s_primes):
    S = PlaceSet.of(s_primes)
    for B in (1, 7, Fraction(65, 2), 60):
        for mode in ("rational", "campana", "darmon"):
            assert count_pn(1, m, S, B, mode) == naive_count_p1(m, S, B, mode)


@pytest.mark.parametrize("weights", [(1, 1), (2, 1), (1, 2), (2, 3), (3, 2)])
def test_sieved_equals_naive_blowup(weights):
    m1, m2 = weights
    # the oracle walks ~B^(3 m1/(m1+1)) candidates: smaller bounds for larger m1
    bounds = {
        1: (1, 9, Fraction(121, 2), 60),
        2: (1, 9, Fraction(43, 2), 60),
        3: (1, 9, Fraction(43, 2)),
    }[m1]
    for S in (S0, S2, S23):
        for B in bounds:
            for mode in ("rational", "campana", "darmon"):
                assert count_points(blowup_p2(m1, m2), S, B, mode) == naive_count_blowup(
                    m1, m2, S, B, mode
                )


def test_sieved_equals_dump_blowup_midscale():
    # independent mid-scale cross-check: the dump path walks the triple box
    # with exact height comparisons point by point
    buf = io.StringIO()
    n = dump_points(blowup_p2(1, 1), S0, 300, "rational", buf,
                    count_points(blowup_p2(1, 1), S0, 300, "rational"))
    assert n == count_points(blowup_p2(1, 1), S0, 300, "rational")
    assert len(buf.getvalue().strip().splitlines()) == n


def test_sieved_equals_naive_plane():
    for m in (1, 2):
        for mode in ("rational", "campana", "darmon"):
            assert count_pn(2, m, S0, 12, mode) == naive_count_pn2(m, S0, 12, mode)
    assert count_pn(2, 2, S2, 10, "darmon") == naive_count_pn2(2, S2, 10, "darmon")
    # projective 3-space: B = 5 walks 6,655 candidates per mode
    for S, mode in ((S0, "rational"), (S0, "darmon"), (S0, "campana"),
                    (S2, "darmon"), (S2, "campana")):
        for B in (3, 5):
            naive = sum(1 for _ in iter_points(projective_space(3, 2), S, B, mode))
            assert count_pn(3, 2, S, B, mode) == naive


def _line_q_count(Bint, primes):
    """Numerators p with |p| <= Bint and gcd(p, q) = 1, for the q with these
    distinct primes (p = 0 only for q = 1): the per-q line counter that the
    divisor sum over the shapes of q replaced."""
    return 2 * count_coprime(Bint, primes) + (0 if primes else 1)


def _tuple_count(n, Bint, primes):
    """#{x in [-B, B]^n : gcd(x_1, ..., x_n, q) = 1} by inclusion-exclusion,
    for the q with these distinct primes: the per-q counter of projective
    n-space."""
    total = 0
    for d in signed_squarefree_divisors(primes):
        k = (2 * (Bint // abs(d)) + 1) ** n
        total += k if d > 0 else -k
    return total


def _pn2_pair_count(Bint, primes):
    """The per-q plane counter."""
    return _tuple_count(2, Bint, primes)


def _per_q_count(per_q, m, S, B, mode):
    """The count of projective space as the sum of per_q over the admissible
    q of ``denominators``."""
    Bint = math.floor(Fraction(B))
    if Bint < 1:
        return 0
    return sum(per_q(Bint, primes) for _, primes in denominators(m, S, Bint, mode))


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(2, 5),
    s_primes=st.sets(st.sampled_from((2, 3, 5, 7))),
    mode=st.sampled_from(("darmon", "campana")),
    B=st.one_of(
        st.integers(1, 2 * 10**4),
        st.fractions(min_value=Fraction(1, 2), max_value=2 * 10**4, max_denominator=50),
    ),
    n=st.integers(3, 5),
)
def test_divisor_sum_equals_the_per_q_counts_property(m, s_primes, mode, B, n):
    S = PlaceSet.of(s_primes)
    assert count_pn(1, m, S, B, mode) == _per_q_count(_line_q_count, m, S, B, mode)
    Bp = B if B <= 3000 else Fraction(B) / 7  # the plane at B <= 3e3
    assert count_pn(2, m, S, Bp, mode) == _per_q_count(_pn2_pair_count, m, S, Bp, mode)
    per_q = partial(_tuple_count, n)
    assert count_pn(n, m, S, B, mode) == _per_q_count(per_q, m, S, B, mode)


@pytest.mark.parametrize(
    "count, per_q, args",
    [
        # in the ids count_p1 is the line (n = 1) and count_pn2 the plane
        pytest.param(partial(count_pn, 2), _pn2_pair_count, (3, S0, 10**9, "darmon"),
                     id="count_pn2-_pn2_pair_count-args0"),
        pytest.param(partial(count_pn, 2), _pn2_pair_count, (3, S0, 10**9, "campana"),
                     id="count_pn2-_pn2_pair_count-args1"),
        pytest.param(partial(count_pn, 1), _line_q_count, (3, S2, 2 * 10**14, "darmon"),
                     id="count_p1-_line_q_count-args2"),
        pytest.param(partial(count_pn, 3), partial(_tuple_count, 3),
                     (2, S2, 10**6, "campana"), id="pn3-campana-1e6"),
        pytest.param(partial(count_pn, 4), partial(_tuple_count, 4),
                     (3, S23, 10**5, "darmon"), id="pn4-darmon-1e5"),
        pytest.param(partial(count_pn, 1), _line_q_count, (20, S23, 10**20, "darmon"),
                     id="p1m20-darmon-1e20"),
        pytest.param(partial(count_pn, 1, budget=None), _line_q_count,
                     (16, S23, 2**64 + 13, "campana"), id="p1m16-campana-2^64+13"),
        pytest.param(partial(count_pn, 2), _pn2_pair_count, (2, S0, 2 * 10**9, "campana"),
                     id="pn2m2-campana-2e9"),
    ],
)
def test_divisor_sum_is_exact_past_int64(count, per_q, args):
    # single terms T(B // e) c_S(A // e) of these sums exceed 2^63 (the plane's
    # (2B + 1)^2 alone is 4e18 at B = 1e9, and (2B + 1)^n at n = 3 and 4 is
    # 8e18 and 1.6e21 here), so a plain int64 dot goes wrong; in the p1 cases
    # at 1e20 and 2^64 + 13 B itself passes 2^63, so the shapes and X = B // e1
    # are object arrays; in the last, (2B + 1)^2 passes int64 and the weights
    # c_S(A // e2) reach A = 44,721 > 2^15, so the digit sums set the entries
    # with larger weights apart in Python ints
    assert count(*args) == _per_q_count(per_q, *args)


def test_kth_roots_match_integer_kth_root():
    # the shape roots are float roots corrected near an integer: perfect
    # powers and their neighbours, int64 up to 2^63 and object arrays past it
    for m in range(2, 10):
        powers = [a**m for a in range(1, 10**4 + 1)]
        qs = [v + d for v in powers for d in (-1, 0, 1) if v + d >= 1]
        r = integer_kth_root(2**63, m)
        qs += [v**m + d for v in (r, r + 1) for d in (-1, 0, 1)]
        qs += list(range(2**63 - 50, 2**63 + 50)) + [10**20, 2**64 + 13, 10**30 + 1]
        for part in ([q for q in qs if q < 2**63], [q for q in qs if q >= 2**63]):
            dtype = np.int64 if part[-1] < 2**63 else object
            roots = enumeration._kth_roots(np.array(part, dtype=dtype), m)
            assert roots.tolist() == [integer_kth_root(q, m) for q in part], (m, dtype)


def test_kth_roots_past_the_float_range():
    # past 2^1000 the float conversion would overflow (or come close), so
    # those q take integer_kth_root: 10^400 and its neighbours, and perfect
    # powers near 2^1023 and near 2^999 (still the float route) with theirs,
    # for m with every root inside int64
    for m in (23, 24, 37, 200):
        qs = [10**400 + d for d in (-1, 0, 1)]
        for top in (2**1023, 2**999):
            r = integer_kth_root(top, m)
            qs += [v**m + d for v in (r, r + 1) for d in (-1, 0, 1)]
        roots = enumeration._kth_roots(np.array(qs, dtype=object), m)
        assert roots.tolist() == [integer_kth_root(q, m) for q in qs], m


def test_kth_roots_decide_near_integers_in_int64_up_to_2_62(monkeypatch):
    # perfect powers and their neighbours up to 2^62 take c - [c^m > q] with
    # c the rounded root, not integer_kth_root; just past 2^62 they still do
    calls = []

    def counted(q, m):
        calls.append(q)
        return integer_kth_root(q, m)

    monkeypatch.setattr(enumeration, "integer_kth_root", counted)
    for m in range(2, 7):
        top = integer_kth_root(2**62, m)
        bases = list(range(1, 2000)) + list(range(top - 1000, top + 1))
        qs = [a**m + d for a in bases for d in (-1, 0, 1) if 1 <= a**m + d <= 2**62]
        qs += list(range(2**62 - 20, 2**62 + 1))
        roots = enumeration._kth_roots(np.array(qs, dtype=np.int64), m)
        assert roots.tolist() == [integer_kth_root(q, m) for q in qs], m
        assert not calls, m
        past = [(top + 1) ** m + d for d in (-1, 0, 1)] + [2**62 + 1, 2**62 + 2]
        past += [a**m + d for a in range(top + 1, top + 50) for d in (-1, 0, 1)]
        past = [q for q in past if 2**62 < q < 2**63]
        roots = enumeration._kth_roots(np.array(past, dtype=np.int64), m)
        assert roots.tolist() == [integer_kth_root(q, m) for q in past], m
        calls.clear()


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("mode", ["darmon", "campana"])
def test_divisor_sum_where_the_shape_roots_are_exact(m, mode):
    # B = 2^6 3^6 5^6: B // s is an exact square or cube for every S-smooth s
    # whose exponents are B's less multiples of m, so the float roots of many
    # shapes land on integers and take the exact correction
    S235, B = PlaceSet.of([2, 3, 5]), 2**6 * 3**6 * 5**6
    assert count_pn(1, m, S235, B, mode) == _per_q_count(_line_q_count, m, S235, B, mode)


def test_block_ends_change_no_divisor_sum(monkeypatch):
    # blocks of 1, 7 and 64 entries (radical, e2) cut the radicals at many
    # places (with S = {2}, m = 2 and B = 3000 the radical 2 has 16 entries
    # e2 <= A = 38 and ten more shapes, 4, 8, ..., whose weights are cut
    # with it), and chunks of _BLOCK >> k radicals cut those with k primes
    cases = [(n, per_q, m, S, B, mode)
             for n, per_q in ((1, _line_q_count), (2, _pn2_pair_count))
             for m in (2, 3) for S in (S0, S2, S23) for mode in ("darmon", "campana")
             for B in (10, Fraction(121, 2), 300, 3000)]
    expected = [count_pn(n, m, S, B, mode) for n, _, m, S, B, mode in cases]
    assert expected == [_per_q_count(per_q, m, S, B, mode)
                        for _, per_q, m, S, B, mode in cases]
    for block in (1, 7, 64):
        monkeypatch.setattr(enumeration, "_BLOCK", block)
        got = [count_pn(n, m, S, B, mode) for n, _, m, S, B, mode in cases]
        assert got == expected, block


S5 = PlaceSet.of([2, 3, 5, 7, 11])


@pytest.mark.parametrize(
    "count, per_q, args",
    [
        # 2,891 shapes on 211 radicals, up to 260 shapes on one
        pytest.param(partial(count_pn, 1), _line_q_count, (2, S5, 10**6, "campana"),
                     id="count_p1-_line_q_count-args0"),
        pytest.param(partial(count_pn, 2), _pn2_pair_count, (2, S5, 10**6, "darmon"),
                     id="count_pn2-_pn2_pair_count-args1"),
        # 44,703 shapes on 38 radicals, up to 10,808 shapes on one
        pytest.param(partial(count_pn, 1, budget=None), _line_q_count,
                     (9, S5, 10**12, "campana"), id="count2-_line_q_count-args2"),
        # past 2^63 the shapes and radicals are object arrays: 18,824 shapes
        # on 57 radicals
        pytest.param(partial(count_pn, 1, budget=None), _line_q_count,
                     (12, PlaceSet.of([2, 3, 5]), 2**64 + 13, "campana"),
                     id="count3-_line_q_count-args3"),
        # every radical of S = {} and m = 2 has one shape, t = b^3
        pytest.param(partial(count_pn, 1), _line_q_count, (2, S0, 10**6, "campana"),
                     id="count_p1-_line_q_count-args4"),
        pytest.param(partial(count_pn, 2), _pn2_pair_count, (2, S0, 10**6, "campana"),
                     id="count_pn2-_pn2_pair_count-args5"),
    ],
)
def test_divisor_sum_by_radical_equals_the_per_q_counts(count, per_q, args):
    assert count(*args) == _per_q_count(per_q, *args)


def test_divisor_sum_weights_past_2_15_on_the_digit_route(monkeypatch):
    # the plane at S = {2}, m = 2, B = 1e9: one c_S(A // e2) is at most
    # c_S(31,622) = 15,811 < 2^15, but the radical 2 sums it over the 29
    # shapes 2, 4, ..., 2^29, past 2^15, and sum |w| T(B / e2) passes 2^62,
    # so those entries go apart in Python ints beside the 16-bit digits
    seen = []

    def recorded(n, w, f, size):
        seen.append((size >= 2**62, int(np.abs(w).max(initial=0))))
        return box_dot(n, w, f, size)

    box_dot = enumeration._box_dot
    monkeypatch.setattr(enumeration, "_box_dot", recorded)
    args = (2, S2, 10**9, "darmon")
    assert count_pn(2, *args) == _per_q_count(_pn2_pair_count, *args)
    assert any(digits and w > 2**15 for digits, w in seen)


def test_divisor_sum_grids_that_drop_whole_radicals():
    # the radicals of S = {2,3,5,7,11} with their least shape above a bound
    # (2 3 5 7 11 = 2310 above 300, say) take no part in its count
    for n, per_q in ((1, _line_q_count), (2, _pn2_pair_count)):
        model = projective_space(n, 2)
        for mode in ("darmon", "campana"):
            grid = [1, 10, 300, 3000, 10**5]
            records = count_series(model, S5, grid, mode)
            assert [rec.counts[mode] for rec in records] == [
                _per_q_count(per_q, 2, S5, B, mode) for B in grid], mode


def test_divisor_sum_charges_the_budget_before_the_sieve(monkeypatch):
    def no_sieve(n):
        raise AssertionError("sieve built before the budget was charged")

    monkeypatch.setattr(enumeration, "mobius_sieve", no_sieve)
    with pytest.raises(BudgetExceededError):  # the denominator bound, before the walk
        count_pn(1, 2, S23, 10**400, "darmon")
    with pytest.raises(BudgetExceededError):
        count_pn(1, 2, S0, 10**30, "campana")
    # then the (shape, e1) rows plus the sieve length: at m = 3, S = {2,3,5,7}
    # and B = 1e6 the 8,058 denominators fit a budget of 9,000, but the 10,613
    # rows of the S-smooth shapes and the sieve up to A = 100 do not
    S2357 = PlaceSet.of([2, 3, 5, 7])
    assert enumeration._denominator_bound(3, 3, (2, 3, 5, 7), 10**6) == 8058
    with pytest.raises(BudgetExceededError):
        count_pn(1, 3, S2357, 10**6, "darmon", budget=9000)


def _mobius_sum_reference(Bint, term):
    """sum_{d <= Bint} mu(d) term(floor(Bint/d)) in O(Bint) numpy arrays: the
    direct route the Mertens-at-quotients sum replaced."""
    mu = mobius_sieve(Bint).astype(np.int64)
    f = Bint // np.arange(1, Bint + 1, dtype=np.int64)
    return int(np.sum(mu[1:] * term(f)))


def _rational_counts_match_reference(B):
    line = 1 + 2 * _mobius_sum_reference(B, lambda f: f * f)
    plane = _mobius_sum_reference(B, lambda f: f * (2 * f + 1) ** 2)
    counts = (count_pn(1, 1, S0, B, "rational"), count_pn(2, 1, S0, B, "rational"))
    return counts == (line, plane)


def test_rational_counts_match_direct_moebius_sum():
    assert all(_rational_counts_match_reference(B) for B in range(1, 2001))
    # around the switch of the sieve length, which moves with the cube root
    for k in range(1, 61):
        for B in (k**3 - 1, k**3, k**3 + 1):
            assert B < 1 or _rational_counts_match_reference(B), B


@given(B=st.integers(1, 2 * 10**5))
def test_rational_counts_match_direct_moebius_sum_property(B):
    assert _rational_counts_match_reference(B)


@lru_cache(maxsize=1)
def _moebius_table(N):
    mu = mobius_sieve(N)
    return mu, np.cumsum(mu, dtype=np.int32)


def _mertens_reference_matches(N):
    mu, M = _moebius_table(3 * 10**6 + 7)
    L = enumeration._mertens_sieve_limit(N)
    want = [0] + [int(M[N // k]) for k in range(1, N // (L + 1) + 1)]
    return enumeration._mertens_at_quotients(N, L, mu[: L + 1], M[: L + 1]) == want


def test_row_sums_over_any_ranges():
    # every 0 <= lo <= hi <= width, empty ranges and ranges that end the
    # array included
    rng = np.random.default_rng(1)
    for _ in range(2000):
        rows, width = (int(v) for v in rng.integers(1, 6, 2))
        a = rng.integers(-9, 9, (rows, width)).astype(np.int32)
        lo = rng.integers(0, width + 1, rows)
        hi = np.array([rng.integers(low, width + 1) for low in lo])
        want = [int(a[i, lo[i] : hi[i]].sum()) for i in range(rows)]
        assert enumeration._row_sums(a, lo, hi).tolist() == want, (a, lo, hi)


@pytest.mark.parametrize("block", [None, 1, 28, 256])
def test_mertens_at_quotients_in_any_block(block, monkeypatch):
    # rectangles of _BLOCK / 4 entries: 0 sends every row apart, 7 and 64
    # cut runs of rows at many places; the points M(N // k) match the direct
    # O(N) Mertens values for B = 1..2000, around the cubes, where the sieve
    # length moves, and at a few larger N, and the counts over them match
    # the direct Moebius sums around the cubes
    # (test_rational_counts_match_direct_moebius_sum takes every B <= 2000
    # at the default block)
    if block is not None:
        monkeypatch.setattr(enumeration, "_BLOCK", block)
    cubes = [B for k in range(2, 61) for B in (k**3 - 1, k**3, k**3 + 1)]
    for B in list(range(1, 2001)) + cubes + [10**6, 10**6 + 1, 3 * 10**6 + 7]:
        assert _mertens_reference_matches(B), (block, B)
    for B in cubes:
        assert _rational_counts_match_reference(B), (block, B)


def test_rational_line_count_at_1e8():
    # 4 Phi(1e8) - 1, with Phi the summatory totient
    assert count_pn(1, 1, S0, 10**8, "rational") == 12158542065463631


def test_mertens_route_refuses_past_int64_range():
    with pytest.raises(MemoryError):
        count_pn(1, 1, S0, 2**56, "rational", budget=None)


def test_blowup_columns_carry_the_line_height_increments():
    # the pairs of column c are the line's points of height exactly c, so
    # w(c) = N_line(c) - N_line(c - 1), and c is absent where that is 0
    B = 10**6
    for m2 in (1, 2, 3):
        C1 = integer_kth_root(B**m2, 2 * m2 + 1)  # the cap of g = 1 for m1 = 1
        assert C1 >= 100
        for S in (S0, S2, S23):
            for mode in ("rational", "campana", "darmon"):
                core = blowup_columns(1, m2, S, B, mode)
                got = dict(enumerate(core.w.tolist(), 1))
                line = [count_pn(1, m2, S, c, mode) for c in range(C1 + 1)]
                increments = {c: line[c] - line[c - 1] for c in range(1, C1 + 1)}
                assert got == {c: n for c, n in increments.items() if n}, (m2, S, mode)


def _brute_weights(m2, s_primes, cmax, mode):
    """{c: the reduced b/a with max(a, |b|) = c <= cmax and a admissible},
    by one gcd table over every admissible a and every |b| <= cmax."""
    a = np.array(_definitional_denominators(cmax, m2, s_primes, mode))[:, None]
    b = np.arange(-cmax, cmax + 1)
    c = np.maximum(a, np.abs(b))[np.gcd(a, b) == 1]
    counts = np.bincount(c, minlength=cmax + 1)
    return {k: int(n) for k, n in enumerate(counts.tolist()) if n}


@pytest.mark.parametrize("m2", [2, 3, 4])
@pytest.mark.parametrize("mode", ["darmon", "campana"])
def test_blowup_weights_match_their_definition(m2, mode):
    # m1 = 1: cmax = floor(B^(m2/(2 m2 + 1))), from 1 up to about 2,000
    for s_primes in ((), (2,), (2, 3), (3, 5)):
        for target in (1, 2, 37, 2000):
            B = math.ceil(target ** ((2 * m2 + 1) / m2))
            core = blowup_columns(1, m2, PlaceSet.of(s_primes), B, mode)
            cmax = integer_kth_root(B**m2, 2 * m2 + 1)
            assert dict(enumerate(core.w.tolist(), 1)) == _brute_weights(
                m2, s_primes, cmax, mode), (s_primes, cmax)


def test_every_a_blowup_weights_are_int64():
    # 4 phi(c) is widened before it is scaled: the totient table is int32
    w = enumeration._blowup_weights(1, 1, S0, 1000)
    assert w.dtype == np.int64
    assert w[:4].tolist() == [0, 3, 4, 8]


def test_blowup_counts_with_restricted_weights():
    # parent values, before the weights came from the divisor rows
    assert count_points(blowup_p2(1, 2), S23, 10**12, "darmon") == 53244187457819
    assert count_points(blowup_p2(2, 2), S2, 10**11, "campana") == 7682394397571


def test_weight_charge_covers_the_rows_and_the_searchsorted_entries():
    # the weight table builds the divisor rows (a, f) and writes cmax // |f|
    # entries for each distinct |f|; its charge, made before any walk, covers both
    for m2 in (2, 3, 5):
        for s_primes in ((), (2,), (2, 3), (3, 5), (2, 3, 5, 7, 11)):
            S = PlaceSet.of(s_primes)
            for mode in ("darmon", "campana"):
                for cmax in (1, 2, 10, 100, 1000, 10**4, 10**5):
                    fd = progression(m2, mode)
                    _, _, f = enumeration.line_divisor_rows(*fd, S, cmax)
                    written = sum(cmax // e for e in np.unique(np.abs(f)).tolist())
                    work = enumeration._weights_work(*fd, s_primes, cmax)
                    assert work >= len(f) + written, (m2, s_primes, mode, cmax)


def test_blowup_charge_comes_before_the_weight_rows(monkeypatch):
    # (1, 2) Campana at 1e8: the weight table's charge, the sieve to
    # Mmax = 1e4 and (Mmax + 1)(1 + E1/E2) = 50,005 dot entries
    cmax, Mmax = integer_kth_root(10**16, 5), 10**4
    amount = enumeration._weights_work(2, 1, (), cmax) + Mmax + 5 * (Mmax + 1)

    def unreachable(*args):
        raise AssertionError("work started before the budget was charged")

    with monkeypatch.context() as patch:
        for name in ("_denominator_walk", "mobius_sieve", "totient_sieve"):
            patch.setattr(enumeration, name, unreachable)
        with pytest.raises(BudgetExceededError, match=str(amount)):
            count_points(blowup_p2(1, 2), S0, 10**8, "campana", budget=amount - 1)
    model = blowup_p2(1, 2)
    assert count_points(model, S0, 10**8, "campana", budget=amount) == count_points(
        model, S0, 10**8, "campana", budget=None)


def test_blowup_count_at_1e8():
    # the README record; the Moebius dots over c take about 5 ms here
    assert count_points(blowup_p2(1, 1), S0, 10**8, "darmon") == 2063108393


def test_blowup_count_at_1e11():
    # a README record value, about 0.08 s (the cell walk took 6 s)
    assert count_points(blowup_p2(1, 1), S0, 10**11, "darmon") == 2742692922465


def _cell_walk_count(m1, m2, S, B, mode):
    """The blow-up count cell by cell over ``blowup_cells``: w(c) times the
    x2 coprime to g with |x2| <= X2, the x2 = 0 only over g = 1."""
    total = 0
    for weight, g, _, gp, X2 in blowup_cells(m1, m2, S, B, mode):
        total += weight * (2 * count_coprime(X2, gp) + (1 if g == 1 else 0))
    return total


@settings(max_examples=150, deadline=None)
@given(
    weights=st.sampled_from([(1, 1), (2, 1), (1, 2), (3, 2)]),
    s_primes=st.sampled_from([(), (2,), (3,), (2, 3)]),
    mode=st.sampled_from(["rational", "campana", "darmon"]),
    numerator=st.integers(1, 2 * 10**5),
    denominator=st.integers(1, 7),
)
def test_moebius_dots_equal_the_cell_walk_property(
    weights, s_primes, mode, numerator, denominator
):
    m1, m2 = weights
    S = PlaceSet.of(s_primes)
    B = Fraction(numerator, denominator)
    assert count_points(blowup_p2(m1, m2), S, B, mode) == _cell_walk_count(m1, m2, S, B, mode)


@pytest.mark.parametrize("weights", [(1, 1), (1, 2), (2, 1), (2, 3)])
def test_block_ends_change_no_blowup_count(weights, monkeypatch):
    # blocks of 1, 7 and 64 (column, row) entries cut the columns at many
    # places; for (2, 3), B^6 passes int64 from B = 1500 on, so the column
    # roots take the object route, in blocks of _BLOCK columns too.  A grid
    # of 2-4 bounds (below 1 and fractional ones too) sums its bounds'
    # columns in one pass, so there a block spans two bounds' columns, and
    # (2, 3) mixes the int64 and object roots in one grid
    m1, m2 = weights
    cases = [(S, B, mode) for S in (S0, S2, S23) for mode in ("rational", "campana", "darmon")
             for B in (1, 10, Fraction(121, 2), 300, 3000)]
    expected = [count_points(blowup_p2(m1, m2), S, B, mode) for S, B, mode in cases]
    assert expected == [_cell_walk_count(m1, m2, S, B, mode) for S, B, mode in cases]
    alone = {(S.finite_primes, B, mode): n for (S, B, mode), n in zip(cases, expected)}
    grids = [(Fraction(1, 2), 10), (1, Fraction(121, 2), 3000),
             (Fraction(2, 3), 10, 300, 3000), (10, Fraction(121, 2), 300)]
    for block in (1, 7, 64):
        monkeypatch.setattr(enumeration, "_BLOCK", block)
        got = [count_points(blowup_p2(m1, m2), S, B, mode) for S, B, mode in cases]
        assert got == expected, block
        for S in (S0, S2, S23):
            for grid in grids:
                want = [{md: alone.get((S.finite_primes, B, md), 0) for md in MODES}
                        for B in grid]
                records = count_series(blowup_p2(m1, m2), S, grid, "all")
                assert [r.counts for r in records] == want, (block, S, grid)


@pytest.mark.parametrize("m1, m2, grid, roots, passes", [
    (1, 1, [Fraction(1, 2), 10, Fraction(121, 2), 10**4, 10**6], ["int64"], 1),
    (1, 2, [10, 300, 10**4], ["int64"], 1),  # three modes, one row progression
    (2, 1, [Fraction(7, 2), 100, 10**4, 10**5], ["int64"], 3),
    (2, 3, [10, 100, 3000], ["int64", "object"], 3),  # 3000^6 passes int64
])
def test_blowup_grid_roots_and_sums_once_per_grid(m1, m2, grid, roots, passes, monkeypatch):
    # mode "all": every bound's columns come from one int64 root call (the
    # bounds whose B^(m1 m2) passes int64 from one object call per _BLOCK
    # columns), and each distinct row progression makes one entry pass
    # over every bound's columns, not one per bound
    calls = {"_kth_roots": [], "ragged_blocks": []}
    for name, seen in calls.items():
        real = getattr(enumeration, name)

        def recording(*args, real=real, seen=seen):
            seen.append(str(args[0].dtype))
            return real(*args)

        monkeypatch.setattr(enumeration, name, recording)
    records = count_series(blowup_p2(m1, m2), S2, grid, "all")
    assert sorted(calls["_kth_roots"]) == roots
    assert len(calls["ragged_blocks"]) == passes
    for rec, B in zip(records, grid):
        assert rec.counts == {md: count_points(blowup_p2(m1, m2), S2, B, md) for md in MODES}


@pytest.mark.parametrize(
    "m1, m2, B",
    [(1, 2, 10**10), (2, 2, 10**6), (1, 2, Fraction(10**10 + 1, 3)), (2, 3, 3000),
     (1, 1, 2**30), (1, 1, 10**12)],
)
def test_blowup_column_roots_are_exact(m1, m2, B):
    # X2(c) = iroot(B^(m1 m2) / c^E2, E1) from one vectorised root: object
    # quotients where B^(m1 m2) passes 2^63 (the first four), and for (1, 1)
    # at 2^30 and 1e12 quotients B // c that are exact squares
    E1, E2 = (m1 + 1) * m2, m1 * m2 + m1 - m2
    num, den = (Fraction(B) ** (m1 * m2)).as_integer_ratio()
    core = blowup_columns(m1, m2, S0, B, "rational")
    qs = [num // (den * c**E2) for c in range(1, len(core.X2) + 1)]
    assert core.X2.tolist() == [integer_kth_root(q, E1) for q in qs]
    if m1 * m2 == 1:
        assert sum(integer_kth_root(q, 2) ** 2 == q for q in qs) >= 5
    else:
        assert num > 2**63


def test_blowup_zeta_charge_admits_1e10(monkeypatch):
    # the height-zeta sum's one charge at 1e10: the 2,154 weights, the sieve
    # to Mmax = 1e5, the tables Q and P1 of 1e5 + 1 entries each and three
    # passes over at most 3 (1e5 + 1) dot entries; the default budget admits it
    charged = []
    real_charge = enumeration.charge

    def recording(budget, amount):
        charged.append(amount)
        real_charge(budget, amount)

    monkeypatch.setattr(enumeration, "charge", recording)
    z = zeta_partial_sum(blowup_p2(1, 1), S0, 1.5, 10**10)
    assert charged == [2154 + 100000 + 2 * 100001 + 3 * 300003]
    assert z.value == pytest.approx(16.59941961819641, rel=1e-11)


def test_bounds_below_one_give_zero():
    assert count_pn(1, 1, S0, Fraction(1, 2), "rational") == 0
    assert count_points(blowup_p2(1, 1), S0, 0.5, "rational") == 0


def test_workers_change_nothing_and_start_no_pool(capsys):
    # every count runs in one process: a huge --workers starts nothing
    for m1, m2, S, mode in ((1, 1, S0, "darmon"), (2, 1, S2, "campana")):
        argv = ["count", "--model", "blowup", "--m1", str(m1), "--m2", str(m2),
                "--s", ",".join(map(str, S.finite_primes)), "--mode", mode,
                "--grid", "10000"]
        outputs = []
        for workers in ("1", "1000000"):
            assert cli.main(argv + ["--workers", workers]) == 0
            outputs.append(capsys.readouterr().out)
        n = count_points(blowup_p2(m1, m2), S, 10**4, mode)
        row = {"darmon": f"10000,,,{n}", "campana": f"10000,,{n},"}[mode]
        assert outputs[0] == outputs[1] == f"{CSV_HEADER}\n{row}\n"
    assert not any("Pool" in name or "Executor" in name for name in vars(enumeration))


def test_darmon_counts_nonincreasing_in_m():
    counts = [count_pn(1, m, S0, 500, "darmon") for m in (1, 2, 3, 4)]
    assert counts == sorted(counts, reverse=True)


def test_counts_nondecreasing_in_s():
    chains = [PlaceSet.of(), PlaceSet.of([2]), PlaceSet.of([2, 3])]
    for mode in ("darmon", "campana"):
        values = [count_pn(1, 2, S, 1000, mode) for S in chains]
        assert values == sorted(values)
        blow = [count_points(blowup_p2(2, 2), S, 200, mode) for S in chains]
        assert blow == sorted(blow)


def test_line_m3_exponent():
    # exponent 1 + 1/3: the endpoint ratio reproduces the count coefficient
    B = 10**6
    n = count_pn(1, 3, S0, B, "darmon")
    coeff = 2 / (math.pi**2 / 6)
    assert abs(n / B ** (4 / 3) / coeff - 1) < 0.02


def test_blowup_s_factor_trend():
    # the S-correction ratio for (m1, m2) = (2, 1) at p = 2 equals the line
    # m = 2 ratio (the second component's series is unchanged); the count
    # ratio approaches it from below at desk scale
    from orbicount.constants import p1_s_factor

    B = 10**5
    base = count_points(blowup_p2(2, 1), S0, B, "darmon")
    with_s = count_points(blowup_p2(2, 1), S2, B, "darmon")
    target = p1_s_factor(2, 2)
    assert abs(with_s / base / target - 1) < 0.10


def test_count_series_columns_and_invariants():
    model = projective_space(1, 2)
    records = count_series(model, S0, [10, 100], mode="all")
    rec = records[0]
    counts = rec.counts
    assert (counts["rational"], counts["campana"], counts["darmon"]) == (127, 55, 45)
    for r in records:
        assert r.counts["darmon"] <= r.counts["campana"] <= r.counts["rational"]
    for mode in MODES:
        values = [r.counts[mode] for r in records]
        assert values == sorted(values)  # monotone in the bound
    single = count_series(model, S0, [10], mode="darmon")
    assert single[0].counts["darmon"] == 45
    assert "rational" not in single[0].counts


# 1/2 counts 0; 60 and 121/2 floor alike; no shape s t lies in (62, 63]
_GRID = [Fraction(1, 2), 1, 10, 60, Fraction(121, 2), 62, 63]


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize(
    "model",
    [projective_space(1, 1), projective_space(1, 2), projective_space(1, 3),
     projective_space(2, 2), blowup_p2(1, 2)],
    ids=["1-1", "1-2", "1-3", "2-2", "blowup-1-2"],
)
def test_count_series_walks_each_grid_once(model, block, monkeypatch):
    # one walk and one sieve per mode at the top bound (on the blow-up, one
    # core per bound) give every bound the count of its own count_points,
    # in every mode and S, with the chunks and blocks cut at many places
    projective = model.name != "blowup"
    for S in (S0, S2, S23) if projective else ():
        m = model.params["m"]
        shapes = enumeration._denominator_walk(63, S.finite_primes, m + 1, 1, 2 * m - 1)[0]
        assert not ((shapes > 62) & (shapes <= 63)).any()
    if block is not None:
        monkeypatch.setattr(enumeration, "_BLOCK", block)
    for S in (S0, S2, S23):
        records = count_series(model, S, _GRID, mode="all")
        for rec, B in zip(records, _GRID):
            assert rec.counts == {md: count_points(model, S, B, md) for md in MODES}, (S, B)
        assert records[0].counts == dict.fromkeys(MODES, 0)
        assert records[3].counts == records[4].counts or not projective
        for mode in MODES:
            single = count_series(model, S, _GRID, mode=mode)
            assert [r.counts for r in single] == [{mode: r.counts[mode]} for r in records]


def test_count_series_grid_of_large_bounds():
    # the line workload's grids: shapes of 1e6 and 1e7 are prefixes of the
    # walk at 1e8, and 1e12 at m = 3
    grids = [(2, S2, [10**6, 10**7, 10**8]), (2, S23, [10**6, 10**7, 10**8]),
             (3, S2, [10**9, 10**10, 10**12])]
    for m, S, grid in grids:
        for mode in ("campana", "darmon"):
            records = count_series(projective_space(1, m), S, grid, mode=mode)
            assert [r.counts[mode] for r in records] == [count_pn(1, m, S, B, mode)
                                                         for B in grid]


@pytest.mark.parametrize("n", [1, 2])
def test_rational_grid_sieves_once(n, monkeypatch):
    # a rational grid shares one sieve up to L = L(top), so a lower bound N
    # reads K = N // (L + 1) points of the recursion: bounds below L and on
    # both sides of the changes of K from 0 to 1, 1 to 2 and 99 to 100 count
    # as their own count_points, which sieve up to their own L
    top = 10**6
    L = enumeration._mertens_sieve_limit(top)
    grid = [1, 10, L, L + 1, 2 * L + 1, 2 * L + 2, 100 * L + 99, 100 * L + 100, top]
    assert [B // (L + 1) for B in grid[2:-1]] == [0, 1, 1, 2, 99, 100]
    model = projective_space(n, 1)
    want = [count_points(model, S0, B, "rational") for B in grid]
    sieves = []
    monkeypatch.setattr(enumeration, "mobius_sieve",
                        lambda N: sieves.append(N) or mobius_sieve(N))
    records = count_series(model, S0, grid, mode="rational")
    assert [r.counts["rational"] for r in records] == want
    assert sieves == [L]


def test_count_series_charges_every_mode_at_the_top_bound_first(monkeypatch):
    # at B = 1e6 the Moebius sum's work fits a budget that the Campana
    # denominator bound with S = {2,3,5,7,11,13} passes: the grid is refused
    # before any mode sieves or walks, though the rational mode, counted
    # first, would fit, and though the first bound would fit in every mode
    S = PlaceSet.of([2, 3, 5, 7, 11, 13])
    rational = enumeration._mobius_sum_work(10**6)
    assert rational < enumeration._denominator_bound(2, 1, S.finite_primes, 10**6)
    assert enumeration._denominator_bound(2, 1, S.finite_primes, 10**3) < rational

    def unreachable(*args, **kwargs):
        raise AssertionError("sieved or walked before the charge")

    monkeypatch.setattr(enumeration, "_denominator_walk", unreachable)
    monkeypatch.setattr(enumeration, "mobius_sieve", unreachable)
    for n in (1, 2):
        with pytest.raises(BudgetExceededError):
            count_series(projective_space(n, 2), S, [10**3, 10**6], "all", budget=rational)


# 1/2 counts 0, 7/2 is fractional, 60 and 121/2 floor alike
_BLOWUP_GRID = [Fraction(1, 2), 1, Fraction(7, 2), 60, Fraction(121, 2), 200]


@pytest.mark.parametrize("m1, m2", [(1, 1), (1, 2), (2, 1), (2, 3)])
def test_blowup_grid_is_its_per_bound_counts(m1, m2):
    model = blowup_p2(m1, m2)
    for S in (S0, S2, S23):
        want = [{md: count_points(model, S, B, md) for md in MODES} for B in _BLOWUP_GRID]
        assert want[0] == dict.fromkeys(MODES, 0) and want[2] != want[3]
        assert [r.counts for r in count_series(model, S, _BLOWUP_GRID, "all")] == want
        for mode in MODES:
            single = count_series(model, S, _BLOWUP_GRID, mode)
            assert [r.counts for r in single] == [{mode: w[mode]} for w in want], (S, mode)


@lru_cache(maxsize=None)
def _naive_blowup(m1, m2, s_primes, B, mode):
    return naive_count_blowup(m1, m2, PlaceSet.of(s_primes), B, mode)


_BOUND = st.builds(Fraction, st.one_of(st.integers(1, 12), st.integers(1, 240),
                                       st.integers(1, 20000)), st.integers(1, 4))


@settings(max_examples=30, deadline=None)
@given(
    m1=st.integers(1, 3),
    m2=st.integers(1, 3),
    s_primes=st.sets(st.sampled_from([2, 3, 5])).map(sorted).map(tuple),
    mode=st.sampled_from(("all",) + MODES),
    bounds=st.sets(_BOUND, min_size=1, max_size=5).map(sorted),
)
def test_blowup_grid_is_its_per_bound_counts_property(m1, m2, s_primes, mode, bounds):
    # one grid shares its rows and weights between its bounds and modes;
    # each bound, fractional or below 1, counts as alone, and as the
    # point-by-point oracle where that is cheap
    S = PlaceSet.of(s_primes)
    records = count_series(blowup_p2(m1, m2), S, bounds, mode)
    for rec, B in zip(records, bounds):
        for md, n in rec.counts.items():
            assert n == count_points(blowup_p2(m1, m2), S, B, md), (B, md)
            if B <= 60:
                assert n == _naive_blowup(m1, m2, s_primes, B, md), (B, md)


# per blow-up grid in mode "all": the walks of the sparse row progressions,
# then the sieve of the every-g rows, one per distinct row progression (the
# modes' order), then the weight tables, one per distinct column progression
_BLOWUP_BUILDS = {
    (1, 1): ["mobius_sieve", "_blowup_weights"],
    (1, 2): ["mobius_sieve"] + ["_blowup_weights"] * 3,
    (2, 1): ["_denominator_walk", "_denominator_walk", "mobius_sieve", "_blowup_weights"],
}


@pytest.mark.parametrize("model, cores", [
    (projective_space(1, 1), 1), (projective_space(2, 1), 1), (blowup_p2(1, 1), 1),
    (projective_space(1, 2), 3), (blowup_p2(1, 2), 3), (blowup_p2(2, 1), 3),
], ids=["p1", "pn", "blowup", "p1-m2", "blowup-12", "blowup-21"])
def test_weight_one_modes_are_counted_once(model, cores, monkeypatch):
    # modes with the same progressions select the same points: on a weight-1
    # model mode "all" sums the line or plane once per grid, and its three
    # columns are equal; at weight 2 the three modes differ, so it sums three
    # times.  The blow-up builds its rows and weights once per grid, not per
    # bound: the divisor rows that a weight table builds are its own
    calls, inside = [], []
    for name in ("_mobius_sum", "_divisor_sum", "mobius_sieve", "_denominator_walk",
                 "_blowup_weights"):
        real = getattr(enumeration, name)

        def recording(*args, real=real, name=name, **kwargs):
            if not inside:
                calls.append(name)
            inside.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(enumeration, name, recording)
    for grid in ([1000], [10, 100, 1000]):
        calls.clear()
        records = count_series(model, S2, grid, "all")
        if model.name == "blowup":
            assert calls == _BLOWUP_BUILDS[model.params["m1"], model.params["m2"]], grid
        else:
            assert calls == ["_mobius_sum", "_divisor_sum", "_divisor_sum"][:cores]
        for rec in records:
            assert set(rec.counts) == set(MODES)
            assert cores == 3 or len(set(rec.counts.values())) == 1
        for mode in MODES:
            assert [r.counts[mode] for r in records] == [count_points(model, S2, B, mode)
                                                         for B in grid]


@pytest.mark.parametrize("m1, m2, budget, fits", [
    (1, 1, 1000, ()),  # one point set: the top bound alone passes the budget
    (1, 2, 7000, ("rational",)),  # the every-g route
    (2, 1, 5000, ("campana", "darmon")),  # the sparse route
])
def test_refused_blowup_grid_builds_nothing(m1, m2, budget, fits, monkeypatch):
    # every distinct mode is charged at the top bound before any sieve,
    # weight table, divisor row or walk, though the lower bound fits in
    # every mode and the modes in ``fits`` fit at the top bound too
    grid = [10**3, 10**6]
    for mode in MODES:
        count_points(blowup_p2(m1, m2), S0, grid[0], mode, budget)
    for mode in fits:
        count_points(blowup_p2(m1, m2), S0, grid[1], mode, budget)

    def unreachable(*args, **kwargs):
        raise AssertionError("built before the top bound was charged")

    for name in ("mobius_sieve", "totient_sieve", "line_divisor_rows", "_denominator_walk"):
        monkeypatch.setattr(enumeration, name, unreachable)
    with pytest.raises(BudgetExceededError):
        count_series(blowup_p2(m1, m2), S0, grid, "all", budget=budget)


def test_refused_sparse_blowup_grid_counts_no_lower_bound(monkeypatch):
    # (2, 1) Campana: 1e10 passes the coarse top charge (8,619 steps) and is
    # refused only by its divisor rows' exact entries (115,098), which are
    # charged once the strata are walked, before any divisor is expanded and
    # before any bound's pass
    grid, budget = [10**6, 10**10], 10000
    count_points(blowup_p2(2, 1), S0, grid[0], "campana", budget)

    def unreachable(*args, **kwargs):
        raise AssertionError("expanded or counted before the top bound was charged")

    monkeypatch.setattr(enumeration, "ragged_blocks", unreachable)
    monkeypatch.setattr(enumeration, "_signed_divisors", unreachable)
    with pytest.raises(BudgetExceededError, match="115098"):
        count_series(blowup_p2(2, 1), S0, grid, "campana", budget=budget)


def test_sparse_blowup_rows_past_int64_are_refused_after_the_walk(monkeypatch):
    # (3, 1) Darmon, S = {2}, at 1e20: Mmax = 1e15, and the cubes' 2,244,719
    # divisor rows times Mmax pass int64.  That is known once the strata are
    # walked, before the 4.6e6 column roots (object quotients, B^3 > 2^63)
    # and before any divisor is expanded
    def unreachable(*args, **kwargs):
        raise AssertionError("rooted or expanded rows that int64 cannot sum")

    monkeypatch.setattr(enumeration, "_column_roots", unreachable)
    monkeypatch.setattr(enumeration, "_signed_divisors", unreachable)
    with pytest.raises(MemoryError, match="2244719 divisor rows exceed any memory"):
        count_series(blowup_p2(3, 1), S2, [10**19, 10**20], "darmon")


def test_count_series_validates_grid():
    model = projective_space(1, 1)
    with pytest.raises(DomainError):
        count_series(model, S0, [])
    with pytest.raises(DomainError):
        count_series(model, S0, [100, 10])
    with pytest.raises(DomainError):
        count_series(model, S0, [10, 10])


def test_count_points_dispatch():
    assert count_points(projective_space(1, 2), S0, 10, "darmon") == 45
    assert count_points(projective_space(2, 2), S0, 12, "darmon") == naive_count_pn2(
        2, S0, 12, "darmon")
    # every n: these n = 3 counts are iter_points' (4.9 s together, so pinned
    # rather than re-run), then the per-q sum past int64, where the degree-2
    # digit fallback of _box_dot would drop the cubic term
    assert count_pn(3, 1, S0, 6, "rational") == 11903
    assert count_pn(3, 2, S0, 8, "darmon") == 9097
    assert count_pn(3, 2, S2, 8, "campana") == 17465
    assert count_pn(3, 2, S2, 10**6, "campana") == 18388671055497685183039
    with pytest.raises(DomainError):
        count_points(projective_space(1, 1), S0, 10, "weird")


def test_csv_roundtrip():
    model = projective_space(1, 2)
    records = count_series(model, S0, [10, 100], mode="all")
    buf = io.StringIO()
    write_series_csv(records, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == CSV_HEADER
    assert text.splitlines()[1] == "10,127,55,45"
    rows = read_counts_csv(io.StringIO(text))
    assert rows[0] == {
        "bound": 10.0,
        "n_rational": 127,
        "n_campana": 55,
        "n_darmon": 45,
    }
    with pytest.raises(DomainError):
        read_counts_csv(io.StringIO("nope\n1,2,3,4\n"))


def test_budget_cap(monkeypatch):
    with pytest.raises(BudgetExceededError):
        count_pn(1, 1, S0, 10**6, "rational", budget=10)
    with pytest.raises(BudgetExceededError):
        count_points(blowup_p2(1, 1), S0, 10**4, "rational", budget=10)

    # the predicted work is charged before the sieve or any list is built
    def no_sieve(n):
        raise AssertionError("sieve built before the budget was charged")

    monkeypatch.setattr(enumeration, "mobius_sieve", no_sieve)
    monkeypatch.setattr(enumeration, "primes_up_to", no_sieve)
    with pytest.raises(BudgetExceededError):
        count_pn(1, 1, S0, 10**400, "rational")
    with pytest.raises(BudgetExceededError):
        count_pn(1, 2, S23, 10**400, "darmon")
    with pytest.raises(BudgetExceededError):
        count_pn(1, 2, S0, 10**30, "campana")
    with pytest.raises(BudgetExceededError):
        count_points(blowup_p2(1, 1), S0, 10**400, "darmon")


def test_blowup_budget_charges_the_sieve_and_the_dots(monkeypatch):
    # (1, 1) at 1e6: the sieve to Mmax = 1000, at most (Mmax + 1)(1 + E1/E2)
    # = 3003 dot entries over c, and the 100-entry totient table: 4103 steps,
    # charged before the sieve
    def no_sieve(n):
        raise AssertionError("sieve built before the budget was charged")

    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "mobius_sieve", no_sieve)
        patch.setattr(enumeration, "totient_sieve", no_sieve)
        with pytest.raises(BudgetExceededError, match="4103"):
            count_points(blowup_p2(1, 1), S0, 10**6, "darmon", budget=4102)
    assert count_points(blowup_p2(1, 1), S0, 10**6, "darmon", budget=4103) == 16165737


def test_denominator_bound_covers_the_denominators():
    for m in (2, 3, 4, 16):
        for s_primes in ((), (2,), (2, 3), (3, 5, 7), (2, 3, 5, 7, 11)):
            for mode in ("darmon", "campana"):
                for limit in (1, 10, 1000, 10**5):
                    fd = progression(m, mode)
                    bound = enumeration._denominator_bound(*fd, s_primes, limit)
                    assert len(_qs(m, PlaceSet.of(s_primes), limit, mode)) <= bound



def test_large_weights_run_under_the_default_budget():
    # the uncut zeta factors of the denominator bound grow like 4^m (Campana)
    # and m / ln p (each S prime); cut at the terms that fit under the limit,
    # the bound stays near the true number of denominators
    S5 = PlaceSet.of([2, 3, 5, 7, 11])
    assert count_pn(1, 17, S0, 10, "campana") == 21
    assert count_pn(1, 16, S0, 10**8, "campana") == 1433333335
    assert count_pn(1, 400, S5, 10**6, "darmon") == 1667949239
    assert count_points(blowup_p2(17, 1), S0, 10, "campana") == 71
    assert enumeration._denominator_bound(17, 1, (), 10) == 2
    assert enumeration._denominator_bound(400, 400, (2, 3, 5, 7, 11), 10**6) == 224640

def test_dump_points_matches_count_and_cap(monkeypatch):
    model = projective_space(1, 2)
    buf = io.StringIO()
    n = dump_points(model, S0, 10, "darmon", buf, count_points(model, S0, 10, "darmon"))
    lines = buf.getvalue().strip().splitlines()
    assert n == 45 and len(lines) == 45
    assert "0/1" in lines
    # 1,216,767 points pass the 1e6 cap: refused before the oracle runs
    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "iter_points", None)
        with pytest.raises(BudgetExceededError, match="1216767 points exceed the dump cap"):
            dump_points(projective_space(1, 1), S0, 1000, "rational", io.StringIO(),
                        count_points(projective_space(1, 1), S0, 1000, "rational"))
    blbuf = io.StringIO()
    nb = dump_points(blowup_p2(1, 1), S0, 1, "rational", blbuf,
                     count_points(blowup_p2(1, 1), S0, 1, "rational"))
    assert nb == 9 and len(blbuf.getvalue().strip().splitlines()) == 9
    pnbuf = io.StringIO()
    np_ = dump_points(projective_space(2, 2), S0, 5, "darmon", pnbuf,
                      count_pn(2, 2, S0, 5, "darmon"))
    assert np_ == count_pn(2, 2, S0, 5, "darmon")
    assert len(pnbuf.getvalue().strip().splitlines()) == np_
