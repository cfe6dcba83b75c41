import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicount import enumeration, fitting
from orbicount.arith import factorize
from orbicount.constants import ZETA2
from orbicount.enumeration import (
    MODES,
    count_blowup,
    count_points,
    iter_points,
)
from orbicount.errors import BudgetExceededError, DomainError
from orbicount.fitting import (
    fit_counts,
    residue_probe,
    zeta_partial_sum,
)
from orbicount.orbifold import PlaceSet, blowup_p2, projective_space

from cell_walk import blowup_cells
from references import count_coprime

S0 = PlaceSet.of()
P1 = projective_space(1, 1)


def test_partial_sum_height_one_points():
    z = zeta_partial_sum(P1, S0, 3.0, 1)
    assert z.value == 3.0  # 0, 1, -1 all have height 1


def test_partial_sum_monotone_in_bound():
    z10 = zeta_partial_sum(P1, S0, 3.0, 10)
    z100 = zeta_partial_sum(P1, S0, 3.0, 100)
    assert 0 < z10.value <= z100.value


def test_partial_sum_blowup_small():
    z = zeta_partial_sum(blowup_p2(1, 1), S0, 3.0, 1)
    assert z.value == 9.0
    z4 = zeta_partial_sum(blowup_p2(1, 1), S0, 2.0, 4)
    # 9 points at H=1 plus 12 at H=4
    assert z4.value == pytest.approx(9 + 12 / 16.0, rel=1e-12)


@pytest.mark.parametrize("weights", [(1, 1), (2, 1), (1, 2)])
def test_partial_sum_blowup_matches_oracle(weights):
    import orbicount.geometry as g

    model = blowup_p2(*weights)
    B, s = 30, 2.5
    for S in (S0, PlaceSet.of([2])):
        for mode in MODES:
            brute = math.fsum(
                g.global_height(pt, model).value ** -s
                for pt in iter_points(model, S, B, mode)
            )
            z = zeta_partial_sum(model, S, s, B, mode)
            assert z.value == pytest.approx(brute, rel=1e-12)


@lru_cache(maxsize=1)
def _totients(B):
    """phi(0..B) from a pure-Python totient sieve."""
    phi = list(range(B + 1))
    for p in range(2, B + 1):
        if phi[p] == p:
            for k in range(p, B + 1, p):
                phi[k] -= phi[k] // p
    return phi


def _totient_line_sum(B, s):
    """4 sum_{n <= B} phi(n) n^-s - 1, the all-of-Q line sum, as one fsum."""
    phi = _totients(B)
    return 4 * math.fsum(phi[n] * float(n) ** -s for n in range(1, B + 1)) - 1


@settings(max_examples=60, deadline=None)
@given(
    B=st.integers(1, 5000),
    s=st.floats(-3, 12),
    case=st.sampled_from(
        [(1, mode) for mode in MODES] + [(2, "rational"), (3, "rational")]
    ),
    S=st.sampled_from([S0, PlaceSet.of([2])]),
)
def test_all_admissible_line_sum_is_the_totient_sum(B, s, case, S):
    m, mode = case
    z = zeta_partial_sum(projective_space(1, m), S, s, B, mode)
    assert z.value == pytest.approx(_totient_line_sum(B, s), rel=1e-12)


@pytest.mark.parametrize("s", [-1.0, 0.0, 0.5, 1.0, 2.1, 2.5])
def test_all_of_q_line_sum_is_the_exact_fsum_at_2e5(s):
    # each term phi(n) n^-s is within an ulp and the blocks join by fsum, so
    # the sum stays within 1e-14 of the exact terms' fsum
    B = 2 * 10**5
    z = zeta_partial_sum(P1, S0, s, B, "rational")
    assert z.value == pytest.approx(_totient_line_sum(B, s), rel=1e-14)


def _line_sum_by_points(m, S, s, B, mode):
    """The Darmon or Campana line sum as an fsum over the points p/q: each q
    is tested by factoring it, and each height n >= q by a gcd."""
    terms = []
    for q in range(1, B + 1):
        exponents = [e for p, e in factorize(q).items() if p not in S.finite_primes]
        if any(e % m if mode == "darmon" else e < m for e in exponents):
            continue
        at_q = sum(1 for p in range(-q, q + 1) if math.gcd(p, q) == 1)
        terms.append(at_q * float(q) ** -s)
        n = np.arange(q + 1, B + 1)
        terms += (2.0 * n[np.gcd(n, q) == 1].astype(np.float64) ** -s).tolist()
    return math.fsum(terms)


@settings(max_examples=40, deadline=None)
@given(
    B=st.integers(1, 3000),
    s=st.one_of(st.floats(-3, 12), st.sampled_from([1.0, 1 + 1e-12, 1 - 1e-12])),
    m=st.sampled_from([2, 3]),
    mode=st.sampled_from(["darmon", "campana"]),
    S=st.sampled_from([S0, PlaceSet.of([2])]),
)
def test_darmon_campana_line_sum_is_the_point_sum(B, s, m, mode, S):
    z = zeta_partial_sum(projective_space(1, m), S, s, B, mode)
    assert z.value == pytest.approx(_line_sum_by_points(m, S, s, B, mode), rel=1e-12)


@pytest.mark.parametrize(
    "m, S, B, mode",
    [
        (4, (), 2**63 - 1, "darmon"),  # 2 phi(q) passes int64 for q > 2^62
        (2, (2, 3), 10**8, "campana"),
        (10, (2,), 10**30, "darmon"),  # past int64: object rows
        (2, (1000003,), 10**9, "darmon"),  # d up to 3e7 over 2.2e5 rows: np.unique
    ],
)
def test_line_zeta_at_zero_is_the_count(m, S, B, mode):
    # at s = 0 every point weighs 1, so the sum is the exact count
    S = PlaceSet.of(S)
    model = projective_space(1, m)
    z = zeta_partial_sum(model, S, 0.0, B, mode)
    assert z.value == pytest.approx(count_points(model, S, B, mode), rel=1e-12)


@pytest.mark.parametrize("S", [(), (2, 3), (1000003,)])
@pytest.mark.parametrize("mode", ["darmon", "campana"])
@pytest.mark.parametrize("weights", [(2, 1), (2, 3), (3, 2)])
def test_blowup_zeta_at_zero_is_the_count(weights, mode, S):
    # at s = 0 every point weighs 1, so the sum is the exact count; at 1e11
    # Mmax is 2.2e7 (m1 = 2) or 1.8e8 (m1 = 3), and no table of that length
    # is built; with S = {1000003} the d pass the number of rows, and the
    # distinct d are numbered by np.unique instead of a table indexed by d
    S = PlaceSet.of(S)
    for B in (Fraction(2001, 2), 10**7, 10**11):
        z = zeta_partial_sum(blowup_p2(*weights), S, 0.0, B, mode)
        assert z.value == pytest.approx(count_blowup(*weights, S, B, mode), rel=1e-12)


def test_sparse_zeta_sums_build_no_table(monkeypatch):
    # the Darmon and Campana sums read n^-s at each entry's two ends only:
    # no n^-s array, no totient table and no Moebius sieve of length Mmax or B
    def unreachable(*args, **kwargs):
        raise AssertionError("built an array of length Mmax or B")

    for name in ("_power_suffix", "_power_prefix", "totient_sieve"):
        monkeypatch.setattr(fitting, name, unreachable)
    monkeypatch.setattr(enumeration, "mobius_sieve", unreachable)
    for weights, S, mode in [
        ((2, 1), S0, "darmon"),
        ((3, 2), S0, "campana"),
        ((2, 3), PlaceSet.of([2]), "darmon"),
    ]:
        assert zeta_partial_sum(blowup_p2(*weights), S, 1.5, 10**9, mode).value > 0
    for mode in ("darmon", "campana"):
        assert zeta_partial_sum(projective_space(1, 2), S0, 2.5, 10**9, mode).value > 0


@pytest.mark.parametrize(
    "m, S, s, B, mode, pinned",
    [
        # a float64 prefix array of n^-s over all n <= B drifted by 5.2e-8
        # here, and a long-double one is within 1e-14 of the pinned value
        (3, (2, 3), 2.5, 10**7, "campana", 5.229622601971644),
        # past int64 the rows are object arrays
        (10, (2,), 2.5, 10**30, "darmon", 4.564236000449878),
        (10, (2,), 1.0, 10**30, "darmon", 70930.75762526017),
    ],
)
def test_line_zeta_pinned(m, S, s, B, mode, pinned):
    # each pinned value sums the same rows with Hurwitz zeta differences (or
    # harmonic numbers at s = 1) at 30 digits in mpmath
    z = zeta_partial_sum(projective_space(1, m), PlaceSet.of(S), s, B, mode)
    assert z.value == pytest.approx(pinned, rel=1e-12)


def _zeta_blowup_by_tail_walk(model, S, s, B, mode):
    """The blow-up sum with each cell's x2 tail walked one t at a time."""
    m1, m2 = model.params["m1"], model.params["m2"]
    e1 = 1 + 1.0 / m1
    e2 = 1 + 1.0 / m2 - 1.0 / m1
    terms = []
    for weight, g, M2, gp, X2 in blowup_cells(m1, m2, S, B, mode):
        base = float(M2 // g) ** e2
        core = 2 * count_coprime(M2, gp) + (1 if g == 1 else 0)
        terms.append(weight * core * (float(M2) ** e1 * base) ** -s)
        for t in range(M2 + 1, X2 + 1):
            if math.gcd(t, g) != 1:
                continue
            terms.append(weight * 2 * (float(t) ** e1 * base) ** -s)
    return math.fsum(terms)


@pytest.mark.parametrize(
    "weights, S, modes",
    [
        ((1, 1), S0, ["darmon"]),
        ((2, 1), S0, ["campana"]),
        ((1, 2), PlaceSet.of([2, 3]), MODES),
        ((2, 1), PlaceSet.of([2]), ["darmon"]),
        ((2, 1), S0, ["rational"]),
    ],
)
@pytest.mark.parametrize("B", [30, Fraction(2001, 2), 10**5])
def test_blowup_tail_sums_match_the_tail_walk(weights, S, modes, B):
    model = blowup_p2(*weights)
    for mode in modes:
        for s in (1.1, 1.5, 2.5):
            walk = _zeta_blowup_by_tail_walk(model, S, s, B, mode)
            z = zeta_partial_sum(model, S, s, B, mode)
            assert z.value == pytest.approx(walk, rel=1e-12)


def test_blowup_zeta_at_1e11():
    # float64 prefix differences P(X2) - P(g c) drifted by 4.2e-7 here; the
    # pinned value is the per-c sum in long double, and a long-double cell
    # walk is within 5e-13 of it
    z = zeta_partial_sum(blowup_p2(1, 1), S0, 1.5, 10**11)
    assert z.value == pytest.approx(16.59978973356115, rel=1e-11)


def test_zeta_budget_is_charged_before_any_work(monkeypatch):
    # the all-of-Q line sum would build a 1e9-entry totient table, the Darmon
    # line sum at 1e14 charges 2.6e9 divisor rows (1e7 denominators, 2^8
    # rows each at most), and the blow-up sum charges 1.2e9 at 1e16
    # (Mmax = 1e8: the sieve, the tables Q and P1 and three passes over 3e8
    # dot entries): all are refused before any of it
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the budget was charged")

    monkeypatch.setattr(fitting.np, "arange", unreachable)
    monkeypatch.setattr(enumeration, "_denominator_walk", unreachable)
    with pytest.raises(BudgetExceededError):
        zeta_partial_sum(P1, S0, 2.5, 10**9)
    with pytest.raises(BudgetExceededError):
        zeta_partial_sum(projective_space(1, 2), S0, 2.5, 10**14)
    with pytest.raises(BudgetExceededError):
        zeta_partial_sum(blowup_p2(1, 1), S0, 1.5, 10**16)


def test_partial_sum_matches_bruteforce_line():
    import orbicount.geometry as g

    B, s, m = 40, 2.5, 2
    model = projective_space(1, m)
    brute = 0.0
    for q in range(1, B + 1):
        for p in range(-B, B + 1):
            if math.gcd(p, q) != 1:
                continue
            pt = g.ProjectivePoint.from_rationals((p, q))
            if g.is_darmon(pt, model, S0):
                brute += float(max(abs(p), q)) ** -s
    z = zeta_partial_sum(model, S0, s, B, "darmon")
    assert z.value == pytest.approx(brute, rel=1e-12)


def test_abel_summation_identity():
    B, s = 50, 3.0
    counts = {t: count_points(P1, S0, t, "rational") for t in range(1, B + 1)}
    abel = sum(counts[t] * (t**-s - (t + 1) ** -s) for t in range(1, B))
    abel += counts[B] * B**-s
    z = zeta_partial_sum(P1, S0, s, B)
    assert z.value == pytest.approx(abel, rel=1e-12)


def test_residue_probe_trends_toward_constant():
    c = 2 * 2 / ZETA2  # residue: a times the count coefficient
    probe = residue_probe(P1, S0, [2.5, 2.2], 10**5, "darmon")
    errs = [abs(v - c) for _, v in probe]
    assert errs[1] < errs[0]
    assert errs[1] / c < 0.1
    assert all(v > 0 for _, v in probe)


def test_residue_probe_empty_set():
    probe = residue_probe(P1, S0, [2.5], Fraction(1, 2), "darmon")
    assert probe == [(2.5, 0.0)]


def test_fit_recovers_its_own_model():
    pts = [(10.0**k, round(1.2159 * (10.0**k) ** 2)) for k in range(2, 6)]
    fit = fit_counts(pts, 2, 1)
    assert fit.coefficient == pytest.approx(1.2159, abs=1e-3)
    assert fit.residual < 1e-6
    assert fit.c_hat == pytest.approx(2 * fit.coefficient, rel=1e-12)


def test_fit_b2_synthetic():
    pts = [(10.0**k, (10.0**k) * math.log(10.0**k)) for k in range(2, 6)]
    fit = fit_counts(pts, 1, 2)
    assert fit.coefficient == pytest.approx(1.0, rel=1e-6)
    assert fit.residual < 1e-9


def test_zeta_refuses_an_unknown_mode():
    # the Darmon or Campana line sum once took every mode but "darmon" as Campana
    for model in (projective_space(1, 2), blowup_p2(2, 1)):
        with pytest.raises(DomainError, match="unknown mode"):
            zeta_partial_sum(model, S0, 2.5, 1000, "weird")


def test_fit_window_handling():
    pts = [(10.0, 100), (100.0, 10000)]
    with pytest.raises(DomainError):
        fit_counts(pts, 2, 1, window=(1000.0, 2000.0))
    with pytest.raises(DomainError):
        fit_counts([], 2, 1)
    fit = fit_counts(pts, 2, 1)  # default window = top two decades
    assert fit.n_points == 2


def test_fit_grid_refinement_stability():
    coarse = [(10.0**k, round(0.7 * (10.0**k) ** 1.5)) for k in (3, 4, 5)]
    fine = [
        (10.0 ** (k / 2), round(0.7 * (10.0 ** (k / 2)) ** 1.5))
        for k in range(6, 11)
    ]
    f1 = fit_counts(coarse, 1.5, 1, window=(1e3, 1e5))
    f2 = fit_counts(fine, 1.5, 1, window=(1e3, 1e5))
    assert abs(f1.coefficient - f2.coefficient) <= max(f1.residual, 1e-6) * 0.7 + 1e-6


def test_fit_real_counts_window_recovers_schanuel():
    pts = [
        (float(b), count_points(P1, S0, b, "rational"))
        for b in (10**3, 10**4, 10**5)
    ]
    fit = fit_counts(pts, 2, 1, window=(1e3, 1e5))
    assert abs(fit.coefficient / (2 / ZETA2) - 1) < 0.02
