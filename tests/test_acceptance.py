"""Acceptance suite: the project's exit criteria, one test per criterion.

Each test prints one `ACCEPTANCE k: PASS/FAIL` line (the pyproject enables
pytest -s by default so the lines stay visible).  Criterion 6 is implemented
exactly as stated and currently fails; its assertion message and the README
carry the analysis of why the stated window and tolerance cannot certify
either candidate constant.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from orbicount import cli, constants, enumeration, fitting, geometry, localfactors
from orbicount.arith import primes_up_to
from orbicount.constants import ZETA2
from orbicount.orbifold import (
    PlaceSet,
    a_invariant,
    b_invariant,
    blowup_p2,
    critical_set,
    projective_space,
)

from references import global_height_by_places

S0 = PlaceSet.of()
P1M1, P1M2 = projective_space(1, 1), projective_space(1, 2)


def report(k: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")


# --------------------------------------------------------------------------
# 1. Schanuel consistency on the line, m = 1
# --------------------------------------------------------------------------


def test_criterion_1_schanuel_consistency():
    B = 10**5
    t0 = time.perf_counter()
    n = enumeration.count_points(P1M1, S0, B, "rational")
    elapsed = time.perf_counter() - t0
    ratio = n / B**2
    target = 2 / ZETA2
    rel = abs(ratio / target - 1)
    ok = rel <= 0.02 and elapsed < 5.0
    report(
        1,
        ok,
        f"N(1e5)/B^2 = {ratio:.6f} vs 2/zeta(2) = {target:.6f} "
        f"(rel {rel:.2e}, {elapsed:.2f}s)",
    )
    assert rel <= 0.02
    assert elapsed < 5.0


# --------------------------------------------------------------------------
# 2. Darmon count on the line, m = 2
# --------------------------------------------------------------------------


def test_criterion_2_darmon_m2():
    B = 10**6
    t0 = time.perf_counter()
    n = enumeration.count_points(P1M2, S0, B, "darmon")
    elapsed = time.perf_counter() - t0
    ratio = n / B**1.5
    target = 2 / ZETA2
    rel = abs(ratio / target - 1)
    ok = rel <= 0.05 and elapsed < 30.0
    report(
        2,
        ok,
        f"N(1e6)/B^1.5 = {ratio:.6f} vs 2/zeta(2) = {target:.6f} "
        f"(rel {rel:.2e}, {elapsed:.2f}s)",
    )
    assert rel <= 0.05
    assert elapsed < 30.0


# --------------------------------------------------------------------------
# 3. effect of enlarging S on the fitted coefficient
# --------------------------------------------------------------------------


def test_criterion_3_s_factor_effect():
    B = 10**6
    grid = [10**4, 10**5, 10**6]
    base = [(float(b), enumeration.count_points(P1M2, S0, b, "darmon")) for b in grid]
    with_s = [
        (float(b), enumeration.count_points(P1M2, PlaceSet.of([2]), b, "darmon"))
        for b in grid
    ]
    f_base = fitting.fit_counts(base, Fraction(3, 2), 1, window=(B, B))
    f_s = fitting.fit_counts(with_s, Fraction(3, 2), 1, window=(B, B))
    ratio = f_s.coefficient / f_base.coefficient
    target = (1 - 2**-1.5) / (1 - 2**-0.5 + 2**-1 - 2**-1.5)
    rel = abs(ratio / target - 1)
    ok = rel <= 0.05
    report(
        3,
        ok,
        f"coefficient ratio S={{inf,2}}/S={{inf}} = {ratio:.6f} vs "
        f"{target:.6f} (rel {rel:.2e})",
    )
    assert rel <= 0.05


# --------------------------------------------------------------------------
# 4. Campana count on the line, m = 2
# --------------------------------------------------------------------------


def test_criterion_4_campana_m2():
    B = 10**6
    grid = [10**k for k in range(2, 7)]
    darmon = {b: enumeration.count_points(P1M2, S0, b, "darmon") for b in grid}
    campana = {b: enumeration.count_points(P1M2, S0, b, "campana") for b in grid}
    fit = fitting.fit_counts(
        [(float(b), campana[b]) for b in grid], Fraction(3, 2), 1, window=(B, B)
    )
    target, tail = constants.p1_campana_constant(2, S0)
    rel = abs(fit.coefficient / target - 1)
    dominates = all(campana[b] > darmon[b] for b in grid if b >= 100)
    ok = rel <= 0.05 and dominates
    report(
        4,
        ok,
        f"fitted m-full coefficient at 1e6 = {fit.coefficient:.6f} vs "
        f"{target:.6f} +- {tail:.1e} (rel {rel:.2e}); "
        f"campana > darmon at every grid point >= 100: {dominates}",
    )
    assert dominates
    assert rel <= 0.05


# --------------------------------------------------------------------------
# 5. local-factor oracle agreement across the parameter matrix
# --------------------------------------------------------------------------


def test_criterion_5_local_factor_oracles():
    # CPU time of this process, so other load on the machine does not count
    t0 = time.process_time()
    checks = 0
    worst_bound = 0.0
    worst_diff = 0.0
    for m in (1, 2, 3):
        model = projective_space(1, m)
        a = a_invariant(model)
        for p in (2, 3, 5, 7):
            for s in (a + Fraction(1, 4), a + 1):
                d = localfactors.denef_factor(model, p, s)
                o = localfactors.shell_sum_oracle(model, p, s)
                assert abs(d - o.value) <= o.bound
                assert o.bound <= 1e-10
                worst_bound = max(worst_bound, float(o.bound))
                worst_diff = max(worst_diff, float(abs(d - o.value)))
                checks += 1
    for m1 in (1, 2, 3):
        for m2 in (1, 2, 3):
            model = blowup_p2(m1, m2)
            a = a_invariant(model)
            for p in (2, 3, 5, 7):
                for s in (a + Fraction(1, 4), a + 1):
                    d = localfactors.denef_factor(model, p, s)
                    o = localfactors.shell_sum_oracle(model, p, s)
                    assert abs(d - o.value) <= o.bound
                    assert o.bound <= 1e-10
                    worst_bound = max(worst_bound, float(o.bound))
                    worst_diff = max(worst_diff, float(abs(d - o.value)))
                    checks += 1
    elapsed = time.process_time() - t0
    ok = elapsed < 1.0
    report(
        5,
        ok,
        f"{checks} oracle checks at depth 60: max |closed-oracle| = "
        f"{worst_diff:.2e} <= max bound {worst_bound:.2e} <= 1e-10 "
        f"({elapsed:.2f}s)",
    )
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# 6. blow-up constant adjudication (expected to fail as stated; see notes)
# --------------------------------------------------------------------------


def test_criterion_6_blowup_adjudication():
    t0 = time.perf_counter()
    model = blowup_p2(1, 1)
    grid = [1000, 3162, 10**4, 31623, 10**5]
    pts = [
        (float(b), enumeration.count_blowup(1, 1, S0, b, "darmon")) for b in grid
    ]
    fit = fitting.fit_counts(pts, 1, 2, window=(1e3, 1e5))
    assembled = constants.leading_constant(model, S0).count_coefficient
    published, _tail = constants.blowup_reference_constant(1, 1)
    rel_assembled = abs(fit.coefficient / assembled - 1)
    rel_published = abs(fit.coefficient / published - 1)
    hits = [
        name
        for name, rel in (
            ("assembled", rel_assembled),
            ("published", rel_published),
        )
        if rel <= 0.15
    ]
    # contamination diagnostic: slope of N/B against log B over the top decade
    # kills the linear-in-B subleading term and exposes the true constant
    (b1, n1), (b2, n2) = pts[-3], pts[-1]
    slope = (n2 / b2 - n1 / b1) / math.log(b2 / b1)
    winner = (
        "assembled"
        if abs(slope - assembled) < abs(slope - published)
        else "published"
    )
    elapsed = time.perf_counter() - t0
    ok = len(hits) == 1 and elapsed < 60.0
    report(
        6,
        ok,
        f"single-term fit kappa = {fit.coefficient:.4f} on [1e3,1e5]; "
        f"assembled = {assembled:.4f} (rel {rel_assembled:.1%}), "
        f"published = {published:.4f} (rel {rel_published:.1%}); "
        f"within-15%: {hits or 'neither'}; slope diagnostic = {slope:.4f} "
        f"names winner: {winner} ({elapsed:.1f}s)",
    )
    assert elapsed < 60.0
    assert winner == "assembled"
    assert len(hits) == 1, (
        "criterion unattainable as stated: the fitted single-term coefficient "
        f"{fit.coefficient:.4f} sits outside the 15% band of both candidates "
        f"(assembled {assembled:.4f}, published {published:.4f}) because the "
        f"count's genuine linear term (~2.4 B; slope diagnostic {slope:.4f} "
        "-> assembled) inflates every windowed ratio N/(B log B) by 21-35% "
        "for B <= 1e5, and the endpoint ratio stays above the assembled "
        "band until B ~ 2e7; see the README adjudication note and "
        "scripts/blowup_adjudication.py for the full record"
    )


# --------------------------------------------------------------------------
# 7. exact small counts and sieve == definitional oracle
# --------------------------------------------------------------------------


def _naive_all_modes_p1(m, S, B):
    model = projective_space(1, m)
    Bf = Fraction(B)
    Bint = int(Bf)
    counts = {"rational": 0, "campana": 0, "darmon": 0}
    for q in range(1, Bint + 1):
        for p in range(-Bint, Bint + 1):
            if math.gcd(p, q) != 1:
                continue
            pt = geometry.ProjectivePoint.from_rationals((p, q))
            if not geometry.global_height(pt, model).le(Bf):
                continue
            counts["rational"] += 1
            if geometry.is_campana(pt, model, S):
                counts["campana"] += 1
                if geometry.is_darmon(pt, model, S):
                    counts["darmon"] += 1
    return counts


def _naive_all_modes_blowup(m1, m2, S, B):
    model = blowup_p2(m1, m2)
    Bf = Fraction(B)
    Bm1 = Bf**m1
    mmax = enumeration._iroot_ratio(Bm1.numerator, Bm1.denominator, m1 + 1)
    counts = {"rational": 0, "campana": 0, "darmon": 0}
    for x0 in range(1, mmax + 1):
        for x1 in range(-mmax, mmax + 1):
            for x2 in range(-mmax, mmax + 1):
                if math.gcd(math.gcd(x0, x1), x2) != 1:
                    continue
                pt = geometry.ProjectivePoint((x0, x1, x2))
                if not geometry.global_height(pt, model).le(Bf):
                    continue
                counts["rational"] += 1
                if geometry.is_campana(pt, model, S):
                    counts["campana"] += 1
                    if geometry.is_darmon(pt, model, S):
                        counts["darmon"] += 1
    return counts


def test_criterion_7_exact_small_counts():
    assert enumeration.count_points(P1M1, S0, 10, "rational") == 127
    assert enumeration.count_points(P1M2, S0, 10, "darmon") == 45
    assert enumeration.count_points(P1M2, S0, 10, "campana") == 55
    mismatches = 0
    cases = 0
    for m, S in (
        (1, S0),
        (2, S0),
        (2, PlaceSet.of([2])),
        (3, S0),
        (3, PlaceSet.of([2])),
    ):
        naive = _naive_all_modes_p1(m, S, 200)
        for mode in enumeration.MODES:
            cases += 1
            if enumeration.count_points(projective_space(1, m), S, 200, mode) != naive[mode]:
                mismatches += 1
    for (m1, m2), S in (
        ((1, 1), S0),
        ((2, 3), S0),
        ((2, 3), PlaceSet.of([2])),
    ):
        naive = _naive_all_modes_blowup(m1, m2, S, 80)
        for mode in enumeration.MODES:
            cases += 1
            if enumeration.count_blowup(m1, m2, S, 80, mode) != naive[mode]:
                mismatches += 1
    ok = mismatches == 0
    report(
        7,
        ok,
        f"N(10) = 127/55/45 exact; sieved == definitional oracle in "
        f"{cases} (model, m, S, mode) cases at B <= 200 ({mismatches} mismatches)",
    )
    assert mismatches == 0


# --------------------------------------------------------------------------
# 8. invariant suites
# --------------------------------------------------------------------------


def _random_point(rng, model):
    def rat(maxn=10**4):
        return Fraction(rng.randint(-maxn, maxn), rng.randint(1, maxn))

    if model.name == "blowup":
        return geometry.ProjectivePoint.from_rationals((1, rat(), rat()))
    if model.dimension == 1:
        return geometry.ProjectivePoint.from_affine((rat(),))
    return geometry.ProjectivePoint.from_affine((rat(), rat()))


def test_criterion_8_invariant_suites(tmp_path):
    rng = random.Random(0xACCE9 + 8)
    models = [projective_space(1, 2), projective_space(2, 3), blowup_p2(2, 3)]
    n_points = 10**4
    for i in range(n_points):
        model = models[i % 3]
        pt = _random_point(rng, model)
        gh = geometry.global_height(pt, model)
        finite, arch = global_height_by_places(pt, model)
        prod = arch
        for p in geometry.relevant_primes(pt, model):
            mult = geometry.multiplicities(pt, model, p)
            expected = sum(mult[c.label] * c.lam for c in model.components)
            lh = geometry.local_height(pt, model, p)
            assert lh.exponent == expected  # multiplicity/height identity
            prod *= float(p) ** float(lh.exponent)
        assert gh.value == pytest.approx(prod, rel=1e-12)
        sorted_finite = {p: e for p, e in finite.items() if e}
        recomputed = {}
        for base, exp in gh.finite_factors:
            from orbicount.arith import factorize

            if base > 1:
                for p, e in factorize(base).items():
                    recomputed[p] = recomputed.get(p, Fraction(0)) + e * exp
        assert {p: e for p, e in recomputed.items() if e} == sorted_finite
        if geometry.is_darmon(pt, model, S0):
            assert geometry.is_campana(pt, model, S0)
    # invariants of the built-in models
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            model = projective_space(n, m)
            assert a_invariant(model) == n + Fraction(1, m)
            assert b_invariant(model) == 1
    for m1 in (1, 2, 3):
        for m2 in (1, 2, 3):
            model = blowup_p2(m1, m2)
            assert a_invariant(model) == 1
            assert b_invariant(model) == 2
            assert critical_set(model) == frozenset({"D1", "D2"})
    # normalized local factor decay up to 1e4
    margin = Fraction(1, 100)
    decay_checks = 0
    for model in (projective_space(1, 2), blowup_p2(2, 3)):
        a = a_invariant(model)
        for s in (a + Fraction(1, 4), a + 1):
            delta = min(
                c.m * (s * c.lam - c.rho + 1) for c in model.components
            ) - margin
            cap = 2 * len(model.components)
            for p in primes_up_to(10**4):
                lhs = abs(localfactors.normalized_factor(model, p, s) - 1)
                assert lhs <= cap * float(p) ** float(-1 - delta)
                decay_checks += 1
    # determinism across --workers values, through the CLI
    for argv, row in (
        (("--model", "p1", "--m", "2", "--mode", "darmon", "--grid", "10000"),
         f"10000,,,{enumeration.count_points(P1M2, S0, 10**4, 'darmon')}"),
        (("--model", "blowup", "--mode", "rational", "--grid", "400"),
         f"400,{enumeration.count_blowup(1, 1, S0, 400, 'rational')},,"),
    ):
        for workers in (1, 2, 8):
            path = tmp_path / f"workers{workers}.csv"
            argv_w = ["count", *argv, "--workers", str(workers), "--output", str(path)]
            assert cli.main(argv_w) == 0
            assert path.read_text() == f"{enumeration.CSV_HEADER}\n{row}\n"
    report(
        8,
        True,
        f"height pairing + closed-form identities on {n_points} random points; "
        f"a/b invariants exact; {decay_checks} regularized-decay checks to 1e4; "
        "identical CLI output for --workers 1/2/8",
    )


# --------------------------------------------------------------------------
# 9. regularized Euler product sanity at the critical exponent
# --------------------------------------------------------------------------


def test_criterion_9_regularized_product():
    model = projective_space(1, 2)
    a = a_invariant(model)
    value, bound = constants.euler_product(
        lambda primes: [float(localfactors.normalized_factor(model, p, a)) for p in primes],
        10**6,
        2.0,
        2.0,
    )
    target = 1 / ZETA2
    ok = abs(value - target) <= bound
    report(
        9,
        ok,
        f"prod of normalized line factors at s = a to 1e6 = {value:.9f} vs "
        f"1/zeta(2) = {target:.9f} (|diff| = {abs(value - target):.2e} <= "
        f"bound {bound:.2e})",
    )
    assert ok
