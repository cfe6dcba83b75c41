import contextlib
import io
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicount.arith import int_valuation, primitive_coords, valuation
from orbicount.cli import main
from orbicount.errors import BoundaryPointError, PointParseError
from orbicount.geometry import (
    ARCH,
    ProjectivePoint,
    global_height,
    is_campana,
    is_darmon,
    local_height,
    multiplicities,
    multiplicities_blowup,
    multiplicities_pn,
    parse_point,
    relevant_primes,
    semi_integral,
)
from orbicount.orbifold import MODES, PlaceSet, blowup_p2, projective_space

from references import global_height_by_places, is_k_full, is_kth_power

S0 = PlaceSet.of()


def random_rational(rng, max_num=10**4):
    num = rng.randint(-max_num, max_num)
    den = rng.randint(1, max_num)
    return Fraction(num, den)


# --------------------------------------------------------------------------
# multiplicities
# --------------------------------------------------------------------------


def test_multiplicities_pn_examples():
    assert multiplicities_pn(ProjectivePoint((4, 9)), 3) == {"D": 2}
    assert multiplicities_pn(ProjectivePoint((4, 9)), 2) == {"D": 0}
    for p in (2, 3, 5):
        assert multiplicities_pn(ProjectivePoint((1, 0, 1)), p) == {"D": 0}


def _scaling_invariant_contact(coords, p):
    """max(0, v_p(x_n/x_i) over the nonzero x_i, i < n): the contact order
    read from any scaling of the coordinates."""
    vn = int_valuation(coords[-1], p)
    return max([0] + [vn - int_valuation(x, p) for x in coords[:-1] if x])


@settings(max_examples=200)
@given(
    # zeros half the time: a zero x_i drops out of the max
    xs=st.lists(st.just(0) | st.integers(-50, 50), min_size=1, max_size=3),
    unit=st.integers(1, 50),
    k=st.integers(0, 6),
    p=st.sampled_from((2, 3, 5, 7)),
)
def test_multiplicities_pn_is_the_scaling_invariant_max(xs, unit, k, p):
    # n = 1 to 3, x_n carrying at least p^k before the point is made primitive
    point = ProjectivePoint.from_rationals((*xs, unit * p**k))
    assert multiplicities_pn(point, p) == {"D": _scaling_invariant_contact(point.coords, p)}


@pytest.mark.parametrize("p", [1, 0, -3, 4])
def test_non_prime_places_are_refused(p):
    # int_valuation does not check its prime, and at p = 1 it never returns
    for model, pt in ((projective_space(1, 2), ProjectivePoint((4, 9))),
                      (blowup_p2(1, 2), ProjectivePoint((4, 1, 12)))):
        with pytest.raises(ValueError, match="requires a prime"):
            multiplicities(pt, model, p)
        with pytest.raises(ValueError, match="requires a prime"):
            local_height(pt, model, p)


def test_multiplicities_pn_boundary_error():
    with pytest.raises(BoundaryPointError):
        multiplicities_pn(ProjectivePoint((1, 0)), 2)


def test_multiplicities_blowup_examples():
    pt = ProjectivePoint.from_rationals((1, Fraction(1, 4), Fraction(3, 2)))
    assert pt.coords == (4, 1, 6)
    assert multiplicities_blowup(pt, 2) == {"D1": 0, "D2": 2}
    assert multiplicities_blowup(ProjectivePoint((1, 4, 1)), 2) == {"D1": 0, "D2": 0}
    assert multiplicities_blowup(ProjectivePoint((9, 2, 5)), 3) == {"D1": 0, "D2": 2}


def multiplicities_blowup_transposed(point, p):
    """Transposed D2 variant max(0, v(x_1) - v(x_0)); diagnostic only.

    This reading breaks the identity local_height = p^(sum lam_a n_a); it is
    kept so the inconsistency can be demonstrated, not used for counting.
    """
    x0, x1, _ = point.coords
    v0 = int_valuation(x0, p)
    if x1 == 0:
        return {"D1": v0, "D2": 0}
    v1 = int_valuation(x1, p)
    return {"D1": min(v0, v1), "D2": max(0, v1 - v0)}


def test_blowup_transposed_variant_breaks_height_pairing():
    """The u-inverted reading of the second multiplicity is inconsistent with
    local_height = p^(lam1 n1 + lam2 n2); the implemented one satisfies it."""
    model = blowup_p2(2, 3)
    lam1 = model.component("D1").lam
    lam2 = model.component("D2").lam
    pt = ProjectivePoint((1, 2, 1))  # (1 : u : w) with u = 2, w = 1; v2(x1) = 1
    exp = local_height(pt, model, 2).exponent
    good = multiplicities_blowup(pt, 2)
    bad = multiplicities_blowup_transposed(pt, 2)
    assert exp == good["D1"] * lam1 + good["D2"] * lam2
    assert exp != bad["D1"] * lam1 + bad["D2"] * lam2


def test_multiplicity_equals_height_exponent_randomly():
    rng = random.Random(20260810)
    models = [projective_space(1, 2), projective_space(2, 3), blowup_p2(2, 3)]
    for _ in range(400):
        model = rng.choice(models)
        if model.name == "blowup":
            pt = ProjectivePoint.from_rationals(
                (1, random_rational(rng), random_rational(rng)))
        elif model.dimension == 1:
            pt = ProjectivePoint.from_affine((random_rational(rng),))
        else:
            pt = ProjectivePoint.from_affine(
                (random_rational(rng), random_rational(rng))
            )
        for p in relevant_primes(pt, model):
            mult = multiplicities(pt, model, p)
            expected = sum(
                mult[c.label] * c.lam for c in model.components
            )
            assert local_height(pt, model, p).exponent == expected


# --------------------------------------------------------------------------
# predicates
# --------------------------------------------------------------------------


def test_darmon_examples_line():
    m2 = projective_space(1, 2)
    assert is_darmon(ProjectivePoint((4, 9)), m2, S0)
    assert not is_darmon(ProjectivePoint((1, 2)), m2, S0)
    assert is_darmon(ProjectivePoint((1, 2)), m2, PlaceSet.of([2]))


def test_campana_examples_line():
    m2 = projective_space(1, 2)
    assert is_campana(ProjectivePoint((1, 8)), m2, S0)
    assert not is_campana(ProjectivePoint((1, 2)), m2, S0)


def test_darmon_subset_campana_random():
    rng = random.Random(9)
    models = [projective_space(1, 3), blowup_p2(2, 2)]
    for _ in range(500):
        model = rng.choice(models)
        if model.name == "blowup":
            pt = ProjectivePoint.from_rationals(
                (1, random_rational(rng, 500), random_rational(rng, 500)))
        else:
            pt = ProjectivePoint.from_affine((random_rational(rng, 500),))
        if is_darmon(pt, model, S0):
            assert is_campana(pt, model, S0)


@given(
    num=st.integers(-(10**4), 10**4),
    den=st.integers(1, 10**4),
    m=st.integers(1, 4),
)
def test_darmon_subset_campana_line_property(num, den, m):
    pt = ProjectivePoint.from_affine((Fraction(num, den),))
    model = projective_space(1, m)
    if is_darmon(pt, model, S0):
        assert is_campana(pt, model, S0)


def test_semi_integral_refuses_boundary_points_in_every_mode():
    # the oracle skips the predicate when every multiplicity is admitted, but
    # the predicate itself still reads the denominator
    for model, pt in ((projective_space(1, 1), ProjectivePoint((1, 0))),
                      (blowup_p2(2, 1), ProjectivePoint((0, 1, 0)))):
        for mode in MODES:
            with pytest.raises(BoundaryPointError):
                semi_integral(pt, model, PlaceSet.of(), mode)


def test_enlarging_s_never_flips_true_to_false():
    rng = random.Random(10)
    model = projective_space(1, 2)
    chains = [PlaceSet.of(), PlaceSet.of([2]), PlaceSet.of([2, 3]), PlaceSet.of([2, 3, 5])]
    for _ in range(300):
        pt = ProjectivePoint.from_affine((random_rational(rng, 2000),))
        for pred in (is_darmon, is_campana):
            seen_true = False
            for S in chains:
                val = pred(pt, model, S)
                if seen_true:
                    assert val
                seen_true = seen_true or val


def test_line_global_reformulation():
    for m in (1, 2, 3):
        model = projective_space(1, m)
        for S in (S0, PlaceSet.of([2]), PlaceSet.of([2, 3])):
            for q in range(1, 120):
                for p in (1, 7):
                    if math.gcd(p, q) != 1:
                        continue
                    pt = ProjectivePoint((p, q))
                    q_stripped = q
                    for sp in S.finite_primes:
                        while q_stripped % sp == 0:
                            q_stripped //= sp
                    assert is_darmon(pt, model, S) == is_kth_power(q_stripped, m)
                    assert is_campana(pt, model, S) == is_k_full(q_stripped, m)


def test_blowup_global_reformulation():
    model = blowup_p2(2, 3)
    rng = random.Random(11)
    for _ in range(400):
        x0 = rng.randint(1, 400)
        x1 = rng.randint(-400, 400)
        x2 = rng.randint(-400, 400)
        g3 = math.gcd(math.gcd(x0, x1), x2)
        if g3 != 1:
            continue
        pt = ProjectivePoint((x0, x1, x2))
        g = math.gcd(x0, x1)
        expected = is_kth_power(g, 2) and is_kth_power(x0 // g, 3)
        assert is_darmon(pt, model, S0) == expected
        expected_c = is_k_full(g, 2) and is_k_full(x0 // g, 3)
        assert is_campana(pt, model, S0) == expected_c


# --------------------------------------------------------------------------
# heights
# --------------------------------------------------------------------------


def test_local_height_examples_line():
    model = projective_space(1, 1)
    pt = ProjectivePoint((3, 2))
    assert local_height(pt, model, ARCH).value == 1.5
    assert local_height(pt, model, 2).value == 2.0
    assert local_height(pt, model, 3).value == 1.0


def test_global_height_examples_line():
    model = projective_space(1, 1)
    assert global_height(ProjectivePoint.from_affine((Fraction(-7, 4),)), model).value == 7
    assert global_height(ProjectivePoint.from_affine((0,)), model).value == 1


def test_blowup_height_examples():
    model = blowup_p2(1, 1)
    pt = ProjectivePoint((2, 1, 6))  # (1 : 1/2 : 3)
    assert local_height(pt, model, ARCH).value == pytest.approx(9.0)
    lh2 = local_height(pt, model, 2)
    assert lh2.exponent == 3 and lh2.value == 8.0
    assert global_height(pt, model).value == pytest.approx(72.0)


def test_closed_form_equals_place_by_place():
    rng = random.Random(12)
    models = [projective_space(1, 2), projective_space(2, 1), blowup_p2(2, 3)]
    for _ in range(400):
        model = rng.choice(models)
        if model.name == "blowup":
            pt = ProjectivePoint.from_rationals(
                (1, random_rational(rng), random_rational(rng)))
        elif model.dimension == 1:
            pt = ProjectivePoint.from_affine((random_rational(rng),))
        else:
            pt = ProjectivePoint.from_affine(
                (random_rational(rng), random_rational(rng))
            )
        gh = global_height(pt, model)
        finite, arch = global_height_by_places(pt, model)
        closed_finite = {}
        for base, exp in gh.finite_factors:
            for p in relevant_primes(pt, model):
                v = valuation(base, p) if base else 0
                if v:
                    closed_finite[p] = closed_finite.get(p, Fraction(0)) + v * exp
        closed_finite = {p: e for p, e in closed_finite.items() if e}
        assert closed_finite == {p: e for p, e in finite.items() if e}
        assert gh.archimedean == pytest.approx(arch, rel=1e-12)
        product = arch
        for p, e in finite.items():
            product *= float(p) ** float(e)
        assert gh.value == pytest.approx(product, rel=1e-12)


def test_height_comparison_is_exact_at_ties():
    model = blowup_p2(2, 1)
    # (9 : 1 : 4): H = 9^(3/2) * 9^(3/2) = 729 despite fractional exponents
    pt = ProjectivePoint((9, 1, 4))
    gh = global_height(pt, model)
    assert gh.compare(Fraction(729)) == 0
    assert gh.le(Fraction(729))
    assert not gh.le(Fraction(729) - Fraction(1, 10**9))
    assert gh.compare(Fraction(729) + Fraction(1, 10**9)) == -1
    # an irrational height separates two nearby rational bounds exactly
    pt2 = ProjectivePoint((4, 1, 6))  # (1 : 1/4 : 3/2), H = 24^(3/2)
    gh2 = global_height(pt2, model)
    lo = math.isqrt(24**3 * 10**12)  # floor(H * 10^6), via integer sqrt
    assert not gh2.le(Fraction(lo, 10**6))
    assert gh2.le(Fraction(lo + 1, 10**6))


def test_scaling_invariance_via_normalization():
    rng = random.Random(13)
    model = projective_space(2, 2)
    for _ in range(100):
        u = (random_rational(rng, 100), random_rational(rng, 100))
        pt = ProjectivePoint.from_affine(u)
        scale = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        scaled = ProjectivePoint.from_rationals(
            tuple(scale * c for c in pt.coords)
        )
        assert scaled == pt or scaled.coords == pt.coords


@given(st.lists(st.integers(-30, 30), min_size=2, max_size=4))
def test_projective_point_accepts_exactly_primitive_tuples(xs):
    # the integer checks agree with normalising through primitive_coords
    t = tuple(xs)
    primitive = any(t) and primitive_coords(t) == t
    try:
        ProjectivePoint(t)
    except ValueError:
        assert not primitive
    else:
        assert primitive


@given(st.fractions(max_denominator=10**6), st.fractions(max_denominator=10**6))
def test_blowup_points_parse_and_print_back(u, w):
    # a blow-up point "u,w" is the primitive triple (1 : u : w), and classify
    # prints u,w back as it was written
    model = blowup_p2(2, 3)
    assert parse_point(model, f"{u},{w}").coords == primitive_coords((1, u, w))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["classify", "--model", "blowup", "--m1", "2", "--m2", "3",
                     "--", f"{u},{w}"])
    assert code == 0 and json.loads(out.getvalue())["point"] == f"{u},{w}"


@pytest.mark.parametrize("coords", [(0, 1, 0), (0, 1, -3), (1, 2), (1, 2, 3, 4)])
def test_blowup_points_off_the_open_cell_are_refused(coords):
    # x0 = 0 or a tuple that is not a triple: refused before any valuation
    # (int_valuation(0, p) never returns)
    model, pt = blowup_p2(1, 2), ProjectivePoint(coords)
    for check in (lambda: multiplicities(pt, model, 2),
                  lambda: multiplicities_blowup(pt, 2),
                  lambda: relevant_primes(pt, model),
                  lambda: local_height(pt, model, 2),
                  lambda: local_height(pt, model, ARCH),
                  lambda: global_height(pt, model),
                  lambda: is_darmon(pt, model, S0),
                  lambda: is_campana(pt, model, S0)):
        with pytest.raises(BoundaryPointError):
            check()


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------


def test_parse_point_formats():
    p1 = projective_space(1, 1)
    assert parse_point(p1, "4/9").coords == (4, 9)
    assert parse_point(p1, "-7/4").coords == (7, -4)
    assert parse_point(p1, "3:2").coords == (3, 2)
    p2 = projective_space(2, 1)
    assert parse_point(p2, "2:4:6").coords == (1, 2, 3)
    bl = blowup_p2(1, 1)
    assert parse_point(bl, "1/4,3/2").coords == (4, 1, 6)
    assert parse_point(bl, "-1/4, 3").coords == (4, -1, 12)


def test_parse_point_errors():
    p1 = projective_space(1, 1)
    with pytest.raises(PointParseError):
        parse_point(p1, "1/0")
    with pytest.raises(BoundaryPointError):
        parse_point(p1, "1:0")
    with pytest.raises(PointParseError):
        parse_point(blowup_p2(1, 1), "3")
    with pytest.raises(PointParseError):
        parse_point(projective_space(2, 1), "1:2")
