import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from orbicount import localfactors
from orbicount.arith import primes_up_to
from orbicount.errors import DomainError
from orbicount.localfactors import (
    archimedean_blowup,
    archimedean_projective,
    blowup_factor,
    denef_factor,
    normalized_factor,
    normalized_factors,
    p1_factor,
    shell_sum_oracle,
)
from orbicount.orbifold import (
    BoundaryComponent,
    OrbifoldModel,
    a_invariant,
    blowup_p2,
    projective_space,
)

P1 = projective_space(1, 1)

# The models of test_denef_on_a_custom_split_model (two disjoint boundary lines
# on a quadric surface) and test_denef_infinite_weight_component.
SPLIT = OrbifoldModel(
    "custom",
    2,
    (
        BoundaryComponent("D1", rho=2, lam=Fraction(1), m=2),
        BoundaryComponent("D2", rho=2, lam=Fraction(1), m=3),
    ),
    {
        frozenset(): (0, 0, 1),
        frozenset({"D1"}): (0, 1),
        frozenset({"D2"}): (0, 1),
        frozenset({"D1", "D2"}): (1,),
    },
)
INTEGRAL = OrbifoldModel(
    "custom",
    1,
    (BoundaryComponent("D", rho=2, lam=Fraction(1), m=None),),
    {frozenset(): (0, 1), frozenset({"D"}): (1,)},
)


def test_denef_examples():
    assert abs(denef_factor(P1, 2, 2) - 1.5) < 1e-25
    # all t -> 0: the factor tends to 1
    assert abs(denef_factor(projective_space(1, 3), 2, 40) - 1) < 1e-10
    bl = blowup_p2(2, 3)
    assert abs(denef_factor(bl, 5, 1.5) - blowup_factor(5, 2, 3, 1.5)) < 1e-25


def test_p1_factor_examples():
    with mpmath.workdps(30):
        assert abs(p1_factor(2, 1, 2) - 1.5) < 1e-25
        assert abs(p1_factor(3, 2, 2) - mpmath.mpf(13) / 12) < 1e-25
        assert abs(p1_factor(5, 4, 2, in_S=True) - p1_factor(5, 1, 2)) < 1e-25


def test_closed_forms_match_denef_on_grid():
    for p in (2, 3, 7):
        for m in (1, 2, 3):
            model = projective_space(1, m)
            for s in (1.5, 2.0, 3.25):
                if s <= 1:
                    continue
                for in_S in (False, True):
                    a = p1_factor(p, m, s, in_S)
                    b = denef_factor(model, p, s, in_S)
                    assert abs(a - b) <= 1e-12 * abs(a)
        for m1, m2 in ((1, 1), (2, 3), (3, 2)):
            model = blowup_p2(m1, m2)
            for s in (1.25, 2.0):
                for in_S in (False, True):
                    a = blowup_factor(p, m1, m2, s, in_S)
                    b = denef_factor(model, p, s, in_S)
                    assert abs(a - b) <= 1e-12 * abs(a)


def test_denef_on_a_custom_split_model():
    """A product-of-lines model: two disjoint boundary lines on a quadric
    surface.  The stratum sum must factor into two line factors."""
    from orbicount.orbifold import BoundaryComponent, OrbifoldModel

    m1, m2 = 2, 3
    model = OrbifoldModel(
        "custom",
        2,
        (
            BoundaryComponent("D1", rho=2, lam=Fraction(1), m=m1),
            BoundaryComponent("D2", rho=2, lam=Fraction(1), m=m2),
        ),
        {
            frozenset(): (0, 0, 1),
            frozenset({"D1"}): (0, 1),
            frozenset({"D2"}): (0, 1),
            frozenset({"D1", "D2"}): (1,),
        },
    )
    for p in (2, 5):
        for s in (1.75, 2.5):
            combined = denef_factor(model, p, s)
            split = p1_factor(p, m1, s) * p1_factor(p, m2, s)
            assert abs(combined - split) <= 1e-12 * abs(split)


def test_denef_infinite_weight_component():
    from orbicount.orbifold import BoundaryComponent, OrbifoldModel

    model = OrbifoldModel(
        "custom",
        1,
        (BoundaryComponent("D", rho=2, lam=Fraction(1), m=None),),
        {frozenset(): (0, 1), frozenset({"D"}): (1,)},
    )
    # the integrality condition kills the boundary stratum entirely...
    assert abs(denef_factor(model, 3, 2.0) - 1) < 1e-25
    # ...unless the place is in S, where the weight-1 series reappears
    with_s = denef_factor(model, 3, 2.0, in_S=True)
    assert abs(with_s - p1_factor(3, 1, 2.0)) < 1e-20


def test_projective_higher_dimension_against_shells():
    model = projective_space(3, 2)
    for p in (2, 5):
        for s in (3.5, 4.25):
            o = shell_sum_oracle(model, p, s)
            assert abs(denef_factor(model, p, s) - o.value) <= o.bound


def test_oracle_agreement_across_matrix():
    for m in (1, 2, 3):
        model = projective_space(1, m)
        a = a_invariant(model)
        for p in (2, 3, 5, 7):
            for s in (a + Fraction(1, 4), a + 1):
                o = shell_sum_oracle(model, p, s)
                assert abs(denef_factor(model, p, s) - o.value) <= o.bound
                assert o.bound <= 1e-10
    for m1, m2 in ((1, 1), (2, 3), (3, 3)):
        model = blowup_p2(m1, m2)
        for p in (2, 7):
            for s in (Fraction(5, 4), 2):
                o = shell_sum_oracle(model, p, s)
                assert abs(denef_factor(model, p, s) - o.value) <= o.bound
                assert o.bound <= 1e-10


def test_oracle_in_s_matches_weight_one():
    model = blowup_p2(2, 3)
    o = shell_sum_oracle(model, 3, 1.5, in_S=True)
    assert abs(blowup_factor(3, 2, 3, 1.5, in_S=True) - o.value) <= o.bound


def test_oracle_depth_consistency():
    model = blowup_p2(2, 1)
    shallow = shell_sum_oracle(model, 2, 1.5, depth=40)
    deep = shell_sum_oracle(model, 2, 1.5, depth=50)
    assert abs(shallow.value - deep.value) <= shallow.bound
    assert deep.bound < shallow.bound


def test_oracle_config_validation():
    with pytest.raises(ValueError, match="oracle depth must be at least 10"):
        shell_sum_oracle(blowup_p2(2, 1), 2, 1.5, depth=5)


def test_oracle_charges_its_terms_before_summing(monkeypatch):
    # 200 steps a term: depth terms on the line, depth^2 / (2 m1 m2) + 8 depth
    # on the blow-up, whose weights are 1 in S
    charged = []
    monkeypatch.setattr(localfactors, "charge",
                        lambda budget, amount, work: charged.append(amount))
    shell_sum_oracle(P1, 2, 2.5)
    shell_sum_oracle(blowup_p2(2, 1), 2, 1.5, depth=40)
    shell_sum_oracle(blowup_p2(2, 1), 2, 1.5, depth=40, in_S=True)
    assert charged == [200 * 60, 200 * (400 + 320), 200 * (800 + 320)]


@pytest.mark.parametrize("as_prime", [int, np.int64, np.int32, np.float64])
def test_numpy_primes_give_the_int_values(as_prime):
    # every factor and oracle takes an integer prime through operator.index,
    # so a NumPy integer gives the same mpf, bit for bit, as does the float64
    # prime of the Euler products
    bu = blowup_p2(1, 2)
    for p in (2, 3, 7):
        q = as_prime(p)
        for model, s in ((projective_space(1, 2), 3), (projective_space(2, 2), 4), (bu, 2)):
            for in_S in (False, True):
                assert denef_factor(model, q, s, in_S) == denef_factor(model, p, s, in_S)
                assert normalized_factor(model, q, s, in_S) == normalized_factor(model, p, s, in_S)
                assert shell_sum_oracle(model, q, s, 20, in_S) == shell_sum_oracle(
                    model, p, s, 20, in_S)
        assert p1_factor(q, 2, 3) == p1_factor(p, 2, 3)
        assert blowup_factor(q, 1, 2, 2) == blowup_factor(p, 1, 2, 2)


def test_divergence_raises():
    with pytest.raises(DomainError):
        denef_factor(P1, 2, 1.0)
    with pytest.raises(DomainError):
        p1_factor(2, 2, 0.5)
    with pytest.raises(DomainError):
        shell_sum_oracle(blowup_p2(1, 1), 2, Fraction(2, 3))


def test_normalized_factor_examples():
    with mpmath.workdps(30):
        assert abs(normalized_factor(P1, 2, 2) - 0.75) < 1e-25
        # at the critical exponent every regularized factor is 1 - p^-2 per component
        for m in (1, 2, 3):
            model = projective_space(1, m)
            a = a_invariant(model)
            for p in (2, 5):
                expected = 1 - mpmath.mpf(p) ** -2
                assert abs(normalized_factor(model, p, a) - expected) < 1e-20
        for m1, m2 in ((1, 1), (2, 3)):
            model = blowup_p2(m1, m2)
            for p in (2, 5):
                expected = (1 - mpmath.mpf(p) ** -2) ** 2
                assert abs(normalized_factor(model, p, 1) - expected) < 1e-20
        assert abs(normalized_factor(P1, 10**6 + 3, 2) - 1) < 1e-5


def test_normalized_factor_decay_envelope():
    margin = Fraction(1, 100)
    for model in (projective_space(1, 2), blowup_p2(2, 3)):
        a = a_invariant(model)
        for s in (a + Fraction(1, 4), a + 1):
            delta = min(
                c.m * (s * c.lam - c.rho + 1) for c in model.components
            ) - margin
            cap = 2 * len(model.components)
            for p in (2, 3, 5, 11, 101, 499):
                lhs = abs(normalized_factor(model, p, s) - 1)
                assert lhs <= cap * float(p) ** float(-1 - delta)


VECTOR_MODELS = (
    [projective_space(1, m) for m in (1, 2, 3, 4)]
    + [projective_space(n, 2) for n in (2, 3)]
    + [blowup_p2(m1, m2) for m1, m2 in ((1, 1), (2, 1), (1, 2), (3, 2))]
)


def _assert_matches_mpmath(model, s, in_S):
    """The float64 route is within a few ulps of the 30-digit route (4 at
    most on these models), up to 1e4 and at two primes near 1e6 and 1e7."""
    primes = primes_up_to(10**4) + [999983, 9999991]
    got = normalized_factors(model, primes, s, in_S)
    assert got.dtype == np.float64 and got.shape == (len(primes),)
    for p, value in zip(primes, got):
        want = float(normalized_factor(model, p, s, in_S))
        assert abs(value - want) <= 8 * np.spacing(want), (p, value, want)


@pytest.mark.parametrize("in_S", [False, True])
@pytest.mark.parametrize(
    "model", VECTOR_MODELS, ids=lambda m: "-".join([m.name, *map(str, m.params.values())])
)
def test_normalized_factors_match_mpmath_route(model, in_S):
    a = a_invariant(model)
    for s in (a, a + Fraction(1, 4)):
        _assert_matches_mpmath(model, s, in_S)


@pytest.mark.parametrize("in_S", [False, True])
def test_normalized_factors_on_custom_models(in_S):
    for s in (Fraction(7, 4), 2.5):
        _assert_matches_mpmath(SPLIT, s, in_S)
        _assert_matches_mpmath(INTEGRAL, s, in_S)
    # outside S the integral point's boundary stratum drops out entirely
    assert np.all(normalized_factors(INTEGRAL, [2, 3, 5], 2.0) == 1.0)


def test_normalized_factors_divergence_matches_mpmath_route():
    for model, s in ((projective_space(1, 2), 1), (blowup_p2(1, 1), Fraction(1, 2)),
                     (SPLIT, 0.75)):
        with pytest.raises(DomainError) as scalar:
            normalized_factor(model, 2, s)
        with pytest.raises(DomainError) as vector:
            normalized_factors(model, [2, 3], s)
        assert str(vector.value) == str(scalar.value)


def test_archimedean_projective():
    a1 = archimedean_projective(1, 2.0)
    assert a1.closed_form == 4.0
    assert a1.difference < 1e-10
    big = archimedean_projective(1, 1e6)
    assert abs(big.closed_form - 2.0) < 1e-4  # volume of [-1, 1] in the limit
    a2 = archimedean_projective(2, 3.0)
    assert a2.closed_form == 12.0
    assert a2.difference < 1e-8
    a3 = archimedean_projective(3, 4.0)
    assert a3.closed_form == pytest.approx(2**3 * (1 + 3.0), rel=1e-12)
    assert a3.difference < 1e-8
    # near s = n the corner integrand a^(s-3) is barely integrable at 0
    assert archimedean_projective(2, 2.1).difference < 1e-8
    with pytest.raises(DomainError):
        archimedean_projective(2, 2.0)


def test_archimedean_blowup():
    ab = archimedean_blowup(1, 1, 1.0)
    assert ab.closed_form == 16.0
    assert ab.difference < 1e-6
    # (5, 7) and (10, 10): exponents near -1, endpoint singularities at t = 0
    for m1, m2 in ((1, 2), (2, 3), (3, 1), (5, 7), (10, 10)):
        ab = archimedean_blowup(m1, m2, 1.0)
        assert ab.closed_form == pytest.approx(4 * (1 + m1) * (1 + m2), rel=1e-12)
        assert ab.difference < 1e-6
    limit = archimedean_blowup(1, 1, 50.0)
    assert abs(limit.closed_form - 4.0) < 0.5  # unit box volume in the limit
    assert abs(archimedean_blowup(1, 1, 1e6).closed_form - 4.0) < 1e-4
    with pytest.raises(DomainError):
        archimedean_blowup(1, 1, 0.5)


def test_archimedean_quadrature_runs_once_and_only_when_read(monkeypatch):
    calls = []
    real_quad = mpmath.quad

    def counting_quad(*args, **kwargs):
        calls.append(args)
        return real_quad(*args, **kwargs)

    monkeypatch.setattr(mpmath, "quad", counting_quad)
    factor = archimedean_blowup(2, 3, 1.0)
    assert calls == [] and "quadrature" not in repr(factor)
    assert factor == archimedean_blowup(2, 3, 1.0)
    first = factor.quadrature
    assert calls
    n_calls = len(calls)
    assert factor.quadrature == first and factor.difference < 1e-6
    assert len(calls) == n_calls
