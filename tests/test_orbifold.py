from fractions import Fraction

import pytest

from orbicount.errors import DomainError
from orbicount.orbifold import (
    MODES,
    BoundaryComponent,
    OrbifoldModel,
    PlaceSet,
    a_invariant,
    b_invariant,
    blowup_p2,
    critical_set,
    eval_count_poly,
    progression,
    projective_space,
)


def custom(components, strata, dim):
    return OrbifoldModel("custom", dim, tuple(components), strata)


def test_projective_invariants():
    m = projective_space(2, 3)
    assert a_invariant(m) == Fraction(7, 3)  # n + 1/m
    assert b_invariant(m) == 1
    assert critical_set(projective_space(1, 2)) == frozenset({"D"})
    assert b_invariant(projective_space(3, 5)) == 1


def test_blowup_invariants():
    for m1, m2 in ((1, 1), (2, 3), (3, 1)):
        m = blowup_p2(m1, m2)
        assert a_invariant(m) == 1
        assert critical_set(m) == frozenset({"D1", "D2"})
        assert b_invariant(m) == 2


def test_single_component_example():
    comp = BoundaryComponent("E", rho=2, lam=Fraction(2), m=1)
    m = custom([comp], {frozenset(): (0, 1), frozenset({"E"}): (1,)}, 1)
    assert a_invariant(m) == 1
    assert b_invariant(m) == 1


def test_strict_max_critical_set():
    c1 = BoundaryComponent("A", rho=3, lam=Fraction(2), m=1)  # ratio 3/2
    c2 = BoundaryComponent("B", rho=2, lam=Fraction(4), m=1)  # ratio 1/2
    m = custom([c1, c2], {frozenset(): (0, 1)}, 1)
    assert critical_set(m) == frozenset({"A"})


def test_infinite_weight_epsilon():
    comp = BoundaryComponent("E", rho=3, lam=Fraction(1), m=None)
    assert comp.epsilon == 1
    m = custom([comp], {frozenset(): (0, 1)}, 1)
    assert a_invariant(m) == 2  # (rho - 1)/lam


def test_lambda_scaling_divides_a_and_keeps_argmax():
    c1 = BoundaryComponent("A", rho=2, lam=Fraction(1), m=2)
    c2 = BoundaryComponent("B", rho=3, lam=Fraction(2), m=1)
    base = custom([c1, c2], {frozenset(): (0, 0, 1)}, 2)
    for t in (Fraction(2), Fraction(3, 7)):
        scaled = custom(
            [
                BoundaryComponent(c.label, c.rho, c.lam * t, c.m)
                for c in (c1, c2)
            ],
            {frozenset(): (0, 0, 1)},
            2,
        )
        assert a_invariant(scaled) == a_invariant(base) / t
        assert critical_set(scaled) == critical_set(base)


def test_stratum_tables_sum_to_full_point_count():
    for q in (2, 3, 5, 7, 11):
        for n in (1, 2, 3):
            m = projective_space(n, 2)
            total = sum(eval_count_poly(c, q) for c in m.strata.values())
            assert total == (q ** (n + 1) - 1) // (q - 1)
        bl = blowup_p2(1, 2)
        total = sum(eval_count_poly(c, q) for c in bl.strata.values())
        assert total == q * q + 2 * q + 1


def test_validate_builtins_clean():
    for model in (projective_space(1, 1), projective_space(3, 4), blowup_p2(2, 2)):
        for c in model.components:
            assert c.rho >= 2 and c.lam > 0 and c.m >= 1
        n = model.dimension
        assert tuple(model.strata[frozenset()]) == (0,) * n + (1,)  # q^n
        for coeffs in model.strata.values():
            assert all(eval_count_poly(coeffs, q) >= 0 for q in (2, 3, 5, 7))


def test_builders_reject_bad_weights():
    with pytest.raises(ValueError):
        projective_space(1, 0)
    with pytest.raises(ValueError):
        blowup_p2(0, 1)


def test_place_set():
    S = PlaceSet.of([5, 2, 2, 3])
    assert S.finite_primes == (2, 3, 5)
    assert 2 in S and 7 not in S
    with pytest.raises(ValueError):
        PlaceSet.of([4])


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, None])
def test_progression_admits_the_definitional_multiplicities(m):
    # Darmon: m | n; Campana: n = 0 or n >= m; rational mode: every n; an
    # infinite weight (None) admits 0 alone in Darmon and Campana mode
    definition = {
        "darmon": lambda n: n == 0 if m is None else n % m == 0,
        "campana": lambda n: n == 0 if m is None else n == 0 or n >= m,
        "rational": lambda n: True,
    }
    for mode in MODES:
        fd = progression(m, mode)
        for n in range(4 * (m or 6) + 1):
            admitted = n == 0 or (fd is not None and n >= fd[0] and (n - fd[0]) % fd[1] == 0)
            assert admitted == definition[mode](n), (m, mode, n)


def test_progression_refuses_an_unknown_mode():
    for mode in ("all", "Darmon", ""):
        with pytest.raises(DomainError):
            progression(2, mode)
