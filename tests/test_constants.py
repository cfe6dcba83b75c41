import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from orbicount.constants import (
    ZETA2,
    ZETA4,
    blowup_archimedean_reference,
    blowup_reference_constant,
    campana_s_factor,
    euler_product,
    leading_constant,
    p1_campana_constant,
    p1_reference_constants,
    p1_s_factor,
    residue_exponents,
    riemann_zeta,
)
from orbicount.errors import DomainError
from orbicount.localfactors import normalized_factor
from orbicount.orbifold import PlaceSet, a_invariant, blowup_p2, projective_space

S0 = PlaceSet.of()


def test_zeta_closed_forms():
    assert riemann_zeta(2) == math.pi**2 / 6
    assert riemann_zeta(4) == math.pi**4 / 90
    assert ZETA2 == math.pi**2 / 6 and ZETA4 == math.pi**4 / 90


def test_zeta_3_against_direct_summation():
    n = np.arange(1, 10**7, dtype=np.float64)
    direct = float(np.sum(n**-3.0))  # tail beyond 1e7 is ~5e-15
    assert abs(riemann_zeta(3) - direct) < 1e-10


def test_zeta_generic_values():
    import mpmath

    for s in (1.1, 1.5, 2.5, 7.0, 30.0):
        assert abs(riemann_zeta(s) - float(mpmath.zeta(s))) < 1e-13


def test_zeta_domain():
    with pytest.raises(DomainError):
        riemann_zeta(1.0)
    with pytest.raises(DomainError):
        riemann_zeta(0.5)


def test_truncated_product_basel():
    value, bound = euler_product(lambda primes: [1 - p**-2.0 for p in primes], 10**6, 2.0, 2.0)
    assert abs(value - 1 / ZETA2) < 1e-6 + bound
    assert bound > 0


def test_truncated_product_trivial_and_errors():
    # the identity factor has decay envelope C = 0, hence a zero tail
    value, bound = euler_product(lambda primes: [1.0 for p in primes], 1000, 0.0, 2.0)
    assert value == 1.0 and bound == 0.0
    with pytest.raises(DomainError):
        euler_product(lambda primes: [-1.0 for p in primes], 100, 2.0, 2.0)
    with pytest.raises(ValueError):
        euler_product(lambda primes: [1.0 for p in primes], 100, 2.0, 0.5)


def test_residue_exponents_are_one():
    for m in (1, 2, 3):
        assert residue_exponents(projective_space(1, m)) == {"D": Fraction(1)}
        assert residue_exponents(projective_space(3, m)) == {"D": Fraction(1)}
    for m1 in (1, 2, 3):
        for m2 in (1, 2, 3):
            out = residue_exponents(blowup_p2(m1, m2))
            assert out == {"D1": Fraction(1), "D2": Fraction(1)}


def test_leading_constant_line_matches_reference():
    bd = leading_constant(projective_space(1, 1), S0)
    assert bd.a == 2 and bd.b == 1
    assert bd.residue_factors == (("D", Fraction(1)),)
    assert bd.count_coefficient == pytest.approx(2 / ZETA2, rel=1e-12)
    assert bd.total == pytest.approx(2 * 2 / ZETA2, rel=1e-12)
    for m in (2, 3):
        for S in (S0, PlaceSet.of([2]), PlaceSet.of([2, 5])):
            bd = leading_constant(projective_space(1, m), S)
            ref = p1_reference_constants(m, S)
            assert bd.count_coefficient == pytest.approx(
                ref.count_coefficient, rel=1e-10
            )


def test_leading_constant_s_factor_closed_form():
    bd = leading_constant(projective_space(1, 2), PlaceSet.of([2]))
    expected = (1 - 2 ** (-1.5)) / (1 - 2**-0.5 + 0.5 - 2**-1.5)
    assert bd.s_factors[0][0] == 2
    assert bd.s_factors[0][1] == pytest.approx(expected, rel=1e-10)
    assert p1_s_factor(2, 2) == pytest.approx(expected, rel=1e-14)


def test_leading_constant_blowup_breakdown():
    bd = leading_constant(blowup_p2(1, 1), S0)
    assert bd.a == 1 and bd.b == 2
    assert dict(bd.residue_factors) == {"D1": Fraction(1, 2), "D2": Fraction(1, 3)}
    assert bd.finite_product == pytest.approx(1 / ZETA2**2, rel=1e-12)
    assert bd.archimedean == 16.0
    assert bd.total == pytest.approx(16 / (6 * ZETA2**2), rel=1e-12)
    # general weights: residues 1/(m1+1), 1/(2 m2 + 1); archimedean 4(1+m1)(1+m2)
    bd23 = leading_constant(blowup_p2(2, 3), S0)
    assert dict(bd23.residue_factors) == {"D1": Fraction(1, 3), "D2": Fraction(1, 7)}
    assert bd23.archimedean == pytest.approx(4 * 3 * 4, rel=1e-12)


def test_breakdown_total_is_product_of_parts():
    for model, S in (
        (projective_space(1, 2), PlaceSet.of([2, 3])),
        (blowup_p2(2, 1), PlaceSet.of([5])),
    ):
        bd = leading_constant(model, S)
        total = math.prod(float(v) for _, v in bd.residue_factors)
        total *= bd.finite_product * bd.archimedean
        total *= math.prod(v for _, v in bd.s_factors)
        assert bd.total == pytest.approx(total, rel=1e-12)


def test_breakdown_reproducible():
    a = leading_constant(projective_space(1, 2), PlaceSet.of([2]))
    b = leading_constant(projective_space(1, 2), PlaceSet.of([2]))
    assert a == b


def test_truncated_method_agrees_with_exact():
    exact = leading_constant(projective_space(1, 2), S0)
    trunc = leading_constant(
        projective_space(1, 2), S0, prime_cutoff=10**4, method="truncated"
    )
    assert abs(trunc.finite_product - exact.finite_product) <= trunc.tail_bound
    bl_exact = leading_constant(blowup_p2(1, 1), S0)
    bl = leading_constant(blowup_p2(1, 1), S0, prime_cutoff=10**4, method="truncated")
    assert abs(bl.finite_product - bl_exact.finite_product) <= bl.tail_bound


@pytest.mark.parametrize(
    "model, S",
    [
        (projective_space(1, 2), PlaceSet.of([2])),
        (projective_space(2, 2), S0),
        (blowup_p2(1, 1), S0),
        (blowup_p2(2, 1), PlaceSet.of([2])),
    ],
)
def test_truncated_method_matches_the_scalar_route(model, S):
    a = a_invariant(model)
    value, tail = euler_product(
        lambda primes: [float(normalized_factor(model, p, a)) for p in primes],
        10**4,
        2.0 * len(model.components),
        2.0,
    )
    bd = leading_constant(model, S, prime_cutoff=10**4, method="truncated")
    assert bd.finite_product == pytest.approx(value, rel=1e-12)
    assert bd.tail_bound == pytest.approx(tail, rel=1e-12)


def test_euler_product_cutoff_domain():
    for cutoff in (0, -5):
        with pytest.raises(ValueError):
            leading_constant(projective_space(1, 2), S0, cutoff, "truncated")
        with pytest.raises(ValueError):
            blowup_reference_constant(1, 1, cutoff)
    # cutoff 1: the empty product, with the tail bound of all primes
    value, tail = p1_campana_constant(2, S0, prime_cutoff=1)
    assert value == 2.0 and tail == pytest.approx(2.0 * math.expm1(3.0 / 0.5))


def test_reference_constants_m_factor_flag():
    """The two published displays differ by the residue factor m; the count
    coefficient is the consistent one."""
    for m in (1, 2, 3):
        ref = p1_reference_constants(m, S0)
        a = 1 + 1 / m
        assert ref.residue == pytest.approx(a * ref.count_coefficient, rel=1e-12)
        assert ref.residue_times_m == pytest.approx(m * ref.residue, rel=1e-12)
        if m == 1:
            assert ref.residue_times_m == pytest.approx(ref.residue)
            assert ref.residue_times_m == pytest.approx(24 / math.pi**2, rel=1e-12)
        else:
            assert ref.residue_times_m != pytest.approx(ref.residue)


def test_campana_constant():
    with pytest.raises(DomainError):
        p1_campana_constant(1, S0)
    camp, tail = p1_campana_constant(2, S0, prime_cutoff=10**5)
    assert tail > 0
    dar = p1_reference_constants(2, S0).count_coefficient
    assert camp > dar  # more m-full than m-th-power denominators
    # S-place factor degenerates to 1 at m = 1 formally
    for p in (2, 7):
        assert campana_s_factor(p, 1) == pytest.approx(1.0, rel=1e-14)


def test_campana_constant_converges():
    lo, tail_lo = p1_campana_constant(2, S0, prime_cutoff=10**4)
    hi, _ = p1_campana_constant(2, S0, prime_cutoff=10**5)
    assert abs(lo - hi) <= tail_lo  # refinement stays inside the reported tail
    assert abs(hi - 2.2535) < 2e-3  # frozen from cutoff 1e6 runs


def test_blowup_reference_constant():
    value, tail = blowup_reference_constant(1, 1, prime_cutoff=10**5)
    front = 2.0  # (1+1)(1+1)/2
    assert value == pytest.approx(front * 0.42824950567709523, rel=1e-4)
    assert tail > 0
    assert blowup_archimedean_reference(2, 3) == 12.0


def test_constants_never_run_the_archimedean_quadrature(monkeypatch):
    cases = [
        (model, method)
        for model in (projective_space(1, 2), blowup_p2(1, 1))
        for method in ("exact", "truncated")
    ]
    expected = [leading_constant(model, S0, 10**4, method) for model, method in cases]

    def no_quad(*args, **kwargs):
        raise AssertionError("the constant path integrated")

    monkeypatch.setattr(mpmath, "quad", no_quad)
    for (model, method), want in zip(cases, expected):
        assert leading_constant(model, S0, 10**4, method) == want
