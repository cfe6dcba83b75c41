"""The height-zeta sums against references: the blow-up sum, summed over
the count's blocks of (column, row) entries, against the same terms summed
one column at a time; residue probes against single sums; and the line
sum's head table against mpmath."""

import itertools
import math
from fractions import Fraction

import mpmath
import pytest

from orbicount import enumeration, fitting
from orbicount.enumeration import MODES
from orbicount.fitting import residue_probe, zeta_partial_sum
from orbicount.orbifold import (
    PlaceSet,
    a_invariant,
    b_invariant,
    blowup_p2,
    projective_space,
)

from references import zeta_blowup_by_columns

BOUNDS = (Fraction(1, 2), 1, 30, Fraction(2001, 2), 10**5)
S_VALUES = (0, 0.5, 1.1, 1.5, 2.5)


@pytest.mark.parametrize("block", [None, 1, 7, 64])
@pytest.mark.parametrize("weights", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2)])
def test_blocked_blowup_sum_is_the_per_column_sum(monkeypatch, weights, block):
    # blocks of 1, 7 and 64 entries split columns on both routes, and column
    # 1 spans several blocks; one entry per block is slow, so it stops at
    # B = 2001/2
    bounds = BOUNDS
    if block is not None:
        monkeypatch.setattr(enumeration, "_BLOCK", block)
        bounds = BOUNDS[:-1] if block == 1 else BOUNDS
    for S, mode, B in itertools.product(((), (2,), (2, 3)), MODES, bounds):
        places = PlaceSet.of(S)
        blocked = fitting._zeta_sum(blowup_p2(*weights), places, Fraction(B), mode)
        columns = zeta_blowup_by_columns(*weights, places, B, mode)
        for s in S_VALUES:
            assert math.isclose(blocked(s), columns(s), rel_tol=1e-13, abs_tol=0), (
                S, mode, B, s)


@pytest.mark.parametrize(
    "model, S, B, mode",
    [
        (projective_space(1, 1), PlaceSet.of([]), 3 * 10**4, "darmon"),  # all admissible
        (projective_space(1, 2), PlaceSet.of([2]), 10**6, "darmon"),
        (projective_space(1, 2), PlaceSet.of([2, 3]), 10**6, "campana"),
        (blowup_p2(1, 1), PlaceSet.of([]), 10**5, "darmon"),  # every g admissible
        (blowup_p2(2, 1), PlaceSet.of([2]), 10**5, "darmon"),  # the divisor rows
    ],
)
@pytest.mark.parametrize("offsets", [(1.5, 1.2, 1.1), (1.2, 2.0, 1.1, 1.5)])
def test_probes_equal_single_sums(model, S, B, mode, offsets):
    # each probe value is the single sum at its s, bit for bit, whatever
    # order the s come in: nothing of one s carries over to the next
    a, b = float(a_invariant(model)), b_invariant(model)
    s_values = [a + t for t in offsets]
    probe = residue_probe(model, S, s_values, B, mode)
    assert [s for s, _ in probe] == s_values
    for s, value in probe:
        assert value == (s - a) ** b * zeta_partial_sum(model, S, s, B, mode).value


@pytest.mark.parametrize("s", [-3, -1, 0, 0.5, 1, 1 + 1e-7, 1.5, 2.5, 7, 13.3])
def test_power_sum_head_table_is_within_an_ulp(s):
    # float64 powers summed in long double: within 2.5e-16 of the 30-digit sum
    head = fitting._PowerSum(s).head
    with mpmath.workdps(30):
        exact = [mpmath.mpf(0)]
        for n in range(1, 1025):
            exact.append(exact[-1] + mpmath.power(n, -mpmath.mpf(s)))
        for n in (1, 2, 3, 10, 100, 513, 1023, 1024):
            assert abs(head[n] - exact[n]) <= 2.5e-16 * abs(exact[n]), n
