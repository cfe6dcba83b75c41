"""The truncated Euler product walks segmented prime blocks: the budget is
charged before any sieve, memory stays flat in the cutoff, and the blocked
sum agrees with one plain sum over all the primes."""

import math
import tracemalloc

import numpy as np
import pytest

from orbicount import arith, constants
from orbicount.arith import primes_up_to
from orbicount.constants import euler_product, leading_constant, p1_campana_constant
from orbicount.errors import BudgetExceededError, DomainError
from orbicount.orbifold import PlaceSet, blowup_p2, projective_space

S0 = PlaceSet.of()


def test_budget_is_charged_before_the_sieve(monkeypatch):
    def no_sieve(n):
        raise AssertionError("sieve built before the budget was charged")

    monkeypatch.setattr(constants, "prime_blocks", no_sieve)
    monkeypatch.setattr(arith, "primes_up_to", no_sieve)
    with pytest.raises(BudgetExceededError):
        euler_product(lambda primes: primes, 10**12, 2.0, 2.0)
    with pytest.raises(BudgetExceededError):
        leading_constant(blowup_p2(1, 1), S0, 10**12, "truncated")
    with pytest.raises(BudgetExceededError):
        p1_campana_constant(2, S0, 10**12)


def test_nonpositive_factor_names_its_prime_as_an_int():
    # the first prime of the second block
    p = next(q for q in primes_up_to(10**6) if q > 2 * arith.PRIME_SEGMENT)
    with pytest.raises(DomainError, match=rf"p={p}$"):
        euler_product(lambda primes: np.where(primes == p, 0.0, 1.0), 10**6, 2.0, 2.0)


def test_memory_stays_flat_in_the_cutoff():
    # a list of the 664579 primes up to 1e7 alone takes about 25 MiB
    tracemalloc.start()
    try:
        leading_constant(blowup_p2(1, 1), S0, 10**7, "truncated")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "run",
    [
        lambda p0: leading_constant(projective_space(1, 2), S0, p0, "truncated"),
        lambda p0: leading_constant(blowup_p2(1, 1), S0, p0, "truncated"),
        lambda p0: p1_campana_constant(2, S0, p0),
    ],
    ids=["line", "blowup", "campana"],
)
def test_blocked_product_matches_one_sum_over_all_primes(monkeypatch, run):
    p0 = 3 * 10**6  # six segments
    seen = []
    original = constants.euler_product

    def spy(factors, prime_cutoff, decay_constant, decay_exponent):
        value, tail = original(factors, prime_cutoff, decay_constant, decay_exponent)
        seen.append((factors, value))
        return value, tail

    monkeypatch.setattr(constants, "euler_product", spy)
    run(p0)
    [(factors, value)] = seen
    values = np.asarray(factors(np.array(primes_up_to(p0), dtype=np.float64)))
    reference = math.exp(math.fsum(np.log(values).tolist()))
    assert value == pytest.approx(reference, rel=1e-14, abs=0)
