import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicount import arith
from orbicount.arith import (
    INFINITY,
    factorize,
    integer_kth_root,
    is_prime,
    mobius_sieve,
    prime_blocks,
    primes_up_to,
    primitive_coords,
    totient_sieve,
    valuation,
)

from references import count_coprime, euler_phi, is_k_full, is_kth_power

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

rationals = st.builds(
    Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)
)
nonzero_rationals = rationals.filter(lambda x: x != 0)


def test_valuation_examples():
    assert valuation(Fraction(18, 5), 3) == 2
    assert valuation(Fraction(18, 5), 5) == -1
    assert valuation(0, 7) == INFINITY


def test_valuation_rejects_nonprime():
    with pytest.raises(ValueError):
        valuation(Fraction(1, 2), 6)
    with pytest.raises(ValueError):
        valuation(Fraction(1, 2), 1)


def test_infinity_singleton_behaviour():
    assert INFINITY == INFINITY
    assert INFINITY > 10**18
    assert not (INFINITY < 5)
    assert repr(INFINITY) == "INFINITY"


@given(x=nonzero_rationals, y=nonzero_rationals, p=st.sampled_from(SMALL_PRIMES))
def test_valuation_additive(x, y, p):
    assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


def test_factorize_examples():
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(1) == {}
    assert factorize(97) == {97: 1}


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_keys_ascending():
    assert list(factorize(2 * 3 * 25 * 49)) == [2, 3, 5, 7]


def test_factorize_beyond_sieve_bound():
    p, q = 10**9 + 7, 10**9 + 9  # both prime, product far beyond the sieve
    assert factorize(p * q) == {p: 1, q: 1}
    assert factorize(2**5 * p) == {2: 5, p: 1}


def _trial_division(n):
    """{prime: exponent} of n by plain trial division up to isqrt(n)."""
    out = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            n //= f
            out[f] = out.get(f, 0) + 1
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@pytest.mark.parametrize(
    "n",
    [
        arith.SIEVE_BOUND - 1,
        arith.SIEVE_BOUND,
        arith.SIEVE_BOUND + 1,
        (10**6 + 3) * (10**6 + 33),  # two primes just above the bound
        999983 * 1000003,  # the largest prime below it times the least above
        1009 * 1013 * 1000003,  # rho's first split, 1009 * 1013, is composite
        math.prod(primes_up_to(47)[3:]),  # every prime from 7 to 47
        1000000000039,  # a 13-digit prime
        # each prime leaves to its full power at once, so no RecursionError
        2**2000,
        7**1500,
    ],
    ids=lambda n: str(n) if n < 10**20 else f"{n.bit_length()}-bit",
)
def test_factorize_matches_trial_division_across_the_sieve_bound(n):
    assert factorize(n) == _trial_division(n)


def test_spf_table_matches_loop_sieve():
    # the numpy-built table against the plain loop sieve it replaced
    n = arith.SIEVE_BOUND
    spf = list(range(n))
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            for m in range(p * p, n, p):
                if spf[m] == m:
                    spf[m] = p
    table = arith._spf_table()
    assert list(table) == spf  # an array.array never equals a list
    assert all(type(v) is int for v in table)  # factorize does Python int arithmetic


CLASSIFY_RSS_PROBE = """
import contextlib, io, resource
from orbicount import arith, cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["classify", "--model", "p1", "--m", "2", "4/9"])
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(code, after - before, len(arith._SPF), arith._SPF.itemsize)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
def test_classify_raises_peak_rss_by_under_10_mb():
    # a fresh interpreter with the CLI imported, so the rise is what one
    # classify run adds: the 4 MB table and its 4 MB identity temporary
    # (about 8 MB; 14.5 MB while the table was a list of Python ints)
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", CLASSIFY_RSS_PROBE],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=120, check=True)
    code, rise_kib, entries, itemsize = map(int, out.stdout.split())
    assert code == 0
    assert rise_kib < 10 * 1024, f"classify raised peak RSS by {rise_kib} KiB"
    assert (entries, itemsize) == (arith.SIEVE_BOUND, 4)


@given(n=st.integers(1, 10**6))
def test_factorize_roundtrip(n):
    out = factorize(n)
    assert math.prod(p**e for p, e in out.items()) == n
    assert all(is_prime(p) for p in out)


def test_power_tests_examples():
    assert is_kth_power(16, 2)
    assert not is_kth_power(8, 2)
    assert is_kth_power(8, 3)
    assert is_k_full(8, 2)
    assert not is_k_full(12, 2)
    assert is_k_full(1, 5)


@given(n=st.integers(1, 10**5))
def test_k1_is_identity(n):
    assert is_kth_power(n, 1)
    assert is_k_full(n, 1)


@given(n=st.integers(1, 20000), k=st.integers(1, 4))
def test_kth_power_implies_k_full(n, k):
    if is_kth_power(n, k):
        assert is_k_full(n, k)


@given(n=st.integers(1, 20000), k=st.integers(2, 5))
def test_power_tests_match_factorization(n, k):
    exps = factorize(n).values()
    assert is_kth_power(n, k) == all(e % k == 0 for e in exps)
    assert is_k_full(n, k) == all(e >= k for e in exps)


def test_integer_kth_root_exact():
    for n in (0, 1, 7, 63, 64, 65, 10**12 - 1, 10**12, 10**120 + 1, 10**400):
        for k in (1, 2, 3, 5):
            r = integer_kth_root(n, k)
            assert r**k <= n < (r + 1) ** k
    # past float range, and roots too large for a float guess to be corrected
    # one step at a time
    assert integer_kth_root(10**120 + 1, 3) == 10**40
    assert integer_kth_root(10**120 - 1, 3) == 10**40 - 1
    assert integer_kth_root(10**400, 4) == 10**100
    assert integer_kth_root(10**400, 800) == 3
    assert integer_kth_root(10**400, 401) == 9
    # every small n, where the log2 guess sits closest to the root
    for n in range(4096):
        for k in range(3, 14):
            r = integer_kth_root(n, k)
            assert r**k <= n < (r + 1) ** k


def test_integer_kth_root_of_a_huge_index():
    # n < 2^k has root 1 without a Newton step: at k = 1e7 one step would
    # raise a guess of 2 to the power k - 1
    assert integer_kth_root(2**10**7 - 1, 10**7) == 1
    for k in (3, 64, 10**4):
        assert integer_kth_root(2**k - 1, k) == 1
        assert integer_kth_root(2**k, k) == 2
        assert integer_kth_root(2**k + 1, k) == 2
    for k in (3, 64, 1000):
        assert integer_kth_root(3**k - 1, k) == 2 and integer_kth_root(3**k, k) == 3


@given(n=st.integers(0, 2**2000), k=st.integers(1, 64))
def test_integer_kth_root_huge(n, k):
    r = integer_kth_root(n, k)
    assert r**k <= n < (r + 1) ** k


def test_primitive_coords_examples():
    assert primitive_coords((1, Fraction(1, 4), Fraction(3, 2))) == (4, 1, 6)
    assert primitive_coords((0, 0, 5)) == (0, 0, 1)
    assert primitive_coords((1, Fraction(-2, 3))) == (3, -2)


def test_primitive_coords_rejects_zero_vector():
    with pytest.raises(ValueError):
        primitive_coords((0, 0))
    with pytest.raises(ValueError):
        primitive_coords(())


@given(
    xs=st.lists(rationals, min_size=1, max_size=5).filter(
        lambda v: any(x != 0 for x in v)
    ),
    num=st.integers(-60, 60).filter(lambda n: n != 0),
    den=st.integers(1, 60),
)
def test_primitive_coords_scaling_invariant(xs, num, den):
    scale = Fraction(num, den)
    assert primitive_coords(xs) == primitive_coords([scale * x for x in xs])


def test_primitive_coords_output_properties():
    out = primitive_coords((Fraction(6, 4), Fraction(-9, 10), 3))
    g = 0
    for v in out:
        g = math.gcd(g, v)
    assert g == 1
    first = next(v for v in out if v != 0)
    assert first > 0


def test_primes_and_mobius():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    mu = mobius_sieve(10)
    assert list(mu) == [0, 1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def _checked_blocks(n):
    """prime_blocks(n) as one list, after checking its block structure:
    nonempty ascending float64 blocks that do not overlap, the first from 2."""
    blocks = list(prime_blocks(n))
    for block in blocks:
        assert block.dtype == np.float64 and block.size
        assert np.all(np.diff(block) > 0)
    for left, right in zip(blocks, blocks[1:]):
        assert left[-1] < right[0]
    if blocks:
        assert blocks[0][0] == 2.0
    return [int(p) for block in blocks for p in block]


def test_prime_blocks_at_the_segment_ends():
    # a segment holds PRIME_SEGMENT odd numbers, so the k-th one ends at the
    # number 2k PRIME_SEGMENT
    ends = [2 * k * arith.PRIME_SEGMENT for k in (1, 2)]
    cutoffs = [0, 1, 2, 3, 4] + [end + d for end in ends for d in range(-2, 3)]
    # 727^2 = 528529 is the first odd square past the first segment end
    cutoffs.append(727**2)
    for n in cutoffs:
        assert _checked_blocks(n) == primes_up_to(n), n
    assert len(list(prime_blocks(3 * 2 * arith.PRIME_SEGMENT))) == 3
    # 2^20 + 1 = 17 * 61681 alone in the third segment: no empty block
    assert len(list(prime_blocks(2**20 + 1))) == 2


def test_prime_blocks_with_a_prime_square_on_a_segment_start(monkeypatch):
    # 30 odd numbers per segment: 59^2 = 3481 and 61^2 = 3721 are the odd
    # numbers 2 * 1740 + 1 and 2 * 1860 + 1, the first of segments 58 and 62
    monkeypatch.setattr(arith, "PRIME_SEGMENT", 30)
    for n in (3481, 3482, 3721, 3722, 3723, 4000):
        assert _checked_blocks(n) == primes_up_to(n), n


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 3 * 2 * arith.PRIME_SEGMENT))
def test_prime_blocks_match_the_plain_sieve(n):
    assert _checked_blocks(n) == primes_up_to(n)


@settings(max_examples=200, deadline=None)
@given(segment=st.integers(1, 40), data=st.data())
def test_prime_blocks_match_the_plain_sieve_on_small_segments(segment, data):
    n = data.draw(st.integers(0, 3 * 2 * segment + 50))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "PRIME_SEGMENT", segment)
        assert _checked_blocks(n) == primes_up_to(n)


def _mobius_loop_sieve(n):
    """mu(0..n) by flipping the multiples of every prime <= n."""
    mu = [0] + [1] * n
    for p in primes_up_to(n):
        for i in range(p, n + 1, p):
            mu[i] = -mu[i]
        for i in range(p * p, n + 1, p * p):
            mu[i] = 0
    return mu


def test_mobius_sieve_matches_loop_sieve():
    # up to 2e5, the whole range on which tests/test_enumeration.py checks the
    # Mertens route against a direct sum over this sieve
    for n in list(range(0, 200)) + [1000, 4096, 10**5, 2 * 10**5]:
        assert mobius_sieve(n).tolist() == _mobius_loop_sieve(n)


def test_count_coprime_matches_bruteforce():
    for q in (1, 2, 6, 30, 49, 97):
        primes = tuple(factorize(q))
        for limit in (0, 1, 7, 50, 101):
            brute = sum(1 for k in range(1, limit + 1) if math.gcd(k, q) == 1)
            assert count_coprime(limit, primes) == brute


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 9, 10, 97)] == [1, 1, 6, 4, 96]


def test_totient_sieve_matches_euler_phi():
    # squares and prime powers above isqrt(n) included: 1000 = 2^3 5^3, 961 = 31^2
    for n in list(range(0, 40)) + [961, 1000, 4099]:
        assert totient_sieve(n).tolist() == [0] + [euler_phi(i) for i in range(1, n + 1)]


def test_totient_sieve_across_segment_ends(monkeypatch):
    # segments of 16 integers: n = 0, 1 and 2 in the first, then every n up
    # to 100 ends a segment at each place, and the prime powers 4, 8, ..., 64
    # and 961 = 31^2 start in one segment and strike multiples in later ones
    monkeypatch.setattr(arith, "TOTIENT_SEGMENT", 16)
    assert [totient_sieve(n).tolist() for n in (0, 1, 2)] == [[0], [0, 1], [0, 1, 1]]
    for n in list(range(3, 100)) + [961, 1000]:
        phi = totient_sieve(n)
        assert phi.dtype == np.int32
        assert phi.tolist() == [0] + [euler_phi(i) for i in range(1, n + 1)]
