"""Exact integer and rational arithmetic primitives.

p-adic valuations of rationals, integer factorization (an int32 smallest-
prime-factor table below 1e6 (4 MB), built in place; Miller-Rabin and
Brent/Pollard rho at or above it), primitive normalization of rational
coordinate vectors, the small sieve/Moebius helpers the enumeration code
leans on, and the segmented prime blocks the Euler products walk.

All functions are pure and operate on arbitrary-precision integers or
``fractions.Fraction``; nothing here touches floating point except the
initial guess inside integer root extraction, which is corrected exactly,
and the float64 prime blocks, which hold every prime <= 2^53 exactly.
"""

from __future__ import annotations

import math
import random
from array import array
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "INFINITY",
    "Infinity",
    "Valuation",
    "valuation",
    "int_valuation",
    "factorize",
    "primitive_coords",
    "is_prime",
    "primes_up_to",
    "prime_blocks",
    "mobius_sieve",
    "totient_sieve",
    "integer_kth_root",
]

SIEVE_BOUND = 10**6  # precomputed smallest-prime-factor table covers n < this
PRIME_SEGMENT = 2**18  # odd numbers per segment of prime_blocks
TOTIENT_SEGMENT = 2**18  # integers per segment of totient_sieve


class Infinity:
    """Valuation of zero.  Compares greater than every integer."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITY"

    def __eq__(self, other) -> bool:
        return isinstance(other, Infinity)

    def __hash__(self) -> int:
        return hash("arith.INFINITY")

    def __gt__(self, other) -> bool:
        return not isinstance(other, Infinity)

    def __ge__(self, other) -> bool:
        return True

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return isinstance(other, Infinity)


INFINITY = Infinity()

Valuation = Union[int, Infinity]

Rational = Union[int, Fraction]


# --------------------------------------------------------------------------
# primality and sieves
# --------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24; strong-probable-prime above."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> List[int]:
    """All primes <= n by a bytearray sieve of Eratosthenes, read out by
    numpy."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = b"\x00" * ((n - start) // p + 1)
    return np.frombuffer(sieve, dtype=np.uint8).nonzero()[0].tolist()


def prime_blocks(n: int) -> Iterator[np.ndarray]:
    """All primes <= n, ascending, as nonempty float64 arrays, one per
    segment of PRIME_SEGMENT odd numbers, so memory stays flat in n.

    An odd-only segmented sieve of Eratosthenes: the base primes come from
    ``primes_up_to(isqrt(n))``, and the odd prime p strikes the odd numbers
    from p^2 on.  The odd number 2i + 1 sits at index i; its odd multiples
    sit at the indices congruent to (p - 1)/2 mod p, the first at (p^2 - 1)/2.
    """
    if n < 2:
        return
    odd = np.array(primes_up_to(math.isqrt(n))[1:], dtype=np.int64)
    first = (odd * odd - 1) // 2
    end = (n + 1) // 2  # the odd numbers <= n are the indices below this
    for lo in range(0, end, PRIME_SEGMENT):
        size = min(PRIME_SEGMENT, end - lo)
        seg = np.ones(size, dtype=bool)
        live = int(first.searchsorted(lo + size))
        rel = first[:live] - lo
        offsets = np.maximum(rel, rel % odd[:live])
        for p, o in zip(odd[:live].tolist(), offsets.tolist()):
            seg[o::p] = False
        block = 2.0 * seg.nonzero()[0] + (2 * lo + 1)
        if lo == 0:  # 1 is not prime, 2 is
            block = np.concatenate(([2.0], block[1:]))
        if block.size:
            yield block


_SPF = array("i")


def _spf_table() -> array:
    """An int32 smallest-prime-factor table below 1e6 (4 MB), built in
    place, lazily, once.

    The C ints are sieved through a writable numpy view of the array's own
    buffer; indexing the table gives Python ints."""
    global _SPF
    if not _SPF:
        table = array("i", [0]) * SIEVE_BOUND
        spf = np.frombuffer(table, dtype=np.intc)
        spf[:] = np.arange(SIEVE_BOUND, dtype=np.intc)
        # descending, so the smallest prime p with p^2 <= m writes spf[m] last
        for p in reversed(primes_up_to(math.isqrt(SIEVE_BOUND))):
            spf[p * p :: p] = p
        _SPF = table
    return _SPF


def mobius_sieve(n: int) -> np.ndarray:
    """Moebius function mu(0..n) as an int8 array.

    Only the primes p <= isqrt(n) are sieved; rest[i] is i with each of them
    divided out once, so a squarefree i has one more prime factor (above
    isqrt(n)) exactly when rest[i] > 1."""
    mu = np.ones(n + 1, dtype=np.int8)
    if n >= 0:
        mu[0] = 0
    rest = np.arange(n + 1, dtype=np.int32 if n < 2**31 else np.int64)
    for p in primes_up_to(math.isqrt(max(n, 0))):
        mu[p::p] *= -1
        rest[p::p] //= p
        mu[p * p :: p * p] = 0
    np.negative(mu, out=mu, where=rest > 1)
    return mu


def totient_sieve(n: int) -> np.ndarray:
    """Euler's phi(0..n), phi(0) = 0, as an int32 array for n < 2^31 (every
    phi(i) <= i fits), else int64: widen it before scaling it.

    Exact and multiplicative, a segment of TOTIENT_SEGMENT integers at a
    time: only the primes p <= isqrt(n) are sieved, each power p^k
    multiplying phi by p - 1 (k = 1) or p (k > 1) and the smooth part sm by
    p at its multiples, so every partial product divides phi(i).  Then
    i // sm[i] is 1 or the one prime factor P of i above isqrt(n), and phi
    takes the factor max(P - 1, 1).  Only phi is as long as n."""
    dtype = np.int32 if n < 2**31 else np.int64
    phi = np.ones(max(n + 1, 0), dtype=dtype)
    phi[:1] = 0
    powers = []  # (p^k, p, the factor of phi), ascending in p^k
    for p in primes_up_to(math.isqrt(max(n, 0))):
        pk, factor = p, p - 1
        while pk <= n:
            powers.append((pk, p, factor))
            pk, factor = pk * p, p
    powers.sort()
    for lo in range(0, n + 1, TOTIENT_SEGMENT):
        hi = min(lo + TOTIENT_SEGMENT, n + 1)
        seg, sm = phi[lo:hi], np.ones(hi - lo, dtype=dtype)
        for pk, p, factor in powers:
            if pk >= hi:
                break
            at = -lo % pk  # the first multiple of pk in the segment
            seg[at::pk] *= factor
            sm[at::pk] *= p
        rest = np.arange(lo, hi, dtype=dtype)
        rest //= sm
        rest -= 1
        seg *= np.maximum(rest, 1, out=rest)
    return phi


# --------------------------------------------------------------------------
# factorization
# --------------------------------------------------------------------------


def _rho_brent(n: int) -> int:
    """A nontrivial factor of composite n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    rng = random.Random(0xC0FFEE ^ n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> Dict[int, int]:
    """Complete prime factorization of n >= 1 as {prime: exponent}, keys ascending.

    Each round finds one prime p of the cofactor and divides it out to its
    full power: Brent rho splits a composite factor at or above SIEVE_BOUND
    until the factor is prime (Miller-Rabin) or below SIEVE_BOUND, where the
    smallest-prime-factor table names its least prime.  factorize(1) == {}.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    spf = _spf_table()
    out: Dict[int, int] = {}
    while n > 1:
        p = n
        while p >= SIEVE_BOUND and not is_prime(p):
            p = _rho_brent(p)
        if p < SIEVE_BOUND:
            p = spf[p]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out[p] = e
    return dict(sorted(out.items()))


# --------------------------------------------------------------------------
# valuations
# --------------------------------------------------------------------------


def int_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero integer.  No primality check; hot-path helper."""
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(x: Rational, p: int) -> Valuation:
    """p-adic valuation of a rational number; INFINITY exactly for x == 0.

    >>> valuation(Fraction(18, 5), 3)
    2
    >>> valuation(Fraction(18, 5), 5)
    -1
    """
    if not is_prime(p):
        raise ValueError(f"valuation requires a prime, got {p}")
    x = Fraction(x)
    if x == 0:
        return INFINITY
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


# --------------------------------------------------------------------------
# power structure of integers
# --------------------------------------------------------------------------


def integer_kth_root(n: int, k: int) -> int:
    """Largest r >= 0 with r**k <= n, for n >= 0, k >= 1.  Exact."""
    if n < 0 or k < 1:
        raise ValueError("integer_kth_root requires n >= 0 and k >= 1")
    if k == 1 or n < 2:
        return n
    if n.bit_length() <= k:  # n < 2^k, before any power of a huge k
        return 1
    if k == 2:
        return math.isqrt(n)
    # Newton's method on integers, started just above the root from a float
    # estimate of log2(n) / k (math.log2 takes any int without overflow);
    # from above, the iterates fall to the floor of the root and stop there
    log2_root = math.log2(n) / k
    whole = int(log2_root)
    r = (int(2.0 ** (log2_root - whole) * 2.0**52) << whole) >> 52
    r += (r >> 24) + 2
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


# --------------------------------------------------------------------------
# coordinate normalization
# --------------------------------------------------------------------------


def primitive_coords(xs: Sequence[Rational]) -> Tuple[int, ...]:
    """Scale a rational vector to coprime integers, first nonzero entry positive.

    The output (y_0, ..., y_k) satisfies y_i / y_j = x_i / x_j for all defined
    ratios and gcd(y_0, ..., y_k) = 1.  Raises on empty or all-zero input.
    """
    fracs = [Fraction(x) for x in xs]
    if not fracs or all(f == 0 for f in fracs):
        raise ValueError("primitive_coords requires a nonzero vector")
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // math.gcd(denom_lcm, f.denominator)
    ints = [int(f * denom_lcm) for f in fracs]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)
