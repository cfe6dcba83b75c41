"""The blow-up cell walk, the reference for ``count_blowup`` and the blow-up
height-zeta sum, which both run over the columns c (at one bound, those of
``enumeration.blowup_columns``) instead of the cells (g, c)."""

from fractions import Fraction

from orbicount.arith import integer_kth_root
from orbicount.enumeration import blowup_columns

from references import denominators


def blowup_cells(m1, m2, S, B, mode):
    """One yield per cell (g, c) of the leading pairs (x0, x1) = (g a, g b),
    gcd(a, b) = 1, c = max(a, |b|), that are admissible and carry a point of
    height <= B, in ascending g and then c.

    g is an admissible line denominator for weight m1 up to Mmax and a one
    for weight m2; the pairs over (g, c) are the w(c) points b/a of height c
    on the weight-m2 line, taken from ``blowup_columns``.  A pair carries a
    point of height <= B exactly when g^E1 c^(E1+E2) <= B^(m1 m2), with
    E1 = (m1 + 1) m2 and E2 = m1 m2 + m1 - m2.  Yields (w(c), g, M2 = g c,
    primes of g, X2) for w(c) > 0.  The points over each pair are the x2
    coprime to g with |x2| <= X2, X2^E1 c^E2 <= B^(m1 m2), where X2 >= M2:
    those with |x2| <= M2 have height M2^(1+1/m1) c^(1+1/m2-1/m1), the
    others |x2|^(1+1/m1) c^(1+1/m2-1/m1)."""
    Bf = Fraction(B)
    if Bf < 1:
        return
    E1, E2 = (m1 + 1) * m2, m1 * m2 + m1 - m2
    num, den = (Bf ** (m1 * m2)).as_integer_ratio()
    Bm1 = Bf**m1
    Mmax = integer_kth_root(Bm1.numerator // Bm1.denominator, m1 + 1)
    core = blowup_columns(m1, m2, S, B, mode, budget=None)
    cells = [(c, weight, integer_kth_root(num // (den * c**E2), E1))
             for c, weight in zip(core.c.tolist(), core.w.tolist())]
    for g, gp in denominators(m1, S, Mmax, mode):
        for c, weight, X2 in cells:
            if g**E1 * c ** (E1 + E2) * den > num:
                break
            yield weight, g, g * c, gp, X2
