"""Vector enumeration in positive definite lattices.

Fincke-Pohst style traversal over a rational Cholesky decomposition.  All
interval bounds are computed with integer square roots and all acceptance
checks are exact rational comparisons, so no boundary vector is ever gained
or lost to rounding.

Vectors are produced in ascending lexicographic order of their coordinates,
which makes full enumerations canonically sorted and lets searches for a
distinguished representative stop at the first hit.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd, isqrt
from typing import Iterator

from .lattices import DualVector, IntegerLattice

Shift = tuple[Fraction, ...]


def _cholesky(gram) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Rational decomposition Q(z) = sum_i d_i (z_i + sum_{j>i} u_ij z_j)^2.

    Raises if the form is not positive definite.
    """
    n = len(gram)
    q = [[Fraction(x) for x in row] for row in gram]
    for i in range(n):
        if q[i][i] <= 0:
            raise ValueError("enumeration requires definite lattice (positive definite Gram)")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] = q[k][l] - q[k][i] * q[i][l]
    d = [q[i][i] for i in range(n)]
    u = [[q[i][j] if j > i else Fraction(0) for j in range(n)] for i in range(n)]
    return d, u


def _floor_sqrt(x: Fraction) -> int:
    """floor(sqrt(x)) for a nonnegative rational, exactly."""
    if x < 0:
        raise ValueError("negative radicand")
    return isqrt(x.numerator * x.denominator) // x.denominator


def _integer_interval(t: Fraction, d: Fraction, budget: Fraction) -> range:
    """Integers x with d*(x + t)^2 <= budget, as a range.

    The admissible set is the integer slice of [-t - r, -t + r] with
    r = sqrt(budget/d); the integer square root gives candidates off by at
    most one on each side, fixed up by exact comparisons.
    """
    if budget < 0:
        return range(0)
    r = _floor_sqrt(budget / d)

    def ok(x: int) -> bool:
        y = x + t
        return d * y * y <= budget

    lo = ceil(-r - t) - 1
    hi = floor(r - t) + 1
    while lo <= hi and not ok(lo):
        lo += 1
    while hi >= lo and not ok(hi):
        hi -= 1
    return range(lo, hi + 1)


def lex_stream(
    lattice: IntegerLattice, norm: Fraction, shift: Shift | None = None
) -> Iterator[tuple[int, ...]]:
    """All integer x with <x+s, x+s> = norm, in lex order of x.

    The Cholesky recursion runs on the coordinate-reversed Gram matrix so the
    first coordinate is chosen in the outermost loop; iterating each level in
    ascending order then yields solutions in ascending lexicographic order.
    """
    n = lattice.rank
    target = Fraction(norm)
    if target < 0:
        return
    if n == 0:
        if target == 0:
            yield ()
        return
    s = tuple(Fraction(x) for x in (shift or (0,) * n))
    rev_gram = [[lattice.gram[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]
    rev_shift = [s[n - 1 - i] for i in range(n)]
    d, u = _cholesky(rev_gram)

    def descend(lvl: int, budget: Fraction, zs: list[Fraction]) -> Iterator[tuple[int, ...]]:
        center = rev_shift[lvl]
        for j in range(lvl + 1, n):
            center += u[lvl][j] * zs[j]
        for x in _integer_interval(center, d[lvl], budget):
            y = x + center
            cost = d[lvl] * y * y
            zs[lvl] = Fraction(x) + rev_shift[lvl]
            if lvl == 0:
                if cost == budget:
                    yield (x,)
            else:
                for tail in descend(lvl - 1, budget - cost, zs):
                    yield tail + (x,)

    zs: list[Fraction] = [Fraction(0)] * n
    for rev_sol in descend(n - 1, target, zs):
        yield tuple(reversed(rev_sol))


def enumerate_by_norm(
    lattice: IntegerLattice,
    norm,
    coset: DualVector | None = None,
) -> list[DualVector]:
    """All vectors v in (coset + L) with <v, v> = norm, sorted lexicographically.

    Only positive definite lattices are accepted; the caller twists negative
    definite ones first.
    """
    target = Fraction(norm)
    if target < 0:
        raise ValueError("norm must be nonnegative in a positive definite lattice")
    if coset is None:
        return [DualVector.from_scaled(lattice, x) for x in lex_stream(lattice, target)]
    if coset.lattice != lattice:
        raise ValueError("coset representative lives in a different lattice")
    num, den = coset.num, coset.den
    return [
        DualVector.from_scaled(lattice, (s + den * c for s, c in zip(num, x)), den)
        for x in lex_stream(lattice, target, coset.coords)
    ]


def first_primitive_vector(lattice: IntegerLattice, norm) -> tuple[int, ...] | None:
    """Lexicographically least primitive lattice vector of the given norm."""
    for x in lex_stream(lattice, Fraction(norm)):
        if gcd(*x) == 1:
            return x
    return None
