"""Vector enumeration in positive definite lattices.

Fincke-Pohst traversal (Fincke & Pohst, Math. Comp. 44, 1985) in Python
integers only.  A fraction-free LDL^T (Bareiss, Math. Comp. 22, 1968) writes
the form as a sum of squares of integer linear forms over integer weights;
scaling the target norm by one common integer turns every interval bound into
an integer square root and every acceptance check into an integer equality,
so no boundary vector is ever gained or lost to rounding.

Vectors are produced in ascending lexicographic order of their coordinates,
which makes full enumerations canonically sorted and lets searches for a
distinguished representative stop at the first hit.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, isfinite, isqrt, lcm
from numbers import Rational
from typing import Iterator, Sequence

from .lattices import CACHE_SIZE, DualVector, IntegerLattice


@functools.lru_cache(maxsize=CACHE_SIZE)
def _decompose(lattice: IntegerLattice) -> tuple[tuple[int, ...], ...]:
    """Fraction-free LDL^T of the coordinate-reversed Gram matrix, once per lattice.

    Row l is taken at its pivot step, so rows[l][l] is the leading minor
    D_{l+1} (with D_0 = 1) and, for z in reversed coordinates,
    Q(z) = sum_l (sum_{j>=l} rows[l][j] z_j)^2 / (D_l D_{l+1}).
    Raises unless every pivot is positive (Sylvester's criterion).
    """
    n = lattice.rank
    rows = [[lattice.gram[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]
    prev = 1
    for l, top in enumerate(rows):
        d = top[l]
        if d <= 0:
            raise ValueError("enumeration requires definite lattice (positive definite Gram)")
        for row in rows[l + 1 :]:
            f = row[l]
            for j in range(l + 1, n):
                row[j] = (d * row[j] - f * top[j]) // prev
        prev = d
    return tuple(map(tuple, rows))


def _exact_norm(norm) -> Fraction:
    if isinstance(norm, Rational) or (isinstance(norm, float) and isfinite(norm)):
        return Fraction(norm)
    raise ValueError(f"norm must be a rational number or a finite float, got {norm!r}")


def lex_stream(
    lattice: IntegerLattice, norm, num: Sequence[int] | None = None, den: int = 1
) -> Iterator[tuple[int, ...]]:
    """All integer x with <x + num/den, x + num/den> = norm, in lex order of x.

    The recursion runs on the coordinate-reversed Gram matrix so the first
    coordinate is chosen in the outermost loop.  With w = den*x + num, level l
    of the decomposition contributes t_l^2 / (den^2 D_l D_{l+1}), where
    t_l = sum_{j>=l} rows[l][j] w_j is an integer.  Multiplying the target
    Nn/Nd by den^2 K Nd, K = lcm_l(D_l D_{l+1}), gives an integer budget and
    integer weights k_l, and t^2 k <= budget holds exactly when
    |t| <= isqrt(budget // k).  Each level runs in ascending order, so
    solutions come out in ascending lexicographic order.
    """
    if not isinstance(lattice, IntegerLattice):
        raise ValueError(f"lattice must be an IntegerLattice, got {lattice!r}")
    rows = _decompose(lattice)
    target = _exact_norm(norm)
    if target < 0:
        raise ValueError("norm must be nonnegative in a positive definite lattice")
    n = lattice.rank
    if n == 0:
        if target == 0:
            yield ()
        return
    shift = [0] * n if num is None else list(num)[::-1]
    pivots = [rows[l][l] for l in range(n)]
    minors = [p * a for p, a in zip([1] + pivots, pivots)]
    scale = lcm(*minors)
    weights = [scale * target.denominator // m for m in minors]
    ws = [0] * n

    def descend(l: int, budget: int) -> Iterator[tuple[int, ...]]:
        row, k, s = rows[l], weights[l], shift[l]
        c = row[l] * s + sum(row[j] * ws[j] for j in range(l + 1, n))
        step = den * row[l]
        r = isqrt(budget // k)
        for x in range(-((r + c) // step), (r - c) // step + 1):
            t = step * x + c
            cost = t * t * k
            if l == 0:
                if cost == budget:
                    yield (x,)
            else:
                ws[l] = den * x + s
                for tail in descend(l - 1, budget - cost):
                    yield (x,) + tail

    yield from descend(n - 1, target.numerator * den * den * scale)


def enumerate_by_norm(
    lattice: IntegerLattice,
    norm,
    coset: DualVector | None = None,
) -> list[DualVector]:
    """All vectors v in (coset + L) with <v, v> = norm, sorted lexicographically.

    Only positive definite lattices are accepted; the caller twists negative
    definite ones first.
    """
    if coset is None:
        return [DualVector.from_scaled(lattice, x) for x in lex_stream(lattice, norm)]
    if not isinstance(coset, DualVector):
        raise ValueError(f"coset must be a DualVector or None, got {coset!r}")
    if coset.lattice != lattice:
        raise ValueError("coset representative lives in a different lattice")
    num, den = coset.num, coset.den
    return [
        DualVector.from_scaled(lattice, (s + den * c for s, c in zip(num, x)), den)
        for x in lex_stream(lattice, norm, num, den)
    ]


def first_primitive_vector(lattice: IntegerLattice, norm) -> tuple[int, ...] | None:
    """Lexicographically least primitive lattice vector of the given norm."""
    for x in lex_stream(lattice, norm):
        if gcd(*x) == 1:
            return x
    return None
