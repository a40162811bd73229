"""Vector enumeration in positive definite lattices.

Fincke-Pohst traversal (Fincke & Pohst, Math. Comp. 44, 1985) in Python
integers only.  A fraction-free LDL^T (Bareiss, Math. Comp. 22, 1968) writes
the form as a sum of squares of integer linear forms over integer weights;
scaling the target norm by one common integer turns every interval bound into
an integer square root and every acceptance check into an integer equality,
so no boundary vector is ever gained or lost to rounding.

The traversal is one iterative depth-first loop with its per-coordinate state
in flat lists, no recursion and no nested generators.  It stops one
coordinate early: the last coordinate has a closed form, because the budget
left must equal k t^2 for an integer t, so no leaf interval is scanned.  It
yields the numerators den*x + num of each coset vector, which are already
in lowest terms, so `enumerate_by_norm` wraps them without reducing.

Vectors are produced in ascending lexicographic order of their coordinates,
which makes full enumerations canonically sorted and lets searches for a
distinguished representative stop at the first hit.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, isfinite, isqrt, lcm
from numbers import Rational
from operator import mul
from typing import Iterator, Sequence

from .intlinalg import _eliminate, checked_int
from .lattices import CACHE_SIZE, DualVector, IntegerLattice, checked_dual, checked_lattice


@functools.lru_cache(maxsize=CACHE_SIZE)
def _decompose(lattice: IntegerLattice) -> tuple[tuple[int, ...], ...]:
    """Fraction-free LDL^T of the Gram matrix, eliminating from the last
    coordinate, once per lattice.

    It is the symmetric elimination of `intlinalg` on the coordinate-reversed
    Gram.  Row i is taken at its pivot step and cut after column i, so rows[i][i]
    is the trailing principal minor M_i on coordinates i..n-1 (with M_n = 1) and
    Q(x) = sum_i (sum_{k<=i} rows[i][k] x_k)^2 / (M_i M_{i+1}).
    Raises unless every pivot is positive (Sylvester's criterion).
    """
    n = lattice.rank
    a = [list(row[::-1]) for row in reversed(lattice.gram)]
    if _eliminate(a)[0] != n:
        raise ValueError("enumeration requires definite lattice (positive definite Gram)")
    return tuple(tuple(reversed(a[n - 1 - i][n - 1 - i :])) for i in range(n))


def _exact_norm(norm) -> Fraction:
    exact = isinstance(norm, Rational) or (isinstance(norm, float) and isfinite(norm))
    if exact and not isinstance(norm, bool):  # a bool is refused, as by checked_int
        return Fraction(norm)
    raise ValueError(f"norm must be a rational number or a finite float, got {norm!r}")


def lex_stream(
    lattice: IntegerLattice, norm, num: Sequence[int] | None = None, den: int = 1
) -> Iterator[tuple[int, ...]]:
    """Numerators w = den*x + num of all integer x with <w/den, w/den> = norm,
    in lex order of x (the same as lex order of w).  With num None, w = x.

    One iterative depth-first loop fixes coordinate i at depth i; the x,
    upper end, centre and budget of each depth live in flat lists.  Row i of
    the decomposition contributes t_i^2 / (den^2 M_i M_{i+1}), where
    t_i = sum_{k<=i} rows[i][k] w_k is an integer.  Multiplying the target
    Nn/Nd by den^2 K Nd, K = lcm_i(M_i M_{i+1}), gives an integer budget and
    integer weights k_i, and t^2 k <= budget holds exactly when
    |t| <= isqrt(budget // k).  Every depth but the last runs x upward over
    that interval.  The last coordinate has a closed form: the remaining
    budget must equal t^2 k, so t = -sqrt(q), +sqrt(q) for the square
    q = budget / k, and x = (t - centre) / step only where that divides
    exactly.  So solutions come out in ascending lexicographic order.
    """
    rows = _decompose(checked_lattice(lattice))
    target = _exact_norm(norm)
    if target < 0:
        raise ValueError("norm must be nonnegative in a positive definite lattice")
    n = lattice.rank
    if n == 0:
        if target == 0:
            yield ()
        return
    if num is None:
        num, den = (0,) * n, 1
    else:
        num, den = lattice.checked_vector(num), checked_int(den, "denominator", 1)
    pivots = [row[-1] for row in rows]
    minors = [p * a for p, a in zip(pivots, pivots[1:] + [1])]
    scale = lcm(*minors)
    weights = [scale * target.denominator // m for m in minors]
    steps = [den * p for p in pivots]
    xs, highs, centres, budgets = [0] * n, [0] * n, [0] * n, [0] * n
    # w[j] = num[j] at every depth j not yet fixed, so the centre of depth i,
    # rows[i][i] num[i] + sum_{k<i} rows[i][k] w_k, is one dot product.
    w = list(num)
    last = n - 1
    i, budget = 0, target.numerator * den * den * scale
    while True:
        c = sum(map(mul, rows[i], w))
        if i == last:
            q, rem = divmod(budget, weights[i])
            r = isqrt(q)
            if not rem and r * r == q:
                for t in (-r, r) if r else (0,):
                    x, rem = divmod(t - c, steps[i])
                    if not rem:
                        w[i] = den * x + num[i]
                        yield tuple(w)
                w[i] = num[i]
            if i == 0:
                return
            i -= 1
            x = xs[i] + 1
        else:
            r = isqrt(budget // weights[i])
            step = steps[i]
            x = -((r + c) // step)
            highs[i], centres[i], budgets[i] = (r - c) // step, c, budget
        while x > highs[i]:
            if i == 0:
                return
            w[i] = num[i]
            i -= 1
            x = xs[i] + 1
        xs[i] = x
        w[i] = den * x + num[i]
        t = steps[i] * x + centres[i]
        budget = budgets[i] - t * t * weights[i]
        i += 1


def enumerate_by_norm(
    lattice: IntegerLattice,
    norm,
    coset: DualVector | None = None,
) -> list[DualVector]:
    """All vectors v in (coset + L) with <v, v> = norm, sorted lexicographically.

    Only positive definite lattices are accepted; for a negative definite one,
    enumerate make_lattice of the negated Gram at -norm.
    """
    num, den = None, 1
    if coset is not None:
        num, den = checked_dual(coset, lattice, "coset").num, coset.den
    # No reduction needed: num/den is in lowest terms and each w_i = num_i
    # (mod den), so gcd(den, *w) = gcd(den, *num) = 1.
    return [DualVector._of(lattice, w, den) for w in lex_stream(lattice, norm, num, den)]


def first_primitive_vector(lattice: IntegerLattice, norm) -> tuple[int, ...] | None:
    """Lexicographically least primitive lattice vector of the given norm."""
    for x in lex_stream(lattice, norm):
        if gcd(*x) == 1:
            return x
    return None
