"""Discriminant groups D(M) = M-dual / M with their finite quadratic forms.

The group is read off the Smith normal form S = U @ Gram @ V.  Its
generators are the dual vectors g_i = (column i of V) / s_i for the invariant
factors s_i > 1; each column of the unimodular V is primitive, so g_i has
denominator exactly s_i, and the largest invariant factor L is their common
denominator.  Each L*g_i is a lattice vector, so the Gram P of the scaled
generators is an integer matrix, and for residue tuples x, y

    q(x) = x^T P x / (2 L^2) mod 1,    b(x, y) = x^T P y / L^2 mod 1,

exact rational values independent of the lift choice.

Elements are represented as tuples of residues against the elementary
divisors, which makes them canonical hash keys.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Iterator, Sequence

from .intlinalg import Matrix, _listed, checked_int, identity, mat_vec, smith_normal_form
from .lattices import DualVector, IntegerLattice, checked_dual, checked_lattice

Element = tuple[int, ...]

FULL_TABLE_CAP = 10**6


class DiscriminantGroup:
    """Finite quadratic module attached to a nondegenerate even lattice.

    Instances are immutable in use: all methods are pure queries, so values
    are freely shareable across threads.
    """

    def __init__(self, lattice: IntegerLattice, smith: tuple[Matrix, Matrix, Matrix]):
        """The group of `lattice` from (S, U, V) = smith_normal_form(lattice.gram)."""
        s, u, v = smith
        slots = [i for i in range(lattice.rank) if s[i][i] > 1]
        self.lattice = lattice
        self.elementary_divisors = tuple(s[i][i] for i in slots)
        self.order = prod(self.elementary_divisors)
        self._lift_den = self.elementary_divisors[-1] if slots else 1
        # the rows of U that map a dual vector's Gram image to its residues
        self._snf_rows = tuple(tuple(u[i]) for i in slots)
        # L*g_i as integer vectors, and their integer Gram P
        self._scaled = tuple(tuple(row[i] * (self._lift_den // s[i][i]) for row in v) for i in slots)
        images = [mat_vec(lattice.gram, w) for w in self._scaled]
        self._pair = tuple(tuple(sum(map(mul, w, image)) for image in images) for w in self._scaled)

    def __repr__(self) -> str:
        parts = " x ".join(f"Z/{s}" for s in self.elementary_divisors) or "trivial"
        return f"DiscriminantGroup({parts}, order={self.order})"

    def elements(self) -> Iterator[Element]:
        return itertools.product(*(range(s) for s in self.elementary_divisors))

    def reduce(self, elem: Sequence[int]) -> Element:
        """elem as reduced residues; a tuple, as the group hands out, skips the sequence check."""
        if type(elem) is not tuple:
            elem = _listed(elem, "element", "residues")
        if len(elem) != len(self.elementary_divisors):
            raise ValueError(
                f"element {tuple(elem)} has wrong length for divisors {self.elementary_divisors}"
            )
        return tuple(
            (r if type(r) is int else checked_int(r, "residue")) % s
            for r, s in zip(elem, self.elementary_divisors)
        )

    def add(self, a: Sequence[int], b: Sequence[int]) -> Element:
        return tuple((x + y) % s for x, y, s in zip(self.reduce(a), self.reduce(b), self.elementary_divisors))

    def _form(self, x: Element, y: Element) -> int:
        """x^T P y for reduced residue tuples x, y."""
        return sum(xi * sum(p * yj for p, yj in zip(row, y)) for xi, row in zip(x, self._pair) if xi)

    def q(self, elem: Sequence[int]) -> Fraction:
        """Quadratic value: half the self-pairing of any lift, mod 1."""
        r = self.reduce(elem)
        n = 2 * self._lift_den**2
        return Fraction(self._form(r, r) % n, n)

    def b(self, a: Sequence[int], other: Sequence[int]) -> Fraction:
        """Bilinear pairing of two elements, mod 1."""
        n = self._lift_den**2
        return Fraction(self._form(self.reduce(a), self.reduce(other)) % n, n)

    def lift(self, elem: Sequence[int]) -> DualVector:
        """Explicit dual-vector lift of a group element."""
        num = [0] * self.lattice.rank
        for ri, v in zip(self.reduce(elem), self._scaled):
            if ri:
                num = [x + ri * y for x, y in zip(num, v)]
        return DualVector._reduced(self.lattice, num, self._lift_den)

    def element_of(self, v: DualVector) -> Element:
        """Class of a dual vector in the group."""
        v = checked_dual(v, self.lattice, "v")
        gv = mat_vec(self.lattice.gram, v.num)
        if any(x % v.den for x in gv):
            raise ValueError("vector is not in the dual lattice")
        image = mat_vec(self._snf_rows, [x // v.den for x in gv])
        return tuple(x % s for x, s in zip(image, self.elementary_divisors))

    @property
    def q_values(self) -> dict[Element, Fraction]:
        """Exact q-table: all elements when |D| fits the cap, else generators."""
        if self.q_mode == "full":
            return {elem: self.q(elem) for elem in self.elements()}
        return {u: self.q(u) for u in map(tuple, identity(len(self.elementary_divisors)))}

    @property
    def q_mode(self) -> str:
        return "full" if self.order <= FULL_TABLE_CAP else "generators-only"

    @property
    def level(self) -> int:
        """Smallest N > 0 with N*q integral on the whole group.

        N q(x) = N x^T P x / 2L^2 is an integer for every x exactly when
        2L^2 | N P_ii and L^2 | N P_ij for i != j, so the level is the lcm
        of 2L^2 / gcd(2L^2, P_ii) and L^2 / gcd(L^2, P_ij).
        """
        m, pair = self._lift_den**2, self._pair
        diagonal = (2 * m // gcd(2 * m, row[i]) for i, row in enumerate(pair))
        return lcm(*diagonal, *(m // gcd(m, x) for i, row in enumerate(pair) for x in row[:i]))

    def to_jsonable(self) -> dict:
        return {
            "divisors": list(self.elementary_divisors),
            "q": {",".join(map(str, e)): str(v) for e, v in self.q_values.items()},
        }


def discriminant_group(lattice: IntegerLattice) -> DiscriminantGroup:
    """Compute D(M) with generator lifts via Smith normal form of the Gram.

    A group of any order is built, at a cost that does not grow with |D|;
    the work that does is capped where it is done: the full q-table at
    FULL_TABLE_CAP and the Weil matrices at weil.DIM_CAP.
    """
    det = checked_lattice(lattice).det
    if det == 0:
        raise ValueError("discriminant group requires a nondegenerate Gram matrix")
    group = DiscriminantGroup(lattice, smith_normal_form(lattice.gram))
    if group.order != abs(det):
        raise AssertionError("Smith form inconsistent with |det Gram|")
    return group
