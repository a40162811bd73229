"""Discriminant groups D(M) = M-dual / M with their finite quadratic forms.

The group is computed from an integer Smith normal form of the Gram matrix.
Transformation matrices are retained so that every generator carries an
explicit dual-vector lift.  With L the common denominator of the lifts, each
L*g_i is a lattice vector, so the Gram P of the scaled generators is an
integer matrix, and for residue tuples x, y

    q(x) = x^T P x / (2 L^2) mod 1,    b(x, y) = x^T P y / L^2 mod 1,

exact rational values independent of the lift choice.

Elements are represented as tuples of residues against the elementary
divisors, which makes them canonical hash keys.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm, prod
from operator import index
from typing import Iterator, Sequence

from .intlinalg import checked_int, identity, mat_vec, smith_normal_form
from .lattices import DualVector, IntegerLattice, checked_lattice

Element = tuple[int, ...]

FULL_TABLE_CAP = 10**6
HARD_CAP = 10**9


class DiscriminantGroup:
    """Finite quadratic module attached to a nondegenerate even lattice.

    Instances are immutable in use: all methods are pure queries, so values
    are freely shareable across threads.
    """

    def __init__(
        self,
        lattice: IntegerLattice,
        elementary_divisors: tuple[int, ...],
        generators: tuple[DualVector, ...],
        snf_rows: tuple[tuple[int, ...], ...],
        snf_slots: tuple[int, ...],
    ):
        self.lattice = lattice
        self.elementary_divisors = elementary_divisors
        self.generators = generators
        self._snf_rows = snf_rows
        self._snf_slots = snf_slots
        self.order = prod(elementary_divisors)
        self._units = tuple(tuple(row) for row in identity(len(elementary_divisors)))
        self._lift_den = lcm(*(g.den for g in generators))
        # L*g_i as integer vectors, and their integer Gram P
        self._scaled = tuple(tuple(x * (self._lift_den // g.den) for x in g.num) for g in generators)
        images = [mat_vec(lattice.gram, v) for v in self._scaled]
        self._pair = tuple(tuple(sum(a * b for a, b in zip(u, w)) for w in images) for u in self._scaled)
        self._q_table: dict[Element, Fraction] | None = None
        self._level: int | None = None

    def __repr__(self) -> str:
        parts = " x ".join(f"Z/{s}" for s in self.elementary_divisors) or "trivial"
        return f"DiscriminantGroup({parts}, order={self.order})"

    def elements(self) -> Iterator[Element]:
        return itertools.product(*(range(s) for s in self.elementary_divisors))

    def reduce(self, elem: Sequence[int]) -> Element:
        if len(elem) != len(self.elementary_divisors):
            raise ValueError(
                f"element {tuple(elem)} has wrong length for divisors {self.elementary_divisors}"
            )
        try:
            return tuple(index(r) % s for r, s in zip(elem, self.elementary_divisors))
        except TypeError:  # integral values of other types, such as 1.0
            return tuple(checked_int(r, "residue") % s for r, s in zip(elem, self.elementary_divisors))

    def add(self, a: Sequence[int], b: Sequence[int]) -> Element:
        return tuple((x + y) % s for x, y, s in zip(self.reduce(a), self.reduce(b), self.elementary_divisors))

    def neg(self, a: Sequence[int]) -> Element:
        return tuple((-x) % s for x, s in zip(self.reduce(a), self.elementary_divisors))

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
        v.check_lattice(self.lattice)
        gv = mat_vec(self.lattice.gram, v.num)
        if any(x % v.den for x in gv):
            raise ValueError("vector is not in the dual lattice")
        image = mat_vec(self._snf_rows, [x // v.den for x in gv])
        return tuple(int(image[i]) % s for i, s in zip(self._snf_slots, self.elementary_divisors))

    @property
    def q_values(self) -> dict[Element, Fraction]:
        """Exact q-table: all elements when |D| fits the cap, else generators."""
        if self._q_table is None:
            if self.order <= FULL_TABLE_CAP:
                self._q_table = {elem: self.q(elem) for elem in self.elements()}
            else:
                self._q_table = {u: self.q(u) for u in self._units}
        return self._q_table

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
        if self._level is None:
            m, pair = self._lift_den**2, self._pair
            diagonal = (2 * m // gcd(2 * m, row[i]) for i, row in enumerate(pair))
            self._level = lcm(*diagonal, *(m // gcd(m, x) for i, row in enumerate(pair) for x in row[:i]))
        return self._level

    def element_key(self, elem: Sequence[int]) -> str:
        return ",".join(str(x) for x in self.reduce(elem))

    def to_jsonable(self) -> dict:
        return {
            "divisors": list(self.elementary_divisors),
            "q": {self.element_key(e): str(v) for e, v in self.q_values.items()},
        }


def discriminant_group(lattice: IntegerLattice, hard_cap: int | None = None) -> DiscriminantGroup:
    """Compute D(M) with generator lifts via Smith normal form of the Gram."""
    det = checked_lattice(lattice).det
    if det == 0:
        raise ValueError("discriminant group requires a nondegenerate Gram matrix")
    order = abs(det)
    hard = HARD_CAP if hard_cap is None else checked_int(hard_cap, "hard_cap")
    if order > hard:
        raise ValueError(f"discriminant group order {order} exceeds the hard cap {hard}")
    snf, u, v = smith_normal_form(lattice.gram)
    slots = tuple(i for i in range(lattice.rank) if snf[i][i] > 1)
    divisors = tuple(snf[i][i] for i in slots)
    generators = tuple(DualVector.from_scaled(lattice, (row[i] for row in v), snf[i][i]) for i in slots)
    group = DiscriminantGroup(
        lattice=lattice,
        elementary_divisors=divisors,
        generators=generators,
        snf_rows=tuple(tuple(row) for row in u),
        snf_slots=slots,
    )
    if group.order != order:
        raise AssertionError("Smith form inconsistent with |det Gram|")
    return group

