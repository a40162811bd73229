"""Discriminant groups D(M) = M-dual / M with their finite quadratic forms.

The group is computed from an integer Smith normal form of the Gram matrix.
Transformation matrices are retained so that every generator carries an
explicit dual-vector lift; the quadratic form q and the pairing b are then
exact rational values mod 1, independent of the lift choice.

Elements are represented as tuples of residues against the elementary
divisors, which makes them canonical hash keys.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm, prod
from typing import Iterator, Sequence

from .intlinalg import identity, mat_vec, smith_normal_form
from .lattices import DualVector, IntegerLattice, gram_determinant

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
        full_table_cap: int = FULL_TABLE_CAP,
    ):
        self.lattice = lattice
        self.elementary_divisors = elementary_divisors
        self.generators = generators
        self.full_table_cap = full_table_cap
        self._snf_rows = snf_rows
        self._snf_slots = snf_slots
        self.order = prod(elementary_divisors)
        self._units = tuple(tuple(row) for row in identity(len(elementary_divisors)))
        self._lift_den = lcm(*(g.den for g in generators))
        self.gen_pairings = tuple(tuple(gi.pairing(gj) for gj in generators) for gi in generators)
        self._q_table: dict[Element, Fraction] | None = None
        self._b_table: dict[tuple[Element, Element], Fraction] | None = None
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
        return tuple(int(r) % s for r, s in zip(elem, self.elementary_divisors))

    def add(self, a: Sequence[int], b: Sequence[int]) -> Element:
        return tuple((x + y) % s for x, y, s in zip(self.reduce(a), self.reduce(b), self.elementary_divisors))

    def neg(self, a: Sequence[int]) -> Element:
        return tuple((-x) % s for x, s in zip(self.reduce(a), self.elementary_divisors))

    def q(self, elem: Sequence[int]) -> Fraction:
        """Quadratic value: half the self-pairing of any lift, mod 1."""
        r = self.reduce(elem)
        total = Fraction(0)
        for i, ri in enumerate(r):
            if ri == 0:
                continue
            total += Fraction(ri * ri, 2) * self.gen_pairings[i][i]
            for j in range(i + 1, len(r)):
                if r[j]:
                    total += ri * r[j] * self.gen_pairings[i][j]
        return total % 1

    def b(self, a: Sequence[int], other: Sequence[int]) -> Fraction:
        """Bilinear pairing of two elements, mod 1."""
        ra, rb = self.reduce(a), self.reduce(other)
        total = Fraction(0)
        for i, x in enumerate(ra):
            if x == 0:
                continue
            for j, y in enumerate(rb):
                if y:
                    total += x * y * self.gen_pairings[i][j]
        return total % 1

    def lift(self, elem: Sequence[int]) -> DualVector:
        """Explicit dual-vector lift of a group element."""
        num = [0] * self.lattice.rank
        for ri, g in zip(self.reduce(elem), self.generators):
            if ri:
                c = ri * (self._lift_den // g.den)
                num = [x + c * y for x, y in zip(num, g.num)]
        return DualVector.from_scaled(self.lattice, num, self._lift_den)

    def element_of(self, v: DualVector) -> Element:
        """Class of a dual vector in the group."""
        gv = mat_vec(self.lattice.gram, v.num)
        if any(x % v.den for x in gv):
            raise ValueError("vector is not in the dual lattice")
        image = mat_vec(self._snf_rows, [x // v.den for x in gv])
        return tuple(int(image[i]) % s for i, s in zip(self._snf_slots, self.elementary_divisors))

    @property
    def q_values(self) -> dict[Element, Fraction]:
        """Exact q-table: all elements when |D| fits the cap, else generators."""
        if self._q_table is None:
            if self.order <= self.full_table_cap:
                self._q_table = {elem: self.q(elem) for elem in self.elements()}
            else:
                self._q_table = {u: self.q(u) for u in self._units}
        return self._q_table

    @property
    def b_values(self) -> dict[tuple[Element, Element], Fraction]:
        """Pairing table mod 1: every pair when the table fits the cap,
        else generator pairs only.  Arbitrary pairs stay available via b()."""
        if self._b_table is None:
            if self.order**2 <= self.full_table_cap:
                elems = list(self.elements())
                self._b_table = {(x, y): self.b(x, y) for x in elems for y in elems}
            else:
                self._b_table = {(u, w): self.b(u, w) for u in self._units for w in self._units}
        return self._b_table

    @property
    def q_mode(self) -> str:
        return "full" if self.order <= self.full_table_cap else "generators-only"

    @property
    def level(self) -> int:
        """Smallest N > 0 with N*q integral on the whole group.

        By bilinearity the lcm of q-denominators over the generators and
        their pairwise sums bounds every q-denominator, and each of those
        denominators divides the level; hence the lcm equals the level.
        """
        if self._level is None:
            sums = (self.add(u, w) for u, w in itertools.combinations(self._units, 2))
            self._level = lcm(*(self.q(e).denominator for e in (*self._units, *sums)))
        return self._level

    def element_key(self, elem: Sequence[int]) -> str:
        return ",".join(str(x) for x in self.reduce(elem))

    def to_jsonable(self) -> dict:
        return {
            "divisors": list(self.elementary_divisors),
            "q": {self.element_key(e): str(v) for e, v in self.q_values.items()},
        }


def discriminant_group(
    lattice: IntegerLattice,
    full_table_cap: int | None = None,
    hard_cap: int | None = None,
) -> DiscriminantGroup:
    """Compute D(M) with generator lifts via Smith normal form of the Gram."""
    det = gram_determinant(lattice)
    if det == 0:
        raise ValueError("discriminant group requires a nondegenerate Gram matrix")
    order = abs(det)
    full_cap = FULL_TABLE_CAP if full_table_cap is None else int(full_table_cap)
    hard = HARD_CAP if hard_cap is None else int(hard_cap)
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
        full_table_cap=full_cap,
    )
    if group.order != order:
        raise AssertionError("Smith form inconsistent with |det Gram|")
    return group


def level(lattice: IntegerLattice) -> int:
    return discriminant_group(lattice).level
