"""Even integral lattices: construction, dual vectors, orthogonal complements.

A lattice is presented by its Gram matrix of intersection numbers in a fixed
basis.  All arithmetic is exact; signatures and determinants come from one
fraction-free symmetric elimination in integers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Sequence

from .intlinalg import (
    _eliminate,
    _kernel_basis,
    checked_even,
    checked_instance,
    checked_int,
    checked_row,
    checked_rows,
    identity,
    mat_vec,
    symmetric_invariants,
)

IntVector = tuple[int, ...]
Gram = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class IntegerLattice:
    """Even integral lattice: Gram matrix, inertia counts and determinant."""

    gram: Gram
    signature: tuple[int, int]
    det: int
    name: str | None = None

    @property
    def rank(self) -> int:
        return len(self.gram)

    def checked_vector(self, v, name: str = "vector") -> IntVector:
        """v as a tuple of ints, one per basis vector; ValueError naming `name` otherwise."""
        row = checked_row(v, name)
        if len(row) != self.rank:
            raise ValueError(f"{name} of length {len(row)} in a lattice of rank {self.rank}")
        return tuple(x if type(x) is int else checked_int(x, f"{name} entry") for x in row)

    def pairing(self, u: Sequence[int], v: Sequence[int]) -> int:
        """Intersection pairing of two lattice vectors in basis coordinates."""
        u, v = self.checked_vector(u), self.checked_vector(v)
        return sum(a * b for a, b in zip(u, mat_vec(self.gram, v)))

    def to_jsonable(self) -> dict:
        doc = {}
        if self.name is not None:
            doc["name"] = self.name
        doc["gram"] = [list(row) for row in self.gram]
        doc["signature"] = list(self.signature)
        return doc


def checked_lattice(x, name: str = "lattice") -> IntegerLattice:
    """x itself; ValueError naming `name` unless x is an IntegerLattice."""
    return checked_instance(x, IntegerLattice, name)


# Integral coordinates share these Fractions, so reading `.coords` of a
# lattice vector allocates one tuple and no Fraction.
_SMALL_INT = 64
_SMALL_FRACTIONS = tuple(Fraction(i) for i in range(-_SMALL_INT, _SMALL_INT + 1))


def _coord(x: int, den: int) -> Fraction:
    if x % den == 0 and -_SMALL_INT <= x // den <= _SMALL_INT:
        return _SMALL_FRACTIONS[x // den + _SMALL_INT]
    return Fraction(x, den)


@dataclass(frozen=True, slots=True, init=False)
class DualVector:
    """Rational vector in the span of a lattice, in lattice-basis coordinates.

    Stored as integer numerators `num` over one positive denominator `den`,
    in lowest terms, so equal vectors have equal fields.  Pairings and norms
    run in integers; `.coords` is the Fraction view.
    """

    lattice: IntegerLattice
    num: IntVector
    den: int

    def __init__(self, lattice: IntegerLattice, coords: Iterable) -> None:
        coords = checked_row(coords, "dual vector coordinates")
        if any(isinstance(x, (float, bool)) for x in coords):  # checked_row admits both
            raise ValueError(f"dual vector coordinates must be integers or Fractions, got {tuple(coords)}")
        den = lcm(*(int(x.denominator) for x in coords))
        num = (int(x.numerator) * (den // int(x.denominator)) for x in coords)
        _set_num(self, checked_lattice(lattice).checked_vector(num))
        _set_lattice(self, lattice)
        _set_den(self, den)

    @classmethod
    def from_scaled(cls, lattice: IntegerLattice, num: Iterable[int], den: int = 1) -> "DualVector":
        """The vector num / den, for integer numerators and a positive den."""
        num = checked_lattice(lattice).checked_vector(num, "num")
        return cls._reduced(lattice, num, checked_int(den, "denominator", 1))

    @classmethod
    def _reduced(cls, lattice: IntegerLattice, num: Iterable[int], den: int) -> "DualVector":
        """Trusted constructor of num / den, for integers num (one per basis vector) and den > 0."""
        num = tuple(num)
        g = gcd(den, *num)
        if g > 1:
            num, den = tuple(x // g for x in num), den // g
        return cls._of(lattice, num, den)

    @classmethod
    def _of(cls, lattice: IntegerLattice, num: IntVector, den: int) -> "DualVector":
        """Trusted constructor: num has one entry per basis vector and
        gcd(den, *num) = 1 already."""
        vec = _new(cls)
        _set_lattice(vec, lattice)
        _set_num(vec, num)
        _set_den(vec, den)
        return vec

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(_coord(x, self.den) for x in self.num)

    def pairing(self, other: DualVector) -> Fraction:
        """Pairing with a vector of the same lattice."""
        other = checked_dual(other, self.lattice, "other")
        gv = mat_vec(self.lattice.gram, other.num)
        return Fraction(sum(a * b for a, b in zip(self.num, gv)), self.den * other.den)

    def norm(self) -> Fraction:
        return self.pairing(self)


# The slot descriptors fill the frozen fields without the name lookup of
# object.__setattr__; enumeration builds one vector per lattice point.
_new = object.__new__
_set_lattice, _set_num, _set_den = (DualVector.__dict__[f].__set__ for f in ("lattice", "num", "den"))


def checked_dual(v, lattice: IntegerLattice, name: str) -> DualVector:
    """v itself; ValueError naming `name` unless v is a DualVector of `lattice`."""
    if checked_instance(v, DualVector, name).lattice is not lattice and v.lattice != lattice:
        raise ValueError(f"{name} is a vector of another lattice; vectors of different lattices do not mix")
    return v


def make_lattice(gram: Iterable[Iterable[int]], name: str | None = None) -> IntegerLattice:
    """Build a lattice from an integer Gram matrix, validating evenness."""
    rows = tuple(tuple(map(checked_int, row)) for row in checked_rows(gram, "gram"))
    p, q, z, det = symmetric_invariants(rows)
    for i, row in enumerate(rows):
        if row[i] % 2 != 0:
            raise ValueError(f"diagonal entry {row[i]} at position {i} is odd; lattice must be even")
    if z:
        raise ValueError("Gram matrix is degenerate")
    return IntegerLattice(gram=rows, signature=(p, q), det=det, name=name)


U_GRAM = ((0, 1), (1, 0))
A1_GRAM = ((2,),)
A2_GRAM = ((2, -1), (-1, 2))
E8_GRAM = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)


# Lattices without parameters, as their direct summands in layout order.
_FIXED_BLOCKS = {
    "U": (U_GRAM,),
    "A1": (A1_GRAM,),
    "A2": (A2_GRAM,),
    "E8": (E8_GRAM,),
    "Lambda_C": (A2_GRAM, U_GRAM, U_GRAM, E8_GRAM, E8_GRAM),
    "Lambda_GM": (A1_GRAM, A1_GRAM, E8_GRAM, E8_GRAM, U_GRAM, U_GRAM),
    "Lambda_HK": (A1_GRAM, U_GRAM, U_GRAM, U_GRAM, E8_GRAM, E8_GRAM),
    "Lambda_sharp": (E8_GRAM, E8_GRAM, E8_GRAM, U_GRAM, U_GRAM),
}

# Every named lattice with its parameters, in order.  A built lattice is
# named by one tag rule: `name`, or `name(p1,p2,...)` with the parameters in
# decimal; `named_lattice` is the inverse.
NAMED_LATTICES = {
    **dict.fromkeys(_FIXED_BLOCKS, ()),
    "rank1": ("d",),
    "Lambda_HK_prim": ("n", "delta"),
    "Lambda_d": ("d",),
}


# Bound on each lattice cache; a sweep touches a dozen named lattices.
CACHE_SIZE = 32


def build_named_lattice(name: str, *params: int) -> IntegerLattice:
    """Construct one of the standard lattices by name.

    Parametrized names: ``rank1(d)`` and ``Lambda_d(d)`` take an even d > 0;
    ``Lambda_HK_prim(n, delta)`` takes n > 0 and delta in {1, 2}, where
    delta = 2 additionally requires n = 3 (mod 4).  Direct summands are laid
    out block-diagonally in the conventional order.  Block signatures add and
    determinants multiply, so composite builds skip the symmetric elimination.
    """
    takes = NAMED_LATTICES.get(name) if isinstance(name, str) else None
    if takes is None:
        raise ValueError(f"unknown lattice name {name!r}; expected one of {', '.join(NAMED_LATTICES)}")
    if not takes and params:
        raise ValueError(f"{name} takes no parameters")
    if len(params) != len(takes):
        raise ValueError(f"{name} requires {len(takes)} integer parameter(s), got {len(params)}")
    return _build(name, *map(checked_int, params, takes))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _build(name: str, *params: int) -> IntegerLattice:
    """build_named_lattice for a known name and checked integer parameters."""
    tag = f"{name}({','.join(map(str, params))})" if params else name
    if name in _FIXED_BLOCKS:
        return _assemble(tag, _FIXED_BLOCKS[name])
    if name == "Lambda_HK_prim":
        n, delta = params
        if n <= 0:
            raise ValueError("Lambda_HK_prim requires n > 0")
        if delta == 1:
            tail: Gram = ((2, 0), (0, 2 * n))
        elif delta == 2:
            if n % 4 != 3:
                raise ValueError("Lambda_HK_prim with delta=2 requires n = 3 (mod 4)")
            tail = ((2, 1), (1, (n + 1) // 2))
        else:
            raise ValueError("delta must be 1 or 2")
        return _assemble(tag, [U_GRAM, U_GRAM, E8_GRAM, E8_GRAM, tail])
    d = checked_even(params[0])
    if name == "rank1":
        return make_lattice(((d,),), name=tag)
    return _assemble(tag, [E8_GRAM, E8_GRAM, U_GRAM, U_GRAM, ((d,),)])


def named_lattice(tag: str) -> IntegerLattice:
    """The named lattice whose `.name` is `tag`; inverse of build_named_lattice.

    Raises ValueError for any string that is not exactly a built lattice's
    tag, such as ``Lambda_d( 14)``, ``Lambda_d(014)`` or ``E8()``.
    """
    name, paren, inside = checked_instance(tag, str, "lattice tag").partition("(")
    params = inside.removesuffix(")").split(",") if paren else ()
    if not all(p.isdecimal() for p in params):
        raise ValueError(f"malformed lattice tag {tag!r}")
    lattice = build_named_lattice(name, *map(int, params))
    if lattice.name != tag:
        raise ValueError(f"malformed lattice tag {tag!r}; the lattice is tagged {lattice.name!r}")
    return lattice


def _assemble(name: str, blocks: Sequence[Gram]) -> IntegerLattice:
    return replace(direct_sum(*(make_lattice(b) for b in blocks)), name=name)


def direct_sum(*lattices: IntegerLattice) -> IntegerLattice:
    """Block-diagonal sum, in argument order; signatures add, determinants multiply."""
    size = sum(checked_lattice(l).rank for l in lattices)
    gram, offset = [], 0
    for l in lattices:
        gram += [(0,) * offset + tuple(row) + (0,) * (size - offset - l.rank) for row in l.gram]
        offset += l.rank
    p = sum(l.signature[0] for l in lattices)
    q = sum(l.signature[1] for l in lattices)
    return IntegerLattice(gram=tuple(gram), signature=(p, q), det=prod(l.det for l in lattices))


def orthogonal_complement(
    lattice: IntegerLattice, vectors: Sequence[Sequence[int]]
) -> tuple[IntegerLattice, list[IntVector]]:
    """Orthogonal complement of a set of lattice vectors.

    Returns the complement with its induced Gram matrix together with a basis
    expressed in ambient coordinates.  The integer kernel of the pairing map
    is saturated, so the complement is a primitive sublattice.  A complement
    whose induced Gram is degenerate (possible in an indefinite lattice) is
    not a lattice here, so it raises ValueError naming the nullity.
    """
    check = checked_lattice(lattice).checked_vector
    vecs = [check(v) for v in checked_rows(vectors, "vectors")]
    if not vecs:
        return lattice, [tuple(row) for row in identity(lattice.rank)]
    pairing_rows = [mat_vec(lattice.gram, v) for v in vecs]
    basis = _kernel_basis(pairing_rows)
    images = [mat_vec(lattice.gram, b) for b in basis]
    induced = [[0] * len(basis) for _ in basis]
    for i, bi in enumerate(basis):
        for j in range(i, len(basis)):
            induced[i][j] = induced[j][i] = sum(map(mul, bi, images[j]))
    gram = tuple(map(tuple, induced))
    p, z, det = _eliminate(induced)  # an integer symmetric matrix built here, so no re-check
    if z:
        raise ValueError(f"the orthogonal complement is degenerate: its Gram has nullity {z}")
    result = IntegerLattice(gram=gram, signature=(p, len(gram) - p), det=det)
    return result, [tuple(b) for b in basis]
