"""Indexing of Heegner divisors and Kudla special cycles.

Covers the cubic-fourfold coset rule, the Gushel-Mukai labelling Gram
matrices with their residue vectors, the hyperkaehler index formula, and the
rank-7 moment-matrix embedding into the unimodular (26, 2) lattice.  The
Hilbert-square route C(n) of a certificate is a square witness of
`bounds.case_c` read through `hk_heegner_index(n, 1, d)`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from numbers import Rational
from typing import ClassVar

from .enumeration import first_primitive_vector
from .intlinalg import checked_even, checked_int
from .lattices import CACHE_SIZE, build_named_lattice, named_lattice, orthogonal_complement
from .discriminant import discriminant_group

Gram = tuple[tuple[int, ...], ...]


@functools.lru_cache(maxsize=CACHE_SIZE)
def _tag_level(tag: str) -> int:
    return discriminant_group(named_lattice(tag)).level


@dataclass(frozen=True)
class HeegnerIndex:
    """Index (n, gamma) of a Heegner divisor on the tagged period lattice."""

    n: Fraction
    gamma: str
    lattice_tag: str

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, Rational):
            raise ValueError(f"index n must be a rational number, got {self.n!r}")
        if not isinstance(self.gamma, str):
            raise ValueError(f"gamma must be a string label, got {self.gamma!r}")
        if not isinstance(self.lattice_tag, str):
            raise ValueError(f"lattice_tag must be a string, got {self.lattice_tag!r}")
        level = _tag_level(self.lattice_tag)
        if (self.n * level).denominator != 1:
            raise ValueError(
                f"index {self.n} is not in (1/{level})Z for {self.lattice_tag}; the divisor class vanishes"
            )

    def to_jsonable(self) -> dict:
        return {"n": str(self.n), "gamma": self.gamma, "lattice": self.lattice_tag}


@dataclass(frozen=True)
class LabellingWitness:
    """Labelling Gram with a residue vector and its verified identities.

    The checks close inside the 3x3 Gram algebra of the labelling; no
    ambient embedding is involved.
    """

    gram: Gram
    residue_vector: tuple[Fraction, ...]
    checks: dict

    def to_jsonable(self) -> dict:
        return {
            "gram": [list(row) for row in self.gram],
            "residue_vector": [str(x) for x in self.residue_vector],
            "checks": {k: (str(v) if isinstance(v, Fraction) else v) for k, v in self.checks.items()},
        }


@dataclass(frozen=True)
class HKIndexFamily:
    """Heegner-divisor index bound for the hyperkaehler families.

    gamma ranges over the whole discriminant group, so the record carries the
    marker "all" rather than a single coset.
    """

    index: Fraction
    n: int
    delta: int
    d: int
    disc: int
    norm_vv: Fraction
    lattice_tag: str
    gamma: ClassVar[str] = "all"

    def to_jsonable(self) -> dict:
        return {
            "n": str(self.index),
            "gamma": self.gamma,
            "lattice": self.lattice_tag,
            "target_n": self.n,
            "delta": self.delta,
            "d": self.d,
            "disc": self.disc,
            "norm_vv": str(self.norm_vv),
        }


@dataclass(frozen=True)
class EmbeddingWitness:
    """Primitive embedding of the degree-d K3 lattice into the (26,2) one."""

    d: int
    image_basis: tuple[tuple[int, ...], ...]
    complement_basis: tuple[tuple[int, ...], ...]
    complement_gram: Gram
    det_lhs: Fraction
    det_rhs: Fraction
    image_primitive: bool

    @property
    def det_check_passed(self) -> bool:
        return self.det_lhs == self.det_rhs

    def to_jsonable(self) -> dict:
        return {
            "d": self.d,
            "image_basis": [list(v) for v in self.image_basis],
            "complement_gram": [list(row) for row in self.complement_gram],
            # T = G / 2; orthogonal_complement refuses a degenerate G, so T has full rank
            "moment": {
                "entries": [[str(Fraction(x, 2)) for x in row] for row in self.complement_gram],
                "rank": len(self.complement_gram),
            },
            "det_check": {
                "lhs": str(self.det_lhs),
                "rhs": str(self.det_rhs),
                "pass": self.det_check_passed,
            },
        }


def cubic_heegner_index(d: int) -> HeegnerIndex:
    """Coset rule for the cubic-fourfold locus of discriminant d."""
    d = checked_int(d, "d", 1)
    r = d % 6
    if r not in (0, 2):
        raise ValueError(
            f"d = {d} has d = {r} (mod 6); the locus is nonempty only for d = 0 or 2 (mod 6)"
        )
    gamma = "gamma0" if r == 0 else "gamma1"
    return HeegnerIndex(n=Fraction(d, 6), gamma=gamma, lattice_tag="Lambda_C")


def _gm_labellings(d: int) -> tuple[tuple[Gram, tuple[Fraction, ...], str], ...]:
    """One (Gram, residue vector, gamma) triple per labelling orbit of the
    Gushel-Mukai locus of a checked positive discriminant d.

    The residue vector is in (h1, h2, zeta)-coordinates, and its -1/2
    coefficients name the residue class: on h1 for e*, on h2 for f*, on
    both for e*+f*, on neither for 0.  d = 0 or 4 (mod 8) has one orbit,
    d = 2 (mod 8) two.
    """
    r = d % 8
    half, zero, one = Fraction(-1, 2), Fraction(0), Fraction(1)
    if r == 0:
        return ((((2, 0, 0), (0, 2, 0), (0, 0, d // 4)), (zero, zero, one), "0"),)
    if r == 4:
        return ((((2, 0, 1), (0, 2, 1), (1, 1, (d + 4) // 4)), (half, half, one), "e*+f*"),)
    if r == 2:
        corner = (d + 2) // 4
        return (
            (((2, 0, 1), (0, 2, 0), (1, 0, corner)), (half, zero, one), "e*"),
            (((2, 0, 0), (0, 2, 1), (0, 1, corner)), (zero, half, one), "f*"),
        )
    raise ValueError(
        f"d = {d} has d = {r} (mod 8); the labelling exists only for d = 0, 2, or 4 (mod 8)"
    )


def _witness(gram: Gram, vec: tuple[Fraction, ...], d: int) -> LabellingWitness:
    gv = [sum(row[j] * vec[j] for j in range(3)) for row in gram]
    pair_h1 = gv[0]
    pair_h2 = gv[1]
    half_norm = sum(vec[i] * gv[i] for i in range(3)) / 2
    checks = {
        "<v,h1>": pair_h1,
        "<v,h2>": pair_h2,
        "half_norm": half_norm,
        "half_norm_equals_d_over_8": half_norm == Fraction(d, 8),
        "orthogonal": pair_h1 == 0 and pair_h2 == 0,
    }
    if not (checks["orthogonal"] and checks["half_norm_equals_d_over_8"]):
        raise AssertionError(f"labelling identities failed for d={d}: {checks}")
    return LabellingWitness(gram=gram, residue_vector=vec, checks=checks)


def gm_residue_vector(d: int) -> tuple[LabellingWitness, ...]:
    """Residue vectors in (h1, h2, zeta)-coordinates, with verified identities.

    The d = 2 (mod 8) case produces one vector per labelling orbit, each
    checked inside its own Gram matrix.
    """
    d = checked_int(d, "d", 1)
    return tuple(_witness(gram, vec, d) for gram, vec, _ in _gm_labellings(d))


def gm_heegner_index(d: int) -> tuple[HeegnerIndex, ...]:
    """Heegner indices for the Gushel-Mukai locus of discriminant d."""
    d = checked_int(d, "d", 1)
    return tuple(
        HeegnerIndex(n=Fraction(d, 8), gamma=gamma, lattice_tag="Lambda_GM")
        for _, _, gamma in _gm_labellings(d)
    )


def hk_heegner_index(n: int, delta: int, d: int) -> HKIndexFamily:
    """Heegner-divisor bound for the hyperkaehler locus of discriminant d.

    The index is d/(2N) with N the discriminant of the primitive cohomology
    lattice: N = 4n for split polarization (delta 1) and N = n for delta 2.
    gamma ranges over the whole discriminant group.
    """
    n, delta, d = checked_int(n, "n"), checked_int(delta, "delta"), checked_even(d)
    lattice = build_named_lattice("Lambda_HK_prim", n, delta)  # refuses n <= 0 and a bad delta
    big_n = 4 * n if delta == 1 else n
    return HKIndexFamily(
        index=Fraction(d, 2 * big_n),
        n=n,
        delta=delta,
        d=d,
        disc=big_n,
        norm_vv=Fraction(d, big_n),
        lattice_tag=lattice.name,
    )


# The image rows of E8 + E8 + U + U, which map identically onto Lambda_sharp.
_IMAGE_UNITS = tuple((0,) * i + (1,) + (0,) * (27 - i) for i in (*range(16), *range(24, 28)))


def embed_k3_lattice(d: int) -> EmbeddingWitness:
    """Primitive embedding of the degree-d K3 lattice, with moment identity.

    The two E8 summands and both hyperbolic planes map identically onto
    summands of the unimodular target; the rank-one part maps onto the
    lexicographically least primitive vector w of norm d in the spare E8
    block.  Those summands are unimodular, so the complement is w-perp inside
    the spare E8, padded with zeros to the 28 ambient coordinates, and the
    image is primitive iff gcd w = 1 (its Smith form is 1, ..., 1, gcd w).  The
    complement basis is an integer kernel basis of rank 7 in row-HNF; its
    moment matrix is the complement Gram G over 2, so det(T) = det G / 2^7 is
    read from the integer elimination the complement already ran and checked
    against d / 2^7 (Nikulin: disc of w-perp is w.w = d).
    """
    d = checked_even(d)
    e8 = build_named_lattice("E8")
    w = first_primitive_vector(e8, d)
    if w is None:
        raise ValueError(
            f"no primitive vector of norm {d} in E8 (searched the full norm-{d} ellipsoid)"
        )
    complement, spare = orthogonal_complement(e8, [w])
    basis = [(0,) * 16 + b + (0,) * 4 for b in spare]
    if len(basis) != 7:
        raise AssertionError(f"complement rank {len(basis)} != 7 for d={d}")
    return EmbeddingWitness(
        d=d,
        image_basis=(*_IMAGE_UNITS, (0,) * 16 + tuple(w) + (0,) * 4),
        complement_basis=tuple(basis),
        complement_gram=complement.gram,
        det_lhs=Fraction(complement.det, 2**7),
        det_rhs=Fraction(d, 2**7),
        image_primitive=gcd(*w) == 1,
    )
