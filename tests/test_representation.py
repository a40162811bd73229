"""Property tests for the integer-numerator vector format of DualVector.

Every operation is compared with a per-coordinate Fraction oracle written
here, on random even Gram matrices and random rational coordinates.  The
discriminant forms q and b are checked against the pairings of DualVector
lifts.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heegnerlab.discriminant import discriminant_group
from heegnerlab.intlinalg import identity, kernel_basis, smith_normal_form
from heegnerlab.lattices import DualVector, build_named_lattice, make_lattice, orthogonal_complement

from conftest import bareiss_determinant, rational_rank

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def even_lattices(draw, max_rank=4):
    rank = draw(st.integers(1, max_rank))
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    try:
        return make_lattice(gram)
    except ValueError:  # degenerate
        assume(False)


def rationals():
    return st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


def coords_for(lattice):
    return st.lists(rationals(), min_size=lattice.rank, max_size=lattice.rank).map(tuple)


@st.composite
def lattice_with_vectors(draw):
    lattice = draw(even_lattices())
    return lattice, draw(coords_for(lattice)), draw(coords_for(lattice))


def oracle_pairing(gram, u, v):
    return sum(Fraction(u[i]) * gram[i][j] * Fraction(v[j]) for i in range(len(u)) for j in range(len(v)))


@PROPERTY
@given(lattice_with_vectors())
def test_coords_round_trip_and_lowest_terms(case):
    lattice, u, _ = case
    v = DualVector(lattice, u)
    assert v.coords == u
    assert all(type(x) is Fraction for x in v.coords)
    again = DualVector(lattice, v.coords)
    assert again == v and hash(again) == hash(v)
    scaled = DualVector.from_scaled(lattice, v.num, v.den)
    assert scaled == v and hash(scaled) == hash(v)
    assert v.den > 0
    assert all(x * v.den == n for x, n in zip(u, v.num))
    doubled = DualVector.from_scaled(lattice, [3 * x for x in v.num], 3 * v.den)
    assert (doubled.num, doubled.den) == (v.num, v.den)


@PROPERTY
@given(lattice_with_vectors())
def test_operations_match_fraction_oracle(case):
    lattice, u, w = case
    gram = lattice.gram
    a, b = DualVector(lattice, u), DualVector(lattice, w)
    assert a.pairing(b) == oracle_pairing(gram, u, w)
    assert a.norm() == oracle_pairing(gram, u, u)


@PROPERTY
@given(even_lattices())
def test_element_of_inverts_lift(lattice):
    group = discriminant_group(lattice)
    assume(group.order <= 200)
    for elem in group.elements():
        assert group.element_of(group.lift(elem)) == elem


@PROPERTY
@given(even_lattices())
def test_generator_lifts_are_the_smith_columns(lattice):
    group = discriminant_group(lattice)
    s, _, v = smith_normal_form(lattice.gram)
    slots = [i for i in range(lattice.rank) if s[i][i] > 1]
    units = identity(len(slots))
    for i, unit in zip(slots, units):
        gen = group.lift(unit)
        assert gen == DualVector.from_scaled(lattice, [row[i] for row in v], s[i][i])
        assert gen.den == s[i][i]


@PROPERTY
@given(even_lattices(), st.data())
def test_q_and_b_match_lift_pairings(lattice, data):
    group = discriminant_group(lattice)
    elements = st.tuples(*(st.integers(-2 * s, 2 * s) for s in group.elementary_divisors))
    x, y = data.draw(elements), data.draw(elements)
    assert group.q(x) == (group.lift(x).norm() / 2) % 1
    assert group.b(x, y) == group.lift(x).pairing(group.lift(y)) % 1


@PROPERTY
@given(even_lattices(), st.data())
def test_orthogonal_complement_gram_is_the_pairing_table(lattice, data):
    vector = st.lists(st.integers(-4, 4), min_size=lattice.rank, max_size=lattice.rank)
    vectors = data.draw(st.lists(vector, max_size=lattice.rank))
    try:
        complement, basis = orthogonal_complement(lattice, vectors)
    except ValueError as exc:
        # Refused only when the kernel's Gram really is singular.
        units = identity(lattice.rank)
        kernel = kernel_basis([[lattice.pairing(v, e) for e in units] for v in vectors])
        gram = [[lattice.pairing(a, b) for b in kernel] for a in kernel]
        assert bareiss_determinant(gram) == 0
        assert f"nullity {len(kernel) - rational_rank(gram)}" in str(exc)
        return
    assert all(lattice.pairing(v, b) == 0 for v in vectors for b in basis)
    assert complement.rank == len(basis)
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            assert complement.gram[i][j] == lattice.pairing(bi, bj)


def test_element_of_inverts_lift_rank_one():
    for d in range(2, 201, 2):
        group = discriminant_group(build_named_lattice("rank1", d))
        assert [group.element_of(group.lift(e)) for e in group.elements()] == list(group.elements())


def test_integral_coords_share_fraction_objects():
    e8 = build_named_lattice("E8")
    u = DualVector.from_scaled(e8, (1, -2, 0, 3, 0, 0, 0, 1))
    w = DualVector.from_scaled(e8, (1, -2, 0, 3, 0, 0, 0, 1))
    assert all(x is y for x, y in zip(u.coords, w.coords))


def test_constructor_rejects_bad_input():
    a2 = build_named_lattice("A2")
    with pytest.raises(ValueError, match="rank"):
        DualVector(a2, (1, 2, 3))
    with pytest.raises(ValueError, match="integers or Fractions"):
        DualVector(a2, (0.5, 1))
    with pytest.raises(ValueError, match="positive"):
        DualVector.from_scaled(a2, (1, 1), 0)
