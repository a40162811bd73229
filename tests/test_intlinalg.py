import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heegnerlab.enumeration import first_primitive_vector
from heegnerlab.intlinalg import (
    _hermite_row_basis,
    _row_kernel,
    hermite_row_basis,
    identity,
    kernel_basis,
    smith_normal_form,
    symmetric_invariants,
)
from heegnerlab.lattices import NAMED_LATTICES, build_named_lattice

from conftest import (
    bareiss_determinant,
    fraction_determinant,
    invert_rational,
    rational_rank,
    symmetric_signature,
    unaugmented_smith_normal_form,
)


def test_bareiss_small_cases():
    assert bareiss_determinant([]) == 1
    assert bareiss_determinant([[7]]) == 7
    assert bareiss_determinant([[2, -1], [-1, 2]]) == 3
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0


def test_fraction_determinant():
    assert fraction_determinant([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == Fraction(1, 6)
    assert fraction_determinant([]) == 1


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def test_smith_normal_form_properties():
    rng = random.Random(11)
    for _ in range(200):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-8, 8) for _ in range(m)] for _ in range(n)]
        s, u, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == s
        assert abs(bareiss_determinant(u)) == 1
        assert abs(bareiss_determinant(v)) == 1
        diag = [s[i][i] for i in range(min(n, m))]
        assert all(s[i][j] == 0 for i in range(n) for j in range(m) if i != j)
        assert all(d >= 0 for d in diag)
        nz = [d for d in diag if d]
        assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))


@st.composite
def integer_matrices(draw):
    """n x m integer matrices (n in 0..6, m in 1..6) with entries up to
    1, 10 or 10^6 in absolute value, some rows and columns zeroed."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    bound = draw(st.sampled_from((1, 10, 10**6)))
    a = [[draw(st.integers(-bound, bound)) for _ in range(m)] for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)) if n else ():
        a[i] = [0] * m
    for j in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        for row in a:
            row[j] = 0
    return a


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(integer_matrices())
def test_smith_normal_form_matches_the_unaugmented_oracle(a):
    assert smith_normal_form(a) == unaugmented_smith_normal_form(a)


def test_smith_normal_form_matches_the_oracle_on_named_grams():
    examples = {"rank1": (14,), "Lambda_HK_prim": (7, 2), "Lambda_d": (14,)}
    for name in NAMED_LATTICES:
        gram = build_named_lattice(name, *examples.get(name, ())).gram
        assert smith_normal_form(gram) == unaugmented_smith_normal_form(gram)


def test_ragged_rows_are_refused():
    for ragged in ([[1, 2], [3]], [[2], [3, 4]], [[0], [3, 4]]):
        for fn in (smith_normal_form, kernel_basis, hermite_row_basis):
            with pytest.raises(ValueError, match="rows must have one length"):
                fn(ragged)


def test_elementary_divisors_examples():
    for mat, diagonal in (([[2, 0], [0, 3]], [1, 6]), ([[1, 0], [0, 1]], [1, 1]), ([[2, 0], [0, 2]], [2, 2])):
        s, _, _ = smith_normal_form(mat)
        assert [s[0][0], s[1][1]] == diagonal


def test_kernel_basis_is_saturated_kernel():
    rng = random.Random(5)
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        a = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        basis = kernel_basis(a)
        for vec in basis:
            assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in a)
        assert len(basis) == m - rational_rank(a)
        if basis:
            assert hermite_row_basis(basis) == basis
            assert rational_rank(basis) == len(basis)
            s, _, _ = smith_normal_form(basis)
            assert all(s[i][i] == 1 for i in range(len(basis)))


def _augmented_row_kernel(r):
    """The kernel of one row through the general route: the HNF of the rows (r_j, e_j)."""
    rows = [[x] + unit for x, unit in zip(r, identity(len(r)))]
    return [row[1:] for row in _hermite_row_basis(rows) if not row[0]]


@st.composite
def kernel_rows(draw):
    """One integer row of length 1..10: entries up to 10^12, a zero, negative
    or positive last entry, and sometimes a common factor."""
    m = draw(st.integers(1, 10))
    bound = draw(st.sampled_from([0, 1, 3, 100, 10**12]))
    row = draw(st.lists(st.integers(-bound, bound), min_size=m, max_size=m))
    row[-1] = draw(st.sampled_from([0, 1, -1])) * draw(st.integers(1, max(bound, 1)))
    factor = draw(st.sampled_from([1, 1, 2, 6, 10**6]))
    return [x * factor for x in row]


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(kernel_rows())
def test_one_row_kernel_matches_the_augmented_hnf(r):
    assert _row_kernel(r) == _augmented_row_kernel(r)


def test_one_row_kernel_matches_the_augmented_hnf_on_edge_and_e8_rows():
    for m in range(1, 11):
        assert _row_kernel([0] * m) == _augmented_row_kernel([0] * m) == identity(m)
    e8 = build_named_lattice("E8")
    rng = random.Random(28)
    for d in [2, 4, 6, 2 * 10**6, *(2 * rng.randint(1, 10**6) for _ in range(200))]:
        w = first_primitive_vector(e8, d)
        r = [sum(x * y for x, y in zip(row, w)) for row in e8.gram]
        assert _row_kernel(r) == _augmented_row_kernel(r) == kernel_basis([r])


def test_hermite_row_basis_canonical():
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randint(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(rng.randint(1, 4))]
        h1 = hermite_row_basis(rows)
        assert hermite_row_basis(h1) == h1
        shuffled = [row[:] for row in rows]
        rng.shuffle(shuffled)
        if len(shuffled) > 1:
            shuffled[0] = [x + 2 * y for x, y in zip(shuffled[0], shuffled[1])]
            shuffled[1] = [-x for x in shuffled[1]]
        assert hermite_row_basis(shuffled) == h1


def test_invert_rational_identity():
    inv = invert_rational([[2, -1], [-1, 2]])
    assert inv == [[Fraction(2, 3), Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 3)]]


def test_signature_cases():
    assert symmetric_signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert symmetric_signature([[2, 1], [1, 2]]) == (2, 0, 0)
    assert symmetric_signature([[-2]]) == (0, 1, 0)
    assert symmetric_signature([[0, 0], [0, 0]]) == (0, 0, 2)


def test_symmetric_invariants_cases():
    assert symmetric_invariants([]) == (0, 0, 0, 1)
    assert symmetric_invariants([[0, 1], [1, 0]]) == (1, 1, 0, -1)
    assert symmetric_invariants([[2, 1], [1, 2]]) == (2, 0, 0, 3)
    assert symmetric_invariants([[-2]]) == (0, 1, 0, -2)
    assert symmetric_invariants([[0, 0], [0, 0]]) == (0, 0, 2, 0)
    # Zero diagonal throughout: U + U needs the congruence step twice.
    u2 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    assert symmetric_invariants(u2) == (2, 2, 0, 1)
    assert type(symmetric_invariants([[2, -1], [-1, 2]])[3]) is int
    # integral values of other types are integers; a half is refused by name
    assert symmetric_invariants([[2.0, -1], [-1, Fraction(2)]]) == (2, 0, 0, 3)
    assert type(symmetric_invariants([[2.0, -1.0], [-1.0, 2.0]])[3]) is int
    with pytest.raises(ValueError, match="entry must be an integer, got 1/2"):
        symmetric_invariants([[Fraction(1, 2), 0], [0, 1]])


def test_symmetric_invariants_rejects_non_symmetric():
    for bad in ([[1, 2]], [[1, 2], [0, 1]], [[1], [1, 1]]):
        with pytest.raises(ValueError, match="square and symmetric"):
            symmetric_invariants(bad)


def _symmetric(n, entry):
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            mat[i][j] = mat[j][i] = entry(i, j)
    return mat


ENTRIES = st.integers(-6, 6)
U_U_A2 = [
    [0, 1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 2, -1],
    [0, 0, 0, 0, -1, 2],
]


@st.composite
def symmetric_integer_matrices(draw):
    """Symmetric integer matrices up to 8x8 of four kinds: generic, singular
    (B D B^T of lower rank), zero diagonal, and unimodular congruences of
    U + U + A2."""
    kind = draw(st.sampled_from(("generic", "singular", "zero_diagonal", "congruent")))
    n = draw(st.integers(0, 8)) if kind != "congruent" else 6
    if kind == "generic":
        return _symmetric(n, lambda i, j: draw(ENTRIES))
    if kind == "zero_diagonal":
        return _symmetric(n, lambda i, j: 0 if i == j else draw(ENTRIES))
    if kind == "singular":
        r = draw(st.integers(0, max(n - 1, 0)))
        b = [[draw(st.integers(-2, 2)) for _ in range(r)] for _ in range(n)]
        d = [draw(ENTRIES) for _ in range(r)]
        return _symmetric(n, lambda i, j: sum(b[i][k] * d[k] * b[j][k] for k in range(r)))
    m = [row[:] for row in U_U_A2]
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, 5)), draw(st.integers(0, 5))
        c = draw(st.integers(-2, 2))
        if i != j:  # e_i -> e_i + c e_j on rows, then on columns
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
            for row in m:
                row[i] += c * row[j]
    return m


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(symmetric_integer_matrices())
def test_symmetric_invariants_match_the_fraction_oracles(mat):
    p, q, z, det = symmetric_invariants(mat)
    assert (p, q, z) == symmetric_signature(mat)
    assert det == fraction_determinant(mat)
    assert p + q == rational_rank(mat)


def test_non_integer_entries_are_refused():
    with pytest.raises(ValueError, match="entry must be an integer, got 2.5"):
        smith_normal_form([[2.5, 0], [0, 3]])
    with pytest.raises(ValueError, match="entry must be an integer, got 1.5"):
        hermite_row_basis([[1.5, 2]])
    with pytest.raises(ValueError, match="entry must be an integer, got 1/2"):
        smith_normal_form([[Fraction(1, 2)]])
    with pytest.raises(ValueError, match=r"entry must be an integer, got True \(bool\)"):
        smith_normal_form([[True]])
    with pytest.raises(ValueError, match="entry must be an integer, got 0.5"):
        kernel_basis([[0.5, 1]])
    assert smith_normal_form([[2.0, 0], [0, 3]])[0] == [[1, 0], [0, 6]]
    assert hermite_row_basis([[Fraction(2), 4.0]]) == [[2, 4]]
