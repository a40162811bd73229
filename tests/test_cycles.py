import dataclasses
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heegnerlab.cycles import (
    HKIndexFamily,
    HeegnerIndex,
    cubic_heegner_index,
    embed_k3_lattice,
    gm_heegner_index,
    gm_residue_vector,
    hk_heegner_index,
)
from heegnerlab.discriminant import discriminant_group
from heegnerlab.intlinalg import identity, smith_normal_form, symmetric_invariants
from heegnerlab.lattices import DualVector, build_named_lattice, make_lattice, orthogonal_complement

from conftest import (
    bareiss_determinant,
    fraction_determinant,
    invert_rational,
    moment_matrix,
    rational_rank,
    symmetric_signature,
)


def test_cubic_index_examples():
    idx = cubic_heegner_index(12)
    assert (idx.n, idx.gamma, idx.lattice_tag) == (Fraction(2), "gamma0", "Lambda_C")
    idx = cubic_heegner_index(14)
    assert (idx.n, idx.gamma) == (Fraction(7, 3), "gamma1")
    with pytest.raises(ValueError, match="mod 6"):
        cubic_heegner_index(7)
    with pytest.raises(ValueError, match="positive"):
        cubic_heegner_index(0)


def test_cubic_indices_live_in_third_integers():
    for d in range(2, 301):
        if d % 6 in (0, 2):
            idx = cubic_heegner_index(d)
            assert (idx.n * 3).denominator == 1


def test_gm_labelling_grams():
    (k8,) = (w.gram for w in gm_residue_vector(8))
    assert k8 == ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    (k12,) = (w.gram for w in gm_residue_vector(12))
    assert k12 == ((2, 0, 1), (0, 2, 1), (1, 1, 4))
    kp, kpp = (w.gram for w in gm_residue_vector(10))
    assert kp == ((2, 0, 1), (0, 2, 0), (1, 0, 3))
    assert kpp == ((2, 0, 0), (0, 2, 1), (0, 1, 3))
    with pytest.raises(ValueError, match="mod 8"):
        gm_residue_vector(6)


def test_gm_labelling_discriminants():
    for d in range(8, 400):
        if d % 8 in (0, 2, 4):
            for w in gm_residue_vector(d):
                assert bareiss_determinant(w.gram) == d


def test_gm_residue_vectors_examples():
    (w16,) = gm_residue_vector(16)
    assert w16.residue_vector == (0, 0, 1)
    assert w16.checks["half_norm"] == 2
    (w12,) = gm_residue_vector(12)
    assert w12.residue_vector == (Fraction(-1, 2), Fraction(-1, 2), 1)
    assert w12.checks["half_norm"] == Fraction(3, 2)
    wp, wpp = gm_residue_vector(10)
    assert wp.residue_vector == (Fraction(-1, 2), 0, 1)
    assert wp.checks["half_norm"] == Fraction(5, 4)
    assert wpp.residue_vector == (0, Fraction(-1, 2), 1)


def test_gm_residue_identities_sweep():
    for d in range(8, 1001):
        if d % 8 not in (0, 2, 4):
            continue
        witnesses = gm_residue_vector(d)
        for w in witnesses:
            assert w.checks["<v,h1>"] == 0
            assert w.checks["<v,h2>"] == 0
            assert w.checks["half_norm"] == Fraction(d, 8)
        if d % 8 == 2:
            diff = tuple(a - b for a, b in zip(witnesses[0].residue_vector, witnesses[1].residue_vector))
            assert diff == (Fraction(-1, 2), Fraction(1, 2), 0)
            assert any(x.denominator != 1 for x in diff)


def test_gm_heegner_indices():
    (i16,) = gm_heegner_index(16)
    assert (i16.n, i16.gamma) == (Fraction(2), "0")
    pair = gm_heegner_index(10)
    assert [(i.n, i.gamma) for i in pair] == [(Fraction(5, 4), "e*"), (Fraction(5, 4), "f*")]
    (i12,) = gm_heegner_index(12)
    assert (i12.n, i12.gamma) == (Fraction(3, 2), "e*+f*")
    for d in range(8, 500):
        if d % 8 in (0, 2, 4):
            for idx in gm_heegner_index(d):
                assert (idx.n * 4).denominator == 1


def test_gm_gamma_is_the_half_pattern_of_the_residue_vector():
    """-1/2 on h1 is e*, on h2 is f*, on both e*+f*, on neither 0."""
    labels = {(False, False): "0", (True, False): "e*", (False, True): "f*", (True, True): "e*+f*"}
    for d in range(2, 2001, 2):
        if d % 8 not in (0, 2, 4):
            continue
        witnesses = gm_residue_vector(d)
        indices = gm_heegner_index(d)
        assert len(witnesses) == len(indices) == (2 if d % 8 == 2 else 1)
        for w, idx in zip(witnesses, indices):
            pattern = tuple(c == Fraction(-1, 2) for c in w.residue_vector[:2])
            assert idx.gamma == labels[pattern]


def test_hk_index_families():
    fam = hk_heegner_index(1, 1, 8)
    assert fam.index == 1 and fam.disc == 4 and fam.norm_vv == 2
    fam = hk_heegner_index(3, 2, 6)
    assert fam.index == 1 and fam.disc == 3 and fam.norm_vv == 2
    assert fam.gamma == "all"
    assert "gamma" not in {f.name for f in dataclasses.fields(HKIndexFamily)}
    with pytest.raises(ValueError, match="3 \\(mod 4\\)"):
        hk_heegner_index(2, 2, 8)
    with pytest.raises(ValueError, match="delta"):
        hk_heegner_index(1, 3, 8)
    with pytest.raises(ValueError, match="even"):
        hk_heegner_index(1, 1, 7)


def test_moment_matrix_basics():
    e8 = build_named_lattice("E8")
    basis = [DualVector(e8, tuple(Fraction(int(i == j)) for j in range(8))) for i in range(8)]
    moment = moment_matrix(basis)
    assert symmetric_signature(moment) == (8, 0, 0) and rational_rank(moment) == 8
    assert fraction_determinant(moment) == Fraction(1, 256)
    assert moment_matrix([basis[0]]) == ((Fraction(1),),)
    empty = moment_matrix([])
    assert empty == () and symmetric_signature(empty) == (0, 0, 0) and fraction_determinant(empty) == 1


def test_moment_matrix_mixed_lattices_rejected():
    e8 = build_named_lattice("E8")
    a2 = build_named_lattice("A2")
    v1 = DualVector(e8, tuple(Fraction(int(j == 0)) for j in range(8)))
    v2 = DualVector(a2, (Fraction(1), Fraction(0)))
    with pytest.raises(ValueError, match="single ambient"):
        moment_matrix([v1, v2])


def test_moment_matrix_must_be_square_and_symmetric():
    """Moment-matrix rank, det and inertia come from symmetric_invariants on
    the integer Gram, which refuses a matrix that is not square and symmetric
    and a half-Gram's fractional entries."""
    with pytest.raises(ValueError, match="square and symmetric"):
        symmetric_invariants(((1, 2), (0, 1)))
    with pytest.raises(ValueError, match="square and symmetric"):
        symmetric_invariants(((1, 2),))
    half = Fraction(1, 2)
    with pytest.raises(ValueError, match="entry must be an integer, got 1/2"):
        symmetric_invariants(((1, half), (half, 1)))


def test_moment_of_norm_2n_vector():
    e8 = build_named_lattice("E8")
    for row in invert_rational(e8.gram)[:2]:
        v = DualVector(e8, row)
        assert moment_matrix([v])[0][0] == v.norm() / 2


def test_embed_examples():
    w2 = embed_k3_lattice(2)
    assert w2.det_lhs == Fraction(1, 64) == w2.det_rhs
    assert abs(bareiss_determinant(w2.complement_gram)) == 2
    w14 = embed_k3_lattice(14)
    assert w14.det_lhs == Fraction(7, 64)
    assert w14.det_check_passed
    with pytest.raises(ValueError, match="even"):
        embed_k3_lattice(3)
    with pytest.raises(ValueError, match="positive"):
        embed_k3_lattice(-2)


def test_embed_witness_properties_sweep():
    sharp = build_named_lattice("Lambda_sharp")
    for d in range(2, 201, 2):
        wit = embed_k3_lattice(d)
        assert wit.image_primitive
        assert len(wit.complement_basis) == 7
        basis = wit.complement_basis
        assert wit.complement_gram == tuple(tuple(sharp.pairing(bi, bj) for bj in basis) for bi in basis)
        moment = moment_matrix([DualVector.from_scaled(sharp, b) for b in basis])
        assert wit.to_jsonable()["moment"] == {"entries": [[str(x) for x in row] for row in moment], "rank": 7}
        assert symmetric_invariants(wit.complement_gram)[:3] == (7, 0, 0)
        assert wit.det_lhs == Fraction(d, 128)
        for img in wit.image_basis:
            for comp in wit.complement_basis:
                assert sharp.pairing(img, comp) == 0


def _pad(spare_vector):
    """An E8 vector in the spare block of the 28 Lambda_sharp coordinates."""
    return (0,) * 16 + tuple(spare_vector) + (0,) * 4


def test_embed_matches_the_28_dim_complement():
    """The spare-E8 witness against the complement taken in all of Lambda_sharp."""
    sharp = build_named_lattice("Lambda_sharp")
    rng = random.Random(20260)
    degrees = [*range(2, 401, 2), *(2 * rng.randint(201, 10**6) for _ in range(20))]
    for d in degrees:
        wit = embed_k3_lattice(d)
        complement, basis = orthogonal_complement(sharp, wit.image_basis)
        assert wit.complement_basis == tuple(basis)
        assert wit.complement_gram == complement.gram
        assert complement.signature == (7, 0) == symmetric_signature(wit.complement_gram)[:2]
        s, _, _ = smith_normal_form(wit.image_basis)
        assert wit.image_primitive == all(s[i][i] == 1 for i in range(21))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-6, 6), min_size=8, max_size=8), st.integers(1, 3))
def test_spare_e8_complement_is_the_28_dim_complement(w, k):
    """For any primitive w in E8, padded w-perp equals the complement of the
    image in Lambda_sharp, and the image's Smith form is that of the row w."""
    assume(any(w))
    w = [x // gcd(*w) for x in w]
    e8 = build_named_lattice("E8")
    sharp = build_named_lattice("Lambda_sharp")
    spare_complement, spare = orthogonal_complement(e8, [w])
    units = identity(28)
    image = [units[i] for i in (*range(16), *range(24, 28))]
    image.append(list(_pad(k * x for x in w)))
    complement, basis = orthogonal_complement(sharp, image)
    assert basis == [_pad(b) for b in spare]
    assert complement.gram == spare_complement.gram
    assert complement.signature == spare_complement.signature == (7, 0)
    s, _, _ = smith_normal_form(image)
    assert [s[i][i] for i in range(21)] == [1] * 20 + [k]
    assert smith_normal_form([[k * x for x in w]])[0][0][0] == k


def test_embed_det_is_basis_independent():
    rng = random.Random(99)
    wit = embed_k3_lattice(26)
    basis = [list(b) for b in wit.complement_basis]
    for _ in range(10):
        i, j = rng.randrange(7), rng.randrange(7)
        if i != j:
            c = rng.choice((-1, 1))
            basis[i] = [x + c * y for x, y in zip(basis[i], basis[j])]
    sharp = build_named_lattice("Lambda_sharp")
    t = [[Fraction(sharp.pairing(bi, bj), 2) for bj in basis] for bi in basis]
    assert fraction_determinant(t) == wit.det_lhs


def test_embed_witness_serialization():
    doc = embed_k3_lattice(14).to_jsonable()
    blob = json.dumps(doc)
    assert json.loads(blob)["det_check"] == {"lhs": "7/64", "rhs": "7/64", "pass": True}
    assert len(doc["image_basis"]) == 21
    assert len(doc["complement_gram"]) == 7
    assert doc["moment"]["rank"] == 7


def test_index_serialization():
    idx = cubic_heegner_index(14)
    assert idx.to_jsonable() == {"n": "7/3", "gamma": "gamma1", "lattice": "Lambda_C"}
    fam = hk_heegner_index(3, 2, 6)
    doc = fam.to_jsonable()
    assert doc["n"] == "1" and doc["lattice"] == "Lambda_HK_prim(3,2)"


def test_moment_subtuple_is_principal_submatrix():
    e8 = build_named_lattice("E8")
    vectors = [DualVector(e8, row) for row in invert_rational(e8.gram)]
    full = moment_matrix(vectors)
    picks = [0, 2, 5]
    sub = moment_matrix([vectors[i] for i in picks])
    assert sub == tuple(tuple(full[i][j] for j in picks) for i in picks)


def test_gm_residue_class_consistency():
    for d in range(8, 500):
        if d % 8 not in (0, 2, 4):
            continue
        for idx in gm_heegner_index(d):
            assert (8 * idx.n) % 8 == d % 8


def test_embed_is_isometric_on_the_image():
    sharp = build_named_lattice("Lambda_sharp")
    for d in (2, 14, 26):
        wit = embed_k3_lattice(d)
        source = build_named_lattice("Lambda_d", d)
        pairings = tuple(
            tuple(int(sharp.pairing(bi, bj)) for bj in wit.image_basis)
            for bi in wit.image_basis
        )
        assert pairings == source.gram


_NON_INTEGER_CALLS = [
    (embed_k3_lattice, (2.5,), "d"),
    (hk_heegner_index, (7.9, 1, 20), "n"),
    (hk_heegner_index, (7, 1.5, 20), "delta"),
    (hk_heegner_index, (7, 1, 20.5), "d"),
    (cubic_heegner_index, (8.9,), "d"),
    (gm_heegner_index, (10.5,), "d"),
    (gm_residue_vector, (10.5,), "d"),
]


@pytest.mark.parametrize(
    "fn, args, name",
    _NON_INTEGER_CALLS,
    ids=[f"{fn.__name__}{args}".replace(" ", "") for fn, args, _ in _NON_INTEGER_CALLS],
)
def test_non_integer_parameters_are_refused(fn, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        fn(*args)


def test_integral_float_parameters_still_work():
    assert embed_k3_lattice(14.0) == embed_k3_lattice(14)
    assert gm_residue_vector(10.0) == gm_residue_vector(10)
    assert hk_heegner_index(7.0, 1, 20.0) == hk_heegner_index(7, 1, 20)


def test_heegner_index_names_every_period_lattice():
    for tag, level in (("Lambda_d(14)", 28), ("rank1(6)", 12), ("Lambda_HK_prim(7,1)", 28), ("Lambda_C", 3)):
        idx = HeegnerIndex(n=Fraction(1, level), gamma="0", lattice_tag=tag)
        assert idx.to_jsonable() == {"n": f"1/{level}", "gamma": "0", "lattice": tag}
        with pytest.raises(ValueError, match=f"1/{level}"):
            HeegnerIndex(n=Fraction(1, 2 * level), gamma="0", lattice_tag=tag)


@pytest.mark.parametrize("n", [0.5, 1.0, "1/3", None, complex(1, 0), True])
def test_heegner_index_requires_a_rational_n(n):
    with pytest.raises(ValueError, match="rational"):
        HeegnerIndex(n=n, gamma="0", lattice_tag="Lambda_C")


@pytest.mark.parametrize(
    "field, value",
    [("gamma", 5), ("gamma", None), ("gamma", b"0"), ("lattice_tag", None), ("lattice_tag", b"Lambda_C")],
)
def test_heegner_index_requires_string_labels(field, value):
    kwargs = {"n": Fraction(1, 3), "gamma": "0", "lattice_tag": "Lambda_C", field: value}
    with pytest.raises(ValueError, match=f"^{field} must be a string"):
        HeegnerIndex(**kwargs)


def test_kudla_complement_discriminant_form_is_minus_rank1():
    """Nikulin (1980, Prop. 1.6.1): w primitive in the unimodular E8 makes the
    discriminant form of w-perp anti-isometric to that of <w> = rank1(d), so
    it has order d and the q-values -x^2/(2d) mod 1."""
    for d in range(2, 401, 2):
        group = discriminant_group(make_lattice(embed_k3_lattice(d).complement_gram))
        assert group.order == d
        q_values = sorted(group.q(e) for e in group.elements())
        assert q_values == sorted(Fraction(-x * x, 2 * d) % 1 for x in range(d))


def test_integer_det_matches_the_fraction_moment_route():
    """Fast path == slow path: det(T) from the integer complement Gram against
    the eliminated Fraction half-Gram, and the half-Gram against moment_matrix
    of the padded complement vectors."""
    sharp = build_named_lattice("Lambda_sharp")
    for d in range(2, 601, 2):
        wit = embed_k3_lattice(d)
        halves = tuple(tuple(Fraction(x, 2) for x in row) for row in wit.complement_gram)
        assert symmetric_signature(halves) == (7, 0, 0) and rational_rank(halves) == 7
        assert fraction_determinant(halves) == wit.det_lhs
        assert wit.det_lhs == Fraction(d, 2**7)
        assert halves == moment_matrix([DualVector.from_scaled(sharp, b) for b in wit.complement_basis])


def test_certificate_path_runs_one_integer_elimination(monkeypatch):
    from heegnerlab import intlinalg, lattices

    grams = []

    def counting(a):
        grams.append(tuple(map(tuple, a)))  # copied first: the elimination works in place
        return intlinalg._eliminate(a)

    monkeypatch.setattr(lattices, "_eliminate", counting)
    wit = embed_k3_lattice(2 * 777_777)
    assert grams == [wit.complement_gram]
    assert wit.det_check_passed


def test_moment_matrix_rejects_non_vectors():
    with pytest.raises(ValueError, match="vectors"):
        moment_matrix([(1, 0)])
