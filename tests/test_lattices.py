from fractions import Fraction

import pytest

from heegnerlab.cycles import HeegnerIndex, _tag_level
from heegnerlab.enumeration import enumerate_by_norm, first_primitive_vector
from heegnerlab.lattices import (
    CACHE_SIZE,
    NAMED_LATTICES,
    DualVector,
    _build,
    build_named_lattice,
    direct_sum,
    make_lattice,
    named_lattice,
    orthogonal_complement,
)

from conftest import bareiss_determinant, random_even_gram, random_positive_definite_lattice


def test_hyperbolic_plane():
    u = build_named_lattice("U")
    assert u.gram == ((0, 1), (1, 0))
    assert u.signature == (1, 1)


def test_named_signatures_match_their_families():
    assert build_named_lattice("Lambda_C").signature == (20, 2)
    assert build_named_lattice("Lambda_GM").signature == (20, 2)
    assert build_named_lattice("Lambda_HK").signature == (20, 3)
    assert build_named_lattice("Lambda_d", 14).signature == (19, 2)
    assert build_named_lattice("Lambda_sharp").signature == (26, 2)


def test_lambda_c_shape():
    lam = build_named_lattice("Lambda_C")
    assert lam.rank == 22
    assert lam.det == 3
    # leading block is the hexagonal one
    assert lam.gram[0][:2] == (2, -1)


def test_hk_prim_delta2_tail_block():
    lam = build_named_lattice("Lambda_HK_prim", 3, 2)
    assert lam.signature == (20, 2)
    assert lam.rank == 22
    tail = tuple(row[-2:] for row in lam.gram[-2:])
    assert tail == ((2, 1), (1, 2))


def test_hk_prim_delta2_residue_rejected():
    with pytest.raises(ValueError, match="3 \\(mod 4\\)"):
        build_named_lattice("Lambda_HK_prim", 2, 2)


def test_rank1_odd_rejected():
    with pytest.raises(ValueError, match="even"):
        build_named_lattice("rank1", 3)


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown lattice name"):
        build_named_lattice("Leech")


def test_make_lattice_validation():
    with pytest.raises(ValueError, match="symmetric"):
        make_lattice([[2, 1], [0, 2]])
    with pytest.raises(ValueError, match="odd"):
        make_lattice([[1]])
    with pytest.raises(ValueError, match="degenerate"):
        make_lattice([[2, 2], [2, 2]])


def test_direct_sum_signature_additivity():
    u = build_named_lattice("U")
    assert direct_sum(u, u).signature == (2, 2)
    e8 = build_named_lattice("E8")
    sharp = direct_sum(e8, e8, e8, u, u)
    assert sharp.gram == build_named_lattice("Lambda_sharp").gram
    assert abs(sharp.det) == 1
    mixed = direct_sum(build_named_lattice("A2"), build_named_lattice("rank1", 2))
    assert mixed.rank == 3
    assert mixed.det == 6


def test_twist():
    """The twist by -1, make_lattice on the negated Gram, swaps the signature
    and multiplies the determinant by (-1)^rank."""
    for name in ("U", "A2", "E8", "Lambda_C", "Lambda_HK"):
        lattice = build_named_lattice(name)
        twisted = make_lattice([[-x for x in row] for row in lattice.gram])
        assert twisted.signature == lattice.signature[::-1]
        assert twisted.det == (-1) ** lattice.rank * lattice.det


def test_determinants():
    assert build_named_lattice("rank1", 10).det == 10
    for d in (2, 14, 50):
        assert abs(build_named_lattice("Lambda_d", d).det) == d
    assert abs(build_named_lattice("Lambda_sharp").det) == 1
    assert build_named_lattice("Lambda_GM").det == 4
    assert abs(build_named_lattice("Lambda_HK").det) == 2


def test_dual_vectors_of_different_lattices_do_not_pair():
    a2 = build_named_lattice("A2")
    a1a1 = direct_sum(build_named_lattice("A1"), build_named_lattice("A1"))
    u = DualVector(a2, (Fraction(1, 3), Fraction(2, 3)))
    v = DualVector(a1a1, (1, 0))
    with pytest.raises(ValueError, match="different lattices"):
        u.pairing(v)
    with pytest.raises(ValueError, match="different lattices"):
        v.pairing(u)


def test_orthogonal_complement_root_in_e8():
    e8 = build_named_lattice("E8")
    root = enumerate_by_norm(e8, 2)[0]
    comp, basis = orthogonal_complement(e8, [tuple(int(c) for c in root.coords)])
    assert comp.rank == 7
    assert abs(comp.det) == 2
    assert len(basis) == 7
    for b in basis:
        assert e8.pairing(b, [int(c) for c in root.coords]) == 0


def test_orthogonal_complement_degenerate_cases():
    e8 = build_named_lattice("E8")
    full = [tuple(int(i == j) for j in range(8)) for i in range(8)]
    comp, basis = orthogonal_complement(e8, full)
    assert comp.rank == 0 and basis == []
    same, ident = orthogonal_complement(e8, [])
    assert same is e8 and len(ident) == 8


def test_degenerate_complement_rejected():
    u = build_named_lattice("U")
    with pytest.raises(ValueError, match="degenerate.*nullity 1"):
        orthogonal_complement(u, [(1, 0)])
    hk = build_named_lattice("Lambda_HK")  # A1 + U + U + U + E8 + E8
    isotropic = (0, 1, 0) + (0,) * 20
    with pytest.raises(ValueError, match="nullity 1"):
        orthogonal_complement(hk, [isotropic])
    comp, _ = orthogonal_complement(u, [(1, 1)])
    assert comp.gram == ((-2,),) and comp.signature == (0, 1)


def test_vector_length_must_match_rank():
    e8 = build_named_lattice("E8")
    for bad in ((1, 2), (1,) * 9, ()):
        with pytest.raises(ValueError, match=f"length {len(bad)} in a lattice of rank 8"):
            orthogonal_complement(e8, [bad])
        with pytest.raises(ValueError, match="rank 8"):
            DualVector(e8, bad)
        with pytest.raises(ValueError, match="rank 8"):
            e8.pairing(bad, (1,) * 8)
        with pytest.raises(ValueError, match="rank 8"):
            e8.pairing((1,) * 8, bad)
    with pytest.raises(ValueError, match="rank 8"):
        e8.pairing((1, 0), (1,))
    with pytest.raises(ValueError, match="rank 8"):
        orthogonal_complement(e8, [(1,) + (0,) * 7, (1, 2)])


def test_complement_disc_matches_sublattice_in_unimodular():
    e8 = build_named_lattice("E8")
    for d in range(2, 61, 2):
        v = first_primitive_vector(e8, d)
        comp, _ = orthogonal_complement(e8, [v])
        assert abs(comp.det) == d


def test_lattice_caches_stay_bounded():
    extra = CACHE_SIZE + 8
    for d in range(2, 2 * extra + 1, 2):
        build_named_lattice("rank1", d)
    for n in range(1, extra + 1):
        _tag_level(f"Lambda_HK_prim({n},1)")
    for d in range(2, 2 * extra + 1, 2):
        assert _tag_level(f"Lambda_d({d})") == 2 * d
    for cached in (_build, _tag_level):
        info = cached.cache_info()
        assert info.maxsize == CACHE_SIZE
        assert info.currsize <= info.maxsize


def test_integer_entries_are_checked_not_truncated():
    e8 = build_named_lattice("E8")
    half = (Fraction(1, 2),) + (0,) * 7
    with pytest.raises(ValueError, match="1.5"):
        make_lattice([[2, 1.5], [1.5, 2]])
    e1 = (1,) + (0,) * 7
    with pytest.raises(ValueError, match="1/2"):
        e8.pairing((Fraction(1, 2), 1, 0, 0, 0, 0, 0, 0), e1)
    with pytest.raises(ValueError, match="2.7"):
        e8.pairing((2.7, 1, 0, 0, 0, 0, 0, 0), e1)
    with pytest.raises(ValueError, match="1/2"):
        orthogonal_complement(e8, [half])
    with pytest.raises(ValueError, match="2.5"):
        build_named_lattice("rank1", 2.5)
    with pytest.raises(ValueError, match=r"2 \(str\)"):
        make_lattice([["2"]])
    # Integral values of another type are integers.
    assert make_lattice([[Fraction(2)]]).gram == ((2,),)
    assert e8.pairing((Fraction(1), 0, 0, 0, 0, 0, 0, 0), e1) == 2
    assert type(e8.pairing(e1, e1)) is int


# Valid parameters for every table entry; a new entry needs samples here.
TABLE_SAMPLES = {
    **{name: [()] for name, takes in NAMED_LATTICES.items() if not takes},
    "rank1": [(2,), (6,), (80,), (2000002,)],
    "Lambda_HK_prim": [(1, 1), (7, 1), (3, 2), (11, 2)],
    "Lambda_d": [(2,), (14,), (1000,)],
}


def test_named_lattice_round_trips_the_table():
    assert TABLE_SAMPLES.keys() == NAMED_LATTICES.keys()
    for name, samples in TABLE_SAMPLES.items():
        for params in samples:
            lattice = build_named_lattice(name, *params)
            expected = f"{name}({','.join(map(str, params))})" if params else name
            assert lattice.name == expected
            assert named_lattice(lattice.name) is lattice
            assert HeegnerIndex(n=Fraction(0), gamma="0", lattice_tag=lattice.name).lattice_tag == expected


def test_carried_determinant_matches_the_bareiss_oracle(rng):
    """Each constructor's `det` against an independent elimination of the Gram."""
    lattices = [build_named_lattice(name, *params) for name, samples in TABLE_SAMPLES.items() for params in samples]
    lattices += [build_named_lattice("Lambda_d", d) for d in range(2, 60, 2)]
    lattices += [build_named_lattice("Lambda_HK_prim", n, 2) for n in range(3, 40, 4)]
    randoms = [random_even_gram(rng, rng.randint(1, 6)) for _ in range(200)]
    lattices += randoms
    lattices += [direct_sum(*rng.sample(randoms, rng.randint(0, 3))) for _ in range(50)]
    lattices += [make_lattice([[-x for x in row] for row in l.gram]) for l in lattices[-100:]]
    assert {l.rank % 2 for l in lattices[-100:]} == {0, 1}
    for _ in range(50):
        ambient = random_positive_definite_lattice(rng, rng.randint(2, 6))
        count = rng.randint(1, ambient.rank - 1)
        vectors = [[rng.randint(-3, 3) for _ in range(ambient.rank)] for _ in range(count)]
        lattices.append(orthogonal_complement(ambient, vectors)[0])
    e8 = build_named_lattice("E8")
    lattices += [orthogonal_complement(e8, [first_primitive_vector(e8, d)])[0] for d in range(2, 80, 2)]
    for lattice in lattices:
        assert lattice.det == bareiss_determinant(lattice.gram), lattice


@pytest.mark.parametrize(
    "tag",
    [
        "Lambda_HK_prim( 7 ,1)",
        "Lambda_HK_prim(7,1)junk",
        "Lambda_HK_prim(07,1)",
        "Lambda_HK_prim(7.0,1)",
        "Lambda_HK_prim(7,1))",
        "Lambda_HK_prim(7)",
        "Lambda_HK_prim(5,2)",
        "Lambda_d(+14)",
        "Lambda_d(-14)",
        "Lambda_d(1_4)",
        "Lambda_d(7)",
        "Lambda_d",
        "rank1(5)",
        "E8()",
        "U(3)",
        "Lambda_C(",
        "E8 ",
        "Lambda_c",
        "K3",
        "",
    ],
)
def test_named_lattice_rejects_non_tags(tag):
    with pytest.raises(ValueError):
        named_lattice(tag)
    with pytest.raises(ValueError):
        HeegnerIndex(n=Fraction(0), gamma="0", lattice_tag=tag)


def test_complement_rejects_non_vectors():
    e8 = build_named_lattice("E8")
    for bad in (None, [None]):
        with pytest.raises(ValueError, match="vectors"):
            orthogonal_complement(e8, bad)
