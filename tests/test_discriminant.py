from fractions import Fraction

import numpy as np
import pytest

from heegnerlab import discriminant
from heegnerlab.discriminant import discriminant_group
from heegnerlab.intlinalg import identity
from heegnerlab.lattices import DualVector, build_named_lattice, direct_sum

from conftest import random_even_gram


def test_cubic_family_group():
    group = discriminant_group(build_named_lattice("Lambda_C"))
    assert group.elementary_divisors == (3,)
    assert sorted(group.q_values.values()) == [Fraction(0), Fraction(1, 3), Fraction(1, 3)]
    assert group.level == 3


def test_gm_family_group():
    group = discriminant_group(build_named_lattice("Lambda_GM"))
    assert group.elementary_divisors == (2, 2)
    values = sorted(group.q_values.values())
    assert values == [Fraction(0), Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
    quarter = [e for e, v in group.q_values.items() if v == Fraction(1, 4)]
    assert len(quarter) == 2
    # the two quarter-classes sum to the half-class
    assert group.q(group.add(*quarter)) == Fraction(1, 2)
    assert group.b((0, 1), (1, 0)) == 0
    assert group.b((0, 1), (0, 1)) == Fraction(1, 2)
    assert group.level == 4


def test_hk_family_groups():
    assert discriminant_group(build_named_lattice("Lambda_HK")).elementary_divisors == (2,)
    for n in range(1, 21):
        g1 = discriminant_group(build_named_lattice("Lambda_HK_prim", n, 1))
        if n == 1:
            assert g1.elementary_divisors == (2, 2)
        else:
            assert g1.elementary_divisors == (2, 2 * n)
        assert g1.order == 4 * n
    for n in (3, 7, 11, 15, 19):
        g2 = discriminant_group(build_named_lattice("Lambda_HK_prim", n, 2))
        assert g2.elementary_divisors == (n,)


def test_unimodular_group_is_trivial():
    group = discriminant_group(build_named_lattice("Lambda_sharp"))
    assert group.elementary_divisors == ()
    assert group.order == 1
    assert list(group.elements()) == [()]
    assert group.q(()) == 0
    assert group.level == 1


def test_levels():
    assert discriminant_group(build_named_lattice("Lambda_C")).level == 3
    assert discriminant_group(build_named_lattice("Lambda_GM")).level == 4
    for n in range(1, 11):
        assert discriminant_group(build_named_lattice("Lambda_HK_prim", n, 1)).level == 4 * n


def test_order_matches_disc_on_randoms(rng):
    for _ in range(100):
        lat = random_even_gram(rng, rng.randint(1, 4), max_abs_det=400)
        group = discriminant_group(lat)
        assert group.order == abs(lat.det)


def test_q_b_compatibility(rng):
    lattices = [build_named_lattice("Lambda_C"), build_named_lattice("Lambda_GM")]
    for _ in range(25):
        lattices.append(random_even_gram(rng, rng.randint(1, 4), max_abs_det=500))
    for lat in lattices:
        group = discriminant_group(lat)
        if group.order > 500:
            continue
        elems = list(group.elements())
        for x in elems:
            assert group.q(tuple(-r for r in x)) == group.q(x)
            for y in elems:
                lhs = (group.q(group.add(x, y)) - group.q(x) - group.q(y)) % 1
                assert lhs == group.b(x, y)


def test_q_independent_of_lift(rng):
    for _ in range(20):
        lat = random_even_gram(rng, rng.randint(1, 3), max_abs_det=100)
        group = discriminant_group(lat)
        for elem in group.elements():
            vec = group.lift(elem)
            shifted = DualVector(
                lat, tuple(c + rng.randint(-2, 2) for c in vec.coords)
            )
            assert (shifted.norm() / 2) % 1 == group.q(elem)


def test_level_minimality_exhaustive(rng):
    lattices = [build_named_lattice("Lambda_C"), build_named_lattice("Lambda_GM")]
    for _ in range(25):
        lattices.append(random_even_gram(rng, rng.randint(1, 4), max_abs_det=500))
    for lat in lattices:
        group = discriminant_group(lat)
        if group.order > 500:
            continue
        n = group.level
        qs = [group.q(e) for e in group.elements()]
        assert all((n * q).denominator == 1 for q in qs)
        for divisor in range(1, n):
            if n % divisor == 0:
                assert any((divisor * q).denominator != 1 for q in qs)


def test_generator_lifts_are_dual_vectors():
    for name in ("Lambda_C", "Lambda_GM", "Lambda_HK"):
        group = discriminant_group(build_named_lattice(name))
        units = identity(len(group.elementary_divisors))
        for order, unit in zip(group.elementary_divisors, units):
            gen = group.lift(unit)
            assert group.element_of(gen) == tuple(unit)  # refuses a vector off the dual
            assert gen.den == order
            scaled = DualVector(gen.lattice, tuple(order * c for c in gen.coords))
            assert scaled.den == 1


def test_element_of_dual_classes():
    lat = build_named_lattice("Lambda_GM")
    group = discriminant_group(lat)
    e_star = DualVector(lat, (Fraction(1, 2),) + (Fraction(0),) * 21)
    elem = group.element_of(e_star)
    assert group.q(elem) == Fraction(1, 4)
    zero = group.element_of(DualVector(lat, (Fraction(0),) * 22))
    assert zero == (0, 0)
    with pytest.raises(ValueError, match="dual"):
        group.element_of(DualVector(lat, (Fraction(1, 3),) + (Fraction(0),) * 21))


def test_element_of_rejects_a_vector_of_another_lattice():
    group = discriminant_group(build_named_lattice("A2"))
    a1a1 = direct_sum(build_named_lattice("A1"), build_named_lattice("A1"))
    with pytest.raises(ValueError, match="different lattices"):
        group.element_of(DualVector(a1a1, (2, 0)))


def test_caps(monkeypatch):
    big = build_named_lattice("rank1", 2 * 10**6)
    group = discriminant_group(big)
    assert group.q_mode == "generators-only"
    assert len(group.q_values) == 1
    with pytest.raises(ValueError, match="hard cap"):
        discriminant_group(big, hard_cap=10**6)
    monkeypatch.setattr(discriminant, "FULL_TABLE_CAP", 1)
    small = discriminant_group(build_named_lattice("A2"))
    assert small.q_mode == "generators-only"


def test_serialization_keys():
    doc = discriminant_group(build_named_lattice("Lambda_GM")).to_jsonable()
    assert doc["divisors"] == [2, 2]
    assert doc["q"] == {"0,0": "0", "0,1": "1/4", "1,0": "1/4", "1,1": "1/2"}


def test_singular_rejected():
    from heegnerlab.lattices import IntegerLattice

    degenerate = IntegerLattice(gram=((2, 2), (2, 2)), signature=(1, 0), det=0)
    with pytest.raises(ValueError, match="nondegenerate"):
        discriminant_group(degenerate)


def test_order_matches_disc_on_named():
    named = [
        ("U", ()),
        ("A1", ()),
        ("A2", ()),
        ("E8", ()),
        ("rank1", (26,)),
        ("Lambda_C", ()),
        ("Lambda_GM", ()),
        ("Lambda_HK", ()),
        ("Lambda_HK_prim", (4, 1)),
        ("Lambda_HK_prim", (7, 2)),
        ("Lambda_d", (30,)),
        ("Lambda_sharp", ()),
    ]
    for name, params in named:
        lat = build_named_lattice(name, *params)
        assert discriminant_group(lat).order == abs(lat.det)


def test_gauss_sum_signature_identity(rng):
    # sum of e^{2 pi i q(gamma)} over the group equals sqrt(|D|) times the
    # eighth root of unity given by the signature; ties the q pipeline to an
    # independently computed inertia
    import cmath
    import math

    lattices = [
        build_named_lattice("Lambda_C"),
        build_named_lattice("Lambda_GM"),
        build_named_lattice("Lambda_HK"),
        build_named_lattice("Lambda_HK_prim", 3, 2),
        build_named_lattice("Lambda_d", 12),
    ]
    for _ in range(20):
        lattices.append(random_even_gram(rng, rng.randint(1, 4), max_abs_det=300))
    for lat in lattices:
        group = discriminant_group(lat)
        total = sum(cmath.exp(2j * cmath.pi * float(group.q(e))) for e in group.elements())
        p, q = lat.signature
        expected = math.sqrt(group.order) * cmath.exp(2j * cmath.pi * (p - q) / 8)
        assert abs(total - expected) < 1e-9 * math.sqrt(group.order), lat.gram


def test_non_integer_residues_are_refused():
    group = discriminant_group(build_named_lattice("A2"))
    for method in (group.q, group.lift, group.reduce):
        for bad in ((1.5,), (1.7,), (Fraction(1, 2),), ("1",), (True,)):
            with pytest.raises(ValueError, match="residue must be an integer"):
                method(bad)
    with pytest.raises(ValueError, match="residue must be an integer"):
        group.b((1,), (0.5,))
    with pytest.raises(ValueError, match="residue must be an integer"):
        group.add((1,), (2.5,))


def test_integral_residues_of_other_types_still_work():
    group = discriminant_group(build_named_lattice("A2"))
    for good in ((1.0,), (Fraction(4),), (np.int64(1),), (-2,)):
        assert group.reduce(good) == (1,)
        assert group.q(good) == group.q((1,)) == Fraction(1, 3)
        assert group.lift(good) == group.lift((1,))


def test_hard_cap_is_checked_not_truncated():
    a2 = build_named_lattice("A2")
    with pytest.raises(ValueError, match="hard_cap must be an integer, got 3.9"):
        discriminant_group(a2, hard_cap=3.9)
    with pytest.raises(ValueError, match="hard_cap must be an integer, got 2.5"):
        discriminant_group(a2, hard_cap=2.5)
    assert discriminant_group(a2, hard_cap=3.0).order == 3
    with pytest.raises(ValueError, match="hard cap 2"):
        discriminant_group(a2, hard_cap=2.0)
    for cap in (0, -5):
        with pytest.raises(ValueError, match=f"hard_cap must be positive, got {cap}"):
            discriminant_group(a2, hard_cap=cap)


def test_non_lattice_rejected():
    with pytest.raises(ValueError, match="lattice"):
        discriminant_group(None)
