import cmath
import math

import numpy as np
import pytest

from heegnerlab.discriminant import discriminant_group
from heegnerlab.lattices import build_named_lattice
from heegnerlab.weil import (
    build_weil_rep,
    relations_pass,
    verify_sl2_relations,
)

from conftest import random_even_gram, t_matrix_order


def m_for_signature(p: int, q: int) -> int:
    """Even positive-inertia parameter compatible with the signature mod 8."""
    if (p - q) % 2 != 0:
        raise ValueError("odd signature difference has no even-weight representation")
    m = (p - q + 2) % 8
    return m if m else 8


NAMED_EVEN = [
    ("Lambda_C", ()),
    ("Lambda_GM", ()),
    ("Lambda_sharp", ()),
    ("Lambda_HK_prim", (1, 1)),
    ("Lambda_HK_prim", (2, 1)),
    ("Lambda_HK_prim", (5, 1)),
    ("Lambda_HK_prim", (3, 2)),
    ("Lambda_HK_prim", (7, 2)),
]


def test_trivial_group_scalars():
    group = discriminant_group(build_named_lattice("Lambda_sharp"))
    rep = build_weil_rep(group, 26)
    assert rep.dim == 1
    assert np.allclose(rep.t_matrix, [[1.0]])
    assert np.allclose(rep.s_matrix, [[1.0]])
    assert rep.weight == 14
    assert relations_pass(verify_sl2_relations(rep))


def test_cubic_family_matrices():
    group = discriminant_group(build_named_lattice("Lambda_C"))
    rep = build_weil_rep(group, 20)
    omega = cmath.exp(2j * cmath.pi / 3)
    assert np.allclose(np.diagonal(rep.t_matrix), [1.0, omega, omega])
    assert abs(rep.s_matrix[0, 0] - (-1j / math.sqrt(3))) < 1e-12
    assert np.allclose(rep.s_matrix, rep.s_matrix.T)
    assert relations_pass(verify_sl2_relations(rep, tol=1e-9))


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-9])
def test_tolerance_must_be_positive_and_finite(tol):
    rep = build_weil_rep(discriminant_group(build_named_lattice("Lambda_C")), 20)
    assert t_matrix_order(rep) == 3 == rep.level
    for check in (t_matrix_order, verify_sl2_relations):
        with pytest.raises(ValueError, match="positive and finite"):
            check(rep, tol=tol)


def test_gm_family_matrices():
    group = discriminant_group(build_named_lattice("Lambda_GM"))
    rep = build_weil_rep(group, 20)
    assert np.allclose(np.diagonal(rep.t_matrix), [1.0, 1j, 1j, -1.0])
    checks = verify_sl2_relations(rep, tol=1e-9)
    assert relations_pass(checks)
    # the level is minimal: T^3 is far from the identity
    t3 = np.linalg.matrix_power(rep.t_matrix, 3)
    assert np.abs(t3 - np.eye(4)).max() > 0.5
    assert t_matrix_order(rep) == 4 == rep.level


def test_named_even_lattices_pass_relations():
    for name, params in NAMED_EVEN:
        lat = build_named_lattice(name, *params)
        p, q = lat.signature
        rep = build_weil_rep(discriminant_group(lat), p)
        checks = verify_sl2_relations(rep, tol=1e-9)
        assert relations_pass(checks), (name, params, [c.to_jsonable() for c in checks])


def test_random_even_lattices_pass_relations(rng):
    done = 0
    while done < 20:
        lat = random_even_gram(rng, rng.choice((2, 4, 6)), max_abs_det=200)
        p, q = lat.signature
        if (p - q) % 2 != 0:
            continue
        group = discriminant_group(lat)
        rep = build_weil_rep(group, m_for_signature(p, q))
        assert relations_pass(verify_sl2_relations(rep, tol=1e-9)), lat.gram
        assert t_matrix_order(rep) == group.level
        done += 1


def test_t_entries_unit_modulus():
    for name, params in NAMED_EVEN:
        lat = build_named_lattice(name, *params)
        rep = build_weil_rep(discriminant_group(lat), lat.signature[0])
        moduli = np.abs(np.diagonal(rep.t_matrix))
        assert np.abs(moduli - 1.0).max() <= 1e-12


def test_weight_of():
    """The weight is 1 + m/2, for an even m >= 2 only."""
    group = discriminant_group(build_named_lattice("rank1", 10))
    for m, weight in ((20, 11), (26, 14), (2, 2)):
        assert build_weil_rep(group, m).weight == weight
    with pytest.raises(ValueError, match="even"):
        build_weil_rep(group, 19)
    with pytest.raises(ValueError, match="at least 2"):
        build_weil_rep(group, 0)


def test_build_rejections():
    group = discriminant_group(build_named_lattice("Lambda_C"))
    with pytest.raises(ValueError, match="even"):
        build_weil_rep(group, 19)
    big = discriminant_group(build_named_lattice("rank1", 4002))
    with pytest.raises(ValueError, match="cap"):
        build_weil_rep(big, 20)


def test_relation_report_shape():
    group = discriminant_group(build_named_lattice("Lambda_C"))
    rep = build_weil_rep(group, 20)
    checks = verify_sl2_relations(rep, tol=1e-9)
    names = [c.relation for c in checks]
    assert names == ["S^4 = Id", "(S*T)^3 = S^2", "T^3 = Id", "S unitary"]
    for c in checks:
        doc = c.to_jsonable()
        assert set(doc) == {"relation", "max_deviation", "pass"}
    with pytest.raises(ValueError, match="positive"):
        verify_sl2_relations(rep, tol=0.0)


def test_m_is_checked_as_an_integer():
    group = discriminant_group(build_named_lattice("Lambda_C"))
    with pytest.raises(ValueError, match="m must be an integer"):
        build_weil_rep(group, "20")
    rep = build_weil_rep(group, 20.0)
    assert (rep.m, rep.weight) == (20, 11) and type(rep.m) is int and type(rep.weight) is int


@pytest.mark.parametrize("tol", ["1e-9", None])
def test_non_number_tolerance_rejected(tol):
    rep = build_weil_rep(discriminant_group(build_named_lattice("Lambda_C")), 20)
    with pytest.raises(ValueError, match="tol"):
        verify_sl2_relations(rep, tol=tol)
