"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the timing
lines).  Every tolerance and time budget is pinned here.
"""

import random
import time
from fractions import Fraction

import pytest

from heegnerlab.bounds import (
    divisor_bound_check,
    fm_partner_count,
    irr_bound_certificate,
    sandwich_check,
)
from heegnerlab.cycles import embed_k3_lattice, gm_residue_vector
from heegnerlab.discriminant import discriminant_group
from heegnerlab.enumeration import enumerate_by_norm
from heegnerlab.lattices import _build, build_named_lattice, direct_sum, make_lattice
from heegnerlab.weil import build_weil_rep, relations_pass, verify_sl2_relations

from conftest import box_norm_table, random_even_gram, random_positive_definite_lattice
from test_weil import m_for_signature


class Timer:
    def __init__(self, criterion: str, budget_s: float):
        self.criterion = criterion
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.criterion}: {status} ({elapsed:.2f}s / budget {self.budget_s:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget_s, f"{self.criterion} exceeded {self.budget_s}s ({elapsed:.2f}s)"


def test_criterion_01_discriminant_groups_match():
    _build.cache_clear()
    with Timer("1 discriminant groups", 1.0):
        cubic = discriminant_group(build_named_lattice("Lambda_C"))
        assert cubic.elementary_divisors == (3,)
        assert sorted(cubic.q_values.values()) == [Fraction(0), Fraction(1, 3), Fraction(1, 3)]

        gm = discriminant_group(build_named_lattice("Lambda_GM"))
        assert gm.elementary_divisors == (2, 2)
        quarters = [e for e, v in gm.q_values.items() if v == Fraction(1, 4)]
        assert len(quarters) == 2  # these classes are e* and f*
        assert gm.q(gm.add(*quarters)) == Fraction(1, 2)
        assert gm.q((0, 0)) == 0

        hk = discriminant_group(build_named_lattice("Lambda_HK"))
        assert hk.elementary_divisors == (2,)

        for n in range(1, 21):
            split = discriminant_group(build_named_lattice("Lambda_HK_prim", n, 1))
            assert split.elementary_divisors == (2, 2 * n)
        for n in (3, 7, 11, 15, 19):
            nonsplit = discriminant_group(build_named_lattice("Lambda_HK_prim", n, 2))
            assert nonsplit.elementary_divisors == (n,)


def test_criterion_02_levels():
    with Timer("2 levels", 1.0):
        assert discriminant_group(build_named_lattice("Lambda_C")).level == 3
        assert discriminant_group(build_named_lattice("Lambda_GM")).level == 4
        for n in range(1, 11):
            group = discriminant_group(build_named_lattice("Lambda_HK_prim", n, 1))
            assert group.level == 4 * n


def test_criterion_03_weil_relations():
    with Timer("3 weil relations", 30.0):
        named = [
            build_named_lattice("Lambda_C"),
            build_named_lattice("Lambda_GM"),
            build_named_lattice("Lambda_sharp"),
        ]
        named += [build_named_lattice("Lambda_HK_prim", n, 1) for n in (1, 2, 3, 4, 5)]
        named += [build_named_lattice("Lambda_HK_prim", n, 2) for n in (3, 7, 11)]
        for lat in named:
            p, q = lat.signature
            rep = build_weil_rep(discriminant_group(lat), p)
            checks = verify_sl2_relations(rep, tol=1e-9)
            assert relations_pass(checks), (lat.name, [c.to_jsonable() for c in checks])

        rng = random.Random(31337)
        done = 0
        while done < 50:
            lat = random_even_gram(rng, rng.choice((2, 4, 6)), max_abs_det=200)
            p, q = lat.signature
            if (p - q) % 2 != 0:
                continue
            rep = build_weil_rep(discriminant_group(lat), m_for_signature(p, q))
            checks = verify_sl2_relations(rep, tol=1e-9)
            assert relations_pass(checks), (lat.gram, [c.to_jsonable() for c in checks])
            done += 1


def test_criterion_04_enumeration_oracle():
    with Timer("4 enumeration oracle", 60.0):
        rng = random.Random(424242)
        a1 = build_named_lattice("A1")
        a2 = build_named_lattice("A2")
        d4 = make_lattice([[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]])
        catalog = [
            a1,
            a2,
            build_named_lattice("rank1", 2),
            build_named_lattice("rank1", 6),
            direct_sum(a1, a1),
            direct_sum(a2, a1),
            direct_sum(a2, a2),
            direct_sum(build_named_lattice("rank1", 4), build_named_lattice("rank1", 2)),
            d4,
            random_positive_definite_lattice(rng, 3),
            random_positive_definite_lattice(rng, 4),
        ]
        max_norm = 20
        for lat in catalog:
            group = discriminant_group(lat)
            for elem in group.elements():
                coset = None if all(r == 0 for r in elem) else group.lift(elem)
                table = box_norm_table(lat, max_norm, coset=coset)
                norms = set(table)
                norms.update(Fraction(k) for k in range(max_norm + 1))
                base = group.q(elem) * 2
                norms.update(base + 2 * k for k in range(max_norm + 1))
                for norm in sorted(norms):
                    if norm > max_norm:
                        continue
                    got = [v.coords for v in enumerate_by_norm(lat, norm, coset=coset)]
                    assert got == table.get(norm, []), (lat.gram, elem, norm)
        e8_roots = enumerate_by_norm(build_named_lattice("E8"), 2)
        assert len(e8_roots) == 240


def test_criterion_05_gm_labelling_identities():
    with Timer("5 GM labelling identities", 5.0):
        for d in range(8, 1001):
            if d % 8 not in (0, 2, 4):
                continue
            for witness in gm_residue_vector(d):
                assert witness.checks["<v,h1>"] == 0
                assert witness.checks["<v,h2>"] == 0
                assert witness.checks["half_norm"] == Fraction(d, 8)


def test_criterion_06_kudla_moment_identity():
    with Timer("6 Kudla moment identity", 300.0):
        sharp = build_named_lattice("Lambda_sharp")
        for d in range(2, 201, 2):
            witness = embed_k3_lattice(d)
            assert witness.image_primitive, d
            assert witness.det_lhs == Fraction(d, 128), d
            assert witness.det_check_passed
            for comp in witness.complement_basis:
                assert all(sharp.pairing(img, comp) == 0 for img in witness.image_basis)


def test_criterion_07_growth_sandwich():
    with Timer("7 growth sandwich", 30.0):
        for k in (4, 11, 14):
            report = sandwich_check(k, (1, 10**4))
            assert report.passed, (k, report.failures[:5])
            assert report.zeta_lower <= report.zeta_upper


def test_criterion_08_divisor_inequality():
    with Timer("8 divisor inequality", 60.0):
        report = divisor_bound_check((1, 10**6), squarefree_limit=10**4)
        assert report.passed
        assert report.squarefree_equality_holds


def test_criterion_09_certificate_spot_checks():
    with Timer("9 certificate spot checks", 1.0):
        cert8 = irr_bound_certificate(8, 10)
        route_a = next(r for r in cert8.routes if r.route == "A")
        assert (route_a.indices[0].n, route_a.indices[0].gamma) == (Fraction(7, 3), "gamma1")
        uniform8 = next(r for r in cert8.routes if r.route == "uniform")
        assert uniform8.multiplier == 2

        cert14 = irr_bound_certificate(14, 10)
        names = [r.route for r in cert14.routes]
        assert "A" in names and "B" in names
        route_b = next(r for r in cert14.routes if r.route == "B")
        assert [(i.n, i.gamma) for i in route_b.indices] == [
            (Fraction(13, 4), "e*"),
            (Fraction(13, 4), "f*"),
        ]
        assert fm_partner_count(13) == 2


@pytest.mark.parametrize(
    "command",
    [
        ("lattice", "info", "--name", "Lambda_C"),
        ("heegner", "gm", "--d", "26"),
        ("embed", "--d", "14"),
        ("bound", "--g", "8", "--n-max", "10"),
        ("admissible", "--g-range", "2:12", "--format", "csv"),
    ],
    ids=lambda c: c[0],
)
def test_criterion_10_cli_determinism(command):
    from test_cli import run_cli

    first = run_cli(*command)
    second = run_cli(*command)
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout
    assert first.stdout.encode() == second.stdout.encode()
    print(f"[acceptance] 10 CLI determinism ({command[0]}): PASS")
