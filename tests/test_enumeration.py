import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heegnerlab.discriminant import discriminant_group
from heegnerlab.enumeration import _decompose, enumerate_by_norm, first_primitive_vector, lex_stream
from heegnerlab.lattices import CACHE_SIZE, DualVector, build_named_lattice, make_lattice

from conftest import box_norm_table, invert_rational, random_positive_definite_lattice, recursive_lex_stream


def test_e8_root_count():
    e8 = build_named_lattice("E8")
    roots = enumerate_by_norm(e8, 2)
    assert len(roots) == 240
    assert all(v.norm() == 2 for v in roots)
    coords = [v.coords for v in roots]
    assert coords == sorted(coords)


def test_a2_norm_two():
    a2 = build_named_lattice("A2")
    vecs = enumerate_by_norm(a2, 2)
    assert len(vecs) == 6
    assert [tuple(int(c) for c in v.coords) for v in vecs] == [
        (-1, -1),
        (-1, 0),
        (0, -1),
        (0, 1),
        (1, 0),
        (1, 1),
    ]


def test_a2_coset_enumeration():
    a2 = build_named_lattice("A2")
    group = discriminant_group(a2)
    gamma1 = group.lift((1,))
    vecs = enumerate_by_norm(a2, Fraction(2, 3), coset=gamma1)
    assert len(vecs) == 3
    table = box_norm_table(a2, Fraction(2, 3), coset=gamma1)
    assert [v.coords for v in vecs] == table[Fraction(2, 3)]


def test_impossible_norms_are_empty():
    a2 = build_named_lattice("A2")
    assert enumerate_by_norm(a2, 1) == []
    assert enumerate_by_norm(a2, Fraction(1, 3)) == []


def test_norm_zero():
    a2 = build_named_lattice("A2")
    zeros = enumerate_by_norm(a2, 0)
    assert len(zeros) == 1 and zeros[0].coords == (Fraction(0), Fraction(0))
    group = discriminant_group(a2)
    assert enumerate_by_norm(a2, 0, coset=group.lift((1,))) == []
    rank0 = make_lattice([])
    assert [v.coords for v in enumerate_by_norm(rank0, 0)] == [()]
    assert enumerate_by_norm(rank0, 2) == []


def test_negative_norm_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_by_norm(build_named_lattice("A2"), -2)
    with pytest.raises(ValueError, match="nonnegative"):
        first_primitive_vector(build_named_lattice("E8"), -2)


def test_indefinite_rejected():
    with pytest.raises(ValueError, match="definite"):
        enumerate_by_norm(build_named_lattice("U"), 2)
    with pytest.raises(ValueError, match="definite"):
        enumerate_by_norm(build_named_lattice("Lambda_C"), 2)
    # the Gram is checked before the norm
    with pytest.raises(ValueError, match="definite"):
        first_primitive_vector(build_named_lattice("U"), -2)
    with pytest.raises(ValueError, match="definite"):
        enumerate_by_norm(build_named_lattice("U"), -2)


def test_box_oracle_agreement_spot(rng):
    lattices = [
        build_named_lattice("A1"),
        build_named_lattice("A2"),
        random_positive_definite_lattice(rng, 3),
    ]
    for lat in lattices:
        table = box_norm_table(lat, 12)
        for norm in list(table) + [Fraction(k) for k in range(13)]:
            got = [v.coords for v in enumerate_by_norm(lat, norm)]
            assert got == table.get(norm, []), (lat.gram, norm)


def test_first_primitive_matches_filtered_enumeration():
    # Full E8 shells past norm 12 hold millions of vectors, so the larger
    # norms filter the slow path's lazy stream instead of the full list.
    e8 = build_named_lattice("E8")
    for d in range(2, 41, 2):
        first = next(x for x in recursive_lex_stream(e8, d) if math.gcd(*x) == 1)
        if d <= 12:
            full = enumerate_by_norm(e8, d)
            assert first == next(v.num for v in full if math.gcd(*v.num) == 1)
        assert first_primitive_vector(e8, d) == first, d


def test_first_primitive_exists_for_even_norms():
    e8 = build_named_lattice("E8")
    for d in range(2, 42, 2):
        v = first_primitive_vector(e8, d)
        assert v is not None
        assert e8.pairing(v, v) == d
        assert math.gcd(*v) == 1


def test_enumeration_deterministic():
    a2 = build_named_lattice("A2")
    first = enumerate_by_norm(a2, 14)
    second = enumerate_by_norm(a2, 14)
    assert [v.coords for v in first] == [v.coords for v in second]


def test_lex_order_with_coset(rng):
    lat = random_positive_definite_lattice(rng, 3)
    group = discriminant_group(lat)
    elems = [e for e in group.elements() if any(e)]
    coset = group.lift(elems[0]) if elems else None
    base = (group.q(elems[0]) * 2) if elems else Fraction(0)
    for k in range(6):
        vecs = enumerate_by_norm(lat, base + 2 * k, coset=coset)
        coords = [v.coords for v in vecs]
        assert coords == sorted(coords)


def test_first_primitive_none_when_norm_unrepresented():
    a2 = build_named_lattice("A2")
    assert first_primitive_vector(a2, 1) is None


def test_e8_counts_match_divisor_sums():
    # independent arithmetic oracle: the number of norm-2n vectors in the
    # unimodular rank-8 lattice is 240 * sigma_3(n)
    from heegnerlab.arith import sigma_power

    e8 = build_named_lattice("E8")
    for n in range(1, 7):
        assert len(enumerate_by_norm(e8, 2 * n)) == 240 * sigma_power(3, n)


def test_non_rational_norms_rejected():
    with pytest.raises(ValueError, match="'4'"):
        first_primitive_vector(build_named_lattice("E8"), "4")
    for bad in ("2", float("inf"), float("-inf"), float("nan"), None, 2j):
        with pytest.raises(ValueError, match="norm must be a rational number or a finite float"):
            enumerate_by_norm(build_named_lattice("A2"), bad)


def test_finite_float_norms_are_converted_exactly():
    a2 = build_named_lattice("A2")
    assert enumerate_by_norm(a2, 2.0) == enumerate_by_norm(a2, 2)
    assert first_primitive_vector(build_named_lattice("E8"), 4.0) == first_primitive_vector(
        build_named_lattice("E8"), 4
    )
    gamma1 = discriminant_group(a2).lift((1,))
    assert len(enumerate_by_norm(a2, Fraction(2, 3), coset=gamma1)) == 3
    # 2/3 has no exact binary float, so its nearest float is an unrepresented norm
    assert enumerate_by_norm(a2, 2 / 3, coset=gamma1) == []


def test_big_integer_gram():
    d = 2 * 10**40
    lat = build_named_lattice("rank1", d)
    assert [v.num for v in enumerate_by_norm(lat, 9 * d)] == [(-3,), (3,)]
    assert enumerate_by_norm(lat, 9 * d - 1) == []
    assert first_primitive_vector(lat, 9 * d) is None
    assert first_primitive_vector(lat, d) == (-1,)


MAX_NORM = 10


def _box_volume(lattice, max_norm) -> float:
    """Points the box oracle allocates; capped so each example stays small."""
    inv = invert_rational(lattice.gram)
    return math.prod(2 * math.sqrt(max_norm * inv[i][i]) + 5 for i in range(lattice.rank))


@st.composite
def lattices_with_cosets(draw):
    rank = draw(st.integers(1, 5))
    lattice = random_positive_definite_lattice(random.Random(draw(st.integers(0, 2**32))), rank)
    assume(_box_volume(lattice, MAX_NORM) <= 300_000)
    group = discriminant_group(lattice)
    elem = tuple(draw(st.integers(0, s - 1)) for s in group.elementary_divisors)
    coset = group.lift(elem) if draw(st.booleans()) else None
    extra = Fraction(draw(st.integers(0, MAX_NORM * 7)), draw(st.integers(1, 7)))
    return lattice, group, elem, coset, extra


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(lattices_with_cosets())
def test_integer_traversal_matches_box_oracle(case):
    lattice, group, elem, coset, extra = case
    table = box_norm_table(lattice, MAX_NORM, coset=coset)
    base = 2 * group.q(elem) if coset is not None else Fraction(0)
    norms = set(table) | {base + 2 * k for k in range(MAX_NORM // 2 + 1)} | {extra}
    for norm in sorted(n for n in norms if n <= MAX_NORM):
        got = [v.coords for v in enumerate_by_norm(lattice, norm, coset=coset)]
        assert got == table.get(norm, []), (lattice.gram, coset, norm)
    if coset is None:
        for norm in range(MAX_NORM + 1):
            vecs = [tuple(map(int, v)) for v in table.get(Fraction(norm), [])]
            first = next((v for v in vecs if math.gcd(*v) == 1), None)
            assert first_primitive_vector(lattice, norm) == first, (lattice.gram, norm)


def test_decompose_cache_is_bounded_and_read_only():
    lattices = {random_positive_definite_lattice(random.Random(seed), 3) for seed in range(50)}
    assert len(lattices) >= 40 > CACHE_SIZE
    for lattice in lattices:
        first_primitive_vector(lattice, 2)
    info = _decompose.cache_info()
    assert info.maxsize == CACHE_SIZE and info.currsize <= CACHE_SIZE
    rows = _decompose(build_named_lattice("E8"))
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)


def test_lex_stream_identical_on_cache_miss_and_hit():
    lattice = random_positive_definite_lattice(random.Random(4242), 4)
    misses = _decompose.cache_info().misses
    cold = list(lex_stream(lattice, 6))
    assert _decompose.cache_info().misses == misses + 1
    hits = _decompose.cache_info().hits
    warm = list(lex_stream(lattice, 6))
    assert _decompose.cache_info().hits == hits + 1
    assert cold == warm


def test_shift_of_wrong_length_or_bad_denominator_rejected():
    a2 = build_named_lattice("A2")
    with pytest.raises(ValueError, match="vector of length 3 in a lattice of rank 2"):
        list(lex_stream(a2, 2, (0, 0, 5), 1))
    with pytest.raises(ValueError, match="vector of length 1 in a lattice of rank 2"):
        list(lex_stream(a2, 2, (1,), 3))
    with pytest.raises(ValueError, match="denominator must be positive, got 0"):
        list(lex_stream(a2, 2, (1, 1), 0))
    with pytest.raises(ValueError, match="vector entry must be an integer, got 0.5"):
        list(lex_stream(a2, 2, (0.5, 1), 2))
    for den in (1.5, True):
        with pytest.raises(ValueError, match=f"denominator must be an integer, got {den}"):
            list(lex_stream(a2, 2, (1, 1), den))


def test_non_lattice_arguments_rejected():
    with pytest.raises(ValueError, match="lattice"):
        first_primitive_vector(None, 2)
    with pytest.raises(ValueError, match="coset"):
        enumerate_by_norm(build_named_lattice("A2"), 2, coset=3)


def oracle_numerators(lattice, norm, num=None, den=1):
    """The slow path's x, as the numerators w = den*x + num that lex_stream yields."""
    shift = (0,) * lattice.rank if num is None else num
    return [tuple(den * x + s for x, s in zip(xs, shift)) for xs in recursive_lex_stream(lattice, norm, num, den)]


def assert_matches_slow_path(lattice, norm, coset=None):
    num, den = (None, 1) if coset is None else (coset.num, coset.den)
    fast = list(lex_stream(lattice, norm, num, den))
    assert fast == oracle_numerators(lattice, norm, num, den), (lattice.gram, num, den, norm)
    vecs = enumerate_by_norm(lattice, norm, coset=coset)
    assert [v.num for v in vecs] == fast and all(v.den == den for v in vecs)
    # the numerators are used unreduced: each must already be in lowest terms
    for v in vecs:
        again = DualVector.from_scaled(lattice, v.num, v.den)
        assert (again.lattice, again.num, again.den) == (v.lattice, v.num, v.den)
    return fast


def random_definite(rng: random.Random, rank: int):
    """Even definite Gram with diagonal 2, 4 or 6 and off-diagonal -1, 0 or 1."""
    while True:
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            gram[i][i] = rng.choice((2, 4, 6))
            for j in range(i):
                gram[i][j] = gram[j][i] = rng.randint(-1, 1)
        lattice = make_lattice(gram)
        if lattice.signature == (rank, 0):
            return lattice


SLOW_PATH_MAX_NORM = 12


@st.composite
def lattices_with_shifts(draw):
    rank = draw(st.integers(1, 6))
    lattice = random_definite(random.Random(draw(st.integers(0, 2**32))), rank)
    coset = None
    if draw(st.booleans()):
        den = draw(st.integers(1, 6))
        num = [draw(st.integers(-(den // 2), den // 2)) for _ in range(rank)]
        coset = DualVector.from_scaled(lattice, num, den)
    extra = Fraction(draw(st.integers(0, SLOW_PATH_MAX_NORM * 36)), 36)
    return lattice, coset, extra


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lattices_with_shifts())
def test_flat_traversal_matches_recursive_slow_path(case):
    lattice, coset, extra = case
    zero = DualVector.from_scaled(lattice, (0,) * lattice.rank)
    base = zero if coset is None else coset
    norms = {extra, base.norm()}
    for i in range(lattice.rank):
        for sign in (1, -1):
            step = (x + sign * base.den * (j == i) for j, x in enumerate(base.num))
            norms.add(DualVector.from_scaled(lattice, step, base.den).norm())
    for norm in sorted(n for n in norms if n <= SLOW_PATH_MAX_NORM):
        assert_matches_slow_path(lattice, norm, coset)


def test_slow_path_fixed_cases():
    d = 2 * 10**40
    big = build_named_lattice("rank1", d)
    assert assert_matches_slow_path(big, 9 * d) == [(-3,), (3,)]
    half = DualVector(big, [Fraction(1, 2)])
    assert assert_matches_slow_path(big, Fraction(25, 4) * d, half) == [(-5,), (5,)]
    a2 = build_named_lattice("A2")
    assert assert_matches_slow_path(a2, 0) == [(0, 0)]
    assert assert_matches_slow_path(a2, 0, discriminant_group(a2).lift((1,))) == []
    assert assert_matches_slow_path(a2, 0, DualVector(a2, (1, -2))) == [(0, 0)]
    # <x + 1/2, x + 1/2> = 2 in <2>: the leaf finds t^2 = budget / k, a square,
    # but t - centre is not a multiple of the step, so nothing is yielded
    line = build_named_lattice("rank1", 2)
    assert assert_matches_slow_path(line, 2, DualVector(line, [Fraction(1, 2)])) == []
    assert assert_matches_slow_path(line, Fraction(9, 2), DualVector(line, [Fraction(1, 2)])) == [(-3,), (3,)]
    e8 = build_named_lattice("E8")
    for norm in (2, 4, 6, 8):
        assert_matches_slow_path(e8, norm)


def assert_central_shell(lattice, norm, coset=None):
    """The slow-path check on a shell that must be closed under negation."""
    nums = assert_matches_slow_path(lattice, norm, coset)
    assert sorted(tuple(-a for a in w) for w in nums) == nums
    return nums


@st.composite
def central_shells(draw):
    rank = draw(st.integers(1, 6))
    lattice = random_definite(random.Random(draw(st.integers(0, 2**32))), rank)
    den = draw(st.sampled_from((1, 2, 4)))
    # 2 num = 0 (mod den): each entry a multiple of den / 2 (of den when den = 1)
    unit = max(den // 2, 1)
    num = [unit * draw(st.integers(-2, 2)) for _ in range(rank)]
    coset = DualVector.from_scaled(lattice, num, den)
    extra = Fraction(draw(st.integers(0, SLOW_PATH_MAX_NORM * 4)), 4)
    return lattice, coset, extra


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(central_shells())
def test_central_shells_match_slow_path_and_are_symmetric(case):
    lattice, coset, extra = case
    assert coset.den in (1, 2)
    norms = {0, extra, coset.norm()}
    for i in range(lattice.rank):
        step = [0] * lattice.rank
        step[i] = coset.den
        norms.add(DualVector.from_scaled(lattice, [a + b for a, b in zip(coset.num, step)], coset.den).norm())
    for norm in sorted(n for n in norms if n <= SLOW_PATH_MAX_NORM):
        nums = assert_central_shell(lattice, norm, coset)
        # the zero vector is in the shell exactly at norm 0 of the lattice coset
        assert ((0,) * lattice.rank in nums) == (norm == 0 and coset.den == 1)
        if coset.den == 1:
            assert assert_central_shell(lattice, norm) == nums


def test_central_shells_fixed_cases():
    # rank 1: one closed-form step; rank 2: the fused step sits at depth 0
    line = build_named_lattice("rank1", 2)
    assert assert_central_shell(line, 8) == [(-2,), (2,)]
    half = DualVector(line, [Fraction(1, 2)])
    assert assert_central_shell(line, 2, half) == []
    assert assert_central_shell(line, Fraction(9, 2), half) == [(-3,), (3,)]
    a1a1 = make_lattice([[2, 0], [0, 2]])
    assert assert_central_shell(a1a1, 2) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert assert_central_shell(a1a1, 4) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    corner = DualVector(a1a1, [Fraction(1, 2), Fraction(1, 2)])
    assert assert_central_shell(a1a1, 1, corner) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    a2 = build_named_lattice("A2")
    assert assert_central_shell(a2, 2) == [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)]
    # norm 0: the zero vector alone, or nothing in a nontrivial coset
    for lattice in (line, a1a1, a2, build_named_lattice("E8")):
        assert assert_central_shell(lattice, 0) == [(0,) * lattice.rank]
    assert assert_central_shell(line, 0, half) == []
    assert assert_central_shell(a1a1, 0, corner) == []
