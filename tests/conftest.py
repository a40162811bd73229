"""Shared helpers: independent oracles and random lattice factories.

The box oracle is deliberately a different algorithm from the production
enumerator: it scans an integer box sized from the inverse Gram diagonal and
filters by exact norm, with no tree pruning involved.  The elimination
oracles (Bareiss determinant, Gauss-Jordan rank, inverse and inertia over
Fraction) are the routines that `intlinalg.symmetric_invariants` replaced,
kept here to check it.  `moment_matrix` is the half-Gram of a tuple of dual
vectors, paired one by one, as plain Fractions: the oracle for the moment
block that `EmbeddingWitness.to_jsonable` writes.
`recursive_lex_stream` is the nested-generator Fincke-Pohst traversal that
the flat loop of `enumeration.lex_stream` replaced, kept as its slow path: it
scans every leaf interval instead of solving for the last coordinate.
`unaugmented_smith_normal_form` is the Smith form that repeated each row and
column operation on separate U and V, the oracle for the augmented
elimination of `intlinalg.smith_normal_form`.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from math import isqrt, lcm
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from heegnerlab.enumeration import _exact_norm
from heegnerlab.intlinalg import Matrix, checked_int, checked_rows, identity
from heegnerlab.lattices import DualVector, IntegerLattice, make_lattice


def bareiss_determinant(mat: Matrix) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def fraction_determinant(mat) -> Fraction:
    """Determinant of a rational matrix, via scaling to an integer one."""
    rows = [[Fraction(x) for x in row] for row in mat]
    scale = lcm(*(x.denominator for row in rows for x in row))
    scaled = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    return Fraction(bareiss_determinant(scaled), scale ** len(rows))


def unaugmented_smith_normal_form(mat: Matrix) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form with transforms: returns (S, U, V) with S = U @ mat @ V.

    U and V are unimodular; S is diagonal with nonnegative entries satisfying
    the divisibility chain S[0][0] | S[1][1] | ...
    """
    a = [[checked_int(x) for x in row] for row in checked_rows(mat)]
    n = len(a)
    m = len(a[0]) if n else 0
    u = identity(n)
    v = identity(m)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    for t in range(min(n, m)):
        while True:
            best = None
            for i in range(t, n):
                for j in range(t, m):
                    x = a[i][j]
                    if x != 0 and (best is None or abs(x) < abs(best[2])):
                        best = (i, j, x)
            if best is None:
                break
            bi, bj, _ = best
            if bi != t:
                swap_rows(t, bi)
            if bj != t:
                swap_cols(t, bj)
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    add_row(i, t, -(a[i][t] // a[t][t]))
            for j in range(t + 1, m):
                if a[t][j] != 0:
                    add_col(j, t, -(a[t][j] // a[t][t]))
            if all(a[i][t] == 0 for i in range(t + 1, n)) and all(
                a[t][j] == 0 for j in range(t + 1, m)
            ):
                pivot = a[t][t]
                bad = next(
                    (
                        (i, j)
                        for i in range(t + 1, n)
                        for j in range(t + 1, m)
                        if a[i][j] % pivot != 0
                    ),
                    None,
                )
                if bad is None:
                    break
                add_row(t, bad[0], 1)
        if t < min(n, m) and a[t][t] < 0:
            negate_row(t)
    return a, u, v


def t_matrix_order(rep, tol: float = 1e-9) -> int:
    """Smallest k <= rep.level with T^k = Id to tolerance: the matrix order of
    T, computed from the matrix alone, as an oracle for the group's level."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    diag = np.diagonal(rep.t_matrix).copy()
    power = np.ones_like(diag)
    for k in range(1, rep.level + 1):
        power = power * diag
        if float(np.abs(power - 1.0).max()) <= tol:
            return k
    raise ValueError(f"T has no order up to {rep.level} at tolerance {tol}")


def rational_rank(mat) -> int:
    """Rank of a matrix with rational entries."""
    rows = [[Fraction(x) for x in row] for row in mat]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def invert_rational(mat) -> list[list[Fraction]]:
    """Inverse of a square rational matrix by Gauss-Jordan elimination."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def symmetric_signature(mat) -> tuple[int, int, int]:
    """Inertia (p, q, z) of a symmetric rational matrix, exactly.

    Symmetric Gaussian elimination with rational pivots; a remaining block
    with zero diagonal but a nonzero off-diagonal entry is handled by the
    usual basis change e_i -> e_i + e_j, which leaves inertia unchanged.
    """
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    active = list(range(n))
    p = q = z = 0
    while active:
        piv = next((i for i in active if a[i][i] != 0), None)
        if piv is None:
            pair = next(
                ((i, j) for i in active for j in active if i != j and a[i][j] != 0),
                None,
            )
            if pair is None:
                z += len(active)
                break
            i, j = pair
            for k in active:
                a[i][k] += a[j][k]
            for k in active:
                a[k][i] += a[k][j]
            piv = i
        d = a[piv][piv]
        if d > 0:
            p += 1
        else:
            q += 1
        active.remove(piv)
        for i in active:
            if a[i][piv] != 0:
                f = a[i][piv] / d
                for j in active:
                    a[i][j] -= f * a[piv][j]
                a[i][piv] = Fraction(0)
        for j in active:
            a[piv][j] = Fraction(0)
    return p, q, z


def moment_matrix(vectors) -> tuple[tuple[Fraction, ...], ...]:
    """Half-Gram matrix of a tuple of vectors from one ambient lattice."""
    vectors = list(vectors)
    if not all(isinstance(v, DualVector) for v in vectors):
        raise ValueError(f"vectors must be DualVectors, got {vectors!r}")
    if vectors:
        ambient = vectors[0].lattice
        if any(v.lattice != ambient for v in vectors[1:]):
            raise ValueError("moment matrix requires vectors from a single ambient lattice")
    return tuple(tuple(vi.pairing(vj) / 2 for vj in vectors) for vi in vectors)


def recursive_lex_stream(lattice: IntegerLattice, norm, num=None, den: int = 1):
    """All integer x with <x + num/den, x + num/den> = norm, in lex order of x,
    by one nested generator per level and a scan of every leaf interval."""
    n = lattice.rank
    # fraction-free LDL^T of the coordinate-reversed Gram, row l taken at its pivot step
    rows = [[lattice.gram[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]
    prev = 1
    for l, top in enumerate(rows):
        d = top[l]
        for row in rows[l + 1 :]:
            f = row[l]
            for j in range(l + 1, n):
                row[j] = (d * row[j] - f * top[j]) // prev
        prev = d
    target = _exact_norm(norm)
    if n == 0:
        if target == 0:
            yield ()
        return
    shift = [0] * n if num is None else list(num)[::-1]
    pivots = [rows[l][l] for l in range(n)]
    minors = [p * a for p, a in zip([1] + pivots, pivots)]
    scale = lcm(*minors)
    weights = [scale * target.denominator // m for m in minors]
    ws = [0] * n

    def descend(l: int, budget: int):
        row, k, s = rows[l], weights[l], shift[l]
        c = row[l] * s + sum(row[j] * ws[j] for j in range(l + 1, n))
        step = den * row[l]
        r = isqrt(budget // k)
        for x in range(-((r + c) // step), (r - c) // step + 1):
            t = step * x + c
            cost = t * t * k
            if l == 0:
                if cost == budget:
                    yield (x,)
            else:
                ws[l] = den * x + s
                for tail in descend(l - 1, budget - cost):
                    yield (x,) + tail

    yield from descend(n - 1, target.numerator * den * den * scale)


def box_norm_table(lattice: IntegerLattice, max_norm, coset: DualVector | None = None):
    """Map norm -> sorted coordinate tuples for all vectors of norm <= max_norm.

    Scans the full coordinate box |x_i + s_i| <= sqrt(max_norm * inv_ii) + 1
    and evaluates every norm exactly in scaled integers.
    """
    n = lattice.rank
    shift = coset.coords if coset is not None else tuple(Fraction(0) for _ in range(n))
    den = 1
    for s in shift:
        den = den * s.denominator // math.gcd(den, s.denominator)
    inv = invert_rational(lattice.gram)
    cap = Fraction(max_norm)
    axes = []
    for i in range(n):
        r = math.sqrt(float(cap * inv[i][i])) + 1e-9
        lo = math.floor(-float(shift[i]) - r) - 1
        hi = math.ceil(-float(shift[i]) + r) + 1
        axes.append(np.arange(lo, hi + 1, dtype=np.int64))
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=1)
    S_num = np.array([int(s * den) for s in shift], dtype=np.int64)
    W = X * den + S_num
    G = np.array(lattice.gram, dtype=np.int64)
    norms_scaled = np.einsum("ij,jk,ik->i", W, G, W)
    keep = norms_scaled <= int(cap * den * den)
    table: dict[Fraction, list[tuple[Fraction, ...]]] = {}
    for row, ns in zip(W[keep], norms_scaled[keep]):
        norm = Fraction(int(ns), den * den)
        vec = tuple(Fraction(int(w), den) for w in row)
        table.setdefault(norm, []).append(vec)
    for norm in table:
        table[norm].sort()
    return table


def random_even_gram(rng: random.Random, rank: int, max_abs_det: int | None = None):
    """Random nondegenerate even Gram matrix (any signature)."""
    while True:
        m = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            m[i][i] = rng.choice((-6, -4, -2, 2, 4, 6))
            for j in range(i):
                m[i][j] = m[j][i] = rng.randint(-2, 2)
        det = bareiss_determinant(m)
        if det == 0:
            continue
        if max_abs_det is not None and abs(det) > max_abs_det:
            continue
        return make_lattice(m)


def random_positive_definite_lattice(rng: random.Random, rank: int) -> IntegerLattice:
    """Random even positive definite lattice: twice a squared integer matrix."""
    while True:
        b = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rank)]
        if bareiss_determinant(b) == 0:
            continue
        gram = [[2 * sum(b[k][i] * b[k][j] for k in range(rank)) for j in range(rank)] for i in range(rank)]
        return make_lattice(gram)


@pytest.fixture
def rng():
    return random.Random(20260808)
