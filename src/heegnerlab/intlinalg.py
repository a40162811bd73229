"""Exact integer linear algebra.

Everything here works over Python ints; no floating point ever enters a
result.  Matrices are lists (or tuples) of rows.  The shared input guards
accept a rational entry where one is meant (`checked_row`), an integral
value of any type where an integer is (`checked_int`), and an instance of
a class where one is (`checked_instance`).

Integer kernels come in the canonical row-HNF basis by one of two routes.
The kernel of a single row r has a closed form (Cohen, GTM 138, 2.4): with
g_c = gcd(r_c, ..., r_{m-1}) and l the last index where r is nonzero, the
pivots are g_{c+1}/g_c in the columns c < l and 1 in the columns c > l, and
each entry above a pivot follows from one congruence.  Two or more rows go
through one row-HNF of the augmented rows (column j, e_j).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from numbers import Rational
from operator import mul
from typing import Sequence

Matrix = Sequence[Sequence[int]]


def identity(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def mat_vec(mat, vec) -> list:
    return [sum(map(mul, row, vec)) for row in mat]


def is_symmetric(mat) -> bool:
    n = len(mat)
    return all(len(row) == n for row in mat) and all(
        mat[i][j] == mat[j][i] for i in range(n) for j in range(i)
    )


def checked_int(x, name: str = "entry", minimum: int | None = None) -> int:
    """x as an int; ValueError naming `name` and x unless x is an integer,
    and, when a minimum is given, unless x >= minimum.

    A bool is refused although it compares equal to 0 or 1: a flag passed
    where a count is meant is a caller's error.
    """
    if type(x) is not int:
        try:
            ok = not isinstance(x, bool) and int(x) == x
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ValueError(f"{name} must be an integer, got {x} ({type(x).__name__})")
        x = int(x)
    if minimum is not None and x < minimum:
        bound = {0: "nonnegative", 1: "positive"}.get(minimum, f"at least {minimum}")
        raise ValueError(f"{name} must be {bound}, got {x}")
    return x


def checked_even(x, name: str = "d", minimum: int = 1) -> int:
    """x as an even int >= minimum (positive by default); ValueError naming `name` otherwise."""
    x = checked_int(x, name, minimum)
    if x % 2:
        raise ValueError(f"{name} must be even, got {x}")
    return x


def checked_instance(x, cls: type, name: str):
    """x itself; ValueError naming `name` unless x is an instance of cls."""
    if not isinstance(x, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {cls.__name__}, got {x!r}")
    return x


def _listed(x, name: str, of: str) -> list:
    """list(x); ValueError naming `name` for a non-iterable, a str or a bytes,
    which would iterate as characters or byte values."""
    if not isinstance(x, (str, bytes)):
        try:
            return list(x)
        except TypeError:
            pass
    raise ValueError(f"{name} must be a sequence of {of}, got {x!r}")


def checked_row(x, name: str = "vector") -> list:
    """x as a list of rationals (ints, Fractions, floats); ValueError naming `name` otherwise."""
    row = _listed(x, name, "numbers")
    for e in row:  # the type test spares the common types the slower ABC check
        if type(e) not in (int, Fraction, float) and not isinstance(e, (Rational, float)):
            raise ValueError(f"{name} entry must be a rational number, got {e} ({type(e).__name__})")
    return row


def checked_rows(x, name: str = "matrix") -> list[list]:
    """x as a list of checked_row lists; ValueError naming `name` otherwise."""
    return [checked_row(r, f"{name} row") for r in _listed(x, name, "rows")]


def _checked_matrix(x) -> list[list[int]]:
    """x as a list of integer rows of one length; ValueError otherwise."""
    a = [[checked_int(e) for e in row] for row in checked_rows(x)]
    if any(len(row) != len(a[0]) for row in a):  # a short row would shift a column
        raise ValueError(f"matrix rows must have one length, got {[len(row) for row in a]}")
    return a


def symmetric_invariants(mat) -> tuple[int, int, int, int]:
    """Inertia (p, q, z) and determinant of a symmetric integer matrix.

    One fraction-free symmetric elimination (Bareiss, Math. Comp. 22, 1968;
    Cohen, GTM 138, 2.2).  Pivots are diagonal, so the ratio of consecutive
    pivots is an LDL^T diagonal entry whose sign counts toward p or q.  When
    every remaining diagonal entry is 0 but an off-diagonal one is not, the
    congruence e_i -> e_i + e_j makes a nonzero pivot; the entries are
    bordered minors, linear in row and column i, so the divisions stay exact.
    z is the size of the zero block left over.
    """
    if not is_symmetric(mat):
        raise ValueError("matrix must be square and symmetric")
    a = [[x if type(x) is int else checked_int(x) for x in row] for row in mat]
    p, z, prev = _eliminate(a)
    return p, len(a) - z - p, z, 0 if z else prev


def _eliminate(a: list[list[int]]) -> tuple[int, int, int]:
    """The elimination of symmetric_invariants on integer rows, in place:
    returns (p, z, last pivot) and leaves each pivot row as at its pivot step."""
    active = list(range(len(a)))
    p, prev = 0, 1
    while active:
        piv = next((i for i in active if a[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in active for j in active if a[i][j]), None)
            if pair is None:
                break
            i, j = pair
            for k in active:
                a[i][k] += a[j][k]
            for k in active:
                a[k][i] += a[k][j]
            piv = i
        d = a[piv][piv]
        p += (d > 0) == (prev > 0)
        active.remove(piv)
        top = a[piv]
        for i in active:
            row, f = a[i], a[i][piv]
            for j in active:
                row[j] = (d * row[j] - f * top[j]) // prev
        prev = d
    return p, len(active), prev


def smith_normal_form(mat: Matrix) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form with transforms: returns (S, U, V) with S = U @ mat @ V.

    U and V are unimodular; S is diagonal with nonnegative entries satisfying
    the divisibility chain S[0][0] | S[1][1] | ...  The n x m matrix is
    reduced inside the augmented matrix [[mat, I_n], [I_m, 0]]: row operations
    act on its first n rows and column operations on its first m columns, so
    it ends as [[S, U], [V, 0]].
    """
    a = _checked_matrix(mat)
    n = len(a)
    m = len(a[0]) if n else 0
    w = [row + unit for row, unit in zip(a, identity(n))] + [unit + [0] * n for unit in identity(m)]

    def add_row(dst, src, c):
        w[dst] = [x + c * y for x, y in zip(w[dst], w[src])]

    def add_col(dst, src, c):
        for row in w:
            row[dst] += c * row[src]

    for t in range(min(n, m)):
        while True:
            best = None
            for i in range(t, n):
                for j, x in enumerate(w[i][t:m], t):
                    if x and (best is None or abs(x) < smallest):
                        best, smallest = (i, j), abs(x)
            if best is None:
                break
            bi, bj = best
            w[t], w[bi] = w[bi], w[t]
            if bj != t:
                for row in w:
                    row[t], row[bj] = row[bj], row[t]
            pivot = w[t][t]
            for i in range(t + 1, n):
                if w[i][t]:
                    add_row(i, t, -(w[i][t] // pivot))
            for j in range(t + 1, m):
                if w[t][j]:
                    add_col(j, t, -(w[t][j] // pivot))
            if any(w[i][t] for i in range(t + 1, n)) or any(w[t][t + 1 : m]):
                continue
            bad = next((i for i in range(t + 1, n) for x in w[i][t + 1 : m] if x % pivot), None)
            if bad is None:
                break
            add_row(t, bad, 1)
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]
    return [row[:m] for row in w[:n]], [row[m:] for row in w[:n]], [row[:m] for row in w[n:]]


def kernel_basis(mat: Matrix) -> list[list[int]]:
    """Basis of the integer (right) kernel {x : mat @ x = 0}.

    The kernel of an integer matrix is a saturated subgroup of Z^m, so the
    basis spans a primitive sublattice.  The basis is the canonical row-HNF
    of the kernel (Cohen, GTM 138, 2.4).  For one row r it is read off in
    closed form: the pivot in column c < l, the last index with r_l != 0, is
    g_{c+1}/g_c with g_c = gcd(r_c, ..., r_{m-1}), every column past l holds
    a unit pivot, and column l holds none.  For two or more rows, one row-HNF
    of the rows (column j of mat, e_j) spans {(mat @ x, x)}; its rows whose
    mat part is zero, with that part dropped, are the kernel basis.
    """
    return _kernel_basis(_checked_matrix(mat))


def _kernel_basis(a: list[list[int]]) -> list[list[int]]:
    """kernel_basis of integer rows of one length."""
    n = len(a)
    if n == 1:
        return _row_kernel(a[0])
    m = len(a[0]) if n else 0
    rows = [[row[j] for row in a] + unit for j, unit in enumerate(identity(m))]
    return [row[n:] for row in _hermite_row_basis(rows) if not any(row[:n])]


def _row_kernel(r: Sequence[int]) -> list[list[int]]:
    """Row-HNF basis of {x : r . x = 0} for one integer row r, in closed form.

    Row c < l has pivot h_c = g_{c+1}/g_c, zeros before it and past column l,
    and in each column k with c < k < l the one x_k in [0, h_k) that keeps the
    partial sum s = r_c h_c + r_{c+1} x_{c+1} + ... + r_k x_k divisible by
    g_{k+1}: with s divisible by g_k, x_k = -(s/g_k) (r_k/g_k)^-1 mod h_k.
    Then g_l = |r_l| divides s, and x_l = -s/r_l.  Each such row is a kernel
    vector with the least positive entry a kernel vector can lead with at c,
    and its entries above the later pivots are reduced, so by uniqueness of
    the HNF the rows, with the unit rows e_c for c > l, are the HNF basis.
    """
    m = len(r)
    last = next((c for c in range(m - 1, -1, -1) if r[c]), None)
    if last is None:
        return identity(m)
    g = [0] * (m + 1)  # g[c] = gcd(r[c:])
    for c in range(m - 1, -1, -1):
        g[c] = gcd(r[c], g[c + 1])
    # (k, g_k, h_k, (r_k/g_k)^-1 mod h_k) for each column k < l whose pivot h_k exceeds 1
    steps = [(k, g[k], g[k + 1] // g[k], pow(r[k] // g[k], -1, g[k + 1] // g[k]))
             for k in range(last) if g[k + 1] != g[k]]
    basis = identity(m)
    for c in range(last):
        row = basis[c]
        h = row[c] = g[c + 1] // g[c]
        s = r[c] * h
        for k, gk, hk, inv in steps:
            if k > c:
                x = row[k] = -(s // gk) * inv % hk
                s += r[k] * x
        row[last] = -s // r[last]
    del basis[last]
    return basis


def hermite_row_basis(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Canonical row-HNF basis of the lattice spanned by the given rows.

    Pivots are positive, entries above a pivot are reduced to [0, pivot),
    and zero rows are dropped.
    """
    return _hermite_row_basis(_checked_matrix(rows))


def _hermite_row_basis(rows: list[list[int]]) -> list[list[int]]:
    """hermite_row_basis of integer rows, which it reduces in place."""
    work = [r for r in rows if any(r)]
    if not work:
        return []
    m = len(work[0])
    basis: list[list[int]] = []
    for col in range(m):
        sel = [r for r in work if r[col] != 0]
        if not sel:
            continue
        while len(sel) > 1:
            sel.sort(key=lambda r: abs(r[col]))
            head = sel[0]
            tail = head[col:]
            for r in sel[1:]:
                c = r[col] // head[col]
                r[col:] = [x - c * y for x, y in zip(r[col:], tail)]
            sel = [head] + [r for r in sel[1:] if r[col] != 0]
        head = sel[0]
        if head[col] < 0:
            head[:] = [-x for x in head]
        basis.append(head)
        work = [r for r in work if r is not head and any(r)]
    for i in range(1, len(basis)):
        piv = next(k for k in range(m) if basis[i][k] != 0)
        tail = basis[i][piv:]
        for j in range(i):
            c = basis[j][piv] // tail[0]
            if c:
                basis[j][piv:] = [x - c * y for x, y in zip(basis[j][piv:], tail)]
    return basis
