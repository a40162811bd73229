"""Admissibility tests, growth inequalities, and irrationality bound certificates.

The per-genus certificate collects every applicable route: the cubic and
Gushel-Mukai labelling routes (exponent 10), one Hilbert-square route per
square witness (exponent 10, constant depending on the witness), and the
uniform moment-cycle route (exponent 14, multiplier 2^omega(g-1)).
Multiplicative constants are carried symbolically; the toolkit never invents
a numeric value for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .arith import divisor_sigma_sieve, factorize, multiplicative_sieve, omega
from .intlinalg import checked_even, checked_int, checked_row, checked_rows
from .lattices import build_named_lattice
from .cycles import (
    HeegnerIndex,
    cubic_heegner_index,
    embed_k3_lattice,
    gm_heegner_index,
    hk_heegner_index,
)

THEOREM_RANGE_MIN_D = 8  # the exponent-10 routes need d = 2g - 2 >= 8


@dataclass(frozen=True)
class CaseResult:
    ok: bool
    reason: str | None
    in_theorem_range: bool

    def __bool__(self) -> bool:
        return self.ok

    def to_jsonable(self) -> dict:
        return {"pass": self.ok, "reason": self.reason, "in_theorem_range": self.in_theorem_range}


def case_a(d: int) -> CaseResult:
    """Cubic-fourfold admissibility: residue 0 or 2 mod 6; no factor 4, 9,
    or odd prime p = 2 (mod 3).  The first violated clause is named."""
    d = checked_even(d, "d", 2)
    in_range = d >= THEOREM_RANGE_MIN_D
    r = d % 6
    if r not in (0, 2):
        return CaseResult(False, f"d = {r} (mod 6) is not 0 or 2", in_range)
    if d % 4 == 0:
        return CaseResult(False, "divisible by 4", in_range)
    if d % 9 == 0:
        return CaseResult(False, "divisible by 9", in_range)
    for p in sorted(factorize(abs(d))):
        if p != 2 and p % 3 == 2:
            return CaseResult(False, f"divisible by prime {p} = 2 (mod 3)", in_range)
    return CaseResult(True, None, in_range)


def case_b(d: int) -> CaseResult:
    """Gushel-Mukai admissibility: residue 2 or 4 mod 8; no prime p = 3 (mod 4)."""
    d = checked_even(d, "d", 2)
    in_range = d >= THEOREM_RANGE_MIN_D
    r = d % 8
    if r not in (2, 4):
        return CaseResult(False, f"d = {r} (mod 8) is not 2 or 4", in_range)
    for p in sorted(factorize(abs(d))):
        if p % 4 == 3:
            return CaseResult(False, f"divisible by prime {p} = 3 (mod 4)", in_range)
    return CaseResult(True, None, in_range)


# Witnesses `case_c` builds at most.  Each has its own n in [1, n_max], so
# no n_max up to the cap is ever refused; past it, a huge n_max with a huge d
# would ask for about sqrt(d/2) witnesses, one certificate route each.
CASE_C_WITNESS_CAP = 10**4


def case_c(d: int, n_max: int) -> list[tuple[int, int]]:
    """Square witnesses: all n in [1, min(n_max, d/2)] with d/2 - n = m^2, as
    (n, m) in ascending m, walked from the least m with m^2 >= d/2 - n_max.
    More than CASE_C_WITNESS_CAP witnesses are refused before any is built."""
    d, n_max = checked_even(d, "d", 2), checked_int(n_max, "n_max", 1)
    half = d // 2
    m = math.isqrt(half - n_max - 1) + 1 if half > n_max else 0
    count = math.isqrt(half - 1) - m + 1
    if count > CASE_C_WITNESS_CAP:
        raise ValueError(
            f"n_max = {n_max} is too large for d = {d}: {count} square witnesses"
            f" pass the cap of {CASE_C_WITNESS_CAP}"
        )
    out = []
    while m * m < half:
        out.append((half - m * m, m))
        m += 1
    return out


def fm_partner_count(g: int) -> int:
    """Fourier-Mukai partner count 2^(omega(g-1) - 1), clamped to 1.

    The printed exponent is negative at omega(g-1) = 0 (g = 2); a surface is
    always its own partner, so the exponent is clamped at zero.
    """
    g = checked_int(g, "g", 2)
    return 2 ** max(omega(g - 1) - 1, 0)


def zeta_partial_sum(s: int, terms: int) -> Fraction:
    """Lower bound for zeta(s): the partial sum of 1/j^s up to `terms`."""
    return sum((Fraction(1, j**s) for j in range(1, terms + 1)), Fraction(0))


def _checked_range(pair, name: str) -> tuple[int, int]:
    """(lo, hi) as ints with 1 <= lo <= hi; ValueError naming `name` otherwise."""
    row = checked_row(pair, name)
    if len(row) != 2:
        raise ValueError(f"{name} must be a (lo, hi) pair, got {pair!r}")
    lo, hi = (checked_int(x, f"{name} bound") for x in row)
    if not 1 <= lo <= hi:
        raise ValueError(f"bad range [{lo}, {hi}]")
    return lo, hi


# Bits of m^(k-1) in `sandwich_check`: the paper's largest weight, k = 14
# (Lambda_sharp, signature (26, 2)), at the 24-bit sieve cap 10^7.
SANDWICH_POWER_BITS = 13 * 24


@dataclass(frozen=True)
class SandwichReport:
    k: int
    m_lo: int
    m_hi: int
    zeta_terms: int
    zeta_lower: float
    zeta_upper: float
    failures: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_jsonable(self) -> dict:
        return {
            "k": self.k,
            "m_range": [self.m_lo, self.m_hi],
            "zeta_terms": self.zeta_terms,
            "zeta_lower": self.zeta_lower,
            "zeta_upper": self.zeta_upper,
            "failures": list(self.failures),
            "pass": self.passed,
        }

    def rows(self) -> list[tuple]:
        return [(f"k={self.k} m=[{self.m_lo},{self.m_hi}]", "sandwich", self.passed)]


def sandwich_check(k: int, m_range: tuple[int, int]) -> SandwichReport:
    """Verify m^(k-1) <= sigma_(k-1)(m) <= zeta(k-1) * m^(k-1) on a range.

    The upper comparison is conservative: it uses an exact rational partial
    sum of zeta(k-1), which is a lower bound for the true value, so a pass
    here implies the true inequality.  64 terms decide every m the caps
    allow: m <= SIEVE_CAP < 2*3*...*23 has at most 8 distinct primes, so
    sigma_s(m)/m^s < prod_{p<=19} p^s/(p^s - 1), which is below the 64-term
    sum for every s = k - 1 in 2..SANDWICH_POWER_BITS.  A k with (k-1)
    times the bit length of the range's top above SANDWICH_POWER_BITS is
    refused.
    """
    k, (m_lo, m_hi) = checked_int(k, "k", 3), _checked_range(m_range, "m_range")
    if (k - 1) * m_hi.bit_length() > SANDWICH_POWER_BITS:
        raise ValueError(f"k = {k} is too large: m^(k-1) up to m = {m_hi} passes {SANDWICH_POWER_BITS} bits")
    s = k - 1
    sigma = divisor_sigma_sieve(m_hi, s)
    failures = []
    terms = 64
    zlo = zeta_partial_sum(s, terms)
    # floor(zlo * 2^64) <= zlo * 2^64, so sigma * 2^64 <= floor64 * m^s
    # proves sigma <= zlo * m^s without the long numerator and denominator
    floor64 = (zlo.numerator << 64) // zlo.denominator
    for m in range(m_lo, m_hi + 1):
        mk = m**s
        if mk > sigma[m]:
            failures.append(m)
            continue
        if sigma[m] << 64 <= floor64 * mk:
            continue
        if sigma[m] * zlo.denominator > zlo.numerator * mk:
            failures.append(m)
    zhi = zlo + Fraction(1, (s - 1) * terms ** (s - 1))  # integral-test bound on the tail
    return SandwichReport(
        k=k,
        m_lo=m_lo,
        m_hi=m_hi,
        zeta_terms=terms,
        zeta_lower=float(zlo),
        zeta_upper=float(zhi),
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class DivisorBoundReport:
    lo: int
    hi: int
    failures: tuple[int, ...]
    squarefree_equality_checked_to: int
    squarefree_equality_holds: bool

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_jsonable(self) -> dict:
        return {
            "range": [self.lo, self.hi],
            "failures": list(self.failures),
            "pass": self.passed,
            "squarefree_equality_checked_to": self.squarefree_equality_checked_to,
            "squarefree_equality_holds": self.squarefree_equality_holds,
        }


SQUAREFREE_CHECK_LIMIT = 10**4


def divisor_bound_check(n_range: tuple[int, int]) -> DivisorBoundReport:
    """Verify 2^omega(n) <= d(n) on a range, with squarefree equality up to SQUAREFREE_CHECK_LIMIT."""
    lo, hi = _checked_range(n_range, "n_range")
    two_omega = multiplicative_sieve(hi, lambda prev, pk, p: 2)
    dc = divisor_sigma_sieve(hi, 0)
    bad = [n for n in range(lo, hi + 1) if two_omega[n] > dc[n]]
    sq_hi = min(hi, SQUAREFREE_CHECK_LIMIT)
    mu2 = multiplicative_sieve(sq_hi, lambda prev, pk, p: int(pk == p))
    sq_holds = all((two_omega[n] == dc[n]) == bool(mu2[n]) for n in range(1, sq_hi + 1))
    return DivisorBoundReport(
        lo=lo,
        hi=hi,
        failures=tuple(bad),
        squarefree_equality_checked_to=sq_hi,
        squarefree_equality_holds=sq_holds,
    )


def heegner_irr_exponent(m: int) -> int:
    """Irrationality growth exponent m/2 for divisor-route families."""
    m = checked_even(m, "m")
    if m < 4:
        raise ValueError(f"the divisor route requires m >= 4, got {m}")
    return m // 2


def kudla_irr_exponent(m: int) -> int:
    """Irrationality growth exponent 1 + m/2 for moment-cycle families.

    The codimension hypothesis 1 <= r <= m - 2 is tracked by the caller.
    """
    m = checked_even(m, "m")
    if m < 4:
        raise ValueError(f"the cycle route requires m >= 4 so that some 1 <= r <= m-2 exists, got {m}")
    return 1 + m // 2


def growth_exponent_estimate(series: Sequence[tuple]) -> float:
    """Least-squares slope of log(value) against log(index), zeros ignored.

    Every row is an (index, value) pair of numbers, not bools; indices must be
    positive and finite, values finite and nonnegative.
    """
    import numpy as np

    pts = []
    for row in checked_rows(series, "series"):
        if len(row) != 2:
            raise ValueError(f"each series row must be an (index, value) pair, got {row!r}")
        if any(isinstance(x, bool) for x in row):  # float(True) would read as 1.0
            raise ValueError(f"series row {row!r} is not a pair of numbers")
        try:
            i, v = float(row[0]), float(row[1])
        except OverflowError as exc:
            raise ValueError(f"series row {row!r} is not a pair of numbers") from exc
        if not (math.isfinite(i) and i > 0 and math.isfinite(v) and v >= 0):
            raise ValueError(f"series row {row!r} needs a positive finite index and a nonnegative finite value")
        if v:
            pts.append((i, v))
    if len(pts) < 8:
        raise ValueError(f"need at least 8 nonzero entries, got {len(pts)}")
    xs = np.log([p[0] for p in pts])
    ys = np.log([p[1] for p in pts])
    xbar = xs.mean()
    ybar = ys.mean()
    denom = float(((xs - xbar) ** 2).sum())
    if denom == 0.0:
        return 0.0
    return float(((xs - xbar) * (ys - ybar)).sum() / denom)


@dataclass(frozen=True)
class AdmissibilityReport:
    d: int
    case_a: CaseResult
    case_b: CaseResult
    case_c_witnesses: tuple[tuple[int, int], ...]

    def to_jsonable(self) -> dict:
        return {
            "d": self.d,
            "case_a": self.case_a.to_jsonable(),
            "case_b": self.case_b.to_jsonable(),
            "case_c_witnesses": [list(w) for w in self.case_c_witnesses],
        }

    def rows(self) -> list[tuple]:
        return [
            (self.d, "case_a", self.case_a.ok),
            (self.d, "case_b", self.case_b.ok),
            (self.d, "case_c_nonempty", bool(self.case_c_witnesses)),
        ]


def admissibility_report(d: int, n_max: int = 10) -> AdmissibilityReport:
    d = checked_even(d, "d", 2)
    return AdmissibilityReport(d, case_a(d), case_b(d), tuple(case_c(d, n_max)))


@dataclass(frozen=True)
class Route:
    route: str
    exponent: int
    multiplier: int
    constant: str
    indices: tuple
    source: str
    extras: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        doc = {
            "route": self.route,
            "exponent": self.exponent,
            "multiplier": self.multiplier,
            "constant": self.constant,
            "index": [i.to_jsonable() if hasattr(i, "to_jsonable") else str(i) for i in self.indices],
            "source": self.source,
        }
        doc.update(self.extras)
        return doc


@dataclass(frozen=True)
class BoundCertificate:
    g: int
    d: int
    routes: tuple[Route, ...]
    conventions: dict

    def to_jsonable(self) -> dict:
        return {
            "g": self.g,
            "d": self.d,
            "routes": [r.to_jsonable() for r in self.routes],
            "conventions": dict(self.conventions),
        }


def irr_bound_certificate(g: int, n_max: int = 10) -> BoundCertificate:
    """Assemble every applicable bound route for genus g.

    Routes A, B, and C(n) carry the divisor-route exponent of Lambda_C
    (m = 20, so 10) and are read off the admissibility report of d = 2g - 2,
    in the theorem range d >= 8 only; each C(n) is a square witness (n, m) of
    case C indexed by the split-polarization hyperkaehler family of degree
    2n, so its constant depends on n.  The uniform route always applies, with
    the cycle exponent of Lambda_sharp (m = 26, so 14) and multiplier
    2^omega(g-1), witnessed by the rank-7 moment matrix with determinant d / 2^7.
    """
    g = checked_int(g, "g", 2)
    d = 2 * g - 2
    report = admissibility_report(d, n_max)
    heegner = heegner_irr_exponent(build_named_lattice("Lambda_C").signature[0])
    kudla = kudla_irr_exponent(build_named_lattice("Lambda_sharp").signature[0])
    routes: list[Route] = []
    if d >= THEOREM_RANGE_MIN_D:
        if report.case_a:
            routes.append(
                Route(
                    route="A",
                    exponent=heegner,
                    multiplier=2 if d % 6 == 0 else 1,  # degree of the cubic moduli correspondence
                    constant="C",
                    indices=(cubic_heegner_index(d),),
                    source="cubic fourfold labelling route",
                )
            )
        if report.case_b:
            routes.append(
                Route(
                    route="B",
                    exponent=heegner,
                    multiplier=1,
                    constant="C",
                    indices=gm_heegner_index(d),
                    source="Gushel-Mukai fourfold labelling route",
                )
            )
        for n, m in report.case_c_witnesses:
            family = hk_heegner_index(n, 1, d)
            routes.append(
                Route(
                    route=f"C({n})",
                    exponent=heegner,
                    multiplier=1,
                    constant=f"C_{n}",
                    indices=(
                        HeegnerIndex(n=family.index, gamma=family.gamma, lattice_tag=family.lattice_tag),
                    ),
                    source="Hilbert-square polarization route",
                    extras={"m": m, "target": {"degree": 2 * family.n, "delta": family.delta}},
                )
            )
    witness = embed_k3_lattice(d)
    routes.append(
        Route(
            route="uniform",
            exponent=kudla,
            multiplier=2 ** omega(g - 1),
            constant="C",
            indices=(f"det(T) = {witness.det_lhs}",),
            source="rank-7 moment cycle in the unimodular (26,2) lattice",
            extras={
                "det_T": str(witness.det_lhs),
                "det_check_pass": witness.det_check_passed,
                "fm_partners": fm_partner_count(g),
            },
        )
    )
    return BoundCertificate(
        g=g,
        d=d,
        routes=tuple(routes),
        conventions={"fm_partner_exponent": "max(omega(g-1) - 1, 0)"},
    )
