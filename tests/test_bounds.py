import json
import math
from fractions import Fraction

import pytest

from heegnerlab.arith import (
    divisor_sigma_sieve,
    factorize,
    multiplicative_sieve,
    omega,
    sigma_power,
)
from heegnerlab.bounds import (
    CASE_C_WITNESS_CAP,
    THEOREM_RANGE_MIN_D,
    SandwichReport,
    admissibility_report,
    case_a,
    case_b,
    case_c,
    divisor_bound_check,
    fm_partner_count,
    growth_exponent_estimate,
    heegner_irr_exponent,
    irr_bound_certificate,
    kudla_irr_exponent,
    sandwich_check,
    zeta_partial_sum,
)
from heegnerlab.cycles import hk_heegner_index


def test_case_a_examples():
    assert case_a(26).ok
    r8 = case_a(8)
    assert not r8.ok and r8.reason == "divisible by 4"
    r18 = case_a(18)
    assert not r18.ok and r18.reason == "divisible by 9"
    r50 = case_a(50)
    assert not r50.ok and "5 = 2 (mod 3)" in r50.reason
    r16 = case_a(16)
    assert not r16.ok and "mod 6" in r16.reason
    with pytest.raises(ValueError, match="even"):
        case_a(7)


def test_case_b_examples():
    assert case_b(10).ok
    r12 = case_b(12)
    assert not r12.ok and "3 = 3 (mod 4)" in r12.reason
    assert case_b(26).ok
    r16 = case_b(16)
    assert not r16.ok and "mod 8" in r16.reason


def test_case_residue_implications():
    for d in range(2, 10001, 2):
        if case_a(d).ok:
            assert d % 6 in (0, 2), d
        if case_b(d).ok:
            assert d % 8 in (2, 4), d


def test_theorem_range_flag():
    assert not case_a(2).in_theorem_range
    assert case_a(26).in_theorem_range


def walk_every_m(d, n_max):
    """Reference: every m with m^2 < d/2, keeping the n = d/2 - m^2 <= n_max."""
    out, m = [], 0
    while m * m < d // 2:
        if d // 2 - m * m <= n_max:
            out.append((d // 2 - m * m, m))
        m += 1
    return out


def test_case_c():
    assert case_c(18, 9) == [(9, 0), (8, 1), (5, 2)]
    assert case_c(4, 10) == [(2, 0), (1, 1)]
    assert case_c(2, 1) == [(1, 0)]
    for n, m in case_c(1000, 500):
        assert 1 <= n <= 500 and 500 - n == m * m
    with pytest.raises(ValueError, match="even"):
        case_c(9, 5)
    assert case_c(10**30, 10) == []
    for d in range(2, 5001, 2):
        for n_max in (1, 2, 5, 10, 37, 1000):
            assert case_c(d, n_max) == walk_every_m(d, n_max), (d, n_max)
    # at n_max >= d/2 the witnesses are m = 0..isqrt(d/2 - 1): the cap exactly, then one more
    cap = CASE_C_WITNESS_CAP
    assert len(case_c(2 * cap**2, cap**2)) == cap
    with pytest.raises(ValueError, match="n_max"):
        case_c(2 * (cap**2 + 1), cap**2 + 1)
    with pytest.raises(ValueError, match="n_max"):
        case_c(2**63, 10**30)


def test_cubic_map_degree():
    """Route A's multiplier is the degree of the cubic moduli correspondence:
    2 for d = 0 (mod 6), 1 for d = 2 (mod 6); no route A off case A."""
    for g in range(2, 400):
        d = 2 * g - 2
        routes = [r for r in irr_bound_certificate(g).routes if r.route == "A"]
        if d >= THEOREM_RANGE_MIN_D and case_a(d):
            (route,) = routes
            assert route.multiplier == (2 if d % 6 == 0 else 1)
        else:
            assert not routes


def test_arithmetic_functions():
    assert omega(12) == 2
    assert sigma_power(1, 6) == 12
    assert sigma_power(0, 12) == 6
    for k in (0, 1, 5):
        assert sigma_power(k, 1) == 1
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(30) == {2: 1, 3: 1, 5: 1} and factorize(12) == {2: 2, 3: 1}
    with pytest.raises(ValueError, match="positive"):
        omega(0)
    with pytest.raises(ValueError, match="bound"):
        factorize(10**12 + 1)


def test_sandwich_small():
    report = sandwich_check(3, (2, 2))
    assert report.passed
    assert report.zeta_lower <= 1.6449340668 <= report.zeta_upper
    # sigma_2(2) = 5 sits between 4 and zeta(2)*4
    assert 4 <= sigma_power(2, 2) <= report.zeta_upper * 4
    report11 = sandwich_check(11, (1, 2000))
    assert report11.passed
    with pytest.raises(ValueError, match="at least 3"):
        sandwich_check(2, (1, 10))


def slow_sigma_sieve(limit, power):
    """Reference: add d^power to every multiple of every d."""
    out = [0] * (limit + 1)
    for d in range(1, limit + 1):
        dp = d**power
        for k in range(d, limit + 1, d):
            out[k] += dp
    return out


def test_divisor_sigma_sieve_matches_double_loop_and_sigma_power():
    for power in range(7):
        full = divisor_sigma_sieve(3000, power)
        assert full == slow_sigma_sieve(3000, power)
        assert full[1:] == [sigma_power(power, m) for m in range(1, 3001)]
        for limit in range(3001):
            assert divisor_sigma_sieve(limit, power) == full[: limit + 1]
    with pytest.raises(ValueError, match="nonnegative"):
        divisor_sigma_sieve(10, -1)


# f(p^e) from (f(p^(e-1)), p^e, p), each with its trial-division oracle
MULTIPLICATIVE_RULES = {
    "omega": (lambda prev, pk, p: 2, lambda n: 2 ** omega(n)),
    "divisor_count": (lambda prev, pk, p: prev + 1, lambda n: sigma_power(0, n)),
    "squarefree": (lambda prev, pk, p: int(pk == p), lambda n: int(set(factorize(n).values()) <= {1})),
}


def test_multiplicative_sieve_matches_trial_division():
    limit = 3000
    for rule, oracle in MULTIPLICATIVE_RULES.values():
        values = multiplicative_sieve(limit, rule)
        assert values[0] == 0
        assert values[1:] == [oracle(n) for n in range(1, limit + 1)]
    assert divisor_sigma_sieve(limit, 0) == multiplicative_sieve(limit, MULTIPLICATIVE_RULES["divisor_count"][0])


@pytest.mark.parametrize(
    "sieve",
    [
        *(lambda limit, rule=rule: multiplicative_sieve(limit, rule) for rule, _ in MULTIPLICATIVE_RULES.values()),
        lambda limit: divisor_sigma_sieve(limit, 2),
    ],
    ids=[*MULTIPLICATIVE_RULES, "divisor_sigma"],
)
def test_range_sieves_reject_negative_limit(sieve):
    with pytest.raises(ValueError, match="sieve limit must be nonnegative, got -3"):
        sieve(-3)
    assert sieve(0) == [0]


def slow_sandwich_check(k, m_range):
    """Reference: the sandwich loop that compares every m against the exact
    partial sum, with no fixed-point pre-filter."""
    s = k - 1
    m_lo, m_hi = m_range
    sigma = slow_sigma_sieve(m_hi, s)
    failures = []
    terms = 64
    zlo = zeta_partial_sum(s, terms)
    for m in range(m_lo, m_hi + 1):
        mk = m**s
        if mk > sigma[m]:
            failures.append(m)
            continue
        while sigma[m] * zlo.denominator > zlo.numerator * mk and terms < m:
            terms = min(2 * terms, m)
            zlo = zeta_partial_sum(s, terms)
        if sigma[m] * zlo.denominator > zlo.numerator * mk:
            failures.append(m)
    return SandwichReport(
        k=k,
        m_lo=m_lo,
        m_hi=m_hi,
        zeta_terms=terms,
        zeta_lower=float(zlo),
        zeta_upper=float(zlo + Fraction(1, (s - 1) * terms ** (s - 1))),
        failures=tuple(failures),
    )


@pytest.mark.parametrize("m_range", [(1, 2000), (37, 5000), (2, 2)])
def test_sandwich_check_matches_unfiltered_loop(m_range):
    for k in range(3, 12):
        assert sandwich_check(k, m_range) == slow_sandwich_check(k, m_range)


def test_zeta_bounds_bracket():
    """The partial sum and the integral-test tail bound bracket zeta(k - 1)."""
    for k, zeta in ((3, math.pi**2 / 6), (4, 1.2020569031595942), (5, math.pi**4 / 90), (7, math.pi**6 / 945)):
        report = sandwich_check(k, (1, 200))
        assert report.zeta_lower < zeta < report.zeta_upper


def test_equality_at_m_equals_one():
    for k in (4, 11, 14):
        assert sigma_power(k - 1, 1) == 1


def test_fm_partner_count():
    assert fm_partner_count(13) == 2
    assert fm_partner_count(8) == 1  # g-1 = 7 prime
    assert fm_partner_count(2) == 1  # omega(1) = 0 clamp
    with pytest.raises(ValueError, match="at least 2"):
        fm_partner_count(1)


def test_divisor_bound_small():
    report = divisor_bound_check((1, 20000))
    assert report.passed
    assert report.squarefree_equality_holds
    for n in (1, 6, 30, 210):
        assert 2 ** omega(n) == sigma_power(0, n)
    assert 2 ** omega(12) < sigma_power(0, 12)


def test_exponents():
    assert heegner_irr_exponent(20) == 10
    assert kudla_irr_exponent(26) == 14
    assert heegner_irr_exponent(4) == 2
    with pytest.raises(ValueError, match="even"):
        heegner_irr_exponent(5)
    with pytest.raises(ValueError, match=">= 4"):
        heegner_irr_exponent(2)
    with pytest.raises(ValueError, match="even"):
        kudla_irr_exponent(7)


def test_growth_exponent_estimate():
    exact = [(n, float(n) ** 10) for n in range(1, 30)]
    assert abs(growth_exponent_estimate(exact) - 10.0) < 1e-9
    sigma_series = [(m, sigma_power(10, m)) for m in range(1, 1001)]
    slope = growth_exponent_estimate(sigma_series)
    assert 10.0 <= slope <= 10.1
    constant = [(n, 3.0) for n in range(1, 20)]
    assert abs(growth_exponent_estimate(constant)) < 1e-12
    with pytest.raises(ValueError, match="at least 8"):
        growth_exponent_estimate([(1, 1.0), (2, 4.0)])
    with_zeros = [(n, 0.0) for n in range(1, 6)] + [(n, float(n) ** 3) for n in range(6, 20)]
    assert abs(growth_exponent_estimate(with_zeros) - 3.0) < 1e-9


def test_admissibility_report():
    rep = admissibility_report(26, 10)
    assert rep.case_a.ok and rep.case_b.ok
    assert rep.case_c_witnesses == ((9, 2), (4, 3))
    rows = rep.rows()
    assert rows[0] == (26, "case_a", True)
    doc = rep.to_jsonable()
    assert doc["case_a"]["pass"] and doc["case_b"]["pass"]


def test_certificate_g8():
    cert = irr_bound_certificate(8, 10)
    assert cert.d == 14
    names = [r.route for r in cert.routes]
    assert names == ["A", "C(7)", "C(6)", "C(3)", "uniform"]
    route_a = cert.routes[0]
    assert route_a.exponent == 10 and route_a.multiplier == 1
    assert route_a.indices[0].n == Fraction(7, 3)
    assert route_a.indices[0].gamma == "gamma1"
    uniform = cert.routes[-1]
    assert uniform.exponent == 14 and uniform.multiplier == 2
    assert uniform.extras["det_T"] == "7/64"
    assert uniform.extras["fm_partners"] == 1


def test_certificate_g14():
    cert = irr_bound_certificate(14, 10)
    names = [r.route for r in cert.routes]
    assert "A" in names and "B" in names
    route_b = next(r for r in cert.routes if r.route == "B")
    assert [(i.n, i.gamma) for i in route_b.indices] == [
        (Fraction(13, 4), "e*"),
        (Fraction(13, 4), "f*"),
    ]
    assert next(r for r in cert.routes if r.route == "A").multiplier == 1
    assert next(r for r in cert.routes if r.route == "uniform").multiplier == 2


def test_certificate_g2_only_uniform():
    cert = irr_bound_certificate(2, 10)
    assert [r.route for r in cert.routes] == ["uniform"]
    assert cert.routes[0].multiplier == 1
    with pytest.raises(ValueError, match="at least 2"):
        irr_bound_certificate(1, 10)


def test_certificate_routes_read_the_admissibility_report():
    """Routes A and B exist iff their case passes in the range d >= 8, and the
    C(n) routes are exactly the case C witnesses there, each indexed by the
    split hyperkaehler family of degree 2n."""
    assert THEOREM_RANGE_MIN_D == 8
    for g in range(2, 301):
        d = 2 * g - 2
        cert = irr_bound_certificate(g)
        names = [r.route for r in cert.routes]
        assert ("A" in names) == (case_a(d).ok and d >= 8)
        assert ("B" in names) == (case_b(d).ok and d >= 8)
        witnesses = case_c(d, 10) if d >= 8 else []
        c_routes = [r for r in cert.routes if r.route.startswith("C(")]
        assert [r.route for r in c_routes] == [f"C({n})" for n, _ in witnesses]
        for route, (n, m) in zip(c_routes, witnesses):
            (index,) = route.indices
            assert index.n == hk_heegner_index(n, 1, d).index
            assert d // 2 - n == m**2 and route.extras["m"] == m
            assert route.extras["target"] == {"degree": 2 * n, "delta": 1}
            assert (index.gamma, index.lattice_tag) == ("all", f"Lambda_HK_prim({n},1)")


def test_hilbert_square_route_examples():
    for g, n, m, index in ((10, 5, 2, Fraction(9, 20)), (7, 2, 2, Fraction(3, 4)), (5, 4, 0, Fraction(1, 4))):
        route = next(r for r in irr_bound_certificate(g).routes if r.route == f"C({n})")
        assert (route.extras["m"], route.indices[0].n, route.extras["target"]["degree"]) == (m, index, 2 * n)


def test_uniform_multiplier_consistency():
    for g in range(3, 41):
        cert = irr_bound_certificate(g, 5)
        uniform = next(r for r in cert.routes if r.route == "uniform")
        assert uniform.multiplier == 2 ** omega(g - 1)
        if omega(g - 1) >= 1:
            assert uniform.multiplier == 2 * fm_partner_count(g)


def test_certificate_serialization_round_trip():
    cert = irr_bound_certificate(8, 10)
    blob1 = json.dumps(cert.to_jsonable(), indent=2)
    blob2 = json.dumps(irr_bound_certificate(8, 10).to_jsonable(), indent=2)
    assert blob1 == blob2
    assert json.dumps(json.loads(blob1), indent=2) == blob1
    doc = json.loads(blob1)
    assert doc["conventions"]["fm_partner_exponent"] == "max(omega(g-1) - 1, 0)"


_NON_INTEGER_CALLS = [
    (irr_bound_certificate, (14.7,), "g"),
    (irr_bound_certificate, (14, 2.5), "n_max"),
    (irr_bound_certificate, (2, 2.5), "n_max"),
    (irr_bound_certificate, ("14",), "g"),
    (case_c, (10, 2.5), "n_max"),
    (case_c, (10, True), "n_max"),
    (irr_bound_certificate, (8, True), "n_max"),
    (irr_bound_certificate, (True,), "g"),
    (case_a, (14.2,), "d"),
    (case_b, (10.5,), "d"),
    (fm_partner_count, (7.5,), "g"),
    (sandwich_check, (4.5, (1, 10)), "k"),
    (sandwich_check, (4, (1, 10.5)), "m_range bound"),
    (divisor_bound_check, ((1.5, 10.7),), "n_range bound"),
    (divisor_bound_check, ((1, 10), 10.5), "squarefree_limit"),
    (factorize, (7.5,), "n"),
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
    assert admissibility_report(10.0).to_jsonable() == admissibility_report(10).to_jsonable()
    assert irr_bound_certificate(14.0, 10.0).to_jsonable() == irr_bound_certificate(14).to_jsonable()
    assert fm_partner_count(Fraction(7)) == fm_partner_count(7)
