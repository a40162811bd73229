"""Elementary arithmetic functions by trial division, plus range sieves.

Single-value functions are exact for inputs up to 10^12; bulk range checks
go through `multiplicative_sieve`, one exact sieve for any multiplicative
function given on prime powers, in Python ints, up to a limit of 10^7.
"""

from __future__ import annotations

import math
from typing import Callable

from .intlinalg import checked_int

TRIAL_DIVISION_BOUND = 10**12
SIEVE_CAP = 10**7  # the list-based sieve holds about 100 bytes per entry


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division."""
    n = checked_int(n, "n", 1)
    if n > TRIAL_DIVISION_BOUND:
        raise ValueError(f"input {n} exceeds the trial-division bound {TRIAL_DIVISION_BOUND}")
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    p = 5
    while p * p <= n:
        for q in (p, p + 2):
            while n % q == 0:
                factors[q] = factors.get(q, 0) + 1
                n //= q
        p += 6
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def omega(n: int) -> int:
    """Number of distinct prime factors."""
    return len(factorize(n))


def sigma_power(s: int, m: int) -> int:
    """Divisor power sum: sum of d^s over divisors d of m."""
    s = checked_int(s, "exponent", 0)
    out = 1
    for p, a in factorize(m).items():
        out *= sum(p ** (s * k) for k in range(a + 1))
    return out


def multiplicative_sieve(limit: int, at_prime_power: Callable[[int, int, int], int]) -> list[int]:
    """f(n) for n = 0..limit, for the multiplicative f given on prime powers.

    f(0) = 0 and f(1) = 1; f(p^e) is `at_prime_power(f(p^(e-1)), p^e, p)`.
    Linear time: a smallest-prime-factor table, then the multiplicative
    recurrence, so only prime powers call `at_prime_power`.
    """
    limit = checked_int(limit, "sieve limit", 0)
    if limit > SIEVE_CAP:
        raise ValueError(f"sieve limit {limit} exceeds the cap {SIEVE_CAP}")
    spf = list(range(limit + 1))
    # descending, so the smallest prime factor writes last
    for p in range(math.isqrt(limit), 1, -1):
        spf[p * p :: p] = [p] * len(range(p * p, limit + 1, p))
    out = [0] * (limit + 1)
    if limit >= 1:
        out[1] = 1
    # ppart[m]: the largest power of spf[m] that divides m
    ppart = [1] * (limit + 1)
    for m in range(2, limit + 1):
        p = spf[m]
        q = m // p
        pk = ppart[q] * p if spf[q] == p else p
        ppart[m] = pk
        out[m] = at_prime_power(out[q], m, p) if pk == m else out[pk] * out[m // pk]
    return out


def divisor_sigma_sieve(limit: int, power: int) -> list[int]:
    """sigma_power(power, n) for n = 0..limit, as exact Python ints."""
    power = checked_int(power, "exponent", 0)
    return multiplicative_sieve(limit, lambda prev, pk, p: prev + pk**power)
