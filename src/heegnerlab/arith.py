"""Elementary arithmetic functions by trial division, plus range sieves.

Single-value functions are exact for inputs up to 10^12; bulk range checks
go through sieves instead.  `divisor_sigma_sieve` works in exact Python
ints; `prime_sieve`, `omega_sieve`, `divisor_count_sieve` and
`squarefree_sieve` return numpy arrays and load numpy when first called.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

TRIAL_DIVISION_BOUND = 10**12


def _check_limit(limit: int) -> None:
    if limit < 0:
        raise ValueError(f"sieve limit must be nonnegative, got {limit}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division."""
    n = int(n)
    if n < 1:
        raise ValueError(f"factorization needs a positive integer, got {n}")
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


def num_divisors(n: int) -> int:
    out = 1
    for a in factorize(n).values():
        out *= a + 1
    return out


def sigma_power(s: int, m: int) -> int:
    """Divisor power sum: sum of d^s over divisors d of m."""
    if s < 0:
        raise ValueError(f"exponent must be nonnegative, got {s}")
    out = 1
    for p, a in factorize(m).items():
        out *= sum(p ** (s * k) for k in range(a + 1))
    return out


def is_squarefree(n: int) -> bool:
    return all(a == 1 for a in factorize(n).values())


def prime_sieve(limit: int) -> np.ndarray:
    """Primes up to limit inclusive."""
    _check_limit(limit)
    import numpy as np

    if limit < 2:
        return np.array([], dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def omega_sieve(limit: int) -> np.ndarray:
    """omega(n) for n = 0..limit (omega(0) set to 0)."""
    _check_limit(limit)
    import numpy as np

    out = np.zeros(limit + 1, dtype=np.int64)
    for p in prime_sieve(limit):
        out[p::p] += 1
    return out


def divisor_count_sieve(limit: int) -> np.ndarray:
    """d(n) for n = 0..limit (d(0) set to 0)."""
    _check_limit(limit)
    import numpy as np

    out = np.zeros(limit + 1, dtype=np.int64)
    for k in range(1, limit + 1):
        out[k::k] += 1
    return out


def divisor_sigma_sieve(limit: int, power: int) -> list[int]:
    """sigma_power(power, n) for n = 0..limit, as exact Python ints.

    Linear time: a smallest-prime-factor table, then the multiplicative
    recurrence, so only prime powers pay for a power.
    """
    _check_limit(limit)
    if power < 0:
        raise ValueError(f"exponent must be nonnegative, got {power}")
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
        out[m] = out[q] + m**power if pk == m else out[pk] * out[m // pk]
    return out


def squarefree_sieve(limit: int) -> np.ndarray:
    """Boolean mask of squarefree n for n = 0..limit (0 marked False)."""
    _check_limit(limit)
    import numpy as np

    out = np.ones(limit + 1, dtype=bool)
    out[0] = False
    p = 2
    while p * p <= limit:
        out[p * p :: p * p] = False
        p += 1
    return out
