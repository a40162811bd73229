#!/usr/bin/env python3
"""Admissibility sweeps, growth inequalities, and per-genus certificates.

A certificate lists every route to a polynomial irrationality bound for the
genus-g moduli space: the exponent-10 labelling routes where the residue and
divisibility tests allow them, and the always-available exponent-14 route
through the rank-7 moment cycle, multiplied by 2^omega(g-1).
"""

import json

from heegnerlab import (
    divisor_bound_check,
    growth_exponent_estimate,
    irr_bound_certificate,
    sandwich_check,
    sigma_power,
)

print("Genera with an exponent-10 route among g = 2..30:")
for g in range(2, 31):
    tags = [r.route for r in irr_bound_certificate(g, n_max=10).routes if r.exponent == 10]
    if tags:
        print(f"  g={g:<3} d={2*g-2:<3} routes {' '.join(tags)}")

print()
print("Divisor-sum sandwich at weight 11 (so exponent 10 growth), m up to 2000:")
report = sandwich_check(11, (1, 2000))
print(f"  all pass: {report.passed}; zeta(10) in [{report.zeta_lower:.10f}, {report.zeta_upper:.10f}]")

print()
print("Coefficient-growth fit: log sigma_10(m) against log m should slope ~10:")
series = [(m, sigma_power(10, m)) for m in range(1, 800)]
print(f"  fitted exponent {growth_exponent_estimate(series):.5f}")

print()
print("2^omega(n) <= d(n) spot sweep to 10^5:")
print(f"  {divisor_bound_check((1, 10**5)).to_jsonable()}")

print()
print("Full certificate for g = 8:")
print(json.dumps(irr_bound_certificate(8, n_max=10).to_jsonable(), indent=2))
