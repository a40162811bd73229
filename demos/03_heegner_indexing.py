#!/usr/bin/env python3
"""Heegner-divisor indexing for the three special-fourfold families.

Cubic fourfolds: the coset rule sends discriminant d to (d/6, gamma_0) or
(d/6, gamma_1) by residue mod 6.  Gushel-Mukai fourfolds: the labelling
Gram matrices carry residue vectors with <v, h_i> = 0 and half-norm d/8.
Hyperkaehler fourfolds: the index is d/(2N) with N the discriminant of the
primitive cohomology.  The Hilbert-square route C(n) of genus g is a square
witness d/2 - n = m^2 of admissibility case C, indexed by the split
hyperkaehler family of degree 2n.
"""

from heegnerlab import (
    case_c,
    cubic_heegner_index,
    gm_heegner_index,
    gm_residue_vector,
    hk_heegner_index,
)

print("Cubic fourfold loci (nonempty for d = 0, 2 mod 6):")
for d in (12, 14, 18, 20, 26, 42):
    idx = cubic_heegner_index(d)
    print(f"  d={d:<3} -> Y_({idx.n}, {idx.gamma})")

print()
print("Gushel-Mukai labellings and residue vectors:")
for d in (8, 10, 12, 16, 26):
    witnesses = gm_residue_vector(d)
    indices = gm_heegner_index(d)
    gammas = ", ".join(i.gamma for i in indices)
    print(f"  d={d:<3} residue classes {{{gammas}}}, index {indices[0].n}")
    for w in witnesses:
        corner = w.gram[2][2]
        print(f"    corner {corner}: v = {tuple(str(c) for c in w.residue_vector)}, half-norm {w.checks['half_norm']}")

print()
print("Hyperkaehler index families:")
for n, delta, d in ((1, 1, 8), (2, 1, 12), (3, 2, 6), (7, 2, 28)):
    fam = hk_heegner_index(n, delta, d)
    print(f"  (2n={2*n}, delta={delta}), d={d}: index {fam.index}, disc {fam.disc}, <v,v> = {fam.norm_vv}")

print()
print("Hilbert-square routes (case C witnesses d/2 - n = m^2, n <= 5):")
for g in (5, 7, 8, 10):
    d = 2 * g - 2
    for n, m in case_c(d, n_max=5):
        fam = hk_heegner_index(n, 1, d)
        print(f"  g={g}, n={n}: m={m}, target degree {2 * fam.n}, index {fam.index}")
