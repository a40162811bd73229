#!/usr/bin/env python3
"""Rank-7 moment matrices from primitive embeddings into the (26,2) lattice.

For each even degree d, the degree-d K3 lattice embeds primitively into the
unimodular lattice of signature (26,2): the E8 and hyperbolic summands map
identically, and the rank-one part lands on the lexicographically least
primitive vector of norm d in the spare E8 block.  The orthogonal
complement has rank 7 and its half-Gram moment matrix satisfies
det(T) = d / 2^7 exactly.
"""

from heegnerlab import embed_k3_lattice
from heegnerlab.intlinalg import symmetric_invariants

print(f"{'d':>4} {'det(T)':>9} {'d/128':>9} {'primitive':>9} {'complement diag':<24}")
for d in (2, 4, 8, 14, 26, 50, 100):
    wit = embed_k3_lattice(d)
    diag = tuple(wit.complement_gram[i][i] for i in range(7))
    print(
        f"{d:>4} {str(wit.det_lhs):>9} {str(wit.det_rhs):>9} "
        f"{str(wit.image_primitive):>9} {str(diag):<24}"
    )

print()
wit = embed_k3_lattice(14)
print("d=14 in detail:")
print(f"  image basis: {len(wit.image_basis)} vectors in Z^28")
print(f"  norm-14 vector in the spare block: {wit.image_basis[-1][16:24]}")
print("  complement Gram:")
for row in wit.complement_gram:
    print(f"    {row}")
# T = G / 2 has the inertia of the complement Gram G, and det(T) = det G / 2^7
p, q, z, _ = symmetric_invariants(wit.complement_gram)
print(f"  moment matrix rank {p + q}, det {wit.det_lhs}")
print(f"  inertia (p, q, z) = {(p, q, z)}, positive semidefinite: {q == 0}")
