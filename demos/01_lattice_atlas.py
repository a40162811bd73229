#!/usr/bin/env python3
"""Tour of the named lattices: Gram data, discriminant groups, levels.

Every number printed here is exact; the discriminant form values are
rationals mod 1 computed from Smith-normal-form generator lifts.
"""

from heegnerlab import build_named_lattice, discriminant_group

NAMED = [
    ("U", ()),
    ("A1", ()),
    ("A2", ()),
    ("E8", ()),
    ("Lambda_C", ()),
    ("Lambda_GM", ()),
    ("Lambda_HK", ()),
    ("Lambda_HK_prim", (2, 1)),
    ("Lambda_HK_prim", (3, 2)),
    ("Lambda_d", (14,)),
    ("Lambda_sharp", ()),
]

print(f"{'lattice':<22} {'rank':>4} {'signature':>10} {'det':>6} {'D(M)':<14} {'level':>5}")
for name, params in NAMED:
    lat = build_named_lattice(name, *params)
    group = discriminant_group(lat)
    shape = " x ".join(f"Z/{s}" for s in group.elementary_divisors) or "trivial"
    print(
        f"{lat.name:<22} {lat.rank:>4} {str(lat.signature):>10} "
        f"{lat.det:>6} {shape:<14} {group.level:>5}"
    )

print()
print("q-values on the cubic-fourfold period lattice (order-3 group):")
group = discriminant_group(build_named_lattice("Lambda_C"))
for elem in group.elements():
    print(f"  gamma{elem[0]}: q = {group.q(elem)}")

print()
print("q-values on the Gushel-Mukai period lattice ((Z/2)^2 group):")
group = discriminant_group(build_named_lattice("Lambda_GM"))
for elem in group.elements():
    print(f"  {','.join(map(str, elem))}: q = {group.q(elem)}")

print()
print("Split hyperkaehler families: discriminant group Z/2 x Z/2n, level 4n")
for n in range(1, 8):
    group = discriminant_group(build_named_lattice("Lambda_HK_prim", n, 1))
    print(f"  n={n}: divisors {group.elementary_divisors}, level {group.level}")
