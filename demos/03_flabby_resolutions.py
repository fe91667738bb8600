#!/usr/bin/env python3
"""Fixed-point covers, flabby resolutions, and the invertibility decision.

Every lattice M embeds in an exact sequence 0 -> M -> P -> F -> 0 with P a
permutation lattice and F flabby; the class of F is the obstruction that
the torus criterion consumes.  Invertibility of a lattice (being a direct
summand of a permutation lattice) is decided by searching for an integral
equivariant section of a cover projection - a complete test, because the
cover kernel is coflabby, so the section exists exactly when the lattice
is invertible.
"""

import random

from retractrat import Mat, GLattice, catalog_group
from retractrat.lattices import direct_sum, permutation_lattice, random_lattice, regular_lattice
from retractrat.resolutions import (
    class_fingerprint,
    fixed_point_cover,
    flabby_resolution,
    is_invertible,
)
from retractrat.zlinalg import kernel_basis

C2 = catalog_group("C2")
sign = GLattice(C2, 1, {1: Mat.from_rows([[-1]])})

print("== The cover and resolution of the sign lattice ==")
cov = fixed_point_cover(sign)
K = kernel_basis(cov.projection.matrix)
c = K.col(0)
print(f"cover: P = Z[C2] (rank {cov.P.rank}), projection {cov.projection.matrix.a},")
print(f"       kernel C spanned by {c}, fixed by C2: {cov.P.act(1).mulvec(c) == c}")
res = flabby_resolution(sign)
print(f"resolution: 0 -> sign -> P (rank {res.P.rank}) -> F (rank {res.F.rank}) -> 0")
print(f"F is the trivial lattice: {res.F.act(1).a}")

print("\n== Invertibility decisions ==")
dec = is_invertible(sign)
print(f"sign lattice invertible: {dec.answer}")
dec = is_invertible(regular_lattice(C2))
print(f"regular lattice invertible: {dec.answer}, witness section:")
print(f"  {dec.witness.matrix.a} (projection o section = identity, equivariant)")

print("\n== Endo-Miyata consistency over Z-groups ==")
rng = random.Random(1)
for name in ["C4", "C6", "S3", "C12"]:
    G = catalog_group(name)
    answers = []
    for _ in range(5):
        M = random_lattice(G, 5, rng)
        F = flabby_resolution(M).F
        answers.append(is_invertible(F).answer)
    print(f"{name}: flabby classes of 5 random lattices all invertible: {all(answers)}")

print("""
All Sylow subgroups of these groups are cyclic, so every flabby lattice
over them is invertible - the decision procedure confirms it case by case.
""")

print("== A classical family: norm-one tori ==")
from retractrat.lattices import augmentation_kernel, dual
from retractrat.verdict import torus_verdict

for name in ["C4", "S3", "V4", "Q8"]:
    G = catalog_group(name)
    J = dual(augmentation_kernel(G, G.trivial_subgroup()))
    v = torus_verdict(J)
    step = v.trace[-1]
    how = (f"H^1 = {step.premises['h1']} at {step.premises['subgroup']}"
           if step.rule == "h1-obstruction" else "section system")
    print(f"norm-one torus of a {name}-extension (lattice rank {J.rank}): {v.answer} ({how})")
print("""
These match the classical criterion: the norm-one torus of a Galois
extension is retract rational exactly when every Sylow subgroup of the
Galois group is cyclic.  The V4 case is the smallest non-rational torus.
An invertible lattice is coflabby, so a subgroup with H^1 of the flabby
tail nonzero decides No before any section is searched for; the tail of
the Q8 torus is coflabby, and its No comes from the section system.
""")

print("== Class fingerprints ==")
V4 = catalog_group("V4")
M = dual(augmentation_kernel(V4, V4.trivial_subgroup()))
fp = class_fingerprint(M)
print(f"fingerprint of the V4 norm-one torus lattice (rank {M.rank}; "
      "per subgroup: H^1 of the resolution tail):")
for members, invariants in fp.items():
    print(f"  {members}: {invariants}")
H = V4.subgroups()[1]
fp2 = class_fingerprint(direct_sum(M, permutation_lattice(V4, [H])))
print(f"unchanged after adding the coset block Z[G/{H.members}]: {fp == fp2}")
print("""
H^1 vanishes on permutation lattices, so the fingerprint does not depend on
which tail represents the class: it is a necessary condition for two
lattices to share a flabby class.  It is not a decision procedure for
class equality - only invertibility is decided.
""")
