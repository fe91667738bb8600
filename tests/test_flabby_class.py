"""The flabby class decided by its H^1 obstruction before the section system.

decide_flabby_class names a subgroup H with H^1(H, F) != 0, read from the
lattice M itself as Sha^2_omega(H, M), when the tail F of a resolution of M
is not coflabby, and then resolves nothing.  Here every such decision
is checked against is_invertible(F), whose No must carry a refutation that
verify_refutation accepts, and Sha^2_omega against H^1 of the tail."""

import random

import pytest

from conftest import cross_check_lattices
from retractrat import resolutions
from retractrat.cohomology import h1, nonflabby_heads, sha_omega
from retractrat.errors import InternalCheckError
from retractrat.groups import (
    catalog_group,
    catalog_groups_upto,
    cyclic_group,
    dihedral_group,
    direct_product,
    parse_group,
)
from retractrat.lattices import augmentation_kernel, dual, lenstra_lattice, random_lattice
from retractrat.resolutions import (
    decide_flabby_class,
    flabby_resolution,
    is_invertible,
    verify_refutation,
)
from retractrat.zlinalg import AbelianInvariants


def obstruction_lattices():
    """(label, lattice): J_{G/H} and its dual for every catalog group of
    order <= 16 and every class head H != G, three seeded random lattices
    per group, and the Lenstra M at q=8 and q=16."""
    rng = random.Random(27)
    out = []
    for G in catalog_groups_upto(16):
        for H in G.subgroup_conjugacy_representatives():
            if H.order < G.order:
                J = dual(augmentation_kernel(G, H))
                out += [(f"J_{G.name}/{H.members}", J), (f"dual J_{G.name}/{H.members}", dual(J))]
        out += [(f"random {G.name} #{t}", random_lattice(G, 5, rng)) for t in range(3)]
    return out + [(f"lenstra q={2 ** n}", lenstra_lattice(n).M) for n in (3, 4)]


def test_obstruction_agrees_with_the_section_system():
    fired = silent_no = yes = 0
    for label, M in obstruction_lattices():
        res = flabby_resolution(M)
        dec = decide_flabby_class(M)
        full = is_invertible(res.F)
        if dec.obstruction is not None:
            H, invariants = dec.obstruction
            assert not dec.answer and dec.invertibility is None, label
            assert dec.resolution is None, label
            assert invariants == h1(H, res.F) and not invariants.is_trivial, label
            assert not full.answer and verify_refutation(full), label
            fired += 1
        else:
            assert dec.answer == full.answer, label
            assert dec.invertibility.answer == full.answer, label
            assert dec.resolution.F.action == res.F.action, label
            silent_no += not full.answer
            yes += full.answer
    # both branches are exercised, and some No comes from the section system
    assert fired and silent_no and yes


def test_coflabby_tail_falls_through_to_the_section_system():
    Q8 = catalog_group("Q8")
    dec = decide_flabby_class(dual(augmentation_kernel(Q8, Q8.trivial_subgroup())))
    assert dec.obstruction is None and not dec.answer
    assert verify_refutation(dec.invertibility)


def test_obstruction_at_a_head_with_trivial_h1_is_an_internal_error(monkeypatch):
    M = lenstra_lattice(3).M
    G = M.group
    quiet = [H for H in G.subgroup_conjugacy_representatives()
             if H.order > 1 and sha_omega(H, M).is_trivial]
    assert quiet
    monkeypatch.setattr(resolutions, "nonflabby_heads", lambda M, degree: iter(quiet))
    with pytest.raises(InternalCheckError):
        decide_flabby_class(M)


def test_sha_omega_is_h1_of_the_tail():
    # Sha^2_omega(H, M) = H^1(H, F) for every nontrivial subgroup H, and the
    # first head where it fails is the first where the tail is not coflabby;
    # the regular norm-one tori of A4xC2, D12 and C2xC6 add subgroups of
    # mixed order where it is nonzero
    mixed = {"A4xC2": direct_product(catalog_group("A4"), cyclic_group(2)),
             "D12": dihedral_group(12), "C2xC6": _product(2, 6)}
    lattices = cross_check_lattices() + [(f"lenstra q={2 ** n}", lenstra_lattice(n).M)
                                         for n in (3, 4, 5)]
    lattices += [(f"J_{name}", dual(augmentation_kernel(G, G.trivial_subgroup())))
                 for name, G in mixed.items()]
    nontrivial = 0
    for label, M in lattices:
        F = flabby_resolution(M).F
        for H in M.group.subgroups():
            if H.order > 1:
                got = sha_omega(H, M)
                assert got == h1(H, F), (label, H.members)
                nontrivial += not got.is_trivial
        assert next(nonflabby_heads(M, 2), None) is next(nonflabby_heads(F, 1), None), label
    assert nontrivial >= 90


def _product(*orders):
    G = cyclic_group(orders[0])
    for n in orders[1:]:
        G = direct_product(G, cyclic_group(n))
    return G


@pytest.mark.parametrize("name, build, schur", [
    ("C2xC2", lambda: catalog_group("C2xC2"), [2]),
    ("C2^3", lambda: catalog_group("C2xC2xC2"), [2, 2, 2]),
    ("C2^4", lambda: _product(2, 2, 2, 2), [2] * 6),
    ("C4xC4", lambda: _product(4, 4), [4]),
    ("C2xC8", lambda: _product(2, 8), [2]),
    ("D8", lambda: catalog_group("D8"), [2]),
    ("Q8", lambda: catalog_group("Q8"), []),
    ("A4", lambda: catalog_group("A4"), [2]),
    ("S3", lambda: catalog_group("S3"), []),
    ("C3xC3", lambda: _product(3, 3), [3]),
    # not of prime-power order: S4, C2xC6 and D12 are presented, like every
    # solvable group, on the chain their subgroup enumeration recorded; A5
    # is not solvable and is presented off a spanning tree
    ("S4", lambda: parse_group({"perm_generators": [[2, 3, 4, 1], [2, 1, 3, 4]], "degree": 4}), [2]),
    ("A5", lambda: parse_group({"perm_generators": [[2, 3, 4, 5, 1], [2, 3, 1, 4, 5]], "degree": 5}),
     [2]),
    ("C2xC6", lambda: _product(2, 6), [2]),
    ("D12", lambda: dihedral_group(12), [2]),
])
def test_sha_omega_of_the_norm_one_torus_is_the_schur_multiplier(name, build, schur):
    # H^2(G, J_G) = H^3(G, Z) = H^2(G, Q/Z), and H^3 of a cyclic group
    # vanishes, so Sha^2_omega(G, J_G) is the Schur multiplier: the
    # exterior square for abelian G, Z/2 for D8, D12, A4, S4 and A5, 0 for
    # Q8 and S3
    G = build()
    J = dual(augmentation_kernel(G, G.trivial_subgroup()))
    assert sha_omega(G.full_subgroup(), J) == AbelianInvariants(tuple(schur)), name

