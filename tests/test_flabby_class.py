"""The flabby class decided by its H^1 obstruction before the section system.

decide_flabby_class names a subgroup H with H^1(H, F) != 0 when the tail F
is not coflabby, and only then skips is_invertible(F).  Here every such
decision is checked against is_invertible(F), whose No must carry a
refutation that verify_refutation accepts."""

import random

import pytest

from retractrat import resolutions
from retractrat.cohomology import h1
from retractrat.errors import InternalCheckError
from retractrat.groups import catalog_group, catalog_groups_upto
from retractrat.lattices import augmentation_kernel, dual, lenstra_lattice, random_lattice
from retractrat.resolutions import (
    decide_flabby_class,
    flabby_resolution,
    is_invertible,
    verify_refutation,
)


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
        dec = decide_flabby_class(res)
        full = is_invertible(res.F)
        if dec.obstruction is not None:
            H, invariants = dec.obstruction
            assert not dec.answer and dec.invertibility is None, label
            assert invariants == h1(H, res.F) and not invariants.is_trivial, label
            assert not full.answer and verify_refutation(full), label
            fired += 1
        else:
            assert dec.answer == full.answer, label
            assert dec.invertibility.answer == full.answer, label
            silent_no += not full.answer
            yes += full.answer
    # both branches are exercised, and some No comes from the section system
    assert fired and silent_no and yes


def test_coflabby_tail_falls_through_to_the_section_system():
    Q8 = catalog_group("Q8")
    res = flabby_resolution(dual(augmentation_kernel(Q8, Q8.trivial_subgroup())))
    dec = decide_flabby_class(res)
    assert dec.obstruction is None and not dec.answer
    assert verify_refutation(dec.invertibility)


def test_obstruction_at_a_head_with_trivial_h1_is_an_internal_error(monkeypatch):
    res = flabby_resolution(lenstra_lattice(3).M)
    G = res.F.group
    quiet = [H for H in G.subgroup_conjugacy_representatives()
             if H.order > 1 and h1(H, res.F).is_trivial]
    assert quiet
    monkeypatch.setattr(resolutions, "nonflabby_heads", lambda M, degree: iter(quiet))
    with pytest.raises(InternalCheckError):
        decide_flabby_class(res)
