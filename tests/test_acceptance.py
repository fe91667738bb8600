"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints one `ACCEPTANCE <n>: PASS` line (visible with `pytest -s`);
a failing criterion fails its test.  Runtime bounds from the criteria are
asserted where stated.
"""

import itertools
import random
import time

import pytest

from conftest import metacyclic_group, random_permutation_lattice, sign_lattice
from retractrat.cohomology import h1, profile, tate_minus1
from retractrat.groups import catalog_group, catalog_groups_upto, cyclic_group
from retractrat.lattices import (
    direct_sum,
    lenstra_lattice,
    permutation_lattice,
    random_lattice,
    regular_lattice,
    trivial_lattice,
)
from retractrat.monomial import MonomialAction, extension_class
from retractrat.resolutions import class_fingerprint, flabby_resolution, is_invertible
from retractrat.verdict import (
    COMPLEX,
    RATIONALS,
    monomial_universal_verdict,
    noether_verdict,
    replay_trace,
    torus_verdict,
)
from conftest import det
from retractrat.lattices import GLattice
from retractrat.zlinalg import Mat, smith_normal_form, solve_integer


def report(n, label):
    print(f"\nACCEPTANCE {n}: PASS - {label}")


def test_criterion_1_voskresenskii_lenstra_cohomology():
    """q in {8, 16}: H^1 trivial at EVERY subgroup; Tate^-1 = Z/2 at the unique
    Klein four subgroup; profile says coflabby, not flabby.  Under 10 s."""
    t0 = time.time()
    for n in (3, 4):
        data = lenstra_lattice(n)
        pi = data.pi
        for H in pi.subgroups():
            assert h1(H, data.M).is_trivial, f"H^1 not trivial at {H.members}, q={data.q}"
        v4s = [s for s in pi.subgroups() if s.order == 4 and not s.is_cyclic()]
        assert len(v4s) == 1, "Klein four subgroup must be unique"
        assert tate_minus1(v4s[0], data.M).to_list() == [2]
        prof = profile(data.M, subgroups="all")
        assert prof.is_coflabby and not prof.is_flabby
    elapsed = time.time() - t0
    assert elapsed < 10, f"criterion 1 took {elapsed:.1f}s"
    report(1, f"Lenstra lattice cohomology for q=8,16 in {elapsed:.2f}s")


def test_criterion_2_flabby_class_not_invertible():
    """q in {8, 16}: the flabby class of the kernel lattice is not invertible
    and the torus verdict is No.  Under 60 s."""
    t0 = time.time()
    for n in (3, 4):
        data = lenstra_lattice(n)
        res = flabby_resolution(data.M)
        assert not is_invertible(res.F).answer, f"q={data.q} class decided invertible"
        assert torus_verdict(data.M).answer == "No"
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 2 took {elapsed:.1f}s"
    report(2, f"non-invertible flabby classes for q=8,16 in {elapsed:.2f}s")


def test_criterion_3_permutation_lattice_suite():
    """Every catalog group of order <= 16, 20 seeded permutation lattices each:
    profile reports flabby and coflabby.  Under 60 s."""
    t0 = time.time()
    rng = random.Random(20260301)
    cases = 0
    for G in catalog_groups_upto(16):
        for _ in range(20):
            M = random_permutation_lattice(G, rng, max_rank=12)
            p = profile(M)
            assert p.is_flabby and p.is_coflabby, f"{G.name} lattice rank {M.rank}"
            cases += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 3 took {elapsed:.1f}s"
    report(3, f"{cases} permutation-lattice profiles flabby+coflabby in {elapsed:.1f}s")


def test_criterion_4_endo_miyata_consistency():
    """C_2..C_12 plus the Z-groups S3 and C6: 50 seeded random lattices of
    rank <= 5 each; the flabby class always decides invertible.  Under 5 min."""
    t0 = time.time()
    rng = random.Random(424242)
    names = [f"C{n}" for n in range(2, 13)] + ["S3", "C6"]
    cases = 0
    for name in names:
        G = catalog_group(name)
        assert G.all_sylow_cyclic()
        for _ in range(50):
            M = random_lattice(G, 5, rng)
            res = flabby_resolution(M)
            dec = is_invertible(res.F)
            assert dec.answer, f"{name}: flabby class of rank-{M.rank} lattice not invertible"
            cases += 1
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 4 took {elapsed:.1f}s"
    report(4, f"{cases} invertible flabby classes over Z-groups in {elapsed:.1f}s")


def test_criterion_5_invertibility_soundness():
    """Yes answers carry sections verified by exact identities; the sign
    lattice decides No; trivial and permutation lattices decide Yes."""
    C2 = catalog_group("C2")
    sign = sign_lattice(C2, C2.trivial_subgroup())
    assert is_invertible(sign).answer is False

    rng = random.Random(5150)
    checked_yes = 0
    for name in ["C2", "C4", "S3", "V4", "D8", "C12"]:
        G = catalog_group(name)
        assert is_invertible(trivial_lattice(G)).answer is True
        for _ in range(3):
            M = random_permutation_lattice(G, rng, max_rank=10)
            dec = is_invertible(M)
            assert dec.answer is True
            S = dec.witness.matrix
            assert dec.cover.projection.matrix.mul(S).is_identity()
            for g in range(G.order):
                assert S.mul(M.act(g)) == dec.cover.P.act(g).mul(S)
            checked_yes += 1
    report(5, f"witness sections verified exactly on {checked_yes} Yes decisions")


def test_criterion_6_verdict_table():
    """The verdict table against the published results, with trace replay."""
    verdicts = []

    v = noether_verdict(catalog_group("C8"), RATIONALS)
    assert v.answer == "No"
    verdicts.append(v)

    v = noether_verdict(cyclic_group(47), RATIONALS)
    assert v.answer == "Yes"
    verdicts.append(v)

    for G in catalog_groups_upto(16):
        if G.is_abelian():
            v = noether_verdict(G, COMPLEX)
            assert v.answer == "Yes", f"{G.name} over C"
            verdicts.append(v)

    for name in ["S3", "D8", "Q8"]:
        v = noether_verdict(catalog_group(name), COMPLEX)
        assert v.answer == "Yes", f"{name} over C"
        assert any(s.rule == "abelian-normal-cyclic-quotient" for s in v.trace)
        verdicts.append(v)

    # normal H with G/H = C8 over Q: the abelian case and a nonsplit-free
    # metacyclic case C3 x| C8
    v = noether_verdict(catalog_group("C16"), RATIONALS)
    assert v.answer == "No"
    verdicts.append(v)
    v = noether_verdict(metacyclic_group(3, 8, 2), RATIONALS)
    assert v.answer == "No"
    assert any("Sonn" in s.cite for s in v.trace)
    verdicts.append(v)

    for v in verdicts:
        assert replay_trace(v), f"trace replay failed for answer {v.answer}"
    report(6, f"{len(verdicts)} verdicts match the published table; all traces replay")


def test_criterion_7_fingerprint_invariance():
    """class_fingerprint(M) = class_fingerprint(M + Z[G/H]) for every subgroup
    H, over 20 seeded random lattices.  Exact equality of tables."""
    rng = random.Random(777)
    group_cycle = ["C2", "C3", "C4", "V4", "C6", "S3", "D8", "Q8", "C2xC4", "C12"]
    comparisons = 0
    for i in range(20):
        G = catalog_group(group_cycle[i % len(group_cycle)])
        M = random_lattice(G, 3, rng)
        fp = class_fingerprint(M)
        for H in G.subgroups():
            fp2 = class_fingerprint(direct_sum(M, permutation_lattice(G, [H])))
            assert fp == fp2, f"fingerprint moved: {G.name}, H={H.members}"
            comparisons += 1
    report(7, f"fingerprint invariance exact in {comparisons} comparisons")


def test_criterion_8_cyclic_periodicity():
    """tate_minus1(H, M) = h1(H, M) for every cyclic subgroup of every catalog
    group, 20 seeded lattices each.  Exact."""
    rng = random.Random(888)
    comparisons = 0
    for G in catalog_groups_upto(16):
        cyclic_subs = [H for H in G.subgroups() if H.order > 1 and H.is_cyclic()]
        if not cyclic_subs:
            continue
        for _ in range(20):
            M = random_lattice(G, 4, rng)
            for H in cyclic_subs:
                assert tate_minus1(H, M) == h1(H, M), f"{G.name}, H={H.members}"
                comparisons += 1
    report(8, f"cyclic periodicity exact in {comparisons} comparisons")


def test_criterion_9_monomial_module():
    """Extension classes of the example actions (checked against brute-force
    coboundary enumeration) and the universal monomial verdict against the
    Sylow-cyclic test, over the whole catalog."""
    C2 = catalog_group("C2")
    inv = GLattice(C2, 1, {1: Mat.from_rows([[-1]])})

    def oracle(action, modulus):
        scale = modulus // action.d
        lat = action.lattice
        for v in itertools.product(range(modulus), repeat=lat.rank):
            ok = True
            for s in lat.group.generators:
                At = lat.act(s).transpose()
                for i in range(lat.rank):
                    c = action.coeff[s][i] * scale
                    shift = v[i] - sum(At.a[i][j] * v[j] for j in range(lat.rank))
                    if (c + shift) % modulus:
                        ok = False
            if ok:
                return True
        return False

    # purely monomial: zero class
    a1 = MonomialAction(trivial_lattice(C2), 4, {1: (0,)})
    ec1 = extension_class(a1)
    assert (ec1.vanishes_at_d, ec1.vanishes_stably) == (True, True)

    # x -> zeta_4 x^-1, d = 4: vanishes stably but not at d
    a2 = MonomialAction(inv, 4, {1: (1,)})
    ec2 = extension_class(a2)
    assert (ec2.vanishes_at_d, ec2.vanishes_stably) == (False, True)
    assert oracle(a2, 4) is False and oracle(a2, 8) is True

    # x -> -x with trivial exponent part, d = 2: the class survives every
    # root-of-unity enlargement (brute-force enumeration agrees); the
    # rescaling that kills it exists only for the inversion variant below
    a3 = MonomialAction(trivial_lattice(C2), 2, {1: (1,)})
    ec3 = extension_class(a3)
    assert ec3.vanishes_at_d is False
    assert oracle(a3, 2) is False and oracle(a3, 4) is False
    assert ec3.vanishes_stably is False

    a3b = MonomialAction(inv, 2, {1: (1,)})
    ec3b = extension_class(a3b)
    assert (ec3b.vanishes_at_d, ec3b.vanishes_stably) == (False, True)
    assert oracle(a3b, 4) is True

    # universal verdict = Sylow-cyclic test, whole catalog
    for G in catalog_groups_upto(16):
        assert (monomial_universal_verdict(G).answer == "Yes") == G.all_sylow_cyclic()
    report(9, "extension classes match enumeration; universal verdict matches "
              "the Sylow test on the catalog")


def test_criterion_10_zlinalg_randomized():
    """1000 seeded matrices: U*A*V = D exactly, transforms unimodular, divisor
    chains; solve_integer agrees with bounded brute force on 100 instances."""
    rng = random.Random(101010)
    for _ in range(1000):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        A = Mat.from_rows([[rng.randint(-9, 9) for _ in range(cols)]
                           for _ in range(rows)], cols)
        U, D, V = smith_normal_form(A)
        assert U.mul(A).mul(V) == D
        assert det(U) in (1, -1) and det(V) in (1, -1)
        prev = None
        for i in range(min(rows, cols)):
            d = D.a[i][i]
            assert d >= 0
            if prev not in (None, 0):
                assert d == 0 or d % prev == 0
            prev = d

    box = 8
    brute_checked = solver_yes = 0
    for case in range(100):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        A = Mat.from_rows([[rng.randint(-4, 4) for _ in range(cols)]
                           for _ in range(rows)], cols)
        if case % 2 == 0:
            x0 = [rng.randint(-3, 3) for _ in range(cols)]
            b = A.mulvec(x0)
        else:
            b = [rng.randint(-6, 6) for _ in range(rows)]
        x = solve_integer(A, b)
        brute_found = any(
            A.mulvec(list(cand)) == list(b)
            for cand in itertools.product(range(-box, box + 1), repeat=cols))
        if brute_found:
            assert x is not None, f"solver missed a solution: {A.a} {b}"
            brute_checked += 1
        if x is not None:
            assert A.mulvec(x) == list(b)
            solver_yes += 1
    report(10, f"1000 Smith decompositions exact; solver agreed with brute force "
               f"({brute_checked} brute-solvable, {solver_yes} solver-solvable)")
