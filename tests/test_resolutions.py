"""Covers, flabby resolutions, the invertibility decision, fingerprints."""

import dataclasses
import random

import pytest

from conftest import (
    cover_kernel,
    dense_unimodular,
    random_permutation_lattice,
    refute_mod,
    sign_lattice,
    textbook_cover,
)
from retractrat import resolutions
from retractrat.cohomology import is_coflabby, profile
from retractrat.errors import InternalCheckError
from retractrat.groups import catalog_group, catalog_groups_upto, dihedral_group, direct_product
from retractrat.lattices import (
    GLattice,
    LatticeMap,
    augmentation_kernel,
    conjugated,
    direct_sum,
    dual,
    fixed_basis,
    lenstra_lattice,
    permutation_lattice,
    random_lattice,
    regular_lattice,
    trivial_lattice,
)
from retractrat.resolutions import (
    class_fingerprint,
    fixed_point_cover,
    flabby_resolution,
    is_invertible,
    verify_refutation,
)
from retractrat.zlinalg import (
    LinearSolver,
    Mat,
    _factorint,
    hermite_basis,
    kernel_basis,
    row_hermite,
    solve_integer,
    solve_packed,
    unpack_lanes,
)


C2 = catalog_group("C2")
SIGN = sign_lattice(C2, C2.trivial_subgroup())


def assert_cover_valid(cov):
    M, P = cov.M, cov.P
    G = M.group
    assert P.is_permutation_lattice()
    # exact at P: kernel of projection equals the inclusion image
    inclusion = cover_kernel(cov)
    assert inclusion.target is P
    K = kernel_basis(cov.projection.matrix)
    assert K.cols == inclusion.source.rank
    if inclusion.source.rank:
        sol = LinearSolver(inclusion.matrix)
        for j in range(K.cols):
            assert sol.solve(K.col(j)) is not None
    # per-subgroup surjectivity, re-derived here
    for S in G.subgroups():
        FB = fixed_basis(M, S)
        if FB.cols == 0:
            continue
        PF = fixed_basis(P, S)
        img_cols = [cov.projection.matrix.mulvec(PF.col(j)) for j in range(PF.cols)]
        solver = LinearSolver(Mat.from_cols(img_cols, rows=M.rank))
        for j in range(FB.cols):
            assert solver.solve(FB.col(j)) is not None


class TestFixedPointCover:
    def test_sign_over_c2(self):
        cov = fixed_point_cover(SIGN)
        assert cov.P.rank == 2
        assert cov.projection.matrix.a == [[1, -1]]
        C = cover_kernel(cov).source
        assert C.rank == 1
        assert C.act(1) == Mat.identity(1)  # trivial action
        assert_cover_valid(cov)

    def test_trivial_lattice_seeded(self):
        cov = fixed_point_cover(trivial_lattice(C2))
        assert cov.P.rank == 1  # the Z[G/G] seed covers it outright
        assert cover_kernel(cov).source.rank == 0
        assert_cover_valid(cov)

    def test_regular_lattice_seeded(self):
        cov = fixed_point_cover(regular_lattice(C2))
        assert cov.P.rank == 2 and cover_kernel(cov).source.rank == 0
        assert_cover_valid(cov)

    def test_random_covers_valid_and_coflabby(self):
        rng = random.Random(3)
        for name in ["C4", "S3", "V4", "D8"]:
            G = catalog_group(name)
            for _ in range(3):
                M = random_lattice(G, 3, rng)
                cov = fixed_point_cover(M)
                assert_cover_valid(cov)
                C = cover_kernel(cov).source
                if C.rank:
                    assert is_coflabby(C)

    def test_orbit_seeds_match_all_elements_oracle(self):
        def oracle(M):
            # the seed set from every element's matrix: columns that all of
            # them send to a +1 unit vector, shrunk until closed
            n = M.rank
            images = {}
            for g, A in M.expand().items():
                images[g] = {}
                for j in range(n):
                    col = A.col(j)
                    if sorted(col) == [0] * (n - 1) + [1]:
                        images[g][j] = col.index(1)
            kept = set(range(n))
            while any(images[g].get(j) not in kept for g in images for j in kept):
                kept = {j for j in kept if all(images[g].get(j) in kept for g in images)}
            seeds, seen = [], set()
            for j in sorted(kept):
                if j not in seen:
                    seen |= {images[g][j] for g in images}
                    seeds.append((tuple(sorted(g for g in images if images[g][j] == j)), j))
            return seeds

        rng = random.Random(8)
        lattices = [lenstra_lattice(3).M]
        for G in catalog_groups_upto(12):
            for H in G.subgroup_conjugacy_representatives():
                torus = dual(augmentation_kernel(G, H))
                lattices += [torus, dual(torus)]
            lattices.append(random_lattice(G, 5, rng))
            lattices.append(random_permutation_lattice(G, rng, max_rank=10))
        lattices += [flabby_resolution(M).F for M in lattices[:40]]
        seeded = 0
        for M in lattices:
            seeds = [(H.members, j) for H, j in resolutions._permutation_orbit_seeds(M)]
            assert seeds == oracle(M), M
            seeded += bool(seeds)
        assert 0 < seeded < len(lattices)


class TestFlabbyResolution:
    def test_sign_resolution(self):
        res = flabby_resolution(SIGN)
        assert res.P.rank == 2
        assert res.F.rank == 1
        assert res.F.act(1) == Mat.identity(1)  # F = Z

    def test_exactness_invariants(self):
        rng = random.Random(9)
        for name in ["C4", "S3", "Q8"]:
            G = catalog_group(name)
            for _ in range(3):
                M = random_lattice(G, 3, rng)
                res = flabby_resolution(M)
                assert len(row_hermite(res.injection.matrix.transpose())[2]) == M.rank
                assert res.surjection.matrix.mul(res.injection.matrix).is_zero()
                assert M.rank + res.F.rank == res.P.rank
                assert res.P.is_permutation_lattice()
                p = profile(res.F)
                assert p.is_flabby

    def test_composite_check_fires(self, monkeypatch):
        # the identity of P as the "kernel" basis: F = P and the composite
        # is proj^T != 0
        monkeypatch.setattr(resolutions, "kernel_basis", lambda proj: Mat.identity(proj.cols))
        with pytest.raises(InternalCheckError, match="composite is nonzero"):
            flabby_resolution(SIGN)

    def test_rank_check_fires(self, monkeypatch):
        # an empty "kernel" basis: the composite is 0, but 1 + 0 != rank P = 2
        monkeypatch.setattr(resolutions, "kernel_basis", lambda proj: Mat.zero(proj.cols, 0))
        with pytest.raises(InternalCheckError, match="ranks do not add up"):
            flabby_resolution(SIGN)

    def test_permutation_input_resolves_to_zero_tail(self):
        rng = random.Random(21)
        for name in ["C4", "S3"]:
            G = catalog_group(name)
            M = random_permutation_lattice(G, rng, max_rank=8)
            res = flabby_resolution(M)
            assert res.F.rank == 0


class TestPermutationLatticesStayUnexpanded:
    def test_decision_and_resolution_read_only_generators_of_covers(self, monkeypatch):
        lattices = [lenstra_lattice(3).M]
        for name in ["C4", "S3", "D8", "Q8", "A4"]:
            G = catalog_group(name)
            lattices += [dual(augmentation_kernel(G, H))
                         for H in G.subgroup_conjugacy_representatives()]
        expanded = []
        real = GLattice.expand

        def spy(M):
            expanded.append(M.summands is not None)
            return real(M)

        monkeypatch.setattr(GLattice, "expand", spy)
        for M in lattices:
            res = flabby_resolution(M)
            assert res.P.summands is not None
            is_invertible(M)
        assert expanded and not any(expanded)


class TestIsInvertible:
    def test_trivial_yes(self):
        dec = is_invertible(trivial_lattice(C2))
        assert dec.answer and dec.witness is not None

    def test_sign_no(self):
        dec = is_invertible(SIGN)
        assert not dec.answer and dec.witness is None
        # the one composite is 2 = 0 mod 2, while the identity has trace 1
        assert dec.refutation == Mat.from_rows([[1]])
        assert verify_refutation(dec)

    def test_permutation_yes_with_verified_witness(self):
        rng = random.Random(33)
        for name in ["C4", "S3", "D8"]:
            G = catalog_group(name)
            M = random_permutation_lattice(G, rng, max_rank=8)
            dec = is_invertible(M)
            assert dec.answer
            S = dec.witness.matrix
            assert dec.cover.projection.matrix.mul(S).is_identity()
            for s in G.generators:
                assert S.mul(M.act(s)) == dec.cover.P.act(s).mul(S)

    def test_yes_implies_flabby_and_coflabby(self):
        rng = random.Random(43)
        for name in ["C4", "S3", "V4"]:
            G = catalog_group(name)
            for _ in range(3):
                M = random_lattice(G, 3, rng)
                dec = is_invertible(M)
                if dec.answer:
                    p = profile(M)
                    assert p.is_flabby and p.is_coflabby

    def test_direct_sum_of_invertibles(self):
        rng = random.Random(51)
        G = catalog_group("S3")
        A = random_permutation_lattice(G, rng, max_rank=6)
        B = random_permutation_lattice(G, rng, max_rank=6)
        assert is_invertible(direct_sum(A, B)).answer

    def test_conjugated_permutation_still_invertible(self):
        # abstractly permutation but with dense matrices: exercises the
        # decision without any seeding shortcuts
        from retractrat.lattices import conjugated
        from retractrat.zlinalg import Mat
        G = catalog_group("S3")
        M = regular_lattice(G)
        T = Mat.identity(6)
        rng = random.Random(99)
        for _ in range(8):
            i, j = rng.randrange(6), rng.randrange(6)
            if i != j:
                for k in range(6):
                    T.a[i][k] += T.a[j][k]
        N = conjugated(M, T)
        assert N.act(G.generators[0]).as_permutation() is None
        dec = is_invertible(N)
        assert dec.answer
        S = dec.witness.matrix
        assert dec.cover.projection.matrix.mul(S).is_identity()

    def test_section_candidates_are_equivariant(self):
        # each candidate S_j is the combination of the unit vector e_j
        from retractrat.lattices import augmentation_kernel
        rng = random.Random(23)
        lattices = []
        for name in ["C4", "S3", "V4", "D8", "Q8", "A4"]:
            G = catalog_group(name)
            for H in G.subgroup_conjugacy_representatives():
                if H.order < G.order:
                    lattices.append(dual(augmentation_kernel(G, H)))
            lattices.append(random_lattice(G, 5, rng))
            lattices.append(random_permutation_lattice(G, rng, max_rank=8))
            for H in G.subgroups():
                if H.is_normal and G.order // H.order == 2:
                    lattices.append(sign_lattice(G, H))
        for M in lattices:
            cov = fixed_point_cover(M)
            n = sum(fixed_basis(dual(M), H).cols for H in cov.P.summands)
            for j in range(n):
                S = resolutions._combine_candidates(cov, [int(k == j) for k in range(n)])
                LatticeMap(M, cov.P, S)  # raises unless equivariant

    def test_lenstra_class_not_invertible(self):
        data = lenstra_lattice(3)
        res = flabby_resolution(data.M)
        assert not is_invertible(res.F).answer

    def test_endo_miyata_direction_small(self):
        rng = random.Random(77)
        for name in ["C4", "C6", "S3"]:
            G = catalog_group(name)
            for _ in range(5):
                M = random_lattice(G, 4, rng)
                res = flabby_resolution(M)
                assert is_invertible(res.F).answer


# the norm-one tori J_G/1 the benchmark leaves out for their cost
LEFT_OUT_TORI = {"C2xC2xC2", "U(32)", "D16"}


def cross_check_cases():
    """Seeded lattices of the tori-mix benchmark (norm-one tori and four
    random lattices per catalog group of order 2..16), their flabby tails,
    and the q = 8 Lenstra lattice with its tail, as (label, lattice) pairs."""
    rng = random.Random(2009)
    base = [("lenstra q=8", lenstra_lattice(3).M)]
    for G in catalog_groups_upto(16):
        if G.order < 2:
            continue
        for H in G.subgroup_conjugacy_representatives():
            if H.order == G.order or (H.order == 1 and G.name in LEFT_OUT_TORI):
                continue
            base.append((f"J_{G.name}/{H.members}", dual(augmentation_kernel(G, H))))
        for i in range(4):
            base.append((f"random {G.name} #{i}", random_lattice(G, 6, rng)))
    return base + [(f"tail of {label}", flabby_resolution(M).F) for label, M in base]


def dense_candidates(M, P):
    """The section candidates as dense P.rank x M.rank matrices, written from
    their definition: for each summand Z[G/H] of P and each vector u of the
    basis of (M*)^H, the row of the coset rep H is A*(rep) u."""
    Mdual = dual(M)
    out = []
    base = 0
    for H in P.summands:
        reps, _ = H.cosets()
        FB = fixed_basis(Mdual, H)
        for j in range(FB.cols):
            S = Mat.zero(P.rank, M.rank)
            for r, rep in enumerate(reps):
                S.a[base + r] = Mdual.act(rep).mulvec(FB.col(j))
            out.append(S)
        base += len(reps)
    return out


def dense_section_system(composites, m, columns):
    """The section system written from the dense composites proj S_j: one
    equation per entry (i, s) of sum_j x_j proj S_j = I with s in columns, in
    row-major order, the first of each (coefficients, target), zero
    equations with target 0 dropped."""
    rows, rhs, seen = [], [], set()
    for i in range(m):
        for s in columns:
            key = (tuple(D[i][s] for D in composites), int(i == s))
            if key in seen or not (key[1] or any(key[0])):
                continue
            seen.add(key)
            rows.append(list(key[0]))
            rhs.append(key[1])
    return Mat.from_rows(rows, len(composites)), rhs


def composites_on(cov, columns):
    """The composites proj S_j of the dense candidates, with only the entries
    in the given columns computed (the others are left 0)."""
    proj, m = cov.projection.matrix.a, cov.M.rank
    out = []
    for S in dense_candidates(cov.M, cov.P):
        rows = [(c, row) for c, row in enumerate(S.a) if any(row)]
        D = [[0] * m for _ in range(m)]
        for i in range(m):
            for s in columns:
                D[i][s] = sum(proj[i][c] * row[s] for c, row in rows)
        out.append(D)
    return out


def merged_mod(A, b, N):
    """The rows [coefficients..., target] of the system (A, b) reduced mod
    N, the first of each kept, zero rows dropped."""
    out = {}
    for row, target in zip(A.a, b):
        key = tuple(x % N for x in row) + (target % N,)
        if any(key):
            out.setdefault(key)
    return [list(key) for key in out]


def library_rows(cov, T, N):
    """The library's packed section system mod N, unpacked."""
    n, rows = resolutions._section_rows(cov, T, N)
    return [unpack_lanes(e, n + 1, N) for e in rows]


def decide_mod_n_alone(cov):
    """The decision on a cover with the section system built and solved mod
    N = |G| only, with no pass mod p before it: (True, the section matrix)
    or (False, Lam), Lam on the first (i, s) of each equation."""
    M = cov.M
    N, m = M.group.order, M.rank
    n, rows = resolutions._section_rows(cov, resolutions._orbit_spanning_indices(M), N)
    x, lam = solve_packed(list(rows), n, N)
    if lam is not None:
        Lam = Mat.zero(m, m)
        for (i, s), y in zip(rows.values(), lam):
            Lam.a[i][s] = y
        return False, Lam
    proj = cov.projection.matrix
    S = resolutions._combine_candidates(cov, x)
    R = proj.mul(S)
    if not R.is_identity():
        Y = Mat(m, m, [[(v - (i == j)) // N for j, v in enumerate(row)]
                       for i, row in enumerate(R.a)])
        S = resolutions._combine_candidates(cov, x, LinearSolver(proj).solve_matrix(Y))
    return True, S


def decide_recording_moduli(monkeypatch, M):
    """is_invertible(M) and the moduli of its solve_packed calls, in order."""
    moduli = []

    def recorded(rows, n, N):
        moduli.append(N)
        return solve_packed(rows, n, N)

    with monkeypatch.context() as patch:
        patch.setattr(resolutions, "solve_packed", recorded)
        return is_invertible(M), moduli


@pytest.fixture(scope="class")
def decided():
    """Each case of cross_check_cases decided by is_invertible, as (label,
    decision)."""
    return [(label, is_invertible(M)) for label, M in cross_check_cases()]


@pytest.fixture(scope="class")
def dense_composites(decided):
    """(label, cover, composites proj S_j) for each case of nonzero rank."""
    return [(label, dec.cover, [dec.cover.projection.matrix.mul(S).a
                                for S in dense_candidates(dec.cover.M, dec.cover.P)])
            for label, dec in decided if dec.cover.M.rank]


@pytest.fixture(scope="class")
def cross_checked(decided, dense_composites):
    """The decisions; for each case of nonzero rank the pair (the answer
    decided mod |G|, solvable over Z), the exact answer taken by
    solve_integer on the tests' own dense section system on the columns T;
    and those dense systems, as (A, b) in the same order."""
    answers = dict(decided)
    systems, equations = [], []
    for label, cov, composites in dense_composites:
        A, b = dense_section_system(composites, cov.M.rank,
                                    resolutions._orbit_spanning_indices(cov.M))
        systems.append((answers[label].answer, solve_integer(A, b) is not None))
        equations.append((A, b))
    return decided, systems, equations


class TestModularDecision:
    def test_agrees_with_exact_solve(self, cross_checked):
        _, systems, _ = cross_checked
        assert all(modular == exact for modular, exact in systems)
        assert {modular for modular, _ in systems} == {True, False}

    def test_matches_the_decision_mod_n_alone(self, decided):
        # against the decision without the passes mod p: same answers,
        # identical Yes witnesses, every No verified; the cases include orders
        # with a square factor and both answers there
        squared = set()
        for label, dec in decided:
            answer, matrix = decide_mod_n_alone(dec.cover)
            assert dec.answer == answer, label
            if answer:
                assert dec.witness.matrix == matrix, label
            else:
                assert verify_refutation(dec), label
            if any(a > 1 for a in _factorint(dec.cover.M.group.order).values()):
                squared.add(answer)
        assert squared == {True, False}

    def test_every_no_carries_a_verified_refutation(self, cross_checked):
        decisions, _, _ = cross_checked
        answers = set()
        for label, dec in decisions:
            answers.add(dec.answer)
            if dec.answer:
                assert dec.refutation is None and dec.witness is not None, label
                continue
            assert dec.witness is None, label
            assert verify_refutation(dec), label
            N = dec.cover.M.group.order
            m = dec.cover.M.rank
            zero = dataclasses.replace(dec, refutation=Mat.zero(m, m))
            assert not verify_refutation(zero), label
            scaled = Mat.from_rows([[N * x for x in row] for row in dec.refutation.a], m)
            assert not verify_refutation(dataclasses.replace(dec, refutation=scaled)), label
        assert answers == {True, False}

    def test_refutation_must_kill_every_composite(self, cross_checked):
        # A Yes lattice has no refutation.  Leaving one candidate out of its
        # section system can make the rest unsolvable mod |G|; the lambda of
        # that smaller system kills every composite but one, and
        # verify_refutation, which recomputes all of them, must reject it.
        decisions, _, _ = cross_checked
        tried = 0
        for label, dec in decisions:
            if not dec.answer or dec.cover.M.rank == 0:
                continue
            cov = dec.cover
            m, N = cov.M.rank, cov.M.group.order
            proj = cov.projection.matrix
            composites = [proj.mul(S).a for S in dense_candidates(cov.M, cov.P)]
            for k in range(len(composites)):
                kept = composites[:k] + composites[k + 1:]
                A = Mat.from_rows([[D[i][j] for D in kept]
                                   for i in range(m) for j in range(m)], len(kept))
                b = [int(i == j) for i in range(m) for j in range(m)]
                lam = refute_mod(A, b, N)
                if lam is None:
                    continue
                Lam = Mat.from_rows([lam[i * m:(i + 1) * m] for i in range(m)], m)
                no = resolutions.InvertibilityDecision(False, None, cov, Lam)
                assert not verify_refutation(no), (label, k)
                tried += 1
            if tried >= 20:
                break
        assert tried

    def test_section_system_matches_dense_composites(self, cross_checked, dense_composites):
        # the library's rows mod N, unpacked, are the dense system on the
        # columns s in T reduced mod N and merged mod N, in first-occurrence
        # order; the cases have odd, even and composite |G|
        _, _, equations = cross_checked
        assert len(dense_composites) == len(equations)
        orders = set()
        for (label, cov, _), (A, b) in zip(dense_composites, equations):
            N = cov.M.group.order
            orders.add(N)
            T = resolutions._orbit_spanning_indices(cov.M)
            assert library_rows(cov, T, N) == merged_mod(A, b, N), label
        assert {3, 6, 8, 9, 12, 15, 16} <= orders

    def test_q16_section_system_matches_dense_composites(self):
        F = flabby_resolution(lenstra_lattice(4).M).F
        cov = fixed_point_cover(F)
        T = resolutions._orbit_spanning_indices(F)
        A, b = dense_section_system(composites_on(cov, T), F.rank, T)
        assert (A.rows, A.cols) == (547, 658)
        rows = library_rows(cov, T, 8)
        assert len(rows) == 542
        assert rows == merged_mod(A, b, 8)

    def test_full_system_gives_the_same_answers(self, cross_checked, dense_composites):
        # oracle: the m^2 system, one equation per entry of the section
        # identity, is solvable mod |G| and over Z exactly when the system on
        # the columns s in T is
        _, systems, _ = cross_checked
        assert len(dense_composites) == len(systems)
        for (label, cov, composites), answers in zip(dense_composites, systems):
            A, b = dense_section_system(composites, cov.M.rank, range(cov.M.rank))
            modular = refute_mod(A, b, cov.M.group.order) is None
            exact = solve_integer(A, b) is not None
            assert (modular, exact) == answers, label

    def test_refutation_off_the_chosen_columns(self):
        # verify_refutation must not assume Lam lives on the columns T: Lam
        # from the full m^2 system passes as it is (for J_C15 it has entries
        # off T), and changing one of its entries off T and off the diagonal
        # by 1 breaks it
        C15 = catalog_group("C15")
        supported_off_T = []
        cases = [flabby_resolution(lenstra_lattice(3).M).F,
                 dual(augmentation_kernel(C15, C15.trivial_subgroup()))]
        for M in cases:
            cov = fixed_point_cover(M)
            m, N = M.rank, M.group.order
            composites = [cov.projection.matrix.mul(S).a for S in dense_candidates(M, cov.P)]
            A = Mat.from_rows([[D[i][j] for D in composites]
                               for i in range(m) for j in range(m)], len(composites))
            lam = refute_mod(A, [int(i == j) for i in range(m) for j in range(m)], N)
            assert lam is not None
            Lam = Mat.from_rows([lam[i * m:(i + 1) * m] for i in range(m)], m)
            T = resolutions._orbit_spanning_indices(M)
            off_T = [(i, s) for i in range(m) for s in range(m) if s not in T]
            supported_off_T.append(any(Lam.a[i][s] for i, s in off_T))
            no = resolutions.InvertibilityDecision(False, None, cov, Lam)
            assert verify_refutation(no), N
            i, s = next((i, s) for i, s in off_T
                        if i != s and any(D[i][s] % N for D in composites))
            changed = Mat.from_rows(Lam.a, m)
            changed.a[i][s] += 1
            assert not verify_refutation(dataclasses.replace(no, refutation=changed)), N
        assert supported_off_T == [False, True]

    def test_orbits_of_the_chosen_columns_span(self, cross_checked):
        # each s in T is outside the span of the orbits of the earlier ones,
        # and all their orbits together span Z^m; checked by Hermite bases
        decisions, _, _ = cross_checked
        for label, dec in decisions:
            M = dec.cover.M
            orbits: list[list[int]] = []
            for s in resolutions._orbit_spanning_indices(M):
                e = [int(i == s) for i in range(M.rank)]
                if orbits:
                    assert (hermite_basis(orbits + [e], M.rank).a
                            != hermite_basis(orbits, M.rank).a), (label, s)
                orbits += [A.col(s) for A in M.expand().values()]
            assert hermite_basis(orbits, M.rank).is_identity(), label

    def test_chosen_columns_of_regular_and_trivial_lattices(self):
        for name in ("C2", "S3", "Q8", "A4"):
            G = catalog_group(name)
            assert len(resolutions._orbit_spanning_indices(regular_lattice(G))) == 1, name
            assert resolutions._orbit_spanning_indices(trivial_lattice(G, 4)) == [0, 1, 2, 3]

    def test_some_yes_sections_need_the_lift(self, cross_checked):
        # x mod |G| gives S0 with proj S0 = I + N Y; on some Yes cases Y is
        # not 0, so the averaged lift of Y is what makes the witness a
        # section there; every witness is a section
        decisions, _, _ = cross_checked
        lifted = 0
        for label, dec in decisions:
            cov = dec.cover
            if not dec.answer or not cov.M.rank:
                continue
            N, m = cov.M.group.order, cov.M.rank
            proj = cov.projection.matrix
            n, rows = resolutions._section_rows(cov, resolutions._orbit_spanning_indices(cov.M), N)
            x, _ = solve_packed(list(rows), n, N)
            R = proj.mul(resolutions._combine_candidates(cov, x))
            assert all((R.a[i][j] - (i == j)) % N == 0 for i in range(m) for j in range(m)), label
            lifted += not R.is_identity()
            assert proj.mul(dec.witness.matrix).is_identity(), label
        assert lifted >= 30

    def test_lift_at_order_64(self, monkeypatch):
        # Z[G/H] for G = D8 x D8 and the first class of subgroups H of order
        # 4, in a basis that G no longer permutes, needs the lift: one
        # LinearSolver on the projection, and the witness is a section
        calls = []

        class Counted(LinearSolver):
            def __init__(self, A):
                calls.append(A.rows)
                super().__init__(A)

        G = direct_product(dihedral_group(8), dihedral_group(8))
        H = next(H for H in G.subgroup_conjugacy_representatives() if H.order == 4)
        T = Mat.identity(16)
        T.a[0][1] = 1
        T.a[15][0] = -1
        monkeypatch.setattr(resolutions, "LinearSolver", Counted)
        dec = is_invertible(conjugated(permutation_lattice(G, [H]), T))
        assert dec.answer
        assert calls == [dec.cover.M.rank]
        assert dec.cover.projection.matrix.mul(dec.witness.matrix).is_identity()

    def test_wrong_refutation_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(resolutions, "solve_packed", lambda rows, n, N: (None, [1] * len(rows)))
        with pytest.raises(InternalCheckError):
            is_invertible(flabby_resolution(lenstra_lattice(3).M).F)

    def test_modular_yes_without_integral_section_is_an_internal_error(self, monkeypatch):
        # x = 0 is no solution mod |G|: proj S0 = 0 is not I mod 6
        monkeypatch.setattr(resolutions, "solve_packed", lambda rows, n, N: ([0] * n, None))
        with pytest.raises(InternalCheckError):
            is_invertible(regular_lattice(catalog_group("S3")))

    def test_q16_tail_decided_without_exact_solve(self, monkeypatch):
        # a No lifts nothing: no LinearSolver inside is_invertible
        calls = []

        class Counted(LinearSolver):
            def __init__(self, A):
                calls.append(A.rows)
                super().__init__(A)

        F = flabby_resolution(lenstra_lattice(4).M).F
        monkeypatch.setattr(resolutions, "LinearSolver", Counted)
        dec = is_invertible(F)
        assert not dec.answer
        assert dec.refutation is not None and verify_refutation(dec)
        assert calls == []


class TestRefutationModP:
    """is_invertible tries the section system mod each p with p^2 | |G|
    before mod |G|; decide_mod_n_alone is the decision without those passes."""

    @pytest.fixture(scope="class")
    def q16_tail(self):
        return flabby_resolution(lenstra_lattice(4).M).F

    def test_q16_tail_refuted_mod_2(self, monkeypatch, q16_tail):
        # |G| = 8: the system mod 2 refutes, and the one mod 8 is never built
        dec, moduli = decide_recording_moduli(monkeypatch, q16_tail)
        assert moduli == [2]
        assert not dec.answer and verify_refutation(dec)
        assert all(y % 4 == 0 for row in dec.refutation.a for y in row)
        assert decide_mod_n_alone(dec.cover)[0] is False

    def test_no_that_falls_through_to_the_order(self, monkeypatch):
        # a rank-2 lattice of C12 whose system is solvable mod 2 but not mod
        # 12 (it is refuted mod 3): the refutation is the one mod 12 itself
        M = random_lattice(catalog_group("C12"), 3, random.Random(0))
        dec, moduli = decide_recording_moduli(monkeypatch, M)
        assert moduli == [2, 12]
        assert not dec.answer and verify_refutation(dec)
        assert (False, dec.refutation) == decide_mod_n_alone(dec.cover)

    def test_yes_with_a_square_factor(self, monkeypatch):
        # the flabby tail of the norm-one torus of C4 and the regular lattice
        # of D8 are invertible: the pass mod 2 finds no refutation, and the
        # witness is the one lifted from the solution mod |G|
        J = dual(augmentation_kernel_of(catalog_group("C4")))
        for M, N in [(flabby_resolution(J).F, 4), (regular_lattice(catalog_group("D8")), 8)]:
            dec, moduli = decide_recording_moduli(monkeypatch, M)
            assert moduli == [2, N]
            assert dec.answer
            assert (True, dec.witness.matrix) == decide_mod_n_alone(dec.cover)

    def test_squarefree_order_solves_mod_the_order_only(self, monkeypatch):
        for name in ("S3", "C6", "C15"):
            G = catalog_group(name)
            dec, moduli = decide_recording_moduli(monkeypatch, augmentation_kernel_of(G))
            assert moduli == [G.order], name

    def test_unscaled_refutation_mod_2_is_rejected(self, q16_tail):
        # lam mod 2 kills every composite mod 2 only; (|G|/2) lam kills them
        # mod |G|, lam itself does not (|G| = 4 and 8)
        for F in (flabby_resolution(lenstra_lattice(3).M).F, q16_tail):
            cov = fixed_point_cover(F)
            m, N = F.rank, F.group.order
            n, rows = resolutions._section_rows(cov, resolutions._orbit_spanning_indices(F), 2)
            _, lam = solve_packed(list(rows), n, 2)
            assert lam is not None and N > 2
            Lam = Mat.zero(m, m)
            for (i, s), y in zip(rows.values(), lam):
                Lam.a[i][s] = y
            no = resolutions.InvertibilityDecision(False, None, cov, Lam)
            assert not verify_refutation(no), N
            scaled = Mat.from_rows([[N // 2 * y for y in row] for row in Lam.a], m)
            assert verify_refutation(dataclasses.replace(no, refutation=scaled)), N

    def test_bogus_refutation_from_the_first_modulus_is_an_internal_error(self, monkeypatch):
        moduli = []

        def bogus(rows, n, N):
            moduli.append(N)
            return None, [1] * len(rows)

        monkeypatch.setattr(resolutions, "solve_packed", bogus)
        with pytest.raises(InternalCheckError):
            is_invertible(regular_lattice(catalog_group("D8")))
        assert moduli == [2]


class TestDegenerateInputs:
    def test_rank_zero_lattice(self):
        from retractrat.zlinalg import Mat
        from retractrat.lattices import GLattice
        S3 = catalog_group("S3")
        Z0 = GLattice(S3, 0, {s: Mat.zero(0, 0) for s in S3.generators})
        assert is_invertible(Z0).answer is True
        res = flabby_resolution(Z0)
        assert res.P.rank == 0 and res.F.rank == 0
        p = profile(Z0)
        assert p.is_flabby and p.is_coflabby

    def test_trivial_group_lattice(self):
        C1 = catalog_group("C1")
        M = trivial_lattice(C1, 2)
        assert is_invertible(M).answer is True
        assert profile(M).is_flabby


class TestCoverIndependence:
    # the library's cover and the plain textbook cover (conftest), swapped
    # in for fixed_point_cover, must give the same answers

    def test_decision_independent_of_cover_choice(self, monkeypatch):
        rng = random.Random(61)
        from retractrat.lattices import augmentation_kernel
        larger = 0
        for name in ["C4", "V4", "S3", "Q8"]:
            G = catalog_group(name)
            samples = [random_lattice(G, 3, rng) for _ in range(2)]
            samples.append(dual(augmentation_kernel(G, G.trivial_subgroup())))
            for M in samples:
                a = is_invertible(M)
                with monkeypatch.context() as mp:
                    mp.setattr(resolutions, "fixed_point_cover", textbook_cover)
                    b = is_invertible(M)
                assert a.answer == b.answer, f"{name}: cover choice changed the decision"
                larger += b.cover.P.rank > a.cover.P.rank
        assert larger  # the textbook cover was the one decided on

    def test_class_answer_independent_of_resolution_choice(self, monkeypatch):
        # invertibility of the flabby class cannot depend on which resolution
        # represents it
        rng = random.Random(62)
        for name in ["C4", "V4"]:
            G = catalog_group(name)
            for _ in range(2):
                M = random_lattice(G, 2, rng)
                fa = is_invertible(flabby_resolution(M).F).answer
                with monkeypatch.context() as mp:
                    mp.setattr(resolutions, "fixed_point_cover", textbook_cover)
                    F = flabby_resolution(M).F
                fb = is_invertible(F).answer
                assert fa == fb, f"{name}: resolution choice changed the class answer"


class TestNormOneTorus:
    def test_classical_criterion(self):
        # the norm-one torus of a Galois extension is retract rational exactly
        # when every Sylow subgroup of the Galois group is cyclic; this
        # exercises both answers of the decision against classical results
        from retractrat.lattices import augmentation_kernel
        from retractrat.verdict import torus_verdict
        for name in ["C2", "C4", "C6", "S3", "V4", "Q8", "C2xC4", "D8"]:
            G = catalog_group(name)
            J = dual(augmentation_kernel(G, G.trivial_subgroup()))
            expected = "Yes" if G.all_sylow_cyclic() else "No"
            assert torus_verdict(J).answer == expected, name

    def test_augmentation_kernel_shape(self):
        G = catalog_group("S3")
        A = augmentation_kernel_of(G)
        assert A.rank == 5


def augmentation_kernel_of(G):
    from retractrat.lattices import augmentation_kernel
    return augmentation_kernel(G, G.trivial_subgroup())


class TestFingerprint:
    def test_permutation_lattice_all_trivial(self):
        G = catalog_group("C4")
        M = regular_lattice(G)
        fp = class_fingerprint(M)
        assert all(inv.is_trivial for inv in fp.values())

    def test_invariance_under_regular_summand(self):
        fp1 = class_fingerprint(SIGN)
        fp2 = class_fingerprint(direct_sum(SIGN, regular_lattice(C2)))
        assert fp1 == fp2

    def test_lenstra_nontrivial_somewhere(self):
        data = lenstra_lattice(3)
        fp = class_fingerprint(data.M)
        assert any(not inv.is_trivial for inv in fp.values())

    @pytest.mark.parametrize("label", ["J_D8", "lenstra q=16"])
    def test_invariance_under_dense_conjugation(self, label):
        # a dense basis change defeats the orbit seeds and changes the cover,
        # and with it the tail; H^1 of the class stays
        if label == "J_D8":
            D8 = catalog_group("D8")
            M = dual(augmentation_kernel(D8, D8.trivial_subgroup()))
        else:
            M = lenstra_lattice(4).M
        N = conjugated(M, dense_unimodular(M.rank, random.Random(1)))
        assert flabby_resolution(N).F.rank != flabby_resolution(M).F.rank
        assert class_fingerprint(N) == class_fingerprint(M)

    def test_invariance_random(self):
        rng = random.Random(91)
        for name in ["C4", "S3", "V4"]:
            G = catalog_group(name)
            M = random_lattice(G, 3, rng)
            fp = class_fingerprint(M)
            for H in G.subgroups():
                fp2 = class_fingerprint(direct_sum(M, permutation_lattice(G, [H])))
                assert fp == fp2
