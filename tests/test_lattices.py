"""Lattice constructors, conventions, and the units-congruence kernel lattice."""

import gc
import random
import time
import weakref

import pytest

from conftest import cover_kernel, dense_unimodular, sign_lattice
from retractrat.errors import InternalCheckError, UserInputError
from retractrat.groups import (
    FiniteGroup,
    catalog_group,
    catalog_groups_upto,
    cyclic_group,
    dihedral_group,
    direct_product,
    parse_group,
)
from retractrat.lattices import (
    GLattice,
    LatticeMap,
    action_kernel,
    augmentation_kernel,
    conjugated,
    direct_sum,
    dual,
    fixed_basis,
    invariant_sublattice,
    lattice_document,
    lenstra_lattice,
    parse_lattice,
    permutation_lattice,
    random_lattice,
    regular_lattice,
    restrict,
    sublattice_dual,
    trivial_lattice,
)
from retractrat.resolutions import fixed_point_cover, flabby_resolution, is_invertible
from retractrat.zlinalg import Mat, kernel_basis


def lattices_equal(M, N):
    return (M.group.table_key() == N.group.table_key() and M.rank == N.rank
            and all(M.act(g) == N.act(g) for g in range(M.group.order)))


class TestConstruction:
    def test_homomorphism_checked_on_all_pairs(self):
        C4 = catalog_group("C4")
        # order-4 rotation matrix: valid
        rot = Mat.from_rows([[0, -1], [1, 0]])
        M = GLattice(C4, 2, {1: rot})
        for g in range(4):
            for h in range(4):
                assert M.act(C4.mul(g, h)) == M.act(g).mul(M.act(h))

    def test_non_unimodular_rejected(self):
        C2 = catalog_group("C2")
        with pytest.raises(UserInputError):
            GLattice(C2, 1, {1: Mat.from_rows([[2]])})

    def test_rank_512_document_parses_fast(self):
        # unimodularity comes from the expansion, not from a determinant
        start = time.process_time()
        M = parse_lattice({"group": "C2", "rank": 512, "action": {"1": []}})
        assert time.process_time() - start < 2.0
        assert M.rank == 512 and M.act(1).is_identity()

    def test_inconsistent_action_rejected(self):
        C3 = catalog_group("C3")
        with pytest.raises(UserInputError):
            GLattice(C3, 1, {1: Mat.from_rows([[-1]])})  # (-1)^3 = -1 != 1

    def test_non_commuting_generators_rejected(self):
        # both matrices square to the identity, but they do not commute
        V4 = catalog_group("V4")
        a, b = V4.generators
        with pytest.raises(UserInputError):
            GLattice(V4, 2, {a: Mat.from_rows([[0, 1], [1, 0]]),
                             b: Mat.from_rows([[1, 0], [0, -1]])})

    def test_non_faithful_action_allowed(self):
        # an action may factor through a quotient; only consistency is required
        C4 = catalog_group("C4")
        M = GLattice(C4, 2, {1: Mat.from_rows([[0, 1], [1, 0]])})
        assert M.act(2) == Mat.identity(2)


class TestPermutationLattices:
    def test_regular_c2(self):
        C2 = catalog_group("C2")
        M = regular_lattice(C2)
        assert M.rank == 2
        assert M.act(1) == Mat.from_rows([[0, 1], [1, 0]])

    def test_full_stabilizer_gives_trivial(self):
        S3 = catalog_group("S3")
        M = permutation_lattice(S3, [S3.full_subgroup()])
        assert M.rank == 1
        assert all(M.act(g) == Mat.identity(1) for g in range(6))

    def test_coset_lattice_s3(self):
        S3 = catalog_group("S3")
        H = next(s for s in S3.subgroups() if s.order == 2)
        M = permutation_lattice(S3, [H])
        assert M.rank == 3
        assert M.is_permutation_lattice()

    def test_is_permutation_lattice_flag(self, C2):
        assert regular_lattice(C2).is_permutation_lattice()
        assert not sign_lattice(C2, C2.trivial_subgroup()).is_permutation_lattice()


class TestExtend:
    def test_expansion_matches_product_oracle(self):
        rng = random.Random(16)
        for G in catalog_groups_upto(16):
            M = random_lattice(G, 4, rng)
            mats = G.extend(Mat.identity(M.rank), lambda A, s: A.mul(M.action[s]), "action")
            assert mats == M.expand()
            assert all(mats[s] == M.action[s] for s in G.generators)
            for g in G.elements():
                for h in G.elements():
                    assert mats[G.mul(g, h)] == mats[g].mul(mats[h]), (G.name, g, h)

    def test_expansion_matches_product_oracle_on_tails_and_lenstra(self):
        rng = random.Random(17)
        lattices = []
        for G in catalog_groups_upto(16):
            M = random_lattice(G, 4, rng)
            lattices += [M, flabby_resolution(M).F]
        for n in (3, 4):
            data = lenstra_lattice(n)
            lattices += [data.M, data.N, flabby_resolution(data.M).F]
        for M in lattices:
            G = M.group
            walk = G.extend(Mat.identity(M.rank), lambda A, s: A.mul(M.action[s]), "action")
            assert M.expand() == walk, (G.name, M.rank)

    def test_inconsistent_step_raises(self):
        C3 = catalog_group("C3")
        assert sorted(C3.extend(0, lambda v, s: (v + 1) % 3, "count").values()) == [0, 1, 2]
        # three steps return to the identity with the value 3, not 0
        with pytest.raises(UserInputError, match="count is inconsistent"):
            C3.extend(0, lambda v, s: v + 1, "count")

    def test_generators_must_reach_the_group(self):
        C4 = catalog_group("C4")
        G = FiniteGroup(C4.mul_table, generators=[2], check=False)
        with pytest.raises(UserInputError, match="do not reach"):
            G.extend(0, lambda v, s: v, "data")

    def test_generator_reads_do_not_expand(self, S3):
        M = regular_lattice(S3)
        assert all(M.act(s) is M.action[s] for s in S3.generators)
        assert M._expanded is None
        M.act(0)
        assert M._expanded is not None


class TestIsPermutationLattice:
    def test_matches_all_elements_oracle(self, S3):
        def oracle(M):
            return all(A.as_permutation() is not None for A in M.expand().values())

        rng = random.Random(31)
        C4 = catalog_group("C4")
        H2 = next(h for h in S3.subgroups() if h.order == 2)
        H3 = next(h for h in S3.subgroups() if h.order == 3)
        swap = Mat.from_rows([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        shear = Mat.from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        lattices = [
            regular_lattice(S3),
            permutation_lattice(S3, [H2, H3, S3.full_subgroup()]),
            sign_lattice(S3, H3),
            conjugated(regular_lattice(C4), swap),
            conjugated(regular_lattice(C4), shear),
            restrict(regular_lattice(S3), H2),
            restrict(sign_lattice(S3, H3), H2),
        ]
        for name in ["C2", "C4", "S3", "D8", "Q8"]:
            G = catalog_group(name)
            lattices += [random_lattice(G, 4, rng) for _ in range(6)]
        answers = []
        for M in lattices:
            answers.append(M.is_permutation_lattice())
            assert answers[-1] == oracle(M), M
        assert answers[:7] == [True, True, False, True, False, True, False]
        assert True in answers[7:] and False in answers[7:]


def dense_permutation_matrices(P):
    """Oracle: A(g) for every g as the 0/1 matrix read off the cosets of
    P's summands, with g sending the coset rep*H to (g*rep)*H."""
    G = P.group
    cosets = [H.cosets() for H in P.summands]
    out = {}
    for g in G.elements():
        m = Mat.zero(P.rank, P.rank)
        row = G.mul_table[g]
        base = 0
        for reps, coset_of in cosets:
            for j, rep in enumerate(reps):
                m.a[base + coset_of[row[rep]]][base + j] = 1
            base += len(reps)
        out[g] = m
    return out


def dense_map_check(source_mats, target_mats, B, generators):
    """Oracle: the message of the first generator s with B A(s) != A(s) B,
    from dense products, or None for an equivariant B."""
    for s in generators:
        if B.mul(source_mats[s]) != target_mats[s].mul(B):
            return f"map is not equivariant at generator {s}"
    return None


def library_map_check(source, target, B):
    try:
        LatticeMap(source, target, B)
    except UserInputError as exc:
        return str(exc)
    return None


def seeded_stabilizers(G, rng, max_rank=24):
    subs = G.subgroups()
    stabs = [rng.choice(subs)]
    while rng.random() < 0.6:
        H = rng.choice(subs)
        if sum(G.order // K.order for K in stabs) + G.order // H.order > max_rank:
            break
        stabs.append(H)
    return stabs


class TestPermutationsAgainstDenseOracle:
    """Permutation lattices store index permutations; the 0/1 matrices the
    cosets give and dense products stay the oracle."""

    def test_lazy_matrices_and_composed_expansion(self):
        rng = random.Random(210)
        for G in catalog_groups_upto(16):
            for _ in range(3):
                P = permutation_lattice(G, seeded_stabilizers(G, rng))
                assert "action" not in vars(P) and P._expanded is None
                oracle = dense_permutation_matrices(P)
                assert all(Mat.from_permutation(P.perms[s]) == oracle[s] for s in G.generators)
                assert P.action == {s: oracle[s] for s in G.generators}, G.name
                assert P._expanded is None
                walk = G.extend(Mat.identity(P.rank), lambda A, s: A.mul(oracle[s]), "action")
                assert P.expand() == walk == oracle, G.name

    def test_reindexed_checks_agree_with_dense_products(self):
        rng = random.Random(211)
        rejected = {"changed": 0, "columns": 0, "rows": 0}
        for G in catalog_groups_upto(16):
            gens = G.generators
            for _ in range(2):
                M = random_lattice(G, 4, rng)
                cov = fixed_point_cover(M)
                P, proj = cov.P, cov.projection.matrix
                Pm = dense_permutation_matrices(P)
                inc = cover_kernel(cov)
                C, K = inc.source, inc.matrix
                res = flabby_resolution(M)
                # the cover, its kernel and the resolution read only permutations
                assert "action" not in vars(P) and "action" not in vars(res.P)
                Rm = dense_permutation_matrices(res.P)
                # every map the library built passed the reindexed check
                assert dense_map_check(Pm, M.expand(), proj, gens) is None
                assert dense_map_check(C.expand(), Pm, K, gens) is None
                assert dense_map_check(M.expand(), Rm, res.injection.matrix, gens) is None
                assert dense_map_check(Rm, res.F.expand(), res.surjection.matrix, gens) is None
                # broken maps: one entry changed, two columns (rows) swapped
                for src, dst, (srcm, dstm), B in ((P, M, (Pm, M.expand()), proj),
                                                  (C, P, (C.expand(), Pm), K)):
                    if B.rows == 0 or B.cols == 0:
                        continue
                    changed = Mat.from_rows(B.a, B.cols)
                    changed.a[rng.randrange(B.rows)][rng.randrange(B.cols)] += 1
                    cols = Mat.from_rows(B.a, B.cols)
                    i, j = rng.sample(range(B.cols), 2) if B.cols > 1 else (0, 0)
                    for row in cols.a:
                        row[i], row[j] = row[j], row[i]
                    rows = Mat.from_rows(B.a, B.cols)
                    i, j = rng.sample(range(B.rows), 2) if B.rows > 1 else (0, 0)
                    rows.a[i], rows.a[j] = rows.a[j], rows.a[i]
                    for kind, broken in (("changed", changed), ("columns", cols), ("rows", rows)):
                        expected = dense_map_check(srcm, dstm, broken, gens)
                        assert library_map_check(src, dst, broken) == expected, G.name
                        rejected[kind] += expected is not None
        # a change may keep a map equivariant (a fixed column, two trivial
        # summands), but each kind of change is caught somewhere
        assert min(rejected.values()) > 10, rejected

    def test_unstable_sublattice_still_an_internal_error(self):
        for G in catalog_groups_upto(16):
            if G.order == 1:
                continue
            P = regular_lattice(G)
            e0 = Mat.from_cols([[int(i == 0) for i in range(P.rank)]], rows=P.rank)
            with pytest.raises(InternalCheckError, match="not action-stable"):
                invariant_sublattice(P, e0)
            # the coset sum spans a stable sublattice, with trivial action
            S = invariant_sublattice(P, Mat.from_cols([[1] * P.rank], rows=P.rank))
            assert all(S.act(s) == Mat.identity(1) for s in G.generators)

    @pytest.mark.parametrize("perm", [(1, 1, 0), (0, 1), (0, 1, 3), (2, 0, 1, 3)])
    def test_stored_permutation_must_be_a_bijection(self, perm):
        C3 = catalog_group("C3")
        with pytest.raises(InternalCheckError, match="does not permute the basis"):
            GLattice(C3, 3, None, perms={1: perm})

    def test_permutation_matrices_are_stored_as_permutations(self):
        C4 = catalog_group("C4")
        M = GLattice(C4, 4, {1: Mat.from_rows([[0, 0, 0, 1], [1, 0, 0, 0],
                                               [0, 1, 0, 0], [0, 0, 1, 0]])})
        assert M.perms == {1: (1, 2, 3, 0)}
        assert lattices_equal(M, regular_lattice(C4))


class TestDual:
    def test_trivial_and_sign_self_dual(self, C2):
        Z = trivial_lattice(C2)
        assert lattices_equal(dual(Z), Z)
        s = sign_lattice(C2, C2.trivial_subgroup())
        assert lattices_equal(dual(s), s)

    def test_involution(self):
        rng = random.Random(4)
        for name in ["C4", "S3", "D8"]:
            G = catalog_group(name)
            M = random_lattice(G, 4, rng)
            assert lattices_equal(dual(dual(M)), M)

    def test_dual_permutation_same_matrices(self, S3):
        # permutation matrices are orthogonal: a permutation lattice is its own dual
        H = next(h for h in S3.subgroups() if h.order == 2)
        for P in [regular_lattice(catalog_group("C3")), regular_lattice(S3),
                  permutation_lattice(S3, [H, S3.full_subgroup()]),
                  direct_sum(regular_lattice(S3), permutation_lattice(S3, [H]))]:
            assert dual(P) is P
            Q = GLattice(P.group, P.rank, P.action, check=False)  # same matrices, no summands
            assert lattices_equal(dual(Q), P)


    def test_sublattice_dual_matches_dual_of_the_sublattice(self, monkeypatch):
        # the resolution tail built from P and the cover kernel's basis K is
        # the dual of the kernel C = invariant_sublattice(P, K), built from
        # powers of A_C(s) on a copy of C: one solve per generator and no
        # Mat.mul.  The groups have generators of orders 2, 3, 4 and 8, and
        # the q = 8 Lenstra lattice and its dual are covered.  The kernels
        # of the norm-one tori have A_C(s^-1) != A_C(s) at generators of
        # orders 3, 4 and 8, so reindexing through s instead of s^-1 fails.
        import retractrat.zlinalg as zlinalg
        rng = random.Random(5)
        lattices = [lenstra_lattice(3).M, dual(lenstra_lattice(3).M)]
        lattices += [random_lattice(catalog_group(name), 4, rng)
                     for name in ("C8", "S3", "D8", "Q8", "A4", "C2xC4")]
        lattices += [dual(augmentation_kernel(G, G.trivial_subgroup()))
                     for G in map(catalog_group, ("C8", "C2xC4", "A4"))]
        orders, not_involutions = set(), set()
        calls = []
        real_mul, real_solve = Mat.mul, zlinalg.LinearSolver.solve_matrix

        def counted_mul(A, B):
            calls.append("mul")
            return real_mul(A, B)

        def counted_solve(solver, B):
            calls.append("solve")
            return real_solve(solver, B)

        for M in lattices:
            G = M.group
            orders |= {G.element_order(s) for s in G.generators}
            cov = fixed_point_cover(M)
            P, K = cov.P, kernel_basis(cov.projection.matrix)
            with monkeypatch.context() as patch:
                patch.setattr(Mat, "mul", counted_mul)
                patch.setattr(zlinalg.LinearSolver, "solve_matrix", counted_solve)
                F = sublattice_dual(P, K)
            assert calls == ["solve"] * len(G.generators), G.name
            calls.clear()
            C = invariant_sublattice(P, K)
            oracle = dual(GLattice(G, C.rank, C.action, check=False))
            assert F.action == oracle.action, G.name
            for g in G.elements():
                assert F.act(g) == C.act(G.inv(g)).transpose(), (G.name, g)
            not_involutions |= {G.element_order(s) for s in G.generators
                                if C.act(s) != C.act(G.inv(s))}
        assert {2, 3, 4, 8} <= orders
        assert {3, 4, 8} <= not_involutions


def fixed_basis_oracle(M, H):
    """Basis of M^H from the conditions (A(h) - 1) v = 0 over every member h
    of H, not only its generators."""
    rows = []
    for h in H.members:
        A = M.act(h)
        rows += [[A.a[i][j] - (i == j) for j in range(M.rank)] for i in range(M.rank)]
    return kernel_basis(Mat.from_rows(rows, M.rank))


class TestDerivedData:
    """A lattice builds its dual and its fixed bases once and keeps them."""

    def test_dual_is_kept(self):
        rng = random.Random(9)
        for G in catalog_groups_upto(16):
            M = random_lattice(G, 4, rng)
            assert dual(M) is dual(M)
            assert dual(dual(M)) is dual(dual(M))

    def test_dual_action_is_inverse_transpose(self):
        rng = random.Random(21)
        for G in catalog_groups_upto(16):
            for expanded in (False, True):
                M = random_lattice(G, 4, rng)
                if expanded:
                    M.expand()
                D = dual(M)
                # the dual of an expanded lattice starts out expanded, and
                # building the dual of an unexpanded one expands neither
                assert D._expanded is not None or not expanded
                if not expanded:
                    assert M._expanded is None, G.name
                for g in G.elements():
                    assert D.act(g) == M.act(G.inv(g)).transpose(), (G.name, g)
                walk = G.extend(Mat.identity(D.rank), lambda A, s: A.mul(D.action[s]), "dual")
                assert D.expand() == walk

    def test_fixed_basis_matches_oracle_before_and_after_the_decision(self):
        rng = random.Random(33)
        for G in catalog_groups_upto(16):
            M = random_lattice(G, 4, rng)
            lattices = (M, dual(M))
            expected = {(i, H): fixed_basis_oracle(L, H)
                        for i, L in enumerate(lattices) for H in G.subgroups()}
            stored = {}
            for (i, H), FB in expected.items():
                stored[i, H] = fixed_basis(lattices[i], H)
                assert stored[i, H] == FB, (G.name, i, H)
                assert all(lattices[i].act(h).mulvec(FB.col(j)) == FB.col(j)
                           for h in H.members for j in range(FB.cols))
            is_invertible(M)
            assert dual(M) is lattices[1]
            for (i, H), FB in expected.items():
                assert fixed_basis(lattices[i], H) is stored[i, H]
                assert stored[i, H] == FB, (G.name, i, H)

    def test_lattice_freed_without_cycle_collector(self):
        G = catalog_group("S3")
        gc.disable()
        try:
            M = random_lattice(G, 5, random.Random(3))
            D = dual(M)
            for H in G.subgroups():
                fixed_basis(M, H)
                fixed_basis(D, H)
            assert M._dual is D and M._fixed and D._fixed
            refs = [weakref.ref(M), weakref.ref(D)]
            del M, D
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


class TestDirectSumRestrict:
    def test_direct_sum_blocks(self, C2):
        s = sign_lattice(C2, C2.trivial_subgroup())
        M = direct_sum(regular_lattice(C2), s)
        assert M.rank == 3
        assert M.act(1).a == [[0, 1, 0], [1, 0, 0], [0, 0, -1]]

    def test_group_mismatch(self):
        with pytest.raises(UserInputError):
            direct_sum(trivial_lattice(catalog_group("C2")),
                       trivial_lattice(catalog_group("C3")))

    def test_restrict_to_trivial(self, S3):
        M = regular_lattice(S3)
        R = restrict(M, S3.trivial_subgroup())
        assert R.rank == 6
        assert R.group.order == 1

    def test_restrict_to_whole_group_unchanged(self, C2):
        s = sign_lattice(C2, C2.trivial_subgroup())
        R = restrict(s, C2.full_subgroup())
        assert R.group.order == 2
        assert R.act(1) == s.act(1)

    def test_restrict_regular_c4_to_c2(self):
        C4 = catalog_group("C4")
        H = C4.subgroup((0, 2))
        R = restrict(regular_lattice(C4), H)
        assert R.group.order == 2
        # decomposes as two copies of the regular C2-lattice: permutation, no fixed vec of rank 1 blocks
        assert R.is_permutation_lattice()
        from retractrat.cohomology import tate_zero
        assert tate_zero(R.group.full_subgroup(), R).is_trivial


class TestActionKernel:
    def test_regular_faithful(self, S3):
        assert action_kernel(regular_lattice(S3)).order == 1

    def test_trivial_lattice_kernel_is_group(self, C2):
        assert action_kernel(trivial_lattice(C2)).order == 2

    def test_partial_kernel(self):
        V4 = catalog_group("V4")
        # sign through the first factor only
        H = V4.subgroup((0, 1))  # one C2 inside V4
        s = sign_lattice(V4, H)
        k = action_kernel(s)
        assert k.members == H.members


class TestLenstra:
    def test_q4(self):
        data = lenstra_lattice(2)
        assert data.q == 4
        assert data.pi.order == 2
        assert data.M.rank == 3

    def test_q8(self):
        data = lenstra_lattice(3)
        assert data.q == 8
        assert data.pi.order == 4 and not data.pi.is_cyclic()
        assert data.M.rank == 7
        assert data.phi[2] == 3  # basis element e_3 maps to 3 mod 8

    def test_inclusion_equivariant(self):
        # LatticeMap validates equivariance at construction; rebuild to be sure
        for n in (2, 3, 4):
            data = lenstra_lattice(n)
            LatticeMap(data.M, data.N, data.inclusion.matrix)

    def test_bounds(self):
        from retractrat.errors import ResourceBoundError
        with pytest.raises(ResourceBoundError):
            lenstra_lattice(1)
        with pytest.raises(ResourceBoundError):
            lenstra_lattice(8)


class TestConjugationAndRandom:
    def test_conjugated_same_cohomology(self):
        # a basis change keeps every Tate group over every subgroup, while
        # the generator matrices whose rows and columns are read change
        from retractrat.cohomology import profile, tate_zero
        rng = random.Random(8)
        C4, D8 = catalog_group("C4"), catalog_group("D8")
        T = Mat.from_rows([[1, 2, 0, 1], [0, 1, 0, 3], [0, 0, 1, 0], [0, 0, 0, 1]])
        pairs = [(regular_lattice(C4), T)]
        cases = [dual(augmentation_kernel(D8, D8.trivial_subgroup())), lenstra_lattice(4).M]
        cases += [random_lattice(catalog_group(name), 6, rng)
                  for name in ("S3", "C4", "D8", "Q8", "A4", "C2xC2", "C6")]
        pairs += [(M, dense_unimodular(M.rank, rng)) for M in cases]
        for M, T in pairs:
            N = conjugated(M, T)
            assert profile(N, "all").entries == profile(M, "all").entries, M
            for H in M.group.subgroups():
                assert tate_zero(H, N) == tate_zero(H, M), (M, H.members)

    @pytest.mark.parametrize("T", [
        [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],  # det 2
        [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],  # singular
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],  # 3 x 4, has a right inverse
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],  # unimodular, but 3 x 3 on a rank-4 lattice
    ])
    def test_conjugated_rejects_non_unimodular(self, T):
        M = regular_lattice(catalog_group("C4"))
        with pytest.raises(UserInputError, match="basis change must be unimodular"):
            conjugated(M, Mat.from_rows(T))

    def test_random_lattice_rank_bound(self):
        rng = random.Random(0)
        for name in ["C2", "S3", "C12"]:
            G = catalog_group(name)
            for _ in range(10):
                M = random_lattice(G, 5, rng)
                assert 1 <= M.rank <= 5


class TestHomomorphismSweep:
    def test_all_constructors_all_pairs(self):
        # every constructed lattice satisfies A(gh) = A(g) A(h) on ALL pairs
        rng = random.Random(57)
        S3 = catalog_group("S3")
        H = next(s for s in S3.subgroups() if s.order == 3)
        lattices = [
            regular_lattice(S3),
            permutation_lattice(S3, [H, S3.full_subgroup()]),
            dual(random_lattice(S3, 3, rng)),
            direct_sum(trivial_lattice(S3), regular_lattice(S3)),
            restrict(regular_lattice(S3), H),
            lenstra_lattice(3).M,
        ]
        for M in lattices:
            G = M.group
            for g in range(G.order):
                for h in range(G.order):
                    assert M.act(G.mul(g, h)) == M.act(g).mul(M.act(h))


class TestDocuments:
    def test_round_trip_catalog_group(self):
        S3 = catalog_group("S3")
        M = regular_lattice(S3)
        doc = lattice_document(M)
        M2 = parse_lattice(doc)
        assert lattices_equal(M, M2)

    def test_round_trip_table_group(self):
        from retractrat.groups import parse_group
        G = parse_group({"table": [[0, 1], [1, 0]]})
        M = GLattice(G, 1, {1: Mat.from_rows([[-1]])})
        doc = lattice_document(M)
        M2 = parse_lattice(doc)
        assert lattices_equal(M, M2)

    # library-built groups whose generators are not the ones a table
    # document is parsed with
    @pytest.mark.parametrize("build", [
        lambda: direct_product(dihedral_group(8), dihedral_group(8)),
        lambda: direct_product(dihedral_group(8), cyclic_group(2)),
        lambda: direct_product(cyclic_group(2), cyclic_group(4)),
        lambda: direct_product(cyclic_group(6), cyclic_group(2)),
    ], ids=["D8xD8", "D8xC2", "C2xC4", "C6xC2"])
    def test_round_trip_library_built_group(self, build):
        G = build()
        assert G.generators != G.minimal_generators()
        M = regular_lattice(G)
        M2 = parse_lattice(lattice_document(M))
        assert M2.group.generators == G.minimal_generators()
        assert lattices_equal(M, M2)

    def test_round_trip_permutation_group(self):
        G = parse_group({"perm_generators": [[2, 3, 4, 1], [2, 1, 3, 4], [1, 2, 4, 3]],
                         "degree": 4})
        assert G.generators != G.minimal_generators()
        M = random_lattice(G, 4, random.Random(3))
        assert lattices_equal(M, parse_lattice(lattice_document(M)))

    def test_round_trip_catalog_name_with_other_generators(self):
        C4 = catalog_group("C4")
        G = FiniteGroup(C4.mul_table, [3], name="C4")
        M = GLattice(G, 2, {3: Mat.from_rows([[0, 1], [-1, 0]])})
        doc = lattice_document(M)
        assert doc["group"] == "C4" and list(doc["action"]) == ["1"]
        assert lattices_equal(M, parse_lattice(doc))

    def test_validation_on_load(self):
        with pytest.raises(UserInputError):
            parse_lattice({"group": "C2", "rank": 1, "action": {"1": [[2]]}})
        with pytest.raises(UserInputError):
            parse_lattice({"group": "C2", "rank": 1, "action": {}})
