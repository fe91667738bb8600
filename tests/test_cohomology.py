"""Tate cohomology values, the profile predicates, and their invariances."""

import random

import pytest

from conftest import random_permutation_lattice, sign_lattice
from retractrat.errors import InternalCheckError
from retractrat.groups import catalog_group, catalog_groups_upto
from retractrat.lattices import (
    augmentation_kernel,
    direct_sum,
    dual,
    lenstra_lattice,
    random_lattice,
    regular_lattice,
    trivial_lattice,
)
from retractrat.cohomology import h1, is_coflabby, is_flabby, profile, tate_minus1, tate_zero
from retractrat.resolutions import flabby_resolution
from retractrat.zlinalg import AbelianInvariants


C2 = catalog_group("C2")
SIGN = sign_lattice(C2, C2.trivial_subgroup())
FULL = C2.full_subgroup()
TRIV = C2.trivial_subgroup()
Z2 = AbelianInvariants((2,), 0)


class TestDegreeMinusOne:
    def test_sign(self):
        assert tate_minus1(FULL, SIGN) == Z2

    def test_regular(self):
        assert tate_minus1(FULL, regular_lattice(C2)).is_trivial

    def test_trivial_subgroup(self):
        assert tate_minus1(TRIV, SIGN).is_trivial

    def test_coinvariant_rank_checked(self, monkeypatch):
        # the free rank of M / I_H M must be rank M^H
        import retractrat.cohomology as cohomology
        monkeypatch.setattr(cohomology, "fixed_rank", lambda M, H: 1)
        with pytest.raises(InternalCheckError):
            tate_minus1(FULL, SIGN)


class TestDegreeZero:
    def test_trivial_lattice(self):
        assert tate_zero(FULL, trivial_lattice(C2)) == Z2

    def test_regular(self):
        assert tate_zero(FULL, regular_lattice(C2)).is_trivial

    def test_sign(self):
        assert tate_zero(FULL, SIGN).is_trivial

    def test_order_of_group(self):
        # trivial lattice: degree-0 Tate cohomology is Z/|H|
        for name in ["C3", "C4", "C6", "C8"]:
            G = catalog_group(name)
            got = tate_zero(G.full_subgroup(), trivial_lattice(G))
            assert got == AbelianInvariants((G.order,), 0)


class TestDegreeOne:
    def test_sign(self):
        assert h1(FULL, SIGN) == Z2

    def test_regular(self):
        assert h1(FULL, regular_lattice(C2)).is_trivial

    def test_trivial_coefficients_cyclic(self):
        C3 = catalog_group("C3")
        assert h1(C3.full_subgroup(), trivial_lattice(C3)).is_trivial

    def test_noncyclic_subgroup(self):
        # H^1(V4, Z) = Hom(V4, Z) = 0
        V4 = catalog_group("V4")
        assert h1(V4.full_subgroup(), trivial_lattice(V4)).is_trivial


class TestProfile:
    def test_regular_c4_flags(self):
        p = profile(regular_lattice(catalog_group("C4")))
        assert p.is_flabby and p.is_coflabby

    def test_sign_flags(self):
        p = profile(SIGN)
        assert not p.is_flabby and not p.is_coflabby

    def test_lenstra_q8_flags(self):
        p = profile(lenstra_lattice(3).M)
        assert p.is_coflabby and not p.is_flabby

    def test_modes_agree_on_flags(self):
        rng = random.Random(31)
        for name in ["C4", "C6", "S3", "D8", "Q8", "C12"]:
            G = catalog_group(name)
            for _ in range(3):
                M = random_lattice(G, 4, rng)
                pp = profile(M, subgroups="prime-power")
                pa = profile(M, subgroups="all")
                assert pp.is_flabby == pa.is_flabby
                assert pp.is_coflabby == pa.is_coflabby

    def test_json_shape(self):
        p = profile(SIGN)
        rows = p.to_json()
        assert rows == [{"subgroup": [0, 1], "h_minus1": [2], "h1": [2]}]


class TestInvariances:
    def test_permutation_lattices_flabby_coflabby(self):
        rng = random.Random(7)
        for G in catalog_groups_upto(8):
            for _ in range(3):
                M = random_permutation_lattice(G, rng, max_rank=10)
                p = profile(M)
                assert p.is_flabby and p.is_coflabby

    def test_cyclic_periodicity(self):
        rng = random.Random(13)
        for name in ["C4", "C6", "S3", "D8"]:
            G = catalog_group(name)
            for _ in range(5):
                M = random_lattice(G, 4, rng)
                for H in G.subgroups():
                    if H.order > 1 and H.is_cyclic():
                        assert tate_minus1(H, M) == h1(H, M)

    def test_additivity(self):
        rng = random.Random(19)
        for name in ["C4", "S3", "V4"]:
            G = catalog_group(name)
            for _ in range(5):
                A = random_lattice(G, 3, rng)
                B = random_lattice(G, 3, rng)
                S = direct_sum(A, B)
                for H in G.prime_power_subgroups():
                    for fn in (tate_minus1, tate_zero, h1):
                        da = fn(H, A).to_list()
                        db = fn(H, B).to_list()
                        ds = fn(H, S).to_list()
                        merged = AbelianInvariants(
                            tuple(_chain(da + db)), 0).to_list()
                        assert ds == merged

    def test_duality_swaps_flabby_coflabby(self):
        rng = random.Random(41)
        for name in ["C4", "S3", "Q8"]:
            G = catalog_group(name)
            for _ in range(3):
                M = random_lattice(G, 3, rng)
                assert is_flabby(M) == is_coflabby(dual(M))
                assert is_coflabby(M) == is_flabby(dual(M))


def naive_h1(H, M):
    """Independent H^1: the full cocycle system on ALL pairs, one unknown
    vector d(h) per subgroup element."""
    from retractrat.zlinalg import Mat, kernel_basis, quotient_invariants

    G = H.parent
    members = list(H.members)
    pos = {h: i for i, h in enumerate(members)}
    m = M.rank
    n = len(members) * m
    rows = []
    for g in members:
        Ag = M.act(g)
        for h in members:
            gh = G.mul(g, h)
            # d(gh) - d(g) - A(g) d(h) = 0
            for i in range(m):
                row = [0] * n
                row[pos[gh] * m + i] += 1
                row[pos[g] * m + i] -= 1
                for j in range(m):
                    row[pos[h] * m + j] -= Ag.a[i][j]
                if any(row):
                    rows.append(row)
    Z = kernel_basis(Mat.from_rows(rows, n)) if rows else Mat.identity(n)
    if Z.cols == 0:
        from retractrat.zlinalg import TRIVIAL_GROUP_INVARIANTS
        return TRIVIAL_GROUP_INVARIANTS
    cob = []
    for j in range(m):
        col = []
        for h in members:
            A = M.act(h)
            col.extend(A.a[i][j] - (1 if i == j else 0) for i in range(m))
        cob.append(col)
    return quotient_invariants(Z, Mat.from_cols(cob, rows=n))


def naive_tate_minus1(H, M):
    """Independent Tate H^-1: Ker(N_H) / I_H M with I_H M spanned by
    (A(h) - 1) e_j over ALL members h, not only the generators."""
    from retractrat.zlinalg import (
        TRIVIAL_GROUP_INVARIANTS, Mat, kernel_basis, quotient_invariants)

    m = M.rank
    norm = [[sum(M.act(h).a[i][j] for h in H.members) for j in range(m)]
            for i in range(m)]
    K = kernel_basis(Mat.from_rows(norm, m))
    if K.cols == 0:
        return TRIVIAL_GROUP_INVARIANTS
    cols = []
    for h in H.members:
        A = M.act(h)
        for j in range(m):
            cols.append([A.a[i][j] - (1 if i == j else 0) for i in range(m)])
    return quotient_invariants(K, Mat.from_cols(cols, rows=m))


def torus_cases():
    """(label, H, M) for the norm-one torus lattice J_{G/S} and its dual, for
    every catalog group G of order <= 8, every subgroup S and every
    nontrivial subgroup H."""
    for G in catalog_groups_upto(8):
        subs = G.subgroups()
        for S in subs:
            if S.order == G.order:
                continue
            J = dual(augmentation_kernel(G, S))
            for label, M in ((f"J_{G.name}/{S.members}", J),
                             (f"J*_{G.name}/{S.members}", dual(J))):
                for H in subs:
                    if H.order > 1:
                        yield label, H, M


class TestH1AgainstNaiveSystem:
    def test_cross_validation(self):
        # H^1 computed through the dual lattice must agree with the all-pairs
        # cocycle system everywhere
        rng = random.Random(137)
        for name in ["C2", "C4", "V4", "S3", "D8", "Q8", "C6"]:
            G = catalog_group(name)
            for _ in range(4):
                M = random_lattice(G, 3, rng)
                for H in G.subgroups():
                    if H.order == 1:
                        continue
                    assert h1(H, M) == naive_h1(H, M), f"{name}, H={H.members}"

    def test_tori_and_duals(self):
        # where H is not cyclic, H^1 and H^-1 are unrelated by periodicity,
        # so these cases test the duality itself
        noncyclic_nontrivial = 0
        for label, H, M in torus_cases():
            got = h1(H, M)
            assert got == naive_h1(H, M), f"{label}, H={H.members}"
            if not H.is_cyclic() and not got.is_trivial:
                noncyclic_nontrivial += 1
        assert noncyclic_nontrivial > 0


def tail_cases():
    """(label, M) for the flabby resolution tails F of the norm-one tori
    J_{G/S} of every catalog group G of order <= 8 and every class
    representative S != G, and their duals, up to rank 40: the one tail
    left out, that of J_{C2xC2xC2/1}, has rank 87 and takes seconds."""
    for G in catalog_groups_upto(8):
        for S in G.subgroup_conjugacy_representatives():
            if S.order == G.order:
                continue
            F = flabby_resolution(dual(augmentation_kernel(G, S))).F
            if F.rank <= 40:
                yield f"F_{G.name}/{S.members}", F
                yield f"F*_{G.name}/{S.members}", dual(F)


class TestTateMinus1AgainstAllMembers:
    """tate_minus1 reads the torsion of the coinvariants M / I_H M; the
    oracle forms Ker(N_H) and the span of (A(h) - 1) e_j over every member
    h of H."""

    @staticmethod
    def check(label, M):
        nontrivial = 0
        for H in M.group.subgroups():
            if H.order > 1:
                got = tate_minus1(H, M)
                assert got == naive_tate_minus1(H, M), f"{label}, H={H.members}"
                nontrivial += not got.is_trivial
        return nontrivial

    def test_tori_and_duals(self):
        for label, H, M in torus_cases():
            assert tate_minus1(H, M) == naive_tate_minus1(H, M), f"{label}, H={H.members}"

    def test_resolution_tails_and_duals(self):
        assert sum(self.check(label, F) for label, F in tail_cases()) > 0

    def test_lenstra_lattices_and_duals(self):
        for n in (3, 4):
            M = lenstra_lattice(n).M
            assert self.check(f"Lenstra q={2 ** n}", M) > 0
            self.check(f"dual Lenstra q={2 ** n}", dual(M))

    def test_direct_sum_mixes_primes_and_valuations(self):
        # H^-1(C12, J_{C12/K}) = ker(Z/12 -> Z/|K|) = Z/[C12:K], so the sum
        # with K of index 2 has 2-parts 4, 2 and 3-part 3: Z/2 + Z/12, and
        # the p-parts must be joined largest with largest
        G = catalog_group("C12")
        K = next(S for S in G.subgroups() if S.order == 6)
        M = direct_sum(dual(augmentation_kernel(G, G.trivial_subgroup())),
                       dual(augmentation_kernel(G, K)))
        assert tate_minus1(G.full_subgroup(), M) == AbelianInvariants((2, 12))
        assert self.check("J_C12/1 + J_C12/C6", M) > 0

    def test_random_lattices_of_every_catalog_group(self):
        rng = random.Random(23)
        groups = catalog_groups_upto(16)
        assert len(groups) == 29
        nontrivial = 0
        for G in groups:
            for trial in range(2):
                nontrivial += self.check(f"{G.name} #{trial}", random_lattice(G, 6, rng))
        assert nontrivial > 0


class TestRegularNormOneTori:
    """Closed forms on J_G, the dual of the augmentation kernel of Z[G]:
    Z[G] is H-free, so 0 -> Z -> Z[G] -> J_G -> 0 gives
    H^-1(H, J_G) = H^0(H, Z) = Z/|H| and H^1(H, J_G) = H^2(H, Z) =
    Hom(H, Q/Z), which has the invariants of H^ab."""

    @staticmethod
    def abelianization(H):
        K = H.as_group()
        commutators = {K.mul(K.mul(a, b), K.mul(K.inv(a), K.inv(b)))
                       for a in K.elements() for b in K.elements()}
        quotient, _ = K.quotient(K.subgroup(K.closure(commutators)))
        return AbelianInvariants(_chain(quotient.abelian_decomposition()))

    def test_every_subgroup_of_every_catalog_group(self):
        pairs = 0
        for G in catalog_groups_upto(16):
            J = dual(augmentation_kernel(G, G.trivial_subgroup()))
            for H in G.subgroups():
                if H.order > 1:
                    assert tate_minus1(H, J) == AbelianInvariants((H.order,)), (G.name, H.members)
                    assert h1(H, J) == self.abelianization(H), (G.name, H.members)
                    pairs += 1
        assert pairs == 128


def _chain(divs):
    """Normalize a multiset of divisors into an ascending divisibility chain."""
    from math import gcd
    vals = [d for d in divs if d > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                a, b = vals[i], vals[j]
                g = gcd(a, b)
                l = a * b // g
                if (g, l) != (a, b) and (g, l) != (b, a):
                    vals[i], vals[j] = g, l
                    changed = True
        vals = [v for v in vals if v > 1]
    return tuple(sorted(vals))
