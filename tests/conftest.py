"""Shared helpers for the test suite: seeded samplers and small builders."""

import random
from typing import Optional, Sequence

import pytest

from retractrat.groups import FiniteGroup, catalog_group, catalog_groups_upto, parse_group
from retractrat.lattices import (
    GLattice,
    LatticeMap,
    augmentation_kernel,
    dual,
    fixed_basis,
    internal_map,
    invariant_sublattice,
    permutation_lattice,
    random_lattice,
)
from retractrat.resolutions import FixedPointCover, _permutation_orbit_seeds, check_cover_surjective
from retractrat.zlinalg import (
    TRIVIAL_GROUP_INVARIANTS,
    AbelianInvariants,
    LatticeAccumulator,
    LinearSolver,
    Mat,
    kernel_basis,
    pack_lanes,
    smith_diagonal,
    solve_packed,
)


def det(A: Mat) -> int:
    """Determinant by fraction-free (Bareiss) elimination: an oracle for the
    unimodularity of transforms, independent of row_hermite."""
    n = A.rows
    assert A.cols == n, "determinant of a non-square matrix"
    if n == 0:
        return 1
    a = [row[:] for row in A.a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def refute_mod(A: Mat, b: Sequence[int], N: int) -> Optional[list[int]]:
    """None if A*x = b (mod N) is solvable; otherwise a row vector lam with
    lam*A = 0 and lam*b != 0 (mod N), entries in [0, N).  Packs each row
    with its right-hand side and calls solve_packed."""
    if len(b) != A.rows:
        raise ValueError("dimension mismatch")
    if N < 1:
        raise ValueError("modulus must be positive")
    return solve_packed([pack_lanes(row + [bi], N) for row, bi in zip(A.a, b)], A.cols, N)[1]


def cokernel_invariants(A: Mat, ambient_rank: int) -> AbelianInvariants:
    """Invariants of Z^ambient_rank / columnspan(A) from the Smith diagonal
    of A, unit divisors dropped: an oracle for the packed p-adic rounds."""
    if A.rows != ambient_rank:
        raise ValueError(f"matrix has {A.rows} rows, ambient rank is {ambient_rank}")
    nonzero = [d for d in smith_diagonal(A) if d]
    return AbelianInvariants(tuple(d for d in nonzero if d > 1), ambient_rank - len(nonzero))


def quotient_invariants(basis: Mat, subgens: Mat) -> AbelianInvariants:
    """Invariants of L / L' where the columns of basis span L and those of
    subgens a sublattice L' of L, by the Smith form of the coordinates of
    subgens in basis, which must be integral (this is asserted, not
    assumed)."""
    if basis.cols == 0:
        if not subgens.is_zero():
            raise ValueError("sublattice not contained in the zero lattice")
        return TRIVIAL_GROUP_INVARIANTS
    coords = LinearSolver(basis).solve_matrix(subgens)
    if coords is None:
        raise ValueError("generators do not lie in the span of the basis")
    return cokernel_invariants(coords, basis.cols)


def smith_tate_zero(H, M: GLattice) -> AbelianInvariants:
    """Tate cohomology in degree 0, M^H / N_H M, by the Smith form of the
    norm's coordinates in the Hermite basis of M^H: an oracle for
    tate_zero, which reads the torsion of M / N_H M without a basis of M^H."""
    members = [M.act(h).a for h in H.members]
    norm = [[sum(A[i][j] for A in members) for j in range(M.rank)] for i in range(M.rank)]
    return quotient_invariants(fixed_basis(M, H), Mat(M.rank, M.rank, norm))


def dense_unimodular(n: int, rng: random.Random) -> Mat:
    """L U for seeded unit-triangular L (lower) and U (upper) with entries
    in {-1, 0, 1}: a dense n x n matrix of determinant 1."""
    lower, upper = Mat.identity(n), Mat.identity(n)
    for i in range(n):
        for j in range(i):
            lower.a[i][j] = rng.choice((-1, 0, 1))
            upper.a[j][i] = rng.choice((-1, 0, 1))
    return lower.mul(upper)


def random_permutation_lattice(G, rng: random.Random, max_rank: int = 14) -> GLattice:
    """Random direct sum of coset lattices Z[G/H] with total rank capped."""
    subs = G.subgroups()
    stabs = []
    total = 0
    while True:
        H = rng.choice(subs)
        idx = G.order // H.order
        if total + idx > max_rank:
            break
        stabs.append(H)
        total += idx
        if total >= max_rank - 1 or rng.random() < 0.3:
            break
    if not stabs:
        stabs = [G.full_subgroup()]
    return permutation_lattice(G, stabs)


def sign_lattice(G, index2_subgroup) -> GLattice:
    """Rank-1 lattice where elements outside the given index-2 subgroup act by -1."""
    mem = set(index2_subgroup.members)
    mats = {s: Mat.from_rows([[1 if s in mem else -1]]) for s in G.generators}
    return GLattice(G, 1, mats)


def metacyclic_group(m: int, n: int, r: int, name=None) -> FiniteGroup:
    """C_m x| C_n with the generator of C_n acting by x -> x^r; needs r^n = 1 mod m."""
    assert pow(r, n, m) == 1 % m
    order = m * n

    def enc(a, b):
        return a * n + b

    table = []
    for a1 in range(m):
        for b1 in range(n):
            row = []
            for a2 in range(m):
                for b2 in range(n):
                    row.append(enc((a1 + pow(r, b1, m) * a2) % m, (b1 + b2) % n))
            table.append(row)
    return parse_group({"table": table, "name": name or f"C{m}:C{n}"})


def cross_check_lattices():
    """(label, lattice): the norm-one tori J_{G/H} of every catalog group of
    order <= 16 (one H per conjugacy class) and two seeded random lattices
    per group, then the duals of all of them."""
    rng = random.Random(2024)
    out = []
    for G in catalog_groups_upto(16):
        for H in G.subgroup_conjugacy_representatives():
            if H.order < G.order:
                out.append((f"J_{G.name}/{H.members}", dual(augmentation_kernel(G, H))))
        for t in range(2):
            out.append((f"random {G.name} #{t}", random_lattice(G, 5, rng)))
    return out + [(f"dual of {label}", dual(M)) for label, M in out]


def oracle_cover_columns(M: GLattice, frugal: bool = True):
    """(summands, columns) of a cover of M, built by the plain construction
    loop: for every class, largest first, the whole fixed basis of M^H is
    formed and each generator is tested against the image of the partial
    cover's H-fixed part, a Hermite form over all coordinates, with every
    coset image a dense A(rep) f.  With frugal=False nothing is seeded or
    tested and every generator gets a summand: the textbook cover."""
    G, m = M.group, M.rank
    summands, columns = [], []

    def adjoin(H, f):
        block = [M.act(rep).mulvec(f) for rep in H.cosets()[0]]
        summands.append(H)
        columns.extend(block)
        return block

    def orbit_sums(S, H, block):
        return [[sum(xs) for xs in zip(*(block[i] for i in orbit))] for orbit in H.coset_orbits(S)]

    if frugal:
        for stab, j in _permutation_orbit_seeds(M):
            adjoin(stab, [int(i == j) for i in range(m)])
    for H in sorted(G.subgroup_conjugacy_representatives(), key=lambda s: (-s.order, s.members)):
        FB = fixed_basis(M, H)
        if not FB.cols:
            continue
        image = LatticeAccumulator(m)
        if frugal:
            start, sums = 0, []
            for K in summands:
                n = len(K.cosets()[0])
                sums += orbit_sums(H, K, columns[start:start + n])
                start += n
            image.add(*sums)
        for j in range(FB.cols):
            f = FB.col(j)
            if not frugal or not image.contains(f):
                block = adjoin(H, f)
                if frugal:
                    image.add(*orbit_sums(H, H, block))
    return summands, columns


def textbook_cover(M: GLattice) -> FixedPointCover:
    """The textbook cover (oracle_cover_columns with frugal=False), checked
    like fixed_point_cover's; it stands in for fixed_point_cover when a test
    asks that nothing downstream depends on the choice of cover."""
    summands, columns = oracle_cover_columns(M, frugal=False)
    P = permutation_lattice(M.group, summands)
    projection = internal_map(P, M, Mat.from_cols(columns, rows=M.rank))
    check_cover_surjective(M, summands, columns)
    return FixedPointCover(M, P, projection)


def cover_kernel(cov: FixedPointCover) -> LatticeMap:
    """The inclusion C -> P of the kernel C of the cover projection, with C's
    action solved from P's; flabby_resolution builds only C*, from the same
    kernel basis."""
    K = kernel_basis(cov.projection.matrix)
    return internal_map(invariant_sublattice(cov.P, K), cov.P, K)


@pytest.fixture
def C2():
    return catalog_group("C2")


@pytest.fixture
def S3():
    return catalog_group("S3")
