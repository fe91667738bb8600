"""Shared helpers for the test suite: seeded samplers and small builders."""

import random
from typing import Optional, Sequence

import pytest

from retractrat.groups import FiniteGroup, catalog_group, catalog_groups_upto, parse_group
from retractrat.lattices import (
    GLattice,
    augmentation_kernel,
    dual,
    fixed_basis,
    internal_map,
    permutation_lattice,
    random_lattice,
)
from retractrat.resolutions import FixedPointCover, _permutation_orbit_seeds, check_cover_surjective
from retractrat.zlinalg import LatticeAccumulator, Mat, pack_lanes, solve_packed


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


@pytest.fixture
def C2():
    return catalog_group("C2")


@pytest.fixture
def S3():
    return catalog_group("S3")
