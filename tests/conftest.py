"""Shared helpers for the test suite: seeded samplers and small builders."""

import random

import pytest

from retractrat.groups import FiniteGroup, catalog_group, parse_group
from retractrat.lattices import GLattice, permutation_lattice
from retractrat.zlinalg import Mat


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


@pytest.fixture
def C2():
    return catalog_group("C2")


@pytest.fixture
def S3():
    return catalog_group("S3")
