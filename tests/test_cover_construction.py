"""The cover construction against the plain loop it replaced, kept in
conftest as an oracle (oracle_cover_columns), and its fullness test on its
own.

fixed_point_cover forms a basis of M^H and tests its generators only for the
classes whose image still falls short of M^H, stops once the image is full,
forms the trivial subgroup's image on the coordinates that no column +-e_j
covers and reads coset images off the columns of A(rep).  Every decision is
the plain loop's, so the summands and the projection must be the same."""

import pytest

from conftest import cross_check_lattices, oracle_cover_columns
from retractrat import resolutions
from retractrat.errors import InternalCheckError
from retractrat.groups import catalog_group
from retractrat.lattices import (
    GLattice,
    fixed_rank,
    lenstra_lattice,
    permutation_lattice,
    trivial_lattice,
)
from retractrat.resolutions import (
    _unit_free_image,
    check_cover_surjective,
    fixed_point_cover,
    flabby_resolution,
)
from retractrat.zlinalg import LatticeAccumulator, Mat


@pytest.fixture(scope="module")
def cases():
    """J_{G/H} and random lattices over the catalog groups of order <= 16,
    their duals and the resolution tails of all of these, and the Lenstra
    M and its tail at q = 8 and 16."""
    out = cross_check_lattices()
    out += [(f"tail of {label}", flabby_resolution(M).F) for label, M in out]
    for n in (3, 4):
        M = lenstra_lattice(n).M
        out += [(f"Lenstra M, q={2 ** n}", M),
                (f"Lenstra tail, q={2 ** n}", flabby_resolution(M).F)]
    return out


@pytest.fixture
def fixed_basis_calls(monkeypatch):
    """The subgroups (members) fixed_point_cover asks fixed_basis for."""
    calls = []
    original = resolutions.fixed_basis

    def spy(M, H):
        calls.append(H.members)
        return original(M, H)

    monkeypatch.setattr(resolutions, "fixed_basis", spy)
    return calls


def assert_same_cover(M, cov, label):
    summands, columns = oracle_cover_columns(M)
    assert cov.P.summands == summands, label
    assert cov.projection.matrix == Mat.from_cols(columns, rows=M.rank), label


class TestAgainstThePlainLoop:
    def test_same_summands_and_projection(self, cases, fixed_basis_calls):
        visits = 0  # classes with rank M^H > 0, each of which the plain loop gives a basis
        for label, M in cases:
            cov = fixed_point_cover(M)
            assert_same_cover(M, cov, label)
            visits += sum(1 for H in M.group.subgroup_conjugacy_representatives()
                          if fixed_rank(M, H))
        assert len(fixed_basis_calls) < visits / 2

    def test_textbook_cover_is_larger(self, cases):
        # the oracle's two modes differ, so the cross-check compares the
        # frugal decisions and not a degenerate cover
        grew = sum(len(oracle_cover_columns(M, frugal=False)[1]) > fixed_point_cover(M).P.rank
                   for _, M in cases[:40])
        assert grew > 20


class TestFullness:
    def test_unit_pivots_of_the_rank_are_full(self):
        acc = LatticeAccumulator(3)
        acc.add([1, 0, 3], [2, 1, 4])
        assert acc.is_full(2)
        assert not acc.is_full(3) and not acc.is_full(1)
        assert acc.contains([3, 1, 7]) and not acc.contains([0, 0, 1])

    def test_saturated_span_with_a_larger_pivot_is_not_full(self):
        # the span of (2, 1) is saturated in Z^2, but its Hermite pivot is 2
        acc = LatticeAccumulator(2)
        acc.add([2, 1])
        assert not acc.is_full(1)
        assert acc.contains([-2, -1]) and not acc.contains([1, 0])

    def test_larger_pivot_falls_back_to_membership_tests(self, fixed_basis_calls):
        # V4 = <a, b>, both acting by B, which fixes exactly the span of
        # (2, 1).  The summand for V4 sends its one coset to (2, 1), so at
        # <a> and <b> the image is all of M^H but not reported full: those
        # classes form their basis, test (2, 1) and adjoin nothing.  ab acts
        # trivially, and once <ab> adjoins e_1 the image is Z^2 with unit
        # pivots, so the rest of its basis and the trivial subgroup are skipped.
        G = catalog_group("V4")
        a, b = G.generators
        B = Mat.from_rows([[-1, 4], [0, 1]])
        M = GLattice(G, 2, {a: B, b: B})
        ab = G.subgroup([0, G.mul(a, b)])
        cov = fixed_point_cover(M)
        assert_same_cover(M, cov, "V4 on Z^2")
        assert [H.members for H in cov.P.summands] == [G.full_subgroup().members, ab.members]
        assert cov.projection.matrix.columns() == [[2, 1], [1, 0], [-1, 0]]
        assert sorted(fixed_basis_calls) == sorted(H.members for H in G.subgroups() if H.order > 1)

    def test_permutation_lattice_forms_no_fixed_basis(self, fixed_basis_calls):
        # the seeds map onto the lattice, and every fixed part has a basis
        # of disjoint 0/1 orbit sums: unit pivots, so every class is skipped
        G = catalog_group("D8")
        K = [H for H in G.subgroups() if H.order == 2]
        M = permutation_lattice(G, [K[0], K[-1], G.trivial_subgroup()])
        cov = fixed_point_cover(M)
        assert_same_cover(M, cov, "Z[D8/K] + Z[D8/K'] + Z[D8]")
        assert fixed_basis_calls == []
        assert cov.P.rank == M.rank


class TestUnitFreeImage:
    def test_span_on_the_coordinates_no_unit_column_covers(self):
        rest, image = _unit_free_image(4, [[0, -1, 0, 0], [3, 5, 2, 0], [1, 7, 4, 2]])
        assert rest == [0, 2, 3]
        assert image.contains([3, 2, 0]) and image.contains([4, 6, 2])
        assert not image.contains([1, 0, 0])
        assert not image.is_full(len(rest))

    def test_units_and_one_column_span(self):
        # e_0 and (3, 1): the rest is coordinate 1, where the column reads 1
        rest, image = _unit_free_image(2, [[1, 0], [3, 1]])
        assert rest == [1] and image.is_full(1)
        M = trivial_lattice(catalog_group("C1"), 2)
        check_cover_surjective(M, [M.group.full_subgroup()] * 2, [[1, 0], [3, 1]])

    @pytest.mark.parametrize("columns", [[[1, 0]], [[1, 0], [0, 2]], [[1, 0], [-1, 0]]])
    def test_uncovered_coordinate_raises(self, columns):
        C2 = catalog_group("C2")
        M = trivial_lattice(C2, 2)
        rest, image = _unit_free_image(2, columns)
        assert rest == [1] and not image.is_full(1)
        with pytest.raises(InternalCheckError, match="does not map onto"):
            check_cover_surjective(M, [C2.full_subgroup()] * len(columns), columns)
