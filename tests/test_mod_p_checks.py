"""The checks decided by ranks over F_p, against the integral checks they
replaced, kept here as oracles: the cover postcondition
(check_cover_surjective against fixed_basis and LatticeAccumulator) and
is_flabby (against the tate_minus1 sweep).  Real covers and flabby tails
never fail either check, so covers are also broken on purpose.

Both checks, profile and class_fingerprint work once per conjugacy class
of subgroups; the oracles here sweep every subgroup, over groups whose
classes have several members."""

import pytest

from conftest import cross_check_lattices, sign_lattice, textbook_cover
from retractrat.cohomology import h1, is_flabby, profile, tate_minus1
from retractrat.errors import InternalCheckError
from retractrat.groups import catalog_group
from retractrat.lattices import (
    augmentation_kernel,
    direct_sum,
    dual,
    fixed_basis,
    fixed_rank,
    lenstra_lattice,
    permutation_lattice,
    trivial_lattice,
)
from retractrat.resolutions import (
    _permutation_orbit_seeds,
    check_cover_surjective,
    class_fingerprint,
    decide_flabby_class,
    fixed_point_cover,
    flabby_resolution,
)
from retractrat.zlinalg import LatticeAccumulator, Mat, hermite_basis


def integral_postcondition(M, summands, columns) -> bool:
    """For every subgroup S, the image of a basis of P^S contains a basis of
    M^S, both from fixed_basis, tested in a LatticeAccumulator."""
    P = permutation_lattice(M.group, summands)
    proj = Mat.from_cols(columns, rows=M.rank)
    for S in M.group.subgroups():
        FB = fixed_basis(M, S)
        if FB.cols:
            PF = fixed_basis(P, S)
            image = LatticeAccumulator(M.rank)
            image.add(*(proj.mulvec(PF.col(j)) for j in range(PF.cols)))
            if not all(image.contains(FB.col(j)) for j in range(FB.cols)):
                return False
    return True


def integral_flabby(M) -> bool:
    return all(tate_minus1(H, M).is_trivial for H in M.group.prime_power_subgroups())


def accepts(M, summands, columns) -> bool:
    try:
        check_cover_surjective(M, summands, columns)
    except InternalCheckError:
        return False
    return True


def spans(M, columns) -> bool:
    return hermite_basis(columns, M.rank) == Mat.identity(M.rank)


@pytest.fixture(scope="module")
def lattices():
    return cross_check_lattices()


@pytest.fixture(scope="module")
def lenstra_tails():
    return {n: flabby_resolution(lenstra_lattice(n).M).F for n in (3, 4)}


class TestFixedRank:
    def test_trace_average_is_the_rank_of_the_fixed_part(self, lattices):
        for label, M in lattices:
            for H in M.group.subgroups():
                assert fixed_rank(M, H) == fixed_basis(M, H).cols, (label, H.members)

    def test_non_integer_average_is_an_internal_error(self):
        # A(1) = 0 is no action: its "trace average" over C2 is 1/2
        C2 = catalog_group("C2")
        M = trivial_lattice(C2)
        M._expanded = {0: Mat.identity(1), 1: Mat.zero(1, 1)}
        M.action = {1: Mat.zero(1, 1)}
        with pytest.raises(InternalCheckError):
            fixed_rank(M, C2.full_subgroup())

    def test_non_integer_average_over_each_conjugate(self):
        # A(g) = 0 on the reflections of S3: average 1/2 over every subgroup
        # of order 2, which form one class of three
        S3 = catalog_group("S3")
        M = trivial_lattice(S3)
        M._expanded = {g: Mat.from_rows([[int(S3.element_order(g) != 2)]])
                       for g in S3.elements()}
        M.action = {s: M._expanded[s] for s in S3.generators}
        order2 = [H for H in S3.subgroups() if H.order == 2]
        assert len(order2) == 3
        for H in order2:
            with pytest.raises(InternalCheckError, match="not a rank"):
                fixed_rank(M, H)


class TestIsFlabbyAgainstTateSweep:
    def test_catalog_tori_and_random_lattices(self, lattices):
        verdicts = set()
        odd_order_not_flabby = 0
        for label, M in lattices:
            got = is_flabby(M)
            assert got == integral_flabby(M), label
            verdicts.add(got)
            if not got and M.group.order % 2:
                odd_order_not_flabby += 1
        assert verdicts == {True, False}
        assert odd_order_not_flabby > 0

    def test_resolution_tails(self, lattices, lenstra_tails):
        # flabby_resolution derives that its tail is flabby from the cover's
        # checks instead of re-deciding it, so this sweep is the oracle; an
        # H^1 obstruction, read off the rows of F's matrices, is checked
        # against H^-1 of the dual tail
        obstructed = 0
        for label, M in lattices:
            res = flabby_resolution(M)
            assert is_flabby(res.F) and integral_flabby(res.F), label
            dec = decide_flabby_class(M)
            if dec.obstruction is not None:
                H, invariants = dec.obstruction
                assert invariants == tate_minus1(H, dual(res.F)), label
                obstructed += 1
        assert obstructed > 0
        for F in lenstra_tails.values():
            assert is_flabby(F) and integral_flabby(F)

    def test_lattices_that_are_not_flabby(self):
        inputs = [sign_lattice(catalog_group("C2"), catalog_group("C2").trivial_subgroup()),
                  lenstra_lattice(3).M, lenstra_lattice(4).M]
        for name in ["V4", "D8", "Q8", "S3", "A4", "C2xC4", "C2xC2xC2"]:
            G = catalog_group(name)
            assert not G.is_cyclic()
            inputs.append(augmentation_kernel(G, G.trivial_subgroup()))  # I_G
        for M in inputs:
            assert not is_flabby(M) and not integral_flabby(M), M


class TestCoverPostconditionAgainstIntegralImages:
    def test_covers_of_catalog_lattices(self, lattices):
        # the textbook covers of groups of order 16 reach rank 450, where the
        # oracle takes seconds per cover
        for label, M in lattices:
            for build in (fixed_point_cover, textbook_cover)[:1 + (M.group.order <= 8)]:
                cov = build(M)  # runs the check
                summands, columns = cov.P.summands, cov.projection.matrix.columns()
                assert integral_postcondition(M, summands, columns), label

    def test_covers_of_lenstra_tails(self, lenstra_tails):
        for F in lenstra_tails.values():
            cov = fixed_point_cover(F)
            assert integral_postcondition(F, cov.P.summands, cov.projection.matrix.columns())


def summand_blocks(cov):
    """(summand index, stabilizer, first column, column count) per summand."""
    out, start = [], 0
    for k, H in enumerate(cov.P.summands):
        n = cov.M.group.order // H.order
        out.append((k, H, start, n))
        start += n
    return out


def dropped(cov, k):
    """The cover without summand k."""
    columns = cov.projection.matrix.columns()
    _, _, start, n = summand_blocks(cov)[k]
    return cov.P.summands[:k] + cov.P.summands[k + 1:], columns[:start] + columns[start + n:]


def demoted(cov, k):
    """Summand k, Z[G/H] with identity coset sent to f, replaced by Z[G]
    sending g to g f.  The images span at least as much of M as before, but
    the H-fixed vector f is now reached only as |H| f from P^H."""
    G, M = cov.M.group, cov.M
    columns = cov.projection.matrix.columns()
    _, H, start, n = summand_blocks(cov)[k]
    f = columns[start + H.cosets()[1][0]]
    regular = [M.act(g).mulvec(f) for g in range(G.order)]
    summands = cov.P.summands[:k] + [G.trivial_subgroup()] + cov.P.summands[k + 1:]
    return summands, columns[:start] + regular + columns[start + n:]


class TestBrokenCovers:
    @pytest.fixture(scope="class")
    def covers(self, lenstra_tails):
        D8, C12 = catalog_group("D8"), catalog_group("C12")
        # a non-normal subgroup of order 2 and the permutation lattice on
        # its cosets, which the frugal cover seeds with one orbit summand
        H = next(H for H in D8.subgroups() if H.order == 2 and not H.is_normal)
        seeded_torus = direct_sum(dual(augmentation_kernel(D8, H)), permutation_lattice(D8, [H]))
        C3 = next(K for K in C12.subgroups() if K.order == 3)
        return {
            "q=8 tail": fixed_point_cover(lenstra_tails[3]),
            "D8 torus plus Z[D8/H]": fixed_point_cover(seeded_torus),
            "C12 torus": fixed_point_cover(dual(augmentation_kernel(C12, C3))),
        }

    def test_every_drop_and_demotion_agrees_with_the_oracle(self, covers):
        rejected = {"drop seed": 0, "drop other": 0, "mod 2": 0, "mod 3": 0}
        for label, cov in covers.items():
            M = cov.M
            seeds = len(_permutation_orbit_seeds(M))
            for k, H, _, _ in summand_blocks(cov):
                summands, columns = dropped(cov, k)
                ok = accepts(M, summands, columns)
                assert ok == integral_postcondition(M, summands, columns), (label, "drop", k)
                if not ok:
                    rejected["drop seed" if k < seeds else "drop other"] += 1
                if H.order == 1:
                    continue
                summands, columns = demoted(cov, k)
                ok = accepts(M, summands, columns)
                assert ok == integral_postcondition(M, summands, columns), (label, "demote", k)
                if not ok:
                    # the columns still span M: only a fixed part is missed
                    assert spans(M, columns)
                    with pytest.raises(InternalCheckError, match=r"mod (\d)") as exc:
                        check_cover_surjective(M, summands, columns)
                    rejected["mod " + exc.value.args[0][-1]] += 1
        assert all(rejected.values()), rejected

    def test_q8_tail_without_a_seeded_summand(self, covers):
        cov = covers["q=8 tail"]
        M = cov.M
        seeds = len(_permutation_orbit_seeds(M))
        assert seeds > 0
        for k in (2, len(cov.P.summands) - 1):  # a seed and the last summand
            summands, columns = dropped(cov, k)
            with pytest.raises(InternalCheckError):
                check_cover_surjective(M, summands, columns)
            assert not integral_postcondition(M, summands, columns)
        summands, columns = demoted(cov, 2)
        assert spans(M, columns)
        with pytest.raises(InternalCheckError, match="mod 2"):
            check_cover_surjective(M, summands, columns)
        assert not integral_postcondition(M, summands, columns)

    def test_non_cyclic_torus_without_a_summand(self, covers):
        cov = covers["D8 torus plus Z[D8/H]"]
        M = cov.M
        seeds = len(_permutation_orbit_seeds(M))
        assert seeds > 0
        for k in (0, len(cov.P.summands) - 1):  # the seeded orbit summand and the last
            summands, columns = dropped(cov, k)
            with pytest.raises(InternalCheckError):
                check_cover_surjective(M, summands, columns)
            assert not integral_postcondition(M, summands, columns)


def several_member_class_lattices():
    """(label, lattice): the norm-one tori J_{G/H} of S3, D8, A4 and D16
    (one proper H per conjugacy class), their duals, and the flabby
    resolution tails of all of these."""
    out = []
    for name in ("S3", "D8", "A4", "D16"):
        G = catalog_group(name)
        assert any(len(c) > 1 for c in G.subgroup_conjugacy_classes())
        for H in G.subgroup_conjugacy_representatives():
            if H.order < G.order:
                J = dual(augmentation_kernel(G, H))
                out += [(f"J_{name}/{H.members}", J), (f"J*_{name}/{H.members}", dual(J))]
    return out + [(f"tail of {label}", flabby_resolution(M).F) for label, M in out]


@pytest.fixture(scope="module")
def class_lattices():
    return several_member_class_lattices()


class TestPerClassAgainstEverySubgroup:
    def test_profile_lists_every_subgroup(self, class_lattices):
        for label, M in class_lattices:
            subs = [H for H in M.group.subgroups() if H.order > 1]
            sweep = [(H.members, (tate_minus1(H, M), h1(H, M))) for H in subs]
            assert list(profile(M, "all").entries.items()) == sweep, label
            family = M.group.prime_power_subgroups()
            prime_power = [(H.members, v) for H, (_, v) in zip(subs, sweep) if H in family]
            assert list(profile(M).entries.items()) == prime_power, label

    def test_is_flabby(self, class_lattices):
        verdicts = [is_flabby(M) for _, M in class_lattices]
        assert verdicts == [integral_flabby(M) for _, M in class_lattices]
        assert set(verdicts) == {True, False}

    def test_class_fingerprint(self, class_lattices):
        tori = class_lattices[:len(class_lattices) // 2]
        for label, M in [(label, M) for label, M in tori if M.rank <= 7]:
            F = flabby_resolution(M).F
            sweep = {H.members: h1(H, F) for H in M.group.subgroups() if H.order > 1}
            assert list(class_fingerprint(M).items()) == list(sweep.items()), label

    def test_non_normal_summand_dropped_or_demoted(self, class_lattices):
        # every summand with a non-normal stabilizer, dropped or replaced by
        # Z[G], in the covers of the tori and their duals
        verdicts = []
        for label, M in class_lattices[:len(class_lattices) // 2]:
            cov = fixed_point_cover(M)
            for k, H, _, _ in summand_blocks(cov):
                if H.is_normal:
                    continue
                for kind, broken in (("drop", dropped), ("demote", demoted)):
                    summands, columns = broken(cov, k)
                    ok = accepts(M, summands, columns)
                    assert ok == integral_postcondition(M, summands, columns), (label, kind, k)
                    verdicts.append((kind, ok))
        assert {("drop", False), ("demote", False), ("demote", True)} <= set(verdicts)
