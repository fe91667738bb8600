"""Tate cohomology of G-lattices in degrees -1, 0, 1.

All values are finite abelian groups returned as AbelianInvariants.  The
flabby/coflabby predicates quantify over subgroups; by default only
subgroups of prime-power order are visited, which is sound because
restriction to Sylow subgroups is injective on Tate cohomology.

Every value is computed once per conjugacy class of subgroups, at the
class head (FiniteGroup.subgroup_conjugacy_classes), because m -> g m
maps the Tate group H^n(H, M) isomorphically onto H^n(gHg^-1, M)
(K. S. Brown, Cohomology of Groups, III.8): conjugate subgroups have the
same invariants.  A profile still lists every subgroup of its family,
each class member under the values of its head (per_class).

One routine computes degrees -1 and 1.  Degree -1 is Ker(N_H) / I_H M, with
I_H M spanned by (s - 1)M over the generators s of H alone, since
st - 1 = (s - 1)t + (t - 1).  It is read as the torsion of the coinvariants
M / I_H M, with no basis of Ker(N_H): Ker(N_H) is saturated in Z^m and
contains I_H M, and Ker(N_H) / I_H M is finite (it is killed by |H|), so
Ker(N_H) is the saturation of I_H M, and sat(I) / I is the torsion of
Z^m / I.  The free rank of M / I_H M is then m - rank Ker(N_H) = rank M^H.

The torsion is read one prime p dividing |H| at a time, from packed
elimination rounds mod p^a, p^(a-1), ..., p with a = v_p(|H|) + 1
(zlinalg.valuation_counts) on the columns spanning I_H M; round t + 1
counts the invariant factors of I_H M of p-valuation t.  Since |H| kills
the torsion, every torsion factor has p-valuation at most v_p(|H|) < a, so
what survives every round is free, and m minus the pivots of all rounds
must be rank M^H: that is checked for every p against the trace average.
A torsion factor of valuation a or more would read as free and fail the
check.  The p-parts, each sorted descending, are multiplied position by
position into the invariant factors (Chinese remainder theorem).  Degree 1
is degree -1 of the dual: for a Z-free M, H^1(H, M) is
Hom(H^-1(H, M*), Q/Z) (K. S. Brown, Cohomology of Groups, Ch. VI, 7), a
group with the same invariants; this is the classical "M is flabby iff M*
is coflabby".

is_flabby only asks whether degree -1 vanishes, and decides that with one
rank over F_p per p-subgroup H instead of the invariants: nonflabby_heads
lists the class heads where the rank falls short, and is_flabby asks that
there be none.  K = Ker(N_H) is saturated in Z^m, and its rank is
m - rank M^H, since N_H maps M onto a sublattice of M^H containing
|H| M^H.  K / I_H M = H^-1(H, M) is a finite group killed by |H| = p^k,
so by Nakayama it vanishes exactly when I_H M + pK = K, that is when the
image of I_H M in K / pK, which embeds in F_p^m, has dimension rank K.
So H^-1(H, M) = 0 exactly when the columns (A(s) - 1) e_j spanning I_H M
have F_p-rank m - rank M^H: the pivots of tate_minus1's first round
alone.  The rank of M^H needs no basis: it is the multiplicity of the
trivial character, (1/|H|) sum over h in H of tr A(h) (lattices.fixed_rank).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import prod
from typing import Callable, Iterable, Iterator, Literal, TypeVar

from .errors import InternalCheckError, UserInputError
from .groups import FiniteGroup, Subgroup
from .lattices import GLattice, dual, fixed_basis, fixed_rank
from .zlinalg import (
    AbelianInvariants,
    Mat,
    TRIVIAL_GROUP_INVARIANTS,
    _factorint,
    pack_lanes,
    quotient_invariants,
    rank_packed,
    valuation_counts,
)


def _check_subgroup(H: Subgroup, M: GLattice):
    if H.parent is not M.group:
        raise UserInputError("subgroup and lattice live over different groups")


def norm_matrix(H: Subgroup, M: GLattice) -> Mat:
    """Sum of A(h) over the members of H."""
    total = Mat.zero(M.rank, M.rank)
    for h in H.members:
        A = M.act(h)
        for i in range(M.rank):
            trow = total.a[i]
            arow = A.a[i]
            for j in range(M.rank):
                trow[j] += arow[j]
    return total


def _augmentation_columns(H: Subgroup, M: GLattice) -> list[list[int]]:
    """Columns (A(s) - 1) e_j over the generators s of H and basis vectors
    e_j; they span I_H M."""
    cols = []
    for s in H.generators:
        for j, col in enumerate(zip(*M.act(s).a)):
            col = list(col)
            col[j] -= 1
            if any(col):
                cols.append(col)
    return cols


def tate_minus1(H: Subgroup, M: GLattice) -> AbelianInvariants:
    """Tate cohomology in degree -1: Ker(N_H) / I_H M, where N_H is the norm
    and I_H M is spanned by (A(s) - 1) e_j over the generators s of H.
    Ker(N_H) is the saturation of I_H M, so this is the torsion of
    M / I_H M (module docstring).  For each prime power p^k exactly dividing
    |H|, valuation_counts runs rounds mod p^(k+1), ..., p on the columns
    spanning I_H M, and round t + 1 counts the p-parts p^t.  |H| kills the
    torsion, so all of it is seen, and the m - (pivots of all rounds)
    coordinates left must be rank M^H for every p; a torsion factor of
    valuation above k would be left among them and fail that check."""
    _check_subgroup(H, M)
    if H.order == 1 or M.rank == 0:
        return TRIVIAL_GROUP_INVARIANTS
    cols = _augmentation_columns(H, M)
    if not cols:
        return TRIVIAL_GROUP_INVARIANTS
    free = fixed_rank(M, H)
    parts = []
    for p, k in _factorint(H.order).items():
        q = p ** (k + 1)
        counts = valuation_counts([pack_lanes(col, q) for col in cols], M.rank, p, k + 1)
        if M.rank - sum(counts) != free:
            raise InternalCheckError("coinvariants of a lattice have the wrong rank")
        parts.append([p ** t for t in range(k, 0, -1) for _ in range(counts[t])])
    return AbelianInvariants(tuple(sorted(prod(ds) for ds in zip_longest(*parts, fillvalue=1))))


def tate_zero(H: Subgroup, M: GLattice) -> AbelianInvariants:
    """Tate cohomology in degree 0: M^H / N_H M."""
    _check_subgroup(H, M)
    if M.rank == 0:
        return TRIVIAL_GROUP_INVARIANTS
    F = fixed_basis(M, H)
    if F.cols == 0:
        return TRIVIAL_GROUP_INVARIANTS
    N = norm_matrix(H, M)
    return quotient_invariants(F, N)


def h1(H: Subgroup, M: GLattice) -> AbelianInvariants:
    """First cohomology: Tate cohomology in degree -1 of the dual lattice
    (Tate duality, see the module docstring)."""
    return tate_minus1(H, dual(M))


@dataclass
class CohomologyProfile:
    """Per-subgroup table of (degree -1, degree 1) cohomology with the derived
    flabby/coflabby flags."""

    lattice: GLattice
    entries: dict[tuple[int, ...], tuple[AbelianInvariants, AbelianInvariants]]
    subgroup_mode: str

    @property
    def is_flabby(self) -> bool:
        return all(hm1.is_trivial for hm1, _ in self.entries.values())

    @property
    def is_coflabby(self) -> bool:
        return all(h.is_trivial for _, h in self.entries.values())

    def to_json(self) -> list[dict]:
        return [
            {"subgroup": list(k), "h_minus1": hm1.to_list(), "h1": h.to_list()}
            for k, (hm1, h) in self.entries.items()
        ]


SubgroupMode = Literal["prime-power", "all"]
T = TypeVar("T")


def per_class(G: FiniteGroup, subgroups: Iterable[Subgroup],
              invariants: Callable[[Subgroup], T]) -> dict[tuple[int, ...], T]:
    """members -> invariants(K) for each of the given subgroups of G, in their
    order, with K the head of its conjugacy class: invariants is called
    once per class, so it must be an invariant of conjugation (module
    docstring)."""
    head = {H: c[0] for c in G.subgroup_conjugacy_classes() for H in c}
    values: dict[Subgroup, T] = {}
    out = {}
    for H in subgroups:
        K = head[H]
        if K not in values:
            values[K] = invariants(K)
        out[H.members] = values[K]
    return out


def _profile_subgroups(M: GLattice, mode: SubgroupMode) -> list[Subgroup]:
    G = M.group
    if mode == "all":
        return [s for s in G.subgroups() if s.order > 1]
    if mode == "prime-power":
        return G.prime_power_subgroups()
    raise UserInputError(f"unknown subgroup mode {mode!r}")


def profile(M: GLattice, subgroups: SubgroupMode = "prime-power") -> CohomologyProfile:
    """Cohomology profile over the selected family of subgroups.

    The default prime-power family decides flabby/coflabby exactly: the
    restriction of Tate cohomology to Sylow subgroups is injective, and the
    subgroups of a Sylow subgroup all have prime-power order.  Every
    subgroup of the family is listed; the cohomology is computed once per
    conjugacy class (per_class).
    """
    entries = per_class(M.group, _profile_subgroups(M, subgroups),
                        lambda K: (tate_minus1(K, M), h1(K, M)))
    return CohomologyProfile(M, entries, subgroups)


def nonflabby_heads(M: GLattice) -> Iterator[Subgroup]:
    """The class heads H of prime-power order p^k > 1 with H^-1(H, M) != 0,
    one at a time in class order, each decided by one F_p-rank (module
    docstring) without the invariants that tate_minus1 computes.  One H
    per conjugacy class is visited: H^-1(gHg^-1, M) = g H^-1(H, M)."""
    for H in M.group.subgroup_conjugacy_representatives():
        primes = _factorint(H.order)
        if len(primes) != 1:
            continue
        p, = primes
        aug = (pack_lanes(col, p) for col in _augmentation_columns(H, M))
        if rank_packed(aug, M.rank, p) != M.rank - fixed_rank(M, H):
            yield H


def is_flabby(M: GLattice) -> bool:
    """H^-1(H, M) = 0 for every subgroup H of prime-power order: no class
    head fails the F_p-rank test (nonflabby_heads)."""
    return next(nonflabby_heads(M), None) is None


def is_coflabby(M: GLattice) -> bool:
    return is_flabby(dual(M))
