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

One routine, _tate, computes every degree as the torsion of Z^m / S for a
span S of vectors read off the generator matrices; the degrees differ only
in the vectors and in the free rank of Z^m / S.  The torsion is the
quotient sat(S) / S of the saturation of S in Z^m.

* Degree -1 is Ker(N_H) / I_H M, with I_H M spanned by the columns of
  A(s) - 1 over the generators s of H alone, since
  st - 1 = (s - 1)t + (t - 1).  Ker(N_H) is saturated in Z^m, contains
  I_H M, and Ker(N_H) / I_H M is killed by |H|, so Ker(N_H) is sat(I_H M)
  and no basis of it is formed.  The free rank is
  m - rank Ker(N_H) = rank M^H.
* Degree 1: for a Z-free M, H^1(H, M) is Hom(H^-1(H, M*), Q/Z)
  (K. S. Brown, Cohomology of Groups, Ch. VI, 7), a group with the
  invariants of H^-1(H, M*); this is the classical "M is flabby iff M* is
  coflabby".  M* is never formed.  Row j of A(s^-1) - 1 is column j of
  A*(s) - 1, and A(s^-1) - 1 = -A(s^-1)(A(s) - 1) with A(s^-1) invertible
  over Z, so the rows of A(s) - 1 span the same lattice as those of
  A(s^-1) - 1: over the generators s they span I_H M*.  The free rank is
  rank (M*)^H = rank M^H.
* Degree 0 is M^H / N_H M, spanned by the columns of N_H.  N_H M lies in
  M^H and contains |H| M^H, and M^H is saturated in Z^m, so M^H is
  sat(N_H M) and M^H / N_H M is the torsion of M / N_H M, with no basis of
  M^H.  The free rank is m - rank M^H.

The torsion is read one prime p dividing |H| at a time, from packed
elimination rounds mod p^a, p^(a-1), ..., p with a = v_p(|H|) + 1
(zlinalg.valuation_counts) on the spanning vectors; round t + 1 counts the
invariant factors of S of p-valuation t.  Since |H| kills the torsion,
every torsion factor has p-valuation at most v_p(|H|) < a, so what
survives every round is free, and m minus the pivots of all rounds must be
the free rank above: that is checked for every p against the trace
average.  A torsion factor of valuation a or more would read as free and
fail the check.  The p-parts, each sorted descending, are multiplied
position by position into the invariant factors (Chinese remainder
theorem).

is_flabby and is_coflabby only ask whether degree -1, resp. 1, vanishes,
and decide that with one rank over F_p per p-subgroup H instead of the
invariants: nonflabby_heads lists the class heads where the rank falls
short.  In degree -1, K = Ker(N_H) is saturated in Z^m of rank
m - rank M^H, and K / I_H M = H^-1(H, M) is a finite group killed by
|H| = p^k, so by Nakayama it vanishes exactly when I_H M + pK = K, that is
when the image of I_H M in K / pK, which embeds in F_p^m, has dimension
rank K.  So H^-1(H, M) = 0 exactly when the columns of A(s) - 1 have
F_p-rank m - rank M^H: the pivots of the first round of _tate alone.  The
same argument on M* makes H^1(H, M) = 0 exactly when the rows of A(s) - 1
have that F_p-rank.  The rank of M^H needs no basis: it is the
multiplicity of the trivial character, (1/|H|) sum over h in H of tr A(h)
(lattices.fixed_rank).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import prod
from typing import Callable, Iterable, Iterator, Literal, TypeVar

from .errors import InternalCheckError, UserInputError
from .groups import FiniteGroup, Subgroup
from .lattices import GLattice, fixed_rank
from .zlinalg import (
    AbelianInvariants,
    TRIVIAL_GROUP_INVARIANTS,
    _factorint,
    pack_lanes,
    rank_packed,
    valuation_counts,
)


def _spanning_vectors(H: Subgroup, M: GLattice, degree: int) -> list[list[int]]:
    """The nonzero vectors whose span has, in Z^m, the torsion quotient that
    is Tate cohomology in the given degree (module docstring): the columns
    (degree -1) or the rows (degree 1) of A(s) - 1 over the generators s of
    H, or the columns of the norm N_H (degree 0)."""
    if degree == 0:
        norm = [list(map(sum, zip(*rows))) for rows in zip(*(M.act(h).a for h in H.members))]
        vectors = [list(col) for col in zip(*norm)]
    else:
        vectors = []
        for s in H.generators:
            A = M.act(s).a
            block = [list(v) for v in (zip(*A) if degree == -1 else A)]
            for j, v in enumerate(block):
                v[j] -= 1
            vectors += block
    return [v for v in vectors if any(v)]


def _tate(H: Subgroup, M: GLattice, degree: int) -> AbelianInvariants:
    """Tate cohomology in degree -1, 0 or 1: the torsion of Z^m / S for the
    span S of _spanning_vectors, one prime p^k exactly dividing |H| at a
    time from valuation_counts' rounds mod p^(k+1), ..., p.  The coordinates
    left after all rounds must number the free rank of Z^m / S: rank M^H in
    degrees -1 and 1, m - rank M^H in degree 0 (module docstring)."""
    if H.parent is not M.group:
        raise UserInputError("subgroup and lattice live over different groups")
    if H.order == 1 or M.rank == 0:
        return TRIVIAL_GROUP_INVARIANTS
    vectors = _spanning_vectors(H, M, degree)
    if not vectors:
        return TRIVIAL_GROUP_INVARIANTS
    free = fixed_rank(M, H)
    if degree == 0:
        free = M.rank - free
    parts = []
    for p, k in _factorint(H.order).items():
        q = p ** (k + 1)
        counts = valuation_counts([pack_lanes(v, q) for v in vectors], M.rank, p, k + 1)
        if M.rank - sum(counts) != free:
            raise InternalCheckError(f"the degree {degree} quotient of a lattice has the wrong rank")
        parts.append([p ** t for t in range(k, 0, -1) for _ in range(counts[t])])
    return AbelianInvariants(tuple(sorted(prod(ds) for ds in zip_longest(*parts, fillvalue=1))))


def tate_minus1(H: Subgroup, M: GLattice) -> AbelianInvariants:
    """Tate cohomology in degree -1: Ker(N_H) / I_H M, the torsion of the
    coinvariants M / I_H M."""
    return _tate(H, M, -1)


def tate_zero(H: Subgroup, M: GLattice) -> AbelianInvariants:
    """Tate cohomology in degree 0: M^H / N_H M, the torsion of M / N_H M."""
    return _tate(H, M, 0)


def h1(H: Subgroup, M: GLattice) -> AbelianInvariants:
    """First cohomology, with the invariants of H^-1(H, M*): the torsion of
    Z^m / I_H M*, read off the rows of A(s) - 1 without forming M*."""
    return _tate(H, M, 1)


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


def nonflabby_heads(M: GLattice, degree: int) -> Iterator[Subgroup]:
    """The class heads H of prime-power order p^k > 1 where Tate cohomology
    in degree -1 (M not flabby there) or 1 (M not coflabby there) does not
    vanish, one at a time in class order, each decided by one F_p-rank
    (module docstring) without the invariants that _tate computes.  One H
    per conjugacy class is visited: H^n(gHg^-1, M) = g H^n(H, M)."""
    for H in M.group.subgroup_conjugacy_representatives():
        primes = _factorint(H.order)
        if len(primes) != 1:
            continue
        p, = primes
        vectors = (pack_lanes(v, p) for v in _spanning_vectors(H, M, degree))
        if rank_packed(vectors, M.rank, p) != M.rank - fixed_rank(M, H):
            yield H


def is_flabby(M: GLattice) -> bool:
    """H^-1(H, M) = 0 for every subgroup H of prime-power order: no class
    head fails the F_p-rank test (nonflabby_heads)."""
    return next(nonflabby_heads(M, -1), None) is None


def is_coflabby(M: GLattice) -> bool:
    """H^1(H, M) = 0 for every subgroup H of prime-power order, by the same
    F_p-rank test on the rows of A(s) - 1."""
    return next(nonflabby_heads(M, 1), None) is None
