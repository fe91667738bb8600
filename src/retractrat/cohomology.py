"""Tate cohomology of G-lattices in degrees -1, 0, 1, and Sha^2_omega.

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

One routine, _tate, computes every degree as the torsion of Z^n / S for a
span S of vectors read off the generator matrices (_span); the degrees
differ only in n, the vectors and the free rank of Z^n / S.  The torsion is
the quotient sat(S) / S of the saturation of S in Z^n.  In degrees -1, 0
and 1, n = m:

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
survives every round is free, and n minus the pivots of all rounds must be
the free rank above: that is checked for every p against the trace
average.  A torsion factor of valuation a or more would read as free and
fail the check.  The p-parts, each sorted descending, are multiplied
position by position into the invariant factors (Chinese remainder
theorem).

is_flabby and is_coflabby only ask whether degree -1, resp. 1, vanishes,
and decide that with one rank over F_p per p-subgroup H instead of the
invariants: nonflabby_heads lists the class heads where the rank falls
short, in degree 2 as well (below).  In degree -1, K = Ker(N_H) is
saturated in Z^m of rank m - rank M^H, and K / I_H M = H^-1(H, M) is a
finite group killed by |H| = p^k, so by Nakayama it vanishes exactly when
I_H M + pK = K, that is when the image of I_H M in K / pK, which embeds in
F_p^m, has dimension rank K.  So H^-1(H, M) = 0 exactly when the columns
of A(s) - 1 have F_p-rank m - rank M^H: the pivots of the first round of
_tate alone.  The same argument on M* makes H^1(H, M) = 0 exactly when the
rows of A(s) - 1 have that F_p-rank.  The rank of M^H needs no basis: it
is the multiplicity of the trivial character, (1/|H|) sum over h in H of
tr A(h) (lattices.fixed_rank).

Sha^2_omega(H, M) = ker(H^2(H, M) -> prod over cyclic C <= H of H^2(C, M))
is H^1(H, F) for the tail F of any flabby resolution 0 -> M -> P -> F -> 0
(Colliot-Thelene-Sansuc, J. Algebra 106 (1987), Prop. 9.5): H^1(H, P) = 0,
H^1(C, F) = 0 for cyclic C and Sha^2_omega(H, P) = 0.  So it depends on M
alone, and sha_omega reads it as one more torsion of Z^n / S, with no
resolution:

* Duality.  For a Z-free M, H^2(H, M) is dual to H^-2(H, M*) = H_1(H, M*)
  (Brown, VI.7), restriction to C dual to corestriction from C.  So
  Sha^2_omega(H, M) has the invariants of the cokernel of the sum of the
  corestrictions H_1(C, M*) -> H_1(H, M*) over the cyclic C.
* Presentation.  Take a presentation of H on k generators x_i
  (Subgroup.relator_loops).  Its Cayley complex (vertices H, edges
  g -> g x_i, a 2-cell on each translate of a relator's loop) is simply
  connected, so its cellular chains are free Z[H]-modules
  C_2 -> C_1 -> C_0 -> Z -> 0, exact at C_1 and C_0, and H_1(H, A) is
  ker d_1 / im d_2 in C_1 (x)_H A = A^k (Brown, II.5).  The edge
  g -> g x_i tensored with y is e_i (x) g^-1 y; d_1(e_i (x) y) is
  x_i^-1 y - y, and im d_2 is spanned by the relators' loops from 1 tensored
  with a basis of A: per loop and basis vector y, the sum over its edges of
  sign * e_i (x) g^-1 y.  The presentation is polycyclic, on the chain of
  prime-index steps the subgroup enumeration recorded (A5 aside), with
  k generators and k (k + 1) / 2 relators, so n = k m.
* Corestriction.  For C = <c>, H_1(C, A) = A^C / N_C A, and the chain map
  from the Cayley complex of C that sends the edge 1 -> c to a path from 1
  to c in that of H sends the class of y in A^C to that path tensored with
  y.  With A = M*, S is im d_2 plus these cycles for y in a basis of
  (M*)^C (lattices.fixed_basis of dual(M)).
* Free rank.  A^k / ker d_1 is im d_1 = I_H A, free of rank m - rank M^H,
  and ker d_1 / S is finite (killed by |H|), so ker d_1 is sat(S): the
  torsion of Z^n / S is the cokernel above and its free rank is
  m - rank M^H.
* Maximal cyclic subgroups.  Corestriction from C' <= C factors through C,
  and conjugation by h in H acts trivially on H_1(H, A), so one maximal
  cyclic C per conjugacy class under H is used
  (Subgroup.maximal_cyclic_classes), and a cyclic H has Sha^2_omega = 0.

The vectors are packed straight from the sparse rows of A(g) (_sha_vectors),
and _tate reads the invariants as "degree 2", with n = k m.  Vanishing is
decided like is_flabby: for H of order p^k, ker d_1 is saturated of rank
n - m + rank M^H and ker d_1 / S is killed by p^k, so by Nakayama
Sha^2_omega(H, M) = 0 exactly when the vectors of S have F_p-rank
n - m + rank M^H: one round (nonflabby_heads in degree 2).
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
    TRIVIAL_GROUP_INVARIANTS,
    _factorint,
    lane_layout,
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


def _sha_vectors(H: Subgroup, M: GLattice, q: int) -> list[int]:
    """The vectors spanning S = the boundaries plus the images of the
    corestrictions (module docstring), packed mod q (zlinalg.pack_lanes) in
    the basis e_i (x) e_j of (M*)^k, k the generators of
    Subgroup.relator_loops: lane i m + j.  An edge g -> g x_i of a loop
    carries y in M* to e_i (x) A*(g^-1) y, and column j of A*(g^-1) is row
    j of A(g), so a loop gives the m vectors sum over its edges of
    sign * row j of A(g) in block i."""
    G, m = M.group, M.rank
    gens, loops = H.relator_loops()
    k = len(gens)
    L = lane_layout(q)[1]
    nonzero: dict[int, list[list[tuple[int, int]]]] = {}  # g -> the rows of A(g), sparse

    def chain(edges, y: dict[int, int]) -> int:
        # sum over the edges of sign * y^T A(g) in block i, packed
        v: dict[int, int] = {}
        for i, sign, g in edges:
            rows = nonzero.get(g)
            if rows is None:
                rows = nonzero[g] = [[(c, x) for c, x in enumerate(row) if x]
                                     for row in M.act(g).a]
            base = i * m
            for j, yj in y.items():
                for c, x in rows[j]:
                    v[base + c] = v.get(base + c, 0) + sign * yj * x
        return sum(x % q << L * c for c, x in v.items())

    packed = [chain(loop, {j: 1}) for loop in loops for j in range(m)]
    Mdual = dual(M)
    for members in H.maximal_cyclic_classes():
        C = G.subgroup(members)  # its one generator generates it
        path = H.path_to(C.generators[0])
        packed += [chain(path, {j: yj for j, yj in enumerate(y) if yj})
                   for y in fixed_basis(Mdual, C).columns()]
    return packed


def _span(H: Subgroup, M: GLattice,
          degree: int) -> tuple[int, int, Callable[[int], list[int]]]:
    """(n, free, packed): packed(q) lists, packed mod q (zlinalg.pack_lanes),
    vectors whose span S in Z^n has as torsion quotient Tate cohomology in
    degree -1, 0 or 1 (_spanning_vectors, n = m), or Sha^2_omega for degree
    2 (_sha_vectors, n = k m for the k generators of
    Subgroup.relator_loops); free is the free rank of Z^n / S:
    rank M^H in degrees -1 and 1, m - rank M^H in degrees 0 and 2 (module
    docstring)."""
    m, fixed = M.rank, fixed_rank(M, H)
    if degree == 2:
        return len(H.relator_loops()[0]) * m, m - fixed, lambda q: _sha_vectors(H, M, q)
    vectors = _spanning_vectors(H, M, degree)
    return m, m - fixed if degree == 0 else fixed, lambda q: [pack_lanes(v, q) for v in vectors]


def _tate(H: Subgroup, M: GLattice, degree: int) -> AbelianInvariants:
    """The torsion of Z^n / S for the span S of _span in the given degree,
    one prime p^k exactly dividing |H| at a time from valuation_counts'
    rounds mod p^(k+1), ..., p.  The coordinates left after all rounds
    must number the free rank of Z^n / S (module docstring).  Sha^2_omega
    vanishes on a cyclic H."""
    if H.parent is not M.group:
        raise UserInputError("subgroup and lattice live over different groups")
    if H.order == 1 or M.rank == 0 or (degree == 2 and H.is_cyclic()):
        return TRIVIAL_GROUP_INVARIANTS
    n, free, packed = _span(H, M, degree)
    parts = []
    for p, k in _factorint(H.order).items():
        counts = valuation_counts(packed(p ** (k + 1)), n, p, k + 1)
        if n - sum(counts) != free:
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


def sha_omega(H: Subgroup, M: GLattice) -> AbelianInvariants:
    """Sha^2_omega(H, M), the classes of H^2(H, M) that vanish on every cyclic
    subgroup of H: H^1(H, F) for the tail F of any flabby resolution of M,
    read from M alone as the torsion of Z^n / S, n = k m for the k
    generators of Subgroup.relator_loops, for the span S of _sha_vectors
    (module docstring)."""
    return _tate(H, M, 2)


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
    in degree -1 (M not flabby there) or 1 (M not coflabby there), or
    Sha^2_omega for degree 2 (the tail of a flabby resolution of M not
    coflabby there), does not vanish, one at a time in class order.  Each
    is decided by one F_p-rank (module docstring) without the invariants
    that _tate computes: the vectors of _span have F_p-rank n - free exactly
    when it vanishes.  One H per conjugacy class is visited:
    H^n(gHg^-1, M) = g H^n(H, M); for degree 2 the cyclic H, where
    Sha^2_omega vanishes, are skipped."""
    for H in M.group.subgroup_conjugacy_representatives():
        primes = _factorint(H.order)
        if len(primes) != 1 or (degree == 2 and H.is_cyclic()):
            continue
        p, = primes
        n, free, packed = _span(H, M, degree)
        if rank_packed(packed(p), n, p) != n - free:
            yield H


def is_flabby(M: GLattice) -> bool:
    """H^-1(H, M) = 0 for every subgroup H of prime-power order: no class
    head fails the F_p-rank test (nonflabby_heads)."""
    return next(nonflabby_heads(M, -1), None) is None


def is_coflabby(M: GLattice) -> bool:
    """H^1(H, M) = 0 for every subgroup H of prime-power order, by the same
    F_p-rank test on the rows of A(s) - 1."""
    return next(nonflabby_heads(M, 1), None) is None
