"""Fixed-point covers, flabby resolutions, and the invertibility decision.

The cover construction follows the classical recipe: for each subgroup H
(one per conjugacy class) and each Hermite-basis generator f of the fixed
sublattice M^H, adjoin a coset summand Z[G/H] whose identity coset maps to
f.  Two refinements keep covers small:

* seeding: basis vectors that G permutes outright are covered first by one
  summand per orbit, mapping isomorphically onto the orbit block;
* frugality: a generator already contained in the image I of the partial
  cover's H-fixed part is skipped.

Neither changes the contract (surjectivity of P^H -> M^H for every subgroup
H, which is machine-verified on every call, hence coflabbiness of the
kernel); they only pick a smaller P among the valid covers.

The classes are visited character first: rank M^H is a trace average
(lattices.fixed_rank), and a class with rank 0 is skipped.  I lies in M^H,
since the projection is equivariant, so when I has rank M^H and Hermite
pivots 1 it is saturated and equals M^H, and the class is skipped without a
basis of M^H.  Otherwise the basis is formed and its generators tested
until I is full in that sense.  A saturated I with a larger pivot (the span
of (2, 1)) falls back to the tests, which then skip every generator, so
each class adjoins what testing every generator would.  For H = 1, I is the
span of all columns, formed on the coordinates that no column +-e_j covers
(_unit_free_image, shared with check_cover_surjective).

The verification (check_cover_surjective) works over Z only for H = 1,
where it asks that the projection's columns span Z^m.  For H != 1 it uses
transfer: once P -> M is onto, any x in M^H lifts to some y in P, and
sum_{h in H} h y lies in P^H and maps to |H| x, so the image of P^H
contains |H| M^H.  M^H is saturated in Z^m, so M^H / p M^H embeds in
F_p^m.  Hence P^H -> M^H is onto exactly when, for each prime p dividing
|H|, the images of the H-orbit sums of P's basis have F_p-rank equal to
rank M^H, which is a trace average (lattices.fixed_rank) and needs no
basis of M^H.  The construction itself stays over Z: its partial cover is
not yet onto, so transfer says nothing there.  One H per conjugacy class
is checked, after the projection's equivariance: for an equivariant
projection, P^(gHg^-1) -> M^(gHg^-1) is g (P^H -> M^H) (K. S. Brown,
Cohomology of Groups, III.8), so it is onto exactly when P^H -> M^H is.

A cover is P and its projection only.  flabby_resolution reads the basis K
of the kernel C and builds F = C* straight from P and K
(lattices.sublattice_dual), with no lattice for C; the invertibility
decision never forms K.

Cosets and orbits on cosets come from the subgroup records, which keep
them: H.cosets() and, per subgroup S, the S-orbits on G/H
(Subgroup.coset_orbits), each computed once per group.  The cover
construction and its check, the section rows, the candidates, the
refutation check and permutation_lattice all read these tables, and the
catalog groups, which stay cached, keep them from one request to the next.

The invertibility decision searches for an integral equivariant section of
the cover projection.  Sections M -> Z[G/H] correspond to H-fixed
functionals on M (the coset-gH coordinate of the image of v is that
functional evaluated at g^-1 v), so candidates live in the small lattice
direct sum of (M*)^H over the summands, and the section condition becomes
one integer linear system there: sum_j x_j D_j = I for the composites
D_j = proj S_j.  The candidates of one summand are the columns of one
block of matrices A*(rep) FB, one per coset, and no candidate or composite
is ever formed as a matrix: _section_rows writes the equations straight
into packed rows mod N, one Python int per equation (Kronecker
substitution, see there).  Soundness: a solution exhibits M as a direct
summand of a permutation lattice.  Completeness: if M is invertible, the
cover sequence splits because its kernel is coflabby, so the system is
solvable.

The system is decided modulo N = |G|, after a pass modulo each prime p with
p^2 | N that may refute it early (below).  Let E = End_G(M) and L the span
of the D_j, so L lies in E.

* N E lies in L.  Given phi in E, lift it to a Z-linear map psi0: M -> P
  with proj psi0 = phi (M is free and proj is onto).  The average
  psi = sum_g g psi0 g^-1 is equivariant, so a Z-combination of the S_j,
  and proj psi = sum_g g phi g^-1 = N phi.
* E is saturated in Z^(m x m): it is the kernel of X -> (A(g)X - XA(g))_g.
* Hence if sum_j x_j D_j = I + N Y for integers x_j and an integral Y, then
  N Y = L-element - I lies in E, so Y lies in E, N Y lies in L, and I lies
  in L.  The system is solvable over Z exactly when it is solvable mod N.
* Since N I lies in L, every diagonal equation has a nonzero coefficient
  and no equation occurs with both targets 0 and 1, so neither needs a
  special case.
* Z/N is self-injective, so a system over Z/N has no solution exactly when
  some functional kills every column and not the right-hand side.  Here
  that is an m x m matrix Lam with <Lam, D_j> = 0 mod N for every j and
  trace Lam != 0 mod N (<Lam, D> = sum_ik Lam_ik D_ik); it shows that no
  integral section exists.

The identity is imposed on a few columns only.  Every D_j and I lie in E,
so X = sum_j x_j D_j - I is equivariant.  Let T be basis indices whose
G-orbits {A(g) e_s : s in T} span Z^m (_orbit_spanning_indices picks them
greedily).  If X e_s = 0 mod N for every s in T, then
X A(g) e_s = A(g) X e_s = 0 mod N for every g, so X vanishes mod N on a
spanning set, hence X = 0 mod N entrywise; the same argument works over Z.
So the system has one equation per entry (i, s), s in T: m |T| equations
instead of m^2 (|T| = 1 for a regular lattice), with the same solutions
mod N and over Z.  A refutation of it is a Lam supported on those entries.

Before the system mod N, the same system is built and eliminated mod each
prime p with p^2 | N, stopping at the first that refutes it.  If
<lam, D_j> = 0 mod p for every j and trace lam != 0 mod p, then
Lam = (N/p) lam has <Lam, D_j> = (N/p) (multiple of p) = 0 mod N and
trace Lam = (N/p) trace lam != 0 mod N: a refutation mod N.  A system
solvable mod N is solvable mod p, so a pass mod p never turns a Yes into a
No; when it finds no refutation the system mod N decides.  The system mod
p is smaller (its lanes are narrower and more equations merge) and
eliminating it skips the rounds mod p^2, p^3, ...  A p dividing N exactly
is not tried: solve_packed already eliminates mod p^1 there.

So No answers carry such a Lam, checked mod N against every composite by
verify_refutation, which reads Lam wherever it is nonzero and does not
assume that it lives on T.  Yes answers lift the solution x mod N of the
same elimination as in the first point: S0 = sum_j x_j S_j has
proj S0 = I + N Y with Y in E, the average psi of a lift of Y through proj
has proj psi = N Y, and S0 - psi is the section, checked exactly.

The flabby class of M, that of the tail F of its resolution, is decided by
decide_flabby_class, which tries the H^1 obstruction before resolving M.
An invertible lattice is coflabby: H^1(H, Z[G/K]) is a sum of
H^1(H ∩ gKg^-1, Z) = Hom(H ∩ gKg^-1, Z) = 0 (Shapiro's lemma), and H^1 of a
direct summand is a summand of H^1.  So a subgroup H with H^1(H, F) != 0
proves [F] not invertible.  H^1(H, F) is Sha^2_omega(H, M), which depends
on M alone (cohomology module docstring): an F_p-rank per class head
(cohomology.nonflabby_heads in degree 2) finds such an H with no
resolution and no cover, and the exact invariants sha_omega(H, M) certify
it.  Only a lattice with no obstruction is resolved, and its coflabby tail
goes to is_invertible.  So a No about a flabby class carries either a subgroup with
its nonzero H^1 or Lam from is_invertible; a Yes always carries the
section.  class_fingerprint reads the same Sha^2_omega on every subgroup,
so it never builds a cover either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cohomology import nonflabby_heads, per_class, sha_omega
from .errors import InternalCheckError, ResourceBoundError
from .groups import Subgroup
from .lattices import (
    RANK_BOUND,
    GLattice,
    LatticeMap,
    dual,
    fixed_basis,
    fixed_rank,
    internal_map,
    permutation_lattice,
    sublattice_dual,
)
from .zlinalg import (
    AbelianInvariants,
    LatticeAccumulator,
    LinearSolver,
    Mat,
    _factorint,
    kernel_basis,
    lane_layout,
    lane_reduction,
    pack_lanes,
    rank_packed,
    solve_packed,
)


@dataclass
class FixedPointCover:
    """P -> M -> 0 with P permutation and P^H ->> M^H for every H."""

    M: GLattice
    P: GLattice
    projection: LatticeMap


@dataclass
class FlabbyResolution:
    """0 -> M -> P -> F -> 0 with P permutation and F flabby."""

    M: GLattice
    P: GLattice
    F: GLattice
    injection: LatticeMap
    surjection: LatticeMap


@dataclass
class InvertibilityDecision:
    """Yes carries witness, an equivariant section of the cover projection
    lifted from a solution mod |G|; No carries refutation, a matrix Lam mod
    |G| (see verify_refutation)."""

    answer: bool
    witness: Optional[LatticeMap]
    cover: FixedPointCover
    refutation: Optional[Mat] = None


def _permutation_orbit_seeds(M: GLattice) -> list[tuple[Subgroup, int]]:
    """(stabilizer, basis index) for each orbit of basis vectors that the whole
    group permutes by +1 entries.

    These indices are the greatest set that every generator maps to +1 unit
    vectors inside the set: words in the generators then do the same."""
    G, n = M.group, M.rank
    images = []  # per generator: basis index -> index of its +1 image
    for s in G.generators:
        A = M.act(s).a
        hits = [[i for i in range(n) if A[i][j]] for j in range(n)]
        images.append({j: h[0] for j, h in enumerate(hits) if len(h) == 1 and A[h[0]][j] == 1})
    kept = set(range(n))
    while True:
        closed = {j for j in kept if all(image.get(j) in kept for image in images)}
        if closed == kept:
            break
        kept = closed
    mats = M.expand()
    seeds = []
    seen: set[int] = set()
    for j in sorted(kept):
        if j in seen:
            continue
        seen |= {i for A in mats.values() for i in range(n) if A.a[i][j]}
        seeds.append((G.subgroup([g for g in range(G.order) if mats[g].a[j][j] == 1]), j))
    return seeds


class _CoverBuilder:
    def __init__(self, M: GLattice):
        self.M = M
        self.summands: list[Subgroup] = []
        self.columns: list[list[int]] = []  # projection columns, basis order
        self.summand_starts: list[int] = []
        self._act_columns: dict[int, list[list[int]]] = {}  # rep -> columns of A(rep)

    def adjoin(self, H: Subgroup, f: list[int]):
        """Add Z[G/H] with its coset rep H sent to A(rep) f, for f != 0 in
        M^H: the sum of x times column j of A(rep) over f's nonzero x = f[j]."""
        self.summand_starts.append(len(self.columns))
        (j0, x0), *terms = [(j, x) for j, x in enumerate(f) if x]
        for rep in H.cosets()[0]:
            cols = self._act_columns.get(rep)
            if cols is None:
                cols = self._act_columns[rep] = self.M.act(rep).transpose().a
            col = [x0 * y for y in cols[j0]]
            for j, x in terms:
                col = [a + x * y for a, y in zip(col, cols[j])]
            self.columns.append(col)
        self.summands.append(H)
        if len(self.columns) > RANK_BOUND:
            raise ResourceBoundError(f"cover rank exceeds bound {RANK_BOUND}")

    def summand_fixed_image_columns(self, S: Subgroup, index: int) -> list[list[int]]:
        """Images in M of a basis of (one summand)^S: a column per S-orbit
        on its cosets (Subgroup.coset_orbits)."""
        start = self.summand_starts[index]
        out = []
        for orbit in self.summands[index].coset_orbits(S):
            col = [0] * self.M.rank
            for idx in orbit:
                col = [x + y for x, y in zip(col, self.columns[start + idx])]
            out.append(col)
        return out

    def fixed_image_lattice(self, S: Subgroup) -> LatticeAccumulator:
        """Image of P^S -> M^S for the current summand list."""
        acc = LatticeAccumulator(self.M.rank)
        acc.add(*(col for i in range(len(self.summands))
                  for col in self.summand_fixed_image_columns(S, i)))
        return acc


def _unit_free_image(m: int,
                     columns: Sequence[Sequence[int]]) -> tuple[list[int], LatticeAccumulator]:
    """(rest, image): the coordinates rest that no column +-e_j covers, and
    the span of the other columns restricted to rest.  A column +-e_j puts
    e_j in the span of the columns, so a vector lies in that span exactly
    when its restriction to rest lies in image, and the columns span Z^m
    exactly when image is all of Z^rest."""
    units, others = set(), []
    for col in columns:
        if sum(map(abs, col)) == 1:
            units.add(col.index(1) if 1 in col else col.index(-1))
        else:
            others.append(col)
    rest = [i for i in range(m) if i not in units]
    image = LatticeAccumulator(len(rest))
    image.add(*([col[i] for i in rest] for col in others))
    return rest, image


def check_cover_surjective(M: GLattice, summands: Sequence[Subgroup],
                           columns: Sequence[Sequence[int]]):
    """Raise InternalCheckError unless P^S -> M^S is onto for every subgroup
    S of G, where P is the direct sum of the Z[G/H] over summands (bases in
    the order of H.cosets()) and columns are the images in M of P's basis.
    The map P -> M must be equivariant (fixed_point_cover checks that
    first): then P^(gSg^-1) = g P^S and M^(gSg^-1) = g M^S, and the map
    sends g P^S to g times the image of P^S, so it is onto at gSg^-1 exactly
    when it is onto at S, and one S per conjugacy class is checked.

    S = 1 is checked over Z: the columns span Z^m, which one Hermite form
    decides on the coordinates that no column +-e_j covers
    (_unit_free_image).  Every other S is
    checked mod p, by transfer.  Once P -> M is onto, each x in M^S lifts
    to some y in P, and sum_{s in S} s y lies in P^S and maps to |S| x; so
    the image I of P^S has finite index in M^S, with |S| M^S inside I.  M^S
    is saturated in Z^m, so M^S / p M^S embeds in F_p^m and has dimension
    rank M^S.  Hence I = M^S exactly when, for each prime p dividing |S|,
    the images of the S-orbit sums (Subgroup.coset_orbits), a spanning set
    of I, have F_p-rank equal to rank M^S (lattices.fixed_rank, a trace
    average).  Each projection column is packed mod p once
    (zlinalg.pack_lanes) and the orbit sums are added in packed form; the
    S-orbits on the cosets of a stabilizer are kept on the stabilizer and
    read at each summand's offset."""
    G, m = M.group, M.rank
    rest, span = _unit_free_image(m, columns)
    if not span.is_full(len(rest)):
        raise InternalCheckError("cover does not map onto the base lattice")
    packed: dict[int, list[int]] = {}  # p -> the columns packed mod p
    for S in G.subgroup_conjugacy_representatives():
        if S.order == 1:
            continue
        rank = fixed_rank(M, S)
        if not rank:
            continue
        for p in _factorint(S.order):
            if p not in packed:
                packed[p] = [pack_lanes(col, p) for col in columns]
            cols = packed[p]
            reduce = lane_reduction(p, p, m)
            sums = []
            first = 0
            for H in summands:
                for orbit in H.coset_orbits(S):
                    x = 0
                    for j in orbit:
                        x = reduce(x + cols[first + j])
                    sums.append(x)
                first += len(H.cosets()[0])
            if rank_packed(sums, m, p) != rank:
                raise InternalCheckError(
                    f"cover misses the {S.members}-fixed part of the base lattice mod {p}")


def fixed_point_cover(M: GLattice) -> FixedPointCover:
    """Permutation cover P ->> M with per-subgroup surjectivity.

    Basis orbits that G permutes are seeded with one summand each; then each
    conjugacy class H, largest first, adjoins Z[G/H] for each Hermite
    generator of M^H outside the image of the partial cover's H-fixed part.
    A class whose image is already full is skipped before its basis is
    formed, and the trivial subgroup's image is formed on the non-unit
    coordinates (module docstring).  The construction works over Z, since
    its partial cover is not yet onto.
    The projection's equivariance is checked first (internal_map), and then
    the per-subgroup surjectivity P^S ->> M^S for EVERY subgroup S
    (check_cover_surjective, one S per conjugacy class): over Z for S = 1,
    and for S != 1 by one F_p-rank per prime p dividing |S|, which suffices
    by transfer once P -> M is onto.  Failure raises InternalCheckError.
    The kernel is not built here; flabby_resolution reads its basis.
    """
    G, m = M.group, M.rank
    builder = _CoverBuilder(M)
    for stab, j in _permutation_orbit_seeds(M):
        builder.adjoin(stab, [int(i == j) for i in range(m)])
    reps = G.subgroup_conjugacy_representatives()
    for H in sorted(reps, key=lambda s: (-s.order, s.members)):
        rank = fixed_rank(M, H)
        if not rank:
            continue
        if H.order == 1:  # the last class: I is the span of every column
            coords, image = _unit_free_image(m, builder.columns)
            rank = len(coords)
        else:
            coords, image = range(m), builder.fixed_image_lattice(H)
        if image.is_full(rank):
            continue
        FB = fixed_basis(M, H)
        for j in range(FB.cols):
            f = FB.col(j)
            if image.contains([f[i] for i in coords]):
                continue
            builder.adjoin(H, f)
            if j == FB.cols - 1:
                break
            cols = builder.summand_fixed_image_columns(H, -1)
            image.add(*([c[i] for i in coords] for c in cols))
            if image.is_full(rank):
                break

    P = permutation_lattice(G, builder.summands)
    proj_mat = Mat.from_cols(builder.columns, rows=m)
    projection = internal_map(P, M, proj_mat)
    check_cover_surjective(M, builder.summands, builder.columns)
    return FixedPointCover(M, P, projection)


def flabby_resolution(M: GLattice) -> FlabbyResolution:
    """0 -> M -> P -> F -> 0 by dualizing a fixed-point cover proj: P ->> M*
    with kernel C, spanned by the columns K of kernel_basis(proj): the
    injection is proj^T, F = C* (lattices.sublattice_dual, from P and K
    with no lattice for C) and the surjection is K^T.

    Its own checks are surj inj = 0 and rank M + rank F = rank P; a failure
    is an internal error.  The rest follows from the cover's checks:

    * proj maps onto Z^m, so proj^T is injective and its image is saturated.
    * K is made of rows of a unimodular U, so it is saturated and K^T is
      onto.  ker K^T is saturated, contains im proj^T (the composite is 0)
      and has its rank (the rank count), so ker K^T = im proj^T.
    * surj's equivariance check, K^T A_P(s) = A_F(s) K^T, is the identity
      A_P(s^-1) K = K A_F(s)^T that F was solved from: K spans a
      P-stable sublattice and F is its dual.
    * P is a permutation lattice (permutation_lattice built it), so
      H^1(S, P) = 0, and P^S ->> (M*)^S, checked for every S, holds exactly
      when H^1(S, C) = 0: C is coflabby and F = C* is flabby.
    """
    cov = fixed_point_cover(dual(M))
    P, K = cov.P, kernel_basis(cov.projection.matrix)
    F = sublattice_dual(P, K)
    inj = internal_map(M, P, cov.projection.matrix.transpose())
    surj = internal_map(P, F, K.transpose())
    if not surj.matrix.mul(inj.matrix).is_zero():
        raise InternalCheckError("resolution composite is nonzero")
    if M.rank + F.rank != P.rank:
        raise InternalCheckError("resolution ranks do not add up")
    return FlabbyResolution(M, P, F, inj, surj)


def _orbit_spanning_indices(M: GLattice) -> list[int]:
    """Basis indices T whose G-orbits {A(g) e_s : s in T} span Z^m, chosen
    greedily in index order: e_s joins T when it is not in the span of the
    orbits of the indices taken before it."""
    mats = M.expand().values()
    span = LatticeAccumulator(M.rank)
    T = []
    for s in range(M.rank):
        if not span.contains([int(i == s) for i in range(M.rank)]):
            T.append(s)
            span.add(*dict.fromkeys(tuple(row[s] for row in A.a) for A in mats))
    return T


def _section_rows(cov: FixedPointCover, T: Sequence[int],
                  N: int) -> tuple[int, dict[int, tuple[int, int]]]:
    """The section system on the columns T, reduced mod N and packed: (n,
    rows) with n unknowns, the candidates summand by summand, and rows
    mapping each distinct nonzero equation (i, s), s in T, of
    (sum_j x_j D_j) e_s = e_s mod N to its first entry (i, s) in row-major
    order.  An equation is one int in the lanes of zlinalg.pack_lanes: lane
    j holds the coefficient of x_j and lane n the target.

    Equivariant maps M -> Z[G/H] are in bijection with H-fixed dual vectors
    u: the row of the coset rep_r H is u^T A(rep_r^-1) = (A*(rep_r) u)^T.  So
    with FB the basis of (M*)^H, the candidates of the summand Z[G/H] at
    row base are the columns of the blocks Y[r] = A*(rep_r) FB, and
    D_j[i][s] = sum_r proj[i][base + r] Y[r][s][j].  Kronecker substitution
    forms all of it with one multiply-add and one lane reduction per
    nonzero term: row t of FB is one int in the summand's c lanes, row s of
    Y[r] is sum_t A*(rep_r)[s][t] FB[t], and the rows s in T of Y[r] side by
    side are one int Z[base + r] of |T| blocks of c lanes.  Then
    sum_r proj[i][base + r] Z[base + r] holds the summand's coefficients of
    equation (i, T[t]) in block t, and each equation puts together its
    blocks, summand after summand.
    """
    Mdual = dual(cov.M)
    L = lane_layout(N)[1]
    nT = len(T)
    blocks: list[tuple[int, int]] = []  # (bits of a block, first bit) per summand with candidates
    coset_rows: list[Optional[tuple[int, int]]] = [None] * cov.P.rank  # (summand, Z)
    act: dict[int, list[list[tuple[int, int]]]] = {}  # g -> rows T of A*(g) mod N, sparse
    base = start = 0
    for H in cov.P.summands or []:
        reps, _ = H.cosets()
        FB = fixed_basis(Mdual, H)
        if FB.cols:
            w = FB.cols * L
            reduce = lane_reduction(N, N, FB.cols)
            packed = [pack_lanes(row, N) for row in FB.a]
            for r, rep in enumerate(reps):
                if rep not in act:
                    A = Mdual.act(rep).a
                    act[rep] = [[(t, a % N) for t, a in enumerate(A[s]) if a % N]
                                for s in reversed(T)]
                Z = 0
                for terms in act[rep]:
                    y = 0
                    for t, a in terms:
                        y = reduce(y + a * packed[t])
                    Z = Z << w | y
                coset_rows[base + r] = (len(blocks), Z)
            blocks.append((w, start))
            start += w
        base += len(reps)
    reducers = [lane_reduction(N, N, nT * w // L) for w, _ in blocks]
    n = start // L
    target = (1 % N) << start
    rows: dict[int, tuple[int, int]] = {}
    for i, prow in enumerate(cov.projection.matrix.a):
        acc = [0] * len(blocks)
        for x, kZ in zip(prow, coset_rows):
            x %= N
            if x and kZ:
                k, Z = kZ
                acc[k] = reducers[k](acc[k] + x * Z)
        parts = [(a, w, (1 << w) - 1, at) for a, (w, at) in zip(acc, blocks) if a]
        for t, s in enumerate(T):
            e = target if i == s else 0
            for a, w, mask, at in parts:
                e |= (a >> t * w & mask) << at
            if e and e not in rows:
                rows[e] = (i, s)
    return n, rows


def _combine_candidates(cov: FixedPointCover, x: Sequence[int],
                        lift: Optional[Mat] = None) -> Mat:
    """sum_j x_j S_j over the section candidates, in the order of the
    unknowns of _section_rows, less psi = sum_g g lift g^-1 for a Z-linear
    lift: M -> P if given.  The rows of the summand Z[G/H] at row base are
    A*(rep_r) u, u = FB x_k with x_k its share of x; psi is equivariant, so
    it only takes its identity-coset row sum_h lift[coset hH] A(h) off u."""
    Mdual = dual(cov.M)
    mats = cov.M.expand() if lift is not None else {}
    S = Mat.zero(cov.P.rank, cov.M.rank)
    start = base = 0
    for H in cov.P.summands or []:
        reps, coset_of = H.cosets()
        FB = fixed_basis(Mdual, H)
        u = FB.mulvec(x[start:start + FB.cols])
        start += FB.cols
        for h, A in mats.items():
            for v, row in zip(lift.a[base + coset_of[h]], A.a):
                if v:
                    u = [a - v * b for a, b in zip(u, row)]
        if any(u):
            for r, rep in enumerate(reps):
                S.a[base + r] = Mdual.act(rep).mulvec(u)
        base += len(reps)
    return S


def verify_refutation(decision: InvertibilityDecision) -> bool:
    """True iff decision.refutation proves that the cover projection has no
    equivariant section: an m x m matrix Lam with <Lam, proj S> = 0 mod |G|
    for every section candidate S and trace Lam != 0 mod |G|.

    The pairings are recomputed mod |G| from decision.cover alone, not from
    the pruned equations, and Lam may be supported anywhere: with
    W = proj^T Lam, the candidate S_u of the summand Z[G/H] at row base
    pairs to sum_r W[base + r] . A*(rep_r) u = v . u with
    v = sum_r sum_s W[base + r][s] A*(rep_r)[s], one vector per summand.
    Only the nonzero columns s of Lam mod |G| enter W."""
    cov, Lam = decision.cover, decision.refutation
    M = cov.M
    N, m = M.group.order, M.rank
    if decision.answer or Lam is None or (Lam.rows, Lam.cols) != (m, m):
        return False
    if sum(Lam.a[i][i] for i in range(m)) % N == 0:
        return False
    W: dict[int, dict[int, int]] = {}  # cover row c -> {s: W[c][s] mod N}
    for prow, row in zip(cov.projection.matrix.a, Lam.a):
        entries = [(s, y % N) for s, y in enumerate(row) if y % N]
        if entries:
            for c, x in enumerate(prow):
                if x % N:
                    w = W.setdefault(c, {})
                    for s, y in entries:
                        w[s] = (w.get(s, 0) + x * y) % N
    Mdual = dual(M)
    base = 0
    for H in cov.P.summands or []:
        reps, _ = H.cosets()
        v = [0] * m
        for r, rep in enumerate(reps):
            A = Mdual.act(rep).a
            for s, y in W.get(base + r, {}).items():
                if y:
                    v = [x + y * z for x, z in zip(v, A[s])]
        base += len(reps)
        FB = fixed_basis(Mdual, H)
        if any(sum(x * y for x, y in zip(v, FB.col(j))) % N for j in range(FB.cols)):
            return False
    return True


def is_invertible(M: GLattice) -> InvertibilityDecision:
    """Decide whether M is a direct summand of a permutation lattice.

    The section system is solved mod |G| (module docstring), built and
    eliminated as packed rows.  Each prime p with p^2 | |G| is tried first:
    a lam with <lam, D_j> = 0 mod p for every j and trace lam != 0 mod p
    gives (|G|/p) lam, which kills every D_j mod |G| and keeps a nonzero
    trace mod |G|, so the system mod |G| is never built.  Yes answers still
    come from the solution mod |G|.  No answers carry a refutation and Yes
    answers an explicit equivariant section of the cover projection, both
    re-verified before returning.  The section is the solution mod |G|
    combined over the candidates, less the average over G of a lift of its
    error through the projection; the lift is skipped when the error is 0.
    """
    cov = fixed_point_cover(M)
    N, m = M.group.order, M.rank
    T = _orbit_spanning_indices(M)
    for d in [p for p, a in _factorint(N).items() if a > 1] + [N]:
        n, rows = _section_rows(cov, T, d)
        x, lam = solve_packed(list(rows), n, d)
        if lam is not None:
            Lam = Mat.zero(m, m)
            for (i, s), y in zip(rows.values(), lam):
                Lam.a[i][s] = N // d * y
            decision = InvertibilityDecision(False, None, cov, Lam)
            if not verify_refutation(decision):
                raise InternalCheckError("refutation failed its check against the composites")
            return decision
    # proj S = I + N Y with Y equivariant (module docstring); lift N Y away
    proj = cov.projection.matrix
    S = _combine_candidates(cov, x)
    R = proj.mul(S)
    if not R.is_identity():
        NY = [[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(R.a)]
        if any(v % N for row in NY for v in row):
            raise InternalCheckError("section system solution fails mod |G|")
        Y = Mat(m, m, [[v // N for v in row] for row in NY])
        S = _combine_candidates(cov, x, LinearSolver(proj).solve_matrix(Y))
        R = proj.mul(S)
    # re-verify the witness: section identity and equivariance, exactly
    if not R.is_identity():
        raise InternalCheckError("section candidate failed the identity check")
    witness = internal_map(M, cov.P, S)  # re-checks equivariance
    return InvertibilityDecision(True, witness, cov)


@dataclass
class FlabbyClassDecision:
    """Whether the flabby class of a lattice M is invertible.  A No carries
    either obstruction, a subgroup H with Sha^2_omega(H, M) = H^1(H, F) != 0
    and its invariants, read from M with no resolution, or invertibility,
    the section system's decision on the resolution tail F with its
    refutation; a Yes carries invertibility with its witness.  resolution is
    the resolution whose tail was decided, or None after an obstruction."""

    answer: bool
    invertibility: Optional[InvertibilityDecision] = None
    obstruction: Optional[tuple[Subgroup, AbelianInvariants]] = None
    resolution: Optional[FlabbyResolution] = None


def decide_flabby_class(M: GLattice) -> FlabbyClassDecision:
    """Decide whether the flabby class of M is invertible, by its H^1
    obstruction first (module docstring), read from M itself: the
    non-cyclic class heads of prime-power order are tested one at a time
    for Sha^2_omega (cohomology.nonflabby_heads in degree 2), and the first
    that fails is certified by sha_omega(H, M), which must be nontrivial: a
    trivial one is an InternalCheckError.  Only when every head passes is M
    resolved; its tail F is then coflabby and is_invertible(F) decides."""
    H = next(nonflabby_heads(M, 2), None)
    if H is None:
        res = flabby_resolution(M)
        dec = is_invertible(res.F)
        return FlabbyClassDecision(dec.answer, invertibility=dec, resolution=res)
    invariants = sha_omega(H, M)
    if invariants.is_trivial:
        raise InternalCheckError(
            f"Sha^2_omega at {H.members} is trivial but the F_p-rank test failed")
    return FlabbyClassDecision(False, obstruction=(H, invariants))


Fingerprint = dict[tuple[int, ...], AbelianInvariants]


def class_fingerprint(M: GLattice) -> Fingerprint:
    """Necessary-condition invariant of the flabby class of M: H^1(H, F) for
    the tail F of any flabby resolution, read as Sha^2_omega(H, M) with no
    resolution, for every nontrivial subgroup H, once per conjugacy class
    (cohomology.per_class); it does NOT decide equality of flabby classes.
    """
    G = M.group
    return per_class(G, [H for H in G.subgroups() if H.order > 1], lambda K: sha_omega(K, M))
