"""Fixed-point covers, flabby resolutions, and the invertibility decision.

The cover construction follows the classical recipe: for each subgroup H
(one per conjugacy class) and each Hermite-basis generator f of the fixed
sublattice M^H, adjoin a coset summand Z[G/H] whose identity coset maps to
f.  Two refinements keep covers small and make the class fingerprint
strictly additive over permutation summands:

* seeding: basis vectors that G permutes outright are covered first by one
  summand per orbit, mapping isomorphically onto the orbit block;
* frugality: a generator already contained in the image of the partial
  cover's H-fixed part is skipped.

Neither changes the contract (surjectivity of P^H -> M^H for every subgroup
H, which is machine-verified on every call, hence coflabbiness of the
kernel); they only pick a smaller P among the valid covers.

A cover is P and its projection only: flabby_resolution builds the kernel
C with cover_kernel, while the invertibility decision never builds it.

The invertibility decision searches for an integral equivariant section of
the cover projection.  Sections M -> Z[G/H] correspond to H-fixed
functionals on M (the coset-gH coordinate of the image of v is that
functional evaluated at g^-1 v), so candidates live in the small lattice
direct sum of (M*)^H over the summands, and the section condition becomes
one integer linear system there: sum_j x_j D_j = I for the composites
D_j = proj S_j.  The candidates of one summand are one block of matrices
A*(rep) FB, one per coset, and their composites are read off one product
of that block with the summand's projection columns (_section_blocks).
Soundness: a solution exhibits M as a direct summand of a permutation
lattice.  Completeness: if M is invertible, the cover sequence splits
because its kernel is coflabby, so the system is solvable.

The system is decided modulo N = |G|.  Let E = End_G(M) and L the span of
the D_j, so L lies in E.

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

So No answers carry such a Lam, checked against every composite by
verify_refutation; Yes answers carry the integral section that the exact
solve writes out, checked as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

from .cohomology import h1, is_flabby, tate_minus1, tate_zero
from .errors import InternalCheckError, ResourceBoundError
from .groups import Subgroup
from .lattices import (
    RANK_BOUND,
    GLattice,
    LatticeMap,
    dual,
    fixed_basis,
    internal_map,
    invariant_sublattice,
    permutation_lattice,
)
from .zlinalg import (
    AbelianInvariants,
    LatticeAccumulator,
    LinearSolver,
    Mat,
    kernel_basis,
    lattice_rank,
    refute_mod,
    solve_integer,
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
    """Yes carries witness, an equivariant section of the cover projection;
    No carries refutation, a matrix Lam mod |G| (see verify_refutation)."""

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
        self.G = M.group
        self.summands: list[Subgroup] = []
        self.cosets: list[tuple[tuple[int, ...], list[int]]] = []  # per summand
        self.columns: list[list[int]] = []  # projection columns, basis order
        self.summand_starts: list[int] = []

    def adjoin(self, H: Subgroup, f: list[int]):
        reps, coset_of = H.cosets()
        self.summand_starts.append(len(self.columns))
        for rep in reps:
            self.columns.append(self.M.act(rep).mulvec(f))
        self.summands.append(H)
        self.cosets.append((reps, coset_of))
        if len(self.columns) > RANK_BOUND:
            raise ResourceBoundError(f"cover rank exceeds bound {RANK_BOUND}")

    def summand_fixed_image_columns(self, S: Subgroup, index: int) -> list[list[int]]:
        """Images in M of a basis of (one summand)^S: a column per S-orbit."""
        mul = self.G.mul_table
        reps, coset_of = self.cosets[index]
        start = self.summand_starts[index]
        out = []
        unvisited = set(range(len(reps)))
        while unvisited:
            j = min(unvisited)
            orbit = set()
            stack = [j]
            while stack:
                cur = stack.pop()
                if cur in orbit:
                    continue
                orbit.add(cur)
                for s in S.generators:
                    stack.append(coset_of[mul[s][reps[cur]]])
            unvisited -= orbit
            col = [0] * self.M.rank
            for idx in orbit:
                c = self.columns[start + idx]
                col = [x + y for x, y in zip(col, c)]
            out.append(col)
        return out

    def fixed_image_lattice(self, S: Subgroup) -> LatticeAccumulator:
        """Image of P^S -> M^S for the current summand list."""
        acc = LatticeAccumulator(self.M.rank)
        acc.add(*(col for i in range(len(self.summands))
                  for col in self.summand_fixed_image_columns(S, i)))
        return acc


def fixed_point_cover(M: GLattice, frugal: bool = True) -> FixedPointCover:
    """Permutation cover P ->> M with per-subgroup surjectivity.

    With frugal=True (the default) basis orbits that G permutes are seeded
    with one summand each and generators already covered are skipped; with
    frugal=False every fixed-basis generator of every conjugacy-class
    representative gets its own summand (the plain textbook cover, useful as
    a cross-check because anything downstream must not depend on the choice).
    The per-subgroup surjectivity P^H ->> M^H is verified for EVERY subgroup
    before returning; failure raises InternalCheckError.  The kernel is not
    built here; cover_kernel builds it for the callers that read it.
    """
    G = M.group
    builder = _CoverBuilder(M)
    if frugal:
        for stab, j in _permutation_orbit_seeds(M):
            f = [1 if i == j else 0 for i in range(M.rank)]
            builder.adjoin(stab, f)
    reps = G.subgroup_conjugacy_representatives()
    for H in sorted(reps, key=lambda s: (-s.order, s.members)):
        FB = fixed_basis(M, H)
        if FB.cols == 0:
            continue
        image = builder.fixed_image_lattice(H) if frugal else None
        for j in range(FB.cols):
            f = FB.col(j)
            if not frugal or not image.contains(f):
                builder.adjoin(H, f)
                if frugal:
                    image.add(*builder.summand_fixed_image_columns(
                        H, len(builder.summands) - 1))

    P = permutation_lattice(G, builder.summands)
    proj_mat = Mat.from_cols(builder.columns, rows=M.rank)
    projection = internal_map(P, M, proj_mat)

    # hard postcondition: P^H ->> M^H for every subgroup (not only class reps)
    for S in G.subgroups():
        FB = fixed_basis(M, S)
        if FB.cols:
            image = builder.fixed_image_lattice(S)
            for j in range(FB.cols):
                if not image.contains(FB.col(j)):
                    raise InternalCheckError(
                        f"cover misses the {S.members}-fixed part of the base lattice")

    return FixedPointCover(M, P, projection)


def cover_kernel(cov: FixedPointCover) -> LatticeMap:
    """The inclusion C -> P of the kernel C of the cover projection, with the
    action of C solved from that of P.  C is coflabby because the cover is
    surjective on every fixed part."""
    K = kernel_basis(cov.projection.matrix)
    return internal_map(invariant_sublattice(cov.P, K), cov.P, K)


def flabby_resolution(M: GLattice, frugal: bool = True) -> FlabbyResolution:
    """0 -> M -> P -> F -> 0 by dualizing a fixed-point cover of the dual.

    All exactness conditions are machine-checked, and F is verified flabby;
    a failure of either is an internal error, never a user error.
    """
    cov = fixed_point_cover(dual(M), frugal=frugal)
    inclusion = cover_kernel(cov)
    P = cov.P  # a permutation lattice is its own dual
    F = dual(inclusion.source)
    inj = internal_map(M, P, cov.projection.matrix.transpose())
    surj = internal_map(P, F, inclusion.matrix.transpose())

    # exactness checks
    if lattice_rank(inj.matrix) != M.rank:
        raise InternalCheckError("resolution injection is not injective")
    if not surj.matrix.mul(inj.matrix).is_zero():
        raise InternalCheckError("resolution composite is nonzero")
    if M.rank + F.rank != P.rank:
        raise InternalCheckError("resolution ranks do not add up")
    ker = kernel_basis(surj.matrix)
    img_solver = LinearSolver(inj.matrix)
    for j in range(ker.cols):
        if img_solver.solve(ker.col(j)) is None:
            raise InternalCheckError("image of injection is not saturated")
    if not P.is_permutation_lattice():
        raise InternalCheckError("middle term is not a permutation lattice")
    if not is_flabby(F):
        raise InternalCheckError("resolution tail failed the flabby check")
    return FlabbyResolution(M, P, F, inj, surj)


def _section_blocks(M: GLattice, P: GLattice) -> list[tuple[int, list[Mat]]]:
    """Z-basis of the equivariant maps M -> P, one (base, Y) block per coset
    summand Z[G/H] of P, which starts at row base.

    Equivariant maps M -> Z[G/H] are in bijection with H-fixed dual vectors
    u: the row of the coset rep_r H is u^T A(rep_r^-1) = (A*(rep_r) u)^T.  So
    with FB the basis of (M*)^H, Y[r] = A*(rep_r) FB, and column j of Y[r] is
    row base + r of the summand's candidate j."""
    Mdual = dual(M)
    out: list[tuple[int, list[Mat]]] = []
    base = 0
    for H in P.summands or []:
        reps, _ = H.cosets()
        FB = fixed_basis(Mdual, H)
        out.append((base, [Mdual.act(rep).mul(FB) for rep in reps]))
        base += len(reps)
    return out


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


def verify_refutation(decision: InvertibilityDecision) -> bool:
    """True iff decision.refutation proves that the cover projection has no
    equivariant section: an m x m matrix Lam with <Lam, proj S> = 0 mod |G|
    for every section candidate S and trace Lam != 0 mod |G|.

    The pairings are recomputed from decision.cover alone, not from the
    pruned equations: with W = proj^T Lam, the candidate S_u of the summand
    Z[G/H] at row base pairs to sum_r W[base + r] . A*(rep_r) u
    = (sum_r A(rep_r^-1) W[base + r]) . u, one vector per summand."""
    cov, Lam = decision.cover, decision.refutation
    M, G = cov.M, cov.M.group
    N, m = G.order, M.rank
    if decision.answer or Lam is None or (Lam.rows, Lam.cols) != (m, m):
        return False
    if sum(Lam.a[i][i] for i in range(m)) % N == 0:
        return False
    W = cov.projection.matrix.transpose().mul(Lam).a
    base = 0
    for H in cov.P.summands or []:
        reps, _ = H.cosets()
        v = [0] * m
        for r, rep in enumerate(reps):
            v = [x + y for x, y in zip(v, M.act(G.inv(rep)).mulvec(W[base + r]))]
        base += len(reps)
        FB = fixed_basis(dual(M), H)
        if any(sum(x * y for x, y in zip(v, FB.col(j))) % N for j in range(FB.cols)):
            return False
    return True


def is_invertible(M: GLattice, frugal: bool = True) -> InvertibilityDecision:
    """Decide whether M is a direct summand of a permutation lattice.

    The section system is decided mod |G| (module docstring).  No answers
    carry a refutation and Yes answers an explicit equivariant section of
    the cover projection, both re-verified before returning.
    """
    cov = fixed_point_cover(M, frugal=frugal)
    if M.rank == 0:
        ident = internal_map(M, cov.P, Mat.zero(cov.P.rank, 0))
        return InvertibilityDecision(True, ident, cov)
    N = M.group.order
    blocks = _section_blocks(M, cov.P)
    proj = cov.projection.matrix
    m = M.rank
    T = _orbit_spanning_indices(M)
    # the composites D_k = proj S_k of a summand, columns s in T only, in one
    # product: with flat(Y) the n x tc matrix whose row r is rows T of Y[r]
    # read row by row, entry (i, tc + k) of proj[:, base:base + n] flat(Y) is
    # D_k[i][T[t]]
    products = []
    for base, Y in blocks:
        n, c = len(Y), Y[0].cols
        if c:
            cols = Mat(m, n, [row[base:base + n] for row in proj.a])
            flat = Mat(n, len(T) * c, [[x for s in T for x in y.a[s]] for y in Y])
            products.append((c, cols.mul(flat).a))
    # one equation per entry (i, s), s in T, of (sum x_j D_j) e_s = e_s, keyed
    # by (coefficients, target) and kept at its first entry; zero equations
    # with target 0 are dropped
    entries: dict[tuple[tuple[int, ...], int], tuple[int, int]] = {}
    for i in range(m):
        for t, s in enumerate(T):
            key = (tuple(chain.from_iterable(C[i][t * c:(t + 1) * c] for c, C in products)),
                   int(i == s))
            if key not in entries and (i == s or any(key[0])):
                entries[key] = (i, s)
    A = Mat(len(entries), sum(c for c, _ in products), [list(row) for row, _ in entries])
    rhs = [target for _, target in entries]
    lam = refute_mod(A, rhs, N)
    if lam is not None:
        Lam = Mat.zero(m, m)
        for (i, j), y in zip(entries.values(), lam):
            Lam.a[i][j] = y
        decision = InvertibilityDecision(False, None, cov, Lam)
        if not verify_refutation(decision):
            raise InternalCheckError("refutation failed its check against the composites")
        return decision
    x = solve_integer(A, rhs)
    if x is None:
        raise InternalCheckError("section system solvable mod |G| but not over Z")
    S = Mat.zero(cov.P.rank, m)
    start = 0
    for base, Y in blocks:
        xk = x[start:start + Y[0].cols]
        start += len(xk)
        if any(xk):
            for r, y in enumerate(Y):
                S.a[base + r] = y.mulvec(xk)
    # re-verify the witness: section identity and equivariance, exactly
    if not proj.mul(S).is_identity():
        raise InternalCheckError("section candidate failed the identity check")
    witness = internal_map(M, cov.P, S)  # re-checks equivariance
    return InvertibilityDecision(True, witness, cov)


Fingerprint = dict[tuple[int, ...], tuple[AbelianInvariants, AbelianInvariants, AbelianInvariants]]


def class_fingerprint(M: GLattice) -> Fingerprint:
    """Necessary-condition invariant of the flabby class of M.

    Table over all nontrivial subgroups H of the cohomology of the resolution
    tail F in degrees -1, 0, 1.  Invariant under M -> M + (permutation
    lattice); it does NOT decide equality of flabby classes.
    """
    F = flabby_resolution(M).F
    table: Fingerprint = {}
    for H in M.group.subgroups():
        if H.order == 1:
            continue
        table[H.members] = (tate_minus1(H, F), tate_zero(H, F), h1(H, F))
    return table
