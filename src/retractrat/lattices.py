"""G-lattices: integral representations of finite groups by unimodular matrices.

Conventions (fixed once, used everywhere): the action is by columns, i.e.
sigma sends the basis element x_j to sum_i a_ij x_i where a_ij is column j
of A(sigma), and composition is the left action A(gh) = A(g) A(h).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import InternalCheckError, ResourceBoundError, UserInputError
from .groups import (
    FiniteGroup,
    Subgroup,
    catalog_group,
    is_index_key,
    is_int,
    is_int_matrix,
    parse_group,
    unit_group_mod_2n,
)
from .zlinalg import (
    LinearSolver,
    Mat,
    hermite_basis,
    kernel_basis,
)

RANK_BOUND = 512  # lattice documents and fixed-point covers


class GLattice:
    """Integral representation: one unimodular rank x rank matrix per generator,
    expanded lazily (and verified) to every group element.  When every
    generator permutes the basis, perms holds per generator s the index
    permutation p with A(s) e_j = e_p[j], and products with A(s) are
    reindexings (act_mul, mul_act).  permutation_lattice stores only perms;
    action builds their 0/1 matrices on its first read.  A permutation
    lattice also records its summands: the stabilizer H of each Z[G/H]
    block, whose basis is the cosets of H in the order of H.cosets().  The
    lattice keeps what is derived from it (expansion, character, dual,
    fixed bases), each built on first use; none of it refers back to the
    lattice."""

    def __init__(self, group: FiniteGroup, rank: int, action: Optional[dict[int, Mat]],
                 summands: Optional[list[Subgroup]] = None,
                 check: bool = True,
                 perms: Optional[dict[int, Sequence[int]]] = None):
        self.group = group
        self.rank = rank
        self.summands = summands
        self._expanded: Optional[dict[int, Mat]] = None
        self._character: Optional[tuple[int, ...]] = None
        self._dual: Optional[GLattice] = None
        self._fixed: dict[Subgroup, Mat] = {}
        if perms is None:
            self.action = given = dict(action)
            for g, m in given.items():
                if m.rows != rank or m.cols != rank:
                    raise UserInputError(f"matrix for generator {g} has wrong shape")
            found = {s: m.as_permutation() for s, m in given.items()}
            self.perms = None if None in found.values() else found
        else:
            self.perms = given = {s: tuple(p) for s, p in perms.items()}
            for s, p in given.items():
                if sorted(p) != list(range(rank)):
                    raise InternalCheckError(f"generator {s} does not permute the basis")
        if set(given) != set(group.generators):
            raise UserInputError("action must be given on exactly the group generators")
        if check:
            # verifies the homomorphism property; A(s)^ord(s) = I then makes
            # every A(s) invertible over Z
            self.expand()

    @cached_property
    def action(self) -> dict[int, Mat]:
        """A(s) for every generator s; a lattice given as permutations
        builds their 0/1 matrices on the first read and keeps them."""
        return {s: Mat.from_permutation(p) for s, p in self.perms.items()}

    def expand(self) -> dict[int, Mat]:
        """A(g) for every g, from A(g * s) = A(g) A(s) over the generators s;
        FiniteGroup.extend checks that this defines a homomorphism.  With
        perms the walk composes permutations; otherwise a step reads only
        the nonzero entries of A(g) and of A(s), the latter listed once."""
        # build-then-publish: the map is assigned only once complete, so
        # concurrent readers never observe a partial expansion
        if self._expanded is None:
            n, perms = self.rank, self.perms
            if perms is not None:
                walk = self.group.extend(tuple(range(n)),
                                         lambda p, s: tuple(map(p.__getitem__, perms[s])), "action")
                self._expanded = {g: Mat.from_permutation(p) for g, p in walk.items()}
            else:
                nonzero = {s: [[(j, y) for j, y in enumerate(row) if y] for row in A.a]
                           for s, A in self.action.items()}

                def step(A: Mat, s: int) -> Mat:
                    out = []
                    for row in A.a:
                        acc = [0] * n
                        for x, terms in zip(row, nonzero[s]):
                            if x:
                                for j, y in terms:
                                    acc[j] += x * y
                        out.append(acc)
                    return Mat(n, n, out)

                self._expanded = self.group.extend(Mat.identity(n), step, "action")
        return self._expanded

    def character(self) -> tuple[int, ...]:
        """tr A(g) for every element g, read from the expansion once."""
        if self._character is None:
            mats, n = self.expand(), self.rank
            self._character = tuple(sum(mats[g].a[i][i] for i in range(n))
                                    for g in self.group.elements())
        return self._character

    def act(self, g: int) -> Mat:
        """A(g); a generator's matrix is read without expanding."""
        m = self.action.get(g)
        return m if m is not None else self.expand()[g]

    def act_mul(self, s: int, B: Mat) -> Mat:
        """A(s) B for a generator s.  With perms, row p[k] of it is row k of
        B; otherwise a product."""
        if self.perms is None:
            return self.act(s).mul(B)
        rows: list = [None] * B.rows
        for k, row in zip(self.perms[s], B.a):
            rows[k] = row[:]
        return Mat(B.rows, B.cols, rows)

    def mul_act(self, B: Mat, s: int) -> Mat:
        """B A(s) for a generator s.  With perms, column j of it is column
        p[j] of B; otherwise a product."""
        if self.perms is None:
            return B.mul(self.act(s))
        p = self.perms[s]
        return Mat(B.rows, B.cols, [list(map(row.__getitem__, p)) for row in B.a])

    def is_permutation_lattice(self) -> bool:
        # products of permutation matrices are permutation matrices
        return self.perms is not None

    def __repr__(self) -> str:
        gname = self.group.name or f"order-{self.group.order} group"
        return f"GLattice(rank {self.rank} over {gname})"


@dataclass
class LatticeMap:
    """Equivariant map between lattices over the same group, as a matrix
    (target rank x source rank) acting on column vectors.  Equivariance,
    B A(s) = A(s) B, is checked at every generator s, by reindexing on a
    side that has perms (GLattice.mul_act, act_mul)."""

    source: GLattice
    target: GLattice
    matrix: Mat

    def __post_init__(self):
        if self.source.group is not self.target.group:
            raise UserInputError("source and target live over different groups")
        if (self.matrix.rows, self.matrix.cols) != (self.target.rank, self.source.rank):
            raise UserInputError("map matrix has wrong shape")
        for s in self.source.group.generators:
            if self.source.mul_act(self.matrix, s) != self.target.act_mul(s, self.matrix):
                raise UserInputError(f"map is not equivariant at generator {s}")


def internal_map(source: GLattice, target: GLattice, matrix: Mat) -> LatticeMap:
    """LatticeMap for a map the library built itself: a failed shape or
    equivariance check there is a bug, so it raises InternalCheckError."""
    try:
        return LatticeMap(source, target, matrix)
    except UserInputError as exc:
        raise InternalCheckError(str(exc)) from exc


# -- constructors ----------------------------------------------------------------


def permutation_lattice(G: FiniteGroup, stabilizers: Sequence[Subgroup]) -> GLattice:
    """Direct sum of coset lattices Z[G/H] for the given stabilizers.

    The basis is the concatenated coset lists, and g sends the coset rep*H
    to (g*rep)*H.  The lattice stores that as one index permutation per
    generator (GLattice.perms) and builds no matrix until one is read.
    stabilizers=[trivial] gives the regular lattice Z[G].
    """
    if any(H.parent is not G for H in stabilizers):
        raise UserInputError("stabilizer belongs to a different group")
    cosets = [H.cosets() for H in stabilizers]
    rank = sum(len(reps) for reps, _ in cosets)
    perms = {}
    for s in G.generators:
        row = G.mul_table[s]
        perm: list[int] = []
        for reps, coset_of in cosets:
            base = len(perm)
            perm += [base + coset_of[row[rep]] for rep in reps]
        perms[s] = perm
    return GLattice(G, rank, None, summands=list(stabilizers), check=False, perms=perms)


def regular_lattice(G: FiniteGroup) -> GLattice:
    return permutation_lattice(G, [G.trivial_subgroup()])


def trivial_lattice(G: FiniteGroup, rank: int = 1) -> GLattice:
    return GLattice(G, rank, {s: Mat.identity(rank) for s in G.generators}, check=False)


def dual(M: GLattice) -> GLattice:
    """Contragredient lattice: A*(g) = transpose(A(g^-1)), built on the first
    call and the same object on every later one; an expansion of M is
    transposed into the dual's.  An unexpanded M stays unexpanded: A(s^-1)
    is then A(s)^(ord(s)-1) unless s^-1 is itself a generator (the dual of
    a sublattice of a permutation lattice, given by a basis, is solved
    instead by sublattice_dual).  An involution up to exact matrix
    equality.  Permutation matrices are orthogonal, so a permutation lattice
    is its own dual and is returned as it is."""
    if M.summands is not None:
        return M
    if M._dual is None:
        G = M.group

        def inverse(s: int) -> Mat:
            if G.inv(s) in M.action or M._expanded is not None:
                return M.act(G.inv(s))
            A = out = M.action[s]
            for _ in range(G.element_order(s) - 2):
                out = out.mul(A)
            return out

        action = {s: inverse(s).transpose() for s in G.generators}
        D = GLattice(G, M.rank, action, check=False)
        if M._expanded is not None:
            D._expanded = {g: M._expanded[G.inv(g)].transpose() for g in G.elements()}
        M._dual = D
    return M._dual


def direct_sum(M: GLattice, N: GLattice) -> GLattice:
    if M.group is not N.group:
        raise UserInputError("direct sum needs lattices over the same group")
    G = M.group
    rank = M.rank + N.rank

    def block(s):
        out = Mat.zero(rank, rank)
        a, b = M.act(s), N.act(s)
        for i in range(M.rank):
            row = out.a[i]
            arow = a.a[i]
            for j in range(M.rank):
                row[j] = arow[j]
        for i in range(N.rank):
            row = out.a[M.rank + i]
            brow = b.a[i]
            for j in range(N.rank):
                row[M.rank + j] = brow[j]
        return out

    summands = None
    if M.summands is not None and N.summands is not None:
        summands = list(M.summands) + list(N.summands)
    return GLattice(G, rank, {s: block(s) for s in G.generators},
                    summands=summands, check=False)


def restrict(M: GLattice, H: Subgroup) -> GLattice:
    """Same matrices, group replaced by H as a standalone group."""
    if H.parent is not M.group:
        raise UserInputError("subgroup belongs to a different group")
    K = H.as_group()
    index = {g: i for i, g in enumerate(H.members)}
    action = {index[h]: M.act(h) for h in H.generators}
    return GLattice(K, M.rank, action, check=False)


def action_kernel(M: GLattice) -> Subgroup:
    """{g : A(g) = identity}; M is faithful iff this is trivial."""
    ident = Mat.identity(M.rank)
    members = [g for g, m in M.expand().items() if m == ident]
    return M.group.subgroup(members)


def conjugated(M: GLattice, T: Mat) -> GLattice:
    """Basis change by a unimodular T of M's size: action g -> T A(g) T^-1.
    T is unimodular exactly when it is square with an integral inverse."""
    square = (T.rows, T.cols) == (M.rank, M.rank)
    Tinv = LinearSolver(T).solve_matrix(Mat.identity(M.rank)) if square else None
    if Tinv is None:
        raise UserInputError(f"basis change must be unimodular of size {M.rank}")
    action = {s: M.mul_act(T, s).mul(Tinv) for s in M.group.generators}
    return GLattice(M.group, M.rank, action, check=False)


# -- sublattices --------------------------------------------------------------------


def _solve_stable(solver: LinearSolver, B: Mat) -> Mat:
    """X with B = K X for the basis K of solver; a B outside the span of K
    means K is not action-stable, an internal error."""
    X = solver.solve_matrix(B)
    if X is None:
        raise InternalCheckError("sublattice is not action-stable")
    return X


def invariant_sublattice(M: GLattice, K: Mat) -> GLattice:
    """The sublattice L spanned by the columns of K (a basis), with the action
    solved from that of M: A(s) K = K X(s).  A K that the action does not
    map into itself is an internal error."""
    solver = LinearSolver(K)
    action = {s: _solve_stable(solver, M.act_mul(s, K)) for s in M.group.generators}
    return GLattice(M.group, K.cols, action, check=False)


def sublattice_dual(P: GLattice, K: Mat) -> GLattice:
    """The dual L* of the sublattice L of the permutation lattice P spanned
    by the columns of K (a basis), without building L: A*(s) = X^T for the
    X with A_P(s^-1) K = K X, which is A_L(s^-1).  A_P(s^-1) K is K with its
    rows reindexed through P's permutation p for s (row k is row p[k] of
    K), so each generator takes one solve and no product."""
    solver = LinearSolver(K)
    action = {s: _solve_stable(solver, Mat(K.rows, K.cols, [K.a[k] for k in p])).transpose()
              for s, p in P.perms.items()}
    return GLattice(P.group, K.cols, action, check=False)


def fixed_basis(M: GLattice, H: Subgroup) -> Mat:
    """Canonical (Hermite) basis, as columns, of the sublattice fixed by H;
    computed once per lattice and subgroup, and shared, so never mutated."""
    FB = M._fixed.get(H)
    if FB is None:
        rows: list[list[int]] = []
        for h in H.generators:
            A = M.act(h)
            for i in range(M.rank):
                row = A.a[i][:]
                row[i] -= 1
                rows.append(row)
        FB = M._fixed[H] = (kernel_basis(Mat(len(rows), M.rank, rows)) if rows
                            else Mat.identity(M.rank))
    return FB


def fixed_rank(M: GLattice, H: Subgroup) -> int:
    """rank M^H without a basis: the multiplicity of the trivial character,
    (1/|H|) sum over h in H of tr A(h), read from M.character().  An
    average that is not an integer in [0, rank] is an internal error."""
    chi = M.character()
    r, rem = divmod(sum(chi[h] for h in H.members), H.order)
    if rem or not 0 <= r <= M.rank:
        raise InternalCheckError(f"trace average of a lattice over {H.members} is not a rank")
    return r


# -- the Lenstra lattice -----------------------------------------------------------


@dataclass
class LenstraData:
    """The rank q-1 lattice of units-indexed monomials and its congruence kernel.

    q = 2^n; pi is the unit group (Z/q)^x acting on basis elements e_i
    (i a nonzero residue mod q) by t . e_i = e_{ti mod q}; phi(e_i) = i in Z/q;
    M is the kernel of phi with the restricted action, written in a Hermite
    basis.  The omitted fixed coordinate of the ambient construction
    corresponds to one rational parameter and is reported in verdict traces.
    """

    q: int
    pi: FiniteGroup
    N: GLattice
    phi: tuple[int, ...]
    M: GLattice
    inclusion: LatticeMap


def lenstra_lattice(n: int) -> LenstraData:
    if not 2 <= n <= 7:
        raise ResourceBoundError("lenstra lattice supported for 2 <= n <= 7")
    q = 2 ** n
    pi = unit_group_mod_2n(n)
    units = [1] + [u for u in range(3, q, 2)]
    residues = list(range(1, q))  # basis indices i = 1..q-1
    pos = {r: i for i, r in enumerate(residues)}
    rank_n = q - 1

    perms = {s: [pos[units[s] * r % q] for r in residues] for s in pi.generators}
    N = GLattice(pi, rank_n, None, check=False, perms=perms)
    phi = tuple(r % q for r in residues)

    # kernel of phi over Z: solutions of sum(i * x_i) = 0 mod q, computed as the
    # integer kernel of [phi | q] with the auxiliary coordinate dropped
    row = [list(phi) + [q]]
    K_aug = kernel_basis(Mat.from_rows(row, rank_n + 1))
    cols = [K_aug.col(j)[:rank_n] for j in range(K_aug.cols)]
    K = hermite_basis(cols, rank_n)
    if K.cols != rank_n:
        raise InternalCheckError("congruence kernel has unexpected rank")

    M = invariant_sublattice(N, K)
    inclusion = internal_map(M, N, K)
    return LenstraData(q, pi, N, phi, M, inclusion)


# -- seeded random lattices (used by the reproduction suites) ----------------------


def augmentation_kernel(G: FiniteGroup, H: Subgroup) -> GLattice:
    """Kernel of the coset-sum map Z[G/H] -> Z, rank [G:H] - 1.

    Its dual is the character lattice of the norm-one torus of the
    corresponding extension; these are the simplest lattices whose flabby
    classes can fail to be invertible.
    """
    P = permutation_lattice(G, [H])
    return invariant_sublattice(P, kernel_basis(Mat.from_rows([[1] * P.rank])))


def random_lattice(G: FiniteGroup, max_rank: int, rng: random.Random) -> GLattice:
    """Small random G-lattice: a direct sum of coset blocks, trivial blocks,
    sign-twisted rank-1 blocks and (dual) augmentation kernels, conjugated by
    a few elementary unimodular moves."""
    rank_target = rng.randint(1, max_rank)
    blocks: list[GLattice] = []
    total = 0
    subs = G.subgroups()
    index2 = [H for H in subs if H.is_normal and G.order // H.order == 2]
    while total < rank_target:
        room = rank_target - total
        options = ["trivial"]
        if index2:
            options.append("sign")
        fitting = [H for H in subs if G.order // H.order <= room]
        if fitting:
            options.append("coset")
        aug_fitting = [H for H in subs if 2 <= G.order // H.order <= room + 1]
        if aug_fitting:
            options.extend(["aug", "coaug"])
        kind = rng.choice(options)
        if kind == "trivial":
            blocks.append(trivial_lattice(G, 1))
        elif kind == "sign":
            H = rng.choice(index2)
            mats = {s: Mat.from_rows([[-1 if s not in H.members else 1]])
                    for s in G.generators}
            blocks.append(GLattice(G, 1, mats, check=False))
        elif kind in ("aug", "coaug"):
            H = rng.choice(aug_fitting)
            A = augmentation_kernel(G, H)
            blocks.append(dual(A) if kind == "coaug" else A)
        else:
            H = rng.choice(fitting)
            blocks.append(permutation_lattice(G, [H]))
        total += blocks[-1].rank
    lat = blocks[0]
    for b in blocks[1:]:
        lat = direct_sum(lat, b)
    # a few elementary unimodular conjugations with entries in {-1, 0, 1}
    n = lat.rank
    T = Mat.identity(n)
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-1, 1))
        for k in range(n):
            T.a[i][k] += c * T.a[j][k]
    return conjugated(lat, T)


# -- documents ----------------------------------------------------------------------


def generator_key(key, what: str) -> int:
    """The generator index that a document key names: a canonical decimal."""
    if not is_index_key(key):
        raise UserInputError(f"{what} key {key!r} is not a generator index")
    return int(key)


def parse_lattice(doc: dict) -> GLattice:
    """Lattice document: {"group": <group doc or catalog name>, "rank": r,
    "action": {"<generator index>": [[row-major matrix]]}}."""
    if not isinstance(doc, dict):
        raise UserInputError("lattice document must be an object")
    gspec = doc.get("group")
    if isinstance(gspec, str):
        G = catalog_group(gspec)
    elif isinstance(gspec, dict):
        G = parse_group(gspec)
    else:
        raise UserInputError("lattice document needs a 'group'")
    rank = doc.get("rank")
    action_doc = doc.get("action", {})
    if not is_int(rank) or rank < 0:
        raise UserInputError("lattice rank must be a non-negative integer")
    if rank > RANK_BOUND:
        raise ResourceBoundError(f"lattice rank {rank} exceeds bound {RANK_BOUND}")
    if not isinstance(action_doc, dict):
        raise UserInputError("lattice 'action' must be an object keyed by generator")
    action = {}
    for key, rows in action_doc.items():
        g = generator_key(key, "action")
        if rows == []:  # shorthand for the identity
            rows = Mat.identity(rank).a
        if not is_int_matrix(rows, rank, rank):
            raise UserInputError(f"action for generator {key} must be a "
                                 f"{rank}x{rank} list of integer rows")
        action[g] = Mat.from_rows(rows, rank)
    missing = set(G.generators) - set(action)
    if missing:
        raise UserInputError(f"action missing for generators {sorted(missing)}")
    extra = set(action) - set(G.generators)
    if extra:
        raise UserInputError(f"action given for non-generators {sorted(extra)}")
    return GLattice(G, rank, action, check=True)


def lattice_document(M: GLattice) -> dict:
    """The document parse_lattice reads back as M.  The action is written for
    the generators the reader will use: a catalog group's own when the group
    is written by name, else minimal_generators() of the table, which
    parse_group picks for a table document."""
    G = M.group
    doc_group: object = {"table": [list(r) for r in G.mul_table]}
    gens = None
    if G.name:
        doc_group["name"] = G.name
        try:
            named = catalog_group(G.name)
            if named.mul_table == G.mul_table:
                doc_group, gens = G.name, named.generators  # no table needed
        except UserInputError:
            pass
    if gens is None:
        gens = G.minimal_generators()
    return {
        "group": doc_group,
        "rank": M.rank,
        "action": {str(s): M.act(s).to_lists() for s in gens},
    }
