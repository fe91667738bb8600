"""Exact integer matrix algebra: Hermite/Smith normal forms, kernels, solving.

Everything here works over Z with Python's arbitrary-precision integers,
except the elimination modulo N.  A Mat is a list of rows of Python ints,
zeros included.  There is one integer elimination, row_hermite: its pivot
in each column is the nonzero entry of minimal absolute value, ties broken
by the smallest row, which keeps coefficient growth tame and makes every
output deterministic.  It carries the transform in the same rows as the
matrix, and a row operation reads only the pivot row's nonzero entries,
so its cost follows the nonzeros rather than the row length; the pivots,
the operations and so every output are those of the dense elimination.
LinearSolver and LatticeAccumulator reduce vectors against its output,
and the Smith form alternates row_hermite passes on a matrix and on its
transpose.

There is one elimination modulo a prime power, _unit_pivot_sweep, in two
modes.  solve_packed solves or refutes a system modulo N, one prime power
p^a of N at a time, back-substituting through the sweeps' pivot rows.  Its
rows are packed rows mod N: each row of the system is a single Python int,
one fixed-width lane of bits per unknown plus one for the right-hand side
(pack_lanes), with the lane width taken from N (lane_layout), so that
every p^a reduces the same rows.  Subtracting a multiple of the pivot row
is then one big-int multiply-add and a lane-wise reduction
(lane_reduction), run in C rather than entry by entry.  Callers that build
their system mod N can build it in this layout directly, with the same
multiply-add and reduction.  valuation_counts runs the same rounds on
vectors packed mod p^a without a right-hand side and counts the pivots of
each round: round t + 1 counts the invariant factors of the span of
p-valuation t, which decides a cokernel's p-torsion when it is killed by
p^(a-1).
rank_packed is its one round mod p, the rank over F_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import mul
from typing import Callable, Iterable, NamedTuple, Optional, Sequence


class Mat:
    """Dense integer matrix. Rows of Python ints; shape is explicit so that
    0 x n and n x 0 matrices are first-class (they show up as empty kernels
    and rank-zero lattices)."""

    __slots__ = ("rows", "cols", "a")

    def __init__(self, rows: int, cols: int, a: list[list[int]]):
        self.rows = rows
        self.cols = cols
        self.a = a

    @classmethod
    def from_rows(cls, a: Sequence[Sequence[int]], cols: Optional[int] = None) -> "Mat":
        """Matrix with the given rows; every entry must be an int (not a bool)."""
        rows = len(a)
        if rows == 0:
            if cols is None:
                raise ValueError("cols required for a 0-row matrix")
            return cls(0, cols, [])
        width = len(a[0])
        if cols is not None and cols != width:
            raise ValueError("cols mismatch")
        if any(len(row) != width for row in a):
            raise ValueError("ragged rows")
        if not {type(x) for row in a for x in row} <= {int}:
            raise ValueError("matrix entries must be integers")
        return cls(rows, width, [list(row) for row in a])

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[int]], rows: Optional[int] = None) -> "Mat":
        """Matrix with the given columns: from_rows(cols, rows).transpose()."""
        return cls.from_rows(cols, rows).transpose()

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Mat":
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def from_permutation(cls, perm: Sequence[int]) -> "Mat":
        """The 0/1 matrix sending e_j to e_perm[j]: column j is e_perm[j]."""
        n = len(perm)
        a = [[0] * n for _ in range(n)]
        for j, i in enumerate(perm):
            a[i][j] = 1
        return cls(n, n, a)

    def col(self, j: int) -> list[int]:
        return [row[j] for row in self.a]

    def columns(self) -> list[list[int]]:
        return [self.col(j) for j in range(self.cols)]

    def transpose(self) -> "Mat":
        a = [list(col) for col in zip(*self.a)] if self.rows else [[] for _ in range(self.cols)]
        return Mat(self.cols, self.rows, a)

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ob = other.a
        out = []
        for row in self.a:
            acc = [0] * other.cols
            for k, x in enumerate(row):
                if x:
                    brow = ob[k]
                    for j, y in enumerate(brow):
                        if y:
                            acc[j] += x * y
            out.append(acc)
        return Mat(self.rows, other.cols, out)

    def mulvec(self, v: Sequence[int]) -> list[int]:
        """self v, reading only the nonzero entries of v."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        terms = [(j, x) for j, x in enumerate(v) if x]
        return [sum(row[j] * x for j, x in terms) for row in self.a]

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.a for x in row)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(x == (1 if i == j else 0)
                   for i, row in enumerate(self.a) for j, x in enumerate(row))

    def as_permutation(self) -> Optional[tuple[int, ...]]:
        """perm with from_permutation(perm) == self, or None unless this is
        a 0/1 matrix with exactly one 1 per row and column."""
        n = self.rows
        if n != self.cols:
            return None
        perm = [-1] * n
        for i, row in enumerate(self.a):
            if row.count(0) != n - 1 or 1 not in row:
                return None
            j = row.index(1)
            if perm[j] >= 0:
                return None
            perm[j] = i
        return tuple(perm)

    def to_lists(self) -> list[list[int]]:
        return [row[:] for row in self.a]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.a == other.a

    def __repr__(self) -> str:
        return f"Mat({self.rows}x{self.cols}, {self.a})"


@dataclass(frozen=True)
class AbelianInvariants:
    """Finite-rank abelian group Z^free_rank + Z/d1 + ... with d1 | d2 | ...

    Divisors are all >= 2 and stored in ascending divisibility order, so two
    values compare equal iff the groups are isomorphic.
    """

    divisors: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self):
        prev = 1
        for d in self.divisors:
            if d < 2 or d % prev != 0:
                raise ValueError(f"bad divisor chain {self.divisors}")
            prev = d
        if self.free_rank < 0:
            raise ValueError("negative free rank")

    @property
    def is_trivial(self) -> bool:
        return not self.divisors and self.free_rank == 0

    def order(self) -> int:
        if self.free_rank:
            raise ValueError("infinite group")
        n = 1
        for d in self.divisors:
            n *= d
        return n

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"C{d}" for d in self.divisors]
        return " x ".join(parts) if parts else "0"

    def to_list(self) -> list[int]:
        return list(self.divisors)


TRIVIAL_GROUP_INVARIANTS = AbelianInvariants()


class SmithDecomposition(NamedTuple):
    U: Mat
    D: Mat
    V: Mat


def row_hermite(A: Mat, transform: bool = False):
    """Row-style Hermite normal form.

    Returns (H, U, pivots) with H = U*A when transform is requested, U
    unimodular, and (H, None, pivots) otherwise. H is the canonical echelon
    form: pivot columns strictly increase, pivots are positive, entries
    above a pivot lie in [0, pivot), zero rows sit at the bottom.

    Column by column from row r: the pivot is the nonzero entry of least
    absolute value, the smallest row on ties (the scan stops at +-1); it is
    swapped into row r and made positive, every row below subtracts its
    floor quotient times row r, and the least nonzero remainder (smallest
    row on ties) is the next pivot, until row r is the only nonzero one in
    the column.  Then the rows above subtract their floor quotients.

    U rides in the same rows as columns m..m+n-1, so a row operation
    updates both at once.  It reads only the (index, value) pairs of the
    pivot row's nonzero entries, listed at the first operation with that
    pivot row, and updates the target row in place; the rows are copies,
    so A is never changed.  H and U are split apart at return.
    """
    n, m = A.rows, A.cols
    if transform:
        a = [row + [0] * n for row in A.a]
        for i, row in enumerate(a):
            row[m + i] = 1
    else:
        a = [row[:] for row in A.a]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(m):
        if r >= n:
            break
        best = None
        for i in range(r, n):
            x = a[i][c]
            if x:
                x = -x if x < 0 else x
                if best is None or x < best_abs:
                    best, best_abs = i, x
                    if x == 1:
                        break
        if best is None:
            continue
        # Euclidean passes until only row r is nonzero in column c.
        while True:
            a[r], a[best] = a[best], a[r]
            row_r = a[r]
            piv = row_r[c]
            if piv < 0:
                row_r = a[r] = [-x for x in row_r]
                piv = -piv
            terms = None
            best = None
            for i in range(r + 1, n):
                row = a[i]
                x = row[c]
                if x:
                    q = x // piv
                    if q:
                        if terms is None:
                            terms = [(j, z) for j, z in enumerate(row_r) if z]
                        for j, z in terms:
                            row[j] -= q * z
                        x = row[c]
                    if x and (best is None or x < best_abs):
                        best, best_abs = i, x
            if best is None:
                break
        for i in range(r):
            row = a[i]
            x = row[c]
            if x:
                q = x // piv
                if q:
                    if terms is None:
                        terms = [(j, z) for j, z in enumerate(row_r) if z]
                    for j, z in terms:
                        row[j] -= q * z
        pivots.append((r, c))
        r += 1
    if transform:
        return Mat(n, m, [row[:m] for row in a]), Mat(n, n, [row[m:] for row in a]), pivots
    return Mat(n, m, a), None, pivots


def hermite_basis(columns: Iterable[Sequence[int]], dim: int) -> Mat:
    """Canonical basis (as columns) of the lattice spanned by the given columns.

    The result is the row-HNF of the transposed generator list, transposed
    back, with zero rows dropped: unique per lattice, pivots in ascending
    coordinate order.  The columns are taken as they are, unchecked.
    """
    rows = [list(col) for col in columns]
    H, _, pivots = row_hermite(Mat(len(rows), dim, rows))
    return Mat(len(pivots), dim, H.a[:len(pivots)]).transpose()


def kernel_basis(A: Mat) -> Mat:
    """Saturated basis of {x : A*x = 0}, as columns, canonically normalized.

    Computed from a unimodular transform U with U*A^T in echelon form: the
    rows of U matching zero rows of the echelon span the kernel lattice
    exactly (saturation comes for free from unimodularity).
    """
    H, U, pivots = row_hermite(A.transpose(), transform=True)
    pivot_rows = {r for r, _ in pivots}
    kernel_rows = [U.a[i] for i in range(A.cols) if i not in pivot_rows]
    return hermite_basis(kernel_rows, A.cols)


def _reduce(H: list[list[int]], pivots: Sequence[tuple[int, int]],
            b: Sequence[int]) -> Optional[list[tuple[int, int]]]:
    """Pairs (r, y) with b = sum of y * H[r], or None if b is not in the span
    of the pivot rows of the row_hermite form H; exact divisions only."""
    residual = list(b)
    coeffs: list[tuple[int, int]] = []
    for r, c in pivots:
        val = residual[c]
        piv = H[r][c]
        if val % piv:
            return None
        y = val // piv
        if y:
            row = H[r]
            residual = [x - y * z for x, z in zip(residual, row)]
            coeffs.append((r, y))
    return None if any(residual) else coeffs


class LinearSolver:
    """Prepared solver for repeated A*x = b queries against a fixed A."""

    def __init__(self, A: Mat):
        self.A = A
        self._H, self._U, self._pivots = row_hermite(A.transpose(), transform=True)

    def solve(self, b: Sequence[int]) -> Optional[list[int]]:
        if len(b) != self.A.rows:
            raise ValueError("dimension mismatch")
        coeffs = _reduce(self._H.a, self._pivots, b)
        if coeffs is None:
            return None
        x = [0] * self.A.cols
        for r, y in coeffs:
            urow = self._U.a[r]
            x = [xi + y * ui for xi, ui in zip(x, urow)]
        return x

    def solve_matrix(self, B: Mat) -> Optional[Mat]:
        """Solve A*X = B columnwise; None if any column fails."""
        cols = []
        for j in range(B.cols):
            x = self.solve(B.col(j))
            if x is None:
                return None
            cols.append(x)
        return Mat.from_cols(cols, rows=self.A.cols)


def solve_integer(A: Mat, b: Sequence[int]) -> Optional[list[int]]:
    """Some integral solution of A*x = b, or None if there is none."""
    return LinearSolver(A).solve(b)


def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=256)
def lane_layout(N: int) -> tuple[int, int]:
    """(k, L) for rows packed mod N: lanes of L bits whose values stay below
    2^k, k = bitlen(N^2 - 1); L = k when N is a power of two, 2k otherwise
    (lane_reduction gives the reason)."""
    k = max(1, (N * N - 1).bit_length())
    return k, k if N & (N - 1) == 0 else 2 * k


def pack_lanes(values: Sequence[int], N: int) -> int:
    """One int holding each value reduced mod N, value j in lane j of L bits
    (lane_layout), shifted in from the highest lane down."""
    L = lane_layout(N)[1]
    x = 0
    for v in reversed(values):
        x = x << L | v % N
    return x


def unpack_lanes(x: int, lanes: int, N: int) -> list[int]:
    """The values in lanes 0..lanes-1 of an int packed as by pack_lanes."""
    L = lane_layout(N)[1]
    lane = (1 << L) - 1
    return [x >> L * j & lane for j in range(lanes)]


@lru_cache(maxsize=256)
def lane_reduction(m: int, N: int, lanes: int) -> Callable[[int], int]:
    """The map reducing lanes 0..lanes-1 of a nonnegative int packed mod N
    (pack_lanes) mod m, for lanes below 2^k, k = bitlen(N^2 - 1); built once
    per (m, N, lanes) and shared.

    A power of two m is an AND.  Otherwise Barrett: with mu = 2^k // m the
    estimate e = (x * mu) >> k is floor(x/m) or one less, so y = x - e*m
    lies in [0, 2m) and one conditional subtraction of m finishes; y >= m
    exactly when y + 2^b - m (b = bitlen(m)) has bit b set.  x*mu stays
    below 2^(2k), so lanes of L = 2k bits keep every lane's product in its
    own lane, and the estimate is read from the low k bits of each lane
    after the shift.  Every lane value below N^2 is below 2^k, so a lane
    may hold the sum of a residue mod N and a product of two.
    """
    k, L = lane_layout(N)
    ones = ((1 << L * lanes) - 1) // ((1 << L) - 1)
    if m & (m - 1) == 0:
        mask = (m - 1) * ones
        return lambda x: x & mask
    mu = (1 << k) // m
    low = ((1 << k) - 1) * ones
    b = m.bit_length()
    lift = ((1 << b) - m) * ones

    def reduce(x: int) -> int:
        y = x - (((x * mu) >> k) & low) * m
        return y - (((y + lift) >> b) & ones) * m
    return reduce


@lru_cache(maxsize=256)
def _prime_powers(N: int) -> tuple[tuple[int, int], ...]:
    return tuple(_factorint(N).items())


def solve_packed(rows: Sequence[int], n: int,
                 N: int) -> tuple[Optional[list[int]], Optional[list[int]]]:
    """Solve A*x = b (mod N) for the system given as rows packed mod N: row
    i holds A[i][0..n-1] in lanes 0..n-1 and b[i] in lane n, each in [0, N)
    (pack_lanes).  (x, None) with a solution x, entries in [0, N), if it is
    solvable; otherwise (None, lam) with a row vector lam, one entry in
    [0, N) per row, with lam*A = 0 and lam*b != 0 (mod N).

    Each prime power q = p^a exactly dividing N is eliminated on its own,
    on the same rows reduced mod q; the system is solvable mod N exactly
    when it is solvable mod every p^a.  Refutations, or else solutions, are
    glued by the Chinese remainder theorem.  A solution mod q is
    back-substituted through the pivot rows, last to first; unknowns that
    never pivot are 0.  The rows left after a round are zero at its pivots,
    so a solution mod p^(a-1) of them divided by p solves them mod p^a.
    """
    lam, solved = [0] * len(rows), []
    for p, a in _prime_powers(N):
        q = p ** a
        e = N // q * pow(N // q, -1, q)  # 1 mod q, 0 mod N/q
        steps, lam_q = _eliminate_prime_power(rows, n, N, p, a)
        if lam_q is None:
            solved.append((e, steps))
        else:
            lam = [(u + e * v) % N for u, v in zip(lam, lam_q)]
    if len(solved) < len(_prime_powers(N)):
        return None, lam
    L = lane_layout(N)[1]
    x = [0] * n
    for e, steps in solved:
        x_q = [0] * n
        for mod, (at, inv, prow) in reversed(steps):
            *coefficients, b = unpack_lanes(prow, n + 1, N)
            x_q[at // L] = (b - sum(map(mul, coefficients, x_q))) * inv % mod
        x = [(u + e * v) % N for u, v in zip(x, x_q)]
    return x, None


def _eliminate_prime_power(rows: Sequence[int], n: int, N: int, p: int, a: int,
                           ) -> tuple[Optional[list[tuple]], Optional[list[int]]]:
    """solve_packed's elimination mod q = p^a: (steps, None), the pivot rows
    of every round as (modulus, pivot of _unit_pivot_sweep), or (None, lam).

    Rounds of _unit_pivot_sweep, the first mod q.  A row left without a
    unit entry stays so for the rest of the round: the multiple of a pivot
    row subtracted from it is its entry at the pivot times a unit, hence
    divisible by p.  When no row has a unit entry, every remaining row is p
    times a row mod p^(a-1): a remaining rhs prime to p refutes the system,
    otherwise the rows are divided by p and the modulus drops to p^(a-1).

    The rows keep the layout of N: lanes of L = lane_layout(N)[1] bits, lane j
    < n the coefficient of unknown j and lane n the rhs, first reduced mod
    q and then mod the current modulus.  Each row carries its combination
    of the input rows as a second int, lane i holding the coefficient of
    input row i mod q, so a refuting row gives lam.  Dropping the modulus
    divides the whole int by p, which divides every lane exactly since
    every lane is divisible by p.
    """
    q = p ** a
    L = lane_layout(N)[1]
    lanes = max(n + 1, len(rows))
    unknowns = (1 << L * n) - 1
    reduce_lam = lane_reduction(q, N, lanes)
    residue = lane_reduction(p, N, lanes)
    work = []  # [row, combination]
    for i, r in enumerate(rows):
        if q < N:
            r = reduce_lam(r)
        if r:
            work.append([r, 1 << L * i])
    mod = q
    steps = []
    while work and mod > 1:
        # the rows without a unit entry this round
        work, pivots = _unit_pivot_sweep([r for r in work if r[0]], unknowns, L, mod,
                                         residue, lane_reduction(mod, N, lanes), reduce_lam)
        steps += [(mod, pivot) for pivot in pivots]
        for r, lam in work:
            if (r >> L * n) % p:
                # every entry is divisible by p: (mod/p)*lam kills A but not b
                return None, [mod // p * y % q for y in unpack_lanes(lam, len(rows), N)]
        mod //= p
        for r in work:
            r[0] //= p
    return steps, None


def _unit_pivot_sweep(queue: list[list[int]], unknowns: int, L: int, mod: int,
                      residue: Callable[[int], int], reduce: Callable[[int], int],
                      reduce_lam: Optional[Callable[[int], int]] = None,
                      ) -> tuple[list[list[int]], list[tuple[int, int, int]]]:
    """One round of Gaussian elimination with unit pivots mod a power `mod`
    of a prime p, on rows [row, ...] packed in lanes of L bits: returns the
    rows left without a unit entry and the pivot rows, both in order, each
    pivot row as (first bit of its pivot lane, pivot inverse mod `mod`, row).

    A row's unit entries are its lanes in `unknowns` (a mask of whole
    lanes) that are nonzero mod p (residue reduces every lane mod p); the
    lowest is its pivot.  A pivot row solves for its pivot unknown, is
    eliminated from every later row and every row left so far, and is set
    aside.  Subtracting a multiple of it is one multiply-add, r + c*prow
    with c below mod, and a lane-wise reduction mod `mod` (reduce): before
    it every lane is at most (mod-1) + (mod-1)^2 < mod^2, which the lanes
    of lane_layout hold for any mod dividing their N.  With reduce_lam the
    rows are [row, combination] and the combination takes the same
    multiple of the pivot row's, reduced by reduce_lam.

    Mod a prime the rows left over are zero and the pivot rows, in
    echelon order of their pivots, are a basis of the span: the number of
    pivots is the rank over F_p (rank_packed).  Mod p^a the pivot rows
    span a free summand, and the rows left over are divisible by p
    (valuation_counts).
    """
    lane = (1 << L) - 1
    rest = []
    pivots = []
    for t, pr in enumerate(queue):
        prow = pr[0]
        units = residue(prow) & unknowns
        if not units:
            rest.append(pr)
            continue
        at = ((units & -units).bit_length() - 1) // L * L
        inv = pow((prow >> at) & lane, -1, mod)
        pivots.append((at, inv, prow))
        pick = lane << at
        for r in chain(queue[t + 1:], rest):
            f = r[0] & pick
            if f:
                c = (mod - (f >> at)) * inv % mod
                r[0] = reduce(r[0] + c * prow)
                if reduce_lam:
                    r[1] = reduce_lam(r[1] + c * pr[1])
    return rest, pivots


def valuation_counts(rows: Iterable[int], n: int, p: int, a: int) -> list[int]:
    """counts[t], t < a: the number of invariant factors of p-valuation t of
    the span S of the vectors given as rows packed mod q = p^a with n lanes
    (pack_lanes), p prime.  Invariant factors of valuation a or more, and
    the zero ones, are not counted: n - sum(counts) is the free rank of
    Z^n / S plus the number of its torsion factors p^e with e >= a.

    Rounds of _unit_pivot_sweep mod p^a, p^(a-1), ..., p, as in
    _eliminate_prime_power; counts[t] is the number of pivots of round
    t + 1.  After a round mod p^b the pivot rows are unit-triangular on
    their pivot lanes and the rows left over are zero there, so
    (Z/p^b)^n is the pivot span, free with invariant factors 1, plus the
    other coordinates, which hold the rows left over.  Those have no unit
    entry, so every lane is divisible by p, and dividing them by p (which
    divides the whole int exactly) lowers the valuation of each of their
    invariant factors by one: the next round, mod p^(b-1), counts the
    factors of valuation 1 as units.
    """
    q = p ** a
    L = lane_layout(q)[1]
    unknowns = (1 << L * n) - 1
    residue = lane_reduction(p, q, n)
    work = [[r] for r in rows if r]
    counts = []
    mod = q
    while True:
        work, pivots = _unit_pivot_sweep(work, unknowns, L, mod, residue,
                                         lane_reduction(mod, q, n))
        counts.append(len(pivots))
        mod //= p
        if mod == 1:
            return counts
        work = [[r[0] // p] for r in work if r[0]]


def rank_packed(rows: Iterable[int], n: int, p: int) -> int:
    """Rank over F_p, p prime, of the vectors given as rows packed mod p
    with n lanes (pack_lanes): the one round of valuation_counts mod p."""
    return valuation_counts(rows, n, p, 1)[0]


class LatticeAccumulator:
    """Growing sublattice of Z^dim with exact membership tests.

    Holds the row_hermite form of the vectors added so far, one row per
    pivot: add() re-forms it together with the new vectors in one
    row_hermite call, and contains() reduces against it as LinearSolver.solve
    does.  Suited to cover construction, where an image grows a summand's
    worth of vectors at a time and membership is queried often.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: list[list[int]] = []
        self._pivots: list[tuple[int, int]] = []

    def add(self, *vecs: Sequence[int]):
        rows = self._rows + [list(v) for v in vecs]
        H, _, self._pivots = row_hermite(Mat(len(rows), self.dim, rows))
        self._rows = H.a[:len(self._pivots)]

    def contains(self, vec: Sequence[int]) -> bool:
        return _reduce(self._rows, self._pivots, vec) is not None

    def is_full(self, rank: int) -> bool:
        """True when the lattice has the given rank and every Hermite pivot
        is 1.  It is then saturated in Z^dim, so it contains every lattice
        vector of its rational span.  A saturated lattice may have larger
        pivots (the span of (2, 1)); this says False there."""
        return len(self._pivots) == rank and all(self._rows[r][c] == 1 for r, c in self._pivots)


def _smith(A: Mat, transforms: bool):
    """(U, D, V) with U*A*V = D, or (None, D, None) without transforms; U and
    V unimodular, D diagonal with d1 | d2 | ... >= 0.

    Kannan-Bachem: row Hermite passes on D and on D^T alternate until D is
    diagonal.  Where d_i does not divide d_j (i < j, d_i != 0), column j is
    added to column i, and the next row pass puts gcd(d_i, d_j) at (i, i).
    """
    n, m = A.rows, A.cols
    D = A
    U = Mat.identity(n) if transforms else None
    V = Mat.identity(m) if transforms else None
    row_pass = True
    while True:
        if row_pass:
            D, Ur, _ = row_hermite(D, transform=transforms)
            if transforms:
                U = Ur.mul(U)
        else:
            H, Uc, _ = row_hermite(D.transpose(), transform=transforms)
            D = H.transpose()
            if transforms:
                V = V.mul(Uc.transpose())
        row_pass = not row_pass
        if any(x for i, row in enumerate(D.a) for j, x in enumerate(row) if i != j):
            continue
        d = [D.a[t][t] for t in range(min(n, m))]
        fix = next(((i, j) for i in range(len(d)) if d[i]
                    for j in range(i + 1, len(d)) if d[j] % d[i]), None)
        if fix is None:
            return U, D, V
        i, j = fix
        D.a[j][i] = d[j]
        if transforms:
            for row in V.a:
                row[i] += row[j]
        row_pass = True


def smith_normal_form(A: Mat) -> SmithDecomposition:
    """Smith normal form with transforms: U*A*V = D, U and V unimodular,
    D diagonal with d1 | d2 | ... >= 0."""
    return SmithDecomposition(*_smith(A, transforms=True))


def smith_diagonal(A: Mat) -> list[int]:
    """Diagonal of the Smith form only (no transforms)."""
    _, D, _ = _smith(A, transforms=False)
    return [D.a[t][t] for t in range(min(A.rows, A.cols))]


def cokernel_invariants(A: Mat, ambient_rank: int) -> AbelianInvariants:
    """Invariants of Z^ambient_rank / columnspan(A); unit divisors dropped."""
    if A.rows != ambient_rank:
        raise ValueError(f"matrix has {A.rows} rows, ambient rank is {ambient_rank}")
    diag = smith_diagonal(A)
    nonzero = [d for d in diag if d]
    free = ambient_rank - len(nonzero)
    return AbelianInvariants(tuple(d for d in nonzero if d > 1), free)


def quotient_invariants(basis: Mat, subgens: Mat) -> AbelianInvariants:
    """Invariants of L / L' where basis columns span L and subgens columns
    span a sublattice L' of L. The coordinates of every generator in the
    basis must be integral (this is asserted, not assumed)."""
    if basis.cols == 0:
        if not subgens.is_zero():
            raise ValueError("sublattice not contained in the zero lattice")
        return TRIVIAL_GROUP_INVARIANTS
    solver = LinearSolver(basis)
    coords = solver.solve_matrix(subgens)
    if coords is None:
        raise ValueError("generators do not lie in the span of the basis")
    return cokernel_invariants(coords, basis.cols)
