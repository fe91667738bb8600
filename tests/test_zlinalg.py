"""Exact linear algebra: normal forms, kernels, solving, invariants."""

import itertools
import random
from typing import Optional

import pytest

from conftest import cokernel_invariants, det, quotient_invariants, refute_mod
from retractrat import zlinalg
from retractrat.errors import InternalCheckError
from retractrat.groups import catalog_group, catalog_groups_upto
from retractrat.lattices import (
    augmentation_kernel,
    dual,
    fixed_basis,
    lenstra_lattice,
    random_lattice,
)
from retractrat.resolutions import fixed_point_cover
from retractrat.zlinalg import (
    AbelianInvariants,
    LatticeAccumulator,
    LinearSolver,
    Mat,
    _factorint,
    hermite_basis,
    kernel_basis,
    lane_layout,
    pack_lanes,
    rank_packed,
    row_hermite,
    smith_diagonal,
    smith_normal_form,
    solve_integer,
    solve_packed,
    unpack_lanes,
    valuation_counts,
)


def random_matrix(rng, rows, cols, bound=9):
    return Mat.from_rows([[rng.randint(-bound, bound) for _ in range(cols)]
                          for _ in range(rows)], cols)


class TestSmith:
    def test_example_2468(self):
        # d1 = gcd of entries = 2, d1*d2 = |det| = 8
        A = Mat.from_rows([[2, 4], [6, 8]])
        U, D, V = smith_normal_form(A)
        assert [D.a[0][0], D.a[1][1]] == [2, 4]
        assert U.mul(A).mul(V) == D

    def test_identity(self):
        A = Mat.identity(3)
        _, D, _ = smith_normal_form(A)
        assert D == Mat.identity(3)

    def test_zero_matrix(self):
        A = Mat.zero(2, 3)
        U, D, V = smith_normal_form(A)
        assert D.is_zero()
        assert U == Mat.identity(2) and V == Mat.identity(3)

    def test_empty_shapes(self):
        for rows, cols in [(0, 0), (0, 3), (3, 0)]:
            A = Mat.zero(rows, cols)
            U, D, V = smith_normal_form(A)
            assert U == Mat.identity(rows) and V == Mat.identity(cols)
            assert (D.rows, D.cols) == (rows, cols)
            assert smith_diagonal(A) == []

    def test_randomized_decomposition(self):
        rng = random.Random(12345)
        for _ in range(200):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            A = random_matrix(rng, rows, cols)
            U, D, V = smith_normal_form(A)
            assert U.mul(A).mul(V) == D
            assert det(U) in (1, -1) and det(V) in (1, -1)
            diag = [D.a[i][i] for i in range(min(rows, cols))]
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert D.a[i][j] == 0
            prev = None
            for d in diag:
                assert d >= 0
                if prev not in (None, 0):
                    assert d % prev == 0 or d == 0
                prev = d

    def test_diagonal_fast_path_agrees(self):
        rng = random.Random(99)
        for _ in range(100):
            A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            _, D, _ = smith_normal_form(A)
            assert smith_diagonal(A) == [D.a[i][i] for i in range(min(A.rows, A.cols))]

    def test_determinism(self):
        A = Mat.from_rows([[6, 4, 2], [8, 2, 9], [3, 3, 3]])
        first = smith_normal_form(A)
        second = smith_normal_form(A)
        assert first.U == second.U and first.D == second.D and first.V == second.V

    @pytest.mark.parametrize("diag, expected", [
        ([2, 3], [1, 6]),
        ([4, 6, 0], [2, 12, 0]),
        ([0, 3], [3, 0]),
        ([6, 10, 15], [1, 30, 30]),
        ([-4, 2], [2, 4]),
    ])
    def test_divisibility_fix(self, diag, expected):
        # diagonal inputs that are not divisor chains reach the column fix
        A = Mat.from_rows([[d if i == j else 0 for j in range(len(diag))]
                           for i, d in enumerate(diag)])
        before = A.to_lists()
        U, D, V = smith_normal_form(A)
        assert [D.a[i][i] for i in range(len(diag))] == expected
        assert U.mul(A).mul(V) == D
        assert det(U) in (1, -1) and det(V) in (1, -1)
        assert smith_diagonal(A) == expected
        assert A.to_lists() == before


class TestSolve:
    def test_simple(self):
        assert solve_integer(Mat.from_rows([[2]]), [4]) == [2]
        assert solve_integer(Mat.from_rows([[2]]), [3]) is None
        x = solve_integer(Mat.from_rows([[1, 2], [3, 4]]), [5, 11])
        assert x == [1, 2]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_integer(Mat.from_rows([[1, 2]]), [1, 2])

    def test_solution_verified(self):
        rng = random.Random(5)
        for _ in range(200):
            A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), bound=5)
            x0 = [rng.randint(-4, 4) for _ in range(A.cols)]
            b = A.mulvec(x0)
            x = solve_integer(A, b)
            assert x is not None
            assert A.mulvec(x) == b

    def test_underdetermined(self):
        A = Mat.from_rows([[2, 3]])
        x = solve_integer(A, [1])
        assert x is not None and 2 * x[0] + 3 * x[1] == 1


class TestRefuteMod:
    """Solvability mod N against brute force over (Z/N)^k and against the
    exact solve of [A | N I] y = b; the solutions of solve_packed checked
    by substitution."""

    @staticmethod
    def solvable_by_brute_force(A, b, N):
        return any(all((x - y) % N == 0 for x, y in zip(A.mulvec(v), b))
                   for v in itertools.product(range(N), repeat=A.cols))

    @staticmethod
    def solvable_over_z(A, b, N):
        # A x = b (mod N) exactly when A x + N y = b has an integral solution
        wide = Mat(A.rows, A.cols + A.rows,
                   [row + [N * (i == j) for j in range(A.rows)] for i, row in enumerate(A.a)])
        return solve_integer(wide, b) is not None

    @staticmethod
    def assert_refutes(lam, A, b, N):
        assert len(lam) == A.rows and all(0 <= y < N for y in lam)
        assert all(sum(y * A.a[i][j] for i, y in enumerate(lam)) % N == 0
                   for j in range(A.cols))
        assert sum(y * x for y, x in zip(lam, b)) % N != 0

    @staticmethod
    def assert_solves(x, A, b, N):
        assert len(x) == A.cols and all(0 <= y < N for y in x)
        assert all((u - v) % N == 0 for u, v in zip(A.mulvec(x), b))

    @staticmethod
    def layered(rng, N, rows, cols):
        """L D R with L (rows x k) lower and R (k x cols) upper unitriangular,
        k = min(rows, cols), and D diagonal with entries prod p^e, p | N and
        e below the exponent of p in N, the first e = 0 and one e = 1 when
        that exponent is at least 2: eliminating it mod p^a takes a round
        per power of p on D's diagonal, and the pivot rows of each round
        involve the unknowns that pivot in later rounds."""
        k = min(rows, cols)
        d = [1] * k
        for p, a in _factorint(N).items():
            e = [0, min(1, a - 1)] + [rng.randrange(a) for _ in range(k)]
            d = [x * p ** y for x, y in zip(d, e)]
        L = [[1 if i == j else rng.randint(-3, 3) if i > j else 0 for j in range(k)]
             for i in range(rows)]
        R = [[1 if i == j else rng.randint(-3, 3) if j > i else 0 for j in range(cols)]
             for i in range(k)]
        return Mat.from_rows([[sum(L[i][t] * d[t] * R[t][j] for t in range(k))
                               for j in range(cols)] for i in range(rows)], cols)

    @pytest.mark.parametrize("N", [2, 4, 6, 8, 9, 12])
    def test_agrees_with_brute_force(self, N):
        rng = random.Random(N)
        answers = set()
        for _ in range(60):
            rows, cols = rng.randint(1, 4), rng.randint(1, 3)
            A = Mat.from_rows([[rng.choice([0, 0, rng.randint(-2 * N, 2 * N)])
                                for _ in range(cols)] for _ in range(rows)], cols)
            b = [rng.randint(-N, N) for _ in range(rows)]
            lam = refute_mod(A, b, N)
            assert (lam is None) == self.solvable_by_brute_force(A, b, N)
            answers.add(lam is None)
            if lam is not None:
                self.assert_refutes(lam, A, b, N)
        assert answers == {True, False}

    @pytest.mark.parametrize("N", [16, 27, 32, 243, 343, 360, 864, 1024])
    def test_agrees_with_exact_oracle(self, N):
        # Rows of N - 1 are -1 modulo every prime power q of N, so every
        # entry is q - 1 and elimination meets the largest lane values,
        # (q - 1) + (q - 1)^2; with q = p^a, a >= 2, the rows left over are
        # then divided by p.  Half the systems are solvable by construction,
        # and the layered ones after them (self.layered) need two or more
        # rounds per prime of N, so back-substitution crosses rounds and
        # a composite N glues the solutions by CRT.
        rng = random.Random(N)
        answers = set()
        solved = 0
        for t in range(70):
            rows, cols = rng.randint(1, 14), rng.randint(1, 12)
            a = []
            for _ in range(rows):
                kind = rng.random()
                if kind < 0.2:
                    a.append([N - 1] * cols)
                elif kind < 0.4:
                    a.append([rng.choice([0, -1, N - 1, rng.randrange(N)]) for _ in range(cols)])
                else:
                    a.append([rng.randint(-3 * N, 3 * N) if rng.random() < 0.6 else 0
                              for _ in range(cols)])
            A = Mat.from_rows(a, cols) if t < 50 else self.layered(rng, N, rows, cols)
            if t % 2 or t >= 50:
                x = [rng.randrange(N) for _ in range(cols)]
                b = [y + N * rng.randint(-2, 2) for y in A.mulvec(x)]
            else:
                b = [rng.choice([-1, N - 1, rng.randrange(N)]) for _ in range(rows)]
            lam = refute_mod(A, b, N)
            assert (lam is None) == self.solvable_over_z(A, b, N)
            assert lam is None or t % 2 == 0 and t < 50
            answers.add(lam is None)
            if lam is not None:
                self.assert_refutes(lam, A, b, N)
            x, lam_packed = solve_packed([pack_lanes(row + [bi], N) for row, bi in zip(A.a, b)],
                                         cols, N)
            assert lam_packed == lam
            if lam is None:
                self.assert_solves(x, A, b, N)
                solved += 1
            else:
                assert x is None
        assert answers == {True, False}
        assert solved >= 45

    def test_prime_powers_combined(self):
        # 2x = 1 fails mod 2 only, 3x = 1 mod 3 only: the lambda refutes both
        A = Mat.from_rows([[2], [3]])
        lam = refute_mod(A, [1, 1], 6)
        assert lam is not None
        assert sum(y * x for y, x in zip(lam, [1, 1])) % 2 != 0
        assert sum(y * x for y, x in zip(lam, [1, 1])) % 3 != 0
        assert refute_mod(A, [2, 3], 6) is None

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            refute_mod(Mat.from_rows([[1, 2]]), [1, 2], 4)
        with pytest.raises(ValueError):
            refute_mod(Mat.from_rows([[2]]), [1], 0)
        assert refute_mod(Mat.from_rows([[2]]), [1], 1) is None


def rank_mod_p(A, p):
    return rank_packed([pack_lanes(row, p) for row in A.a], A.cols, p)


class TestRankModP:
    """The F_p-rank mode of the packed elimination against the Smith form:
    the rank of A over F_p is the number of Smith invariants prime to p."""

    @staticmethod
    def random_rows(rng, rows, cols, p):
        out = []
        for _ in range(rows):
            kind = rng.random()
            if kind < 0.15 or not cols:
                out.append([0] * cols)
            elif kind < 0.35 and len(out) >= 2:
                # a combination of two earlier rows, so ranks drop over Z too
                a, b = rng.sample(out, 2)
                x, y = rng.randint(-3, 3), rng.randint(-3, 3)
                out.append([x * u + y * v for u, v in zip(a, b)])
            elif kind < 0.5:
                # entries >= p and negative ones, mostly divisible by p
                out.append([p * rng.randint(-4, 4) + rng.choice([0, 0, 1, -1])
                            for _ in range(cols)])
            else:
                out.append([rng.choice([0, rng.randint(-3 * p, 3 * p)]) for _ in range(cols)])
        return out

    def test_agrees_with_smith_oracle(self):
        rng = random.Random(5)
        ranks = {p: set() for p in (2, 3, 5, 7)}
        for t in range(2000):
            p = (2, 3, 5, 7)[t % 4]
            rows, cols = rng.randint(0, 8), rng.randint(0, 8)
            A = Mat.from_rows(self.random_rows(rng, rows, cols, p), cols)
            expected = sum(1 for d in smith_diagonal(A) if d % p)
            assert rank_mod_p(A, p) == expected, (A, p)
            ranks[p].add(expected)
        assert all(len(r) >= 6 for r in ranks.values()), ranks

    def test_packed_rows_and_shapes(self):
        assert rank_mod_p(Mat.from_rows([], 5), 3) == 0
        assert rank_mod_p(Mat.from_rows([[], []]), 2) == 0
        assert rank_mod_p(Mat.from_rows([[2, 4], [6, 18]]), 2) == 0
        assert rank_mod_p(Mat.from_rows([[2, 4], [6, 18]]), 3) == 1
        assert rank_mod_p(Mat.from_rows([[2, 4], [6, 18]]), 5) == 2
        # rows packed mod p in the lanes of pack_lanes, read as they are
        vectors = [[1, 2, 3], [2, 4, 13], [-1, -2, -3]]
        assert rank_packed([pack_lanes(v, 7) for v in vectors], 3, 7) == 1
        assert rank_packed([pack_lanes(v, 5) for v in vectors], 3, 5) == 2


def random_unimodular(rng, n):
    """A product of random elementary row operations on I_n."""
    a = Mat.identity(n).a
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        kind = rng.random()
        if kind < 0.2:
            a[i], a[j] = a[j], a[i]
        elif kind < 0.3:
            a[i] = [-x for x in a[i]]
        else:
            c = rng.randint(-3, 3)
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return Mat(n, n, a)


class TestValuationCounts:
    """The p-adic rounds against the Smith form: round t + 1 counts the
    invariant factors of the row span of p-valuation t."""

    @staticmethod
    def counts(A, p, a):
        return valuation_counts([pack_lanes(row, p ** a) for row in A.a], A.cols, p, a)

    @staticmethod
    def expected(A, p, a):
        vals = []
        for d in smith_diagonal(A):
            if d:
                t = 0
                while d % p == 0:
                    d, t = d // p, t + 1
                vals.append(t)
        return [vals.count(t) for t in range(a)]

    def test_examples(self):
        assert self.counts(Mat.from_rows([[2, 0], [0, 4]]), 2, 3) == [0, 1, 1]
        assert self.counts(Mat.from_rows([[2, 0], [0, 4]]), 3, 1) == [2]
        assert self.counts(Mat.from_rows([[6, 0, 0], [0, 0, 0]]), 3, 2) == [0, 1]
        assert self.counts(Mat.from_rows([], 4), 5, 3) == [0, 0, 0]
        # a factor of valuation a or more reads as free
        assert self.counts(Mat.from_rows([[8]]), 2, 3) == [0, 0, 0]

    def test_seeded_diagonals_against_smith(self):
        rng = random.Random(28)
        seen = set()
        for trial in range(400):
            n = rng.choice([12, 16, 18, 72, 360])
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            divisors = [d for d in range(1, n + 1) if n % d == 0] + [0, 0]
            D = Mat.zero(rows, cols)
            for i in range(min(rows, cols)):
                D.a[i][i] = rng.choice(divisors)
            A = random_unimodular(rng, rows).mul(D).mul(random_unimodular(rng, cols))
            for p, k in _factorint(n).items():
                want = self.expected(A, p, k + 1)
                assert self.counts(A, p, k + 1) == want, (A, p)
                # fewer rounds see the valuations below their bound alone
                for a in range(1, k + 1):
                    assert self.counts(A, p, a) == want[:a], (A, p, a)
                seen.add((p, tuple(want)))
        assert len(seen) >= 60, len(seen)

    def test_rank_check_catches_a_short_bound(self, monkeypatch):
        # H^-1(C4, J_{C4/1}) = Z/4 has 2-valuation 2: with rounds mod 4 and
        # 2 alone it reads as free, and the per-prime rank check must fail
        import retractrat.cohomology as cohomology
        C4 = catalog_group("C4")
        J = dual(augmentation_kernel(C4, C4.trivial_subgroup()))
        assert cohomology.tate_minus1(C4.full_subgroup(), J) == AbelianInvariants((4,))
        rounds = cohomology.valuation_counts

        def short(rows, n, p, a):
            q = p ** (a - 1)
            return rounds([pack_lanes(unpack_lanes(r, n, p ** a), q) for r in rows], n, p, a - 1)
        monkeypatch.setattr(cohomology, "valuation_counts", short)
        with pytest.raises(InternalCheckError, match="wrong rank"):
            cohomology.tate_minus1(C4.full_subgroup(), J)


class TestPackedLanes:
    @pytest.mark.parametrize("N", [1, 2, 6, 8, 15, 4096, 4097, 1 << 20])
    def test_pack_and_unpack(self, N):
        if N > 1 and N & (N - 1) == 0:
            # lanes mod 2^B are 2B bits wide, with no room for Barrett
            B = N.bit_length() - 1
            assert lane_layout(N) == (2 * B, 2 * B)
        rng = random.Random(N)
        for lanes in (1, 2, 7, 40):
            values = [rng.randint(-3 * N, 3 * N) for _ in range(lanes)]
            x = pack_lanes(values, N)
            assert x < 1 << lanes * lane_layout(N)[1]
            assert unpack_lanes(x, lanes, N) == [v % N for v in values]


class TestKernel:
    def test_examples(self):
        assert kernel_basis(Mat.from_rows([[1, 1]])).columns() == [[1, -1]]
        assert kernel_basis(Mat.identity(2)).cols == 0
        assert kernel_basis(Mat.from_rows([[2, 4]])).columns() == [[2, -1]]

    def test_kernel_columns_annihilate(self):
        rng = random.Random(17)
        for _ in range(100):
            A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            K = kernel_basis(A)
            for j in range(K.cols):
                assert A.mulvec(K.col(j)) == [0] * A.rows

    def test_saturation(self):
        # stacking a kernel basis with any kernel vector must give unit divisors
        rng = random.Random(23)
        for _ in range(50):
            A = random_matrix(rng, rng.randint(1, 4), rng.randint(2, 5))
            K = kernel_basis(A)
            if K.cols == 0:
                continue
            coeffs = [rng.randint(-3, 3) for _ in range(K.cols)]
            vec = [sum(c * K.a[i][j] for j, c in enumerate(coeffs))
                   for i in range(K.rows)]
            stacked = Mat.from_cols(K.columns() + [vec], rows=K.rows)
            diag = [d for d in smith_diagonal(stacked) if d != 0]
            assert all(d == 1 for d in diag)

    def test_zero_column_count(self):
        K = kernel_basis(Mat.zero(2, 3))
        assert K.cols == 3


class TestHermite:
    def test_canonical_form(self):
        H, U, pivots = row_hermite(Mat.from_rows([[4, 6], [2, 2]]), transform=True)
        assert U.mul(Mat.from_rows([[4, 6], [2, 2]])) == H
        assert det(U) in (1, -1)
        for r, c in pivots:
            assert H.a[r][c] > 0
            for i in range(r):
                assert 0 <= H.a[i][c] < H.a[r][c]

    def test_block_diagonal_splits(self):
        # canonical bases of coordinate direct sums stay blockwise
        rows = [[2, 1, 0, 0], [0, 3, 0, 0], [0, 0, 5, 1]]
        H, _, pivots = row_hermite(Mat.from_rows(rows))
        for r, c in pivots:
            left = c < 2
            for j in range(4):
                if (j < 2) != left:
                    assert H.a[r][j] == 0

    def test_hermite_basis_canonical(self):
        cols = [[2, 4], [4, 2]]
        B1 = hermite_basis(cols, 2)
        B2 = hermite_basis(list(reversed(cols)), 2)
        assert B1 == B2


class TestInvariants:
    def test_cokernel_examples(self):
        assert cokernel_invariants(Mat.from_rows([[2]]), 1) == AbelianInvariants((2,), 0)
        assert cokernel_invariants(Mat.identity(2), 2).is_trivial
        got = cokernel_invariants(Mat.from_rows([[2, 0], [0, 3]]), 2)
        assert got == AbelianInvariants((6,), 0)

    def test_free_rank(self):
        got = cokernel_invariants(Mat.from_cols([[2, 0]], rows=2), 2)
        assert got == AbelianInvariants((2,), 1)

    def test_divisor_chain_enforced(self):
        with pytest.raises(ValueError):
            AbelianInvariants((3, 2), 0)

    def test_quotient_invariants(self):
        basis = Mat.identity(2)
        sub = Mat.from_cols([[2, 0], [0, 3]], rows=2)
        assert quotient_invariants(basis, sub) == AbelianInvariants((6,), 0)

    def test_str(self):
        assert str(AbelianInvariants()) == "0"
        assert str(AbelianInvariants((2, 4), 1)) == "Z x C2 x C4"


class TestMat:
    def test_mul_and_shapes(self):
        A = Mat.from_rows([[1, 2], [3, 4]])
        B = Mat.from_rows([[0, 1], [1, 0]])
        assert A.mul(B) == Mat.from_rows([[2, 1], [4, 3]])
        with pytest.raises(ValueError):
            A.mul(Mat.from_rows([[1, 2, 3]]))

    def test_empty_shapes(self):
        Z = Mat.zero(0, 3)
        K = Mat.zero(3, 0)
        assert K.transpose().rows == 0
        assert Z.transpose().cols == 0

    def test_mulvec_matches_the_dense_formula(self):
        rng = random.Random(2000)
        for case in range(2000):
            rows, cols = rng.randrange(6), rng.randrange(7)
            A = Mat(rows, cols, [[rng.randint(-9, 9) * (rng.random() < 0.5) for _ in range(cols)]
                                 for _ in range(rows)])
            kind = case % 4
            if kind == 0:  # all zero
                v = [0] * cols
            elif kind == 1:  # zero-heavy
                v = [rng.randint(-3, 3) if rng.random() < 0.2 else 0 for _ in range(cols)]
            elif kind == 2:  # negative
                v = [-rng.randint(1, 10 ** 12) for _ in range(cols)]
            else:
                v = [rng.randint(-5, 5) for _ in range(cols)]
            expected = [sum(A.a[i][j] * v[j] for j in range(cols)) for i in range(rows)]
            assert A.mulvec(v) == expected, (A, v)
        assert Mat.zero(3, 0).mulvec([]) == [0, 0, 0]
        with pytest.raises(ValueError):
            Mat.zero(2, 2).mulvec([1])

    def test_permutation_detection(self):
        assert Mat.from_rows([[0, 1], [1, 0]]).as_permutation() == (1, 0)
        assert Mat.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]]).as_permutation() == (1, 2, 0)
        assert Mat.from_rows([[0, -1], [1, 0]]).as_permutation() is None
        assert Mat.from_rows([[1, 1], [0, 0]]).as_permutation() is None
        assert Mat.from_permutation((1, 2, 0)) == Mat.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])

    def test_solver_reuse(self):
        A = Mat.from_rows([[2, 0], [0, 3]])
        solver = LinearSolver(A)
        assert solver.solve([4, 3]) == [2, 1]
        assert solver.solve([1, 1]) is None
        assert solver.solve([2, 0]) is not None

    @pytest.mark.parametrize("rows", [
        [[1.5, 2]], [[True, 2]], [["3", 2]], [[1, None]], [[1, 2], [3, 4.0]],
    ])
    def test_from_rows_rejects_non_integers(self, rows):
        with pytest.raises(ValueError):
            Mat.from_rows(rows)

    def test_from_rows_keeps_ints(self):
        rows = [[1, -2], [3, 10 ** 30]]
        M = Mat.from_rows(rows)
        assert M.a == rows and M.a[0] is not rows[0]

    def test_from_rows_rejects_bool_float_and_ragged_rows(self):
        # hermite_basis, kernel_basis and fixed_basis wrap their own rows
        # without it; every other caller keeps the check
        for bad in ([[True, 0]], [[1, 0.0]], [[1, 2], [3]], [[1], [2, 3]]):
            with pytest.raises(ValueError):
                Mat.from_rows(bad)

    def test_from_cols_is_transposed_from_rows(self):
        cols = [[1, 2, 3], [4, 5, 6]]
        assert Mat.from_cols(cols) == Mat.from_rows(cols).transpose()
        assert Mat.from_cols(cols).a == [[1, 4], [2, 5], [3, 6]]
        assert Mat.from_cols([], rows=2) == Mat(2, 0, [[], []])
        for bad, rows in [([[1, 2], [3, 4, 5]], None), ([[1, 2, 3], [4]], None),
                          ([[1, 2]], 3), ([[1, True]], None)]:
            with pytest.raises(ValueError):
                Mat.from_cols(bad, rows=rows)


class TestLatticeAccumulator:
    def test_contains_agrees_with_solver(self):
        rng = random.Random(31)
        for _ in range(150):
            dim = rng.randint(1, 6)
            vecs = [[rng.randint(-4, 4) * rng.randint(0, 1) for _ in range(dim)]
                    for _ in range(rng.randint(1, 6))]
            acc = LatticeAccumulator(dim)
            acc.add(*vecs)
            solver = LinearSolver(Mat.from_cols(vecs))
            for _ in range(10):
                # half the probes are combinations of the added vectors
                if rng.random() < 0.5:
                    coeffs = [rng.randint(-3, 3) for _ in vecs]
                    v = [sum(c * w[i] for c, w in zip(coeffs, vecs)) for i in range(dim)]
                else:
                    v = [rng.randint(-6, 6) for _ in range(dim)]
                member = acc.contains(v)
                assert member == (solver.solve(v) is not None)
                # independent of the shared reduction: v is a member iff
                # adjoining it leaves the cokernel unchanged
                assert member == (cokernel_invariants(Mat.from_cols(vecs + [v]), dim)
                                  == cokernel_invariants(Mat.from_cols(vecs), dim))
            assert acc.contains([0] * dim)

    def test_basis_independent_of_order_and_batching(self):
        rng = random.Random(37)
        for _ in range(100):
            dim = rng.randint(1, 5)
            vecs = [[rng.randint(-5, 5) for _ in range(dim)]
                    for _ in range(rng.randint(1, 7))]
            whole = LatticeAccumulator(dim)
            whole.add(*vecs)
            shuffled = vecs[:]
            rng.shuffle(shuffled)
            batched = LatticeAccumulator(dim)
            while shuffled:
                k = rng.randint(0, len(shuffled))
                batched.add(*shuffled[:k])
                shuffled = shuffled[k:]
            assert batched._rows == whole._rows
            assert Mat.from_cols(whole._rows, dim) == hermite_basis(vecs, dim)


# -- row_hermite against the dense elimination it replaced --------------------------
#
# _pick_pivot and _dense_row_hermite are the elimination as it was before row
# operations went through the pivot row's nonzero entries and the transform
# rode in the same rows: two full-length list comprehensions per operation.
# Every output must match it exactly, H, U and pivots alike.

def _pick_pivot(a: list[list[int]], start_row: int, col: int) -> Optional[int]:
    """Row index >= start_row minimizing |a[i][col]| over nonzero entries."""
    best = None
    best_abs = None
    for i in range(start_row, len(a)):
        x = a[i][col]
        if x:
            ax = -x if x < 0 else x
            if best_abs is None or ax < best_abs:
                best, best_abs = i, ax
                if ax == 1:
                    break
    return best


def _dense_row_hermite(A: Mat, transform: bool = False):
    """Row-style Hermite normal form.

    Returns (H, U, pivots) with H = U*A when transform is requested, U
    unimodular. H is the canonical echelon form: pivot columns strictly
    increase, pivots are positive, entries above a pivot lie in [0, pivot),
    zero rows sit at the bottom.
    """
    a = [row[:] for row in A.a]
    n, m = A.rows, A.cols
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if transform else None
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(m):
        if r >= n:
            break
        # Euclidean passes until only row r is nonzero in column c.
        while True:
            i = _pick_pivot(a, r, c)
            if i is None:
                break
            if i != r:
                a[r], a[i] = a[i], a[r]
                if u is not None:
                    u[r], u[i] = u[i], u[r]
            piv = a[r][c]
            if piv < 0:
                a[r] = [-x for x in a[r]]
                if u is not None:
                    u[r] = [-x for x in u[r]]
                piv = -piv
            done = True
            for i in range(r + 1, n):
                x = a[i][c]
                if x:
                    q = x // piv
                    if q:
                        row_r = a[r]
                        a[i] = [y - q * z for y, z in zip(a[i], row_r)]
                        if u is not None:
                            ur = u[r]
                            u[i] = [y - q * z for y, z in zip(u[i], ur)]
                    if a[i][c]:
                        done = False
            if done:
                break
        if r < n and a[r][c]:
            piv = a[r][c]
            for i in range(r):
                x = a[i][c]
                q = x // piv
                if q:
                    row_r = a[r]
                    a[i] = [y - q * z for y, z in zip(a[i], row_r)]
                    if u is not None:
                        ur = u[r]
                        u[i] = [y - q * z for y, z in zip(u[i], ur)]
            pivots.append((r, c))
            r += 1
    H = Mat(n, m, a)
    U = Mat(n, n, u) if transform else None
    return H, U, pivots


def _oracle_matrix(rng: random.Random, k: int) -> Mat:
    """The k-th seeded oracle input: empty and 1x1 shapes, small, tall and
    wide ones up to 100x150, densities 5-100 %, entries within +-1, +-9 or
    +-2^70 (random signs, so negative pivots), some columns forced zero."""
    kind = k % 20
    if kind == 0:
        rows, cols = rng.choice([(0, rng.randint(0, 6)), (rng.randint(0, 6), 0), (1, 1)])
    elif kind < 16:
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
    elif kind < 18:
        rows, cols = rng.randint(1, 40), rng.randint(1, 40)
    elif kind == 18:
        rows, cols = rng.randint(40, 100), rng.randint(5, 30)
    elif k % 200 == 199:
        rows, cols = rng.randint(80, 100), rng.randint(120, 150)
    else:
        rows, cols = rng.randint(5, 40), rng.randint(40, 150)
    # coefficient growth, more than the shape, sets the cost: 70-bit
    # entries only up to 64 cells, and the largest shapes sparse and +-1
    cells = rows * cols
    density = rng.choice([0.05] if cells > 8000 else [0.05, 0.1, 0.2] if cells > 1600
                         else [0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0])
    bound = rng.choice([1, 9, 2 ** 70] if cells <= 64 else [1] if cells > 8000 else [1, 9])
    zero_cols = set(rng.sample(range(cols), rng.randint(0, cols // 3)))
    return Mat(rows, cols, [[rng.randint(-bound, bound)
                             if j not in zero_cols and rng.random() < density else 0
                             for j in range(cols)] for _ in range(rows)])


def _assert_matches_oracle(A: Mat) -> None:
    before = A.to_lists()
    for transform in (False, True):
        H, U, pivots = row_hermite(A, transform=transform)
        H0, U0, pivots0 = _dense_row_hermite(A, transform=transform)
        assert (H.rows, H.cols, H.a) == (H0.rows, H0.cols, H0.a)
        assert pivots == pivots0
        if transform:
            assert (U.rows, U.cols, U.a) == (U0.rows, U0.cols, U0.a)
        else:
            assert U is None and U0 is None
        assert A.a == before


class TestRowHermiteOracle:
    def test_seeded_matrices(self):
        rng = random.Random(2718)
        for k in range(2000):
            _assert_matches_oracle(_oracle_matrix(rng, k))

    def test_library_inputs(self, monkeypatch):
        """Every row_hermite input met while forming fixed bases, fixed-point
        covers and cover kernels of augmentation kernels and random lattices
        over the catalog groups of order <= 16, and of the q=8 Lenstra lattice."""
        seen: list[Mat] = []
        original = zlinalg.row_hermite

        def record(A, transform=False):
            seen.append(Mat(A.rows, A.cols, A.to_lists()))
            return original(A, transform)

        monkeypatch.setattr(zlinalg, "row_hermite", record)
        rng = random.Random(16)
        lattices = [lenstra_lattice(3).M]
        for G in catalog_groups_upto(16):
            lattices += [augmentation_kernel(G, H) for H in G.subgroups() if H.order < G.order]
            lattices += [random_lattice(G, 6, rng) for _ in range(2)]
        for M in lattices:
            for H in M.group.subgroups():
                fixed_basis(M, H)
            kernel_basis(fixed_point_cover(M).projection.matrix)
        monkeypatch.undo()
        assert len(seen) > 1000
        for A in seen:
            _assert_matches_oracle(A)
