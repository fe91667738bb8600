"""Groups: parsing, subgroup enumeration, and the structure recognizers."""

import functools
import gc
import itertools
import random
import time
import weakref

import pytest

from retractrat.errors import InternalCheckError, UserInputError
from retractrat.groups import (
    CATALOG_NAMES,
    SUBGROUP_ORDER_BOUND,
    FiniteGroup,
    _factorint as factorint,
    catalog_group,
    catalog_groups_upto,
    cyclic_group,
    dihedral_group,
    direct_product,
    parse_group,
)
from retractrat.zlinalg import Mat, smith_diagonal

A5_DOC = {"perm_generators": [[2, 3, 4, 5, 1], [2, 3, 1, 4, 5]], "degree": 5, "name": "A5"}


def brute_force_subgroups(G):
    """Independent oracle: the subsets containing 0 that are closed, as
    sorted member tuples in (order, members) order."""
    n = G.order
    out = []
    for size in range(1, n + 1):
        if n % size:
            continue
        for subset in itertools.combinations(range(1, n), size - 1):
            mem = (0,) + subset
            ms = set(mem)
            if all(G.mul(a, b) in ms for a in mem for b in mem):
                out.append(mem)
    return out


def join_closure_subgroups(G):
    """Independent oracle with no solvability assumption: close the trivial
    subgroup under joins <H, z> with every prime-power cyclic generator z,
    each join a breadth-first closure; sorted member tuples."""
    cyclic = {}
    for g in range(1, G.order):
        if len(factorint(G.element_order(g))) == 1:
            cyclic.setdefault(G.closure([g]), g)
    found = {(0,): ()}  # members -> generators
    frontier = [(0,)]
    while frontier:
        nxt = []
        for members in frontier:
            for z in cyclic.values():
                if z in members:
                    continue
                join = G.closure(found[members] + (z,))
                if join not in found:
                    found[join] = found[members] + (z,)
                    nxt.append(join)
        frontier = nxt
    return sorted(found, key=lambda m: (len(m), m))


def elementary_abelian(rank):
    G = cyclic_group(2)
    for _ in range(rank - 1):
        G = direct_product(G, cyclic_group(2))
    return G


def product(*groups):
    G = groups[0]
    for H in groups[1:]:
        G = direct_product(G, H)
    return G


S4_DOC = {"perm_generators": [[2, 3, 4, 1], [2, 1, 3, 4]], "degree": 4, "name": "S4"}

# the groups of the subgroup-scan benchmark workload, with their subgroup counts
SCAN_GROUPS = {
    "S4": (lambda: parse_group(S4_DOC), 30),
    "S4xC2": (lambda: direct_product(parse_group(S4_DOC), cyclic_group(2)), 98),
    "C2^5": (lambda: elementary_abelian(5), 374),
    "D8xC2xC2": (lambda: product(dihedral_group(8), cyclic_group(2), cyclic_group(2)), 158),
    "C4xC2^3": (lambda: product(cyclic_group(4), elementary_abelian(3)), 118),
    "C4xC4xC2": (lambda: product(cyclic_group(4), cyclic_group(4), cyclic_group(2)), 54),
    "D16xC2": (lambda: direct_product(dihedral_group(16), cyclic_group(2)), 70),
    "D64": (lambda: dihedral_group(64), 69),
    "C8xC8": (lambda: direct_product(cyclic_group(8), cyclic_group(8)), 37),
    "C16xC4": (lambda: direct_product(cyclic_group(16), cyclic_group(4)), 29),
    "D32xC2": (lambda: direct_product(dihedral_group(32), cyclic_group(2)), 137),
    "C4^3": (lambda: product(cyclic_group(4), cyclic_group(4), cyclic_group(4)), 129),
    "D8xD8": (lambda: direct_product(dihedral_group(8), dihedral_group(8)), 389),
}


@functools.cache
def small_permutation_groups(count, seed, max_order=64):
    """count seeded random permutation groups of degree 3..8 and order at
    most max_order, parsed from small_permutation_documents."""
    return [parse_group(doc) for doc in small_permutation_documents(count, seed, max_order)]


def small_permutation_documents(count, seed, max_order=64):
    """count seeded permutation group documents of degree 3..8 whose groups
    have order at most max_order.  Half of the even-degree draws preserve
    the pairs {1,2}, {3,4}, ..., which yields 2-groups and wreath-like
    groups."""
    rng = random.Random(seed)

    def block_perm(degree):
        blocks = rng.sample(range(degree // 2), degree // 2)
        images = []
        for b in blocks:
            flip = rng.randrange(2)
            images += [2 * b + flip, 2 * b + 1 - flip]
        return tuple(images)

    out = []
    while len(out) < count:
        degree = rng.randint(3, 8)
        blocked = degree % 2 == 0 and rng.randrange(2)
        perms = [block_perm(degree) if blocked else tuple(rng.sample(range(degree), degree))
                 for _ in range(rng.randint(1, 3))]
        # close under products, giving up past max_order
        identity = tuple(range(degree))
        seen, frontier = {identity}, [identity]
        while frontier and len(seen) <= max_order:
            nxt = []
            for p in frontier:
                for s in perms:
                    r = tuple(p[i] for i in s)
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
            frontier = nxt
        if len(seen) <= max_order:
            out.append({"perm_generators": [[x + 1 for x in p] for p in perms],
                        "degree": degree})
    return out


def _cycle(start, n):
    return {start + i: start + (i + 1) % n for i in range(n)}


def _dihedral(start, n):
    return [_cycle(start, n), {start + i: start + (-i) % n for i in range(n)}]


def _cyclics(*orders):
    return [_cycle(sum(orders[:k]), n) for k, n in enumerate(orders)]


def _shift(gens, by):
    return [{a + by: b + by for a, b in g.items()} for g in gens]


# the subgroup-scan benchmark's permutation generators (0-based points), by
# the names of SCAN_GROUPS, in the benchmark's order
SCAN_PERMUTATIONS = {
    "S4": (4, [_cycle(0, 4), _cycle(0, 2)]),
    "S4xC2": (6, [_cycle(0, 4), _cycle(0, 2), _cycle(4, 2)]),
    "C2^5": (10, _cyclics(2, 2, 2, 2, 2)),
    "D8xC2xC2": (8, _dihedral(0, 4) + _shift(_cyclics(2, 2), 4)),
    "C4xC2^3": (10, _cyclics(4, 2, 2, 2)),
    "C4xC4xC2": (10, _cyclics(4, 4, 2)),
    "D16xC2": (10, _dihedral(0, 8) + [_cycle(8, 2)]),
    "D64": (32, _dihedral(0, 32)),
    "C8xC8": (16, _cyclics(8, 8)),
    "C16xC4": (20, _cyclics(16, 4)),
    "D32xC2": (18, _dihedral(0, 16) + [_cycle(16, 2)]),
    "C4^3": (12, _cyclics(4, 4, 4)),
    "D8xD8": (8, _dihedral(0, 4) + _dihedral(4, 4)),
}


def scan_permutation_documents(seed):
    """The subgroup-scan documents of a seed: the points relabelled by a
    seeded permutation and the generators shuffled, group after group."""
    rng = random.Random(seed)
    docs = []
    for name, (degree, gens) in SCAN_PERMUTATIONS.items():
        relabel = list(range(degree))
        rng.shuffle(relabel)
        images = []
        for g in gens:
            img = [0] * degree
            for i in range(degree):
                img[relabel[i]] = relabel[g.get(i, i)] + 1
            images.append(img)
        rng.shuffle(images)
        docs.append({"name": name, "degree": degree, "perm_generators": images})
    return docs


def composition_oracle(doc):
    """The table and generators a permutation document must parse to, by
    direct composition: the elements indexed in breadth-first discovery order
    (p∘s for p in order, s in the document's order), table[a][b] the index
    of elements[a]∘elements[b], generators the sorted non-identity indices
    of the document's permutations."""
    perms = [tuple(x - 1 for x in images) for images in doc["perm_generators"]]
    identity = tuple(range(doc["degree"]))
    elements, index = [identity], {identity: 0}
    for p in elements:
        for s in perms:
            r = tuple(p[i] for i in s)
            if r not in index:
                index[r] = len(elements)
                elements.append(r)
    table = tuple(tuple(index[tuple(a[i] for i in b)] for b in elements) for a in elements)
    return table, tuple(sorted({index[p] for p in perms if p != identity}))


# catalog names, scan-group names and the seeded random permutation groups
GROUP_SETS = list(CATALOG_NAMES) + list(SCAN_GROUPS) + ["random-permutation-groups"]


def group_set(name):
    if name in SCAN_GROUPS:
        return [SCAN_GROUPS[name][0]()]
    if name == "random-permutation-groups":
        return small_permutation_groups(200, seed=10)
    return [catalog_group(name)]


class TestParse:
    def test_c2_table(self):
        G = parse_group({"table": [[0, 1], [1, 0]]})
        assert G.order == 2
        assert G.mul(1, 1) == 0

    def test_s3_from_permutations(self):
        G = parse_group({"perm_generators": [[2, 3, 1], [2, 1, 3]], "degree": 3})
        assert G.order == 6

    def test_non_associative_rejected(self):
        # a Latin square that is not a group table (no associativity)
        table = [[0, 1, 2, 3, 4],
                 [1, 0, 3, 4, 2],
                 [2, 4, 0, 1, 3],
                 [3, 2, 4, 0, 1],
                 [4, 3, 1, 2, 0]]
        with pytest.raises(UserInputError):
            parse_group({"table": table})

    def test_cyclic_512_table_parses_fast(self):
        n = 512
        doc = {"table": [[(a + b) % n for b in range(n)] for a in range(n)]}
        start = time.process_time()
        G = parse_group(doc)
        assert time.process_time() - start < 2.0
        assert G.order == n and G.is_cyclic()

    def test_c2_power_10_permutations_parse_fast(self):
        # order 1024, the parse bound: ten disjoint transpositions on 20 points
        doc = {"degree": 20, "perm_generators": [
            [2 * i + 2 if x == 2 * i + 1 else 2 * i + 1 if x == 2 * i + 2 else x
             for x in range(1, 21)] for i in range(10)]}
        start = time.process_time()
        G = parse_group(doc)
        assert time.process_time() - start < 1.0
        assert G.order == 1024

    @pytest.mark.parametrize("seed", [1, 2])
    def test_scan_permutation_tables_match_composition(self, seed):
        for doc in scan_permutation_documents(seed):
            G = parse_group(doc)
            assert (G.mul_table, G.generators) == composition_oracle(doc), doc["name"]
            assert len(G.subgroups()) == SCAN_GROUPS[doc["name"]][1], doc["name"]

    def test_random_permutation_tables_match_composition(self):
        for doc in small_permutation_documents(200, seed=10):
            G = parse_group(doc)
            assert (G.mul_table, G.generators) == composition_oracle(doc), doc

    @pytest.mark.parametrize("doc", [
        {"degree": 3, "perm_generators": [[1, 2, 3], [2, 3, 1]]},  # identity generator
        {"degree": 4, "perm_generators": [[2, 1, 4, 3], [2, 3, 4, 1], [2, 1, 4, 3]]},
        {"degree": 3, "perm_generators": [[1, 2, 3]]},  # trivial group
        {"degree": 5, "perm_generators": []},
        {"degree": 1, "perm_generators": [[1]]},
        {"degree": 1, "perm_generators": []},
    ], ids=["identity-generator", "repeated-generator", "trivial", "no-generators",
            "degree-1", "degree-1-no-generators"])
    def test_edge_permutation_tables_match_composition(self, doc):
        G = parse_group(doc)
        assert (G.mul_table, G.generators) == composition_oracle(doc)

    @pytest.mark.parametrize("name", ["C1", "C2", "V4", "C12", "D8", "U(16)"])
    def test_table_document_builds_one_group(self, monkeypatch, name):
        from retractrat.groups import FiniteGroup

        calls = []
        build = FiniteGroup._build_inverses

        def counted(self):
            calls.append(self.order)
            return build(self)

        table = [list(row) for row in catalog_group(name).mul_table]
        monkeypatch.setattr(FiniteGroup, "_build_inverses", counted)
        G = parse_group({"table": table})
        assert calls == [len(table)]
        assert G.generators == G.minimal_generators()

    @pytest.mark.parametrize("table, message", [
        # element 1 has no inverse and element 2 only a one-sided one
        ([[0, 1, 2], [1, 1, 2], [2, 0, 1]], "element 1 has no inverse"),
        # element 1 has only a one-sided inverse and element 2 none
        ([[0, 1, 2], [1, 2, 0], [2, 2, 1]], "element 1 has no two-sided inverse"),
    ])
    def test_inverse_errors_in_element_order(self, table, message):
        from retractrat.groups import FiniteGroup

        with pytest.raises(UserInputError, match=f"^{message}$"):
            FiniteGroup(table, [1, 2], check=False)

    @pytest.mark.parametrize("table, generators", [
        ([[0, 1], [1, 0]], [-1]),
        ([[0, 1], [1, 0]], [5]),
        ([[0, 1], [1, 0]], [1.0]),
        ([[0, 1], [1, 0]], [True]),
        ([[0, 1], [1.0, 0]], [1]),
        ([[0, 1], [1, 0]], ["1"]),
    ])
    def test_entries_and_generators_checked_not_coerced(self, table, generators):
        from retractrat.groups import FiniteGroup

        with pytest.raises(UserInputError) as info:
            FiniteGroup(table, generators)
        assert "\n" not in str(info.value)

    def test_associativity_check_against_all_triples(self):
        """Seeded Latin squares with identity, group tables relabeled with 0
        fixed among them: the table parses exactly when every triple
        associates."""
        def associative(t):
            n = len(t)
            return all(t[t[a][b]][c] == t[a][t[b][c]]
                       for a in range(n) for b in range(n) for c in range(n))

        def random_loop(n, rng):
            # reduced Latin square: row and column 0 are the identity
            t = [[(j if i == 0 else i if j == 0 else None) for j in range(n)]
                 for i in range(n)]
            cells = [(i, j) for i in range(1, n) for j in range(1, n)]

            def fill(k):
                if k == len(cells):
                    return True
                i, j = cells[k]
                free = [v for v in range(n)
                        if v not in t[i] and all(t[r][j] != v for r in range(n))]
                rng.shuffle(free)
                for v in free:
                    t[i][j] = v
                    if fill(k + 1):
                        return True
                t[i][j] = None
                return False

            assert fill(0)
            return t

        def relabeled(t, perm):
            inv = {p: i for i, p in enumerate(perm)}
            return [[perm[t[inv[a]][inv[b]]] for b in range(len(t))]
                    for a in range(len(t))]

        rng = random.Random(17)
        tables = [[[0]], [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                          [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]]
        # Each element in turn becomes 1, the first generator picked.  Some
        # order-6 loops with two-sided inverses pass the test at 1 and fail
        # only at the second generator; about one in 40 does, hence 300.
        for n in [2, 3] + [4, 5] * 20 + [6] * 300:
            t = random_loop(n, rng)
            for g in range(1, n):
                perm = list(range(len(t)))
                perm[1], perm[g] = g, 1
                tables.append(relabeled(t, perm))
        for name in ("C2", "C3", "C4", "V4", "C5", "C6", "S3"):
            G = catalog_group(name)
            perm = [0] + rng.sample(range(1, G.order), G.order - 1)
            tables.append(relabeled(G.mul_table, perm))
        verdicts = set()
        for t in tables:
            try:
                parse_group({"table": t})
                accepted = True
            except UserInputError:
                accepted = False
            assert accepted == associative(t), t
            verdicts.add(accepted)
        assert verdicts == {True, False}

    def test_bad_permutation_rejected(self):
        with pytest.raises(UserInputError):
            parse_group({"perm_generators": [[1, 1, 2]], "degree": 3})

    def test_identity_is_zero(self):
        G = parse_group({"perm_generators": [[2, 1]], "degree": 2})
        assert all(G.mul(0, g) == g for g in range(G.order))


class TestSubgroups:
    @pytest.mark.parametrize("name,expected", [("C2", 2), ("S3", 6), ("V4", 5)])
    def test_counts(self, name, expected):
        assert len(catalog_group(name).subgroups()) == expected

    @pytest.mark.parametrize("name", ["C6", "S3", "V4", "D8", "Q8", "A4"])
    def test_counts_against_brute_force(self, name):
        # the full sorted member lists, which fixes the count as well
        G = catalog_group(name)
        assert [s.members for s in G.subgroups()] == brute_force_subgroups(G)

    def test_order_64_worst_case(self):
        # C2^6 has the most subgroups of any group inside the bound
        assert SUBGROUP_ORDER_BOUND == 64
        G = elementary_abelian(6)
        start = time.perf_counter()
        subs = G.subgroups()
        elapsed = time.perf_counter() - start
        assert len(subs) == 2825
        assert elapsed < 2.0

    def test_bound_keeps_every_proper_subgroup_solvable(self):
        assert SUBGROUP_ORDER_BOUND < 120, (
            "subgroups() finds solvable subgroups by prime-index extension and "
            "adds G itself; that is complete only while A5 (order 60) is the "
            "one non-solvable group inside the bound and no larger group "
            "contains it; revisit the argument in its docstring")

    def test_matches_join_closure_oracle_on_catalog_and_a5(self):
        for G in catalog_groups_upto(64) + [parse_group(A5_DOC)]:
            assert [s.members for s in G.subgroups()] == join_closure_subgroups(G), G

    @pytest.mark.parametrize("name", list(SCAN_GROUPS))
    def test_matches_join_closure_oracle_on_scan_groups(self, name):
        build, count = SCAN_GROUPS[name]
        G = build()
        members = [s.members for s in G.subgroups()]
        assert len(members) == count
        assert members == join_closure_subgroups(G)

    def test_matches_join_closure_oracle_on_random_permutation_groups(self):
        for G in small_permutation_groups(200, seed=10):
            assert [s.members for s in G.subgroups()] == join_closure_subgroups(G), \
                (G.order, G.generators)

    def test_non_solvable_a5(self):
        G = parse_group(A5_DOC)
        subs = G.subgroups()
        assert G.order == 60 and len(subs) == 59
        assert [s.order for s in subs if s.is_normal] == [1, 60]  # A5 is simple

    @pytest.mark.parametrize("name", GROUP_SETS)
    def test_normality_from_generators(self, name):
        for G in group_set(name):
            assert G.is_abelian() == all(G.mul(a, b) == G.mul(b, a)
                                         for a in range(G.order) for b in range(G.order))
            for S in G.subgroups():
                mem = set(S.members)
                assert S.is_normal == all(G.conjugate(g, h) in mem
                                          for g in range(G.order) for h in S.members)
                assert S.is_abelian() == all(G.mul(a, b) == G.mul(b, a)
                                             for a in S.members for b in S.members)

    def test_group_freed_without_cycle_collector(self):
        gc.disable()
        try:
            G = parse_group(A5_DOC)
            G.subgroups()
            ref = weakref.ref(G)
            del G
            assert ref() is None
        finally:
            gc.enable()

    def test_subgroup_group_kept_and_freed_without_cycle_collector(self):
        gc.disable()
        try:
            G = parse_group(A5_DOC)
            groups = [H.as_group() for H in G.subgroups()]
            assert all(H.as_group() is K for H, K in zip(G.subgroups(), groups))
            groups[-1].subgroups()
            refs = [weakref.ref(G)] + [weakref.ref(K) for K in groups]
            del G, groups
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_quotient_kept_per_subgroup(self):
        G = parse_group(S4_DOC)
        normal = [H for H in G.subgroups() if H.is_normal]
        quotients = [G.quotient(H) for H in normal]
        assert [Q.order for Q, _ in quotients] == [24, 6, 2, 1]
        assert all(G.quotient(H) is q for H, q in zip(normal, quotients))
        assert all(isinstance(proj, tuple) for _, proj in quotients)

    def test_quotient_freed_without_cycle_collector(self):
        gc.disable()
        try:
            G = parse_group(S4_DOC)
            quotients = [G.quotient(H)[0] for H in G.subgroups() if H.is_normal]
            quotients[0].subgroups()
            refs = [weakref.ref(G)] + [weakref.ref(Q) for Q in quotients]
            del G, quotients
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_subgroup_of_freed_group_raises(self):
        H = parse_group(A5_DOC).subgroups()[1]
        with pytest.raises(InternalCheckError):
            H.parent

    def test_lookup_by_members(self):
        D8 = catalog_group("D8")
        for S in D8.subgroups():
            assert D8.subgroup(reversed(S.members)) is S
        with pytest.raises(UserInputError):
            D8.subgroup((0, 1))

    @pytest.mark.parametrize("name", GROUP_SETS)
    def test_closure_and_lagrange(self, name):
        # subgroups() builds its records unchecked; this is the check
        for G in group_set(name):
            for S in G.subgroups():
                mem = set(S.members)
                assert S.members == tuple(sorted(mem))
                assert 0 in mem
                assert G.order % S.order == 0
                assert G.closure(S.spanned_by) == S.members
                for a in S.members:
                    assert G.inv(a) in mem
                    for b in S.members:
                        assert G.mul(a, b) in mem

    @pytest.mark.parametrize("name", ["catalog"] + list(SCAN_GROUPS))
    def test_decompositions_against_definition(self, name):
        groups = catalog_groups_upto(64) if name == "catalog" else group_set(name)
        for G in groups:
            subs = G.subgroups()
            semidirect = [(N, K) for N in subs for K in subs
                          if N.is_normal and 1 < N.order < G.order
                          and N.order * K.order == G.order
                          and set(N.members) & set(K.members) == {0}]
            assert G.semidirect_decompositions() == semidirect, G
            assert G.direct_decompositions() == [(N, K) for N, K in semidirect if K.is_normal]

    def test_sorted_by_order_then_members(self):
        subs = catalog_group("D8").subgroups()
        keys = [(s.order, s.members) for s in subs]
        assert keys == sorted(keys)

    def test_conjugacy_representatives(self):
        S3 = catalog_group("S3")
        reps = S3.subgroup_conjugacy_representatives()
        # classes: 1, the three conjugate C2's, C3, S3
        assert len(reps) == 4

    @pytest.mark.parametrize("name", ["S3", "D8", "Q8", "A4", "D16", "A5"])
    def test_conjugacy_representatives_against_all_elements(self, name):
        G = parse_group(A5_DOC) if name == "A5" else catalog_group(name)
        expected, seen = [], set()
        for s in G.subgroups():
            if s.members in seen:
                continue
            cls = {tuple(sorted(G.conjugate(g, x) for x in s.members))
                   for g in range(G.order)}
            seen |= cls
            expected.append(min(cls))
        assert [r.members for r in G.subgroup_conjugacy_representatives()] == expected

    @pytest.mark.parametrize("name", ["S3", "D8", "Q8", "A4", "D16", "A5"])
    def test_conjugacy_classes_against_all_elements(self, name):
        # each class is the orbit of its head under conjugation by every
        # element, sorted by members; the classes partition subgroups()
        G = parse_group(A5_DOC) if name == "A5" else catalog_group(name)
        classes = G.subgroup_conjugacy_classes()
        for c in classes:
            orbit = {tuple(sorted(G.conjugate(g, x) for x in c[0].members))
                     for g in range(G.order)}
            assert [H.members for H in c] == sorted(orbit)
        members = [H for c in classes for H in c]
        assert sorted(members, key=id) == sorted(G.subgroups(), key=id)
        assert [c[0] for c in classes] == G.subgroup_conjugacy_representatives()
        heads = [(c[0].order, c[0].members) for c in classes]
        assert heads == sorted(heads)
        assert G.subgroup_conjugacy_classes() is classes
        assert any(len(c) > 1 for c in classes) == any(not H.is_normal for H in G.subgroups())


def sylow_cyclic_oracle(G):
    """The former definition: the Sylow subgroup of each prime, taken from
    the subgroup enumeration, is cyclic."""
    return all(next(s for s in G.subgroups() if s.order == p ** a).is_cyclic()
               for p, a in factorint(G.order).items())


def abelian_invariants_oracle(G):
    """The former definition: the prime-power parts of the Smith diagonal
    of the relation lattice of a minimal generating set, its relations
    found by exhaustive search below the generators' orders."""
    gens = G.minimal_generators()
    ords = [G.element_order(g) for g in gens]
    relations = [[o if i == j else 0 for j in range(len(gens))] for i, o in enumerate(ords)]
    for expts in itertools.product(*(range(o) for o in ords)):
        x = 0
        for g, e in zip(gens, expts):
            x = G.mul(x, G.power(g, e))
        if x == 0 and any(expts):
            relations.append(list(expts))
    diag = smith_diagonal(Mat.from_rows(relations, len(gens))) if gens else []
    return sorted((p ** e for d in diag if d > 1 for p, e in factorint(d).items()),
                  reverse=True)


def cross_check_groups():
    """Fresh groups, none with its subgroups enumerated: copies of the
    catalog groups, D4..D64, products of two cyclic groups of order at most
    64, the subgroup-scan documents at seeds 1 and 2 and seeded permutation
    groups of order at most 64."""
    groups = [FiniteGroup(G.mul_table, G.generators, G.name, check=False)
              for G in map(catalog_group, CATALOG_NAMES)]
    groups += [dihedral_group(n) for n in range(4, 65, 2)]
    groups += [direct_product(cyclic_group(a), cyclic_group(b))
               for a in (2, 3, 4, 6, 8) for b in (2, 3, 4, 5, 6, 8, 9, 12, 16) if a * b <= 64]
    groups += [parse_group(doc) for seed in (1, 2) for doc in scan_permutation_documents(seed)]
    groups += [parse_group(doc) for doc in small_permutation_documents(40, seed=20)]
    return groups


class TestSylow:
    def test_examples(self):
        assert catalog_group("S3").all_sylow_cyclic() is True
        assert catalog_group("V4").all_sylow_cyclic() is False
        assert catalog_group("Q8").all_sylow_cyclic() is False

    def test_more(self):
        assert catalog_group("C12").all_sylow_cyclic() is True
        assert catalog_group("A4").all_sylow_cyclic() is False
        assert catalog_group("D8").all_sylow_cyclic() is False

    def test_against_subgroup_enumeration(self):
        groups = cross_check_groups()
        for G in groups:
            got = G.all_sylow_cyclic()
            assert G._subgroups is None, G
            assert got == sylow_cyclic_oracle(G), G
        # both answers occur
        assert len({G.all_sylow_cyclic() for G in groups}) == 2


class TestZGroupPresentation:
    def test_s3(self):
        z = catalog_group("S3").zgroup_presentation()
        assert (z.m, z.n, z.r) == (3, 2, 2)

    def test_c6(self):
        z = catalog_group("C6").zgroup_presentation()
        assert (z.m, z.n, z.r) == (3, 2, 1)

    def test_q8_absent(self):
        assert catalog_group("Q8").zgroup_presentation() is None

    def test_trivial_group_convention(self):
        z = catalog_group("C1").zgroup_presentation()
        assert (z.m, z.n, z.r) == (1, 1, 1)
        assert z.note

    def test_equivalence_and_verification_over_catalog(self):
        # witness exists iff all Sylow subgroups are cyclic; witnesses verify
        for G in catalog_groups_upto(32):
            z = G.zgroup_presentation()
            assert (z is not None) == G.all_sylow_cyclic()
            if z is not None:
                assert z.verify(G)


class TestAbelianNormalCyclicQuotient:
    def test_s3(self):
        S3 = catalog_group("S3")
        H, tau, e_prime = S3.abelian_normal_cyclic_quotient()
        assert H.order == 3
        assert S3.element_order(tau) == 2
        assert e_prime == 6

    def test_abelian_gives_exponent(self):
        for name in ["C4", "V4", "C12", "C2xC4"]:
            G = catalog_group(name)
            H, tau, e_prime = G.abelian_normal_cyclic_quotient()
            assert e_prime == G.exponent()
            assert H.is_abelian() and H.is_normal

    def test_witness_validity(self):
        for name in ["D8", "D16", "Q8", "A4", "S3"]:
            G = catalog_group(name)
            got = G.abelian_normal_cyclic_quotient()
            if got is None:
                continue
            H, tau, e_prime = got
            Q, proj = G.quotient(H)
            assert Q.is_cyclic()
            assert Q.element_order(proj[tau]) == Q.order

    def test_minimizes_over_all_witnesses(self):
        # brute-force oracle over all (H, tau) pairs
        from math import lcm
        for name in ["C8", "D8", "D16", "Q8", "A4", "C2xC4", "U(32)"]:
            G = catalog_group(name)
            got = G.abelian_normal_cyclic_quotient()
            best = None
            for H in G.subgroups():
                if not H.is_normal or not H.is_abelian():
                    continue
                Q, proj = G.quotient(H)
                if not Q.is_cyclic():
                    continue
                for g in range(G.order):
                    if Q.element_order(proj[g]) == Q.order:
                        key = (lcm(H.exponent(), G.element_order(g)), H.order)
                        best = key if best is None else min(best, key)
            if best is None:
                assert got is None
            else:
                H, tau, e_prime = got
                assert (e_prime, H.order) == best

    def test_a4_has_witness(self):
        # V4 is abelian normal in A4 with cyclic quotient C3
        A4 = catalog_group("A4")
        H, tau, e_prime = A4.abelian_normal_cyclic_quotient()
        assert H.order == 4
        assert e_prime == 6


class TestAbelianDecomposition:
    def test_examples(self):
        assert catalog_group("C12").abelian_decomposition() == [4, 3]
        assert catalog_group("V4").abelian_decomposition() == [2, 2]
        with pytest.raises(UserInputError):
            catalog_group("S3").abelian_decomposition()

    def test_against_relation_lattice(self):
        abelian = [G for G in cross_check_groups() if G.is_abelian()]
        for G in abelian:
            got = G.abelian_decomposition()
            assert G._subgroups is None, G
            assert got == abelian_invariants_oracle(G), G
        assert len(abelian) > 40

    @pytest.mark.parametrize("name", ["C1", "C8", "C10", "C15", "C16",
                                      "C2xC4", "C2xC2xC2", "U(16)", "U(32)"])
    def test_order_statistics_match(self, name):
        # the multiset of element orders determines a finite abelian group
        G = catalog_group(name)
        qs = G.abelian_decomposition()
        # rebuild the group as a product of cyclic groups and compare orders
        H = cyclic_group(1)
        from retractrat.groups import direct_product
        for q in qs:
            H = direct_product(H, cyclic_group(q))
        assert H.order == G.order
        orders_g = sorted(G.element_order(g) for g in range(G.order))
        orders_h = sorted(H.element_order(h) for h in range(H.order))
        assert orders_g == orders_h


class TestCosets:
    def test_cosets_match_brute_force(self):
        for name in CATALOG_NAMES:
            G = catalog_group(name)
            for H in G.subgroups():
                reps, coset_of = H.cosets()
                cosets = {tuple(sorted(G.mul(g, h) for h in H.members))
                          for g in range(G.order)}
                assert list(reps) == sorted(c[0] for c in cosets), (name, H)
                assert reps[0] == 0
                for c in cosets:
                    assert {coset_of[g] for g in c} == {reps.index(c[0])}


class TestQuotient:
    def test_generator_images_generate_quotient(self):
        for name in CATALOG_NAMES:
            G = catalog_group(name)
            for H in G.subgroups():
                if H.is_normal:
                    Q, _ = G.quotient(H)
                    assert len(Q.closure(Q.generators)) == Q.order, (name, H)

    def test_c4_mod_c2(self):
        C4 = catalog_group("C4")
        H = C4.subgroup((0, 2))
        Q, proj = C4.quotient(H)
        assert Q.order == 2
        assert proj[0] == 0 and proj[2] == 0
        assert proj[1] == proj[3] == 1

    def test_projection_is_homomorphism(self):
        for name in ["D8", "Q8", "A4", "C12"]:
            G = catalog_group(name)
            for H in G.subgroups():
                if not H.is_normal:
                    continue
                Q, proj = G.quotient(H)
                for a in range(G.order):
                    for b in range(G.order):
                        assert proj[G.mul(a, b)] == Q.mul(proj[a], proj[b])


class TestBounds:
    def test_parse_order_bound(self):
        from retractrat.errors import ResourceBoundError
        # disjoint cycles of coprime-ish lengths: the closure blows past 1024
        cycle = []
        start = 1
        for length in (5, 7, 9, 11, 13, 16):
            cycle.extend(list(range(start + 1, start + length)) + [start])
            start += length
        with pytest.raises(ResourceBoundError):
            parse_group({"perm_generators": [cycle], "degree": len(cycle)})

    def test_subgroup_enumeration_bound(self):
        from retractrat.errors import ResourceBoundError
        from retractrat.groups import direct_product
        G = direct_product(direct_product(cyclic_group(5), cyclic_group(5)),
                           cyclic_group(3))
        assert G.order == 75
        with pytest.raises(ResourceBoundError):
            G.subgroups()


class TestCatalog:
    def test_aliases(self):
        assert catalog_group("V4").order == 4
        assert catalog_group("U(8)").order == 4
        assert catalog_group("U8").order == 4

    def test_unknown(self):
        with pytest.raises(UserInputError):
            catalog_group("M11")

    def test_unit_groups(self):
        assert catalog_group("U(16)").order == 8
        assert catalog_group("U(32)").order == 16
        assert not catalog_group("U(8)").is_cyclic()

    def test_dihedral_and_quaternion(self):
        D8 = catalog_group("D8")
        Q8 = catalog_group("Q8")
        assert D8.order == 8 and not D8.is_abelian()
        assert Q8.order == 8 and not Q8.is_abelian()
        # Q8 has a unique element of order 2
        assert sum(1 for g in range(8) if Q8.element_order(g) == 2) == 1
        assert sum(1 for g in range(8) if D8.element_order(g) == 2) == 5
