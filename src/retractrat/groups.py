"""Finite groups given by multiplication tables, with subgroup enumeration.

Elements are indices 0..order-1 and 0 is always the identity.  Groups are
built from explicit tables or from permutation generators; a small catalog
covers the groups the test suites name (cyclic groups, elementary products,
dihedral and quaternion groups, S3, A4, and the unit groups (Z/2^n)^x).
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence

from .errors import InternalCheckError, ResourceBoundError, UserInputError
from .zlinalg import _factorint

PARSE_ORDER_BOUND = 1024
SUBGROUP_ORDER_BOUND = 64

# a path in a Cayley graph: (generator index, +1 or -1, element) per edge
# (Subgroup.relator_loops)
Loop = tuple[tuple[int, int, int], ...]


def _is_prime_power(n: int) -> Optional[int]:
    """The prime p if n = p^k with k >= 1, else None."""
    f = _factorint(n)
    return next(iter(f)) if len(f) == 1 else None


class FiniteGroup:
    """Finite group with a verified multiplication table.

    mul/inv are total tables; generators is some generating list (possibly
    empty for the trivial group), picked by minimal_generators when None is
    given.  Rows are kept as given, as tuples; check=True rejects a
    non-integer entry or generator.  Instances are immutable after
    construction and cache derived data (subgroups, their conjugacy classes,
    element orders).
    """

    def __init__(self, mul_table: Sequence[Sequence[int]],
                 generators: Optional[Sequence[int]] = None,
                 name: Optional[str] = None, check: bool = True):
        self.order = len(mul_table)
        self.mul_table = tuple(map(tuple, mul_table))
        self.name = name
        self._subgroups: Optional[list[Subgroup]] = None
        self._subgroup_index: dict[tuple[int, ...], Subgroup] = {}
        self._classes: Optional[list[list[Subgroup]]] = None
        self._orders: Optional[tuple[int, ...]] = None
        if check:
            self._validate_table()
        self.inv_table = self._build_inverses()
        if generators is None:
            generators = self.minimal_generators()
        self.generators = tuple(generators)
        if check:
            if not all(is_int(g) and 0 <= g < self.order for g in self.generators):
                raise UserInputError(f"declared generators {list(self.generators)} are not "
                                     f"all elements 0..{self.order - 1}")
            if len(self.closure(self.generators)) != self.order:
                raise UserInputError("declared generators do not generate the group")

    # -- construction checks ------------------------------------------------

    def _validate_table(self):
        n = self.order
        if n == 0:
            raise UserInputError("empty multiplication table")
        if n > PARSE_ORDER_BOUND:
            raise ResourceBoundError(f"group order {n} exceeds bound {PARSE_ORDER_BOUND}")
        for i, row in enumerate(self.mul_table):
            if len(row) != n:
                raise UserInputError(f"row {i} has length {len(row)}, expected {n}")
            for x in row:
                if not (is_int(x) and 0 <= x < n):
                    raise UserInputError(f"table entry {x!r} is not an element 0..{n - 1}")
        for g in range(n):
            if self.mul_table[0][g] != g or self.mul_table[g][0] != g:
                raise UserInputError("element 0 is not a two-sided identity")
        # Light's test: if (x*g)*y = x*(g*y) for all x, y and every g in a
        # generating set, the product is associative (such g are closed under
        # products).  Generators are picked greedily; in a group each one at
        # least doubles the subgroup reached, so more than log2(n) of them
        # means the table is not a group.
        t = self.mul_table
        gens: list[int] = []
        reached: set[int] = {0}
        while len(reached) < n:
            if len(gens) == n.bit_length() - 1:
                raise UserInputError("table is not a group: too many generators needed")
            gens.append(next(g for g in range(n) if g not in reached))
            reached = set(self.closure(gens))
        for g in gens:
            tg = t[g]
            for x in range(n):
                row_x, xg = t[x], t[t[x][g]]
                for y in range(n):
                    if xg[y] != row_x[tg[y]]:
                        raise UserInputError(f"associativity fails at ({x},{g},{y})")

    def _build_inverses(self) -> tuple[int, ...]:
        inv = []
        for a, row in enumerate(self.mul_table):
            try:
                b = row.index(0)
            except ValueError:
                raise UserInputError(f"element {a} has no inverse") from None
            if self.mul_table[b][a] != 0:
                raise UserInputError(f"element {a} has no two-sided inverse")
            inv.append(b)
        return tuple(inv)

    # -- basic operations ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        return self.inv_table[a]

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def elements(self) -> range:
        return range(self.order)

    def closure(self, gens: Iterable[int]) -> tuple[int, ...]:
        """Sorted subgroup generated by gens (always contains 0)."""
        table = self.mul_table
        seen = {0}
        frontier = [0]
        gens = [g for g in gens]
        while frontier:
            nxt = []
            for a in frontier:
                row = table[a]
                for s in gens:
                    b = row[s]
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        return tuple(sorted(seen))

    def extend(self, start, step: Callable, what: str) -> dict:
        """Extend generator data to every element: v(0) = start and
        v(g*s) = step(v(g), s), breadth first over the generators s.

        Every element revisited along the way must get the same value again;
        by induction on word length that makes v obey the step law for every
        g and s.  A disagreement, or generators that miss part of the group,
        raises UserInputError naming what was extended."""
        table = self.mul_table
        values = {0: start}
        frontier = [0]
        while frontier:
            nxt = []
            for g in frontier:
                vg, row = values[g], table[g]
                for s in self.generators:
                    h, val = row[s], step(vg, s)
                    if h not in values:
                        values[h] = val
                        nxt.append(h)
                    elif values[h] != val:
                        raise UserInputError(f"{what} is inconsistent at element {h}")
            frontier = nxt
        if len(values) != self.order:
            raise UserInputError(f"generators with {what} do not reach the whole group")
        return values

    def element_order(self, a: int) -> int:
        if self._orders is None:
            orders = []
            for g in range(self.order):
                k, x = 1, g
                while x != 0:
                    x = self.mul_table[x][g]
                    k += 1
                orders.append(k)
            self._orders = tuple(orders)
        return self._orders[a]

    def exponent(self) -> int:
        e = 1
        for g in range(self.order):
            e = lcm(e, self.element_order(g))
        return e

    def is_abelian(self) -> bool:
        t = self.mul_table
        return all(t[a][b] == t[b][a] for a, b in itertools.combinations(self.generators, 2))

    def is_cyclic(self) -> bool:
        return any(self.element_order(g) == self.order for g in range(self.order))

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = self.inv(g), -k
        out = 0
        while k:
            if k & 1:
                out = self.mul(out, g)
            g = self.mul(g, g)
            k >>= 1
        return out

    def minimal_generators(self, members: Optional[Sequence[int]] = None) -> tuple[int, ...]:
        """Greedy small generating set (of the whole group or of a subgroup)."""
        if members is None:
            members = range(self.order)
        target = tuple(sorted(members))
        if target == (0,):
            return ()
        pool = sorted((m for m in target if m != 0),
                      key=lambda g: (-self.element_order(g), g))
        gens: list[int] = []
        current = (0,)
        for g in pool:
            if g in current:
                continue
            gens.append(g)
            current = self.closure(gens)
            if current == target:
                return tuple(gens)
        raise UserInputError("members are not closed under multiplication")

    # -- subgroups ------------------------------------------------------------

    def subgroups(self) -> list["Subgroup"]:
        """All subgroups (not just up to conjugacy), sorted by order then members.

        Algorithm: cyclic extension by prime index (Neubüser).  A zuppo is
        an element of prime-power order; one generator z is kept per cyclic
        subgroup they form, with its prime p.  Starting from the trivial
        subgroup, each newly found subgroup H is extended by every zuppo z
        with z not in H, z^p in H and z normalising H (z h z^-1 in H for
        H's recorded generators h).  Then <H, z> = H u Hz u ... u Hz^(p-1),
        built in p|H| table lookups.  Every other zuppo in that join is a
        p-element outside H and gives the same join, so it is skipped for H.

        Completeness: a solvable K != 1 has a normal subgroup H of prime
        index p, and for any z in K \\ H the p-part of z lies outside H, has
        its p-th power in H, normalises H and generates K with H; so by
        induction on |K| every solvable subgroup is found.  The least
        non-solvable group is A5, of order 60, and a group of order below
        120 that contains A5 is A5 itself.  Under SUBGROUP_ORDER_BOUND = 64
        every proper subgroup is therefore solvable, and adding G itself
        completes the list.  The zuppos a subgroup was first found by are
        its spanned_by, and they are its presentation
        (Subgroup.relator_loops); G = A5 records G.generators instead.
        """
        if self._subgroups is not None:
            return self._subgroups
        if self.order > SUBGROUP_ORDER_BOUND:
            raise ResourceBoundError(
                f"subgroup enumeration bound {SUBGROUP_ORDER_BOUND} exceeded")
        table = self.mul_table
        # one generator z per cyclic subgroup of prime-power order, with its
        # prime p, z^p and the conjugation map h -> z h z^-1
        cyclic: dict[tuple[int, ...], int] = {}
        for g in range(1, self.order):
            if _is_prime_power(self.element_order(g)):
                cyclic.setdefault(self.closure([g]), g)
        zuppos = []
        for z in cyclic.values():
            p = _is_prime_power(self.element_order(z))
            row, zinv = table[z], self.inv_table[z]
            conj = [table[row[h]][zinv] for h in range(self.order)]
            zuppos.append((z, p, self.power(z, p), conj))
        found: dict[tuple[int, ...], tuple[int, ...]] = {(0,): ()}  # members -> generators
        frontier = [(0,)]
        while frontier:
            nxt = []
            for members in frontier:
                gens = found[members]
                inside = set(members)
                covered = set(inside)  # H and the joins already built from it
                for z, p, zp, conj in zuppos:
                    if z in covered or zp not in inside \
                            or any(conj[h] not in inside for h in gens):
                        continue
                    join = list(members)
                    coset = members
                    for _ in range(p - 1):
                        coset = [table[h][z] for h in coset]
                        join += coset
                    covered.update(join)
                    join = tuple(sorted(join))
                    if join not in found:
                        found[join] = gens + (z,)
                        nxt.append(join)
            frontier = nxt
        found.setdefault(tuple(range(self.order)), self.generators)  # missed only when G = A5
        subs = [Subgroup(self, members, found[members])
                for members in sorted(found, key=lambda m: (len(m), m))]
        self._subgroups = subs
        self._subgroup_index = {s.members: s for s in subs}
        return subs

    def subgroup(self, members: Iterable[int]) -> "Subgroup":
        key = tuple(sorted(members))
        self.subgroups()
        s = self._subgroup_index.get(key)
        if s is None:
            raise UserInputError(f"{key} is not a subgroup")
        return s

    def prime_power_subgroups(self) -> list["Subgroup"]:
        return [s for s in self.subgroups() if s.order > 1 and _is_prime_power(s.order)]

    def subgroup_conjugacy_classes(self) -> list[list["Subgroup"]]:
        """The conjugacy classes of subgroups, each sorted by members, so
        headed by its member with the smallest member tuple; the classes
        come sorted by order then head.  A class is the orbit of a subgroup
        under conjugation by the generators of G.  Computed once and kept,
        like subgroups()."""
        if self._classes is None:
            subs, index = self.subgroups(), self._subgroup_index
            t, inv = self.mul_table, self.inv_table
            conj = [[t[gx][inv[g]] for gx in t[g]] for g in self.generators]
            seen: set[tuple[int, ...]] = set()
            classes = []
            for s in subs:
                if s.members in seen:
                    continue
                # subgroups come sorted, so the first of a class is its least
                orbit = [s.members]
                seen.add(s.members)
                for members in orbit:
                    for c in conj:
                        image = tuple(sorted(c[x] for x in members))
                        if image not in seen:
                            seen.add(image)
                            orbit.append(image)
                classes.append([index[m] for m in sorted(orbit)])
            self._classes = classes
        return self._classes

    def subgroup_conjugacy_representatives(self) -> list["Subgroup"]:
        """One subgroup per conjugacy class, the head of each class of
        subgroup_conjugacy_classes(), sorted by order then members."""
        return [c[0] for c in self.subgroup_conjugacy_classes()]

    def trivial_subgroup(self) -> "Subgroup":
        return self.subgroup((0,))

    def full_subgroup(self) -> "Subgroup":
        return self.subgroup(range(self.order))

    # -- structure recognizers -------------------------------------------------

    def all_sylow_cyclic(self) -> bool:
        """True iff every Sylow subgroup is cyclic (a "Z-group"): for each
        p^a exactly dividing |G| some element has order p^a.  Such an element
        generates a Sylow p-subgroup, and all Sylow p-subgroups are conjugate."""
        orders = set(map(self.element_order, range(self.order)))
        return all(p ** a in orders for p, a in _factorint(self.order).items())

    def zgroup_presentation(self) -> Optional["ZGroupPresentation"]:
        """Metacyclic presentation sigma^m = tau^n = 1, tau sigma tau^-1 = sigma^r
        with gcd((r-1)n, m) = 1 and r^n = 1 mod m (gcd(n, m) = 1 when r = 1).

        Present iff all Sylow subgroups are cyclic.  The search is
        deterministic: n runs over divisors of |G| in the order
        (proper divisors >= 2 ascending, then 1, then |G|), and within each n
        the (sigma, tau) pair is the lexicographically first witness.
        The trivial group returns (1, 1, 1).
        """
        if not self.all_sylow_cyclic():
            return None
        if self.order == 1:
            return ZGroupPresentation(1, 1, 1, 0, 0,
                                      note="trivial group; degenerate witness")
        divisors = [d for d in range(1, self.order + 1) if self.order % d == 0]
        n_order = [d for d in divisors if 2 <= d < self.order] + [1, self.order]
        by_order: dict[int, list[int]] = {}
        for g in range(self.order):
            by_order.setdefault(self.element_order(g), []).append(g)
        for n in n_order:
            m = self.order // n
            for sigma in by_order.get(m, []):
                sig_pows = {}
                x, k = 0, 0
                while True:
                    sig_pows[x] = k
                    x = self.mul(x, sigma)
                    k += 1
                    if x == 0:
                        break
                for tau in by_order.get(n, []):
                    conj = self.conjugate(tau, sigma)
                    r = sig_pows.get(conj)
                    if r is None:
                        continue
                    if m == 1:
                        r = 1
                    if r % m == 1 % m:
                        if gcd(n, m) != 1:
                            continue
                        r_eff = 1
                    else:
                        if gcd((r - 1) * n, m) != 1 or pow(r, n, m) != 1:
                            continue
                        r_eff = r
                    if len(self.closure([sigma, tau])) != self.order:
                        continue
                    return ZGroupPresentation(m, n, r_eff, sigma, tau)
        return None

    def abelian_normal_cyclic_quotient(self) -> Optional[tuple["Subgroup", int, int]]:
        """(H, tau, e') with H abelian normal, G/H cyclic generated by the image
        of tau, and e' = lcm(exponent(H), order(tau)); the witness minimizes e'
        (ties to smaller |H|).  None if no subgroup qualifies."""
        best = None
        for H in self.subgroups():
            if not H.is_normal or not H.is_abelian():
                continue
            Q, proj = self.quotient(H)
            if not Q.is_cyclic():
                continue
            qn = Q.order
            eh = H.exponent()
            # e' depends on the chosen tau; minimize over all elements whose
            # image generates the quotient (least order does not suffice:
            # lcm is not monotone in the order)
            tau = None
            e_prime = None
            for g in range(self.order):
                if Q.element_order(proj[g]) != qn:
                    continue
                cand = lcm(eh, self.element_order(g))
                if e_prime is None or cand < e_prime:
                    tau, e_prime = g, cand
            if tau is None:
                continue
            key = (e_prime, H.order)
            if best is None or key < best[0]:
                best = (key, (H, tau, e_prime))
        return best[1] if best else None

    def abelian_decomposition(self) -> list[int]:
        """Prime-power cyclic orders q with G isomorphic to the product of C_q,
        largest first.  If the p-part of G is the product of the C_(p^e_i),
        the elements of order dividing p^k number p^(s_k) with
        s_k = sum_i min(k, e_i), so s_k - s_(k-1) of the e_i are >= k."""
        if not self.is_abelian():
            raise UserInputError("group is not abelian")
        orders = [self.element_order(g) for g in range(self.order)]
        out: list[int] = []
        for p, a in _factorint(self.order).items():
            at_least, s, q = [], 0, 1
            while s < a:
                q *= p
                s_k = _factorint(sum(1 for o in orders if q % o == 0))[p]
                at_least.append(s_k - s)
                s = s_k
            out += [p ** sum(c > i for c in at_least) for i in range(at_least[0])]
        return sorted(out, reverse=True)

    # -- quotients and products -------------------------------------------------

    def quotient(self, H: "Subgroup") -> tuple["FiniteGroup", tuple[int, ...]]:
        """(G/H, projection) for a normal subgroup H, cosets indexed as in
        H.cosets(); the images of G's generators generate G/H.  Built once
        and kept on H; neither part refers back to G."""
        if H.parent is not self:
            raise UserInputError("subgroup belongs to a different group")
        if not H.is_normal:
            raise UserInputError("subgroup is not normal")
        if H._quotient is None:
            reps, proj = H.cosets()
            t = self.mul_table
            table = [[proj[row[b]] for b in reps] for row in (t[a] for a in reps)]
            gens = sorted({proj[g] for g in self.generators} - {0})
            H._quotient = (FiniteGroup(table, gens, name=None, check=False), proj)
        return H._quotient

    def semidirect_decompositions(self) -> list[tuple["Subgroup", "Subgroup"]]:
        """All (N, K) with N normal, K a complement: N & K = 1, |N||K| = |G|,
        both proper and nontrivial (members[0] is the identity)."""
        by_order: dict[int, list[Subgroup]] = {}
        for K in self.subgroups():
            by_order.setdefault(K.order, []).append(K)
        out = []
        for N in self.subgroups():
            if N.is_normal and 1 < N.order < self.order:
                rest = set(N.members[1:])
                out += [(N, K) for K in by_order.get(self.order // N.order, ())
                        if rest.isdisjoint(K.members[1:])]
        return out

    def direct_decompositions(self) -> list[tuple["Subgroup", "Subgroup"]]:
        """Pairs of complementary normal subgroups (internal direct products)."""
        return [(N, K) for N, K in self.semidirect_decompositions() if K.is_normal]

    # -- misc -------------------------------------------------------------------

    def table_key(self) -> tuple:
        return self.mul_table

    def __repr__(self) -> str:
        label = self.name or f"order {self.order}"
        return f"FiniteGroup({label})"


class Subgroup:
    """A record built only by FiniteGroup.subgroups(): the sorted members it
    proved to be a subgroup and the generators it recorded (spanned_by).
    There is one object per (group, members), so identity is equality.

    The parent group caches its subgroups, so the subgroup holds the parent
    through a weak reference: a strong one would make every group a
    reference cycle that only the cyclic garbage collector frees.  It keeps
    what is derived from it (cosets, the orbits of other subgroups on them,
    keyed by their members, its standalone group and quotient), each built
    on first use.
    """

    def __init__(self, parent: FiniteGroup, members: tuple[int, ...],
                 spanned_by: tuple[int, ...]):
        self._parent = weakref.ref(parent)
        self.members = members
        self.spanned_by = spanned_by
        # H is normal iff g h g^-1 is in H for the generators g of G and h of H
        t, inv, mem = parent.mul_table, parent.inv_table, set(members)
        self.is_normal = all(t[t[g][h]][inv[g]] in mem
                             for g in parent.generators for h in spanned_by)
        self._gens: Optional[tuple[int, ...]] = None
        self._group: Optional[FiniteGroup] = None
        self._quotient: Optional[tuple[FiniteGroup, tuple[int, ...]]] = None
        self._cosets: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
        # S.members -> coset_orbits(S); made on first use, as most subgroups
        # (every one of a subgroup scan) never get one
        self._coset_orbits: Optional[dict[tuple[int, ...], tuple[tuple[int, ...], ...]]] = None
        self._maximal_cyclic: Optional[tuple[tuple[int, ...], ...]] = None
        # generators, relator loops and a word for each member (relator_loops)
        self._presentation: Optional[tuple[tuple[int, ...], tuple[Loop, ...],
                                           dict[int, tuple[int, ...]]]] = None

    @property
    def parent(self) -> FiniteGroup:
        group = self._parent()
        if group is None:
            raise InternalCheckError(f"Subgroup{self.members} used after its group was freed")
        return group

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def generators(self) -> tuple[int, ...]:
        if self._gens is None:
            self._gens = self.parent.minimal_generators(self.members)
        return self._gens

    def is_cyclic(self) -> bool:
        order_of = self.parent.element_order
        return any(order_of(g) == self.order for g in self.members)

    def is_abelian(self) -> bool:
        t = self.parent.mul_table
        return all(t[a][b] == t[b][a] for a, b in itertools.combinations(self.spanned_by, 2))

    def exponent(self) -> int:
        order_of = self.parent.element_order
        e = 1
        for g in self.members:
            e = lcm(e, order_of(g))
        return e

    def cosets(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Left cosets gH as (reps, coset_of): reps holds the least member of
        each coset, ascending (the identity coset is index 0), and coset_of[g]
        is the index of g's coset.  One pass over g ascending, since the
        first element met of a new coset is its least member.  Computed
        once and kept, as tuples."""
        if self._cosets is None:
            table = self.parent.mul_table
            coset_of = [-1] * len(table)
            reps: list[int] = []
            for g in range(len(table)):
                if coset_of[g] < 0:
                    row = table[g]
                    for h in self.members:
                        coset_of[row[h]] = len(reps)
                    reps.append(g)
            self._cosets = (tuple(reps), tuple(coset_of))
        return self._cosets

    def coset_orbits(self, S: "Subgroup") -> tuple[tuple[int, ...], ...]:
        """The orbits of the subgroup S on the left cosets G/H of this
        subgroup H, as ascending tuples of coset indices (cosets()), ordered
        by their least index; the orbit of the coset rH is {s r H : s in S}.
        The orbit sums of the cosets are a basis of Z[G/H]^S.  Computed once
        per S and kept, keyed by S.members, so that subgroups hold no
        references to each other."""
        if self._coset_orbits is None:
            self._coset_orbits = {}
        orbits = self._coset_orbits.get(S.members)
        if orbits is None:
            if S.parent is not self.parent:
                raise UserInputError("subgroups belong to different groups")
            reps, coset_of = self.cosets()
            rows = [self.parent.mul_table[s] for s in S.members]
            seen = [False] * len(reps)
            found = []
            for r, rep in enumerate(reps):
                if not seen[r]:
                    orbit = sorted({coset_of[row[rep]] for row in rows})
                    for i in orbit:
                        seen[i] = True
                    found.append(tuple(orbit))
            orbits = self._coset_orbits[S.members] = tuple(found)
        return orbits

    def maximal_cyclic_classes(self) -> tuple[tuple[int, ...], ...]:
        """The maximal cyclic subgroups of this subgroup H, one per conjugacy
        class under H, as member tuples: the head of each class (its least
        member tuple), classes in ascending order.  <h> for h in H covers
        every cyclic subgroup, and <h> is not maximal exactly when it is
        <g^p> for some g in H and prime p dividing the order of g.  Computed
        once and kept."""
        if self._maximal_cyclic is None:
            G = self.parent
            t, inv = G.mul_table, G.inv_table
            powers = {}  # members of <h> -> its elements h^0, h^1, ...
            for h in self.members:
                run = [0]
                while t[run[-1]][h] != 0:
                    run.append(t[run[-1]][h])
                powers.setdefault(tuple(sorted(run)), run)
            inner = {tuple(sorted(run[::p])) for run in powers.values()
                     for p in _factorint(len(run))}
            maximal = set(powers) - inner
            classes = []
            while maximal:
                orbit = [min(maximal)]
                for members in orbit:
                    for g in self.generators:
                        image = tuple(sorted(t[t[g][x]][inv[g]] for x in members))
                        if image not in orbit:
                            orbit.append(image)
                maximal -= set(orbit)
                classes.append(orbit[0])
            self._maximal_cyclic = tuple(classes)
        return self._maximal_cyclic

    def relator_loops(self) -> tuple[tuple[int, ...], tuple[Loop, ...]]:
        """(gens, loops): a presentation of H on generators x_i = gens[i], each
        relator given by its loop from 1 in the Cayley graph of H on them
        (edges g -> g x_i), as the edges (i, sign, g) it runs along: from g
        forwards (sign 1) or backwards into g (sign -1).  Computed once
        and kept.

        The generators are spanned_by, the chain FiniteGroup.subgroups()
        recorded: x_i normalises N_i = <x_0..x_i-1>, and the least e_i >= 1
        with x_i^e_i in N_i is the prime index of N_i in N_i+1, so the layers
        x_i^e N_i (e < e_i) partition N_i+1 and give each member a word
        x_k-1^a ... x_0^b (path_to).  The relators x_i^e_i = u_i and
        x_i^-1 x_j x_i = v_ij (j < i), u_i and v_ij words in N_i, present H
        on k = Omega(|H|) generators: in the group they define, conjugation
        by x_i maps M_i = <x_0..x_i-1> into itself, so onto it when M_i is
        finite, and M_i+1 is the union of the M_i x_i^e (e < e_i); by
        induction it has order at most |H| and maps onto H.  No centrality
        is needed.  Only a group that is not solvable (A5) records no chain
        for itself; it is presented off a breadth-first spanning tree of its
        Cayley graph (Schreier), with |H| (k - 1) + 1 relators."""
        gens, loops, _ = self._presented()
        return gens, loops

    def path_to(self, h: int) -> Loop:
        """The edges of a path from 1 to the member h in the Cayley graph of
        relator_loops, as they are listed there."""
        gens, _, words = self._presented()
        return self._walk(gens, words[h])[0]

    def _presented(self) -> tuple[tuple[int, ...], tuple[Loop, ...], dict[int, tuple[int, ...]]]:
        # words[h]: indices of generators whose product is h; in a relator
        # ~i stands for x_i^-1
        if self._presentation is None:
            t, inv = self.parent.mul_table, self.parent.inv_table
            gens = self.spanned_by
            words: dict[int, tuple[int, ...]] = {0: ()}
            relators = []

            def inverse(word):
                return tuple(~i for i in reversed(word))

            for i, x in enumerate(gens):
                conj = [t[t[inv[x]][g]][x] for g in gens[:i]]
                if any(c not in words for c in conj):  # not a chain: G = A5
                    words, relators, queue = {0: ()}, [], [0]
                    for h in queue:  # breadth first
                        for j, y in enumerate(gens):
                            hy = t[h][y]
                            if hy not in words:
                                words[hy] = words[h] + (j,)
                                queue.append(hy)
                            else:
                                relators.append(words[h] + (j,) + inverse(words[hy]))
                    break
                relators += [(~i, j, i) + inverse(words[c]) for j, c in enumerate(conj)]
                level, power, e = list(words.items()), x, 1
                while power not in words:  # the layer x^e N_i
                    words.update((t[power][n], (i,) * e + w) for n, w in level)
                    power, e = t[power][x], e + 1
                relators.append((i,) * e + inverse(words[power]))
            loops = []
            for r in relators:
                edges, end = self._walk(gens, r)
                if end != 0:
                    raise InternalCheckError(f"relator {r} of {self.members} is not a loop")
                loops.append(edges)
            self._presentation = (gens, tuple(loops), words)
        return self._presentation

    def _walk(self, gens: tuple[int, ...], word: tuple[int, ...]) -> tuple[Loop, int]:
        # the edges of the path from 1 spelling word, and its end
        t, inv = self.parent.mul_table, self.parent.inv_table
        g, edges = 0, []
        for i in word:
            if i >= 0:
                edges.append((i, 1, g))
                g = t[g][gens[i]]
            else:
                g = t[g][inv[gens[~i]]]
                edges.append((~i, -1, g))
        return tuple(edges), g

    def as_group(self) -> FiniteGroup:
        """Standalone FiniteGroup with the induced table (identity stays 0),
        built once; it holds no reference to the parent."""
        if self._group is None:
            index = {g: i for i, g in enumerate(self.members)}
            t = self.parent.mul_table
            table = [[index[row[b]] for b in self.members]
                     for row in (t[a] for a in self.members)]
            gens = [index[g] for g in self.generators]
            self._group = FiniteGroup(table, gens, name=None, check=False)
        return self._group

    def __repr__(self) -> str:
        return f"Subgroup{self.members}"


@dataclass(frozen=True)
class ZGroupPresentation:
    """Witness for the metacyclic (Zassenhaus) shape of a group with all Sylow
    subgroups cyclic."""

    m: int
    n: int
    r: int
    sigma: int
    tau: int
    note: str = ""

    def verify(self, G: FiniteGroup) -> bool:
        if self.m * self.n != G.order:
            return False
        if G.order == 1:
            return (self.m, self.n, self.r) == (1, 1, 1)
        if G.element_order(self.sigma) != self.m or G.element_order(self.tau) != self.n:
            return False
        if G.conjugate(self.tau, self.sigma) != G.power(self.sigma, self.r):
            return False
        if len(G.closure([self.sigma, self.tau])) != G.order:
            return False
        if self.r % self.m == 1 % self.m:
            return gcd(self.n, self.m) == 1
        return gcd((self.r - 1) * self.n, self.m) == 1 and pow(self.r, self.n, self.m) == 1


# -- parsing -------------------------------------------------------------------


def is_int(x) -> bool:
    """An int that is not a bool: documents never coerce floats, bools or
    strings into integers."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_index_key(key) -> bool:
    """A key naming an index canonically, so no two keys name one index:
    ASCII digits, no leading zero, at most 18 (int() limits its digits)."""
    return isinstance(key, str) and key.isascii() and key.isdigit() \
        and len(key) <= 18 and (key == "0" or key[0] != "0")


def is_int_matrix(rows, n_rows: int, n_cols: int) -> bool:
    """A list of n_rows lists of n_cols integers each."""
    return (isinstance(rows, list) and len(rows) == n_rows
            and all(isinstance(row, list) and len(row) == n_cols
                    and all(is_int(x) for x in row) for row in rows))


def parse_group(spec: dict) -> FiniteGroup:
    """Build a validated FiniteGroup from a group-description document.

    Accepts {"table": [[...]]} (0-based, row g column h giving g*h) or
    {"perm_generators": [[images of 1..n], ...], "degree": n}; an optional
    "name" labels the result.  Permutation input is closed under products;
    the identity is re-indexed to 0.
    """
    if not isinstance(spec, dict):
        raise UserInputError("group document must be an object")
    name = spec.get("name")
    if name is not None and not isinstance(name, str):
        raise UserInputError("group 'name' must be a string")
    if "table" in spec:
        table = spec["table"]
        # the entries and the shape are checked by FiniteGroup
        if not (isinstance(table, list) and all(isinstance(row, list) for row in table)):
            raise UserInputError("group 'table' must be a list of integer rows")
        return FiniteGroup(table, name=name, check=True)
    if "perm_generators" in spec:
        degree = spec.get("degree")
        gens = spec["perm_generators"]
        if degree is None:
            raise UserInputError("permutation input requires a degree")
        if not is_int(degree) or not 1 <= degree <= 64:
            raise UserInputError("permutation degree must be an integer in 1..64")
        if not isinstance(gens, list):
            raise UserInputError("'perm_generators' must be a list of image lists")
        perms = []
        for images in gens:
            if not (isinstance(images, list) and all(is_int(x) for x in images)
                    and sorted(images) == list(range(1, degree + 1))):
                raise UserInputError(f"{images} is not a permutation of 1..{degree}")
            perms.append(tuple(x - 1 for x in images))
        return _group_from_permutations(perms, degree, name)
    raise UserInputError("group document needs 'table' or 'perm_generators'")


def _group_from_permutations(perms: list[tuple[int, ...]], degree: int,
                             name: Optional[str]) -> FiniteGroup:
    """Close perms under composition (p∘q)(i) = p(q(i)), breadth first, and
    index the elements in discovery order, the identity first.

    The closure forms p∘s once for every element p and generator s; it keeps
    right[k][x], the index of elements[x]∘perms[k], and the step (x, k) that
    first reached each element.  For b = elements[x]∘s with s = perms[k],
    a∘b = (a∘elements[x])∘s, so row a of the table is filled left to right by
    row[b] = right[k][row[x]]: |G|·|gens| compositions and |G|² lookups."""
    identity = tuple(range(degree))
    elements = [identity]
    index = {identity: 0}
    right: list[list[int]] = [[] for _ in perms]
    steps: list[tuple[int, list[int]]] = []  # (x, right[k]) for elements 1, 2, ...
    for x, p in enumerate(elements):  # elements grows while it is walked
        for rk, s in zip(right, perms):
            r = tuple(map(p.__getitem__, s))
            i = index.get(r)
            if i is None:
                if len(elements) >= PARSE_ORDER_BOUND:
                    raise ResourceBoundError(
                        f"generated order exceeds bound {PARSE_ORDER_BOUND}")
                i = index[r] = len(elements)
                elements.append(r)
                steps.append((x, rk))
            rk.append(i)
    n = len(elements)
    table = []
    for a in range(n):
        row = [a]
        for x, rk in steps:
            row.append(rk[row[x]])
        table.append(row)
    gen_ids = sorted({index[p] for p in perms if p != identity})
    return FiniteGroup(table, gen_ids if gen_ids or n == 1 else [], name=name, check=False)


# -- catalog -------------------------------------------------------------------


def _cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def cyclic_group(n: int, name: Optional[str] = None) -> FiniteGroup:
    if n < 1:
        raise UserInputError("cyclic group order must be positive")
    gens = [1] if n > 1 else []
    return FiniteGroup(_cyclic_table(n), gens, name=name or f"C{n}", check=False)


def direct_product(g1: FiniteGroup, g2: FiniteGroup, name: Optional[str] = None) -> FiniteGroup:
    n1, n2 = g1.order, g2.order

    def enc(a, b):
        return a * n2 + b

    table = [[enc(g1.mul(a1, a2), g2.mul(b1, b2))
              for a2 in range(n1) for b2 in range(n2)]
             for a1 in range(n1) for b1 in range(n2)]
    gens = [enc(g, 0) for g in g1.generators] + [enc(0, h) for h in g2.generators]
    return FiniteGroup(table, gens, name=name, check=False)


def dihedral_group(order: int, name: Optional[str] = None) -> FiniteGroup:
    """Dihedral group of the given (even, >= 4) order."""
    if order % 2 or order < 4:
        raise UserInputError("dihedral order must be even and >= 4")
    m = order // 2
    # elements: (k, s) -> index s*m + k, product in terms of rotations r^k, flips
    def enc(k, s):
        return s * m + k

    def mul(x, y):
        k1, s1 = x % m, x // m
        k2, s2 = y % m, y // m
        if s1 == 0:
            return enc((k1 + k2) % m, s2)
        return enc((k1 - k2) % m, 1 - s2)

    table = [[mul(a, b) for b in range(order)] for a in range(order)]
    return FiniteGroup(table, [enc(1, 0), enc(0, 1)], name=name or f"D{order}", check=False)


def quaternion_group(name: Optional[str] = None) -> FiniteGroup:
    """Quaternion group of order 8 on 1, -1, i, -i, j, -j, k, -k."""
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def q_mul(x: str, y: str) -> str:
        sign = 1
        for v in (x, y):
            if v.startswith("-"):
                sign = -sign
        a, b = x.lstrip("-"), y.lstrip("-")
        rules = {("1", "1"): (1, "1"), ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
                 ("k", "k"): (-1, "1"), ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
                 ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"), ("k", "i"): (1, "j"),
                 ("i", "k"): (-1, "j")}
        if a == "1":
            s, res = 1, b
        elif b == "1":
            s, res = 1, a
        else:
            s, res = rules[(a, b)]
        sign *= s
        return res if sign == 1 else "-" + res

    index = {u: i for i, u in enumerate(units)}
    table = [[index[q_mul(a, b)] for b in units] for a in units]
    return FiniteGroup(table, [index["i"], index["j"]], name=name or "Q8", check=False)


def unit_group_mod_2n(n: int, name: Optional[str] = None) -> FiniteGroup:
    """(Z/2^n Z)^x with 1 at index 0, remaining units ascending."""
    if not 1 <= n <= 7:
        raise UserInputError("unit group exponent out of range 1..7")
    q = 2 ** n
    units = [1] + [u for u in range(3, q, 2)]
    index = {u: i for i, u in enumerate(units)}
    table = [[index[(a * b) % q] for b in units] for a in units]
    return FiniteGroup(table, name=name or f"U({q})", check=False)


def symmetric_group_3() -> FiniteGroup:
    return parse_group({"perm_generators": [[2, 3, 1], [2, 1, 3]], "degree": 3, "name": "S3"})


def alternating_group_4() -> FiniteGroup:
    return parse_group({"perm_generators": [[2, 3, 1, 4], [2, 1, 4, 3]], "degree": 4,
                        "name": "A4"})


@lru_cache(maxsize=None)
def catalog_group(name: str) -> FiniteGroup:
    """Resolve a catalog name: C1..C16, V4, C2xC4, C2xC2xC2, D8, D16, Q8, S3,
    A4, and the unit groups U(2)..U(32) (aliases U2..U32)."""
    key = name.strip().replace(" ", "")
    upper = key.upper()
    if upper.startswith("C") and upper[1:].isdigit():
        n = int(upper[1:])
        if 1 <= n <= 16:
            return cyclic_group(n)
        raise UserInputError(f"cyclic catalog covers C1..C16, not {name}")
    if upper == "V4" or upper == "C2XC2":
        return direct_product(cyclic_group(2), cyclic_group(2), name="C2xC2")
    if upper == "C2XC4":
        return direct_product(cyclic_group(2), cyclic_group(4), name="C2xC4")
    if upper == "C4XC2":
        return direct_product(cyclic_group(4), cyclic_group(2), name="C4xC2")
    if upper == "C2XC2XC2":
        return direct_product(direct_product(cyclic_group(2), cyclic_group(2)),
                              cyclic_group(2), name="C2xC2xC2")
    if upper == "D8":
        return dihedral_group(8)
    if upper == "D16":
        return dihedral_group(16)
    if upper == "Q8":
        return quaternion_group()
    if upper == "S3":
        return symmetric_group_3()
    if upper == "A4":
        return alternating_group_4()
    if upper.startswith("U"):
        body = upper[1:].strip("()")
        if body.isdigit():
            q = int(body)
            n = q.bit_length() - 1
            if q == 2 ** n and 1 <= n <= 5:
                return unit_group_mod_2n(n)
        raise UserInputError(f"unit-group catalog covers U(2)..U(32), not {name}")
    raise UserInputError(f"unknown catalog group {name!r}")


CATALOG_NAMES: tuple[str, ...] = tuple(
    [f"C{n}" for n in range(1, 17)]
    + ["V4", "C2xC4", "C2xC2xC2", "D8", "D16", "Q8", "S3", "A4",
       "U(2)", "U(4)", "U(8)", "U(16)", "U(32)"]
)


def catalog_groups_upto(max_order: int) -> list[FiniteGroup]:
    out = []
    seen = set()
    for name in CATALOG_NAMES:
        g = catalog_group(name)
        if g.order <= max_order and g.name not in seen:
            seen.add(g.name)
            out.append(g)
    return out
