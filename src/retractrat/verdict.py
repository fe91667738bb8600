"""Rule engine answering retract-rationality questions with cited traces.

Answers are Yes / No / Unknown; Unknown is a first-class answer (the known
criteria are not a decision procedure for every pair (G, k)).  Every trace
step names a rule whose premises were machine-checked, and replay_trace
re-verifies them.  Rules fire in a fixed priority: reductions, then
definitive No rules (these rest on equivalences or necessary conditions),
then Yes rules, then product decompositions.

A torus No is about the flabby class of the resolution tail F, and its
trace carries one of two certificates: an h1-obstruction step naming a
subgroup H and the nonzero invariants of H^1(H, F), or a flabby-resolution
step and an invertibility-decision step, whose No rests on the refutation
Lam that is_invertible checks against the cover of F.  The obstruction is
read from M alone, as Sha^2_omega(H, M), with no resolution;
replay_trace recomputes it as H^1(H, F) on a fresh resolution, a path
that shares no code with the one that found it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Optional

from .cohomology import h1
from .errors import InternalCheckError, UserInputError
from .groups import FiniteGroup, _factorint, is_index_key
from .lattices import GLattice, action_kernel
from .monomial import MonomialAction, extension_class
from .resolutions import decide_flabby_class, flabby_resolution, is_invertible

YES = "Yes"
NO = "No"
UNKNOWN = "Unknown"


# -- fields ----------------------------------------------------------------------


PRIME_TEST_BOUND = 3 * 10 ** 24


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases up to 41, exact for n < PRIME_TEST_BOUND."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    if n in bases:
        return True
    if any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldDescriptor:
    """The only facts the criteria ever consult about the ground field:
    its characteristic, which roots of unity it contains, and whether the
    2-power cyclotomic extensions are cyclic.  Maps may answer unknown.
    Fields are assumed infinite (retract rationality is defined over
    infinite fields); a positive characteristic means e.g. F_p(t)."""

    name: str
    characteristic: int = 0
    all_roots: bool = False
    is_rationals: bool = False
    roots_table: tuple[tuple[int, bool], ...] = ()
    cyclotomic_table: tuple[tuple[int, bool], ...] = ()

    def __post_init__(self):
        c = self.characteristic
        if isinstance(c, bool) or not isinstance(c, int):
            raise UserInputError(f"field characteristic must be an integer, not {c!r}")
        if c >= PRIME_TEST_BOUND:
            raise UserInputError(f"field characteristic {c} is not below {PRIME_TEST_BOUND}")
        if c != 0 and not _is_prime(c):
            raise UserInputError(f"field characteristic must be 0 or a prime, not {c}")

    def has_root_of_unity(self, n: int) -> str:
        """'yes' / 'no' / 'unknown' for a primitive n-th root in k. In positive
        characteristic p, n with p | n is answered 'no' (no primitive n-th
        root exists there)."""
        if n < 1:
            raise UserInputError("root index must be positive")
        if self.characteristic and n % self.characteristic == 0:
            return "no"
        if n <= 2:
            return "yes"
        if self.all_roots:
            return "yes"
        for k, v in self.roots_table:
            if k == n:
                return "yes" if v else "no"
        if self.is_rationals:
            return "no"
        return "unknown"

    def cyclotomic_2power_cyclic(self, r: int) -> str:
        """Is k(zeta_{2^r}) a cyclic extension of k?"""
        if r <= 1:
            return "yes"
        if self.characteristic == 2:
            return "unknown"
        if self.all_roots or self.has_root_of_unity(2 ** r) == "yes":
            return "yes"
        for k, v in self.cyclotomic_table:
            if k == r:
                return "yes" if v else "no"
        if self.is_rationals:
            # Gal(Q(zeta_{2^r})/Q) = (Z/2^r)^x, cyclic exactly for r <= 2
            return "yes" if r <= 2 else "no"
        return "unknown"

    def key(self) -> tuple:
        return (self.name, self.characteristic, self.all_roots, self.is_rationals,
                self.roots_table, self.cyclotomic_table)


RATIONALS = FieldDescriptor(name="Q", characteristic=0, is_rationals=True)
COMPLEX = FieldDescriptor(name="C", characteristic=0, all_roots=True)


def parse_field(doc) -> FieldDescriptor:
    if isinstance(doc, str):
        if doc.upper() == "Q":
            return RATIONALS
        if doc.upper() == "C":
            return COMPLEX
        raise UserInputError(f"unknown field name {doc!r} (use Q, C or a document)")
    if not isinstance(doc, dict):
        raise UserInputError("field document must be an object")
    name = doc.get("name", "custom")
    if not isinstance(name, str):
        raise UserInputError("field 'name' must be a string")
    flags = {key: doc.get(key, False) for key in ("all_roots", "is_rationals")}
    for key, value in flags.items():
        if not isinstance(value, bool):
            raise UserInputError(f"field '{key}' must be true or false, not {value!r}")
    return FieldDescriptor(
        name=name,
        characteristic=doc.get("characteristic", 0),
        roots_table=_field_table(doc, "roots_of_unity"),
        cyclotomic_table=_field_table(doc, "cyclotomic_2power_cyclic"),
        **flags,
    )


def _field_table(doc: dict, key: str) -> tuple[tuple[int, bool], ...]:
    """A field table: an object from canonical decimals >= 1 to true/false."""
    table = doc.get(key, {})
    if not isinstance(table, dict):
        raise UserInputError(f"field '{key}' must be an object")
    out = []
    for k, v in table.items():
        if not (is_index_key(k) and k != "0"):
            raise UserInputError(f"field '{key}' key {k!r} is not a decimal integer >= 1")
        if not isinstance(v, bool):
            raise UserInputError(f"field '{key}' value for {k} must be true or false")
        out.append((int(k), v))
    return tuple(sorted(out))


# -- verdicts ---------------------------------------------------------------------


@dataclass
class TraceStep:
    rule: str
    cite: str
    premises: dict
    scope_group: Optional[FiniteGroup] = None  # group the step talks about; not serialized

    def to_json(self) -> dict:
        return {"rule": self.rule, "cite": self.cite, "premises": self.premises}


@dataclass
class Verdict:
    answer: str
    trace: list[TraceStep] = field(default_factory=list)
    implications: list[str] = field(default_factory=list)
    context: Optional[dict] = None  # live objects for replay; not serialized

    def to_json(self) -> dict:
        return {
            "answer": self.answer,
            "trace": [s.to_json() for s in self.trace],
            "implications": self.implications,
        }


CITE_CHAR_P = ("characteristic-p reduction: a C_p extension changes k(G) by a "
               "rational extension, so retract rationality transfers")
CITE_ABELIAN = ("Saltman's abelian criterion: k(G) is retract k-rational iff "
                "char k = 2 or k(zeta_{2^r})/k is cyclic, e = 2^r m the exponent")
CITE_ABELIAN_NO = (CITE_ABELIAN + "; the failing case is Voskresenskii's theorem: "
                   "k(C_{2^n}) is not retract k-rational when k(zeta_{2^n})/k is "
                   "not cyclic")
CITE_2POWER_SPLIT = ("Voskresenskii's theorem pushed through a semidirect "
                     "quotient: k(H x| C_{2^n}) retract rational would force "
                     "k(C_{2^n}) retract rational")
CITE_SONN = ("Sonn's theorem: Q(G) is not retract Q-rational whenever G has a "
             "normal subgroup with quotient C_{2^n}, n >= 3")
CITE_ANCQ = ("abelian-normal-subgroup criterion: if H is abelian normal with "
             "G/H cyclic and zeta_{e'} in k, e' = lcm(exp H, ord tau), then "
             "k(V)^G is retract k-rational for every linear action")
CITE_EXP_P = ("exponent-p criterion: k(G) is retract k-rational for a "
              "non-abelian p-group of exponent p and order p^3 or p^4")
CITE_DIRECT = ("direct products: k(G1 x G2) is retract k-rational iff both "
               "k(G1) and k(G2) are (Saltman)")
CITE_SEMIDIRECT_NEC = ("semidirect quotients: if k(N x| G0) is retract "
                       "k-rational then so is k(G0) (Saltman)")
CITE_SEMIDIRECT_SUF = ("coprime abelian semidirect products: k(N) and k(G0) "
                       "retract k-rational with N abelian, gcd(|N|,|G0|) = 1 "
                       "give k(N x| G0) retract k-rational (Saltman)")
CITE_RESOLUTION = ("Colliot-Thelene/Sansuc flabby resolution plus Saltman's "
                   "torus criterion: K(M)^pi is retract k-rational iff the "
                   "flabby class of M is invertible")
CITE_SPLITTING = ("invertibility decided by an integral splitting test against "
                  "a cover with coflabby kernel; completeness is the splitting "
                  "lemma for extensions of invertible lattices")
CITE_H1_OBSTRUCTION = ("an invertible lattice is coflabby: H^1 vanishes on "
                       "permutation lattices and their direct summands "
                       "(Colliot-Thelene/Sansuc 1977), so H^1(H, F) != 0 shows "
                       "that the flabby class is not invertible")
CITE_CYCLIC_LATTICE = ("cyclic groups: k(G) retract k-rational iff k(M)^G is, "
                       "for every G-lattice M (flabby classes over cyclic "
                       "groups are invertible by Endo-Miyata)")
CITE_ZGROUP_LATTICE = ("Z-groups (all Sylow subgroups cyclic): retract "
                       "k-rationality of k(G) passes to k(M)^G for every "
                       "G-lattice M, by Endo-Miyata plus transitivity")
CITE_INVERTIBLE_CLASS = ("faithful lattices with invertible flabby class: "
                         "k(M)^G is retract k-rational iff k(G) is, via the "
                         "transitivity theorem for retract rationality")
CITE_MONOMIAL_SYLOW = ("monomial actions over C: all Sylow subgroups of G are "
                       "cyclic iff C_alpha(M)^G is retract C-rational for all "
                       "G-lattices M and all coefficient extensions alpha "
                       "(generalizing Barge's theorem)")
CITE_MONOMIAL_INVERTIBLE = ("invertible-lattice monomial criterion: k(G) "
                            "retract k-rational gives k_alpha(M)^G retract "
                            "k-rational for invertible M with faithful "
                            "action on the extension module")
CITE_RESCALING = ("coefficient rescaling: a vanishing extension class over "
                  "roots of unity available in k rewrites the monomial action "
                  "as purely monomial")

YES_IMPLICATIONS = [
    "a generic G-Galois extension exists over k",
    "a generic G-polynomial exists over k",
    "the unramified Brauer group of k(G) equals Br(k)",
]
NO_IMPLICATIONS = [
    "no generic G-Galois extension exists over k",
    "no generic G-polynomial exists over k",
    "k(G) is not stably k-rational (in particular not k-rational)",
]


def _with_implications(v: Verdict) -> Verdict:
    if v.answer == YES:
        v.implications = list(YES_IMPLICATIONS)
    elif v.answer == NO:
        v.implications = list(NO_IMPLICATIONS)
    return v


def _v2(n: int) -> int:
    r = 0
    while n % 2 == 0:
        n //= 2
        r += 1
    return r


_NOETHER_MEMO: dict[tuple, Verdict] = {}


def noether_verdict(G: FiniteGroup, k: FieldDescriptor) -> Verdict:
    """Decide retract k-rationality of k(G) by the rule set R1-R8."""
    v = _noether(G, k)
    out = Verdict(v.answer, list(v.trace), list(v.implications),
                  context={"kind": "noether", "group": G, "field": k})
    return out


def _noether(G: FiniteGroup, k: FieldDescriptor) -> Verdict:
    key = (G.table_key(), k.key())
    hit = _NOETHER_MEMO.get(key)
    if hit is not None:
        return hit
    v = _with_implications(_noether_uncached(G, k))
    _NOETHER_MEMO[key] = v
    return v


def _noether_uncached(G: FiniteGroup, k: FieldDescriptor) -> Verdict:
    # the memo lives as long as the process, so its steps name a bare copy
    # of G: G and what it keeps (subgroups, their groups and quotients) are
    # freed when the caller drops G
    scope = FiniteGroup(G.mul_table, G.generators, name=G.name, check=False)

    def _step(rule: str, cite: str, premises: dict) -> TraceStep:
        return TraceStep(rule, cite, premises, scope_group=scope)

    pending: list[TraceStep] = []

    # R1: characteristic-p reduction
    if k.characteristic:
        p = k.characteristic
        for N in G.subgroups():
            if N.order == p and N.is_normal:
                Q, _ = G.quotient(N)
                sub = _noether(Q, k)
                step = _step("char-p-reduction", CITE_CHAR_P, {
                    "p": p,
                    "normal_subgroup": list(N.members),
                    "quotient_order": Q.order,
                    "sub_answer": sub.answer,
                })
                return Verdict(sub.answer, [step] + sub.trace)

    # R2: the abelian criterion is a complete equivalence, so for abelian
    # groups both its sides decide here, before any subgroup sweep (this also
    # keeps large abelian groups clear of the subgroup-enumeration bound)
    abelian = G.is_abelian()
    cyc = None
    e = r = None
    if abelian:
        e = G.exponent()
        r = _v2(e)
        cyc = k.cyclotomic_2power_cyclic(r)
        if k.characteristic != 2 and cyc == "no":
            step = _step("abelian-cyclotomic", CITE_ABELIAN_NO, {
                "exponent": e, "two_power": r,
                "cyclotomic_2power_cyclic": "no",
                "characteristic": k.characteristic,
            })
            return Verdict(NO, [step])
        if k.characteristic == 2:
            step = _step("abelian-cyclotomic", CITE_ABELIAN, {
                "exponent": e, "two_power": r, "characteristic": 2,
            })
            return Verdict(YES, [step])
        if cyc == "yes":
            step = _step("abelian-cyclotomic", CITE_ABELIAN, {
                "exponent": e, "two_power": r,
                "cyclotomic_2power_cyclic": "yes",
                "characteristic": k.characteristic,
            })
            return Verdict(YES, [step])

    # R3: 2-power cyclic quotients
    for H in G.subgroups():
        if not H.is_normal:
            continue
        qorder = G.order // H.order
        n = _v2(qorder)
        if qorder == 1 or qorder != 2 ** n:
            continue
        Q, _ = G.quotient(H)
        if not Q.is_cyclic():
            continue
        if k.is_rationals and n >= 3:
            step = _step("2power-quotient-rationals", CITE_SONN, {
                "normal_subgroup": list(H.members),
                "quotient_order": qorder,
            })
            return Verdict(NO, [step])
        if k.cyclotomic_2power_cyclic(n) == "no":
            complement = next((C for N, C in G.semidirect_decompositions()
                               if N is H and C.is_cyclic()), None)
            if complement is not None:
                step = _step("2power-quotient-split", CITE_2POWER_SPLIT, {
                    "normal_subgroup": list(H.members),
                    "complement": list(complement.members),
                    "quotient_order": qorder,
                    "cyclotomic_2power_cyclic": "no",
                })
                return Verdict(NO, [step])

    # R7: semidirect necessity
    semis = G.semidirect_decompositions()
    for N, K in semis:
        sub = _noether(K.as_group(), k)
        if sub.answer == NO:
            step = _step("semidirect-quotient", CITE_SEMIDIRECT_NEC, {
                "normal_subgroup": list(N.members),
                "complement": list(K.members),
                "sub_answer": NO,
            })
            return Verdict(NO, [step] + sub.trace)

    # R2 leftover: abelian with an unknown cyclotomic oracle answer
    if abelian:
        pending.append(_step("abelian-cyclotomic-indecisive", CITE_ABELIAN, {
            "exponent": e, "two_power": r,
            "cyclotomic_2power_cyclic": cyc,
        }))

    # R4: abelian normal subgroup with cyclic quotient
    witness = G.abelian_normal_cyclic_quotient()
    if witness is not None:
        H, tau, e_prime = witness
        root = k.has_root_of_unity(e_prime)
        if root == "yes":
            step = _step("abelian-normal-cyclic-quotient", CITE_ANCQ, {
                "abelian_normal_subgroup": list(H.members),
                "tau": tau,
                "e_prime": e_prime,
                "root_of_unity": "yes",
            })
            return Verdict(YES, [step])
        pending.append(_step("abelian-normal-cyclic-quotient-indecisive", CITE_ANCQ, {
            "abelian_normal_subgroup": list(H.members),
            "tau": tau,
            "e_prime": e_prime,
            "root_of_unity": root,
        }))

    # R5: non-abelian p-groups of exponent p, order p^3 or p^4
    if not abelian:
        fac = _factorint(G.order)
        if len(fac) == 1:
            p = next(iter(fac))
            if G.exponent() == p and G.order in (p ** 3, p ** 4):
                step = _step("exponent-p", CITE_EXP_P, {
                    "p": p, "order": G.order, "exponent": p,
                })
                return Verdict(YES, [step])

    # R8: coprime abelian semidirect sufficiency
    for N, K in semis:
        if not N.is_abelian() or gcd(N.order, K.order) != 1:
            continue
        v1 = _noether(N.as_group(), k)
        v2 = _noether(K.as_group(), k)
        if v1.answer == YES and v2.answer == YES:
            step = _step("coprime-semidirect", CITE_SEMIDIRECT_SUF, {
                "normal_subgroup": list(N.members),
                "complement": list(K.members),
                "sub_answers": [YES, YES],
            })
            return Verdict(YES, [step] + v1.trace + v2.trace)

    # R6: direct product decompositions (equivalence per decomposition)
    saw_yes = saw_no = None
    for N1, N2 in G.direct_decompositions():
        v1 = _noether(N1.as_group(), k)
        v2 = _noether(N2.as_group(), k)
        answers = (v1.answer, v2.answer)
        if NO in answers:
            saw_no = (N1, N2, v1, v2)
        elif answers == (YES, YES):
            saw_yes = (N1, N2, v1, v2)
    if saw_no and saw_yes:
        raise InternalCheckError(
            "direct-product decompositions disagree; a rule is unsound")
    if saw_no:
        N1, N2, v1, v2 = saw_no
        step = _step("direct-product", CITE_DIRECT, {
            "factor_1": list(N1.members), "factor_2": list(N2.members),
            "sub_answers": [v1.answer, v2.answer],
        })
        return Verdict(NO, [step] + v1.trace + v2.trace)
    if saw_yes:
        N1, N2, v1, v2 = saw_yes
        step = _step("direct-product", CITE_DIRECT, {
            "factor_1": list(N1.members), "factor_2": list(N2.members),
            "sub_answers": [YES, YES],
        })
        return Verdict(YES, [step] + v1.trace + v2.trace)

    return Verdict(UNKNOWN, pending)


# -- lattice-level verdicts ----------------------------------------------------------


def torus_verdict(M: GLattice) -> Verdict:
    """Retract rationality of the function field of the torus with character
    lattice M (the acting group read as a faithful Galois group).  This rule
    is an equivalence, so No is definitive."""
    dec = decide_flabby_class(M)
    if dec.obstruction is None:
        res = dec.resolution
        steps = [
            TraceStep("flabby-resolution", CITE_RESOLUTION, {
                "lattice_rank": M.rank,
                "cover_rank": res.P.rank,
                "tail_rank": res.F.rank,
            }),
            TraceStep("invertibility-decision", CITE_SPLITTING, {
                "invertible": dec.answer,
                "witness_verified": dec.invertibility.witness is not None,
            }),
        ]
    else:
        H, invariants = dec.obstruction
        steps = [TraceStep("h1-obstruction", CITE_H1_OBSTRUCTION, {
            "subgroup": list(H.members),
            "h1": invariants.to_list(),
        })]
    v = Verdict(YES if dec.answer else NO, steps,
                context={"kind": "torus", "lattice": M})
    if v.answer == YES:
        v.implications = ["the unramified Brauer group of the fixed field equals Br(k)"]
    else:
        v.implications = ["the fixed field is not stably k-rational (and not k-rational)"]
    return v


def multiplicative_verdict(G: FiniteGroup, M: GLattice, k: FieldDescriptor) -> Verdict:
    """Retract rationality of k(M)^G for G acting trivially on k."""
    if M.group is not G:
        raise UserInputError("lattice does not live over the given group")
    kernel = action_kernel(M)
    faithful = kernel.order == 1

    if G.is_cyclic() or (G.all_sylow_cyclic() and _noether(G, k).answer == YES):
        Q, _ = G.quotient(kernel)
        sub = _noether(Q, k)
        cite = CITE_CYCLIC_LATTICE if G.is_cyclic() else CITE_ZGROUP_LATTICE
        step = TraceStep("faithful-quotient-reduction", cite, {
            "action_kernel": list(kernel.members),
            "faithful_quotient_order": Q.order,
            "sub_answer": sub.answer,
        })
        v = Verdict(sub.answer, [step] + sub.trace,
                    context={"kind": "multiplicative", "group": G, "lattice": M,
                             "field": k})
        return _with_implications_mult(v)

    if faithful:
        dec = decide_flabby_class(M)
        if dec.answer:
            sub = _noether(G, k)
            steps = [
                TraceStep("invertible-flabby-class", CITE_INVERTIBLE_CLASS, {
                    "lattice_rank": M.rank,
                    "tail_rank": dec.resolution.F.rank,
                    "invertible": True,
                    "sub_answer": sub.answer,
                }),
                TraceStep("transitivity", "transitivity of retract rationality "
                          "along k in K in L", {}),
            ]
            v = Verdict(sub.answer, steps + sub.trace,
                        context={"kind": "multiplicative", "group": G,
                                 "lattice": M, "field": k})
            return _with_implications_mult(v)

    v = Verdict(UNKNOWN, [TraceStep("no-applicable-rule", "no criterion covers "
                                    "this lattice (flabby class not known "
                                    "invertible)", {"faithful": faithful})],
                context={"kind": "multiplicative", "group": G, "lattice": M,
                         "field": k})
    return v


def _with_implications_mult(v: Verdict) -> Verdict:
    if v.answer == YES:
        v.implications = ["the unramified Brauer group of the fixed field equals Br(k)"]
    elif v.answer == NO:
        v.implications = ["the fixed field is not stably k-rational"]
    return v


def monomial_universal_verdict(G: FiniteGroup) -> Verdict:
    """Are ALL monomial fixed fields C_alpha(M)^G retract C-rational?

    Yes iff all Sylow subgroups of G are cyclic; No means some monomial
    action over C has a non-retract-rational fixed field."""
    sylow = G.all_sylow_cyclic()
    prem: dict = {"all_sylow_cyclic": sylow}
    if sylow:
        z = G.zgroup_presentation()
        if z is not None:
            prem["zassenhaus_presentation"] = {"m": z.m, "n": z.n, "r": z.r}
            if z.note:
                prem["note"] = z.note
    step = TraceStep("monomial-sylow-criterion", CITE_MONOMIAL_SYLOW, prem)
    v = Verdict(YES if sylow else NO, [step],
                context={"kind": "monomial-universal", "group": G})
    if sylow:
        v.implications = [
            "the unramified Brauer group over C of every monomial fixed field is trivial",
        ]
    else:
        v.implications = [
            "some monomial action over C has a fixed field with nontrivial "
            "unramified Brauer group (Barge), hence not retract C-rational",
        ]
    return v


def monomial_instance_verdict(G: FiniteGroup, action: MonomialAction,
                              k: FieldDescriptor) -> Verdict:
    """Retract k-rationality of the fixed field of one monomial action."""
    if action.lattice.group is not G:
        raise UserInputError("action does not live over the given group")
    ctx = {"kind": "monomial-instance", "group": G, "action": action, "field": k}

    if k.all_roots and k.characteristic == 0 and G.all_sylow_cyclic():
        step = TraceStep("monomial-sylow-criterion", CITE_MONOMIAL_SYLOW,
                         {"all_sylow_cyclic": True, "field": k.name})
        v = Verdict(YES, [step], context=ctx)
        v.implications = ["the unramified Brauer group of the fixed field is trivial"]
        return v

    dec = is_invertible(action.lattice)
    if dec.answer and action.is_faithful:
        sub = _noether(G, k)
        if sub.answer == YES:
            step = TraceStep("invertible-monomial", CITE_MONOMIAL_INVERTIBLE, {
                "lattice_invertible": True,
                "faithful_on_extension": True,
                "sub_answer": YES,
            })
            v = Verdict(YES, [step] + sub.trace, context=ctx)
            v.implications = ["the unramified Brauer group of the fixed field equals Br(k)"]
            return v

    ec = extension_class(action)
    rewrite_modulus = None
    if ec.vanishes_at_d and k.has_root_of_unity(action.d) == "yes":
        rewrite_modulus = action.d
    elif ec.vanishes_stably and k.has_root_of_unity(action.d * G.order) == "yes":
        rewrite_modulus = action.d * G.order
    if rewrite_modulus is not None:
        sub = multiplicative_verdict(G, action.lattice, k)
        if sub.answer != UNKNOWN:
            step = TraceStep("monomial-rescaling", CITE_RESCALING, {
                "modulus": rewrite_modulus,
                "vanishes_at_d": ec.vanishes_at_d,
                "vanishes_stably": ec.vanishes_stably,
                "sub_answer": sub.answer,
            })
            v = Verdict(sub.answer, [step] + sub.trace, context=ctx)
            v.implications = list(sub.implications)
            return v

    return Verdict(UNKNOWN, [TraceStep("no-applicable-rule",
                                       "no monomial criterion applies", {})],
                   context=ctx)


# -- trace replay ------------------------------------------------------------------


def _replay_noether_step(G: FiniteGroup, k: FieldDescriptor, step: TraceStep) -> bool:
    p = step.premises
    rule = step.rule
    if rule == "char-p-reduction":
        N = G.subgroup(p["normal_subgroup"])
        if N.order != p["p"] or p["p"] != k.characteristic or not N.is_normal:
            return False
        Q, _ = G.quotient(N)
        return _noether(Q, k).answer == p["sub_answer"]
    if rule.startswith("abelian-cyclotomic"):
        if not G.is_abelian():
            return False
        e = G.exponent()
        if e != p["exponent"] or _v2(e) != p["two_power"]:
            return False
        if "cyclotomic_2power_cyclic" in p:
            return k.cyclotomic_2power_cyclic(p["two_power"]) == p["cyclotomic_2power_cyclic"]
        return True
    if rule == "2power-quotient-rationals":
        if not k.is_rationals:
            return False
        H = G.subgroup(p["normal_subgroup"])
        Q, _ = G.quotient(H)
        q = p["quotient_order"]
        return H.is_normal and Q.order == q and Q.is_cyclic() \
            and q == 2 ** _v2(q) and q >= 8
    if rule == "2power-quotient-split":
        H = G.subgroup(p["normal_subgroup"])
        C = G.subgroup(p["complement"])
        q = p["quotient_order"]
        return ((H, C) in G.semidirect_decompositions() and C.order == q and C.is_cyclic()
                and k.cyclotomic_2power_cyclic(_v2(q)) == "no")
    if rule.startswith("abelian-normal-cyclic-quotient"):
        H = G.subgroup(p["abelian_normal_subgroup"])
        if not (H.is_normal and H.is_abelian()):
            return False
        Q, proj = G.quotient(H)
        tau = p["tau"]
        if not Q.is_cyclic() or Q.element_order(proj[tau]) != Q.order:
            return False
        if p["e_prime"] != lcm(H.exponent(), G.element_order(tau)):
            return False
        if "root_of_unity" in p:
            return k.has_root_of_unity(p["e_prime"]) == p["root_of_unity"]
        return True
    if rule == "exponent-p":
        fac = _factorint(G.order)
        return (not G.is_abelian() and len(fac) == 1
                and G.exponent() == p["p"]
                and G.order in (p["p"] ** 3, p["p"] ** 4))
    if rule == "semidirect-quotient":
        N = G.subgroup(p["normal_subgroup"])
        K = G.subgroup(p["complement"])
        return ((N, K) in G.semidirect_decompositions()
                and _noether(K.as_group(), k).answer == NO)
    if rule == "coprime-semidirect":
        N = G.subgroup(p["normal_subgroup"])
        K = G.subgroup(p["complement"])
        return ((N, K) in G.semidirect_decompositions()
                and N.is_abelian() and gcd(N.order, K.order) == 1
                and _noether(N.as_group(), k).answer == YES
                and _noether(K.as_group(), k).answer == YES)
    if rule == "direct-product":
        N1 = G.subgroup(p["factor_1"])
        N2 = G.subgroup(p["factor_2"])
        if (N1, N2) not in G.direct_decompositions():
            return False
        got = [_noether(N1.as_group(), k).answer, _noether(N2.as_group(), k).answer]
        return got == p["sub_answers"]
    # informational/indecisive steps and nested sub-steps: accept if they are
    # sub-verdict steps (they get re-checked when the sub-verdict reruns)
    return True


def replay_trace(v: Verdict) -> bool:
    """Re-run the engine on the verdict's inputs and re-verify the premises of
    every step; True iff the answer reproduces and all premises check out.
    A torus h1-obstruction is re-checked as h1 of the tail of a fresh flabby
    resolution, a path that shares no code with the Sha^2_omega reading
    that made it; so a torus No whose lattice has a resolution beyond the
    cover rank bound (the regular norm-one torus of C2^4, say) cannot be
    replayed: the resolution raises ResourceBoundError."""
    if not v.context:
        raise UserInputError("verdict carries no replay context")
    kind = v.context["kind"]
    if kind == "noether":
        G, k = v.context["group"], v.context["field"]
        fresh = noether_verdict(G, k)
        if fresh.answer != v.answer:
            return False
        return all(_replay_noether_step(s.scope_group or G, k, s) for s in v.trace)
    if kind == "torus":
        M = v.context["lattice"]
        if torus_verdict(M).answer != v.answer:
            return False
        obstructions = [s.premises for s in v.trace if s.rule == "h1-obstruction"]
        if obstructions:
            F = flabby_resolution(M).F
            return all(h1(M.group.subgroup(p["subgroup"]), F).to_list() == p["h1"]
                       for p in obstructions)
        return True
    if kind == "multiplicative":
        fresh = multiplicative_verdict(v.context["group"], v.context["lattice"],
                                       v.context["field"])
        return fresh.answer == v.answer
    if kind == "monomial-universal":
        fresh = monomial_universal_verdict(v.context["group"])
        return fresh.answer == v.answer
    if kind == "monomial-instance":
        fresh = monomial_instance_verdict(v.context["group"], v.context["action"],
                                          v.context["field"])
        return fresh.answer == v.answer
    raise UserInputError(f"unknown verdict kind {kind!r}")
