"""The verdict engine: fields, rules, traces, replay."""

import gc
import weakref

import pytest

from conftest import metacyclic_group, sign_lattice
from retractrat.errors import UserInputError
from retractrat import verdict
from retractrat.groups import (
    catalog_group,
    catalog_groups_upto,
    cyclic_group,
    dihedral_group,
    direct_product,
)
from retractrat.lattices import (
    GLattice,
    augmentation_kernel,
    dual,
    lenstra_lattice,
    regular_lattice,
    trivial_lattice,
)
from retractrat.monomial import MonomialAction
from retractrat.verdict import (
    COMPLEX,
    RATIONALS,
    FieldDescriptor,
    monomial_instance_verdict,
    monomial_universal_verdict,
    multiplicative_verdict,
    noether_verdict,
    parse_field,
    replay_trace,
    torus_verdict,
)
from retractrat.zlinalg import Mat


class TestFieldDescriptor:
    def test_rationals(self):
        assert RATIONALS.has_root_of_unity(2) == "yes"
        assert RATIONALS.has_root_of_unity(3) == "no"
        assert RATIONALS.cyclotomic_2power_cyclic(2) == "yes"
        assert RATIONALS.cyclotomic_2power_cyclic(3) == "no"

    def test_rationals_cyclotomic_brute_force(self):
        # Gal(Q(zeta_{2^r})/Q) is the unit group mod 2^r: cyclic iff r <= 2
        from retractrat.groups import unit_group_mod_2n
        for r in range(1, 6):
            expected = "yes" if unit_group_mod_2n(r).is_cyclic() else "no"
            assert RATIONALS.cyclotomic_2power_cyclic(r) == expected

    def test_complex(self):
        assert COMPLEX.has_root_of_unity(100) == "yes"
        assert COMPLEX.cyclotomic_2power_cyclic(7) == "yes"

    @pytest.mark.parametrize("char", [1, 9, 2 ** 61 + 1, 10 ** 30, None])
    def test_characteristic_must_be_zero_or_prime(self, char):
        with pytest.raises(UserInputError):
            FieldDescriptor(name="bad", characteristic=char)

    def test_prime_characteristics_accepted(self):
        for p in (2, 3, 5, 1009, 2 ** 61 - 1):
            assert FieldDescriptor(name="Fp", characteristic=p).characteristic == p

    def test_positive_characteristic_convention(self):
        k = FieldDescriptor(name="F5bar", characteristic=5, all_roots=True)
        assert k.has_root_of_unity(5) == "no"
        assert k.has_root_of_unity(10) == "no"
        assert k.has_root_of_unity(4) == "yes"

    def test_custom_tables(self):
        k = parse_field({"name": "k", "roots_of_unity": {"4": True},
                         "cyclotomic_2power_cyclic": {"3": False}})
        assert k.has_root_of_unity(4) == "yes"
        assert k.has_root_of_unity(8) == "unknown"
        assert k.cyclotomic_2power_cyclic(3) == "no"
        assert k.cyclotomic_2power_cyclic(2) == "yes"  # zeta_4 in k

    def test_parse_name(self):
        assert parse_field("Q") is RATIONALS
        assert parse_field("C") is COMPLEX
        with pytest.raises(UserInputError):
            parse_field("R")


class TestNoetherVerdict:
    def test_c8_rationals_no(self):
        v = noether_verdict(catalog_group("C8"), RATIONALS)
        assert v.answer == "No"
        assert any("Voskresenskii" in s.cite for s in v.trace)
        assert "no generic G-Galois extension exists over k" in v.implications

    def test_c47_rationals_yes(self):
        v = noether_verdict(cyclic_group(47), RATIONALS)
        assert v.answer == "Yes"
        assert any("abelian" in s.rule for s in v.trace)

    def test_s3_complex_yes_via_abelian_normal(self):
        v = noether_verdict(catalog_group("S3"), COMPLEX)
        assert v.answer == "Yes"
        assert v.trace[0].rule == "abelian-normal-cyclic-quotient"

    def test_q8_rationals_unknown(self):
        v = noether_verdict(catalog_group("Q8"), RATIONALS)
        assert v.answer == "Unknown"
        # the near-miss is recorded: zeta_4 would be needed
        assert any(s.rule.endswith("indecisive") for s in v.trace)

    def test_abelian_complex_all_yes(self):
        for G in catalog_groups_upto(16):
            if G.is_abelian():
                assert noether_verdict(G, COMPLEX).answer == "Yes"

    def test_sonn_rule_on_nonabelian_c8_quotient(self):
        G = metacyclic_group(3, 8, 2)  # C3 x| C8, quotient C8
        v = noether_verdict(G, RATIONALS)
        assert v.answer == "No"
        assert any(s.rule == "2power-quotient-rationals" for s in v.trace)
        assert any("Sonn" in s.cite for s in v.trace)

    def test_split_2power_rule_over_custom_field(self):
        # a field known to fail cyclotomic cyclicity at r = 3 but not Q
        k = parse_field({"name": "k3", "cyclotomic_2power_cyclic": {"3": False}})
        G = metacyclic_group(3, 8, 2)
        v = noether_verdict(G, k)
        assert v.answer == "No"
        assert any(s.rule == "2power-quotient-split" for s in v.trace)

    def test_char2_abelian_yes(self):
        k = FieldDescriptor(name="F2inf", characteristic=2)
        v = noether_verdict(catalog_group("C8"), k)
        assert v.answer == "Yes"

    def test_charp_reduction(self):
        k = FieldDescriptor(name="F3", characteristic=3)
        v = noether_verdict(catalog_group("C12"), k)
        # C12 -> C12/C3 = C4; over char 3, zeta_4: unknown tables -> Unknown,
        # but the reduction trace must be present
        assert v.trace[0].rule == "char-p-reduction"
        assert v.trace[0].premises["p"] == 3

    def test_direct_product_rule(self):
        # C3 x Q8 has no other deciding rule over Q; factor Q8 is Unknown
        # C2 x C8 over Q: both abelian; R2 fires first on the product itself.
        # exercise R6 with S3 x C8-like... use V4 = C2 x C2 over a field with
        # no cyclotomic knowledge: factors decide Yes over C though; keep Q:
        v = noether_verdict(catalog_group("C2xC4"), RATIONALS)
        assert v.answer == "Yes"  # via R2 directly (exponent 4, r = 2)

    def test_exponent_p_rule(self):
        # the Heisenberg group of order 27 = extraspecial exponent-3 group
        import itertools

        def enc(a, b, c):
            return (a * 3 + b) * 3 + c

        table = [[0] * 27 for _ in range(27)]
        for a1, b1, c1 in itertools.product(range(3), repeat=3):
            for a2, b2, c2 in itertools.product(range(3), repeat=3):
                a, b = a1 + a2, b1 + b2
                c = c1 + c2 + b1 * a2
                table[enc(a1, b1, c1)][enc(a2, b2, c2)] = enc(a % 3, b % 3, c % 3)
        from retractrat.groups import parse_group
        G = parse_group({"table": table, "name": "Heis3"})
        assert not G.is_abelian() and G.exponent() == 3
        v = noether_verdict(G, RATIONALS)
        assert v.answer == "Yes"
        assert any(s.rule == "exponent-p" for s in v.trace)

    def test_large_abelian_groups_dodge_subgroup_bound(self):
        # the abelian criterion is an equivalence and needs no subgroup sweep,
        # so cyclic groups beyond the enumeration bound still get verdicts
        for n, expected in [(47, "Yes"), (64, "No"), (100, "Yes"),
                            (128, "No"), (233, "Yes")]:
            v = noether_verdict(cyclic_group(n), RATIONALS)
            assert v.answer == expected
            assert replay_trace(v)

    def test_determinism(self):
        a = noether_verdict(catalog_group("D8"), RATIONALS).to_json()
        b = noether_verdict(catalog_group("D8"), RATIONALS).to_json()
        assert a == b

    def test_r2_consistency_with_decomposition(self):
        # abelian G of order <= 16 over Q: the criterion must match the
        # factor-by-factor computation through the prime-power decomposition
        for G in catalog_groups_upto(16):
            if not G.is_abelian():
                continue
            v = noether_verdict(G, RATIONALS)
            qs = G.abelian_decomposition()
            # per factor C_q: retract rational over Q iff q odd, q <= 4,
            # or qs 2-power with cyclic cyclotomic (q = 2, 4)
            def factor_yes(q):
                two = q
                while two % 2 == 0:
                    two //= 2
                r = (q // two).bit_length() - 1
                return RATIONALS.cyclotomic_2power_cyclic(r) == "yes"
            expected = "Yes" if all(factor_yes(q) for q in qs) else "No"
            assert v.answer == expected


class TestReplay:
    def test_replay_catalog_over_q_and_c(self):
        for G in catalog_groups_upto(12):
            for k in (RATIONALS, COMPLEX):
                v = noether_verdict(G, k)
                assert replay_trace(v)

    def test_sweep_all_catalog_all_fields(self):
        # the engine must terminate with a replayable verdict for every
        # catalog group over a spread of fields
        fields = [
            RATIONALS,
            COMPLEX,
            FieldDescriptor(name="F2t", characteristic=2),
            FieldDescriptor(name="F3t", characteristic=3),
            parse_field({"name": "partial", "roots_of_unity": {"4": True},
                         "cyclotomic_2power_cyclic": {"3": False}}),
        ]
        for G in catalog_groups_upto(16):
            for k in fields:
                v = noether_verdict(G, k)
                assert v.answer in ("Yes", "No", "Unknown")
                assert replay_trace(v), (G.name, k.name)
                assert noether_verdict(G, k).to_json() == v.to_json()

    def test_memo_frees_the_group_and_what_it_keeps(self):
        # the memo lives as long as the process; its steps name bare copies,
        # so a group goes with its subgroups' groups and quotients
        verdict._NOETHER_MEMO.clear()
        gc.disable()
        try:
            G = direct_product(dihedral_group(8), cyclic_group(2))
            v = noether_verdict(G, RATIONALS)
            derived = [H._group for H in G.subgroups() if H._group is not None] \
                + [H._quotient[0] for H in G.subgroups() if H._quotient is not None]
            assert derived
            refs = [weakref.ref(G)] + [weakref.ref(K) for K in derived]
            del G, v, derived
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()
        # a memo hit replays against the bare copies
        again = noether_verdict(direct_product(dihedral_group(8), cyclic_group(2)), RATIONALS)
        assert replay_trace(again)

    def test_replay_needs_context(self):
        from retractrat.verdict import Verdict
        with pytest.raises(UserInputError):
            replay_trace(Verdict("Yes"))


class TestTorusVerdict:
    def test_sign_yes(self):
        C2 = catalog_group("C2")
        v = torus_verdict(sign_lattice(C2, C2.trivial_subgroup()))
        assert v.answer == "Yes"
        assert replay_trace(v)

    def test_lenstra_no(self):
        v = torus_verdict(lenstra_lattice(3).M)
        assert v.answer == "No"
        assert replay_trace(v)

    def test_obstruction_replay_checks_the_divisors(self):
        v = torus_verdict(lenstra_lattice(3).M)
        assert [s.rule for s in v.trace] == ["flabby-resolution", "h1-obstruction"]
        premises = v.trace[1].premises
        assert premises["h1"] == [2]
        assert replay_trace(v)
        premises["h1"] = [4]  # the same answer, with a wrong certificate
        assert not replay_trace(v)

    def test_coflabby_tail_decided_by_the_section_system(self):
        Q8 = catalog_group("Q8")
        v = torus_verdict(dual(augmentation_kernel(Q8, Q8.trivial_subgroup())))
        assert v.answer == "No"
        assert [s.rule for s in v.trace] == ["flabby-resolution", "invertibility-decision"]
        assert replay_trace(v)

    def test_permutation_yes(self):
        v = torus_verdict(regular_lattice(catalog_group("S3")))
        assert v.answer == "Yes"


class TestMultiplicativeVerdict:
    def test_c8_faithful_no(self):
        C8 = catalog_group("C8")
        v = multiplicative_verdict(C8, regular_lattice(C8), RATIONALS)
        assert v.answer == "No"

    def test_c3_any_yes(self):
        C3 = catalog_group("C3")
        v = multiplicative_verdict(C3, trivial_lattice(C3, 3), RATIONALS)
        assert v.answer == "Yes"

    def test_v4_noninvertible_class_unknown(self):
        data = lenstra_lattice(3)  # acting group is the Klein four group
        v = multiplicative_verdict(data.pi, data.M, COMPLEX)
        assert v.answer == "Unknown"

    def test_faithful_invertible_class_routes_to_group_answer(self):
        V4 = catalog_group("V4")
        v = multiplicative_verdict(V4, regular_lattice(V4), COMPLEX)
        assert v.answer == "Yes"
        assert any(s.rule == "invertible-flabby-class" for s in v.trace)
        assert any(s.rule == "transitivity" for s in v.trace)

    def test_nonfaithful_zgroup_reduction(self):
        S3 = catalog_group("S3")
        # trivial lattice: kernel is all of S3, quotient C1 -> Yes
        v = multiplicative_verdict(S3, trivial_lattice(S3), RATIONALS)
        assert v.answer == "Yes"
        assert v.trace[0].rule == "faithful-quotient-reduction"


class TestMonomialVerdicts:
    def test_universal_matches_sylow(self):
        for G in catalog_groups_upto(16):
            v = monomial_universal_verdict(G)
            assert (v.answer == "Yes") == G.all_sylow_cyclic()
            assert replay_trace(v)

    def test_universal_yes_carries_presentation(self):
        v = monomial_universal_verdict(catalog_group("S3"))
        assert v.trace[0].premises.get("zassenhaus_presentation") == \
            {"m": 3, "n": 2, "r": 2}

    def test_instance_complex_sylow_cyclic(self):
        S3 = catalog_group("S3")
        a = MonomialAction(regular_lattice(S3), 1,
                           {s: tuple([0] * 6) for s in S3.generators})
        v = monomial_instance_verdict(S3, a, COMPLEX)
        assert v.answer == "Yes"

    def test_instance_invertible_route_over_q(self):
        C3 = catalog_group("C3")
        a = MonomialAction(regular_lattice(C3), 1, {1: (0, 0, 0)})
        v = monomial_instance_verdict(C3, a, RATIONALS)
        assert v.answer == "Yes"
        assert replay_trace(v)

    def test_instance_rescaling_route(self):
        # x -> zeta_4 x^-1 over C2 with k containing zeta_8: rewrite as purely
        # monomial, then the cyclic-group criterion decides
        C2 = catalog_group("C2")
        inv = GLattice(C2, 1, {1: Mat.from_rows([[-1]])})
        a = MonomialAction(inv, 4, {1: (1,)})
        k = parse_field({"name": "Q8roots", "roots_of_unity": {"4": True, "8": True},
                         "cyclotomic_2power_cyclic": {"2": True, "3": True}})
        v = monomial_instance_verdict(C2, a, k)
        assert v.answer == "Yes"
        assert any(s.rule == "monomial-rescaling" for s in v.trace)

    def test_instance_unknown_fallback(self):
        V4 = catalog_group("V4")
        a = MonomialAction(trivial_lattice(V4), 2,
                           {s: (1,) for s in V4.generators})
        v = monomial_instance_verdict(V4, a, RATIONALS)
        assert v.answer in ("Unknown", "Yes", "No")  # engine must not crash
