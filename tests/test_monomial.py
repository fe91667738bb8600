"""Monomial actions: validation, extension classes, rescaling round-trips."""

import itertools
import random

import pytest

from retractrat.errors import UserInputError
from retractrat.groups import catalog_group, catalog_groups_upto
from retractrat.lattices import GLattice, random_lattice, regular_lattice, trivial_lattice
from retractrat.monomial import (
    MonomialAction,
    _coboundary_witness,
    extension_class,
    parse_monomial_action,
    rescale,
)
from retractrat.zlinalg import Mat, solve_integer


C2 = catalog_group("C2")
INV = GLattice(C2, 1, {1: Mat.from_rows([[-1]])})  # x -> x^-1


def coboundary_oracle(action, modulus):
    """Brute force: search v in (Z/modulus)^rank clearing all coefficients."""
    lat = action.lattice
    G = lat.group
    scale = modulus // action.d
    for v in itertools.product(range(modulus), repeat=lat.rank):
        ok = True
        for s in G.generators:
            At = lat.act(s).transpose()
            for i in range(lat.rank):
                c = action.coeff[s][i] * scale
                shift = v[i] - sum(At.a[i][j] * v[j] for j in range(lat.rank))
                if (c + shift) % modulus:
                    ok = False
        if ok:
            return v
    return None


def slack_system_solvable(action, modulus, scale):
    """The former solver: (A(s)^T - I) v + modulus * t_(s,i) = c(s)_i * scale
    over Z, one slack unknown t_(s,i) per equation (solve_integer)."""
    lat = action.lattice
    m, gens = lat.rank, lat.group.generators
    rows, rhs = [], []
    for idx, s in enumerate(gens):
        At = lat.act(s).transpose()
        for i in range(m):
            slack = [0] * (len(gens) * m)
            slack[idx * m + i] = modulus
            rows.append([At.a[i][j] - (i == j) for j in range(m)] + slack)
            rhs.append(action.coeff[s][i] * scale % modulus)
    return not rows or solve_integer(Mat.from_rows(rows, m + len(gens) * m), rhs) is not None


def seeded_actions(seed, per_d=3):
    """Monomial actions over the catalog groups of order at most 16: for each
    d in {1, 2, 3, 4, 6, 8, 12}, a random lattice of rank at most 3 and up to
    per_d random coefficient vectors that satisfy the group's relations."""
    rng = random.Random(seed)
    out = []
    for G in catalog_groups_upto(16):
        for d in (1, 2, 3, 4, 6, 8, 12):
            lat = random_lattice(G, 3, rng)
            kept = 0
            for _ in range(200):
                coeff = {s: tuple(rng.randrange(d) for _ in range(lat.rank))
                         for s in G.generators}
                try:
                    out.append(MonomialAction(lat, d, coeff))
                except UserInputError:
                    continue
                kept += 1
                if kept == per_d:
                    break
    return out


class TestValidation:
    def test_purely_monomial(self):
        a = MonomialAction(trivial_lattice(C2), 4, {1: (0,)})
        assert a.is_purely_monomial

    def test_valid_twisted_inversion(self):
        # sigma: x -> zeta_4 x^-1 is a genuine C2 action
        a = MonomialAction(INV, 4, {1: (1,)})
        assert not a.is_purely_monomial

    def test_relation_violation(self):
        # sigma: x -> zeta_4 x has sigma^2(x) = zeta_4^2 x != x
        with pytest.raises(UserInputError):
            MonomialAction(trivial_lattice(C2), 4, {1: (1,)})

    def test_relation_violation_commutator_only(self):
        # V4 inverts x through both generators; with sigma_a: x -> x^-1 and
        # sigma_b: x -> zeta_4 x^-1 both square to the identity, but
        # sigma_a sigma_b and sigma_b sigma_a differ by zeta_4^2
        V4 = catalog_group("V4")
        a, b = V4.generators
        lat = GLattice(V4, 1, {a: Mat.from_rows([[-1]]), b: Mat.from_rows([[-1]])})
        with pytest.raises(UserInputError):
            MonomialAction(lat, 4, {a: (0,), b: (1,)})
        assert MonomialAction(lat, 4, {a: (0,), b: (2,)}).expand()

    def test_expansion_obeys_coefficient_law_on_all_pairs(self):
        # rescaling a purely monomial action by v gives the coboundary
        # coefficients v - A(s)^T v, a valid action
        rng = random.Random(12)
        twisted = 0
        for name in ["C4", "S3", "D8", "Q8"]:
            G = catalog_group(name)
            lat = random_lattice(G, 3, rng)
            v = [rng.randrange(6) for _ in range(lat.rank)]
            a = rescale(MonomialAction(lat, 6, {s: (0,) * lat.rank for s in G.generators}), v, 6)
            twisted += not a.is_purely_monomial
            c = a.expand()
            for g in G.elements():
                for h in G.elements():
                    Aht = lat.act(h).transpose()
                    want = tuple((x + y) % 6 for x, y in zip(c[h], Aht.mulvec(c[g])))
                    assert c[G.mul(g, h)] == want, (name, g, h)
        assert twisted

    def test_parse_document(self):
        doc = {"group": "C2", "rank": 1, "action": {"1": [[-1]]},
               "d": 4, "coeff": {"1": [1]}}
        a = parse_monomial_action(doc)
        assert a.d == 4 and a.coeff[1] == (1,)

    def test_general_scalars_not_representable(self):
        # coefficients outside the roots of unity cannot be written at all:
        # only integer exponents of zeta_d are accepted
        doc = {"group": "C2", "rank": 1, "action": {"1": [[-1]]},
               "d": 4, "coeff": {"1": [0.5]}}
        with pytest.raises(UserInputError):
            parse_monomial_action(doc)

    def test_faithfulness(self):
        a = MonomialAction(trivial_lattice(C2), 2, {1: (1,)})
        assert a.is_faithful  # acts by -1 on the variable
        b = MonomialAction(trivial_lattice(C2), 2, {1: (0,)})
        assert not b.is_faithful


class TestExtensionClass:
    def test_purely_monomial_zero_cocycle(self):
        a = MonomialAction(regular_lattice(C2), 3, {1: (0, 0)})
        ec = extension_class(a)
        assert ec.vanishes_at_d and ec.vanishes_stably
        assert all(all(x == 0 for x in v) for v in ec.cocycle.values())

    def test_twisted_inversion_vanishes_stably_only(self):
        a = MonomialAction(INV, 4, {1: (1,)})
        ec = extension_class(a)
        assert not ec.vanishes_at_d
        assert ec.vanishes_stably
        assert coboundary_oracle(a, 4) is None
        assert coboundary_oracle(a, 8) is not None

    def test_minus_one_on_trivial_exponent(self):
        # sigma: x -> -x with trivial exponent part: the class never vanishes,
        # not even stably; verified against the brute-force oracle
        a = MonomialAction(trivial_lattice(C2), 2, {1: (1,)})
        ec = extension_class(a)
        assert not ec.vanishes_at_d
        assert not ec.vanishes_stably
        assert coboundary_oracle(a, 2) is None
        assert coboundary_oracle(a, 4) is None

    def test_minus_one_on_inversion_variant(self):
        # sigma: x -> -x^-1 (d = 2 with inversion) does vanish stably: rescale by zeta_4
        a = MonomialAction(INV, 2, {1: (1,)})
        ec = extension_class(a)
        assert not ec.vanishes_at_d
        assert ec.vanishes_stably
        assert coboundary_oracle(a, 4) is not None

    def test_cocycle_condition_all_pairs(self):
        for a in [MonomialAction(INV, 4, {1: (1,)}),
                  MonomialAction(regular_lattice(C2), 6, {1: (1, 5)})]:
            lat = a.lattice
            G = lat.group
            z = extension_class(a).cocycle
            for g in range(G.order):
                for h in range(G.order):
                    Ag = lat.act(G.inv(g)).transpose()  # contragredient action of g
                    lhs = z[G.mul(g, h)]
                    act_h = tuple(
                        sum(lat.act(G.inv(g)).transpose().a[i][j] * z[h][j]
                            for j in range(lat.rank)) % a.d
                        for i in range(lat.rank))
                    rhs = tuple((z[g][i] + act_h[i]) % a.d for i in range(lat.rank))
                    assert lhs == rhs

    def test_vanishing_witness_round_trip(self):
        # at-d vanishing comes with a rescaling that clears the coefficients
        swap = regular_lattice(C2)
        a = MonomialAction(swap, 2, {1: (1, 1)})
        ec = extension_class(a)
        assert ec.vanishes_at_d
        cleared = ec.rescaled_action()
        assert cleared.is_purely_monomial

        G4 = catalog_group("C4")
        rot = GLattice(G4, 2, {1: Mat.from_rows([[0, -1], [1, 0]])})
        b = MonomialAction(rot, 2, {1: (1, 0)})
        ecb = extension_class(b)
        if ecb.vanishes_at_d:
            assert ecb.rescaled_action().is_purely_monomial

    def test_monotone(self):
        cases = [
            MonomialAction(trivial_lattice(C2), 4, {1: (0,)}),
            MonomialAction(INV, 4, {1: (1,)}),
            MonomialAction(INV, 2, {1: (1,)}),
            MonomialAction(trivial_lattice(C2), 2, {1: (1,)}),
        ]
        for a in cases:
            ec = extension_class(a)
            if ec.vanishes_at_d:
                assert ec.vanishes_stably

    def test_oracle_agreement_sweep(self):
        # every small C2/C4 case: solver agrees with brute force at d and stably
        lats = [trivial_lattice(C2), INV, regular_lattice(C2)]
        for lat in lats:
            for d in (2, 4):
                for coeffs in itertools.product(range(d), repeat=lat.rank):
                    try:
                        a = MonomialAction(lat, d, {1: tuple(coeffs)})
                    except UserInputError:
                        continue
                    ec = extension_class(a)
                    assert ec.vanishes_at_d == (coboundary_oracle(a, d) is not None)
                    stable_mod = d * lat.group.order
                    assert ec.vanishes_stably == (
                        coboundary_oracle(a, stable_mod) is not None)

    def test_coboundary_witness_against_slack_system(self):
        # at d and at d*|G|, with the trivial group (no generators, no
        # equations) and modulus 1 among the cases
        solvable = unsolvable = 0
        for a in seeded_actions(seed=3):
            lat, G = a.lattice, a.lattice.group
            for modulus in (a.d, a.d * G.order):
                scale = modulus // a.d
                v = _coboundary_witness(a, modulus, scale)
                assert (v is not None) == slack_system_solvable(a, modulus, scale)
                if v is None:
                    unsolvable += 1
                    continue
                solvable += 1
                assert len(v) == lat.rank and all(0 <= x < modulus for x in v)
                for s in G.generators:
                    At = lat.act(s).transpose()
                    for i in range(lat.rank):
                        image = sum(At.a[i][j] * v[j] for j in range(lat.rank)) - v[i]
                        assert (a.coeff[s][i] * scale - image) % modulus == 0
        assert solvable > 500 and unsolvable > 200
        trivial = MonomialAction(trivial_lattice(catalog_group("C1"), 2), 5, {})
        assert _coboundary_witness(trivial, 5, 1) == (0, 0)
        assert _coboundary_witness(MonomialAction(INV, 1, {1: (0,)}), 1, 1) == (0,)
