"""Monomial actions with root-of-unity coefficients and their extension class.

A monomial action sends x_j to c_j(sigma) * prod_i x_i^(a_ij) with the
coefficients c_j(sigma) = zeta_d^(e_j) stored as exponent vectors mod d.
Composing two such maps gives the coefficient law

    c(gh) = c(h) + A(h)^T c(g)   (mod d),

so z(g) := A(g^-1)^T c(g) is an ordinary 1-cocycle of G valued in
Hom(M, Z/d) with the contragredient action.  The class of the associated
module extension vanishes over Z/q exactly when z is a coboundary mod q,
i.e. when a rescaling of the variables by q-th roots of unity clears all
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import UserInputError
from .groups import is_int
from .lattices import GLattice, dual, generator_key, parse_lattice
from .zlinalg import Mat, pack_lanes, solve_packed


@dataclass
class MonomialAction:
    """Exponent lattice plus coefficient exponents (mod d) per generator."""

    lattice: GLattice
    d: int
    coeff: dict[int, tuple[int, ...]]

    def __post_init__(self):
        if self.d < 1:
            raise UserInputError("coefficient modulus d must be positive")
        G = self.lattice.group
        if set(self.coeff) != set(G.generators):
            raise UserInputError("coefficients must be given on exactly the generators")
        norm = {}
        for g, vec in self.coeff.items():
            if len(vec) != self.lattice.rank:
                raise UserInputError(f"coefficient vector for generator {g} has wrong length")
            norm[g] = tuple(int(x) % self.d for x in vec)
        self.coeff = norm
        self._expanded: Optional[dict[int, tuple[int, ...]]] = None
        self.expand()  # validates the relations

    @property
    def is_purely_monomial(self) -> bool:
        return all(all(x == 0 for x in vec) for vec in self.coeff.values())

    def expand(self) -> dict[int, tuple[int, ...]]:
        """Coefficient vector for every group element, from
        c(g s) = c(s) + A(s)^T c(g) over the generators s; a disagreement on
        a revisited element means the data does not define an action."""
        if self._expanded is None:
            lat, d = self.lattice, self.d
            At = {s: lat.act(s).transpose() for s in lat.group.generators}

            def step(c, s):
                return tuple((x + y) % d for x, y in zip(self.coeff[s], At[s].mulvec(c)))

            self._expanded = lat.group.extend(tuple([0] * lat.rank), step, "coefficients")
        return self._expanded

    def action_kernel_members(self) -> list[int]:
        """Elements acting trivially on both exponents and coefficients."""
        ident = Mat.identity(self.lattice.rank)
        zero = tuple([0] * self.lattice.rank)
        coeffs = self.expand()
        return [g for g in self.lattice.group.elements()
                if self.lattice.act(g) == ident and coeffs[g] == zero]

    @property
    def is_faithful(self) -> bool:
        return self.action_kernel_members() == [0]


@dataclass
class ExtensionClass:
    """The 1-cocycle z of the coefficient extension and its vanishing flags.

    vanishes_at_d: z is a coboundary over Z/d, i.e. a rescaling by d-th roots
    of unity makes the action purely monomial (witness kept).
    vanishes_stably: same over Z/(d*|G|); since first cohomology is killed by
    |G|, enlarging the coefficient roots further cannot change this, so the
    flag answers the question for every larger root-of-unity group.
    """

    action: MonomialAction
    cocycle: dict[int, tuple[int, ...]]
    vanishes_at_d: bool
    vanishes_stably: bool
    rescaling: Optional[tuple[int, ...]] = None

    def rescaled_action(self) -> MonomialAction:
        """Apply the vanishing witness; result has all-zero coefficients."""
        if self.rescaling is None:
            raise UserInputError("no rescaling witness available")
        return rescale(self.action, self.rescaling, self.action.d)


def _coboundary_witness(action: MonomialAction, modulus: int,
                        scale: int) -> Optional[tuple[int, ...]]:
    """v with c(s) = (A(s)^T - 1) v mod modulus for all generators s, where c
    is the coefficient vector scaled into Z/modulus; None if no v exists.
    One row (A(s)^T - I)[i] | c(s)_i * scale per generator s and coordinate
    i, packed and solved mod modulus (zlinalg.solve_packed)."""
    lat = action.lattice
    rows = []
    for s in lat.group.generators:
        for i, row in enumerate(lat.act(s).transpose().a):
            rows.append(pack_lanes([x - (i == j) for j, x in enumerate(row)]
                                   + [action.coeff[s][i] * scale], modulus))
    v, _ = solve_packed(rows, lat.rank, modulus)
    return None if v is None else tuple(v)


def rescale(action: MonomialAction, v: Sequence[int], modulus: int) -> MonomialAction:
    """Substitute x_j -> zeta_modulus^(v_j) x_j; modulus must be a multiple of d
    for the result to stay expressible with the same d."""
    if modulus % action.d:
        raise UserInputError("rescaling modulus must be a multiple of d")
    scale = modulus // action.d
    lat = action.lattice
    new_coeff = {}
    for s in lat.group.generators:
        At = lat.act(s).transpose()
        vec = []
        for i in range(lat.rank):
            c = action.coeff[s][i] * scale
            shift = v[i] - sum(At.a[i][j] * v[j] for j in range(lat.rank))
            vec.append((c + shift) % modulus)
        if any(x % scale for x in vec):
            raise UserInputError("rescaling left the coefficients outside mu_d")
        new_coeff[s] = tuple(x // scale for x in vec)
    return MonomialAction(lat, action.d, new_coeff)


def extension_class(action: MonomialAction) -> ExtensionClass:
    """Cocycle of the coefficient extension plus its vanishing decisions."""
    lat = action.lattice
    G = lat.group
    Mdual = dual(lat)  # z(g) = A(g^-1)^T c(g) = A*(g) c(g)
    cocycle = {g: tuple(x % action.d for x in Mdual.act(g).mulvec(c))
               for g, c in action.expand().items()}
    v = _coboundary_witness(action, action.d, 1)
    stable_mod = action.d * G.order
    v_stable = v if v is not None else _coboundary_witness(action, stable_mod, G.order)
    return ExtensionClass(
        action=action,
        cocycle=cocycle,
        vanishes_at_d=v is not None,
        vanishes_stably=v_stable is not None,
        rescaling=v,
    )


def parse_monomial_action(doc: dict) -> MonomialAction:
    """Monomial-action document: a lattice document plus
    {"d": d, "coeff": {"<generator>": [exponents mod d]}}."""
    if not isinstance(doc, dict):
        raise UserInputError("monomial action document must be an object")
    lattice = parse_lattice(doc)
    d = doc.get("d")
    if not is_int(d) or d < 1:
        raise UserInputError("monomial action needs a positive integer 'd'")
    coeff_doc = doc.get("coeff")
    if not isinstance(coeff_doc, dict):
        raise UserInputError("monomial action needs a 'coeff' table")
    coeff = {}
    for k, v in coeff_doc.items():
        g = generator_key(k, "coeff")
        # coefficients are exponents of zeta_d; general field scalars that
        # are not roots of unity have no representation here
        if not (isinstance(v, list) and all(is_int(x) for x in v)):
            raise UserInputError(
                f"coefficients for generator {k} must be a list of integer exponents mod d")
        coeff[g] = tuple(v)
    return MonomialAction(lattice, d, coeff)
