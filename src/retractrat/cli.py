"""Command-line front end: parse documents, dispatch computations, emit JSON.

Exit status: 0 success, 1 user error (message on stderr), 2 resource-bound
errors, 3 a failed internal check (a bug, not a user error).  All results
are JSON on stdout (or --out <file>, written atomically).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import sys
import time
from typing import Optional

from .errors import InternalCheckError, ResourceBoundError, UserInputError
from .groups import FiniteGroup, catalog_group, catalog_groups_upto, parse_group
from .lattices import (
    GLattice,
    lattice_document,
    lenstra_lattice,
    parse_lattice,
    random_lattice,
)
from .cohomology import profile
from .monomial import parse_monomial_action
from .resolutions import decide_flabby_class, flabby_resolution, is_invertible
from .verdict import (
    monomial_instance_verdict,
    monomial_universal_verdict,
    multiplicative_verdict,
    noether_verdict,
    parse_field,
    torus_verdict,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we reserve that
        raise UserInputError(message)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UserInputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
        raise UserInputError(f"{path} is not valid JSON: {exc}") from exc


def _resolve_group(spec: str) -> FiniteGroup:
    if os.path.exists(spec):
        return parse_group(_load_json(spec))
    try:
        return catalog_group(spec)
    except UserInputError:
        raise UserInputError(
            f"{spec!r} is neither a readable file nor a catalog group name")


def _resolve_lattice(spec: str) -> GLattice:
    return parse_lattice(_load_json(spec))


def _resolve_field(spec: str):
    if spec.startswith("custom:"):
        return parse_field(_load_json(spec.split(":", 1)[1]))
    return parse_field(spec)


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False)
    if not out:
        sys.stdout.write(text + "\n")
        return
    tmp = out + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        os.replace(tmp, out)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise UserInputError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _group_info(args) -> dict:
    G = _resolve_group(args.group)
    subs = G.subgroups()
    z = G.zgroup_presentation()
    info = {
        "name": G.name,
        "order": G.order,
        "abelian": G.is_abelian(),
        "cyclic": G.is_cyclic(),
        "exponent": G.exponent(),
        "generators": list(G.generators),
        "num_subgroups": len(subs),
        "subgroups": [{"members": list(s.members), "order": s.order,
                       "normal": s.is_normal} for s in subs],
        "all_sylow_cyclic": G.all_sylow_cyclic(),
        "zassenhaus_presentation": None if z is None else
            {"m": z.m, "n": z.n, "r": z.r, "sigma": z.sigma, "tau": z.tau},
    }
    if G.is_abelian():
        info["abelian_decomposition"] = G.abelian_decomposition()
    return info


def _cohomology(args) -> dict:
    M = _resolve_lattice(args.lattice)
    prof = profile(M, subgroups=args.subgroups)
    return {
        "rank": M.rank,
        "subgroup_mode": args.subgroups,
        "table": prof.to_json(),
        "flabby": prof.is_flabby,
        "coflabby": prof.is_coflabby,
    }


def _resolve(args) -> dict:
    M = _resolve_lattice(args.lattice)
    res = flabby_resolution(M)
    return {
        "M": lattice_document(res.M),
        "P": lattice_document(res.P),
        "F": lattice_document(res.F),
        "injection": res.injection.matrix.to_lists(),
        "surjection": res.surjection.matrix.to_lists(),
    }


def _invertible(args) -> dict:
    M = _resolve_lattice(args.lattice)
    dec = is_invertible(M)
    return {
        "invertible": dec.answer,
        "witness": dec.witness.matrix.to_lists() if dec.witness else None,
        "cover_rank": dec.cover.P.rank,
    }


def _verdict_noether(args) -> dict:
    G = _resolve_group(args.group)
    k = _resolve_field(args.field)
    return noether_verdict(G, k).to_json()


def _verdict_torus(args) -> dict:
    M = _resolve_lattice(args.lattice)
    return torus_verdict(M).to_json()


def _verdict_multiplicative(args) -> dict:
    M = _resolve_lattice(args.lattice)
    k = _resolve_field(args.field)
    return multiplicative_verdict(M.group, M, k).to_json()


def _verdict_monomial(args) -> dict:
    if args.action:
        action = parse_monomial_action(_load_json(args.action))
        k = _resolve_field(args.field)
        return monomial_instance_verdict(action.lattice.group, action, k).to_json()
    if not args.group:
        raise UserInputError("verdict-monomial needs --action or --group")
    G = _resolve_group(args.group)
    return monomial_universal_verdict(G).to_json()


def _reproduce_voskresenskii(n: int) -> dict:
    """The 2-power cyclotomic pipeline: build the units-action kernel lattice,
    profile it, decide its flabby class once inside the torus verdict (by
    its H^1 obstruction, read from the lattice with no resolution), and
    compare against the published values."""
    data = lenstra_lattice(n)
    q = data.q
    pi = data.pi
    prof = profile(data.M, subgroups="all")
    # the unique Klein four subgroup of the acting unit group
    v4 = None
    for s in pi.subgroups():
        if s.order == 4 and not s.is_cyclic():
            v4 = s
            break
    checks = []

    def check(name, expected, got):
        checks.append({"name": name, "expected": expected, "got": got,
                       "pass": expected == got})

    check("rank of kernel lattice", q - 1, data.M.rank)
    check("H^1 trivial for every subgroup", True, prof.is_coflabby)
    if v4 is not None:
        check("Tate H^-1 at the Klein four subgroup", [2],
              prof.entries[v4.members][0].to_list())
    check("profile: coflabby, not flabby", {"flabby": False, "coflabby": True},
          {"flabby": prof.is_flabby, "coflabby": prof.is_coflabby})
    tv = torus_verdict(data.M)
    # an H^1 obstruction or the section system decides the class
    decision = next(s for s in tv.trace
                    if s.rule in ("h1-obstruction", "invertibility-decision"))
    check("flabby class not invertible", False,
          decision.rule == "invertibility-decision" and decision.premises["invertible"])
    check("torus verdict", "No", tv.answer)
    return {
        "q": q,
        "group_order": pi.order,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "notes": [
            "the ambient construction splits off one fixed coordinate; it is a "
            "single rational parameter and does not affect retract rationality",
        ],
    }


def _reproduce_endo_miyata(max_order: int, trials: int, seed: int) -> dict:
    """Consistency suite: over groups with all Sylow subgroups cyclic, the
    flabby class of every lattice must decide invertible."""
    # a suite that runs no case would pass vacuously
    if trials < 1:
        raise UserInputError("--trials must be at least 1")
    if max_order < 2:
        raise UserInputError("--max-order must be at least 2")
    rng = random.Random(seed)
    groups = [g for g in catalog_groups_upto(max_order) if g.all_sylow_cyclic()
              and g.order > 1]
    results = []
    ok = True
    for G in groups:
        for t in range(trials):
            M = random_lattice(G, 5, rng)
            # no Sylow subgroup is non-cyclic, so no head can obstruct and
            # every M is resolved
            dec = decide_flabby_class(M)
            ok = ok and dec.answer
            results.append({
                "group": G.name,
                "trial": t,
                "lattice_rank": M.rank,
                "tail_rank": dec.resolution.F.rank,
                "invertible": dec.answer,
            })
    return {
        "seed": seed,
        "max_order": max_order,
        "trials_per_group": trials,
        "groups": [g.name for g in groups],
        "cases": results,
        "pass": ok,
    }


def _reproduce(args) -> dict:
    # timing goes to stderr so seeded runs stay bit-identical on stdout
    started = time.time()
    if args.suite == "voskresenskii":
        # the published values hold for n >= 3: (Z/4)^x is cyclic
        if args.n < 3:
            raise UserInputError("--n must be at least 3")
        out = _reproduce_voskresenskii(args.n)
    elif args.suite == "endo-miyata":
        out = _reproduce_endo_miyata(args.max_order, args.trials, args.seed)
    else:
        raise UserInputError(f"unknown reproduction suite {args.suite!r}")
    print(f"reproduce {args.suite}: {time.time() - started:.2f}s", file=sys.stderr)
    return out


@functools.cache  # parse_args keeps no state between calls
def build_parser() -> _Parser:
    p = _Parser(prog="retractrat",
                description="retract-rationality computations with G-lattices")
    sub = p.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("group-info", help="inspect a group")
    sp.add_argument("--group", required=True)

    sp = sub.add_parser("cohomology", help="Tate cohomology profile of a lattice")
    sp.add_argument("--lattice", required=True)
    sp.add_argument("--subgroups", choices=["prime-power", "all"],
                    default="prime-power")

    sp = sub.add_parser("resolve", help="flabby resolution of a lattice")
    sp.add_argument("--lattice", required=True)

    sp = sub.add_parser("invertible", help="decide direct-summand-of-permutation")
    sp.add_argument("--lattice", required=True)

    sp = sub.add_parser("verdict-noether", help="retract rationality of k(G)")
    sp.add_argument("--group", required=True)
    sp.add_argument("--field", default="Q")

    sp = sub.add_parser("verdict-torus", help="retract rationality of a torus")
    sp.add_argument("--lattice", required=True)

    sp = sub.add_parser("verdict-multiplicative",
                        help="retract rationality of k(M)^G")
    sp.add_argument("--lattice", required=True)
    sp.add_argument("--field", default="Q")

    sp = sub.add_parser("verdict-monomial",
                        help="monomial action verdicts (universal or instance)")
    sp.add_argument("--group")
    sp.add_argument("--action")
    sp.add_argument("--field", default="C")

    sp = sub.add_parser("reproduce", help="run a reproduction suite")
    sp.add_argument("suite", choices=["voskresenskii", "endo-miyata"])
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--max-order", type=int, default=12)
    sp.add_argument("--trials", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)

    for s in sub.choices.values():
        s.add_argument("--out", default=None)
    return p


_DISPATCH = {
    "group-info": _group_info,
    "cohomology": _cohomology,
    "resolve": _resolve,
    "invertible": _invertible,
    "verdict-noether": _verdict_noether,
    "verdict-torus": _verdict_torus,
    "verdict-multiplicative": _verdict_multiplicative,
    "verdict-monomial": _verdict_monomial,
    "reproduce": _reproduce,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload = _DISPATCH[args.verb](args)
        _emit(payload, args.out)
    except UserInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceBoundError as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    if args.verb == "reproduce" and not payload.get("pass", True):
        return 1
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
