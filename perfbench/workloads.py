"""The three benchmark workloads: seeded input documents, requests and answer checks.

A workload is built once per set-up from its seed.  Building writes the input
documents into a work directory and returns the request list of one pass.
Each request is one in-process ``retractrat.cli.run(argv)`` call; its check
reads the parsed JSON answer and returns ``None`` when the answer is right or
a one-line reason when it is not.  The library under test receives only the
generated documents (and, for ``reproduce``, its built-in inputs).

Why each workload exists, and which layer it stresses, is written down in
NOTES.md next to this file.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

Check = Callable[[dict], Optional[str]]


@dataclass
class Request:
    label: str
    argv: list[str]
    check: Check
    inputs: tuple[str, ...] = field(default=())  # document paths read by the request


def _write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return path


def expect(key: str, value) -> Check:
    def check(payload: dict) -> Optional[str]:
        got = payload.get(key)
        return None if got == value else f"{key} is {got!r}, expected {value!r}"
    return check


# -- voskresenskii ----------------------------------------------------------------

def check_resolution(payload: dict) -> Optional[str]:
    """0 -> M -> P -> F -> 0: ranks add up and surjection * injection = 0,
    recomputed here from the returned matrices."""
    rm, rp, rf = (payload[k]["rank"] for k in ("M", "P", "F"))
    inj, surj = payload["injection"], payload["surjection"]
    if rm + rf != rp:
        return f"ranks {rm} + {rf} != {rp}"
    if len(inj) != rp or any(len(row) != rm for row in inj):
        return "injection has the wrong shape"
    if len(surj) != rf or any(len(row) != rp for row in surj):
        return "surjection has the wrong shape"
    inj_cols = list(zip(*inj)) if rm else []
    for row in surj:
        for col in inj_cols:
            if sum(a * b for a, b in zip(row, col)):
                return "surjection * injection is not zero"
    return None


def check_profile(flabby: bool, coflabby: bool) -> Check:
    def check(payload: dict) -> Optional[str]:
        got = (payload.get("flabby"), payload.get("coflabby"))
        if got != (flabby, coflabby):
            return f"(flabby, coflabby) is {got}, expected {(flabby, coflabby)}"
        return None
    return check


def build_voskresenskii(lib, seed: int, workdir: str) -> list[Request]:
    """q = 8 and q = 16.  The seed is ignored: a seeded change of basis of the
    q = 16 lattice makes the Hermite transforms blow up (NOTES.md)."""
    del seed
    requests = [Request(f"reproduce n={n}", ["reproduce", "voskresenskii", "--n", str(n)],
                        expect("pass", True)) for n in (3, 4)]
    for n in (3, 4):
        q = 2 ** n
        doc = lib.lattices.lattice_document(lib.lattices.lenstra_lattice(n).M)
        path = _write(workdir, f"lenstra-q{q}.json", doc)
        for verb, extra, check in (
                ("cohomology", ["--subgroups", "all"], check_profile(False, True)),
                ("resolve", [], check_resolution),
                ("invertible", [], expect("invertible", False)),
                ("verdict-torus", [], expect("answer", "No"))):
            requests.append(Request(f"{verb} q={q}", [verb, "--lattice", path] + extra,
                                    check, (path,)))
    return requests


# -- tori-mix -----------------------------------------------------------------------

# Catalog groups of order 2..16 whose Sylow subgroups are all cyclic.  Kept as
# a table so that the checks do not trust the library's own Sylow code.
Z_GROUPS = {f"C{n}" for n in range(2, 17)} | {"S3", "U(4)"}
NOT_Z_GROUPS = {"C2xC2", "C2xC4", "C2xC2xC2", "D8", "D16", "Q8", "A4",
                "U(8)", "U(16)", "U(32)"}

# Norm-one tori J_{G/1} that do not fit a pass yet (seconds each at the seed
# code on a 2-core machine; NOTES.md lists the times).
LEFT_OUT_TORI = {"C2xC2xC2", "U(32)", "D16"}

RANDOM_LATTICES_PER_GROUP = 4
RANDOM_LATTICE_MAX_RANK = 6


def _tori_checks(zgroup: bool, regular_torus: bool):
    """Checks for the four requests on one lattice of one group.  The
    invertible check reads the profile that the cohomology request of the
    same lattice returned earlier in the pass."""
    profile = None

    def cohomology(payload):
        nonlocal profile
        profile = (payload["flabby"], payload["coflabby"])
        return None

    def invertible(payload):
        if payload["invertible"] is True and profile != (True, True):
            return f"invertible but (flabby, coflabby) is {profile}"
        return None

    def torus(payload):
        answer = payload["answer"]
        if zgroup and answer != "Yes":
            return f"all Sylow subgroups cyclic but the torus verdict is {answer}"
        if regular_torus and answer != ("Yes" if zgroup else "No"):
            return f"J_G/1 verdict is {answer}, expected {'Yes' if zgroup else 'No'}"
        return None

    def multiplicative(payload):
        if payload["answer"] not in ("Yes", "No", "Unknown"):
            return f"answer {payload['answer']!r}"
        return None

    return cohomology, invertible, torus, multiplicative


def build_tori_mix(lib, seed: int, workdir: str) -> list[Request]:
    rng = random.Random(seed)
    lat = lib.lattices
    requests: list[Request] = []
    count = 0

    def add(label: str, doc: dict, zgroup: bool, regular_torus: bool):
        nonlocal count
        path = _write(workdir, f"lattice-{count:03d}.json", doc)
        count += 1
        c_coh, c_inv, c_tor, c_mult = _tori_checks(zgroup, regular_torus)
        for verb, extra, check in (("cohomology", ["--subgroups", "all"], c_coh),
                                   ("invertible", [], c_inv),
                                   ("verdict-torus", [], c_tor),
                                   ("verdict-multiplicative", ["--field", "Q"], c_mult)):
            requests.append(Request(f"{verb} {label}", [verb, "--lattice", path] + extra,
                                    check, (path,)))

    for G in lib.groups.catalog_groups_upto(16):
        if G.order < 2:
            continue
        if G.name not in Z_GROUPS | NOT_Z_GROUPS:
            raise ValueError(f"catalog group {G.name} is missing from the Sylow table")
        zgroup = G.name in Z_GROUPS
        for H in G.subgroup_conjugacy_representatives():
            if H.order == G.order or (H.order == 1 and G.name in LEFT_OUT_TORI):
                continue
            doc = lat.lattice_document(lat.dual(lat.augmentation_kernel(G, H)))
            add(f"J_{G.name}/{list(H.members)}", doc, zgroup, H.order == 1)
        for i in range(RANDOM_LATTICES_PER_GROUP):
            doc = lat.lattice_document(lat.random_lattice(G, RANDOM_LATTICE_MAX_RANK, rng))
            add(f"random {G.name} #{i}", doc, zgroup, False)
    return requests


# -- subgroup-scan ------------------------------------------------------------------

def _cycle(start: int, n: int) -> dict[int, int]:
    return {start + i: start + (i + 1) % n for i in range(n)}


def _flip(start: int, n: int) -> dict[int, int]:
    return {start + i: start + (-i) % n for i in range(n)}


def _dihedral(start: int, n: int) -> list[dict[int, int]]:
    """Symmetries of a regular n-gon on points start..start+n-1 (order 2n)."""
    return [_cycle(start, n), _flip(start, n)]


def _cyclics(*orders: int) -> list[dict[int, int]]:
    out, start = [], 0
    for n in orders:
        out.append(_cycle(start, n))
        start += n
    return out


def _shift(gens: list[dict[int, int]], by: int) -> list[dict[int, int]]:
    return [{a + by: b + by for a, b in g.items()} for g in gens]


# name: (degree, generators on 0-based points, order, number of subgroups,
#        noether over Q, noether over C, universal monomial verdict).
# The subgroup counts of S4, C2^5, D64 and D8xD8 are the known 30, 374, 69 and
# 389; C8xC8 and C16xC4 follow from sum of gcd(a, b) over divisor pairs, the
# dihedral D64 from tau(32) + sigma(32).  The verdicts are the library's
# answers at the commit that introduced this benchmark; monomial is No for
# all, as none of these groups has all Sylow subgroups cyclic.
SCAN_GROUPS = {
    "S4": (4, [_cycle(0, 4), _cycle(0, 2)], 24, 30, "Unknown", "Unknown", "No"),
    "S4xC2": (6, [_cycle(0, 4), _cycle(0, 2), _cycle(4, 2)], 48, 98,
              "Unknown", "Unknown", "No"),
    "C2^5": (10, _cyclics(2, 2, 2, 2, 2), 32, 374, "Yes", "Yes", "No"),
    "D8xC2xC2": (8, _dihedral(0, 4) + _shift(_cyclics(2, 2), 4), 32, 158,
                 "Yes", "Yes", "No"),
    "C4xC2^3": (10, _cyclics(4, 2, 2, 2), 32, 118, "Yes", "Yes", "No"),
    "C4xC4xC2": (10, _cyclics(4, 4, 2), 32, 54, "Yes", "Yes", "No"),
    "D16xC2": (10, _dihedral(0, 8) + [_cycle(8, 2)], 32, 70, "Unknown", "Yes", "No"),
    "D64": (32, _dihedral(0, 32), 64, 69, "Unknown", "Yes", "No"),
    "C8xC8": (16, _cyclics(8, 8), 64, 37, "No", "Yes", "No"),
    "C16xC4": (20, _cyclics(16, 4), 64, 29, "No", "Yes", "No"),
    "D32xC2": (18, _dihedral(0, 16) + [_cycle(16, 2)], 64, 137, "Unknown", "Yes", "No"),
    "C4^3": (12, _cyclics(4, 4, 4), 64, 129, "Yes", "Yes", "No"),
    "D8xD8": (8, _dihedral(0, 4) + _dihedral(4, 4), 64, 389, "Yes", "Yes", "No"),
}


def permutation_document(name: str, degree: int, gens: list[dict[int, int]],
                         rng: random.Random) -> dict:
    """Generators as 1-based image lists, with the points relabelled by a
    seeded permutation and the generator order shuffled."""
    relabel = list(range(degree))
    rng.shuffle(relabel)
    images = []
    for g in gens:
        img = [0] * degree
        for i in range(degree):
            img[relabel[i]] = relabel[g.get(i, i)] + 1
        images.append(img)
    rng.shuffle(images)
    return {"name": name, "degree": degree, "perm_generators": images}


def check_group_info(order: int, subgroups: int) -> Check:
    def check(payload: dict) -> Optional[str]:
        got = (payload.get("order"), payload.get("num_subgroups"))
        if got != (order, subgroups):
            return f"(order, num_subgroups) is {got}, expected {(order, subgroups)}"
        return None
    return check


def build_subgroup_scan(lib, seed: int, workdir: str) -> list[Request]:
    del lib
    rng = random.Random(seed)
    requests = []
    for name, (degree, gens, order, nsub, ans_q, ans_c, ans_mono) in SCAN_GROUPS.items():
        path = _write(workdir, f"group-{name}.json",
                      permutation_document(name, degree, gens, rng))
        for label, argv, check in (
                ("group-info", ["group-info", "--group", path], check_group_info(order, nsub)),
                ("noether Q", ["verdict-noether", "--group", path, "--field", "Q"],
                 expect("answer", ans_q)),
                ("noether C", ["verdict-noether", "--group", path, "--field", "C"],
                 expect("answer", ans_c)),
                ("monomial", ["verdict-monomial", "--group", path],
                 expect("answer", ans_mono))):
            requests.append(Request(f"{label} {name}", argv, check, (path,)))
    return requests


WORKLOADS = {
    "voskresenskii": build_voskresenskii,
    "tori-mix": build_tori_mix,
    "subgroup-scan": build_subgroup_scan,
}
