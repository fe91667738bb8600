"""Golden digests: the stdout of a fixed set of commands, byte for byte.

tests/golden_digests.json maps each command line to the sha256 of its
stdout.  The commands run in a directory holding the lattice and group
documents below, so a command line names its document by file name.
Refactors of the cover, the section search, the coset bookkeeping or the
subgroup enumeration must leave every digest unchanged.  To re-record
after a deliberate output change, run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import random
from pathlib import Path

from retractrat.cli import run
from retractrat.groups import catalog_group
from retractrat.lattices import (
    augmentation_kernel,
    dual,
    lattice_document,
    lenstra_lattice,
    random_lattice,
)
from retractrat.resolutions import flabby_resolution

GOLDEN = Path(__file__).with_name("golden_digests.json")


def _norm_one_torus(name, members):
    G = catalog_group(name)
    return dual(augmentation_kernel(G, G.subgroup(members)))


def documents() -> dict:
    """File name -> lattice document, with Yes and No answers for both
    `invertible` and `verdict-torus`."""
    lattices = {
        "lenstra-q8.json": lenstra_lattice(3).M,
        "J-S3.json": _norm_one_torus("S3", (0,)),
        "J-C2xC2.json": _norm_one_torus("C2xC2", (0,)),
        "J-Q8-C2.json": _norm_one_torus("Q8", (0, 1)),
        "J-D8-C2.json": _norm_one_torus("D8", (0, 2)),
        "flabby-J-S3.json": flabby_resolution(_norm_one_torus("S3", (0,))).F,
        "random-A4-7.json": random_lattice(catalog_group("A4"), 6, random.Random(7)),
        "random-D8-1.json": random_lattice(catalog_group("D8"), 6, random.Random(1)),
    }
    return {name: lattice_document(M) for name, M in lattices.items()}


def profile_documents() -> dict:
    """File name -> lattice document for the profiles alone: the q=32 and
    q=64 Lenstra lattices, too large to resolve here, and a resolution
    tail over D8."""
    lattices = {
        "lenstra-q32.json": lenstra_lattice(5).M,
        "lenstra-q64.json": lenstra_lattice(6).M,
        "flabby-J-D8-C2.json": flabby_resolution(_norm_one_torus("D8", (0, 2))).F,
    }
    return {name: lattice_document(M) for name, M in lattices.items()}


def _cycles(*lengths):
    """Image lists (1-based) of one cycle per length on disjoint points."""
    degree, start, out = sum(lengths), 1, []
    for n in lengths:
        images = list(range(1, degree + 1))
        for i in range(n):
            images[start + i - 1] = start + (i + 1) % n
        out.append(images)
        start += n
    return out


# permutation documents of order 48 and 64 with many subgroups (98, 129, 389)
GROUP_DOCUMENTS = {
    "group-S4xC2.json": {"name": "S4xC2", "degree": 6,
                         "perm_generators": [[2, 3, 4, 1, 5, 6], [2, 1, 3, 4, 5, 6],
                                             [1, 2, 3, 4, 6, 5]]},
    "group-C4^3.json": {"name": "C4^3", "degree": 12, "perm_generators": _cycles(4, 4, 4)},
    "group-D8xD8.json": {"name": "D8xD8", "degree": 8,
                         "perm_generators": [[2, 3, 4, 1, 5, 6, 7, 8], [1, 4, 3, 2, 5, 6, 7, 8],
                                             [1, 2, 3, 4, 6, 7, 8, 5], [1, 2, 3, 4, 5, 8, 7, 6]]},
}


def commands() -> list[list[str]]:
    out = []
    for doc in documents():
        for verb in ("invertible", "resolve", "verdict-torus"):
            out.append([verb, "--lattice", doc])
    # profiles over groups whose subgroups fall into classes of several members
    for doc in ("J-S3.json", "J-Q8-C2.json", "J-D8-C2.json", "random-A4-7.json",
                "random-D8-1.json"):
        out.append(["cohomology", "--lattice", doc])
        out.append(["cohomology", "--lattice", doc, "--subgroups", "all"])
    for doc in profile_documents():
        out.append(["cohomology", "--lattice", doc])
        out.append(["cohomology", "--lattice", doc, "--subgroups", "all"])
    for group in ("D8", "Q8", "A4", "C2xC4", "D16"):
        out.append(["group-info", "--group", group])
        out.append(["verdict-noether", "--group", group, "--field", "Q"])
    out.append(["group-info", "--group", "C12"])
    for group in ("D8", "S3", "C12", "group-S4xC2.json"):
        out.append(["verdict-monomial", "--group", group])
    for doc in GROUP_DOCUMENTS:
        out.append(["group-info", "--group", doc])
        for field in ("Q", "C"):
            out.append(["verdict-noether", "--group", doc, "--field", field])
    out.append(["reproduce", "endo-miyata", "--max-order", "6", "--trials", "2",
                "--seed", "5"])
    out.append(["reproduce", "voskresenskii", "--n", "4"])
    return out


def digests(workdir: Path) -> dict:
    """Command line -> sha256 of its stdout, run inside workdir."""
    for name, doc in (documents() | profile_documents() | GROUP_DOCUMENTS).items():
        (workdir / name).write_text(json.dumps(doc))
    out = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in commands():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = run(argv)
            assert code == 0, argv
            out[" ".join(argv)] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    finally:
        os.chdir(cwd)
    return out


def test_golden_digests(tmp_path):
    assert digests(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(digests(Path(tmp)), indent=2) + "\n")
