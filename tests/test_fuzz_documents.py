"""Fuzzing the document readers through the command line.

Group, lattice, field and monomial documents are drawn from valid documents,
valid documents with one entry replaced by arbitrary JSON, and arbitrary
JSON.  Whatever the input, a command exits 0, 1 (malformed input) or 2
(resource bound), and never lets an exception escape.  Sizes stay small
(group tables of at most 6 elements, ranks of at most 3) so that no valid
document runs long.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from retractrat.cli import run  # noqa: E402

FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8)
    | st.floats(-3, 8, allow_nan=False) | st.text("0123abx-", max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text("0123abx", max_size=2), inner, max_size=4),
    max_leaves=12)

small_ints = st.integers(-2, 7)


@st.composite
def tables(draw):
    """Square tables up to 6 x 6: relabelled cyclic groups (a group table
    when the relabelling fixes 0) and arbitrary, possibly ragged, ones."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        p = draw(st.permutations(range(n)))
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                table[p[i]][p[j]] = p[(i + j) % n]
        return table
    return draw(st.lists(st.lists(small_ints, min_size=n - 1, max_size=n),
                         min_size=n, max_size=n))


@st.composite
def permutation_documents(draw):
    degree = draw(st.integers(1, 4))
    points = list(range(1, degree + 1))
    gens = draw(st.lists(st.permutations(points) | st.lists(small_ints, max_size=4),
                         max_size=2))
    return {"degree": draw(st.just(degree) | json_values), "perm_generators": gens}


def replace_one(doc: dict, value_strategy):
    """The document with one of its keys set to a drawn value."""
    return st.tuples(st.sampled_from(sorted(doc)), value_strategy).map(
        lambda kv: {**doc, kv[0]: kv[1]})


def sometimes_broken(docs):
    """Documents as drawn, or with one key replaced by arbitrary JSON."""
    return docs.flatmap(lambda doc: st.just(doc) | replace_one(doc, json_values))


VALID_GROUPS = ["C1", "C2", "C3", "C4", "V4", "S3", "C6", "C5"]

group_documents = (st.sampled_from(VALID_GROUPS)
                   | sometimes_broken(tables().map(lambda t: {"table": t, "name": "G"})
                                      | permutation_documents())
                   | json_values)


@st.composite
def lattice_documents(draw):
    group = draw(st.sampled_from(["C2", "C3", "C4", "V4", "S3"]))
    gens = {"C2": ["1"], "C3": ["1"], "C4": ["1"], "V4": ["1", "2"], "S3": ["1", "2"]}[group]
    rank = draw(st.integers(0, 3))
    entries = st.integers(-1, 1)
    action = {}
    for g in gens:
        if draw(st.booleans()):  # a signed permutation matrix: unimodular
            perm = draw(st.permutations(range(rank)))
            signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=rank, max_size=rank))
            action[g] = [[signs[i] if perm[i] == j else 0 for j in range(rank)]
                         for i in range(rank)]
        else:
            action[g] = draw(st.lists(st.lists(entries, min_size=rank, max_size=rank),
                                      min_size=rank, max_size=rank))
    doc = {"group": group, "rank": rank, "action": action}
    if draw(st.integers(0, 3)) == 0:
        doc = draw(replace_one(doc, group_documents))
    return draw(sometimes_broken(st.just(doc)))


flags = st.booleans() | json_values
table_keys = st.sampled_from(["1", "2", "4", "8"]) | st.text("0123x", max_size=2)
field_documents = sometimes_broken(st.fixed_dictionaries({"name": st.text(max_size=3)}, optional={
    "characteristic": st.sampled_from([0, 2, 3, 5]),
    "all_roots": flags,
    "is_rationals": flags,
    "roots_of_unity": st.dictionaries(table_keys, flags, max_size=3),
    "cyclotomic_2power_cyclic": st.dictionaries(table_keys, flags, max_size=3),
})) | json_values


@st.composite
def monomial_documents(draw):
    doc = draw(lattice_documents())
    if not isinstance(doc, dict):
        return doc
    rank = doc.get("rank") if isinstance(doc.get("rank"), int) else 1
    keys = list(doc["action"]) if isinstance(doc.get("action"), dict) else ["1"]
    doc["d"] = draw(st.integers(1, 6))
    doc["coeff"] = {k: draw(st.lists(small_ints, min_size=rank, max_size=rank))
                    for k in keys}
    return draw(sometimes_broken(st.just(doc)))


def run_cli(argv: list[str], documents: dict) -> tuple[int, str]:
    """Run argv in a fresh directory holding the named JSON documents."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name, doc in documents.items():
                with open(name, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(argv)
        finally:
            os.chdir(cwd)
    return code, err.getvalue()


def assert_handled(code: int, err: str):
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code:
        assert err.count("\n") == 1, err


@FUZZ
@given(group=group_documents, field=field_documents)
def test_group_and_field_documents(group, field):
    docs = {"field.json": field}
    spec = group
    if not isinstance(group, str):
        docs["group.json"] = group
        spec = "group.json"
    assert_handled(*run_cli(["group-info", "--group", spec], docs))
    assert_handled(*run_cli(["verdict-noether", "--group", spec,
                             "--field", "custom:field.json"], docs))


@FUZZ
@given(lattice=lattice_documents(), field=field_documents,
       verb=st.sampled_from(["invertible", "verdict-torus", "cohomology", "resolve",
                             "verdict-multiplicative"]))
def test_lattice_documents(lattice, field, verb):
    argv = [verb, "--lattice", "lattice.json"]
    if verb == "verdict-multiplicative":
        argv += ["--field", "custom:field.json"]
    assert_handled(*run_cli(argv, {"lattice.json": lattice, "field.json": field}))


@FUZZ
@given(action=monomial_documents(), field=field_documents)
def test_monomial_documents(action, field):
    assert_handled(*run_cli(["verdict-monomial", "--action", "action.json",
                             "--field", "custom:field.json"],
                            {"action.json": action, "field.json": field}))
