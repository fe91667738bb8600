"""Command-line interface: dispatch, documents, exit codes, reproduction suites."""

import json

import pytest

from retractrat.cli import build_parser, run
from retractrat.groups import catalog_group, parse_group
from retractrat.lattices import lattice_document, regular_lattice
from retractrat.zlinalg import Mat


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_lattice(tmp_path, M, name="lat.json"):
    path = tmp_path / name
    path.write_text(json.dumps(lattice_document(M)))
    return str(path)


class TestGroupInfo:
    def test_catalog_group(self, capsys):
        code, out, _ = invoke(capsys, "group-info", "--group", "S3")
        assert code == 0
        info = json.loads(out)
        assert info["order"] == 6
        assert info["num_subgroups"] == 6
        assert info["all_sylow_cyclic"] is True
        assert info["zassenhaus_presentation"]["m"] == 3

    def test_abelian_decomposition_reported(self, capsys):
        code, out, _ = invoke(capsys, "group-info", "--group", "C12")
        assert json.loads(out)["abelian_decomposition"] == [4, 3]

    def test_group_file(self, capsys, tmp_path):
        path = tmp_path / "c2.json"
        path.write_text(json.dumps({"table": [[0, 1], [1, 0]], "name": "C2"}))
        code, out, _ = invoke(capsys, "group-info", "--group", str(path))
        assert code == 0
        assert json.loads(out)["order"] == 2

    def test_unknown_group_exit_1(self, capsys):
        code, _, err = invoke(capsys, "group-info", "--group", "nope")
        assert code == 1
        assert "error" in err

    def test_unknown_verb_exit_1(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 1

    def test_resource_bound_exit_2(self, capsys, tmp_path):
        cycle = []
        start = 1
        for length in (5, 7, 9, 11, 13, 16):
            cycle.extend(list(range(start + 1, start + length)) + [start])
            start += length
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"perm_generators": [cycle],
                                    "degree": len(cycle)}))
        code, _, err = invoke(capsys, "group-info", "--group", str(path))
        assert code == 2
        assert "resource" in err


class TestLatticeVerbs:
    def test_cohomology_permutation_all_trivial(self, capsys, tmp_path):
        M = regular_lattice(catalog_group("C4"))
        path = write_lattice(tmp_path, M)
        code, out, _ = invoke(capsys, "cohomology", "--lattice", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["flabby"] and payload["coflabby"]
        for row in payload["table"]:
            assert row["h_minus1"] == [] and row["h1"] == []

    def test_cohomology_all_subgroups_mode(self, capsys, tmp_path):
        M = regular_lattice(catalog_group("S3"))
        path = write_lattice(tmp_path, M)
        code, out, _ = invoke(capsys, "cohomology", "--lattice", path,
                              "--subgroups", "all")
        assert code == 0
        payload = json.loads(out)
        assert payload["subgroup_mode"] == "all"
        assert len(payload["table"]) == 5  # nontrivial subgroups of S3

    def test_resolve_round_trip(self, capsys, tmp_path):
        from retractrat.lattices import parse_lattice
        from conftest import sign_lattice
        C2 = catalog_group("C2")
        path = write_lattice(tmp_path, sign_lattice(C2, C2.trivial_subgroup()))
        code, out, _ = invoke(capsys, "resolve", "--lattice", path)
        assert code == 0
        payload = json.loads(out)
        F = parse_lattice(payload["F"])
        assert F.rank == 1
        assert payload["injection"] and payload["surjection"]

    def test_invertible(self, capsys, tmp_path):
        from conftest import sign_lattice
        C2 = catalog_group("C2")
        path = write_lattice(tmp_path, sign_lattice(C2, C2.trivial_subgroup()))
        code, out, _ = invoke(capsys, "invertible", "--lattice", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["invertible"] is False and payload["witness"] is None

        path = write_lattice(tmp_path, regular_lattice(C2), "reg.json")
        code, out, _ = invoke(capsys, "invertible", "--lattice", path)
        payload = json.loads(out)
        assert payload["invertible"] is True and payload["witness"] is not None

    def test_invertible_regular_lattice_of_library_built_group(self, capsys, tmp_path):
        from retractrat.groups import dihedral_group, direct_product
        G = direct_product(dihedral_group(8), dihedral_group(8))
        path = write_lattice(tmp_path, regular_lattice(G))
        code, out, _ = invoke(capsys, "invertible", "--lattice", path)
        assert code == 0
        assert json.loads(out)["invertible"] is True


class TestStrictLatticeDocuments:
    @pytest.mark.parametrize("rank, action", [
        pytest.param(1, {"1": [[-1.7]]}, id="float-entry"),
        pytest.param(1, {"1": [["-1"]]}, id="string-entry"),
        pytest.param(1, {"1": [[True]]}, id="bool-entry"),
        pytest.param(True, {"1": [[-1]]}, id="bool-rank"),
        pytest.param(2, {"1": [[1, 0], [0]]}, id="ragged-rows"),
        pytest.param(2, {"1": [[1, 0, 0], [0, 1, 0]]}, id="2x3-at-rank-2"),
        pytest.param(1, {"x": [[-1]]}, id="non-index-key"),
        # one generator named twice: the later value used to win silently
        pytest.param(1, {"1": [[-1]], "01": [[1]]}, id="leading-zero-key"),
        pytest.param(1, {"01": [[1]], "1": [[-1]]}, id="leading-zero-key-first"),
        pytest.param(1, {"\u0661": [[-1]]}, id="arabic-indic-key"),
        pytest.param(1, {"1" * 5000: [[-1]]}, id="5000-digit-key"),
        pytest.param(1, [[[-1]]], id="list-action"),
    ])
    def test_malformed_lattice_exit_1(self, capsys, tmp_path, rank, action):
        path = tmp_path / "lat.json"
        path.write_text(json.dumps({"group": "C2", "rank": rank, "action": action}))
        code, out, err = invoke(capsys, "invertible", "--lattice", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    # matrices that are not a homomorphism of C3: a transposition, read as
    # an index permutation, and a dense sign, read as a matrix
    @pytest.mark.parametrize("rank, action", [
        pytest.param(2, {"1": [[0, 1], [1, 0]]}, id="permutation-of-order-2"),
        pytest.param(3, {"1": [[0, 1, 0], [1, 0, 0], [0, 0, 1]]}, id="transposition-on-3"),
        pytest.param(1, {"1": [[-1]]}, id="sign"),
        pytest.param(2, {"1": [[0, -1], [1, 0]]}, id="rotation-of-order-4"),
    ])
    @pytest.mark.parametrize("verb", ["cohomology", "resolve", "invertible"])
    def test_inconsistent_action_exit_1(self, capsys, tmp_path, verb, rank, action):
        path = tmp_path / "lat.json"
        path.write_text(json.dumps({"group": "C3", "rank": rank, "action": action}))
        code, out, err = invoke(capsys, verb, "--lattice", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: action is inconsistent at element 0\n"

    @pytest.mark.parametrize("rank", [513, 10 ** 6])
    def test_lattice_rank_bound_exit_2(self, capsys, tmp_path, rank):
        # rejected before the identity shorthand builds a rank x rank matrix
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"group": "C2", "rank": rank, "action": {"1": []}}))
        code, out, err = invoke(capsys, "cohomology", "--lattice", str(path))
        assert code == 2
        assert out == ""
        assert err == f"resource bound exceeded: lattice rank {rank} exceeds bound 512\n"

    def test_lattice_expansion_bound_exit_2(self, capsys, tmp_path):
        # C2^9 at rank 512: each bound holds alone, but checking the action
        # would expand 2^9 matrices of 512 x 512 cells; rejected first
        gens = [[2 * i + 2 if x == 2 * i + 1 else 2 * i + 1 if x == 2 * i + 2 else x
                 for x in range(1, 19)] for i in range(9)]
        group = {"degree": 18, "perm_generators": gens}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"group": group, "rank": 512,
                                    "action": {str(g): [] for g in parse_group(group).generators}}))
        code, out, err = invoke(capsys, "cohomology", "--lattice", str(path))
        assert code == 2
        assert out == ""
        assert err == ("resource bound exceeded: lattice expansion |G| rank^2 = 134217728"
                       " exceeds bound 16777216\n")

    def test_malformed_monomial_lattice_exit_1(self, capsys, tmp_path):
        doc = {"group": "C2", "rank": 1, "action": {"1": [[True]]},
               "d": 4, "coeff": {"1": [1]}}
        path = tmp_path / "act.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "verdict-monomial", "--action", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: action for generator 1") and err.count("\n") == 1


def assert_one_line_error(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class TestStrictDocuments:
    @pytest.mark.parametrize("field", [
        pytest.param({"characteristic": 0, "all_roots": "no"}, id="string-all-roots"),
        pytest.param({"is_rationals": 1}, id="int-is-rationals"),
        pytest.param({"roots_of_unity": {"x": True}}, id="non-decimal-root-key"),
        pytest.param({"roots_of_unity": {"0": True}}, id="zero-root-key"),
        pytest.param({"cyclotomic_2power_cyclic": {"3": True, "03": False}},
                     id="leading-zero-cyclotomic-key"),
        pytest.param({"roots_of_unity": {"\u0664": True}}, id="arabic-indic-root-key"),
        pytest.param({"roots_of_unity": {"4": 1}}, id="int-root-value"),
        pytest.param({"roots_of_unity": [4]}, id="list-roots-table"),
        pytest.param({"cyclotomic_2power_cyclic": {"3": "no"}}, id="string-cyclotomic-value"),
        pytest.param({"cyclotomic_2power_cyclic": 3}, id="int-cyclotomic-table"),
        pytest.param({"name": 5}, id="int-name"),
    ])
    def test_malformed_field_exit_1(self, capsys, tmp_path, field):
        fpath = tmp_path / "field.json"
        fpath.write_text(json.dumps(field))
        assert_one_line_error(*invoke(capsys, "verdict-noether", "--group", "C8",
                                      "--field", f"custom:{fpath}"))

    @pytest.mark.parametrize("change", [
        pytest.param({"coeff": {"x": [1]}}, id="non-index-coeff-key"),
        pytest.param({"coeff": {"1": [1], "01": [0]}}, id="leading-zero-coeff-key"),
        pytest.param({"coeff": {"01": [0], "1": [1]}}, id="leading-zero-coeff-key-first"),
        pytest.param({"d": True}, id="bool-d"),
        pytest.param({"coeff": {"1": 5}}, id="int-coeff-vector"),
        pytest.param({"coeff": {"1": [True]}}, id="bool-coeff-entry"),
        pytest.param({"coeff": [[1]]}, id="list-coeff"),
        pytest.param({"d": 4.0}, id="float-d"),
        pytest.param({"d": "4"}, id="string-d"),
    ])
    def test_malformed_monomial_exit_1(self, capsys, tmp_path, change):
        doc = {"group": "C2", "rank": 1, "action": {"1": [[-1]]},
               "d": 4, "coeff": {"1": [1]}}
        doc.update(change)
        path = tmp_path / "act.json"
        path.write_text(json.dumps(doc))
        assert_one_line_error(*invoke(capsys, "verdict-monomial", "--action", str(path)))

    @pytest.mark.parametrize("doc", [
        pytest.param({"table": [[0, 1], [1, 0.5]]}, id="float-table-entry"),
        pytest.param({"perm_generators": [[2, 1]], "degree": "2"}, id="string-degree"),
        pytest.param({"table": "ab"}, id="string-table"),
        pytest.param({"table": [[0, 1], [1, True]]}, id="bool-table-entry"),
        pytest.param({"table": [[0, 1], [1]]}, id="ragged-table"),
        pytest.param({"table": [[0]], "name": 7}, id="int-name"),
        pytest.param({"perm_generators": [[2, 1]], "degree": 2.0}, id="float-degree"),
        pytest.param({"perm_generators": [[2.0, 1]], "degree": 2}, id="float-image"),
        pytest.param({"perm_generators": [[2, True]], "degree": 2}, id="bool-image"),
        pytest.param({"perm_generators": "21", "degree": 2}, id="string-generators"),
    ])
    def test_malformed_group_exit_1(self, capsys, tmp_path, doc):
        path = tmp_path / "group.json"
        path.write_text(json.dumps(doc))
        assert_one_line_error(*invoke(capsys, "group-info", "--group", str(path)))


    @pytest.mark.parametrize("content", [
        pytest.param(b"\xff\xfe{}", id="not-utf8"),
        pytest.param(b"[" * 100000 + b"]" * 100000, id="nested-too-deep"),
        pytest.param(b"{", id="truncated"),
    ])
    def test_unreadable_json_exit_1(self, capsys, tmp_path, content):
        path = tmp_path / "group.json"
        path.write_bytes(content)
        assert_one_line_error(*invoke(capsys, "group-info", "--group", str(path)))


class TestInternalCheckExit:
    def test_internal_check_exit_3(self, capsys, tmp_path, monkeypatch):
        import retractrat.cli as cli
        from retractrat.errors import InternalCheckError

        def broken(M):
            raise InternalCheckError("cover kernel is not action-stable")

        monkeypatch.setattr(cli, "torus_verdict", broken)
        path = write_lattice(tmp_path, regular_lattice(catalog_group("C2")))
        code, out, err = invoke(capsys, "verdict-torus", "--lattice", path)
        assert code == 3
        assert out == ""
        assert err == "internal check failed: cover kernel is not action-stable\n"

    def test_failed_map_check_exit_3(self, capsys, tmp_path, monkeypatch):
        # a library-built map that fails its equivariance re-check is a bug
        import retractrat.resolutions as resolutions
        from retractrat.lattices import GLattice, augmentation_kernel, dual

        real = resolutions.sublattice_dual

        def negated(P, K):
            F = real(P, K)
            action = {s: Mat.from_rows([[-x for x in row] for row in A.a], F.rank)
                      for s, A in F.action.items()}
            return GLattice(F.group, F.rank, action, check=False)

        monkeypatch.setattr(resolutions, "sublattice_dual", negated)
        S3 = catalog_group("S3")
        path = write_lattice(tmp_path, dual(augmentation_kernel(S3, S3.trivial_subgroup())))
        code, out, err = invoke(capsys, "resolve", "--lattice", path)
        assert code == 3
        assert out == ""
        assert err.startswith("internal check failed: map is not equivariant at generator")
        assert err.count("\n") == 1


class TestVerdictVerbs:
    def test_noether_c8(self, capsys):
        code, out, _ = invoke(capsys, "verdict-noether", "--group", "C8",
                              "--field", "Q")
        assert code == 0
        payload = json.loads(out)
        assert payload["answer"] == "No"
        assert any("Voskresenskii" in s["cite"] for s in payload["trace"])

    def test_torus(self, capsys, tmp_path):
        path = write_lattice(tmp_path, regular_lattice(catalog_group("C4")))
        code, out, _ = invoke(capsys, "verdict-torus", "--lattice", path)
        assert json.loads(out)["answer"] == "Yes"

    def test_multiplicative(self, capsys, tmp_path):
        path = write_lattice(tmp_path, regular_lattice(catalog_group("C8")))
        code, out, _ = invoke(capsys, "verdict-multiplicative", "--lattice", path,
                              "--field", "Q")
        assert json.loads(out)["answer"] == "No"

    def test_monomial_universal(self, capsys):
        code, out, _ = invoke(capsys, "verdict-monomial", "--group", "V4")
        assert json.loads(out)["answer"] == "No"

    def test_monomial_universal_agl_1_11(self, capsys, tmp_path):
        # AGL(1,11) = C11 x| C10 (x -> x+1, x -> 2x mod 11), order 110, above
        # the subgroup enumeration bound: a Z-group, with r = 2 from x -> 2x
        images = [[(x + 1) % 11 + 1 for x in range(11)], [2 * x % 11 + 1 for x in range(11)]]
        doc = {"name": "AGL(1,11)", "degree": 11, "perm_generators": images}
        path = tmp_path / "agl.json"
        path.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, "verdict-monomial", "--group", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["answer"] == "Yes"
        premises = payload["trace"][0]["premises"]
        assert premises["zassenhaus_presentation"] == {"m": 11, "n": 10, "r": 2}
        G = parse_group(doc)
        assert G.order == 110
        assert G.zgroup_presentation().verify(G)

    def test_monomial_universal_c2_power_7(self, capsys, tmp_path):
        # C2^7 on 14 points, order 128: a non-cyclic Sylow 2-subgroup
        images = [[2 * i + 2 if x == 2 * i + 1 else 2 * i + 1 if x == 2 * i + 2 else x
                   for x in range(1, 15)] for i in range(7)]
        path = tmp_path / "c2-7.json"
        path.write_text(json.dumps({"name": "C2^7", "degree": 14, "perm_generators": images}))
        code, out, _ = invoke(capsys, "verdict-monomial", "--group", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["answer"] == "No"
        assert payload["trace"][0]["premises"] == {"all_sylow_cyclic": False}

    def test_monomial_instance(self, capsys, tmp_path):
        doc = {"group": "C2", "rank": 1, "action": {"1": [[-1]]},
               "d": 4, "coeff": {"1": [1]}}
        path = tmp_path / "act.json"
        path.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, "verdict-monomial", "--action", str(path),
                              "--field", "C")
        assert code == 0
        assert json.loads(out)["answer"] == "Yes"

    def test_custom_field_file(self, capsys, tmp_path):
        field = {"name": "k3", "cyclotomic_2power_cyclic": {"3": False}}
        fpath = tmp_path / "field.json"
        fpath.write_text(json.dumps(field))
        code, out, _ = invoke(capsys, "verdict-noether", "--group", "C8",
                              "--field", f"custom:{fpath}")
        assert json.loads(out)["answer"] == "No"

    @pytest.mark.parametrize("char", [4, -3, "4", 4.0, True])
    def test_custom_field_bad_characteristic_exit_1(self, capsys, tmp_path, char):
        fpath = tmp_path / "field.json"
        fpath.write_text(json.dumps({"name": "bad", "characteristic": char}))
        code, out, err = invoke(capsys, "verdict-noether", "--group", "C8",
                                "--field", f"custom:{fpath}")
        assert code == 1
        assert out == ""
        assert err.startswith("error: field characteristic") and err.count("\n") == 1

    def test_custom_field_prime_characteristic(self, capsys, tmp_path):
        fpath = tmp_path / "field.json"
        fpath.write_text(json.dumps({"name": "F2t", "characteristic": 2}))
        code, out, _ = invoke(capsys, "verdict-noether", "--group", "C8",
                              "--field", f"custom:{fpath}")
        assert code == 0
        assert json.loads(out)["trace"][0]["premises"]["p"] == 2


class TestParserReuse:
    def test_back_to_back_runs_share_no_state(self, capsys, tmp_path):
        assert build_parser() is build_parser()
        code, out, _ = invoke(capsys, "verdict-noether", "--group", "C8", "--field", "C")
        assert code == 0 and json.loads(out)["answer"] == "Yes"
        target = tmp_path / "result.json"
        code, out, _ = invoke(capsys, "verdict-noether", "--group", "C8", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["answer"] == "No"  # the default field Q
        target.unlink()
        code, out, _ = invoke(capsys, "verdict-noether", "--group", "C8")
        assert code == 0 and json.loads(out)["answer"] == "No"
        assert not target.exists()


class TestReproduce:
    def test_voskresenskii_n3(self, capsys):
        code, out, _ = invoke(capsys, "reproduce", "voskresenskii", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        names = [c["name"] for c in payload["checks"]]
        assert "Tate H^-1 at the Klein four subgroup" in names

    def test_voskresenskii_decides_once(self, capsys, monkeypatch):
        # the flabby class is decided inside torus_verdict only, by its H^1
        # obstruction read from the lattice: no resolution, no cover and no
        # section system
        import retractrat.cli as cli
        import retractrat.resolutions as resolutions
        import retractrat.verdict as verdict

        calls = {"flabby_resolution": 0, "is_invertible": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            for module in (cli, verdict, resolutions):
                monkeypatch.setattr(module, name, counted)
        steps = []
        torus_verdict = verdict.torus_verdict

        def traced(*args):
            v = torus_verdict(*args)
            steps.extend(s.rule for s in v.trace)
            return v
        monkeypatch.setattr(cli, "torus_verdict", traced)
        code, out, _ = invoke(capsys, "reproduce", "voskresenskii", "--n", "3")
        assert code == 0
        assert calls == {"flabby_resolution": 0, "is_invertible": 0}
        assert steps == ["h1-obstruction"]
        checks = [(c["name"], c["expected"], c["got"])
                  for c in json.loads(out)["checks"]]
        flags = {"flabby": False, "coflabby": True}
        assert checks == [
            ("rank of kernel lattice", 7, 7),
            ("H^1 trivial for every subgroup", True, True),
            ("Tate H^-1 at the Klein four subgroup", [2], [2]),
            ("profile: coflabby, not flabby", flags, flags),
            ("flabby class not invertible", False, False),
            ("torus verdict", "No", "No"),
        ]

    def test_endo_miyata_seeded_identical(self, capsys):
        code1, out1, _ = invoke(capsys, "reproduce", "endo-miyata",
                                "--max-order", "6", "--trials", "2", "--seed", "5")
        code2, out2, _ = invoke(capsys, "reproduce", "endo-miyata",
                                "--max-order", "6", "--trials", "2", "--seed", "5")
        assert code1 == code2 == 0
        assert out1 == out2  # bit-identical across repetitions
        assert json.loads(out1)["pass"] is True

    @pytest.mark.parametrize("args", [
        pytest.param(["--trials", "0"], id="no-trials"),
        pytest.param(["--max-order", "1"], id="no-groups"),
    ])
    def test_endo_miyata_rejects_empty_suite(self, capsys, args):
        # zero cases would otherwise report "pass": true
        assert_one_line_error(*invoke(capsys, "reproduce", "endo-miyata", *args))

    @pytest.mark.parametrize("n", ["2", "1", "-3"])
    def test_voskresenskii_rejects_n_below_3(self, capsys, n):
        assert_one_line_error(*invoke(capsys, "reproduce", "voskresenskii", "--n", n))

    def test_voskresenskii_n_above_bound_exit_2(self, capsys):
        code, out, err = invoke(capsys, "reproduce", "voskresenskii", "--n", "8")
        assert code == 2 and out == ""
        assert err.startswith("resource bound exceeded")

    def test_stable_across_hash_seeds(self, tmp_path):
        # golden-file safety: identical bytes from fresh interpreters with
        # different hash randomization
        import os
        import subprocess
        import sys

        outs = []
        for seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "retractrat.cli", "reproduce",
                 "endo-miyata", "--max-order", "6", "--trials", "2", "--seed", "9"],
                capture_output=True, text=True, env=env, check=True)
            outs.append(proc.stdout)
            proc = subprocess.run(
                [sys.executable, "-m", "retractrat.cli", "verdict-noether",
                 "--group", "D8", "--field", "Q"],
                capture_output=True, text=True, env=env, check=True)
            outs.append(proc.stdout)
        assert outs[0] == outs[2]
        assert outs[1] == outs[3]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = invoke(capsys, "verdict-noether", "--group", "C4",
                              "--field", "Q", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["answer"] == "Yes"

    @pytest.mark.parametrize("target", [
        pytest.param(["missing", "x.json"], id="missing-directory"),
        pytest.param(["existing"], id="is-a-directory"),
    ])
    def test_out_unwritable_exit_1(self, capsys, tmp_path, target):
        (tmp_path / "existing").mkdir()
        out = tmp_path.joinpath(*target)
        code, stdout, err = invoke(capsys, "group-info", "--group", "C4", "--out", str(out))
        assert_one_line_error(code, stdout, err)
        assert err.startswith(f"error: cannot write {out}")
        assert list(tmp_path.rglob("*.tmp")) == []
