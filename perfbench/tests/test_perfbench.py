"""Tests of the benchmark's own code: answer checks, seeding and tracing.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import json
import os
import subprocess
import sys
from time import thread_time
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.fresh_library()


@pytest.fixture(scope="module")
def tori(lib, tmp_path_factory):
    return workloads.build_tori_mix(lib, 0, str(tmp_path_factory.mktemp("tori")))


def fake_library(code=0, payload=None, exc=None):
    def fake_run(argv):
        if exc is not None:
            raise exc
        if payload is not None:
            print(json.dumps(payload))
        return code
    return SimpleNamespace(cli=SimpleNamespace(run=fake_run),
                           verdict=SimpleNamespace(_NOETHER_MEMO={}))


def find(requests, label):
    return next(r for r in requests if r.label == label)


def test_flipped_torus_answer_counts_as_failure(lib, tori):
    request = find(tori, "verdict-torus J_C2xC2/[0]")
    assert run.execute(lib, request).error is None
    flipped = run.execute(fake_library(payload={"answer": "Yes"}), request)
    assert flipped.error is not None and "expected No" in flipped.error
    result = run.run_pass(fake_library(payload={"answer": "Yes"}), [request])
    assert len(result.failures) == 1


def test_nonzero_exit_and_exceptions_count_as_failures(tori):
    request = find(tori, "verdict-torus J_C2xC2/[0]")
    assert "exit 1" in run.execute(fake_library(code=1), request).error
    assert "raised" in run.execute(fake_library(exc=RuntimeError("boom")), request).error
    assert "unreadable" in run.execute(fake_library(), request).error


def test_invertible_needs_flabby_and_coflabby_profile():
    coh, inv, _, _ = workloads._tori_checks(zgroup=False, regular_torus=False)
    assert coh({"flabby": True, "coflabby": False}) is None
    assert inv({"invertible": True}) is not None
    assert inv({"invertible": False}) is None


def test_resolution_check_recomputes_the_composite():
    payload = {"M": {"rank": 1}, "P": {"rank": 2}, "F": {"rank": 1},
               "injection": [[1], [1]], "surjection": [[1, -1]]}
    assert workloads.check_resolution(payload) is None
    payload["surjection"] = [[1, 1]]
    assert "not zero" in workloads.check_resolution(payload)
    payload["F"] = {"rank": 2}
    assert "ranks" in workloads.check_resolution(payload)


def test_group_answer_table_is_checked():
    check = workloads.check_group_info(24, 30)
    assert check({"order": 24, "num_subgroups": 30}) is None
    assert check({"order": 24, "num_subgroups": 29}) is not None


def documents(lib, build, seed, workdir):
    workdir.mkdir()
    requests = build(lib, seed, str(workdir))
    paths = sorted({p for r in requests for p in r.inputs})
    return [open(p).read() for p in paths]


@pytest.mark.parametrize("build", [workloads.build_subgroup_scan, workloads.build_tori_mix])
def test_seed_decides_the_documents(lib, build, tmp_path):
    first = documents(lib, build, 5, tmp_path / "a")
    assert documents(lib, build, 5, tmp_path / "b") == first
    assert documents(lib, build, 6, tmp_path / "c") != first


def test_relabelled_group_keeps_its_answers(lib, tmp_path):
    requests = workloads.build_subgroup_scan(lib, 11, str(tmp_path))
    for label in ("group-info S4", "noether Q C8xC8", "monomial D16xC2"):
        assert run.execute(lib, find(requests, label)).error is None


@pytest.mark.parametrize("corrected", [False, True])
def test_self_times_sum_to_request_time(lib, tori, corrected):
    requests = [r for r in tori if "J_D8/" in r.label][:8]
    sampler = hostspeed.Sampler() if corrected else None
    tracer = tracing.Tracer(lib, sampler)
    tracer.install()
    try:
        with sampler or contextlib.nullcontext():
            result = run.run_pass(lib, requests, tracer)
    finally:
        tracer.uninstall()
    assert not result.failures
    self_times = tracer.self_times()
    assert all(t >= 0 for t in self_times)
    for rid, latency in enumerate(result.latencies(sampler)):
        roots = [s for s in tracer.spans if s[4] == rid and s[3] == -1]
        assert [s[0] for s in roots] == ["cli.run"]
        total = sum(t for s, t in zip(tracer.spans, self_times) if s[4] == rid)
        root_time = run.seconds(roots[0][1:3], sampler)
        assert total == pytest.approx(root_time, rel=1e-9, abs=1e-9)
        if corrected:  # the request's interval is a little wider: a probe may fall in it
            assert latency == pytest.approx(root_time, rel=0.1, abs=0.002)
        else:
            assert root_time <= latency < root_time + 0.002
    metrics = tracer.metrics(result.total(sampler), result.total(sampler))
    assert metrics["verdict.torus.calls"] == 2
    assert metrics["zlinalg.row_hermite.calls"] > 0


def test_host_speed_correction():
    sampler = hostspeed.Sampler()
    nominal = hostspeed.NOMINAL_PROBE_S
    # Probes of twice the nominal time every 0.1 s; one of them inside [1.05, 1.15).
    sampler.starts = [0.1 * k for k in range(40)]
    sampler.durations = [2 * nominal] * 40
    assert sampler.corrected(1.05, 1.15) == pytest.approx((0.1 - 2 * nominal) / 2)
    # A host half as fast doubles the probe and the request alike (four probes
    # inside); the result stands.
    sampler.durations = [4 * nominal] * 40
    assert sampler.corrected(1.05, 1.45) == pytest.approx((0.4 - 4 * nominal * 4) / 4)
    with pytest.raises(RuntimeError):
        hostspeed.Sampler().corrected(0.0, 1.0)


def test_sampler_probes_while_running():
    with hostspeed.Sampler() as sampler:
        start = thread_time()
        while thread_time() - start < 0.2:
            hostspeed.reference()
    assert len(sampler.starts) >= 3
    assert sampler.corrected(start, start + 0.2) > 0


def test_uninstall_restores_the_library(lib):
    before = (lib.zlinalg.Mat.mul, lib.lattices.kernel_basis, lib.cli.run)
    tracer = tracing.Tracer(lib)
    tracer.install()
    assert lib.lattices.kernel_basis is not before[1]
    tracer.uninstall()
    assert (lib.zlinalg.Mat.mul, lib.lattices.kernel_basis, lib.cli.run) == before


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.METRICS


def test_exits_nonzero_without_the_library(tmp_path):
    bare = tmp_path / "perfbench"
    bare.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py", "hostspeed.py"):
        (bare / name).write_text(open(os.path.join(BENCH, name)).read())
    proc = subprocess.run([sys.executable, str(bare / "run.py"), "--workload", "tori-mix",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
