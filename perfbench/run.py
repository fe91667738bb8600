"""retractrat benchmark: one workload, one seed, checked answers, one JSON line.

    python3 perfbench/run.py --workload tori-mix --seed 0 --seconds 30 --trace 0

Run from the repository root (any directory works; paths are taken from this
file).  The library is imported from ``src/`` next to this directory and driven
the way its users drive it: in-process calls to ``retractrat.cli.run(argv)``,
fed with JSON documents generated from the seed during set-up.  One process,
one thread, a closed loop with a single client: each request starts when the
previous one has returned and its answer has been checked.

Times are thread CPU time, so time lost to other processes on the host does
not count, corrected for the host's speed (hostspeed.py): they are the times
on a host of fixed speed.

A pass sends every request of the workload once.  Passes repeat while the
next one is predicted to end within ``--seconds``; at least one always runs.
With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` each pass is an untraced pass followed by a traced one, and the
last line carries the per-layer metrics; the spans of the last traced pass
are written to ``perfbench/.work/spans-<workload>.tsv``.  NOTES.md describes
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter, thread_time
from types import SimpleNamespace
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKDIR = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
LIB_MODULES = ("groups", "zlinalg", "lattices", "cohomology", "resolutions", "verdict", "cli")

END_TO_END = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
]

Interval = tuple[float, float]  # thread CPU time at start and end


def fresh_library() -> SimpleNamespace:
    """Import retractrat anew, as a new process would."""
    for name in [n for n in sys.modules if n == "retractrat" or n.startswith("retractrat.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"retractrat.{m}")
                              for m in LIB_MODULES})


def set_up(workload: str, seed: int) -> tuple[Interval, SimpleNamespace, list]:
    """One set-up: import, generate the inputs, write the documents."""
    start = thread_time()
    lib = fresh_library()
    requests = workloads.WORKLOADS[workload](lib, seed, WORKDIR)
    return (start, thread_time()), lib, requests


@dataclass
class Outcome:
    interval: Interval
    error: Optional[str]
    bytes_out: int


def execute(lib, request: workloads.Request) -> Outcome:
    """One request: cli.run on the request's argv, then the answer check.

    A request fails on a non-zero exit, an escaping exception or a failed
    check; the timed interval covers cli.run only.
    """
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = thread_time()
        try:
            code = lib.cli.run(request.argv)
        except Exception as exc:  # the loop goes on; the request is counted as failed
            code, crash = None, exc
        end = thread_time()
    text = out.getvalue()
    if crash is not None:
        error = f"raised {type(crash).__name__}: {crash}"
    elif code != 0:
        error = f"exit {code}: {err.getvalue().strip()[:200]}"
    else:
        try:
            error = request.check(json.loads(text))
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            error = f"unreadable answer: {type(exc).__name__}: {exc}"
    return Outcome((start, end), error, len(text))


def seconds(interval: Interval, sampler: Optional[hostspeed.Sampler] = None) -> float:
    """The interval's CPU seconds, corrected for host speed when sampled."""
    if sampler is None:
        return interval[1] - interval[0]
    return sampler.corrected(*interval)


@dataclass
class PassResult:
    intervals: list[Interval] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    bytes_out: int = 0

    def latencies(self, sampler: Optional[hostspeed.Sampler] = None) -> list[float]:
        return [seconds(i, sampler) for i in self.intervals]

    def total(self, sampler: Optional[hostspeed.Sampler] = None) -> float:
        return sum(self.latencies(sampler))


def reset_process_memos(lib) -> None:
    # Passes repeat identical requests.  Clearing the verdict memo keeps a
    # later pass from answering out of an earlier one, which separate CLI
    # processes could not do; every pass then does the work of the first.
    memo = getattr(lib.verdict, "_NOETHER_MEMO", None)
    if memo is not None:
        memo.clear()


def run_pass(lib, requests, tracer: Optional[tracing.Tracer] = None) -> PassResult:
    reset_process_memos(lib)
    result = PassResult()
    for i, request in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        outcome = execute(lib, request)
        result.intervals.append(outcome.interval)
        result.bytes_out += outcome.bytes_out
        if outcome.error is not None:
            result.failures.append(f"{request.label}: {outcome.error}")
    return result


def repeat(seconds: float, body) -> list:
    """body() once, then again while the next call is predicted to end within
    `seconds` (wall clock) of the first call's start."""
    results = []
    start = perf_counter()
    while True:
        t = perf_counter()
        results.append(body())
        if perf_counter() - start + (perf_counter() - t) > seconds:
            return results


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least 10 requests beyond it, with its
    label.  A pass of 10 requests or fewer has none; its maximum stands in."""
    xs = sorted(latencies)
    i = len(xs) - 11
    if i < 0:
        return xs[-1], f"max of {len(xs)}; no percentile has 10 requests beyond it"
    return xs[i], f"p{100 * (i + 1) / len(xs):.1f}, {len(xs) - 1 - i} of {len(xs)} beyond"


def end_to_end(sampler: hostspeed.Sampler, setups: list[Interval],
               passes: list[PassResult]) -> tuple[dict, dict]:
    def medians(s):
        lat = [p.latencies(s) for p in passes]
        return {
            "setup_s": statistics.median(seconds(i, s) for i in setups),
            "pass_s": statistics.median(sum(x) for x in lat),
            "req_p50_ms": 1000 * statistics.median(statistics.median(x) for x in lat),
            "req_tail_ms": 1000 * statistics.median(tail(x)[0] for x in lat),
        }

    values, raw = medians(sampler), medians(None)
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(passes[0].intervals)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "pass_s": f"sum of a pass's requests, median of {len(passes)} pass(es)",
        "req_p50_ms": f"median request, {n} requests per pass",
        "req_tail_ms": tail(passes[0].latencies())[1],
        "peak_rss_mib": "peak resident memory of this process",
    }
    for name in raw:
        notes[name] += f"; uncorrected {raw[name]:.6g}"
    return values, notes


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "retractrat", "__init__.py")):
        print(f"perfbench: no retractrat sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORKDIR, exist_ok=True)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")

    if args.trace:
        _, lib, requests = set_up(args.workload, args.seed)
        bytes_in = sum(os.path.getsize(p) for r in requests for p in r.inputs)
        sampler = hostspeed.Sampler()

        def traced_pair():
            plain = run_pass(lib, requests)
            tracer = tracing.Tracer(lib, sampler)
            tracer.install()
            try:
                traced = run_pass(lib, requests, tracer)
            finally:
                tracer.uninstall()
            tracer.bytes_in, tracer.bytes_out = bytes_in, traced.bytes_out
            return plain, traced, tracer

        with sampler:
            pairs = repeat(args.seconds, traced_pair)
        passes = [p for plain, traced, _ in pairs for p in (plain, traced)]
        per_pass = [tracer.metrics(traced.total(sampler), plain.total(sampler))
                    for plain, traced, tracer in pairs]
        values = {name: statistics.median(m[name] for m in per_pass)
                  for name, _ in tracing.METRICS}
        units = dict(tracing.METRICS)
        spans_path = os.path.join(WORKDIR, f"spans-{args.workload}.tsv")
        pairs[-1][2].write_spans(spans_path)
        print(f"per-layer metrics (corrected thread CPU time), median of {len(pairs)} "
              f"traced pass(es) of {len(requests)} requests; "
              f"spans in {os.path.relpath(spans_path)}")
        for name, unit in tracing.METRICS:
            print_metric(name, values[name], unit)
        print(f"  untraced pass_s {statistics.median(p.total(sampler) for p, _, _ in pairs):.4f} s, "
              f"tracing overhead {values['trace.overhead_s']:.4f} s")
    else:
        setups = []
        with hostspeed.Sampler() as sampler:
            for _ in range(SETUP_REPEATS):
                interval, lib, requests = set_up(args.workload, args.seed)
                setups.append(interval)
            passes = repeat(args.seconds, lambda: run_pass(lib, requests))
        values, notes = end_to_end(sampler, setups, passes)
        units = dict(END_TO_END)
        probes = sampler.durations
        print(f"end-to-end metrics, corrected to a {1000 * hostspeed.NOMINAL_PROBE_S:g} ms "
              f"probe; the probe took {1000 * statistics.median(probes):.4g} ms "
              f"(median of {len(probes)})")
        for name, unit in END_TO_END:
            print_metric(name, values[name], unit, notes[name])

    attempted = sum(len(p.intervals) for p in passes)
    failures = [f for p in passes for f in p.failures]
    print_metric("fail_frac", len(failures) / attempted, "",
                 f"{len(failures)} failed of {attempted} attempted")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
