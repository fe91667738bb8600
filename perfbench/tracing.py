"""Span tracing for the traced benchmark run.

The tracer rebinds the public entry points of each retractrat layer (the
table SPANS below) with wrappers that record one span per call: its metric
name, start, end, the index of the enclosing span and the request id.
Module-level functions are rebound in every retractrat module that holds
them, so calls through ``from .zlinalg import kernel_basis`` are seen too;
methods are rebound on their class.  ``FiniteGroup.closure`` is only
counted, and nothing finer (``FiniteGroup.mul``/``inv``) is wrapped.

Spans stay in memory until the pass ends.  A span's self time is its
duration minus the durations of its direct children; the library is
single-threaded, so children never overlap and the self times of one
request add up to the duration of its root ``cli.run`` span.
"""

from __future__ import annotations

import functools
import sys
from time import thread_time

# (metric prefix, module, attribute).  Several attributes may share a prefix.
SPANS = [
    ("zlinalg.row_hermite", "zlinalg", "row_hermite"),
    ("zlinalg.kernel_basis", "zlinalg", "kernel_basis"),
    ("zlinalg.solve", "zlinalg", "LinearSolver.solve"),
    ("zlinalg.solve", "zlinalg", "LinearSolver.solve_matrix"),
    ("zlinalg.solve", "zlinalg", "solve_integer"),
    ("zlinalg.smith", "zlinalg", "smith_normal_form"),
    ("zlinalg.smith", "zlinalg", "smith_diagonal"),
    ("zlinalg.mat_mul", "zlinalg", "Mat.mul"),
    ("zlinalg.accumulator", "zlinalg", "LatticeAccumulator.add"),
    ("zlinalg.accumulator", "zlinalg", "LatticeAccumulator.contains"),
    ("resolutions.fixed_point_cover", "resolutions", "fixed_point_cover"),
    ("resolutions.flabby_resolution", "resolutions", "flabby_resolution"),
    ("resolutions.is_invertible", "resolutions", "is_invertible"),
    ("cohomology.profile", "cohomology", "profile"),
    ("cohomology.tate", "cohomology", "tate_minus1"),
    ("cohomology.tate", "cohomology", "tate_zero"),
    ("cohomology.tate", "cohomology", "h1"),
    ("cohomology.is_flabby", "cohomology", "is_flabby"),
    ("lattices.parse", "lattices", "parse_lattice"),
    ("lattices.expand", "lattices", "GLattice.expand"),
    ("lattices.fixed_basis", "lattices", "fixed_basis"),
    ("lattices.map_check", "lattices", "LatticeMap.__post_init__"),
    ("lattices.document", "lattices", "lattice_document"),
    ("groups.parse", "groups", "parse_group"),
    ("groups.subgroups", "groups", "FiniteGroup.subgroups"),
    ("groups.subgroup_lookup", "groups", "FiniteGroup.subgroup"),
    ("groups.conjugacy_reps", "groups", "FiniteGroup.subgroup_conjugacy_representatives"),
    ("groups.decompositions", "groups", "FiniteGroup.semidirect_decompositions"),
    ("groups.decompositions", "groups", "FiniteGroup.direct_decompositions"),
    ("verdict.noether", "verdict", "noether_verdict"),
    ("verdict.torus", "verdict", "torus_verdict"),
    ("verdict.multiplicative", "verdict", "multiplicative_verdict"),
    ("verdict.monomial_universal", "verdict", "monomial_universal_verdict"),
    ("cli.run", "cli", "run"),
]

# Every per-layer metric, in output order, with its unit.
METRICS = [
    ("zlinalg.row_hermite.calls", "count"),
    ("zlinalg.row_hermite.self_s", "s"),
    ("zlinalg.row_hermite.max_entry_bits", "bits"),
    ("zlinalg.row_hermite.max_cells", "count"),
    ("zlinalg.kernel_basis.calls", "count"),
    ("zlinalg.kernel_basis.self_s", "s"),
    ("zlinalg.solve.calls", "count"),
    ("zlinalg.solve.self_s", "s"),
    ("zlinalg.smith.calls", "count"),
    ("zlinalg.smith.self_s", "s"),
    ("zlinalg.mat_mul.calls", "count"),
    ("zlinalg.mat_mul.self_s", "s"),
    ("zlinalg.accumulator.calls", "count"),
    ("zlinalg.accumulator.self_s", "s"),
    ("resolutions.fixed_point_cover.calls", "count"),
    ("resolutions.fixed_point_cover.self_s", "s"),
    ("resolutions.cover_rank.max", "count"),
    ("resolutions.input_rank.max", "count"),
    ("resolutions.flabby_resolution.calls", "count"),
    ("resolutions.flabby_resolution.self_s", "s"),
    ("resolutions.is_invertible.calls", "count"),
    ("resolutions.is_invertible.self_s", "s"),
    ("resolutions.section_system.unknowns", "count"),
    ("resolutions.section_system.equations", "count"),
    ("resolutions.repeat_ratio", "ratio"),
    ("cohomology.profile.calls", "count"),
    ("cohomology.profile.self_s", "s"),
    ("cohomology.tate.calls", "count"),
    ("cohomology.tate.self_s", "s"),
    ("cohomology.is_flabby.calls", "count"),
    ("cohomology.is_flabby.self_s", "s"),
    ("lattices.parse.self_s", "s"),
    ("lattices.expand.calls", "count"),
    ("lattices.expand.self_s", "s"),
    ("lattices.fixed_basis.calls", "count"),
    ("lattices.fixed_basis.self_s", "s"),
    ("lattices.map_check.calls", "count"),
    ("lattices.map_check.self_s", "s"),
    ("lattices.document.self_s", "s"),
    ("groups.parse.self_s", "s"),
    ("groups.subgroups.calls", "count"),
    ("groups.subgroups.self_s", "s"),
    ("groups.subgroups.found", "count"),
    ("groups.closure.calls", "count"),
    ("groups.join_yield", "ratio"),
    ("groups.subgroup_lookup.calls", "count"),
    ("groups.subgroup_lookup.self_s", "s"),
    ("groups.conjugacy_reps.self_s", "s"),
    ("groups.decompositions.self_s", "s"),
    ("verdict.noether.calls", "count"),
    ("verdict.noether.self_s", "s"),
    ("verdict.torus.calls", "count"),
    ("verdict.torus.self_s", "s"),
    ("verdict.multiplicative.calls", "count"),
    ("verdict.multiplicative.self_s", "s"),
    ("verdict.monomial_universal.calls", "count"),
    ("verdict.monomial_universal.self_s", "s"),
    ("verdict.trace_steps", "count"),
    ("verdict.unknown_frac", "ratio"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("cli.bytes_in", "B"),
    ("cli.bytes_out", "B"),
    ("trace.spans", "count"),
    ("trace.pass_s", "s"),
    ("trace.overhead_s", "s"),
]


def _max_bits(rows) -> int:
    m = 0
    for row in rows:
        if row:
            m = max(m, max(row), -min(row))
    return m.bit_length()


def _lattice_key(M) -> tuple:
    """Content of a lattice: equal keys mean the same input lattice."""
    return (M.group.mul_table, M.rank,
            tuple((g, tuple(map(tuple, m.a))) for g, m in sorted(M.action.items())))


class Tracer:
    """Spans and size counters of one traced pass.

    install() rebinds the entry points of ``lib`` (a namespace of the
    retractrat modules); uninstall() restores the originals.
    """

    def __init__(self, lib, sampler=None):
        self.lib = lib
        self.sampler = sampler  # a hostspeed.Sampler that runs during the pass, or None
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.request = -1
        self.bytes_in = 0
        self.bytes_out = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._closure_calls = 0
        self._max: dict[str, int] = {}
        self._lattice_calls = 0
        self._lattice_keys: set = set()
        self._groups: dict[int, object] = {}  # id -> group, kept alive for the pass
        self._found = 0
        self._verdicts = 0
        self._unknown = 0
        self._trace_steps = 0

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        after = {
            "row_hermite": self._after_row_hermite,
            "solve_integer": self._after_solve_integer,
            "fixed_point_cover": self._after_cover,
            "flabby_resolution": self._after_resolution_input,
            "is_invertible": self._after_resolution_input,
            "FiniteGroup.subgroups": self._after_subgroups,
            "noether_verdict": self._after_verdict,
            "torus_verdict": self._after_verdict,
            "multiplicative_verdict": self._after_verdict,
            "monomial_universal_verdict": self._after_verdict,
        }
        for name, module, attr in SPANS:
            self._rebind(module, attr,
                         lambda fn, name=name, attr=attr: self._span(name, fn, after.get(attr)))
        self._rebind("groups", "FiniteGroup.closure", self._count_closure)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _rebind(self, module: str, attr: str, make) -> None:
        mod = getattr(self.lib, module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[meth]
            self._patches.append((owner, meth, original))
            setattr(owner, meth, make(original))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for mname, m in list(sys.modules.items()):
            if mname != "retractrat" and not mname.startswith("retractrat."):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    self._patches.append((m, key, original))
                    setattr(m, key, wrapper)

    def _span(self, name: str, fn, after):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = thread_time()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _count_closure(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._closure_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- size probes ------------------------------------------------------------

    def _raise_max(self, key: str, value: int) -> None:
        if value > self._max.get(key, 0):
            self._max[key] = value

    def _after_row_hermite(self, args, result) -> None:
        A = args[0]
        H, U, _ = result
        self._raise_max("cells", A.rows * A.cols)
        bits = _max_bits(H.a)
        if U is not None:
            bits = max(bits, _max_bits(U.a))
        self._raise_max("bits", bits)

    def _after_solve_integer(self, args, result) -> None:
        # the section system of is_invertible is its one solve_integer call
        if self._stack and self.spans[self._stack[-1]][0] == "resolutions.is_invertible":
            A = args[0]
            self._raise_max("unknowns", A.cols)
            self._raise_max("equations", A.rows)

    def _after_cover(self, args, result) -> None:
        self._raise_max("cover_rank", result.P.rank)

    def _after_resolution_input(self, args, result) -> None:
        M = args[0]
        self._lattice_calls += 1
        self._lattice_keys.add((self.request, _lattice_key(M)))
        self._raise_max("input_rank", M.rank)

    def _after_subgroups(self, args, result) -> None:
        G = args[0]
        if id(G) not in self._groups:
            self._groups[id(G)] = G
            self._found += len(result)

    def _after_verdict(self, args, result) -> None:
        self._verdicts += 1
        self._unknown += result.answer == "Unknown"
        self._trace_steps += len(result.trace)

    # -- results ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of each span.  With a sampler, the probes are taken out
        and each span is corrected by its request's host-speed factor, so
        the self times of a request add up to its corrected time."""
        sampler = self.sampler
        busy = [s[2] - s[1] for s in self.spans]
        if sampler is not None:
            busy = [b - sampler.probe_time(s[1], s[2]) for s, b in zip(self.spans, busy)]
        out = list(busy)
        for s, b in zip(self.spans, busy):
            if s[3] >= 0:
                out[s[3]] -= b
        if sampler is not None:
            factors = {s[4]: sampler.factor(s[1], s[2]) for s in self.spans if s[3] < 0}
            out = [t * factors[s[4]] for s, t in zip(self.spans, out)]
        return out

    def metrics(self, pass_s: float, untraced_pass_s: float) -> dict[str, float]:
        """Per-layer metrics of this pass, keyed as in METRICS."""
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        for s, t in zip(self.spans, self.self_times()):
            calls[s[0]] = calls.get(s[0], 0) + 1
            busy[s[0]] = busy.get(s[0], 0.0) + t
        out: dict[str, float] = {}
        for name, _ in METRICS:
            prefix, _, kind = name.rpartition(".")
            if kind == "calls" and prefix != "groups.closure":
                out[name] = calls.get(prefix, 0)
            elif kind == "self_s":
                out[name] = busy.get(prefix, 0.0)
        out.update({
            "zlinalg.row_hermite.max_entry_bits": self._max.get("bits", 0),
            "zlinalg.row_hermite.max_cells": self._max.get("cells", 0),
            "resolutions.cover_rank.max": self._max.get("cover_rank", 0),
            "resolutions.input_rank.max": self._max.get("input_rank", 0),
            "resolutions.section_system.unknowns": self._max.get("unknowns", 0),
            "resolutions.section_system.equations": self._max.get("equations", 0),
            "resolutions.repeat_ratio": self._lattice_calls / max(1, len(self._lattice_keys)),
            "groups.subgroups.found": self._found,
            "groups.closure.calls": self._closure_calls,
            "groups.join_yield": self._found / max(1, self._closure_calls),
            "verdict.trace_steps": self._trace_steps,
            "verdict.unknown_frac": self._unknown / max(1, self._verdicts),
            "cli.bytes_in": self.bytes_in,
            "cli.bytes_out": self.bytes_out,
            "trace.spans": len(self.spans),
            "trace.pass_s": pass_s,
            "trace.overhead_s": pass_s - untraced_pass_s,
        })
        return out

    def write_spans(self, path: str) -> None:
        """Spans as tab-separated name, start, end, parent, request; times in
        seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for name, start, end, parent, request in self.spans:
                fh.write(f"{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\t{request}\n")
