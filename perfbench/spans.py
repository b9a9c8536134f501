"""Spans and counters recorded around the program's layer entry points.

The tracer rebinds module attributes of the package to timing wrappers; the
program looks these names up at call time, so its own files stay untouched.
Spans are kept in memory: name, start, end, parent span and case id
(workload, campaign, N).  A span's self time is its duration minus the part
of it that its child spans cover.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    workload: str
    campaign: str
    iteration: int
    N: int | None


def _after_mesh(c, mesh, args):
    c["meshgen.triangles"] += mesh.n_triangles


def _after_dofmap(c, dofmap, args):
    c["fem.n_scalar"] += dofmap.n_scalar


def _after_reduce(c, reduced, args):
    c["system.n_reduced"] += reduced.n
    c["system.nnz_A"] += reduced.A.nnz
    c["system.nnz_M"] += reduced.M.nnz


def _after_solve(c, spectrum, args):
    system, config = args[0], args[1]
    dense = config.method == "dense" or (
        config.method == "auto" and system.n <= config.auto_dense)
    c["eig.solve_calls"] += 1
    c["eig.dense_calls"] += int(dense)
    c["eig.pairs"] += len(spectrum.values)
    c["eig.complex_rejected"] += spectrum.n_complex_rejected
    if len(spectrum.residuals):
        c["eig.max_residual"] = max(c["eig.max_residual"],
                                    float(spectrum.residuals.max()))


def _after_filter(c, filtered, args):
    c["eig.zero_filtered"] += filtered.n_zero_filtered - args[0].n_zero_filtered


def _case_N(args):
    return args[1]


# (module, attribute, span name, counter hook, case-N extractor).  A span's
# self time is reported as the per-layer metric "<span name>_s".
HOOKS = (
    ("cli", "cli_main", "cli.main", None, None),
    ("study", "build_mesh", "meshgen.build", _after_mesh, None),
    ("system", "build_dofmap", "fem.dofmap", _after_dofmap, None),
    ("system", "scalar_kernels", "fem.kernels", None, None),
    ("system", "assemble_form", "fem.forms", None, None),
    ("study", "build_sg", "system.assemble", None, None),
    ("study", "build_ag", "system.assemble", None, None),
    ("study", "build_osgs", "system.assemble", None, None),
    ("study", "build_constraints", "system.constraints", None, None),
    ("study", "reduce_system", "system.reduce", _after_reduce, None),
    ("study", "solve_generalized", "eig.solve", _after_solve, None),
    ("study", "filter_zeros", "eig.filter", _after_filter, None),
    ("study", "run_case", "study.case", None, _case_N),
    ("study", "run_study", "study.run_study", None, None),
    ("cli", "run_study", "study.run_study", None, None),
    ("cli", "emit_table", "cli.emit", None, None),
    ("cli", "compute_eigenfunction", "cli.export", None, None),
    ("cli", "export_eigenfunction", "cli.export_write", None, None),
)
COUNTERS = ("meshgen.triangles", "fem.n_scalar", "system.n_reduced",
            "system.nnz_A", "system.nnz_M", "eig.solve_calls",
            "eig.dense_calls", "eig.pairs", "eig.max_residual",
            "eig.complex_rejected", "eig.zero_filtered")


class Tracer:
    """Collects spans and counters while installed on the package."""

    def __init__(self, workload: str):
        self.workload = workload
        self.campaign = ""
        self.iteration = 0
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[Span] = []
        self._saved: list = []

    def install(self, package) -> None:
        for module_name, attr, name, hook, case_N in HOOKS:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook, case_N))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name, hook, case_N):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            N = case_N(args) if case_N else (parent.N if parent else None)
            span = Span(len(self.spans), parent.id if parent else None, name,
                        time.perf_counter(), 0.0, self.workload,
                        self.campaign, self.iteration, N)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counters, result, args)
            return result
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out
