"""In-process span tracing of povm_forge, installed from outside the program.

``Tracer.install`` replaces each public function of the library modules with
a wrapper that records a span (request, parent, name, start, end), both in
the defining module and in every povm_forge module that imported the name,
and ``uninstall`` puts the originals back, so untraced runs execute the
program unchanged.  A few tiny helpers called in tight loops are left
unwrapped; their time counts as their caller's self time.  ``as_hermitian``
calls and ``Povm`` constructions are counted without spans.  Spans stay in
memory until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("hermitian", "quantum", "infotheory", "symmetry", "caratheodory", "trines")
UNWRAPPED = {
    "hermitian.hermitian_part", "infotheory.plogp",
    "trines.orbit_info", "trines.completeness_weight", "trines.psi", "trines.trine_rotation",
}
COUNTED = {"hermitian.as_hermitian"}
CLI_SPANS = ("load_problem",)
ROOT_SPAN = "cli.main"
SUPPORT_TOL = 1e-13

# metric: (unit, kind, span or counter names).  "calls" counts spans, "self"
# sums their self time, "count" reads a counter.
PER_LAYER = {
    "hermitian.eig_calls": ("count", "calls", ["hermitian.eig_hermitian"]),
    "hermitian.eig_s": ("s", "self", ["hermitian.eig_hermitian"]),
    "hermitian.as_hermitian_calls": ("count", "count", ["hermitian.as_hermitian"]),
    "hermitian.coords_s": ("s", "self", ["hermitian.coords"]),
    "quantum.validate_calls": ("count", "calls", ["quantum.validate_povm", "quantum.validate_ensemble"]),
    "quantum.validate_s": ("s", "self", ["quantum.validate_povm", "quantum.validate_ensemble"]),
    "quantum.povm_builds": ("count", "count", ["quantum.Povm"]),
    "quantum.normalize_s": ("s", "self", ["quantum.normalize_povm"]),
    "infotheory.mi_calls": ("count", "calls", ["infotheory.mutual_information"]),
    "infotheory.mi_s": ("s", "self", ["infotheory.mutual_information"]),
    "infotheory.joint_s": ("s", "self", ["infotheory.joint_distribution"]),
    "infotheory.joint_entries": ("count", "count", ["infotheory.joint_entries"]),
    "symmetry.generate_s": ("s", "self", ["symmetry.generate_group"]),
    "symmetry.group_elements": ("count", "count", ["symmetry.group_elements"]),
    "symmetry.is_symmetric_calls": ("count", "calls", ["symmetry.is_symmetric_ensemble"]),
    "symmetry.is_symmetric_s": ("s", "self", ["symmetry.is_symmetric_ensemble"]),
    "symmetry.orbit_sum_calls": ("count", "calls", ["symmetry.orbit_sum"]),
    "symmetry.orbit_sum_s": ("s", "self", ["symmetry.orbit_sum"]),
    "symmetry.bound_s": ("s", "self", ["symmetry.complex_orbit_bound", "symmetry.real_orbit_bound"]),
    "caratheodory.decompose_s": ("s", "self", ["caratheodory.decompose_identity"]),
    "caratheodory.leaves": ("count", "count", ["caratheodory.leaves"]),
    "caratheodory.leaf_excess": ("ratio", "leaf_excess", []),
    "caratheodory.split_s": ("s", "self", ["caratheodory.split_rank_one"]),
    "caratheodory.prune_self_s": ("s", "self", ["caratheodory.prune_povm", "caratheodory.prune_symmetric_povm"]),
    "trines.two_orbit_s": ("s", "self", ["trines.optimize_two_orbits"]),
    "trines.single_orbit_s": ("s", "self", ["trines.optimize_single_orbit"]),
    "trines.scan_s": ("s", "self", ["trines.scan_surface"]),
    "trines.hessian_s": ("s", "self", ["trines.hessian_at"]),
    "cli.load_s": ("s", "self", ["cli.load_problem"]),
    "cli.self_s": ("s", "self", [ROOT_SPAN]),
    "cli.output_bytes": ("bytes", "count", ["cli.output_bytes"]),
}


class Tracer:
    """Spans and counters of one benchmark run, grouped by round."""

    def __init__(self):
        self.rounds: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def begin_round(self) -> None:
        self.rounds.append({"spans": [], "counts": Counter(), "decompositions": [], "requests": []})

    @property
    def _round(self) -> dict:
        return self.rounds[-1]

    def count(self, name: str, amount: int = 1) -> None:
        self._round["counts"][name] += amount

    def _open(self, name: str) -> int:
        spans = self._round["spans"]
        parent = self._stack[-1] if self._stack else -1
        span_id = len(spans)
        spans.append([len(self._round["requests"]) - 1, parent, name, time.perf_counter(), None])
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int) -> None:
        self._round["spans"][span_id][4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def request(self, argv: list[str]):
        """Root span of one CLI operation; spans inside it share its request id."""
        self._round["requests"].append(list(argv))
        span_id = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(span_id)

    def _wrap(self, name: str, fn):
        after = {
            "symmetry.generate_group": lambda r, a: self.count("symmetry.group_elements", r.order),
            "infotheory.joint_distribution": lambda r, a: self.count("infotheory.joint_entries", r.size),
            "caratheodory.decompose_identity": self._record_decomposition,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id)
            if after is not None:
                after(result, args)
            return result

        return traced

    def _record_decomposition(self, result, args) -> None:
        support = int(np.count_nonzero(np.asarray(args[0].weights) > SUPPORT_TOL))
        self._round["decompositions"].append((support, result.design.matrix, len(result)))
        self.count("caratheodory.leaves", len(result))

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items() if n == "povm_forge" or n.startswith("povm_forge.")}
        replacements = {}
        for layer in LAYERS + ("cli",):
            module = modules[f"povm_forge.{layer}"]
            for attr, value in vars(module).items():
                qualified = f"{layer}.{attr}"
                if not inspect.isfunction(value) or value.__module__ != module.__name__ or attr.startswith("_"):
                    continue
                if layer == "cli" and attr not in CLI_SPANS or qualified in UNWRAPPED:
                    continue
                wrap = self._counted if qualified in COUNTED else self._wrap
                replacements[id(value)] = wrap(qualified, value)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and inspect.isfunction(value):
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)])
        povm = modules["povm_forge.quantum"].Povm
        self._patches.append((povm, "__init__", povm.__init__))
        povm.__init__ = self._counted("quantum.Povm", povm.__init__)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def round_metrics(self, index: int, scale: float) -> dict[str, float]:
        """Per-layer metrics of one round; times are multiplied by ``scale``."""
        data = self.rounds[index]
        covered: dict[int, float] = defaultdict(float)
        for request, parent, name, start, end in data["spans"]:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_time: dict[str, float] = defaultdict(float)
        for span_id, (request, parent, name, start, end) in enumerate(data["spans"]):
            calls[name] += 1
            self_time[name] += end - start - covered[span_id]
        needed = sum(s - int(np.linalg.matrix_rank(m)) + 1 for s, m, _ in data["decompositions"])
        leaves = sum(n for _, _, n in data["decompositions"])
        out = {}
        for metric, (_, kind, names) in PER_LAYER.items():
            if kind == "calls":
                out[metric] = float(sum(calls[n] for n in names))
            elif kind == "self":
                out[metric] = scale * sum(self_time[n] for n in names)
            elif kind == "count":
                out[metric] = float(sum(data["counts"][n] for n in names))
            else:
                out[metric] = leaves / needed if needed else 0.0
        return out

    def write(self, path: str, run_id: str) -> int:
        """Write every span as one JSON line; returns the number of spans."""
        total = 0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for index, data in enumerate(self.rounds):
                for request, argv in enumerate(data["requests"]):
                    handle.write(json.dumps({"run": run_id, "round": index, "request": request, "argv": argv}) + "\n")
                for span_id, (request, parent, name, start, end) in enumerate(data["spans"]):
                    handle.write(json.dumps([run_id, index, request, span_id, parent, name, start, end]) + "\n")
                    total += 1
        return total
