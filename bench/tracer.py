"""Span recorder for the benchmark's traced runs (standard library only).

The recorder wraps fracctrl's public functions from outside the package: it
replaces each target in every fracctrl module namespace that binds it, so a
call through ``optimize.solve_state`` is traced exactly like one through
``control.solve_state``.  ``Layers.uninstall`` puts every original attribute
back.  Nothing under ``src/`` changes.

A span is (name, start, end, parent).  Spans are kept in memory in flat
arrays and written out once, when the run ends.  A span's self time is its
duration minus the part of it that its direct children cover.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import os
import time
from array import array
from collections import defaultdict

# (span name, module that defines the target, attribute).  Each target is
# wrapped in every fracctrl namespace that binds the same object.
FUNCTIONS = [
    ("fracop.assemble_operator", "fracop", "assemble_operator"),
    ("fracop.quadrature_oracle", "fracop", "quadrature_oracle"),
    ("fracop.v_seminorm", "fracop", "v_seminorm"),
    ("fracop.vstar_norm", "fracop", "vstar_norm"),
    ("pdesolve.solve_state", "pdesolve", "solve_state"),
    ("pdesolve.solve_adjoint", "pdesolve", "solve_adjoint"),
    ("pdesolve.solve_linearized", "pdesolve", "solve_linearized"),
    ("pdesolve.solve_sourced", "pdesolve", "solve_sourced"),
    ("pdesolve.solve_shifted", "pdesolve", "solve_shifted"),
    ("control.gradient", "control", "gradient"),
    ("control.hessian_bilinear", "control", "hessian_bilinear"),
    ("control.check_coercivity", "control", "check_coercivity"),
    ("control.kkt_residual", "control", "kkt_residual"),
    ("optimize.projected_gradient", "optimize", "projected_gradient"),
    ("optimize.fixed_point", "optimize", "fixed_point"),
    ("optimize.multistart_uniqueness", "optimize", "multistart_uniqueness"),
    ("verify.operator", "verify", "run_operator_suite"),
    ("verify.maximum-principle", "verify", "run_maximum_principle_suite"),
    ("verify.estimates", "verify", "run_estimate_suite"),
    ("verify.derivatives", "verify", "run_derivative_suite"),
    ("verify.lipschitz", "verify", "run_lipschitz_suite"),
    ("verify.optimality", "verify", "run_optimality_suite"),
    ("cli.export_trajectory_csv", "pdesolve", "export_trajectory_csv"),
]
# Step-matrix factorizations: only pdesolve's binding of scipy's cho_factor,
# so the operator's own (cached) factorization in fracop is not counted.
FACTOR = ("pdesolve.cho_factor", "pdesolve", "cho_factor")
# StepSolver methods, patched on the class.
METHODS = [
    ("pdesolve.StepSolver.build", "__init__"),
    ("pdesolve.StepSolver.solve", "solve"),
]
MODULES = ["fracop", "problem", "pdesolve", "control", "optimize", "verify", "cli"]


class Tracer:
    """In-memory span store: one entry per call, in the order calls open."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.controls: set = set()

    def __len__(self) -> int:
        return len(self.name_id)

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """A stand-in for fn that records one span per call; after(args,
        kwargs, result) runs once the span is closed, for counters."""
        nid = self.name_index(name)

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def spans(self):
        """(name, start, end, parent) tuples in opening order."""
        names = self.names
        return [(names[n], s, e, p) for n, s, e, p in
                zip(self.name_id, self.start, self.end, self.parent)]

    def write(self, stem) -> None:
        """stem.spans holds the arrays name_id (int32), parent (int32), start,
        end (float64), in that order, each of length count, native byte
        order; stem.spans.json holds count, the name table and the counters."""
        with open(f"{stem}.spans", "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        header = {"count": len(self), "names": self.names,
                  "layout": ["name_id:int32", "parent:int32", "start:float64", "end:float64"],
                  "counts": dict(self.counts), "distinct_controls": len(self.controls)}
        with open(f"{stem}.spans.json", "w") as fh:
            json.dump(header, fh, indent=1)


def summarize(spans):
    """Per name: calls, total (inclusive) seconds and self seconds.

    spans is a sequence of (name, start, end, parent), parent being the index
    of the enclosing span or -1.  Children's intervals are merged, so
    overlapping children are not counted twice, and clipped to the parent.
    """
    covered = [0.0] * len(spans)
    reach = [-float("inf")] * len(spans)
    for i in sorted(range(len(spans)), key=lambda k: spans[k][1]):
        _, c_start, c_end, p = spans[i]
        if p < 0:
            continue
        _, p_start, p_end, _ = spans[p]
        lo = max(c_start, p_start, reach[p])
        hi = min(c_end, p_end)
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    out: dict[str, dict] = {}
    for (name, s, e, _), cov in zip(spans, covered):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += e - s
        row["self_s"] += (e - s) - cov
    return out


def control_key(spec, v, shift) -> bytes:
    """Identity of one set of step matrices: problem data, shift, control."""
    g = spec.grid
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((g.a, g.b, g.n, g.nt, g.T, spec.s, float(shift))).encode())
    h.update(g.omega_mask.tobytes())
    h.update(v.values.tobytes())
    return h.digest()


class Layers:
    """Installs tracing wrappers on fracctrl's layers and removes them."""

    def __init__(self, package, tracer: Tracer):
        self.tracer = tracer
        self.modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        self.namespaces = [package] + list(self.modules.values())
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, obj, attr: str, new) -> None:
        self._saved.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, new)

    def install(self) -> None:
        t = self.tracer
        pdesolve = self.modules["pdesolve"]
        after = {
            "optimize.projected_gradient": self._count_iterations,
            "cli.export_trajectory_csv": self._count_bytes,
        }
        for name, module, attr in FUNCTIONS:
            original = getattr(self.modules[module], attr)
            wrapper = t.wrap(name, original, after.get(name))
            for ns in self.namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapper)
        name, module, attr = FACTOR
        self._patch(pdesolve, attr, t.wrap(name, getattr(pdesolve, attr), self._count_flops))
        cls = pdesolve.StepSolver
        for name, attr in METHODS:
            original = cls.__dict__[attr]
            hook = self._record_control(original) if attr == "__init__" else None
            self._patch(cls, attr, t.wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _count_iterations(self, args, kwargs, result) -> None:
        # accepted projected-gradient steps; fixed_point makes no Armijo trials
        self.tracer.counts["optimize.iterations"] += result.iterations

    def _count_bytes(self, args, kwargs, result) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.tracer.counts["cli.bytes_written"] += os.path.getsize(path)

    def _count_flops(self, args, kwargs, result) -> None:
        n = args[0].shape[0]
        self.tracer.counts["pdesolve.factor_flop"] += n**3 / 3.0

    def _record_control(self, init):
        signature = inspect.signature(init)

        def hook(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            self.tracer.controls.add(control_key(a["spec"], a["v"], a["shift"]))

        return hook


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, dict]:
    """Every per-layer metric of one traced job as {name: {"value", "unit"}};
    layers that did no work report zero."""
    spans = tracer.spans()
    rows = summarize(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name):
        return rows.get(name, empty)

    build, factor, solve = (row("pdesolve.StepSolver.build"), row("pdesolve.cho_factor"),
                            row("pdesolve.StepSolver.solve"))
    gflop = tracer.counts["pdesolve.factor_flop"] / 1e9
    iterations = int(tracer.counts["optimize.iterations"])
    candidates = sum(1 for name, _, _, p in spans
                     if name == "pdesolve.solve_state" and p >= 0
                     and spans[p][0].startswith("optimize."))
    out = [
        ("pdesolve.StepSolver.builds", build["calls"], "count"),
        ("pdesolve.StepSolver.build_s", build["total_s"], "s"),
        ("pdesolve.factorizations", factor["calls"], "count"),
        ("pdesolve.builds_per_control", _ratio(build["calls"], len(tracer.controls)), "ratio"),
        ("pdesolve.factor_gflop", gflop, "GFlop"),
        ("pdesolve.factor_gflop_rate", _ratio(gflop, factor["total_s"]), "GFlop/s"),
        ("pdesolve.step_solves", solve["calls"], "count"),
        ("pdesolve.step_solve_s", solve["total_s"], "s"),
        ("pdesolve.solves_per_factorization", _ratio(solve["calls"], factor["calls"]), "ratio"),
    ]
    for name, _, _ in FUNCTIONS:
        r = row(name)
        if name.startswith("verify."):
            out += [(f"{name}.self_s", r["self_s"], "s"), (f"{name}.total_s", r["total_s"], "s")]
        else:
            out += [(f"{name}.calls", r["calls"], "count"), (f"{name}.self_s", r["self_s"], "s")]
    out += [
        ("optimize.iterations", iterations, "count"),
        ("optimize.candidate_solves", candidates, "count"),
        ("optimize.step_acceptance", _ratio(iterations, candidates), "ratio"),
        ("cli.bytes_written", int(tracer.counts["cli.bytes_written"]), "B"),
        ("trace.spans", len(tracer), "count"),
        ("trace.overhead_s", overhead_s, "s"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in out}
