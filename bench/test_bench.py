"""Tests of the benchmark's tracer: exact counts only, never wall-clock values.

Run with ``python -m pytest bench`` from the repository root.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fracctrl  # noqa: E402
import fracctrl.cli  # noqa: E402,F401  (not imported by the package itself)
from fracctrl.fracop import Grid  # noqa: E402
from fracctrl.optimize import OptimOptions  # noqa: E402
from fracctrl.pdesolve import ControlField, StepSolver, constant_control  # noqa: E402
from fracctrl.problem import ProblemSpec, bump_profile  # noqa: E402
from tracer import MODULES, Layers, Tracer, layer_metrics, summarize  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny():
    grid = Grid.from_window(a=-1.0, b=1.0, n=9, window=(-0.5, 0.5), T=0.5, nt=4)
    return ProblemSpec(grid=grid, s=0.5, alpha=0.1, vmin=-1.0, vmax=1.0,
                       rho0=bump_profile(grid, 1.0), rho_target=bump_profile(grid, 0.8))


def _varying(spec, seed=0):
    rng = np.random.default_rng(seed)
    shape = (spec.grid.nt, spec.grid.n_omega)
    return ControlField(rng.uniform(spec.vmin, spec.vmax, shape), spec.grid,
                        vmin=spec.vmin, vmax=spec.vmax)


def _traced(call):
    tracer = Tracer()
    with Layers(fracctrl, tracer):
        call()
    return {name: m["value"] for name, m in layer_metrics(tracer, 0.0).items()}


def test_state_solve_time_varying_counts(tiny):
    m = _traced(lambda: fracctrl.solve_state(tiny, _varying(tiny)))
    assert m["pdesolve.StepSolver.builds"] == 1
    assert m["pdesolve.factorizations"] == 4
    assert m["pdesolve.step_solves"] == 4
    assert m["pdesolve.solve_state.calls"] == 1
    assert m["pdesolve.factor_gflop"] == pytest.approx(4 * 9**3 / 3 / 1e9)


def test_time_constant_control_factorizes_once(tiny):
    v = constant_control(tiny.grid, 0.3, tiny.vmin, tiny.vmax)
    m = _traced(lambda: fracctrl.solve_state(tiny, v))
    assert m["pdesolve.factorizations"] == 1
    assert m["pdesolve.step_solves"] == 4
    assert m["pdesolve.solves_per_factorization"] == 4.0


def test_gradient_builds_each_control_twice(tiny):
    m = _traced(lambda: fracctrl.gradient(tiny, _varying(tiny)))
    assert m["pdesolve.StepSolver.builds"] == 2
    assert m["pdesolve.builds_per_control"] == 2.0
    assert m["control.gradient.calls"] == 1
    assert m["pdesolve.solve_adjoint.calls"] == 1


def test_candidate_solves_are_the_optimizer_own_state_solves(tiny):
    result = []
    m = _traced(lambda: result.append(
        fracctrl.projected_gradient(tiny, _varying(tiny), OptimOptions(max_iters=5))))
    # one solve_state comes from the initial gradient (through control), every
    # other one is an Armijo trial made through optimize's own binding
    assert m["pdesolve.solve_state.calls"] == m["optimize.candidate_solves"] + 1
    assert m["optimize.iterations"] == result[0].iterations
    assert m["optimize.candidate_solves"] >= result[0].iterations > 0


def test_self_time_subtracts_merged_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 5.0, 0),    # overlaps a: the union 1..5 counts once
        ("c", 9.0, 12.0, 0),   # clipped to the parent's end
        ("leaf", 2.5, 4.0, 2),
        ("other", 20.0, 21.0, -1),
    ]
    rows = summarize(spans)
    assert rows["root"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert rows["b"]["self_s"] == pytest.approx(1.5)
    assert rows["a"]["self_s"] == 2.0
    assert rows["leaf"]["self_s"] == 1.5
    assert rows["other"]["self_s"] == 1.0


def test_tracer_records_parents_and_span_count():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert tracer.spans() == [("outer", 0.0, 3.0, -1), ("inner", 1.0, 2.0, 0)]
    assert summarize(tracer.spans())["outer"]["self_s"] == 2.0


def _bindings():
    spaces = [fracctrl] + [getattr(fracctrl, m) for m in MODULES] + [StepSolver]
    return {(id(ns), key): value for ns in spaces for key, value in vars(ns).items()}


def test_every_wrapped_attribute_is_restored(tiny):
    before = _bindings()
    tracer = Tracer()
    layers = Layers(fracctrl, tracer)
    layers.install()
    try:
        installed = _bindings()
        changed = {k for k in before if installed[k] is not before[k]}
        # solve_state is rebound in every module that imports it by name
        for module in ("pdesolve", "control", "optimize", "verify", "cli"):
            ns = getattr(fracctrl, module)
            assert (id(ns), "solve_state") in changed
        fracctrl.gradient(tiny, _varying(tiny))
    finally:
        layers.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert len(tracer) > 0


def test_traced_run_reports_exactly_the_declared_layer_metrics(tiny):
    tracer = Tracer()
    with Layers(fracctrl, tracer):
        fracctrl.gradient(tiny, _varying(tiny))
    reported = {name: m["unit"] for name, m in layer_metrics(tracer, 0.0).items()}
    assert reported == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
