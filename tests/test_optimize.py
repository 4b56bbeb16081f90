"""Projected gradient, fixed-point iteration, and the multistart probe."""

import itertools
import math
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from fracctrl import optimize
from fracctrl.control import kkt_residual, uniqueness_condition
from fracctrl.fracop import Grid
from fracctrl.optimize import (
    OptimOptions,
    _armijo_step,
    fixed_point,
    multistart_uniqueness,
    projected_gradient,
)
from fracctrl.pdesolve import ControlField, StepSolver, constant_control
from fracctrl.problem import ProblemSpec, bump_profile

from test_pdesolve import make_spec, random_control


def max_pairwise(spec, runs):
    """Largest L2(omega_T) distance between the final controls of runs."""
    finals = [r.final.u.values for r in runs]
    return np.max([spec.control_norm(a - b) for a, b in itertools.combinations(finals, 2)],
                  initial=0.0)


def uniqueness_tolerance(spec):
    """The local-uniqueness tolerance 1e-6 (vmax - vmin) |omega_T|^(1/2)."""
    return 1e-6 * (spec.vmax - spec.vmin) * math.sqrt(spec.grid.omega_measure * spec.grid.T)


def small_benchmark(n=31, nt=40):
    """Half-scale copy of the reference instance; same data profiles."""
    grid = Grid.from_window(a=-1.0, b=1.0, n=n, window=(-0.5, 0.5), T=0.5, nt=nt)
    return ProblemSpec(grid=grid, s=0.5, alpha=1.0, vmin=-1.0, vmax=1.0,
                       rho0=bump_profile(grid, 0.1), rho_target=bump_profile(grid, 0.05))


def backtracking_instance():
    """Larger data and alpha = 0.1: most iterations reject a trial first."""
    grid = Grid.from_window(a=-1.0, b=1.0, n=15, window=(-0.5, 0.5), T=0.5, nt=20)
    spec = ProblemSpec(grid=grid, s=0.5, alpha=0.1, vmin=-1.0, vmax=1.0,
                       rho0=bump_profile(grid, 1.0), rho_target=bump_profile(grid, 0.8))
    return spec, random_control(spec, np.random.default_rng(0))


@pytest.fixture
def solvers(monkeypatch):
    """For every StepSolver build, the number of solvers still alive when it
    began; and the state solves optimize makes through its own binding."""
    live, at_build, trials = weakref.WeakSet(), [], []
    init, solve_state = StepSolver.__init__, optimize.solve_state

    def counted(self, *args, **kwargs):
        at_build.append(len(live))
        init(self, *args, **kwargs)
        live.add(self)

    monkeypatch.setattr(StepSolver, "__init__", counted)
    monkeypatch.setattr(optimize, "solve_state",
                        lambda *args, **kwargs: trials.append(1) or solve_state(*args, **kwargs))
    return at_build, trials


class TestOptions:
    def test_defaults_and_step_scaling(self, trial_points):
        # two settings; the first trial step sigma0 is no setting but
        # 1/alpha, the natural quadratic scaling, and the one driver that
        # draws random numbers, multistart, takes its seed as an argument
        assert [f.name for f in fields(OptimOptions)] == ["max_iters", "kkt_tol"]
        assert OptimOptions() == OptimOptions(max_iters=200, kkt_tol=1e-8)
        spec = make_spec(alpha=4.0)
        e = kkt_residual(spec, random_control(spec, np.random.default_rng(1)))
        _armijo_step(spec, e)
        assert np.array_equal(trial_points[0], e.u.values - 0.25 * e.g)

    @pytest.mark.parametrize("bad", [
        dict(kkt_tol=0.0), dict(kkt_tol=-0.0), dict(kkt_tol=-1e-8),
        dict(kkt_tol=float("nan")), dict(kkt_tol=-float("inf")),
        dict(max_iters=-1), dict(max_iters=-200),
    ])
    def test_invalid_options_rejected(self, bad):
        with pytest.raises(ValueError):
            OptimOptions(**bad)


class TestProjectedGradient:
    def test_convex_case_reaches_zero_control(self):
        rng = np.random.default_rng(40)
        spec = make_spec(target=rng.standard_normal(18))
        opts = OptimOptions(kkt_tol=1e-10, max_iters=50)
        for seed in range(3):
            start = random_control(spec, np.random.default_rng(seed))
            res = projected_gradient(spec, start, opts)
            assert res.status == "converged"
            assert res.iterations <= 50
            assert spec.control_norm(res.final.u.values) <= 1e-8
            j_star = 0.5 * spec.grid.dx * np.dot(spec.rho_target, spec.rho_target)
            assert res.j_final == pytest.approx(j_star, abs=1e-12)

    def test_already_stationary_start_returns_immediately(self):
        spec = make_spec()
        start = constant_control(spec.grid, 0.0, spec.vmin, spec.vmax)
        res = projected_gradient(spec, start, OptimOptions())
        assert res.status == "converged"
        assert res.iterations == 0
        assert len(res.j_history) == 1

    def test_small_data_instance_converges(self):
        spec = small_benchmark()
        res = projected_gradient(spec, constant_control(spec.grid, 0.3, spec.vmin, spec.vmax),
                                 OptimOptions(kkt_tol=1e-9))
        assert res.status == "converged"
        assert kkt_residual(spec, res.final.u).residual <= 1e-9
        assert np.all((res.final.u.values >= spec.vmin) & (res.final.u.values <= spec.vmax))
        # Armijo guarantees monotone cost
        diffs = np.diff(res.j_history)
        assert np.all(diffs <= 1e-14 * max(abs(j) for j in res.j_history))

    def test_budget_exhaustion_flagged(self):
        spec = small_benchmark()
        start = constant_control(spec.grid, 0.9, spec.vmin, spec.vmax)
        res = projected_gradient(spec, start, OptimOptions(max_iters=1, kkt_tol=1e-12))
        assert res.status == "max_iters"
        assert res.iterations == 1

    def test_deterministic(self):
        spec = small_benchmark()
        start = constant_control(spec.grid, -0.4, spec.vmin, spec.vmax)
        a = projected_gradient(spec, start, OptimOptions())
        b = projected_gradient(spec, start, OptimOptions())
        assert np.array_equal(a.final.u.values, b.final.u.values)
        assert a.j_history == b.j_history
        assert a.kkt_history == b.kkt_history

    def test_inadmissible_start_projected_first(self):
        spec = small_benchmark()
        start = ControlField(5.0 * np.ones((spec.grid.nt, spec.grid.n_omega)), spec.grid,
                             spec.vmin, spec.vmax)
        res = projected_gradient(spec, start, OptimOptions())
        assert np.all((res.final.u.values >= spec.vmin) & (res.final.u.values <= spec.vmax))
        assert res.status == "converged"


class TestTrialFactors:
    """An accepted Armijo trial's state factors serve its adjoint."""

    def test_builds_are_the_start_plus_one_per_trial(self, solvers):
        at_build, trials = solvers
        spec, start = backtracking_instance()
        res = projected_gradient(spec, start, OptimOptions(max_iters=10, kkt_tol=1e-12))
        assert len(trials) > res.iterations == 10  # some trials were rejected
        # one build for the start's state and adjoint, then one per trial
        assert len(at_build) == 1 + len(trials)

    def test_no_solver_is_built_while_another_lives(self, solvers):
        at_build, trials = solvers
        spec, start = backtracking_instance()
        projected_gradient(spec, start, OptimOptions(max_iters=10, kkt_tol=1e-12))
        assert at_build and max(at_build) == 0

    def test_frozen_trial_builds_nothing(self, solvers):
        at_build, trials = solvers
        spec, start = backtracking_instance()
        e = kkt_residual(spec, start)
        at_build.clear()
        # a gradient far below the float resolution of u: the first trial
        # step 1/alpha leaves every entry of u unchanged
        assert _armijo_step(spec, replace(e, g=1e-300 * e.g)) is None
        assert at_build == [] and trials == []


@pytest.fixture
def trial_points(monkeypatch):
    """The argument of every project call optimize makes through its own
    binding: the projected start, then each Armijo trial's v - sigma*g."""
    points, project = [], optimize.project

    def recorded(spec, raw):
        points.append(np.array(raw, dtype=float))
        return project(spec, raw)

    monkeypatch.setattr(optimize, "project", recorded)
    return points


class TestSpectralStep:
    """Every update after the first tries min(sigma0, <s,s>/<s,y>) first,
    where sigma0 = 1/alpha is the first update's trial step."""

    def test_backtracking_instance_converges_from_every_start(self):
        # with 1/alpha as every update's first trial, starts 0 and 1 stall at
        # KKT 1.8e-8 and 1.4e-8: the rejected trials' cost decrease falls
        # below J's round-off
        spec, _ = backtracking_instance()
        opts = OptimOptions(kkt_tol=1e-8)
        for seed in range(6):
            res = projected_gradient(spec, random_control(spec, np.random.default_rng(seed)),
                                     opts)
            assert res.status == "converged", seed
            assert np.all(np.diff(res.j_history) <= 0.0), seed

    def test_first_update_starts_at_sigma0(self, trial_points):
        spec, start = backtracking_instance()
        opts = OptimOptions(max_iters=1, kkt_tol=1e-12)
        res = projected_gradient(spec, start, opts)
        assert res.iterations == 1
        e0 = kkt_residual(spec, optimize.project(spec, start.values))
        assert np.array_equal(trial_points[1], e0.u.values - (1.0 / spec.alpha) * e0.g)

    def test_later_update_starts_at_the_spectral_step(self, trial_points):
        spec, start = backtracking_instance()
        e0 = kkt_residual(spec, start)
        e1 = _armijo_step(spec, e0)
        s, y = e1.u.values - e0.u.values, e1.g - e0.g
        sigma = spec.control_dot(s, s) / spec.control_dot(s, y)
        assert 0.0 < sigma < 1.0 / spec.alpha  # the spectral step, not the cap
        trial_points.clear()
        _armijo_step(spec, e1, prev=(e0.u.values, e0.g))
        assert np.array_equal(trial_points[0], e1.u.values - sigma * e1.g)

    @pytest.mark.parametrize("curvature", [-1.0, 0.0, 1e-6])
    def test_sigma0_without_curvature_and_as_cap(self, trial_points, curvature):
        # y = curvature*s: <s,y> <= 0 falls back to sigma0, and the spectral
        # step 1/curvature = 1e6 is capped at sigma0 = 1/alpha = 10
        spec, start = backtracking_instance()
        e = kkt_residual(spec, start)
        s = np.random.default_rng(7).standard_normal(e.g.shape)
        _armijo_step(spec, e, prev=(e.u.values - s, e.g - curvature * s))
        assert np.array_equal(trial_points[0], e.u.values - (1.0 / spec.alpha) * e.g)


class TestFixedPoint:
    def test_convex_case_single_step(self):
        rng = np.random.default_rng(41)
        spec = make_spec(target=rng.standard_normal(18))
        start = random_control(spec, rng)
        res = fixed_point(spec, start, OptimOptions())
        assert res.status == "converged"
        assert res.iterations == 1
        assert np.array_equal(res.final.u.values, np.zeros_like(res.final.u.values))

    def test_zero_residual_at_fixed_point(self):
        spec = small_benchmark()
        res = fixed_point(spec, constant_control(spec.grid, 0.2, spec.vmin, spec.vmax),
                          OptimOptions(kkt_tol=1e-10))
        assert res.status == "converged"
        assert res.kkt_final <= 1e-10

    def test_agrees_with_projected_gradient(self):
        spec = small_benchmark()
        assert uniqueness_condition(spec).holds
        opts = OptimOptions(kkt_tol=1e-9)
        pg = projected_gradient(spec, constant_control(spec.grid, 0.5, spec.vmin, spec.vmax),
                                opts)
        fp = fixed_point(spec, constant_control(spec.grid, -0.5, spec.vmin, spec.vmax),
                         OptimOptions(kkt_tol=1e-10))
        assert pg.status == fp.status == "converged"
        dist = spec.control_norm(pg.final.u.values - fp.final.u.values)
        assert dist <= 1e-6


class TestMultistart:
    def test_convex_case_all_reach_zero(self):
        rng = np.random.default_rng(42)
        spec = make_spec(target=rng.standard_normal(18))
        runs = multistart_uniqueness(spec, 5, OptimOptions(kkt_tol=1e-10), seed=3)
        assert all(r.status == "converged" for r in runs)
        assert max_pairwise(spec, runs) <= 1e-8

    def test_small_data_assertion_mode(self):
        spec = small_benchmark()
        runs = multistart_uniqueness(spec, 4, OptimOptions(kkt_tol=1e-9), seed=4)
        assert uniqueness_condition(spec).holds
        assert all(r.status == "converged" for r in runs)
        assert max_pairwise(spec, runs) <= uniqueness_tolerance(spec)

    def test_large_data_observational(self):
        rng = np.random.default_rng(43)
        spec = make_spec(T=2.0, nt=120, rho0=np.full(18, 1.0), target=np.full(18, 1.0))
        runs = multistart_uniqueness(spec, 2, OptimOptions(max_iters=5), seed=5)
        assert not uniqueness_condition(spec).holds
        assert len(runs) == 2

    def test_deterministic_under_seed(self):
        spec = small_benchmark()
        a = multistart_uniqueness(spec, 3, OptimOptions(), seed=9)
        b = multistart_uniqueness(spec, 3, OptimOptions(), seed=9)
        assert max_pairwise(spec, a) == max_pairwise(spec, b)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.final.u.values, rb.final.u.values)

    def test_another_seed_draws_other_starts(self):
        # with no update allowed each result is its start, so the seed
        # argument is what draws them
        spec = small_benchmark()
        a, b = (multistart_uniqueness(spec, 2, OptimOptions(max_iters=0), seed)
                for seed in (9, 10))
        for ra, rb in zip(a, b):
            assert not np.array_equal(ra.final.u.values, rb.final.u.values)


def test_variational_inequality_at_tight_residual():
    # kkt residual below 1e-10 makes the sampled first-order inequality hold
    # with at most 1e-10 slack
    from fracctrl.verify import sampled_vi_min

    spec = small_benchmark()
    res = fixed_point(spec, constant_control(spec.grid, 0.1, spec.vmin, spec.vmax),
                      OptimOptions(kkt_tol=1e-10))
    assert res.status == "converged"
    report = kkt_residual(spec, res.final.u, rho=res.final.rho)
    assert report.residual <= 1e-10
    slack = sampled_vi_min(report, 100, np.random.default_rng(60))
    assert slack >= -1e-10


def test_mesh_stability_of_converged_control():
    # discretize-then-optimize sanity: the optimizer's control moves by a few
    # percent at most when both grids are refined together
    coarse = small_benchmark(n=63, nt=100)
    fine = small_benchmark(n=127, nt=200)
    opts = OptimOptions(kkt_tol=1e-9)
    u_c = projected_gradient(coarse, constant_control(coarse.grid, 0.0, -1, 1), opts).final.u
    u_f = projected_gradient(fine, constant_control(fine.grid, 0.0, -1, 1), opts).final.u

    xc = coarse.grid.nodes[coarse.grid.omega_mask]
    xf = fine.grid.nodes[fine.grid.omega_mask]
    interp = np.empty_like(u_f.values)
    for k in range(fine.grid.nt):
        kc = min(k // 2, coarse.grid.nt - 1)  # two fine levels per coarse level
        interp[k] = np.interp(xf, xc, u_c.values[kc])
    rel = (fine.control_norm(u_f.values - interp)
           / max(fine.control_norm(u_f.values), 1e-30))
    assert rel <= 0.05
