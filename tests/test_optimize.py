"""Projected gradient, fixed-point iteration, and the multistart probe."""

import numpy as np
import pytest

from fracctrl.control import kkt_residual, uniqueness_condition
from fracctrl.fracop import Grid
from fracctrl.optimize import (
    OptimOptions,
    fixed_point,
    multistart_uniqueness,
    projected_gradient,
)
from fracctrl.pdesolve import ControlField, constant_control
from fracctrl.problem import ProblemSpec, bump_profile

from test_pdesolve import make_spec, random_control


def small_benchmark(n=31, nt=40):
    """Half-scale copy of the reference instance; same data profiles."""
    grid = Grid.from_window(a=-1.0, b=1.0, n=n, window=(-0.5, 0.5), T=0.5, nt=nt)
    return ProblemSpec(grid=grid, s=0.5, alpha=1.0, vmin=-1.0, vmax=1.0,
                       rho0=bump_profile(grid, 0.1), rho_target=bump_profile(grid, 0.05))


class TestOptions:
    def test_defaults_and_step_scaling(self):
        opts = OptimOptions()
        spec = make_spec(alpha=4.0)
        assert opts.step0(spec) == 0.25
        assert OptimOptions(sigma0=2.0).step0(spec) == 2.0

    @pytest.mark.parametrize("bad", [
        dict(armijo_c1=0.0), dict(armijo_c1=1.0), dict(backtrack=1.0),
        dict(sigma0=-1.0), dict(fp_damping=0.0), dict(fp_damping=1.5),
        dict(kkt_tol=0.0), dict(max_iters=-1), dict(seed=-1),
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
            assert spec.control_norm(res.u.values) <= 1e-8
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
        assert kkt_residual(spec, res.u).residual <= 1e-9
        assert np.all((res.u.values >= spec.vmin) & (res.u.values <= spec.vmax))
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
        assert np.array_equal(a.u.values, b.u.values)
        assert a.j_history == b.j_history
        assert a.kkt_history == b.kkt_history

    def test_inadmissible_start_projected_first(self):
        spec = small_benchmark()
        start = ControlField(5.0 * np.ones((spec.grid.nt, spec.grid.n_omega)), spec.grid)
        res = projected_gradient(spec, start, OptimOptions())
        assert np.all((res.u.values >= spec.vmin) & (res.u.values <= spec.vmax))
        assert res.status == "converged"


class TestFixedPoint:
    def test_convex_case_single_step(self):
        rng = np.random.default_rng(41)
        spec = make_spec(target=rng.standard_normal(18))
        start = random_control(spec, rng)
        res = fixed_point(spec, start, OptimOptions(fp_damping=1.0))
        assert res.status == "converged"
        assert res.iterations == 1
        assert np.array_equal(res.u.values, np.zeros_like(res.u.values))

    def test_zero_residual_at_fixed_point(self):
        spec = small_benchmark()
        res = fixed_point(spec, constant_control(spec.grid, 0.2, spec.vmin, spec.vmax),
                          OptimOptions(fp_damping=1.0, kkt_tol=1e-10))
        assert res.status == "converged"
        assert res.kkt_final <= 1e-10

    def test_agrees_with_projected_gradient(self):
        spec = small_benchmark()
        assert uniqueness_condition(spec).holds
        opts = OptimOptions(kkt_tol=1e-9)
        pg = projected_gradient(spec, constant_control(spec.grid, 0.5, spec.vmin, spec.vmax),
                                opts)
        fp = fixed_point(spec, constant_control(spec.grid, -0.5, spec.vmin, spec.vmax),
                         OptimOptions(kkt_tol=1e-10, fp_damping=1.0))
        assert pg.status == fp.status == "converged"
        dist = spec.control_norm(pg.u.values - fp.u.values)
        assert dist <= 1e-6


class TestMultistart:
    def test_convex_case_all_reach_zero(self):
        rng = np.random.default_rng(42)
        spec = make_spec(target=rng.standard_normal(18))
        report = multistart_uniqueness(spec, 5, OptimOptions(kkt_tol=1e-10, seed=3))
        assert all(r.status == "converged" for r in report.results)
        assert report.max_pairwise <= 1e-8

    def test_small_data_assertion_mode(self):
        spec = small_benchmark()
        report = multistart_uniqueness(spec, 4, OptimOptions(kkt_tol=1e-9, seed=4))
        assert uniqueness_condition(spec).holds
        assert all(r.status == "converged" for r in report.results)
        assert report.max_pairwise <= report.tolerance

    def test_large_data_observational(self):
        rng = np.random.default_rng(43)
        spec = make_spec(T=2.0, nt=120, rho0=np.full(18, 1.0), target=np.full(18, 1.0))
        report = multistart_uniqueness(spec, 2, OptimOptions(max_iters=5, seed=5))
        assert not uniqueness_condition(spec).holds
        assert len(report.results) == 2

    def test_deterministic_under_seed(self):
        spec = small_benchmark()
        a = multistart_uniqueness(spec, 3, OptimOptions(seed=9))
        b = multistart_uniqueness(spec, 3, OptimOptions(seed=9))
        assert a.max_pairwise == b.max_pairwise
        for ra, rb in zip(a.results, b.results):
            assert np.array_equal(ra.u.values, rb.u.values)


def test_variational_inequality_at_tight_residual():
    # kkt residual below 1e-10 makes the sampled first-order inequality hold
    # with at most 1e-10 slack
    from fracctrl.verify import sampled_vi_min

    spec = small_benchmark()
    res = fixed_point(spec, constant_control(spec.grid, 0.1, spec.vmin, spec.vmax),
                      OptimOptions(kkt_tol=1e-10, fp_damping=1.0))
    assert res.status == "converged"
    report = kkt_residual(spec, res.u, rho=res.rho, q=res.q)
    assert report.residual <= 1e-10
    slack = sampled_vi_min(spec, res.u, report.g, 100, np.random.default_rng(60))
    assert slack >= -1e-10


def test_mesh_stability_of_converged_control():
    # discretize-then-optimize sanity: the optimizer's control moves by a few
    # percent at most when both grids are refined together
    coarse = small_benchmark(n=63, nt=100)
    fine = small_benchmark(n=127, nt=200)
    opts = OptimOptions(kkt_tol=1e-9)
    u_c = projected_gradient(coarse, constant_control(coarse.grid, 0.0, -1, 1), opts).u
    u_f = projected_gradient(fine, constant_control(fine.grid, 0.0, -1, 1), opts).u

    xc = coarse.grid.nodes[coarse.grid.omega_mask]
    xf = fine.grid.nodes[fine.grid.omega_mask]
    interp = np.empty_like(u_f.values)
    for k in range(fine.grid.nt):
        kc = min(k // 2, coarse.grid.nt - 1)  # two fine levels per coarse level
        interp[k] = np.interp(xf, xc, u_c.values[kc])
    rel = (fine.control_norm(u_f.values - interp)
           / max(fine.control_norm(u_f.values), 1e-30))
    assert rel <= 0.05
