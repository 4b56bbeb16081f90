"""Cost, adjoint gradient, Hessian, projection/KKT machinery, conditions."""

import math

import numpy as np
import pytest

from fracctrl.control import (
    active_set,
    check_coercivity,
    cost,
    cost_from_state,
    critical_cone_project,
    gradient,
    hessian_bilinear,
    kkt_residual,
    project,
    ssc_smallness,
    uniqueness_condition,
)
from fracctrl.fracop import Grid, InvalidOrderError
from fracctrl.pdesolve import ControlField, constant_control, solve_linearized
from fracctrl.problem import ProblemSpec, benchmark_problem

from test_pdesolve import make_spec, principal_mode, random_control, random_direction


class TestProblemSpec:
    def test_rejects_bad_parameters(self):
        grid = Grid.from_window(-1, 1, 8, (-1, 1), 1.0, 4)
        ok = dict(grid=grid, s=0.5, alpha=1.0, vmin=-1.0, vmax=1.0,
                  rho0=np.zeros(8), rho_target=np.zeros(8))
        ProblemSpec(**ok)
        for bad in (dict(alpha=0.0), dict(alpha=np.inf), dict(alpha=np.nan),
                    dict(vmin=1.0, vmax=1.0), dict(vmin=-np.inf), dict(vmax=np.inf),
                    dict(rho0=np.zeros(7)), dict(rho0=np.full(8, np.nan))):
            with pytest.raises(ValueError):
                ProblemSpec(**{**ok, **bad})
        for s in (0.0, 1.0, 1.5, np.nan):
            with pytest.raises(InvalidOrderError):
                ProblemSpec(**{**ok, "s": s})

    def test_theta_and_sup_defaults(self):
        spec = make_spec(rho0=np.full(18, -0.25), target=np.full(18, 0.5))
        assert spec.theta == 1.0
        assert spec.rho0_sup == 0.25
        assert spec.target_sup == 0.5

    def test_benchmark_instance(self):
        spec = benchmark_problem()
        assert spec.grid.n == 127
        assert spec.grid.nt == 200
        assert spec.rho0_sup == pytest.approx(0.1)
        assert spec.target_sup == pytest.approx(0.05)
        assert spec.grid.dt * spec.theta <= 0.5


class TestCost:
    def test_zero_initial_state_decouples(self):
        rng = np.random.default_rng(20)
        target = rng.standard_normal(18)
        spec = make_spec(target=target)
        v = random_control(spec, rng)
        expected = (0.5 * spec.grid.dx * np.dot(target, target)
                    + 0.5 * spec.alpha * spec.control_norm(v.values) ** 2)
        assert cost(spec, v) == pytest.approx(expected, rel=1e-14)

    def test_all_zero_data(self):
        spec = make_spec()
        assert cost(spec, constant_control(spec.grid, 0.0)) == 0.0

    def test_eigen_instance_closed_form(self):
        spec0 = make_spec(window=(-1.0, 1.0))
        lam, phi = principal_mode(spec0)
        spec = make_spec(window=(-1.0, 1.0), rho0=phi)
        c = 0.3
        v = constant_control(spec.grid, c, spec.vmin, spec.vmax)
        grid = spec.grid
        track = 0.5 * grid.dx * np.dot(phi, phi) * (
            1.0 + grid.dt * (lam - c)) ** (-2 * grid.nt)
        reg = 0.5 * spec.alpha * grid.dx * grid.dt * c**2 * grid.nt * grid.n_omega
        assert cost(spec, v) == pytest.approx(track + reg, rel=1e-12)


class TestGradient:
    def test_zero_state_gradient_is_regularizer(self):
        rng = np.random.default_rng(21)
        spec = make_spec(target=rng.standard_normal(18))
        v = random_control(spec, rng)
        g, rho, _ = gradient(spec, v)
        assert np.array_equal(rho.values, np.zeros_like(rho.values))
        assert np.array_equal(g, spec.alpha * v.values)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        spec = make_spec(rho0=rng.standard_normal(18), target=rng.standard_normal(18))
        v = random_control(spec, rng, scale=0.7)
        w = random_direction(spec, rng)
        g, _, _ = gradient(spec, v)
        directional = spec.control_dot(g, w.values)
        eps = 1e-5
        fd = (cost(spec, v.like(v.values + eps * w.values))
              - cost(spec, v.like(v.values - eps * w.values))) / (2 * eps)
        assert abs(directional - fd) <= 1e-6 * abs(directional)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_duality_identity_exact(self, seed):
        # terminal pairing with the sensitivity equals the window pairing with
        # the multiplier; both sides computed through independent solvers
        rng = np.random.default_rng(200 + seed)
        spec = make_spec(rho0=rng.standard_normal(18), target=rng.standard_normal(18))
        v = random_control(spec, rng, scale=0.8)
        w = random_direction(spec, rng)
        _, rho, q = gradient(spec, v)
        y = solve_linearized(spec, v, w, rho)
        lhs = spec.grid.dx * np.dot(rho.final - spec.rho_target, y.final)
        rhs = spec.control_dot(w.values * rho.restrict_omega(), q.restrict_omega())
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_error_v_shape_in_epsilon(self):
        # truncation falls, round-off rises: the FD error curve dips below 1e-7
        rng = np.random.default_rng(22)
        spec = make_spec(rho0=rng.standard_normal(18), target=rng.standard_normal(18))
        v = random_control(spec, rng, scale=0.7)
        w = random_direction(spec, rng)
        g, _, _ = gradient(spec, v)
        directional = spec.control_dot(g, w.values)
        errs = []
        for eps in (1e-2, 1e-5, 1e-9):
            fd = (cost(spec, v.like(v.values + eps * w.values))
                  - cost(spec, v.like(v.values - eps * w.values))) / (2 * eps)
            errs.append(abs(fd - directional) / abs(directional))
        assert errs[1] < 1e-7
        assert errs[1] < errs[0]
        assert errs[1] < errs[2]


class TestHessian:
    def test_zero_direction(self):
        rng = np.random.default_rng(23)
        spec = make_spec(rho0=rng.standard_normal(18))
        u = random_control(spec, rng)
        w = random_direction(spec, rng)
        z = ControlField(np.zeros_like(w.values), spec.grid)
        assert hessian_bilinear(spec, kkt_residual(spec, u), z, w) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(24)
        spec = make_spec(rho0=rng.standard_normal(18), target=rng.standard_normal(18))
        u = random_control(spec, rng, scale=0.7)
        w = random_direction(spec, rng)
        d = random_direction(spec, rng)
        e = kkt_residual(spec, u)
        a = hessian_bilinear(spec, e, w, d)
        b = hessian_bilinear(spec, e, d, w)
        assert abs(a - b) <= 1e-13 * abs(a)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_matches_second_differences(self, seed):
        rng = np.random.default_rng(300 + seed)
        spec = make_spec(rho0=rng.standard_normal(18), target=rng.standard_normal(18))
        u = random_control(spec, rng, scale=0.7)
        w = random_direction(spec, rng)
        value = hessian_bilinear(spec, kkt_residual(spec, u), w, w)
        eps = 1e-3
        j0 = cost(spec, u)
        jp = cost(spec, u.like(u.values + eps * w.values))
        jm = cost(spec, u.like(u.values - eps * w.values))
        fd = (jp - 2 * j0 + jm) / eps**2
        assert abs(value - fd) <= 1e-4 * abs(value)

    def test_consistent_with_gradient_differences(self):
        rng = np.random.default_rng(25)
        spec = make_spec(rho0=rng.standard_normal(18), target=rng.standard_normal(18))
        u = random_control(spec, rng, scale=0.7)
        w = random_direction(spec, rng)
        value = hessian_bilinear(spec, kkt_residual(spec, u), w, w)
        errs = []
        for eps in (1e-3, 1e-4):
            g_p, _, _ = gradient(spec, u.like(u.values + eps * w.values))
            g_0, _, _ = gradient(spec, u)
            fd = (spec.control_dot(g_p, w.values) - spec.control_dot(g_0, w.values)) / eps
            errs.append(abs(fd - value) / abs(value))
        assert errs[1] < errs[0]
        assert errs[1] <= 1e-3


class TestProjection:
    def test_clipping_examples(self):
        spec = make_spec()
        shape = (spec.grid.nt, spec.grid.n_omega)
        assert np.all(project(spec, np.zeros(shape)).values == 0.0)
        assert np.all(project(spec, np.full(shape, 2.7)).values == 1.0)
        assert np.all(project(spec, np.full(shape, -3.0)).values == -1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(26)
        spec = make_spec()
        shape = (spec.grid.nt, spec.grid.n_omega)
        for _ in range(1000):
            raw = 3.0 * rng.standard_normal(shape)
            once = project(spec, raw)
            twice = project(spec, once)
            assert np.array_equal(once.values, twice.values)

    def test_nonexpansive(self):
        rng = np.random.default_rng(27)
        spec = make_spec()
        shape = (spec.grid.nt, spec.grid.n_omega)
        for _ in range(50):
            a = 2.0 * rng.standard_normal(shape)
            b = 2.0 * rng.standard_normal(shape)
            pa, pb = project(spec, a), project(spec, b)
            assert (spec.control_norm(pa.values - pb.values)
                    <= spec.control_norm(a - b) * (1 + 1e-12))


class TestKKT:
    def test_zero_problem_is_stationary(self):
        spec = make_spec()
        report = kkt_residual(spec, constant_control(spec.grid, 0.0, spec.vmin, spec.vmax))
        assert report.residual == 0.0
        assert np.all(report.g == 0.0)

    def test_fixed_point_has_zero_residual(self):
        rng = np.random.default_rng(28)
        spec = make_spec(rho0=0.1 * np.abs(rng.standard_normal(18)),
                         target=0.05 * rng.standard_normal(18))
        v = random_control(spec, rng)
        e = kkt_residual(spec, v)
        # e.image is the projection built from (rho(v), q(v)); evaluating the
        # residual against those same trajectories must give exactly zero
        report = kkt_residual(spec, e.image, rho=e.rho, q=e.q)
        assert report.residual <= 1e-12


class TestActiveSetAndCone:
    def test_huge_threshold_gives_empty_set(self):
        rng = np.random.default_rng(30)
        spec = make_spec(rho0=rng.standard_normal(18))
        u = random_control(spec, rng)
        g, _, _ = gradient(spec, u)
        assert not active_set(g, np.inf).any()

    def test_zero_gradient_strict_inequality(self):
        spec = make_spec()
        u = constant_control(spec.grid, 0.0, spec.vmin, spec.vmax)
        g, _, _ = gradient(spec, u)
        assert not active_set(g, 0.0).any()

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            active_set(np.zeros((4, 3)), -1.0)

    def test_interior_control_identity_map(self):
        rng = np.random.default_rng(31)
        spec = make_spec()
        u = constant_control(spec.grid, 0.2, spec.vmin, spec.vmax)  # strictly interior
        v = rng.standard_normal(u.values.shape)
        g, _, _ = gradient(spec, u)
        out = critical_cone_project(spec, u, np.inf, v, g)
        assert np.array_equal(out, v)

    def test_lower_bound_sign_condition(self):
        spec = make_spec()
        u = constant_control(spec.grid, spec.vmin, spec.vmin, spec.vmax)
        g, _, _ = gradient(spec, u)
        v = -np.ones(u.values.shape)
        out = critical_cone_project(spec, u, np.inf, v, g)
        assert np.array_equal(out, np.zeros_like(v))
        v2 = np.ones(u.values.shape)
        assert np.array_equal(critical_cone_project(spec, u, np.inf, v2, g), v2)

    def test_member_returned_unchanged(self):
        rng = np.random.default_rng(32)
        spec = make_spec()
        u = constant_control(spec.grid, spec.vmax, spec.vmin, spec.vmax)
        v = -np.abs(rng.standard_normal(u.values.shape))  # already in the cone
        g, _, _ = gradient(spec, u)
        out = critical_cone_project(spec, u, np.inf, v, g)
        assert np.array_equal(out, v)


def test_active_set_confined_to_clipped_region():
    # tight box cutting through the unconstrained optimum: about a third of
    # the window clips at the lower bound; the strongly active set is
    # nonempty and lies inside the clipped region
    from fracctrl.optimize import OptimOptions, projected_gradient
    from fracctrl.problem import bump_profile
    from fracctrl.fracop import Grid

    grid = Grid.from_window(a=-1.0, b=1.0, n=31, window=(-0.5, 0.5), T=0.5, nt=40)
    spec = ProblemSpec(grid=grid, s=0.5, alpha=0.01, vmin=-0.022, vmax=0.01,
                       rho0=bump_profile(grid, 0.1), rho_target=bump_profile(grid, 0.05))
    res = projected_gradient(spec, constant_control(grid, 0.0, spec.vmin, spec.vmax),
                             OptimOptions(kkt_tol=1e-9, max_iters=500))
    assert res.status == "converged"
    u = res.u
    box_tol = 1e-9 * (spec.vmax - spec.vmin)
    clipped = ((u.values - spec.vmin <= box_tol)
               | (spec.vmax - u.values <= box_tol))
    assert clipped.any() and not clipped.all()
    rep = kkt_residual(spec, u, rho=res.rho, q=res.q)
    tau = 1e-6 * (spec.alpha * spec.theta + res.rho.linf() * res.q.linf())
    mask = active_set(rep.g, tau)
    assert mask.any() and not mask.all()
    assert np.all(~mask | clipped)


class TestConditions:
    def test_uniqueness_zero_data(self):
        spec = make_spec()
        rep = uniqueness_condition(spec)
        assert rep.lhs == 0.0
        assert rep.holds

    def test_uniqueness_scalar_values(self):
        # independent calculator: theta=1, T=0.5, sups 0.1 -> 3 e^1.5 * 0.02
        spec = make_spec(rho0=np.full(18, 0.1), target=np.full(18, 0.1))
        rep = uniqueness_condition(spec)
        assert rep.lhs == pytest.approx(3 * math.exp(1.5) * 0.02, rel=1e-12)
        assert rep.lhs == pytest.approx(0.26890, abs=5e-6)
        assert rep.holds
        assert rep.margin == pytest.approx(1 - 0.26890, abs=5e-6)

    def test_uniqueness_large_data_fails(self):
        spec = make_spec(T=2.0, nt=120, rho0=np.full(18, 1.0), target=np.full(18, 1.0))
        rep = uniqueness_condition(spec)
        assert rep.lhs == pytest.approx(6 * math.exp(6.0), rel=1e-12)
        assert rep.lhs == pytest.approx(2420.57, abs=5e-3)
        assert not rep.holds

    def test_ssc_zero_data(self):
        spec = make_spec()
        rep = ssc_smallness(spec, 0.0)
        assert rep.lhs == 0.0
        assert rep.holds

    def test_ssc_scalar_values(self):
        spec = make_spec(rho0=np.full(18, 0.05), target=np.full(18, 0.05))
        rep = ssc_smallness(spec, 0.0)
        assert rep.lhs == pytest.approx(6 * math.e * 0.1 * 0.05, rel=1e-12)
        assert rep.lhs == pytest.approx(0.081548, abs=5e-7)
        assert rep.holds
        rep10 = ssc_smallness(spec, 10.0)
        assert rep10.lhs == pytest.approx(16 * math.e * 0.1 * 0.05, rel=1e-12)
        assert rep10.lhs == pytest.approx(0.21746, abs=5e-6)
        assert rep10.holds

    def test_ssc_rejects_negative_constant(self):
        with pytest.raises(ValueError):
            ssc_smallness(make_spec(), -1.0)

    def test_ssc_rejects_nan_constant(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ssc_smallness(make_spec(), math.nan)


class TestCoercivity:
    def test_convex_case_quotients_equal_alpha(self):
        # zero initial state: the quadratic form reduces to the regularizer
        rng = np.random.default_rng(33)
        spec = make_spec(target=rng.standard_normal(18), alpha=0.8)
        u = constant_control(spec.grid, 0.0, spec.vmin, spec.vmax)
        rep = check_coercivity(spec, kkt_residual(spec, u), tau=0.0, n_samples=16, seed=1)
        assert rep.n_used == 16
        assert rep.min_quotient == pytest.approx(spec.alpha, rel=1e-12)

    def test_degenerate_cone_reported_inconclusive(self):
        # positive data make g = rho*q > 0 everywhere, far above the activity
        # floor, so every window point is strongly active; the cone collapses
        # to {0} and the check must report no quotient (NaN) rather than fail
        rng = np.random.default_rng(34)
        spec = make_spec(rho0=0.1 * np.abs(rng.standard_normal(18)) + 0.01)
        u = constant_control(spec.grid, 0.0, spec.vmin, spec.vmax)
        rep = check_coercivity(spec, kkt_residual(spec, u), tau=0.0, n_samples=4, seed=2)
        assert rep.n_used == 0 and math.isnan(rep.min_quotient)
