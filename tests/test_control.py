"""Cost, adjoint gradient, Hessian, projection/KKT machinery, conditions."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fracctrl import control
from fracctrl.control import (
    active_set,
    check_coercivity,
    cost,
    critical_cone_project,
    gradient,
    hessian_action,
    hessian_bilinear,
    kkt_residual,
    project,
    ssc_smallness,
    uniqueness_condition,
)
from fracctrl.fracop import Grid, InvalidOrderError
from fracctrl.pdesolve import StepSolver, constant_control, solve_linearized
from fracctrl.problem import ProblemConfig, ProblemSpec, benchmark_problem, bump_profile

from test_pdesolve import (
    make_spec,
    principal_mode,
    random_control,
    random_direction,
    step_control,
)


@pytest.fixture
def builds(monkeypatch):
    """Counts StepSolver builds made while the test runs."""
    made = []
    init = StepSolver.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StepSolver, "__init__", counted)
    return made


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

    def test_with_data_and_replace_keep_the_ssc_constant(self):
        spec = ProblemConfig(n=15, nt=10, c_user=2.5).build()
        assert spec.c_user == 2.5
        assert spec.with_data(spec.rho_target, spec.rho0).c_user == 2.5
        assert replace(spec, alpha=2.0).c_user == 2.5

    def test_theta_and_sup_defaults(self):
        spec = make_spec(rho0=np.full(18, -0.25), target=np.full(18, 0.5))
        assert spec.theta == 1.0
        assert spec.rho0_sup == 0.25
        assert spec.target_sup == 0.5

    def test_sups_are_neither_passed_nor_replaced(self):
        # the sups are derived from the data, so no argument can set one
        spec = benchmark_problem(n=15, nt=10)
        with pytest.raises(TypeError, match="rho0_sup"):
            ProblemSpec(grid=spec.grid, s=spec.s, alpha=spec.alpha, vmin=spec.vmin,
                        vmax=spec.vmax, rho0=spec.rho0, rho_target=spec.rho_target,
                        rho0_sup=1.0)
        for sup in ("rho0_sup", "target_sup"):
            with pytest.raises(ValueError, match=sup):
                replace(spec, **{sup: 1.0})

    def test_replace_assembles_the_operator_of_its_order(self):
        spec = benchmark_problem(n=15, nt=10)
        assert spec.operator.s == 0.5
        assert replace(spec, s=0.3).operator.s == 0.3
        assert spec.operator.s == 0.5

    def test_replace_recomputes_the_sups(self):
        # replace with larger data gets the sups of that data, so the
        # smallness conditions cannot read those of the old data
        spec = benchmark_problem(n=15, nt=10)
        larger = replace(spec, rho0=bump_profile(spec.grid, 5.0), rho_target=3 * spec.rho_target)
        assert larger.rho0_sup == 5.0
        assert larger.target_sup == 3 * spec.target_sup
        uniq = uniqueness_condition(larger)
        assert uniq.lhs == pytest.approx(3 * np.exp(3 * spec.theta * spec.grid.T)
                                         * (5.0**2 + (3 * spec.target_sup) ** 2), rel=1e-14)
        assert uniqueness_condition(spec).holds
        assert not uniq.holds

    def test_with_data_shares_the_operator_and_recomputes_the_sups(self):
        spec = benchmark_problem(n=15, nt=10)
        varied = spec.with_data(bump_profile(spec.grid, 5.0), np.zeros(spec.grid.n))
        assert varied.grid is spec.grid
        assert varied.operator is spec.operator
        assert (varied.s, varied.alpha, varied.vmin, varied.vmax) == \
               (spec.s, spec.alpha, spec.vmin, spec.vmax)
        assert varied.rho0_sup == 5.0
        assert varied.target_sup == 0.0
        assert uniqueness_condition(spec).holds
        assert not uniqueness_condition(varied).holds

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
        assert cost(spec, constant_control(spec.grid, 0.0, spec.vmin, spec.vmax)) == 0.0

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
        directional = spec.control_dot(g, w)
        eps = 1e-5
        fd = (cost(spec, v.like(v.values + eps * w))
              - cost(spec, v.like(v.values - eps * w))) / (2 * eps)
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
        y = solve_linearized(spec, v, w[None], rho)
        lhs = spec.grid.dx * np.dot(rho.final - spec.rho_target, y.final[:, 0])
        rhs = spec.control_dot(w * rho.restrict_omega(), q.restrict_omega())
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_error_v_shape_in_epsilon(self):
        # truncation falls, round-off rises: the FD error curve dips below 1e-7
        rng = np.random.default_rng(22)
        spec = make_spec(rho0=rng.standard_normal(18), target=rng.standard_normal(18))
        v = random_control(spec, rng, scale=0.7)
        w = random_direction(spec, rng)
        g, _, _ = gradient(spec, v)
        directional = spec.control_dot(g, w)
        errs = []
        for eps in (1e-2, 1e-5, 1e-9):
            fd = (cost(spec, v.like(v.values + eps * w))
                  - cost(spec, v.like(v.values - eps * w))) / (2 * eps)
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
        z = np.zeros_like(w)
        assert hessian_bilinear(kkt_residual(spec, u), z, w) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(24)
        spec = make_spec(rho0=rng.standard_normal(18), target=rng.standard_normal(18))
        u = random_control(spec, rng, scale=0.7)
        w = random_direction(spec, rng)
        d = random_direction(spec, rng)
        e = kkt_residual(spec, u)
        a = hessian_bilinear(e, w, d)
        b = hessian_bilinear(e, d, w)
        assert abs(a - b) <= 1e-13 * abs(a)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_matches_second_differences(self, seed):
        rng = np.random.default_rng(300 + seed)
        spec = make_spec(rho0=rng.standard_normal(18), target=rng.standard_normal(18))
        u = random_control(spec, rng, scale=0.7)
        w = random_direction(spec, rng)
        value = hessian_bilinear(kkt_residual(spec, u), w, w)
        eps = 1e-3
        j0 = cost(spec, u)
        jp = cost(spec, u.like(u.values + eps * w))
        jm = cost(spec, u.like(u.values - eps * w))
        fd = (jp - 2 * j0 + jm) / eps**2
        assert abs(value - fd) <= 1e-4 * abs(value)

    def test_consistent_with_gradient_differences(self):
        rng = np.random.default_rng(25)
        spec = make_spec(rho0=rng.standard_normal(18), target=rng.standard_normal(18))
        u = random_control(spec, rng, scale=0.7)
        w = random_direction(spec, rng)
        value = hessian_bilinear(kkt_residual(spec, u), w, w)
        errs = []
        for eps in (1e-3, 1e-4):
            g_p, _, _ = gradient(spec, u.like(u.values + eps * w))
            g_0, _, _ = gradient(spec, u)
            fd = (spec.control_dot(g_p, w) - spec.control_dot(g_0, w)) / eps
            errs.append(abs(fd - value) / abs(value))
        assert errs[1] < errs[0]
        assert errs[1] <= 1e-3


def cross_term_hessian(e, w, d):
    """The Hessian's former closed form, kept as the reference for the action:
    <(d y_w + w y_d), q> + dx <y_w(T), y_d(T)> + alpha <d, w>, symmetric in
    (w, d) by construction."""
    spec = e.spec
    y_w = solve_linearized(spec, e.u, w[None], e.rho)
    y_d = solve_linearized(spec, e.u, d[None], e.rho)
    cross = spec.control_dot(d * y_w.restrict_omega()[..., 0] + w * y_d.restrict_omega()[..., 0],
                             e.q.restrict_omega())
    terminal = spec.grid.dx * float(np.dot(y_w.final[:, 0], y_d.final[:, 0]))
    return cross + terminal + spec.alpha * spec.control_dot(d, w)


class TestHessianAction:
    """H w = alpha*w + y*q + rho*p, with p the second-order adjoint."""

    @staticmethod
    def _evaluation(seed):
        rng = np.random.default_rng(seed)
        spec = make_spec(n=9, nt=20, rho0=rng.standard_normal(9), target=rng.standard_normal(9))
        return kkt_residual(spec, random_control(spec, rng, scale=0.7)), rng

    def test_assembled_matrix_is_symmetric_and_matches_the_cross_term(self):
        e, rng = self._evaluation(31)
        grid = e.spec.grid
        shape = (grid.nt, grid.n_omega)
        dim = grid.nt * grid.n_omega
        assert dim == 100
        # one block action on every unit direction: row i is H e_i
        H = hessian_action(e, np.eye(dim).reshape((dim,) + shape)).reshape(dim, dim).T
        assert np.max(np.abs(H - H.T)) <= 1e-15 * np.linalg.norm(H, 2)
        for _ in range(4):
            w = random_direction(e.spec, rng)
            d = random_direction(e.spec, rng)
            for a, b in ((w, d), (d, w), (w, w)):
                ref = cross_term_hessian(e, a, b)
                paired = e.spec.control_dot((H @ a.ravel()).reshape(shape), b)
                assert abs(paired - ref) <= 1e-13 * abs(ref)
                assert abs(hessian_bilinear(e, a, b) - ref) <= 1e-13 * abs(ref)

    def test_two_marches_on_the_evaluation_factors(self, builds, step_solves):
        e, rng = self._evaluation(32)
        e.steps  # built before counting, as after the evaluation's first action
        builds.clear()
        # a single direction and a block of six each take one march pair
        for k in (1, 6):
            step_solves.clear()
            hessian_action(e, np.stack([random_direction(e.spec, rng) for _ in range(k)]))
            assert len(step_solves) == 2 * e.spec.grid.nt
        assert len(builds) == 0

    @pytest.mark.parametrize("kind", ["varying", "blocks"])
    def test_block_action_equals_the_single_actions(self, kind):
        rng = np.random.default_rng(33)
        spec = make_spec(rho0=rng.standard_normal(18), target=rng.standard_normal(18))
        e = kkt_residual(spec, step_control(kind, spec, rng))
        directions = np.stack([random_direction(spec, rng) for _ in range(7)])
        block = hessian_action(e, directions)
        assert block.shape == directions.shape and block.flags.c_contiguous
        for w, hw in zip(directions, block):
            assert np.array_equal(hw, hessian_action(e, w[None])[0])
            # the pairing sums a contiguous (nt, n_omega) array either way
            assert spec.control_dot(hw, w) == hessian_bilinear(e, w, w)


@pytest.mark.parametrize("shape", [(2, 1, 7), (2, 10, 1), (10, 7), (7,), (1, 2, 10, 7),
                                   "control"])
def test_misshaped_direction_stacks_are_refused(shape, step_solves):
    # each shape broadcasts against the (nt, n_omega) = (10, 7) window; a
    # ControlField is a control, never a direction
    rng = np.random.default_rng(41)
    spec = make_spec(n=11, nt=10, rho0=rng.standard_normal(11), target=rng.standard_normal(11))
    assert (spec.grid.nt, spec.grid.n_omega) == (10, 7)
    e = kkt_residual(spec, random_control(spec, rng, scale=0.5))
    step_solves.clear()
    if shape == "control":
        for call in (lambda: solve_linearized(spec, e.u, e.u, e.rho),
                     lambda: hessian_action(e, e.u),
                     lambda: hessian_bilinear(e, e.u, e.u.values)):
            with pytest.raises(TypeError):
                call()
    else:
        w = rng.standard_normal(shape)
        with pytest.raises(ValueError, match="direction stack shape"):
            solve_linearized(spec, e.u, w, e.rho)
        with pytest.raises(ValueError, match="direction stack shape"):
            hessian_action(e, w)
    assert step_solves == []


class TestStepReuse:
    """An Evaluation builds its step factors once, when a Hessian first asks
    for them; evaluating a control does not build them."""

    def test_evaluation_builds_no_extra_factors(self, builds):
        rng = np.random.default_rng(26)
        spec = make_spec(rho0=rng.standard_normal(18), target=rng.standard_normal(18))
        u = random_control(spec, rng, scale=0.7)
        e = kkt_residual(spec, u)
        assert len(builds) == 2
        gradient(spec, u)
        assert len(builds) == 4
        assert "steps" not in vars(e)

    def test_coercivity_builds_once_per_evaluation(self, builds):
        rng = np.random.default_rng(27)
        spec = make_spec(rho0=rng.standard_normal(18), target=rng.standard_normal(18))
        e = kkt_residual(spec, random_control(spec, rng, scale=0.7))
        builds.clear()
        # no point is strongly active above tau, so every sample is used
        quotients = check_coercivity(e, tau=1e6, n_samples=8, seed=1)
        assert quotients.size == 8
        assert len(builds) == 1
        check_coercivity(e, tau=1e6, n_samples=8, seed=2)
        assert len(builds) == 1

    def test_coercivity_is_one_block_march_pair(self, builds, step_solves):
        rng = np.random.default_rng(30)
        spec = make_spec(rho0=rng.standard_normal(18), target=rng.standard_normal(18))
        e = kkt_residual(spec, random_control(spec, rng, scale=0.7))
        e.steps  # built before counting, as after the evaluation's first action
        builds.clear()
        step_solves.clear()
        quotients = check_coercivity(e, tau=1e6, n_samples=8, seed=1)
        assert quotients.size == 8
        assert len(builds) == 0
        assert len(step_solves) == 2 * spec.grid.nt

    @pytest.mark.parametrize("kind", ["varying", "blocks"])
    def test_shared_factors_give_the_fresh_values(self, kind, builds, monkeypatch):
        rng = np.random.default_rng(28)
        spec = make_spec(rho0=rng.standard_normal(18), target=rng.standard_normal(18))
        u = step_control(kind, spec, rng)
        w, d = random_direction(spec, rng), random_direction(spec, rng)
        pairs = ((w, d), (d, w), (w, w))
        shared = [hessian_bilinear(kkt_residual(spec, u), *pair) for pair in pairs]
        # the reference builds fresh factors every time an action reads e.steps
        monkeypatch.setattr(control.Evaluation, "steps",
                            property(lambda e: StepSolver(e.spec, e.u)))
        builds.clear()
        fresh = [hessian_bilinear(kkt_residual(spec, u), *pair) for pair in pairs]
        # per pair: the evaluation's state and adjoint, then one per march
        assert len(builds) == 4 * len(pairs)
        assert shared == fresh

    @pytest.mark.parametrize("kind", ["varying", "blocks"])
    def test_kkt_residual_on_shared_steps_equals_fresh(self, kind, builds):
        rng = np.random.default_rng(29)
        spec = make_spec(rho0=rng.standard_normal(18), target=rng.standard_normal(18))
        u = step_control(kind, spec, rng)
        steps = StepSolver(spec, u)
        shared = kkt_residual(spec, u, steps=steps)
        assert len(builds) == 1
        fresh = kkt_residual(spec, u)
        assert len(builds) == 3
        for name in ("rho", "q", "image", "u"):
            assert np.array_equal(getattr(shared, name).values, getattr(fresh, name).values)
        assert np.array_equal(shared.g, fresh.g)
        assert (shared.j, shared.residual) == (fresh.j, fresh.residual)
        # the factors are not kept: a Hessian builds its own on first use
        assert "steps" not in vars(shared)


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
            twice = project(spec, once.values)
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
        # from rho0 = 0 the state vanishes, so every control's image
        # clip(-rho*q/alpha) is 0: the image of a random control is a fixed
        # point, although its adjoint, driven by the target, is not zero
        rng = np.random.default_rng(28)
        spec = make_spec(target=0.05 * rng.standard_normal(18))
        e = kkt_residual(spec, kkt_residual(spec, random_control(spec, rng)).image)
        assert e.q.linf() > 0
        assert e.residual <= 1e-12


class TestActiveSetAndCone:
    def test_huge_threshold_gives_empty_set(self):
        rng = np.random.default_rng(30)
        spec = make_spec(rho0=rng.standard_normal(18))
        u = random_control(spec, rng)
        assert not active_set(kkt_residual(spec, u), np.inf).any()

    def test_zero_gradient_strict_inequality(self):
        spec = make_spec()
        u = constant_control(spec.grid, 0.0, spec.vmin, spec.vmax)
        assert not active_set(kkt_residual(spec, u), 0.0).any()

    def test_negative_threshold_rejected(self):
        spec = make_spec()
        e = kkt_residual(spec, constant_control(spec.grid, 0.0, spec.vmin, spec.vmax))
        with pytest.raises(ValueError):
            active_set(e, -1.0)

    def test_interior_control_identity_map(self):
        rng = np.random.default_rng(31)
        spec = make_spec()
        u = constant_control(spec.grid, 0.2, spec.vmin, spec.vmax)  # strictly interior
        v = rng.standard_normal(u.values.shape)
        out = critical_cone_project(kkt_residual(spec, u), np.inf, v)
        assert np.array_equal(out, v)

    def test_lower_bound_sign_condition(self):
        spec = make_spec()
        u = constant_control(spec.grid, spec.vmin, spec.vmin, spec.vmax)
        e = kkt_residual(spec, u)
        v = -np.ones(u.values.shape)
        out = critical_cone_project(e, np.inf, v)
        assert np.array_equal(out, np.zeros_like(v))
        v2 = np.ones(u.values.shape)
        assert np.array_equal(critical_cone_project(e, np.inf, v2), v2)

    def test_member_returned_unchanged(self):
        rng = np.random.default_rng(32)
        spec = make_spec()
        u = constant_control(spec.grid, spec.vmax, spec.vmin, spec.vmax)
        v = -np.abs(rng.standard_normal(u.values.shape))  # already in the cone
        out = critical_cone_project(kkt_residual(spec, u), np.inf, v)
        assert np.array_equal(out, v)


def test_active_set_confined_to_clipped_region():
    # tight box cutting through the unconstrained optimum: about a third of
    # the window clips at the lower bound; the strongly active set at tau = 0
    # is nonempty and lies inside the clipped region
    from fracctrl.optimize import OptimOptions, projected_gradient
    from fracctrl.problem import bump_profile
    from fracctrl.fracop import Grid

    grid = Grid.from_window(a=-1.0, b=1.0, n=31, window=(-0.5, 0.5), T=0.5, nt=40)
    spec = ProblemSpec(grid=grid, s=0.5, alpha=0.01, vmin=-0.022, vmax=0.01,
                       rho0=bump_profile(grid, 0.1), rho_target=bump_profile(grid, 0.05))
    res = projected_gradient(spec, constant_control(grid, 0.0, spec.vmin, spec.vmax),
                             OptimOptions(kkt_tol=1e-9, max_iters=500))
    assert res.status == "converged"
    u = res.final.u
    box_tol = 1e-9 * (spec.vmax - spec.vmin)
    clipped = ((u.values - spec.vmin <= box_tol)
               | (spec.vmax - u.values <= box_tol))
    assert clipped.any() and not clipped.all()
    rep = kkt_residual(spec, u, rho=res.final.rho)
    mask = active_set(rep, 0.0)
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
        rep = ssc_smallness(spec)
        assert rep.lhs == 0.0
        assert rep.holds

    def test_ssc_scalar_values(self):
        spec = make_spec(rho0=np.full(18, 0.05), target=np.full(18, 0.05))
        rep = ssc_smallness(spec)
        assert rep.lhs == pytest.approx(6 * math.e * 0.1 * 0.05, rel=1e-12)
        assert rep.lhs == pytest.approx(0.081548, abs=5e-7)
        assert rep.holds
        rep10 = ssc_smallness(replace(spec, c_user=10.0))
        assert rep10.lhs == pytest.approx(16 * math.e * 0.1 * 0.05, rel=1e-12)
        assert rep10.lhs == pytest.approx(0.21746, abs=5e-6)
        assert rep10.holds

    # data whose squares pass the float range, and a box whose exponentials
    # do at the admissible dt*theta = 1/3: both left-hand sides read inf
    @pytest.mark.parametrize("config", [ProblemConfig(n=15, nt=20, rho0="bump(1e200)"),
                                        ProblemConfig(n=7, nt=1500, m=-1000.0, M=1000.0)],
                             ids=["huge-data", "large-box"])
    def test_out_of_range_conditions_read_inf_and_fail(self, config):
        spec = config.build()
        for rep in (uniqueness_condition(spec), ssc_smallness(spec)):
            assert rep.lhs == math.inf and rep.margin == -math.inf
            assert not rep.holds

    def test_zero_data_hold_however_large_the_exponential(self):
        spec = ProblemConfig(n=7, nt=1500, m=-1000.0, M=1000.0, rho0="zero", rhod="zero").build()
        for rep in (uniqueness_condition(spec), ssc_smallness(spec)):
            assert rep.lhs == 0.0
            assert rep.holds

    def test_ssc_rejects_negative_constant(self):
        # the constant is the problem's, so the problem refuses it
        with pytest.raises(ValueError):
            replace(make_spec(), c_user=-1.0)

    def test_ssc_rejects_nan_constant(self):
        with pytest.raises(ValueError, match="nonnegative"):
            replace(make_spec(), c_user=math.nan)


class TestCoercivity:
    def test_convex_case_quotients_equal_alpha(self):
        # zero initial state: the quadratic form reduces to the regularizer
        rng = np.random.default_rng(33)
        spec = make_spec(target=rng.standard_normal(18), alpha=0.8)
        u = constant_control(spec.grid, 0.0, spec.vmin, spec.vmax)
        quotients = check_coercivity(kkt_residual(spec, u), tau=0.0, n_samples=16, seed=1)
        assert quotients.size == 16
        assert quotients.min() == pytest.approx(spec.alpha, rel=1e-12)
        assert quotients == pytest.approx(np.full(16, spec.alpha), rel=1e-12)

    def test_stacked_sample_is_the_sequential_loop(self):
        # one draw, projection and Hessian pairing per direction give the
        # quotients of the stacked sample bit for bit; the control sits at
        # either bound on a third of the window, so the cone has strongly
        # active, sign-constrained and free points
        rng = np.random.default_rng(35)
        spec = make_spec(rho0=rng.standard_normal(18), target=rng.standard_normal(18),
                         alpha=1e-3)
        vals = rng.uniform(-1.0, 1.0, (spec.grid.nt, spec.grid.n_omega))
        vals[rng.random(vals.shape) < 1 / 3] = -1.0
        vals[rng.random(vals.shape) < 1 / 6] = 1.0
        e = kkt_residual(spec, constant_control(spec.grid, 0.0, -1.0, 1.0).like(vals))
        draws, expected = np.random.default_rng(3), []
        for _ in range(8):
            d = critical_cone_project(e, 0.0, draws.standard_normal(vals.shape))
            expected.append(hessian_bilinear(e, d, d) / spec.control_norm(d)**2)
        active = active_set(e, 0.0)
        assert active.any() and not active.all()
        assert np.array_equal(check_coercivity(e, 0.0, 8, seed=3), expected)

    def test_non_finite_evaluation_reads_nan_without_marching(self, monkeypatch):
        # rho0 of sup 1e200 overflows the cost to inf; the Hessian's linearized
        # source w*rho would too, so no quotient is sampled and each kept
        # direction reads NaN, which fails every bound
        spec = make_spec(rho0=np.full(18, 1e200))
        e = kkt_residual(spec, constant_control(spec.grid, 0.0, spec.vmin, spec.vmax))
        assert not e.finite
        monkeypatch.setattr(control, "hessian_action", lambda *args: pytest.fail("marched"))
        for tau in (0.0, 1e-3):
            quotients = check_coercivity(e, tau=tau, n_samples=4, seed=2)
            assert quotients.shape == (4,) and np.isnan(quotients).all()
        assert check_coercivity(e, tau=0.0, n_samples=0).shape == (0,)

    def test_degenerate_cone_reported_inconclusive(self):
        # on the box [0, 1] at u = 0, positive data make g = rho*q > 0
        # everywhere, so every window point is strongly active; the cone
        # collapses to {0} and the check must return no quotient rather than fail
        rng = np.random.default_rng(34)
        spec = make_spec(rho0=0.1 * np.abs(rng.standard_normal(18)) + 0.01, box=(0.0, 1.0))
        u = constant_control(spec.grid, 0.0, spec.vmin, spec.vmax)
        quotients = check_coercivity(kkt_residual(spec, u), tau=0.0, n_samples=4, seed=2)
        assert isinstance(quotients, np.ndarray) and quotients.shape == (0,)
