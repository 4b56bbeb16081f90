"""Time-stepping solvers: eigen-oracle identities, positivity, adjoint duality."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from fracctrl.fracop import Grid, SolverError
from fracctrl.pdesolve import (
    ControlField,
    StabilityError,
    StepSolver,
    TimeField,
    constant_control,
    export_control_csv,
    export_trajectory_csv,
    solve_adjoint,
    solve_linearized,
    solve_shifted,
    solve_sourced,
    solve_state,
    source_vstar_norm,
    zero_control,
)
from fracctrl.problem import ProblemSpec


def make_spec(n=18, nt=30, window=(-0.6, 0.6), T=0.5, s=0.5, alpha=1.0,
              box=(-1.0, 1.0), rho0=None, target=None):
    grid = Grid.from_window(a=-1.0, b=1.0, n=n, window=window, T=T, nt=nt)
    if rho0 is None:
        rho0 = np.zeros(n)
    if target is None:
        target = np.zeros(n)
    return ProblemSpec(grid=grid, s=s, alpha=alpha, vmin=box[0], vmax=box[1],
                       rho0=rho0, rho_target=target)


def random_control(spec, rng, scale=1.0):
    vals = rng.uniform(spec.vmin, spec.vmax, size=(spec.grid.nt, spec.grid.n_omega))
    return ControlField(scale * vals, spec.grid, vmin=spec.vmin, vmax=spec.vmax)


def random_direction(spec, rng):
    return ControlField(rng.standard_normal((spec.grid.nt, spec.grid.n_omega)), spec.grid)


def principal_mode(spec):
    """Smallest eigenpair of the dense operator (eigendecomposition oracle)."""
    vals, vecs = np.linalg.eigh(spec.operator.matrix)
    return vals[0], vecs[:, 0]


class TestStateSolver:
    def test_zero_initial_state_stays_zero(self):
        rng = np.random.default_rng(0)
        spec = make_spec()
        rho = solve_state(spec, random_control(spec, rng))
        assert np.array_equal(rho.values, np.zeros_like(rho.values))

    def test_eigenmode_decay_closed_form(self):
        # full-domain window, constant control: exact geometric decay per step
        spec = make_spec(window=(-1.0, 1.0))
        lam, phi = principal_mode(spec)
        spec = make_spec(window=(-1.0, 1.0), rho0=phi)
        c = 0.3
        rho = solve_state(spec, constant_control(spec.grid, c, *(-1.0, 1.0)))
        dt = spec.grid.dt
        for k in range(spec.grid.nt + 1):
            exact = (1.0 + dt * (lam - c)) ** (-k) * phi
            assert np.max(np.abs(rho.values[k] - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_nonnegativity_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            rho0 = np.abs(rng.standard_normal(18))
            spec = make_spec(rho0=rho0)
            rho = solve_state(spec, random_control(spec, rng))
            assert rho.values.min() >= -1e-12 * np.max(rho0)

    def test_per_step_sup_bound(self):
        rng = np.random.default_rng(2)
        spec = make_spec(rho0=rng.standard_normal(18))
        v = random_control(spec, rng)
        rho = solve_state(spec, v)
        dt, theta = spec.grid.dt, v.theta
        sup0 = np.max(np.abs(spec.rho0))
        sups = np.max(np.abs(rho.values), axis=1)
        bounds = (1.0 - dt * theta) ** (-np.arange(spec.grid.nt + 1)) * sup0
        assert np.all(sups <= bounds * (1 + 1e-12))

    def test_stability_guard(self):
        spec = make_spec(nt=2, T=4.0)  # dt*theta = 2 > 1/2
        with pytest.raises(StabilityError):
            solve_state(spec, zero_control(spec.grid, spec.vmin, spec.vmax))

    def test_deterministic_rerun(self):
        rng = np.random.default_rng(3)
        spec = make_spec(rho0=rng.standard_normal(18))
        v = random_control(spec, rng)
        a = solve_state(spec, v)
        b = solve_state(spec, v)
        assert np.array_equal(a.values, b.values)


class TestSourcedSolver:
    def test_zero_source_matches_state(self):
        rng = np.random.default_rng(4)
        spec = make_spec(rho0=rng.standard_normal(18))
        v = random_control(spec, rng)
        f = np.zeros((spec.grid.nt, spec.grid.n))
        assert np.array_equal(solve_sourced(spec, v, f).values,
                              solve_state(spec, v).values)

    def test_constant_eigen_source_geometric_series(self):
        spec = make_spec(window=(-1.0, 1.0))
        lam, phi = principal_mode(spec)
        v = zero_control(spec.grid, spec.vmin, spec.vmax)
        f = np.tile(phi, (spec.grid.nt, 1))
        rho = solve_sourced(spec, v, f)
        dt = spec.grid.dt
        for k in range(spec.grid.nt + 1):
            exact = (1.0 - (1.0 + dt * lam) ** (-k)) / lam * phi
            scale = max(np.max(np.abs(exact)), 1e-30)
            assert np.max(np.abs(rho.values[k] - exact)) <= 1e-12 * scale

    def test_superposition_in_source_and_datum(self):
        rng = np.random.default_rng(5)
        spec = make_spec(rho0=rng.standard_normal(18))
        v = random_control(spec, rng)
        f1 = rng.standard_normal((spec.grid.nt, spec.grid.n))
        f2 = rng.standard_normal((spec.grid.nt, spec.grid.n))
        both = solve_sourced(spec, v, f1 + f2)
        split = (solve_sourced(spec, v, f1).values + solve_sourced(spec, v, f2).values
                 - solve_state(spec, v).values)
        scale = np.max(np.abs(both.values))
        assert np.max(np.abs(both.values - split)) <= 1e-12 * scale


class TestShiftedSolver:
    def test_trivial_zero(self):
        rng = np.random.default_rng(6)
        spec = make_spec()
        v = random_control(spec, rng)
        f = np.zeros((spec.grid.nt, spec.grid.n))
        z = solve_shifted(spec, v, f)
        assert np.array_equal(z.values, np.zeros_like(z.values))

    def test_zero_control_equals_sourced(self):
        rng = np.random.default_rng(7)
        spec = make_spec(rho0=rng.standard_normal(18))
        v = zero_control(spec.grid, spec.vmin, spec.vmax)
        f = rng.standard_normal((spec.grid.nt, spec.grid.n))
        assert np.array_equal(solve_shifted(spec, v, f).values,
                              solve_sourced(spec, v, f).values)

    def test_change_of_variables_first_order_in_dt(self):
        # e^(r t_n) z^n tracks the sourced solution with O(dt) defect
        rng = np.random.default_rng(8)
        rho0 = rng.standard_normal(16)
        f_profile = rng.standard_normal(16)
        defects = []
        for nt in (400, 800):
            spec = make_spec(n=16, nt=nt, rho0=rho0)
            vals = rng.uniform(spec.vmin, spec.vmax, size=(1, spec.grid.n_omega))
            v = ControlField(np.tile(vals, (nt, 1)), spec.grid, spec.vmin, spec.vmax)
            f = np.tile(f_profile, (nt, 1))
            z = solve_shifted(spec, v, f)
            rho = solve_sourced(spec, v, f)
            t = spec.grid.dt * np.arange(nt + 1)
            lifted = np.exp(v.sup * t)[:, None] * z.values
            defects.append(np.max(np.abs(lifted - rho.values)))
        ratio = defects[1] / defects[0]
        assert 0.35 <= ratio <= 0.65  # halves under dt halving

    def test_energy_estimates_unit_slack(self):
        # discrete analogues of the shifted a-priori bounds, slack 1.1
        rng = np.random.default_rng(9)
        for _ in range(5):
            rho0 = rng.standard_normal(24)
            spec = make_spec(n=24, nt=48, rho0=rho0)
            v = random_control(spec, rng)
            f = rng.standard_normal((spec.grid.nt, spec.grid.n))
            z = solve_shifted(spec, v, f)
            rhs = source_vstar_norm(spec, f) ** 2 + (spec.grid.dx * np.sum(rho0**2))
            assert z.sup_l2() ** 2 <= 1.1 * rhs
            assert z.st_v(spec.operator) ** 2 <= 1.1 * rhs


class TestAdjointSolver:
    def test_zero_terminal(self):
        rng = np.random.default_rng(10)
        spec = make_spec()
        q = solve_adjoint(spec, random_control(spec, rng), np.zeros(18))
        assert np.array_equal(q.values, np.zeros_like(q.values))

    def test_time_constant_reversal(self):
        # constant-in-time control: the backward sweep is the forward sweep
        # from the terminal datum, snapshot for snapshot
        rng = np.random.default_rng(11)
        terminal = rng.standard_normal(18)
        spec = make_spec(rho0=terminal)
        vals = np.tile(rng.uniform(-1, 1, size=(1, spec.grid.n_omega)), (spec.grid.nt, 1))
        v = ControlField(vals, spec.grid, spec.vmin, spec.vmax)
        q = solve_adjoint(spec, v, terminal)
        rho = solve_state(spec, v)
        nt = spec.grid.nt
        for k in range(1, nt + 1):
            assert np.array_equal(q.values[k], rho.values[nt - k + 1])

    def test_sup_bound_per_step(self):
        rng = np.random.default_rng(12)
        spec = make_spec()
        v = random_control(spec, rng)
        terminal = rng.standard_normal(18)
        q = solve_adjoint(spec, v, terminal)
        dt, theta = spec.grid.dt, v.theta
        sup_t = np.max(np.abs(terminal))
        for k in range(1, spec.grid.nt + 1):
            bound = (1.0 - dt * theta) ** (-(spec.grid.nt - k + 1)) * sup_t
            assert np.max(np.abs(q.values[k])) <= bound * (1 + 1e-12)


class TestLinearizedSolver:
    def test_zero_direction(self):
        rng = np.random.default_rng(13)
        spec = make_spec(rho0=rng.standard_normal(18))
        v = random_control(spec, rng)
        rho = solve_state(spec, v)
        y = solve_linearized(spec, v, zero_control(spec.grid), rho)
        assert np.array_equal(y.values, np.zeros_like(y.values))

    def test_zero_state_kills_sensitivity(self):
        rng = np.random.default_rng(14)
        spec = make_spec()
        v = random_control(spec, rng)
        rho = solve_state(spec, v)
        y = solve_linearized(spec, v, random_direction(spec, rng), rho)
        assert np.array_equal(y.values, np.zeros_like(y.values))

    def test_foreign_trajectory_rejected(self):
        rng = np.random.default_rng(140)
        spec = make_spec()
        other = make_spec(nt=31)
        v = random_control(spec, rng)
        foreign = solve_state(other, random_control(other, rng))
        with pytest.raises(ValueError, match="different grid"):
            solve_linearized(spec, v, random_direction(spec, rng), foreign)

    def test_finite_difference_slope_one(self):
        rng = np.random.default_rng(15)
        spec = make_spec(rho0=rng.standard_normal(18))
        v = random_control(spec, rng, scale=0.8)
        w = random_direction(spec, rng)
        rho = solve_state(spec, v)
        y = solve_linearized(spec, v, w, rho)
        eps_grid = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        errs = []
        for eps in eps_grid:
            pert = solve_state(spec, v.like(v.values + eps * w.values))
            fd = (pert.values - rho.values) / eps
            diff = TimeField(np.vstack([np.zeros((1, spec.grid.n)), (fd - y.values)[1:]]),
                             spec.grid)
            errs.append(diff.st_l2())
        errs = np.array(errs)
        slope = np.polyfit(np.log(eps_grid), np.log(errs), 1)[0]
        assert abs(slope - 1.0) <= 0.1
        assert np.all(np.diff(errs) < 0)


class TestDenseStepPath:
    """The dense path factorizes in place and solves through potrs; it must
    give exactly what scipy's checked cho_factor/cho_solve give."""

    @pytest.mark.parametrize("kind,shift", [("varying", 0.0), ("constant", 0.0),
                                            ("varying", 0.7)])
    def test_solve_equals_checked_cholesky(self, kind, shift):
        rng = np.random.default_rng(60)
        spec = make_spec(n=24, nt=6)
        v = (random_control(spec, rng) if kind == "varying"
             else constant_control(spec.grid, 0.4, spec.vmin, spec.vmax))
        steps = StepSolver(spec, v, shift=shift)
        n, dt = spec.grid.n, spec.grid.dt
        base = np.eye(n) + dt * (spec.operator.matrix + shift * np.eye(n))
        for level in range(1, spec.grid.nt + 1):
            M = base - dt * np.diag(v.scatter()[level - 1])
            b = rng.standard_normal(n)
            assert np.array_equal(steps.solve(level, b), cho_solve(cho_factor(M), b))

    def test_build_leaves_operator_matrix_unchanged(self):
        rng = np.random.default_rng(61)
        spec = make_spec(n=24, nt=6)
        before = spec.operator.matrix.copy()
        StepSolver(spec, random_control(spec, rng), shift=0.5)
        StepSolver(spec, constant_control(spec.grid, 0.4))
        assert np.array_equal(spec.operator.matrix, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_source_names_its_level(self, bad):
        spec = make_spec(n=24, nt=10, rho0=np.ones(24))
        f = np.zeros((10, 24))
        f[6, 3] = bad  # source row 6 enters implicit level 7
        with pytest.raises(SolverError, match="non-finite state at level 7$"):
            solve_sourced(spec, zero_control(spec.grid), f)

    @pytest.mark.parametrize("nt", [10, 1])
    def test_non_finite_terminal_rejected(self, nt):
        spec = make_spec(n=24, nt=nt)
        terminal = np.zeros(24)
        terminal[5] = np.nan
        with pytest.raises(SolverError, match=f"non-finite multiplier at level {nt}$"):
            solve_adjoint(spec, zero_control(spec.grid), terminal)


class TestConjugateGradientPath:
    def test_matches_dense_solver(self):
        # optional performance mode: FFT Toeplitz matvec + CG to relative
        # residual 1e-12 reproduces the Cholesky trajectories
        rng = np.random.default_rng(50)
        spec = make_spec(n=40, nt=20, rho0=rng.standard_normal(40))
        v = random_control(spec, rng)
        dense = solve_state(spec, v)
        fast = solve_state(spec, v, method="cg")
        scale = np.max(np.abs(dense.values))
        assert np.max(np.abs(dense.values - fast.values)) <= 1e-9 * scale

    def test_adjoint_matches_dense_solver(self):
        rng = np.random.default_rng(51)
        spec = make_spec(n=40, nt=20, rho0=rng.standard_normal(40))
        v = random_control(spec, rng)
        terminal = rng.standard_normal(40)
        dense = solve_adjoint(spec, v, terminal)
        fast = solve_adjoint(spec, v, terminal, method="cg")
        scale = np.max(np.abs(dense.values))
        assert np.max(np.abs(dense.values - fast.values)) <= 1e-9 * scale

    def test_unknown_method_rejected(self):
        rng = np.random.default_rng(52)
        spec = make_spec()
        with pytest.raises(ValueError):
            solve_state(spec, random_control(spec, rng), method="lu")


class TestFieldContainers:
    def test_time_field_shape_check(self):
        grid = Grid.from_window(-1, 1, 8, (-1, 1), 1.0, 4)
        with pytest.raises(ValueError):
            TimeField(np.zeros((4, 8)), grid)

    def test_control_shape_and_finite_check(self):
        grid = Grid.from_window(-1, 1, 8, (-1, 1), 1.0, 4)
        with pytest.raises(ValueError):
            ControlField(np.zeros((5, 8)), grid)
        bad = np.zeros((4, 8))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            ControlField(bad, grid)

    def test_admissibility_and_theta(self):
        grid = Grid.from_window(-1, 1, 8, (-1, 1), 1.0, 4)
        v = ControlField(0.5 * np.ones((4, 8)), grid, vmin=-1.0, vmax=2.0)
        assert v.is_admissible()
        assert v.theta == 2.0
        assert v.sup == 0.5
        w = ControlField(3.0 * np.ones((4, 8)), grid)
        assert not w.is_admissible()
        assert w.theta == 3.0
        # the stability guard must see the values actually solved, not the box
        assert ControlField(w.values, grid, vmin=-1.0, vmax=1.0).theta == 3.0


def test_trajectory_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(19)
    spec = make_spec(n=4, nt=3, rho0=rng.standard_normal(4))
    rho = solve_state(spec, random_control(spec, rng))
    path = tmp_path / "rho.csv"
    export_trajectory_csv(rho, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x,value"
    assert len(lines) == 1 + 4 * 4
    # 17 significant digits reproduce the doubles exactly
    t, x, val = lines[-1].split(",")
    assert float(val) == rho.values[-1, -1]
    assert float(x) == spec.grid.nodes[-1]


def test_control_csv_layout(tmp_path):
    spec = make_spec(n=6, nt=2, window=(-0.5, 0.5))
    v = constant_control(spec.grid, 0.25, spec.vmin, spec.vmax)
    path = tmp_path / "v.csv"
    export_control_csv(v, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x,value"
    assert len(lines) == 1 + 2 * spec.grid.n_omega
