"""Time-stepping solvers: eigen-oracle identities, positivity, adjoint duality."""

import math
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from fracctrl import fracop, pdesolve
from fracctrl.control import kkt_residual
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
)
from fracctrl.problem import ProblemSpec
from fracctrl.verify import _realize_blocks


def make_spec(n=18, nt=30, window=(-0.6, 0.6), T=0.5, s=0.5, alpha=1.0,
              box=(-1.0, 1.0), rho0=None, target=None, c_user=0.0):
    grid = Grid.from_window(a=-1.0, b=1.0, n=n, window=window, T=T, nt=nt)
    if rho0 is None:
        rho0 = np.zeros(n)
    if target is None:
        target = np.zeros(n)
    return ProblemSpec(grid=grid, s=s, alpha=alpha, vmin=box[0], vmax=box[1],
                       rho0=rho0, rho_target=target, c_user=c_user)


def random_control(spec, rng, scale=1.0):
    vals = rng.uniform(spec.vmin, spec.vmax, size=(spec.grid.nt, spec.grid.n_omega))
    return ControlField(scale * vals, spec.grid, vmin=spec.vmin, vmax=spec.vmax)


def random_direction(spec, rng):
    return rng.standard_normal((spec.grid.nt, spec.grid.n_omega))


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
            solve_state(spec, constant_control(spec.grid, 0.0, spec.vmin, spec.vmax))

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
        v = constant_control(spec.grid, 0.0, spec.vmin, spec.vmax)
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
        v = constant_control(spec.grid, 0.0, spec.vmin, spec.vmax)
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

    def test_shift_keeps_m_matrices_beyond_the_margin(self):
        # box +-40 at dt = 1/60 puts dt*theta at 2/3 > 1/2, so the unshifted
        # build refuses; shifted by sup|v|, every M_n is a diagonally dominant
        # M-matrix, so a nonnegative start stays nonnegative and sup-bounded
        rng = np.random.default_rng(10)
        spec = make_spec(n=24, nt=30, box=(-40.0, 40.0), rho0=rng.uniform(0.0, 1.0, 24))
        v = random_control(spec, rng)
        with pytest.raises(StabilityError, match="stability margin"):
            solve_state(spec, v)
        z = solve_shifted(spec, v, np.zeros((30, 24)))
        assert np.min(z.values) >= 0.0
        assert z.linf() <= np.max(np.abs(spec.rho0))


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
        y = solve_linearized(spec, v, np.zeros((1, spec.grid.nt, spec.grid.n_omega)), rho)
        assert np.array_equal(y.values, np.zeros_like(y.values))

    def test_zero_state_kills_sensitivity(self):
        rng = np.random.default_rng(14)
        spec = make_spec()
        v = random_control(spec, rng)
        rho = solve_state(spec, v)
        y = solve_linearized(spec, v, random_direction(spec, rng)[None], rho)
        assert np.array_equal(y.values, np.zeros_like(y.values))

    def test_foreign_trajectory_rejected(self):
        rng = np.random.default_rng(140)
        spec = make_spec()
        other = make_spec(nt=31)
        v = random_control(spec, rng)
        foreign = solve_state(other, random_control(other, rng))
        with pytest.raises(ValueError, match="different grid"):
            solve_linearized(spec, v, random_direction(spec, rng)[None], foreign)

    def test_block_columns_are_the_single_marches(self):
        rng = np.random.default_rng(16)
        spec = make_spec(rho0=rng.standard_normal(18))
        v = random_control(spec, rng, scale=0.8)
        rho = solve_state(spec, v)
        directions = [random_direction(spec, rng) for _ in range(3)]
        block = solve_linearized(spec, v, np.stack(directions), rho)
        assert block.values.shape == (spec.grid.nt + 1, spec.grid.n, 3)
        for j, w in enumerate(directions):
            single = solve_linearized(spec, v, w[None], rho)
            assert np.array_equal(block.values[..., j], single.values[..., 0])

    def test_finite_difference_slope_one(self):
        rng = np.random.default_rng(15)
        spec = make_spec(rho0=rng.standard_normal(18))
        v = random_control(spec, rng, scale=0.8)
        w = random_direction(spec, rng)
        rho = solve_state(spec, v)
        y = solve_linearized(spec, v, w[None], rho).values[..., 0]
        eps_grid = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        errs = []
        for eps in eps_grid:
            pert = solve_state(spec, v.like(v.values + eps * w))
            fd = (pert.values - rho.values) / eps
            diff = TimeField(np.vstack([np.zeros((1, spec.grid.n)), (fd - y)[1:]]),
                             spec.grid)
            errs.append(diff.st_l2())
        errs = np.array(errs)
        slope = np.polyfit(np.log(eps_grid), np.log(errs), 1)[0]
        assert abs(slope - 1.0) <= 0.1
        assert np.all(np.diff(errs) < 0)


@pytest.fixture
def factored(monkeypatch):
    """Every matrix handed to potrf while the test runs."""
    made, own = [], pdesolve.cho_factor
    monkeypatch.setattr(pdesolve, "cho_factor", lambda M: made.append(M) or own(M))
    return made


def step_control(kind, spec, rng):
    """A control whose rows are all distinct (varying), all equal (constant),
    sampled on a (4, 3) block lattice (blocks) or alternating between two."""
    if kind == "constant":
        return constant_control(spec.grid, 0.4, spec.vmin, spec.vmax)
    if kind == "varying":
        return random_control(spec, rng)
    if kind == "blocks":
        vals = _realize_blocks(spec, rng.uniform(spec.vmin, spec.vmax, (4, 3)))
    else:
        two = rng.uniform(spec.vmin, spec.vmax, (2, spec.grid.n_omega))
        vals = two[np.arange(spec.grid.nt) % 2]
    return ControlField(vals, spec.grid, spec.vmin, spec.vmax)


class TestDenseStepPath:
    """The dense path factorizes in place and solves through potrs; it must
    give exactly what scipy's checked cho_factor/cho_solve give, and it
    factorizes each distinct level once."""

    @pytest.mark.parametrize("kind,shift", [("varying", 0.0), ("constant", 0.0),
                                            ("varying", 1.0), ("blocks", 0.0),
                                            ("alternating", 0.0)])
    def test_solve_equals_checked_cholesky(self, kind, shift, monkeypatch):
        rng = np.random.default_rng(60)
        spec = make_spec(n=24, nt=6)
        v = step_control(kind, spec, rng)
        factored, own = [], pdesolve.cho_factor
        monkeypatch.setattr(pdesolve, "cho_factor", lambda M: factored.append(M) or own(M))
        steps = StepSolver(spec, v, shift=shift)
        distinct = {"varying": 6, "constant": 1, "blocks": 4, "alternating": 2}[kind]
        assert len(factored) == len(np.unique(v.values, axis=0)) == distinct
        n, dt = spec.grid.n, spec.grid.dt
        base = np.eye(n) + dt * (spec.operator.matrix + shift * np.eye(n))
        for level in range(1, spec.grid.nt + 1):
            window = np.zeros(n)
            window[spec.grid.omega_mask] = v.values[level - 1]
            M = base - dt * np.diag(window)
            b = rng.standard_normal(n)
            assert np.array_equal(steps.solve(level, b), cho_solve(cho_factor(M, lower=True), b))

    def test_build_guards_stability_at_shift_zero(self):
        # dt = 1/60, so a control of sup 40 puts dt*theta at 2/3 > 1/2; a shift
        # of sup|v| makes every step matrix an M-matrix whatever dt is
        spec = make_spec(n=24, nt=30)
        v = constant_control(spec.grid, 40.0, spec.vmin, spec.vmax)
        with pytest.raises(StabilityError, match="stability margin"):
            StepSolver(spec, v)
        StepSolver(spec, v, shift=v.sup)

    @pytest.mark.parametrize("value", [3.0, 10.0])
    def test_build_refuses_a_shift_below_the_control_sup(self, value):
        # dt*theta = 5 at one level of dt = 1/2: only a shift of at least
        # sup|v| keeps the step matrix an M-matrix; at 10 a shift of 1e-3
        # leaves it indefinite and potrf fails
        spec = make_spec(n=9, nt=1, box=(-10.0, 10.0))
        v = constant_control(spec.grid, value, spec.vmin, spec.vmax)
        for shift in (1e-3, -1.0, value * (1 - 1e-12)):
            with pytest.raises(ValueError, match=rf"shift {shift:.6g} must be 0 or at least "
                                                 rf"sup\|v\| = {value:.6g}$"):
                StepSolver(spec, v, shift=shift)
        StepSolver(spec, v, shift=value)

    def test_build_leaves_operator_matrix_unchanged(self):
        rng = np.random.default_rng(61)
        spec = make_spec(n=24, nt=6)
        before = spec.operator.matrix.copy()
        StepSolver(spec, random_control(spec, rng), shift=1.0)
        StepSolver(spec, constant_control(spec.grid, 0.4, spec.vmin, spec.vmax))
        assert np.array_equal(spec.operator.matrix, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_source_names_its_level(self, bad):
        spec = make_spec(n=24, nt=10, rho0=np.ones(24))
        f = np.zeros((10, 24))
        f[6, 3] = bad  # source row 6 enters implicit level 7
        with pytest.raises(SolverError, match="non-finite state at level 7$"):
            solve_sourced(spec, constant_control(spec.grid, 0.0, spec.vmin, spec.vmax), f)

    @pytest.mark.parametrize("nt", [10, 1])
    def test_non_finite_terminal_rejected(self, nt):
        spec = make_spec(n=24, nt=nt)
        terminal = np.zeros(24)
        terminal[5] = np.nan
        with pytest.raises(SolverError, match=f"non-finite multiplier at level {nt}$"):
            solve_adjoint(spec, constant_control(spec.grid, 0.0, spec.vmin, spec.vmax), terminal)


class TestMarch:
    """StepSolver.march is the one loop over time levels, and every solve_*
    runs through it."""

    @pytest.mark.parametrize("kind", ["varying", "blocks"])
    def test_backward_march_with_source_equals_hand_loop(self, kind):
        # the sweep a second-order adjoint needs: backward, with a source
        rng = np.random.default_rng(64)
        spec = make_spec(n=24, nt=12)
        v = step_control(kind, spec, rng)
        terminal = rng.standard_normal(24)
        source = rng.standard_normal((12, 24))
        lam = StepSolver(spec, v).march(terminal, source, backward=True)
        n, dt = spec.grid.n, spec.grid.dt
        base = np.eye(n) + dt * spec.operator.matrix
        x = terminal
        for k in range(spec.grid.nt, 0, -1):
            window = np.zeros(n)
            window[spec.grid.omega_mask] = v.values[k - 1]
            x = cho_solve(cho_factor(base - dt * np.diag(window), lower=True),
                          x + dt * source[k - 1])
            assert np.array_equal(lam.values[k], x)
        assert np.array_equal(lam.values[0], lam.values[1])

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("sourced", [False, True], ids=["plain", "sourced"])
    @pytest.mark.parametrize("kind", ["varying", "blocks"])
    def test_block_march_equals_single_marches(self, kind, sourced, backward, step_solves):
        # a block of k columns is one solve per level with k right-hand
        # sides, and each column is bitwise the march of that column alone
        rng = np.random.default_rng(66)
        spec = make_spec(n=24, nt=12)
        steps = StepSolver(spec, step_control(kind, spec, rng))
        k = 5
        init = rng.standard_normal((24, k))
        source = rng.standard_normal((12, 24, k)) if sourced else None
        block = steps.march(init, source, backward=backward)
        assert len(step_solves) == spec.grid.nt
        assert block.values.shape == (spec.grid.nt + 1, 24, k)
        for j in range(k):
            single = steps.march(init[:, j], None if source is None else source[..., j],
                                 backward=backward)
            assert np.array_equal(block.values[..., j], single.values)

    # (n, nt) = (24, 12): a source that would broadcast, one short of nt
    # levels, two whose block width is not init's, and inits of no march
    @pytest.mark.parametrize("init,source", [((24,), (12, 1)), ((24,), (11, 24)),
                                             ((24, 3), (12, 24)), ((24, 3), (12, 24, 2)),
                                             ((23,), None), ((24, 3, 1), None), ((), None)],
                             ids=["broadcast-source", "short-source", "single-source",
                                  "narrow-source", "short-init", "3d-init", "scalar-init"])
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_misshaped_inputs_are_refused(self, init, source, backward):
        spec = make_spec(n=24, nt=12)
        steps = StepSolver(spec, constant_control(spec.grid, 0.0, spec.vmin, spec.vmax))
        with pytest.raises(ValueError, match=re.escape(f"got init {init} and source {source}")):
            steps.march(np.zeros(init), None if source is None else np.zeros(source),
                        backward=backward)

    @pytest.mark.parametrize("name", ["state", "sourced", "shifted", "adjoint", "linearized"])
    def test_one_step_solve_per_level(self, name, step_solves):
        # a march that bypassed StepSolver.solve would read 0 in the benchmark
        rng = np.random.default_rng(65)
        spec = make_spec(n=24, nt=9, rho0=rng.standard_normal(24))
        v = random_control(spec, rng)
        f = rng.standard_normal((9, 24))
        rho = solve_state(spec, v)
        run = {
            "state": lambda: solve_state(spec, v),
            "sourced": lambda: solve_sourced(spec, v, f),
            "shifted": lambda: solve_shifted(spec, v, f),
            "adjoint": lambda: solve_adjoint(spec, v, rng.standard_normal(24)),
            "linearized": lambda: solve_linearized(spec, v, random_direction(spec, rng)[None],
                                                   rho),
        }[name]
        step_solves.clear()  # drop the reference state's solves
        run()
        assert sorted(step_solves) == list(range(1, spec.grid.nt + 1))


class TestSharedSteps:
    """A solve handed steps=StepSolver(spec, v) marches on those factors and
    gives bitwise what a fresh build gives; a solver built for anything else
    is refused."""

    @staticmethod
    def _solves(spec, v, f, terminal, w, steps=None):
        rho = solve_state(spec, v, steps=steps)
        return [rho, solve_sourced(spec, v, f, steps=steps),
                solve_adjoint(spec, v, terminal, steps=steps),
                solve_linearized(spec, v, w[None], rho, steps=steps)]

    @pytest.mark.parametrize("kind", ["varying", "blocks"])
    def test_shared_steps_equal_fresh_builds(self, kind):
        rng = np.random.default_rng(62)
        spec = make_spec(n=24, nt=12, rho0=rng.standard_normal(24))
        v = step_control(kind, spec, rng)
        f = rng.standard_normal((12, 24))
        terminal = rng.standard_normal(24)
        w = rng.standard_normal(v.values.shape)
        shared = self._solves(spec, v, f, terminal, w, steps=StepSolver(spec, v))
        fresh = self._solves(spec, v, f, terminal, w)
        for a, b in zip(shared, fresh):
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("wrong", ["other control", "equal copy", "other spec", "shifted"])
    def test_steps_built_for_other_matrices_rejected(self, wrong):
        rng = np.random.default_rng(63)
        spec = make_spec(n=24, nt=6, rho0=rng.standard_normal(24))
        v = random_control(spec, rng)
        steps = {
            "other control": lambda: StepSolver(spec, random_control(spec, rng)),
            # same values, another object: the guard checks identity
            "equal copy": lambda: StepSolver(spec, v.like(v.values.copy())),
            "other spec": lambda: StepSolver(make_spec(n=24, nt=6), v),
            "shifted": lambda: StepSolver(spec, v, shift=v.sup),
        }[wrong]()
        rho = solve_state(spec, v)
        w = rng.standard_normal(v.values.shape)
        calls = [
            lambda: solve_state(spec, v, steps=steps),
            lambda: solve_sourced(spec, v, np.zeros((6, 24)), steps=steps),
            lambda: solve_adjoint(spec, v, np.ones(24), steps=steps),
            lambda: solve_linearized(spec, v, w[None], rho, steps=steps),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="steps must be StepSolver"):
                call()


def shares_factors(a, b):
    return any(np.shares_memory(x, y) for x in a._factors for y in b._factors)


class TestSpareBlock:
    """A build's factors are one block; a dead solver's block is the one
    spare, which the next build of its shape takes and any other build
    drops.  Each test starts from an empty spare of its own."""

    @pytest.fixture(autouse=True)
    def empty_spare(self, monkeypatch):
        monkeypatch.setattr(pdesolve, "_spare", {})

    def test_live_solvers_never_share_factor_memory(self):
        rng = np.random.default_rng(67)
        spec = make_spec(n=24, nt=8, rho0=rng.standard_normal(24))
        u, cand = random_control(spec, rng), random_control(spec, rng)
        dead = StepSolver(spec, u)
        first = dead._factors[0]
        del dead
        # the evaluation's factors take the dead block; an Armijo-style
        # trial built while they live gets memory of its own, and so does
        # the trial after it, which takes the first trial's block
        e = kkt_residual(spec, u)
        held = e.steps
        assert np.shares_memory(held._factors[0], first)
        trial = StepSolver(spec, cand)
        assert not shares_factors(held, trial)
        second = trial._factors[0]
        del trial
        trial = StepSolver(spec, random_control(spec, rng))
        assert np.shares_memory(trial._factors[0], second)
        assert not shares_factors(held, trial)
        assert not shares_factors(StepSolver(spec, cand), trial)

    @pytest.mark.parametrize("shift", ["zero", "sup"])
    @pytest.mark.parametrize("kind", ["varying", "constant", "signed-zero"])
    def test_a_reused_block_marches_as_fresh_memory(self, kind, shift):
        # the dead block holds another shift's factors of the same shape;
        # the build overwrites all of it, so every march is bitwise the same
        rng = np.random.default_rng(68)
        spec = make_spec(n=24, nt=8, rho0=rng.standard_normal(24))
        if kind == "signed-zero":
            vals = np.zeros((8, spec.grid.n_omega))
            vals[::3] = -0.0  # two distinct levels of equal values
            v = ControlField(vals, spec.grid, spec.vmin, spec.vmax)
        else:
            v = step_control(kind, spec, rng)
        r = 0.0 if shift == "zero" else v.sup
        terminal, source = rng.standard_normal(24), rng.standard_normal((8, 24))
        fresh = StepSolver(spec, v, shift=r)
        marches = [fresh.march(spec.rho0), fresh.march(terminal, source, backward=True)]
        dirty = StepSolver(spec, v, shift=v.sup + 1.0)
        block = dirty._factors[0].base
        del fresh, dirty
        assert list(pdesolve._spare) == [block.shape]
        reused = StepSolver(spec, v, shift=r)
        assert np.shares_memory(reused._factors[0], block) and not pdesolve._spare
        assert len(block) == {"varying": 8, "constant": 1, "signed-zero": 2}[kind]
        again = [reused.march(spec.rho0), reused.march(terminal, source, backward=True)]
        for a, b in zip(marches, again):
            assert np.array_equal(a.values, b.values)

    def test_a_build_of_another_shape_drops_the_spare(self):
        rng = np.random.default_rng(69)
        spec = make_spec(n=24, nt=8)
        steps = StepSolver(spec, random_control(spec, rng))
        old = weakref.ref(steps._factors[0].base)
        del steps
        assert old() is not None and list(pdesolve._spare) == [(8, 24, 24)]
        other = StepSolver(spec, constant_control(spec.grid, 0.4, spec.vmin, spec.vmax))
        assert old() is None and not pdesolve._spare
        del other
        assert list(pdesolve._spare) == [(1, 24, 24)]
        smaller = make_spec(n=20, nt=8)
        StepSolver(smaller, constant_control(smaller.grid, 0.4, smaller.vmin, smaller.vmax))
        assert list(pdesolve._spare) == [(1, 20, 20)]

    @staticmethod
    def assert_marches_as(steps, fresh, rng):
        n, nt = steps.spec.grid.n, steps.spec.grid.nt
        init, terminal, source = (rng.standard_normal(n), rng.standard_normal(n),
                                  rng.standard_normal((nt, n)))
        assert np.array_equal(steps.march(init).values, fresh.march(init).values)
        assert np.array_equal(steps.march(terminal, source, backward=True).values,
                              fresh.march(terminal, source, backward=True).values)

    def test_an_evaluation_factors_each_level_once(self, factored):
        # the state's solver dies before the adjoint's build, which takes its
        # factors; e.steps then takes the adjoint's
        rng = np.random.default_rng(70)
        spec = make_spec(n=24, nt=8, rho0=rng.standard_normal(24),
                         target=rng.standard_normal(24))
        u = random_control(spec, rng)
        e = kkt_residual(spec, u)
        assert len(factored) == 8
        held = e.steps
        assert len(factored) == 8 and not pdesolve._spare
        fresh = StepSolver(spec, u)
        assert len(factored) == 16 and not shares_factors(held, fresh)
        assert np.array_equal(e.rho.values, fresh.march(spec.rho0).values)
        assert np.array_equal(e.q.values, fresh.march(e.rho.final - spec.rho_target,
                                                      backward=True).values)
        self.assert_marches_as(held, fresh, rng)

    def test_a_build_for_new_data_takes_the_factors(self, factored):
        # with_data shares the operator and the grid, so the step matrices are
        # the same and only rho0 and the target differ
        rng = np.random.default_rng(71)
        spec = make_spec(n=24, nt=8)
        u = random_control(spec, rng)
        StepSolver(spec, u)  # dies at once, leaving its block and its factors
        other = spec.with_data(rng.standard_normal(24), rng.standard_normal(24))
        assert other.operator is spec.operator and other.grid is spec.grid
        steps = StepSolver(other, u)
        assert len(factored) == 8
        self.assert_marches_as(steps, StepSolver(other, u), rng)

    @pytest.mark.parametrize("change", ["entry", "signed-zero", "shift", "order", "horizon",
                                        "window"])
    def test_a_build_for_other_matrices_refactors_every_level(self, change, factored):
        rng = np.random.default_rng(72)
        spec = make_spec(n=24, nt=8)
        vals = rng.uniform(spec.vmin, spec.vmax, (8, spec.grid.n_omega))
        vals[3, 2] = 0.0
        v = ControlField(vals, spec.grid, spec.vmin, spec.vmax)
        dead = StepSolver(spec, v, shift=v.sup)
        block = dead._factors[0].base
        del dead
        shift = v.sup
        if change in ("entry", "signed-zero"):
            vals = vals.copy()
            vals[3, 2] = -0.0 if change == "signed-zero" else 0.5
            v = v.like(vals)
        elif change == "shift":
            shift = v.sup + 1.0
        elif change == "order":
            spec = replace(spec, s=0.3)
        else:  # the same nodes, so the same operator, with another dt or window
            T, window = (0.7, (-0.6, 0.6)) if change == "horizon" else (0.5, (-0.5, 0.62))
            grid = Grid.from_window(a=-1.0, b=1.0, n=24, window=window, T=T, nt=8)
            op = spec.operator
            spec = replace(spec, grid=grid)
            spec._op = op
            v = ControlField(v.values, grid, v.vmin, v.vmax)
        factored.clear()
        steps = StepSolver(spec, v, shift=shift)
        assert np.shares_memory(steps._factors[0], block)
        assert len(factored) == 8
        self.assert_marches_as(steps, StepSolver(spec, v, shift=shift), rng)


def dense_reference_march(spec, v, init, source=None, backward=False, shift=0.0):
    """The march by hand: each level's full step matrix factored by scipy's
    checked cho_factor, the way the dense path solves it."""
    n, nt, dt = spec.grid.n, spec.grid.nt, spec.grid.dt
    base = np.eye(n) + dt * (spec.operator.matrix + shift * np.eye(n))
    out = np.empty((nt + 1,) + np.shape(init))
    x = init
    for k in (range(nt, 0, -1) if backward else range(1, nt + 1)):
        window = np.zeros(n)
        window[spec.grid.omega_mask] = v.values[k - 1]
        rhs = x if source is None else x + dt * source[k - 1]
        x = out[k] = cho_solve(cho_factor(base - dt * np.diag(window), lower=True), rhs)
    out[0] = out[1] if backward else init
    return out


def relative_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


# Schur path against the dense reference: the largest relative gap measured
# over the marches below is 1.0e-15 (n = 255, forward, under one BLAS thread
# and two), so 1e-14 leaves a margin of about 10
SCHUR_GAP = 1e-14


class TestSchurStepPath:
    """From n = N_SCHUR up, with a node outside the window, a build factors
    only the window's Schur complement at each level; its marches agree with
    the dense reference to round-off, keep the maximum principle exactly and
    keep the block contract bitwise."""

    @staticmethod
    def reference_spec(n, nt, **kw):
        rng = np.random.default_rng(n)
        return make_spec(n=n, nt=nt, window=(-0.5, 0.5), rho0=np.abs(rng.standard_normal(n)),
                         **kw)

    @pytest.mark.parametrize("march", ["forward", "backward", "sourced"])
    @pytest.mark.parametrize("n", [pdesolve.N_SCHUR, 127, 129, 255])
    def test_march_matches_the_dense_reference(self, n, march, factored):
        spec = self.reference_spec(n, 40)
        rng = np.random.default_rng(80)
        v = random_control(spec, rng)
        steps = StepSolver(spec, v)
        n_omega = spec.grid.n_omega
        # B once, then one n_omega-wide factor per distinct level
        assert [M.shape for M in factored] == [(n - n_omega,) * 2] + [(n_omega,) * 2] * 40
        init = spec.rho0 if march == "forward" else rng.standard_normal(n)
        source = rng.standard_normal((40, n)) if march == "sourced" else None
        backward = march != "forward"
        got = steps.march(init, source, backward=backward).values
        want = dense_reference_march(spec, v, init, source, backward)
        assert relative_gap(got, want) <= SCHUR_GAP

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("k", [1, 2, 17, 64])
    @pytest.mark.parametrize("n", [127, 129])
    def test_block_columns_are_the_single_marches(self, n, k, backward):
        spec = self.reference_spec(n, 6)
        rng = np.random.default_rng(81)
        steps = StepSolver(spec, random_control(spec, rng))
        assert steps._schur is not None
        init, source = rng.standard_normal((n, k)), rng.standard_normal((6, n, k))
        block = steps.march(init, source, backward=backward)
        for j in range(k):
            single = steps.march(init[:, j], source[..., j], backward=backward)
            assert np.array_equal(block.values[..., j], single.values)

    def test_alternating_corners_keep_the_maximum_principle(self):
        # the maximum-principle suite's adversarial control at n = 127:
        # exactly nonnegative, and within the per-step envelope
        spec = self.reference_spec(127, 256)
        vals = np.empty((256, spec.grid.n_omega))
        vals[0::2], vals[1::2] = spec.vmax, spec.vmin
        v = ControlField(vals, spec.grid, spec.vmin, spec.vmax)
        rho = solve_state(spec, v)
        assert StepSolver(spec, v)._schur is not None
        assert rho.values.min() >= 0.0
        dt, sup0 = spec.grid.dt, np.max(np.abs(spec.rho0))
        bounds = (1.0 - dt * v.theta) ** (-np.arange(257)) * sup0
        assert np.all(np.max(np.abs(rho.values), axis=1) <= bounds * (1 + 1e-12))

    @pytest.mark.parametrize("outside", [1, 0], ids=["one-node-outside", "all-nodes"])
    def test_window_edges(self, outside, factored):
        # one node off the window is a 1 x 1 off-window block; a window of
        # every node has none, and the build stays dense, solving exactly as
        # scipy's checked Cholesky does
        n = pdesolve.N_SCHUR + 3
        dx = 2.0 / (n + 1)
        spec = make_spec(n=n, nt=8, window=(-1.0 + (outside + 0.5) * dx, 1.0),
                         rho0=np.abs(np.random.default_rng(82).standard_normal(n)))
        assert spec.grid.n_omega == n - outside
        rng = np.random.default_rng(83)
        v = random_control(spec, rng)
        steps = StepSolver(spec, v)
        assert (steps._schur is None) == (outside == 0)
        assert [M.shape[0] for M in factored] == [1] * outside + [n - outside] * 8
        source = rng.standard_normal((8, n))
        for backward in (False, True):
            got = steps.march(spec.rho0, source, backward=backward).values
            want = dense_reference_march(spec, v, spec.rho0, source, backward)
            if outside:
                assert relative_gap(got, want) <= SCHUR_GAP
            else:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("n,outside", [(pdesolve.N_SCHUR, None), (127, None), (255, None),
                                           (pdesolve.N_SCHUR + 3, 1)])
    def test_the_sign_structure_is_exact(self, n, outside):
        # B^-1 >= 0, X^T <= 0 and K's off-diagonal <= 0 hold exactly in
        # floating point, not only to round-off: every row of S has one sign,
        # which is what keeps a nonnegative solve exactly nonnegative
        if outside is None:
            spec = self.reference_spec(n, 4)
        else:
            dx = 2.0 / (n + 1)
            spec = make_spec(n=n, nt=4, window=(-1.0 + (outside + 0.5) * dx, 1.0))
        StepSolver(spec, constant_control(spec.grid, 0.4, spec.vmin, spec.vmax))
        part, n_omega = spec._schur, spec.grid.n_omega
        n_off = n - n_omega
        assert outside is None or n_off == outside
        assert part.S.shape == (n, n_off)
        assert part.S.flags.c_contiguous and np.array_equal(part.S[n_off:], part.X.T)
        assert part.S[:n_off].min() >= 0.0 and part.S[n_off:].max() <= 0.0
        assert part.K[~np.eye(n_omega, dtype=bool)].max() <= 0.0

    def test_guards(self):
        # dt = 1/512 on the reference spec: sup 300 puts dt*theta past 1/2
        spec = self.reference_spec(127, 256)
        v = constant_control(spec.grid, 300.0, spec.vmin, spec.vmax)
        with pytest.raises(StabilityError, match="stability margin"):
            StepSolver(spec, v)
        with pytest.raises(ValueError, match="must be 0 or at least"):
            StepSolver(spec, v, shift=1.0)
        assert StepSolver(spec, v, shift=v.sup)._schur is not None

    def test_the_spec_part_is_computed_once_at_the_first_build(self, factored):
        spec = self.reference_spec(127, 8, target=np.ones(127))
        spec.operator
        assert spec._schur is None and not factored
        rng = np.random.default_rng(84)
        u = random_control(spec, rng)
        e = kkt_residual(spec, u)
        part = spec._schur
        # B and the 8 levels for the state; the adjoint's build after it and
        # e.steps take those factors from the spare block and factor nothing
        assert len(factored) == 9
        held = e.steps
        assert len(factored) == 9 and held._schur is part
        StepSolver(spec, random_control(spec, rng))
        assert len(factored) == 17 and spec._schur is part
        # with_data shares the computed part; replace makes a spec of its own
        assert spec.with_data(spec.rho0, spec.rho_target)._schur is part
        assert replace(spec)._schur is None

    def test_a_shifted_build_computes_its_own_part(self, factored):
        spec = self.reference_spec(129, 8)
        rng = np.random.default_rng(85)
        v = random_control(spec, rng)
        StepSolver(spec, v)
        part = spec._schur
        factored.clear()
        f = rng.standard_normal((8, 129))
        shifted = StepSolver(spec, v, shift=v.sup)
        assert shifted._schur is not part and spec._schur is part
        assert len(factored) == 9
        got = shifted.march(spec.rho0, f).values
        want = dense_reference_march(spec, v, spec.rho0, f, shift=v.sup)
        assert relative_gap(got, want) <= SCHUR_GAP


def signed_zero_control(spec):
    """Rows of 0.0 and of -0.0: two distinct levels of equal values."""
    vals = np.zeros((spec.grid.nt, spec.grid.n_omega))
    vals[::3] = -0.0
    return ControlField(vals, spec.grid, spec.vmin, spec.vmax)


class TestLevelFactors:
    """A build writes every distinct level's step matrix into its block in
    one broadcast and factors each in place; on both step paths the factors
    are bitwise those of each level's matrix factored alone, and a solve
    takes only a level 1..nt.  Each test starts from an empty spare."""

    @pytest.fixture(autouse=True)
    def empty_spare(self, monkeypatch):
        monkeypatch.setattr(pdesolve, "_spare", {})

    @staticmethod
    def spec_on(path):
        n = 24 if path == "dense" else 127
        return make_spec(n=n, nt=8, window=(-0.5, 0.5))

    @staticmethod
    def factored_alone(steps, row):
        """The level's matrix on its own, in the Fortran layout potrf
        overwrites, factored by the same potrf call."""
        grid, dt = steps.spec.grid, steps.spec.grid.dt
        if steps._schur is None:
            M = np.asfortranarray(np.eye(grid.n) + dt * steps.spec.operator.matrix)
            idx = grid.omega_indices
        else:
            M, idx = np.array(steps._schur.K, order="F"), np.arange(grid.n_omega)
        M[idx, idx] -= dt * row
        return fracop.cho_factor(M)

    @pytest.mark.parametrize("kind", ["varying", "constant", "blocks", "alternating",
                                      "signed-zero"])
    @pytest.mark.parametrize("path", ["dense", "schur"])
    def test_factors_are_each_level_factored_alone(self, path, kind, factored):
        rng = np.random.default_rng(87)
        spec = self.spec_on(path)
        v = signed_zero_control(spec) if kind == "signed-zero" else step_control(kind, spec, rng)
        steps = StepSolver(spec, v)
        assert (steps._schur is None) == (path == "dense")
        distinct = len({row.tobytes() for row in v.values})
        # the Schur path's first build also factors B
        assert len(factored) == distinct + (path == "schur")
        for level, row in enumerate(v.values, start=1):
            assert np.array_equal(steps._factors[level - 1], self.factored_alone(steps, row))
        # a build for the same matrices takes the dead block's factors and
        # calls no potrf
        factors = [f.copy() for f in steps._factors]
        del steps
        factored.clear()
        again = StepSolver(spec, v)
        assert not factored
        assert all(np.array_equal(a, b) for a, b in zip(again._factors, factors))

    @pytest.mark.parametrize("level", [0, -1, 9, 100])
    @pytest.mark.parametrize("path", ["dense", "schur"])
    def test_a_level_outside_one_to_nt_is_refused(self, path, level):
        spec = self.spec_on(path)
        steps = StepSolver(spec, random_control(spec, np.random.default_rng(88)))
        b = np.ones(spec.grid.n)
        with pytest.raises(ValueError, match=rf"level {level} is outside 1\.\.8"):
            steps.solve(level, b)
        # the ends of the range solve their own levels
        first = dense_reference_march(spec, steps.v, b)[1]
        last = dense_reference_march(spec, steps.v, b, backward=True)[8]
        assert relative_gap(steps.solve(1, b), first) <= SCHUR_GAP
        assert relative_gap(steps.solve(8, b), last) <= SCHUR_GAP


class TestFieldContainers:
    def test_time_field_shape_check(self):
        grid = Grid.from_window(-1, 1, 8, (-1, 1), 1.0, 4)
        with pytest.raises(ValueError):
            TimeField(np.zeros((4, 8)), grid)

    def test_sup_l2_reads_the_computed_levels(self):
        # level 0 is the datum, not a computed level: a trajectory whose
        # largest snapshot is its datum reports its largest level 1..nt
        grid = Grid.from_window(-1, 1, 8, (-1, 1), 1.0, 4)
        values = np.array([4.0, 1.0, 3.0, 2.0, 1.0])[:, None] * np.ones((5, 8))
        assert TimeField(values, grid).sup_l2() == math.sqrt(grid.dx * 72.0)

    def test_control_shape_and_finite_check(self):
        grid = Grid.from_window(-1, 1, 8, (-1, 1), 1.0, 4)
        with pytest.raises(ValueError):
            ControlField(np.zeros((5, 8)), grid, vmin=-1.0, vmax=1.0)
        bad = np.zeros((4, 8))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            ControlField(bad, grid, vmin=-1.0, vmax=1.0)
        # a control always carries its box
        with pytest.raises(TypeError):
            ControlField(np.zeros((4, 8)), grid)
        # and stores its values in one layout, whatever it was built from
        fortran = np.asfortranarray(np.arange(32.0).reshape(4, 8))
        v = ControlField(fortran, grid, vmin=-1.0, vmax=1.0)
        assert v.values.flags.c_contiguous
        assert np.array_equal(v.values, fortran)

    def test_admissibility_and_theta(self):
        grid = Grid.from_window(-1, 1, 8, (-1, 1), 1.0, 4)
        v = ControlField(0.5 * np.ones((4, 8)), grid, vmin=-1.0, vmax=2.0)
        assert v.theta == 2.0
        assert v.sup == 0.5
        # the stability guard must see the values actually solved, not the box
        assert ControlField(3.0 * np.ones((4, 8)), grid, vmin=-1.0, vmax=1.0).theta == 3.0


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


def _per_row_csv(times, x, values) -> bytes:
    """The exports' bytes by the plain per-row formula."""
    rows = [(t, xi, v) for t, row in zip(times, np.reshape(values, (len(times), len(x))))
            for xi, v in zip(x, row)]
    return ("t,x,value\r\n" + "".join("%.17g,%.17g,%.17g\r\n" % r for r in rows)).encode()


def test_csv_exports_match_the_per_row_formula(tmp_path):
    rng = np.random.default_rng(23)
    spec = make_spec(n=7, nt=5, rho0=rng.standard_normal(7))
    v = random_control(spec, rng)
    rho = solve_state(spec, v)
    rho.values[1, 2:5] = [-0.0, 1e-300, 1.0 / 3.0]
    grid = spec.grid
    export_trajectory_csv(rho, tmp_path / "rho.csv")
    export_control_csv(v, tmp_path / "v.csv")
    assert (tmp_path / "rho.csv").read_bytes() == _per_row_csv(rho.times, grid.nodes,
                                                               rho.values)
    assert (tmp_path / "v.csv").read_bytes() == _per_row_csv(
        grid.dt * np.arange(1, grid.nt + 1), grid.nodes[grid.omega_mask], v.values)
