"""Time-stepping solvers: eigen-oracle identities, positivity, adjoint duality."""

import math
import re

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from fracctrl import pdesolve
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
                                            ("varying", 0.7), ("blocks", 0.0),
                                            ("alternating", 0.0)])
    def test_solve_equals_checked_cholesky(self, kind, shift, monkeypatch):
        rng = np.random.default_rng(60)
        spec = make_spec(n=24, nt=6)
        v = step_control(kind, spec, rng)
        factored = []
        monkeypatch.setattr(pdesolve, "cho_factor",
                            lambda M, **kw: factored.append(M) or cho_factor(M, **kw))
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
            assert np.array_equal(steps.solve(level, b), cho_solve(cho_factor(M), b))

    def test_build_guards_stability_at_shift_zero(self):
        # dt = 1/60, so a control of sup 40 puts dt*theta at 2/3 > 1/2; a shift
        # of sup|v| makes every step matrix an M-matrix whatever dt is
        spec = make_spec(n=24, nt=30)
        v = constant_control(spec.grid, 40.0, spec.vmin, spec.vmax)
        with pytest.raises(StabilityError, match="stability margin"):
            StepSolver(spec, v)
        StepSolver(spec, v, shift=v.sup)

    def test_build_leaves_operator_matrix_unchanged(self):
        rng = np.random.default_rng(61)
        spec = make_spec(n=24, nt=6)
        before = spec.operator.matrix.copy()
        StepSolver(spec, random_control(spec, rng), shift=0.5)
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
            x = cho_solve(cho_factor(base - dt * np.diag(window)), x + dt * source[k - 1])
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
