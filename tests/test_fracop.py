"""Operator module: weights, Toeplitz assembly, norms, quadrature oracle."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import toeplitz

import fracctrl
from fracctrl import pdesolve
from fracctrl.fracop import (
    Grid,
    InvalidOrderError,
    assemble_operator,
    assemble_weights,
    cho_factor,
    cholesky_solve,
    l2_norm,
    linf_norm,
    normalization_constant,
    quadrature_oracle,
    schur_complement,
    v_seminorm,
    vstar_norm,
)
from fracctrl.pdesolve import StepSolver, random_admissible
from fracctrl.problem import benchmark_problem


def closed_form_constant(s):
    """Value of the operator on (1-x^2)^s_+ over (-1,1): a known constant."""
    return 2.0**(2 * s) * math.gamma(s + 1) * math.gamma(s + 0.5) / math.gamma(0.5)


def in_fresh_interpreter(script):
    """The words script prints, run by a fresh interpreter on this fracctrl:
    another test may already have loaded a module into this one."""
    src = Path(fracctrl.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def make_grid(n, a=-1.0, b=1.0, T=1.0, nt=4, window=None):
    if window is None:
        window = (a, b)
    return Grid.from_window(a=a, b=b, n=n, window=window, T=T, nt=nt)


class TestGrid:
    def test_basic_fields(self):
        g = make_grid(9)
        assert g.dx == pytest.approx(0.2)
        assert g.nodes[0] == pytest.approx(-0.8)
        assert g.nodes[-1] == pytest.approx(0.8)
        assert g.dt == 0.25
        assert g.n_omega == 9

    def test_window_mask(self):
        # nodes at -0.8..0.8 step 0.2; the open window (-0.5, 0.5) holds five
        g = make_grid(9, window=(-0.5, 0.5))
        assert np.array_equal(g.omega_indices, np.arange(2, 7))

    @pytest.mark.parametrize("kwargs", [
        dict(a=1.0, b=-1.0, n=4, omega_mask=np.ones(4, bool), T=1.0, nt=2),
        dict(a=-1.0, b=1.0, n=0, omega_mask=np.ones(0, bool), T=1.0, nt=2),
        dict(a=-1.0, b=1.0, n=4, omega_mask=np.zeros(4, bool), T=1.0, nt=2),
        dict(a=-1.0, b=1.0, n=4, omega_mask=np.ones(4, bool), T=1.0, nt=0),
        dict(a=-1.0, b=1.0, n=4, omega_mask=np.ones(3, bool), T=1.0, nt=2),
        dict(a=-np.inf, b=1.0, n=4, omega_mask=np.ones(4, bool), T=1.0, nt=2),
        dict(a=-1.0, b=np.inf, n=4, omega_mask=np.ones(4, bool), T=1.0, nt=2),
        dict(a=-1.0, b=1.0, n=4, omega_mask=np.ones(4, bool), T=np.inf, nt=2),
    ])
    def test_invalid_grids_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Grid(**kwargs)


class TestWeights:
    def test_half_order_closed_form(self):
        g = assemble_weights(0.5, 3)
        expected = np.array([4 / math.pi, -4 / (3 * math.pi), -4 / (15 * math.pi)])
        assert np.max(np.abs(g - expected)) <= 1e-14

    def test_classical_laplacian_limit(self):
        # s = 1 recovers the three-point stencil [2, -1, 0, ...]
        g = assemble_weights(1.0, 5)
        assert np.allclose(g, [2.0, -1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_partial_sums_positive_and_shrinking(self):
        # direct-summation oracle: sum_{|k| <= K} g_|k| is a small positive
        # tail remainder that decreases as the window grows
        g = assemble_weights(0.5, 401)
        s_small = g[0] + 2 * g[1:51].sum()
        s_big = g[0] + 2 * g[1:401].sum()
        assert s_small > 0
        assert s_big > 0
        assert s_big < s_small

    def test_sign_pattern_random_orders(self):
        rng = np.random.default_rng(7)
        for s in rng.uniform(1e-3, 1 - 1e-3, size=1000):
            g = assemble_weights(s, 201)
            assert g[0] > 0
            assert np.all(g[1:] < 0)

    @pytest.mark.parametrize("s", [0.0, -0.3, 1.2])
    def test_invalid_order_rejected(self, s):
        with pytest.raises(InvalidOrderError):
            assemble_weights(s, 4)


class TestOperator:
    def test_one_by_one(self):
        grid = make_grid(1)
        op = assemble_operator(grid, 0.5)
        g0 = 4 / math.pi
        assert op.matrix.shape == (1, 1)
        assert op.matrix[0, 0] == pytest.approx(grid.dx**-1.0 * g0)
        assert op.matrix[0, 0] > 0

    @pytest.mark.parametrize("n", [1, 2, 9, 127, 1023])
    @pytest.mark.parametrize("s", [0.05, 0.5, 0.93])
    def test_matrix_is_scipy_toeplitz_bit_for_bit(self, n, s):
        grid = make_grid(n)
        op = assemble_operator(grid, s)
        expected = grid.dx ** (-2.0 * s) * toeplitz(assemble_weights(s, n))
        assert op.matrix.tobytes() == expected.tobytes()
        assert op.matrix.flags.c_contiguous

    def test_exact_symmetry(self):
        op = assemble_operator(make_grid(40), 0.7)
        assert np.array_equal(op.matrix, op.matrix.T)

    @pytest.mark.parametrize("n,s", [(16, 0.25), (64, 0.5), (128, 0.75), (256, 0.5)])
    def test_positive_definite(self, n, s):
        # dense eigensolve oracle
        op = assemble_operator(make_grid(n), s)
        assert np.linalg.eigvalsh(op.matrix).min() > 0

    def test_m_matrix_row_sums(self):
        op = assemble_operator(make_grid(64), 0.4)
        assert np.all(np.sum(op.matrix, axis=1) >= -1e-12 * np.abs(op.matrix).max())
        off = op.matrix[~np.eye(64, dtype=bool)]
        assert np.all(off < 0)

    def test_apply_zero(self):
        op = assemble_operator(make_grid(10), 0.5)
        assert np.array_equal(op.apply(np.zeros(10)), np.zeros(10))

    def test_apply_dimension_mismatch(self):
        op = assemble_operator(make_grid(10), 0.5)
        with pytest.raises(ValueError):
            op.apply(np.zeros(11))

    def test_pairing_symmetry(self):
        rng = np.random.default_rng(3)
        op = assemble_operator(make_grid(50), 0.6)
        norm_a = np.linalg.norm(op.matrix, 2)
        for _ in range(5):
            u = rng.standard_normal(50)
            v = rng.standard_normal(50)
            lhs = np.dot(op.apply(u), v)
            rhs = np.dot(u, op.apply(v))
            assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v) * norm_a

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_closed_form_profile_refinement(self, s):
        # max interior error against the closed-form constant decreases
        # monotonically; nodes within 10% of the boundary excluded
        c = closed_form_constant(s)
        errs = []
        for n in (32, 64, 128, 256):
            grid = make_grid(n)
            op = assemble_operator(grid, s)
            x = grid.nodes
            u = np.maximum(1 - x**2, 0.0)**s
            keep = np.abs(x) <= 0.8
            errs.append(np.max(np.abs(op.apply(u)[keep] - c)))
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


class TestQuadratureOracle:
    def test_zero_function(self):
        assert quadrature_oracle(lambda y: 0.0, 0.1, 0.5, 1e-3) == 0.0

    def test_normalization_half(self):
        assert abs(normalization_constant(0.5) - 1 / math.pi) <= 1e-14

    def test_normalization_rejects_endpoint(self):
        with pytest.raises(InvalidOrderError):
            normalization_constant(1.0)

    def test_sqrt_profile_at_origin(self):
        u = lambda y: math.sqrt(max(1 - y**2, 0.0))
        val = quadrature_oracle(u, 0.0, 0.5, 1e-3)
        assert abs(val - 1.0) <= 1e-3

    @pytest.mark.parametrize("s,x", [(0.25, 0.3), (0.75, -0.4)])
    def test_profile_matches_closed_form(self, s, x):
        u = lambda y: max(1 - y**2, 0.0)**s
        val = quadrature_oracle(u, x, s, 1e-3)
        assert val == pytest.approx(closed_form_constant(s), rel=1e-4)

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            quadrature_oracle(lambda y: 0.0, 0.0, 0.5, -1.0)

    def test_quadpack_loads_on_first_call(self):
        # a fresh interpreter: another test may already have loaded it here
        script = ("import sys, fracctrl, fracctrl.cli, fracctrl.verify\n"
                  "print('scipy.integrate' in sys.modules)\n"
                  "fracctrl.quadrature_oracle(lambda y: 1.0 - y * y, 0.0, 0.5, 1e-3)\n"
                  "print('scipy.integrate' in sys.modules)\n")
        assert in_fresh_interpreter(script) == ["False", "True"]

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_agreement_with_matrix_operator(self, s):
        # smooth compactly supported profile; agreement at 5 interior points
        # improves under refinement and stays inside the dx^min(2-2s,1) envelope
        u = lambda y: math.exp(-y**2) * max(1 - y**2, 0.0)**2
        points = [0.0, 0.31, -0.52, 0.7, -0.11]
        prev = None
        for n in (64, 128, 256):
            grid = make_grid(n)
            op = assemble_operator(grid, s)
            uu = np.array([u(xi) for xi in grid.nodes])
            au = op.apply(uu)
            worst = 0.0
            for p in points:
                i = int(round((p - grid.a) / grid.dx)) - 1
                ref = quadrature_oracle(u, grid.nodes[i], s, grid.dx / 4)
                worst = max(worst, abs(au[i] - ref))
            assert worst <= 0.5 * grid.dx ** min(2 - 2 * s, 1.0)
            if prev is not None:
                assert worst < prev
            prev = worst


class TestImportFootprint:
    """Importing fracctrl loads numpy only; scipy's LAPACK loads at the first
    factorization or solve."""

    def test_lapack_loads_on_first_solve(self):
        script = ("import sys, fracctrl, fracctrl.cli, fracctrl.verify\n"
                  "from fracctrl.pdesolve import constant_control\n"
                  "print('scipy.linalg' in sys.modules)\n"
                  "spec = fracctrl.benchmark_problem(n=9, nt=4)\n"
                  "print('scipy.linalg' in sys.modules)\n"
                  "fracctrl.solve_state(spec, constant_control(spec.grid, 0.3, spec.vmin, "
                  "spec.vmax))\n"
                  "print('scipy.linalg' in sys.modules)\n")
        assert in_fresh_interpreter(script) == ["False", "False", "True"]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="on one usable CPU run_all starts no workers")
    def test_verify_workers_leave_the_parent_without_lapack(self):
        script = ("import sys\n"
                  "from fracctrl.verify import SuiteConfig, run_all\n"
                  "report = run_all(SuiteConfig(suites=('operator', 'derivatives'), "
                  "derivative_cases=2))\n"
                  "print(report.passed, 'scipy.linalg' in sys.modules)\n")
        assert in_fresh_interpreter(script) == ["True", "False"]


class TestNorms:
    def test_zero_vector(self):
        op = assemble_operator(make_grid(8), 0.5)
        zero = np.zeros(8)
        vals = (l2_norm(op.dx, zero), linf_norm(zero), v_seminorm(op, zero), vstar_norm(op, zero))
        assert vals == (0.0, 0.0, 0.0, 0.0)

    def test_one_node_closed_forms(self):
        grid = make_grid(1)
        s = 0.5
        op = assemble_operator(grid, s)
        u = np.array([3.0])
        a00 = grid.dx ** (-2 * s) * (4 / math.pi)
        assert v_seminorm(op, u) == pytest.approx(3.0 * math.sqrt(grid.dx * a00))
        assert vstar_norm(op, u) == pytest.approx(3.0 * math.sqrt(grid.dx / a00))
        # product saturates the duality pairing in the 1x1 case
        assert v_seminorm(op, u) * vstar_norm(op, u) == pytest.approx(grid.dx * 9.0)

    def test_cauchy_schwarz_duality(self):
        rng = np.random.default_rng(5)
        grid = make_grid(40)
        op = assemble_operator(grid, 0.5)
        for _ in range(20):
            u = rng.standard_normal(40)
            f = rng.standard_normal(40)
            pairing = abs(grid.dx * np.dot(u, f))
            assert pairing <= v_seminorm(op, u) * vstar_norm(op, f) * (1 + 1e-12)

    def test_dual_norm_is_supremum(self):
        # sup_u dx f.u / |u|_V equals |f|_V*, attained at u = A^(-1) f
        rng = np.random.default_rng(6)
        grid = make_grid(32)
        op = assemble_operator(grid, 0.6)
        f = rng.standard_normal(32)
        target = vstar_norm(op, f)
        best = 0.0
        for _ in range(1000):
            u = rng.standard_normal(32)
            best = max(best, grid.dx * np.dot(f, u) / v_seminorm(op, u))
        u_star = op.solve(f)
        best = max(best, grid.dx * np.dot(f, u_star) / v_seminorm(op, u_star))
        assert best <= target * (1 + 1e-12)
        assert best == pytest.approx(target, rel=1e-6)

    @pytest.mark.parametrize("n, nt", [(64, 256), (129, 512)])
    def test_stack_is_the_root_of_the_summed_row_squares(self, n, nt):
        rng = np.random.default_rng(n)
        op = assemble_operator(make_grid(n, nt=nt), 0.5)
        rows = rng.standard_normal((nt, n))
        # the per-row loop the stack forms replace
        v_ref = math.sqrt(sum(op.dx * float(np.dot(r, op.matrix @ r)) for r in rows))
        d_ref = math.sqrt(sum(op.dx * float(np.dot(r, op.solve(r))) for r in rows))
        assert v_seminorm(op, rows) == pytest.approx(v_ref, rel=1e-14, abs=0)
        assert vstar_norm(op, rows) == pytest.approx(d_ref, rel=1e-14, abs=0)
        zeros = np.zeros((nt, n))
        assert (v_seminorm(op, zeros), vstar_norm(op, zeros)) == (0.0, 0.0)

    @pytest.mark.parametrize("shape", [(7,), (9,), (3, 7), (2, 8, 8)])
    def test_stack_of_other_rows_is_refused(self, shape):
        op = assemble_operator(make_grid(8), 0.5)
        for norm in (v_seminorm, vstar_norm):
            with pytest.raises(ValueError, match="rows of length 8"):
                norm(op, np.ones(shape))

    def test_l2_and_linf(self):
        assert l2_norm(0.5, np.array([3.0, 4.0])) == pytest.approx(math.sqrt(12.5))
        assert linf_norm(np.array([-3.0, 2.0])) == 3.0


class TestCholesky:
    """cho_factor leaves the lower factor L of a = L L^T in a's lower
    triangle and the input in its strict upper one, which cholesky_solve
    never reads; StepSolver's factors and FractionalOperator's are made and
    used through these two functions."""

    def assert_upper_triangle_unread(self, factor, solve, n, rng):
        b, block = rng.standard_normal(n), rng.standard_normal((n, 5))
        before = solve(b), solve(block)
        factor[np.triu_indices(n, 1)] = np.nan
        after = solve(b), solve(block)
        assert all(np.array_equal(x, y) for x, y in zip(before, after))

    def test_step_factor_keeps_the_upper_triangle_and_never_reads_it(self, monkeypatch):
        rng = np.random.default_rng(70)
        spec = benchmark_problem(n=24, nt=6)
        inputs, factors = [], []

        def recorded(a):
            inputs.append(a.copy())
            factors.append(cho_factor(a))
            return factors[-1]

        monkeypatch.setattr(pdesolve, "cho_factor", recorded)
        steps = StepSolver(spec, random_admissible(spec, rng))
        assert len(factors) == 6
        upper = np.triu_indices(24, 1)
        for level, (a, factor) in enumerate(zip(inputs, factors), start=1):
            assert np.array_equal(factor[upper], a[upper])
            self.assert_upper_triangle_unread(
                factor, lambda rhs: steps.solve(level, rhs), 24, rng)

    def test_operator_factor_keeps_the_upper_triangle_and_never_reads_it(self, monkeypatch):
        rng = np.random.default_rng(71)
        op = assemble_operator(make_grid(24), 0.5)
        factors = []
        monkeypatch.setattr(fracctrl.fracop, "cho_factor",
                            lambda a: factors.append(cho_factor(a)) or factors[-1])
        op.solve(np.ones(24))
        upper = np.triu_indices(24, 1)
        assert len(factors) == 1 and np.array_equal(factors[0][upper], op.matrix[upper])
        self.assert_upper_triangle_unread(factors[0], op.solve, 24, rng)

    @pytest.mark.parametrize("n", [9, 24, 64, 127, 129])
    def test_block_column_is_bitwise_its_single_solve(self, n):
        # OpenBLAS, not LAPACK, makes column j of a k-column solve bitwise the
        # solve of column j alone, also past its switch to threads at n = 128;
        # block marches and block Hessian actions rest on it
        rng = np.random.default_rng(n)
        spd = np.eye(n) + assemble_operator(make_grid(n), 0.5).matrix
        factor = cho_factor(np.asfortranarray(spd))
        for k in (1, 2, 5, 17, 64):
            block = rng.standard_normal((n, k))
            x = cholesky_solve(factor, block)
            assert x.shape == (n, k)
            for j in range(k):
                assert np.array_equal(x[:, j], cholesky_solve(factor, block[:, j]))


def test_schur_complement_is_the_block_formula():
    # the off-window block of the reference step matrix at n = 127 and its
    # coupling to the window: X = B^-1 C and K = D - C^T X to round-off
    spec = benchmark_problem(n=127, nt=200)
    m = np.eye(127) + spec.grid.dt * spec.operator.matrix
    off, win = ~spec.grid.omega_mask, spec.grid.omega_mask
    b, c, d = m[np.ix_(off, off)], m[np.ix_(off, win)], m[np.ix_(win, win)]
    x, k = schur_complement(cho_factor(np.asfortranarray(b)), c, d)
    want_x = np.linalg.solve(b, c)
    assert np.max(np.abs(x - want_x)) <= 1e-14 * np.max(np.abs(want_x))
    assert np.max(np.abs(k - (d - c.T @ want_x))) <= 1e-14 * np.max(np.abs(d))


class TestCoupling:
    """The Schur step path multiplies a block by its two coupling matrices
    as one stacked matrix-vector product (pdesolve._coupled); its block
    march columns are bitwise the single marches only if each column of
    that product is bitwise the matrix-vector product of the column alone."""

    # (n_omega, n_B) of the coupling at n = 127, 129, 255, 511 and 1023 on
    # the reference window; the transpose is the other factor's shape
    @pytest.mark.parametrize("shape", [(63, 64), (65, 64), (127, 128), (255, 256), (511, 512)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_block_column_is_bitwise_its_single_product(self, shape, order):
        rng = np.random.default_rng(shape[0])
        for a in (rng.standard_normal(shape), rng.standard_normal(shape[::-1])):
            a = np.asarray(a, order=order)
            for k in (1, 2, 17, 64):
                block = rng.standard_normal((a.shape[1], k))
                y = pdesolve._coupled(a, block)
                assert y.shape == (a.shape[0], k)
                for j in range(k):
                    assert np.array_equal(y[:, j], pdesolve._coupled(a, block[:, j]))
                    assert np.array_equal(y[:, j], a @ block[:, j])
