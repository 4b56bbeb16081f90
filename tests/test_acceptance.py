"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured margins.  Criteria run at their pinned sizes (n up to 256,
nt up to 512), so this module is slower than the unit suites.
"""

import math

import numpy as np

from fracctrl.control import (
    check_coercivity,
    cost_from_state,
    gradient,
    hessian_action,
    hessian_bilinear,
    kkt_residual,
    uniqueness_condition,
)
from fracctrl.fracop import (
    Grid,
    assemble_operator,
    assemble_weights,
    l2_norm,
    normalization_constant,
)
from fracctrl.optimize import (
    OptimOptions,
    fixed_point,
    multistart_uniqueness,
    projected_gradient,
)
from fracctrl.pdesolve import ControlField, constant_control, solve_linearized, solve_state
from fracctrl.problem import ProblemSpec, benchmark_problem
from fracctrl.verify import (
    SuiteConfig,
    run_estimate_suite,
    run_lipschitz_suite,
    sampled_vi_min,
)

from test_optimize import max_pairwise, uniqueness_tolerance


def report(num, name, ok, detail):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def random_nonneg_cases(seed, n_cases, nt):
    """Random nonnegative data and admissible controls on the standard box."""
    rng = np.random.default_rng(seed)
    grid = Grid.from_window(a=-1.0, b=1.0, n=64, window=(-0.5, 0.5), T=0.5, nt=nt)
    for _ in range(n_cases):
        rho0 = np.abs(rng.standard_normal(grid.n)) * rng.uniform(0.1, 2.0)
        spec = ProblemSpec(grid=grid, s=0.5, alpha=1.0, vmin=-1.0, vmax=1.0,
                           rho0=rho0, rho_target=np.zeros(grid.n))
        v = ControlField(rng.uniform(-1.0, 1.0, (grid.nt, grid.n_omega)), grid,
                         vmin=-1.0, vmax=1.0)
        yield spec, v


def derivative_cases(seed, n_cases):
    rng = np.random.default_rng(seed)
    grid = Grid.from_window(a=-1.0, b=1.0, n=20, window=(-0.6, 0.6), T=0.5, nt=32)
    for _ in range(n_cases):
        spec = ProblemSpec(grid=grid, s=0.5, alpha=1.0, vmin=-1.0, vmax=1.0,
                           rho0=rng.standard_normal(grid.n),
                           rho_target=rng.standard_normal(grid.n))
        v = ControlField(rng.uniform(-0.7, 0.7, (grid.nt, grid.n_omega)), grid,
                         vmin=-1.0, vmax=1.0)
        w = rng.standard_normal(v.values.shape)
        yield spec, v, w


def test_criterion_01_operator_normalization():
    errs_max = []
    l2_err = None
    for n in (64, 128, 256):
        grid = Grid.from_window(-1.0, 1.0, n, (-1.0, 1.0), 1.0, 1)
        op = assemble_operator(grid, 0.5)
        x = grid.nodes
        u = np.sqrt(np.maximum(1.0 - x**2, 0.0))
        keep = np.abs(x) <= 0.8  # boundary-adjacent 10% of the domain excluded
        err = op.apply(u)[keep] - 1.0
        errs_max.append(float(np.max(np.abs(err))))
        if n == 256:
            l2_err = l2_norm(grid.dx, err)
    decreasing = all(b < a for a, b in zip(errs_max, errs_max[1:]))
    report(1, "operator normalization",
           l2_err <= 1e-3 and decreasing,
           f"L2 error at n=256 {l2_err:.3e} <= 1e-3; max errors "
           + " -> ".join(f"{e:.3e}" for e in errs_max) + " decreasing")


def test_criterion_02_weight_exactness():
    g = assemble_weights(0.5, 3)
    ref = np.array([4 / math.pi, -4 / (3 * math.pi), -4 / (15 * math.pi)])
    werr = float(np.max(np.abs(g - ref)))
    cerr = abs(normalization_constant(0.5) - 1 / math.pi)
    report(2, "weight exactness", werr <= 1e-14 and cerr <= 1e-14,
           f"weight error {werr:.2e} <= 1e-14, constant error {cerr:.2e} <= 1e-14")


def test_criterion_03_maximum_principle():
    failures = 0
    worst = 0.0
    for spec, v in random_nonneg_cases(seed=103, n_cases=100, nt=256):
        assert spec.grid.dt * v.theta <= 0.5
        rho = solve_state(spec, v)
        floor = float(rho.values.min()) / float(np.max(spec.rho0))
        worst = min(worst, floor)
        if floor < -1e-12:
            failures += 1
    report(3, "discrete maximum principle", failures == 0,
           f"100 cases, {failures} failures, worst min(rho)/sup(rho0) = {worst:.2e}")


def test_criterion_04_sup_norm_bound():
    failures = 0
    worst_growth = 0.0
    for spec, v in random_nonneg_cases(seed=104, n_cases=100, nt=512):
        rho = solve_state(spec, v)
        sup0 = float(np.max(spec.rho0))
        sups = np.max(np.abs(rho.values), axis=1)
        envelope = (1.0 - spec.grid.dt * v.theta) ** (-np.arange(spec.grid.nt + 1)) * sup0
        if np.any(sups > envelope * (1 + 1e-12)):
            failures += 1
        worst_growth = max(worst_growth,
                           float(sups.max()) / (math.exp(v.theta * spec.grid.T) * sup0))
    report(4, "discrete sup-norm bound", failures == 0 and worst_growth <= 1.05,
           f"100 cases at nt=512, {failures} envelope failures, "
           f"worst exponential ratio {worst_growth:.4f} <= 1.05")


def test_criterion_05_energy_estimates():
    rep = run_estimate_suite(SuiteConfig(seed=105, estimate_cases=50))
    energy = [c for c in rep.checks if c.name in
              ("shifted-energy-sup", "shifted-energy-dissipation",
               "sourced-energy-sup", "sourced-energy-dissipation")]
    ok = all(c.passed for c in energy)
    detail = ", ".join(f"{c.name}={c.value:.3f}" for c in energy)
    report(5, "energy estimates (slack 1.1, n=64, nt=256, 50 cases)", ok, detail)


def test_criterion_06_gradient_exactness():
    worst_fd = worst_dual = 0.0
    for spec, v, w in derivative_cases(seed=106, n_cases=20):
        g, rho, q = gradient(spec, v)
        directional = spec.control_dot(g, w)
        eps = 1e-5

        def j_at(vals):
            fld = v.like(vals)
            return cost_from_state(spec, fld, solve_state(spec, fld))

        fd = (j_at(v.values + eps * w) - j_at(v.values - eps * w)) / (2 * eps)
        worst_fd = max(worst_fd, abs(directional - fd) / abs(directional))

        y = solve_linearized(spec, v, w[None], rho)
        lhs = spec.grid.dx * float(np.dot(rho.final - spec.rho_target, y.final[:, 0]))
        rhs = spec.control_dot(w * rho.restrict_omega(), q.restrict_omega())
        worst_dual = max(worst_dual, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    report(6, "gradient exactness", worst_fd <= 1e-6 and worst_dual <= 1e-12,
           f"20 instances: fd error {worst_fd:.2e} <= 1e-6, "
           f"duality error {worst_dual:.2e} <= 1e-12")


def test_criterion_07_hessian():
    worst_sym = worst_fd = 0.0
    rng = np.random.default_rng(107)
    for spec, v, w in derivative_cases(seed=207, n_cases=20):
        d = rng.standard_normal(w.shape)
        e = kkt_residual(spec, v)
        h_wd = hessian_bilinear(e, w, d)
        h_dw = hessian_bilinear(e, d, w)
        # over the Cauchy-Schwarz scale min(|Hw||d|, |Hd||w|), which cannot
        # cancel as |<Hw,d>| can
        hw, hd = hessian_action(e, np.stack([w, d]))
        cs = min(spec.control_norm(hw) * spec.control_norm(d),
                 spec.control_norm(hd) * spec.control_norm(w))
        worst_sym = max(worst_sym, abs(h_wd - h_dw) / cs)

        h_ww = hessian_bilinear(e, w, w)
        eps = 1e-3

        def j_at(vals):
            fld = v.like(vals)
            return cost_from_state(spec, fld, solve_state(spec, fld))

        sd = (j_at(v.values + eps * w) - 2 * j_at(v.values)
              + j_at(v.values - eps * w)) / eps**2
        worst_fd = max(worst_fd, abs(h_ww - sd) / abs(h_ww))
    report(7, "hessian symmetry and consistency",
           worst_sym <= 1e-13 and worst_fd <= 1e-4,
           f"20 instances: symmetry {worst_sym:.2e} <= 1e-13, "
           f"second differences {worst_fd:.2e} <= 1e-4")


def test_criterion_08_kkt_projection():
    spec = benchmark_problem()
    opts = OptimOptions(kkt_tol=1e-8)
    pg = projected_gradient(spec, constant_control(spec.grid, 0.3, spec.vmin, spec.vmax),
                            opts)
    kkt = kkt_residual(spec, pg.final.u, rho=pg.final.rho)
    rng = np.random.default_rng(108)
    vi = sampled_vi_min(kkt, 100, rng)
    fp = fixed_point(spec, constant_control(spec.grid, -0.2, spec.vmin, spec.vmax),
                     OptimOptions(kkt_tol=1e-8))
    agree = spec.control_norm(pg.final.u.values - fp.final.u.values)
    ok = (pg.status == "converged" and kkt.residual <= 1e-8
          and vi >= -1e-8 and fp.status == "converged" and agree <= 1e-6)
    report(8, "first-order conditions on the reference instance", ok,
           f"kkt {kkt.residual:.2e} <= 1e-8, sampled inequality min {vi:.2e} >= -1e-8, "
           f"solver agreement {agree:.2e} <= 1e-6")


def test_criterion_09_convex_degenerate_case():
    base = benchmark_problem()
    spec = base.with_data(np.zeros(base.grid.n), base.rho_target)
    j_star = 0.5 * spec.grid.dx * float(np.dot(spec.rho_target, spec.rho_target))
    rng = np.random.default_rng(109)
    worst_norm = 0.0
    worst_jerr = 0.0
    for _ in range(5):
        start = ControlField(rng.uniform(-1, 1, (spec.grid.nt, spec.grid.n_omega)),
                             spec.grid, spec.vmin, spec.vmax)
        res = projected_gradient(spec, start, OptimOptions(kkt_tol=1e-10))
        assert res.status == "converged"
        worst_norm = max(worst_norm, spec.control_norm(res.final.u.values))
        worst_jerr = max(worst_jerr, abs(res.j_final - j_star))
    report(9, "convex degenerate case", worst_norm <= 1e-8 and worst_jerr <= 1e-12,
           f"5 starts: |u| {worst_norm:.2e} <= 1e-8, |J - J*| {worst_jerr:.2e} <= 1e-12")


def test_criterion_10_second_order_conditions():
    spec = benchmark_problem()
    uniq = uniqueness_condition(spec)
    assert uniq.holds, "smallness condition must hold on the reference instance"
    res = projected_gradient(spec, constant_control(spec.grid, 0.0, spec.vmin, spec.vmax),
                             OptimOptions(kkt_tol=1e-8))
    assert res.status == "converged"
    optimum = kkt_residual(spec, res.final.u)
    sufficient = check_coercivity(optimum, tau=1e-3 * spec.alpha, n_samples=64,
                                  seed=110)
    necessary = check_coercivity(optimum, tau=0.0, n_samples=64, seed=111)
    least_sufficient = sufficient.min() if sufficient.size else math.nan
    least_necessary = necessary.min() if necessary.size else math.nan
    ok = (sufficient.size > 0 and least_sufficient >= 0.5 * spec.alpha
          and necessary.size > 0
          and least_necessary >= -1e-8 * spec.alpha)
    report(10, "second-order conditions", ok,
           f"condition lhs {uniq.lhs:.4f} < alpha=1; critical-cone quotient "
           f"{least_sufficient:.6f} >= 0.5; zero-cone quotient "
           f"{least_necessary:.6f} >= -1e-8")


def test_criterion_11_local_uniqueness():
    spec = benchmark_problem()
    runs = multistart_uniqueness(spec, 8, OptimOptions(kkt_tol=1e-8), seed=112)
    spread, tolerance = max_pairwise(spec, runs), uniqueness_tolerance(spec)
    ok = (uniqueness_condition(spec).holds
          and all(r.status == "converged" for r in runs)
          and spread <= tolerance)
    report(11, "local uniqueness", ok,
           f"8 starts, max pairwise distance {spread:.2e} "
           f"<= {tolerance:.2e}")


def test_criterion_12_lipschitz_stability():
    rep = run_lipschitz_suite(SuiteConfig(seed=113, lipschitz_pairs=50))
    detail = "; ".join(f"{c.name}: value={c.value:.3g} ({c.detail})" for c in rep.checks)
    report(12, "difference-ratio stability and scaling", rep.passed, detail)


def test_criterion_13_verify_determinism(tmp_path):
    from fracctrl.cli import main

    outputs = []
    codes = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        codes.append(main(["verify", "--seed", "7", "--out", str(out)]))
        outputs.append((out / "report.txt").read_bytes()
                       + (out / "report.csv").read_bytes())
    ok = codes == [0, 0] and outputs[0] == outputs[1]
    report(13, "verification determinism", ok,
           f"default config, exit codes {codes}, reports byte-identical: "
           f"{outputs[0] == outputs[1]}")
