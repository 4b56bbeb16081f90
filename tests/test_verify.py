"""Harness suites on reduced case counts, check rules, registry coverage,
determinism."""

import dataclasses
import math

import numpy as np
import pytest

from fracctrl import verify
from fracctrl.control import check_coercivity, kkt_residual
from fracctrl.fracop import Grid
from fracctrl.optimize import OptimOptions, fixed_point, projected_gradient
from fracctrl.pdesolve import ControlField, constant_control, solve_sourced, source_vstar_norm
from fracctrl.problem import ProblemSpec, bump_profile
from fracctrl.verify import (
    CLAIMS,
    CheckResult,
    SuiteConfig,
    VerifyReport,
    run_all,
    run_derivative_suite,
    run_estimate_suite,
    run_lipschitz_suite,
    run_maximum_principle_suite,
    run_operator_suite,
    run_optimality_suite,
)

from test_optimize import small_benchmark


def small_suite_config():
    return SuiteConfig(seed=0, mp_cases=6, estimate_cases=4, derivative_cases=2,
                       lipschitz_pairs=2, vi_samples=10, coercivity_samples=6,
                       growth_samples=5, starts=2, spec=small_benchmark())


class TestIndividualSuites:
    def test_operator_suite_passes(self):
        report = run_operator_suite(SuiteConfig())
        assert report.passed

    def test_maximum_principle_suite_passes(self):
        report = run_maximum_principle_suite(SuiteConfig(seed=1, mp_cases=8))
        assert report.passed

    def test_estimate_suite_passes(self):
        report = run_estimate_suite(SuiteConfig(seed=1, estimate_cases=4))
        assert report.passed

    def test_derivative_suite_passes(self):
        report = run_derivative_suite(SuiteConfig(seed=1, derivative_cases=3))
        assert report.passed

    @pytest.mark.parametrize("seed", [149, 171, 582])
    def test_derivative_suite_passes_where_the_directional_derivative_cancels(self, seed):
        # each seed once failed a check that divided by a near-zero pairing:
        # gradient-duality (149), gradient-fd (171), the convex case (582)
        report = run_derivative_suite(SuiteConfig(seed=seed))
        assert report.passed, report.to_text()

    def test_lipschitz_suite_passes(self):
        report = run_lipschitz_suite(SuiteConfig(seed=1, lipschitz_pairs=2))
        assert report.passed

    def test_optimality_suite_passes_on_small_instance(self):
        report = run_optimality_suite(SuiteConfig(spec=small_benchmark(), seed=1, vi_samples=10,
                                                  coercivity_samples=8, growth_samples=5,
                                                  starts=2))
        assert report.passed
        # the small-data instance is in assertion mode
        checks = {c.name: c for c in report.checks}
        for name in ("local-uniqueness", "local-uniqueness-converged",
                     "second-order-sufficient"):
            assert not checks[name].report_only

    def test_optimality_suite_observational_for_large_data(self):
        spec = small_benchmark()
        big = type(spec)(grid=spec.grid, s=spec.s, alpha=spec.alpha, vmin=spec.vmin,
                         vmax=spec.vmax, rho0=10.0 * spec.rho0,
                         rho_target=10.0 * spec.rho_target)
        report = run_optimality_suite(SuiteConfig(spec=big, seed=1, vi_samples=5,
                                                  coercivity_samples=4, growth_samples=3,
                                                  starts=2))
        checks = {c.name: c for c in report.checks}
        for name in ("local-uniqueness", "local-uniqueness-converged",
                     "second-order-sufficient"):
            assert checks[name].report_only


def test_estimate_slack_refinement_trend():
    # the same continuum data on finer time grids: the measured energy ratio
    # stays under the 1.1 slack and settles at first order (changes halve);
    # zero initial data put the sup inside the horizon where nt matters
    rng = np.random.default_rng(77)
    n = 32
    f_profile = rng.standard_normal(n)
    v_profile = rng.uniform(-1.0, 1.0, n)
    ratios = []
    for nt in (64, 128, 256, 512):
        grid = Grid.from_window(a=-1.0, b=1.0, n=n, window=(-0.5, 0.5), T=0.5, nt=nt)
        spec = ProblemSpec(grid=grid, s=0.5, alpha=1.0, vmin=-1.0, vmax=1.0,
                           rho0=np.zeros(n), rho_target=np.zeros(n))
        v = ControlField(np.tile(v_profile[grid.omega_mask], (nt, 1)), grid,
                         vmin=-1.0, vmax=1.0)
        f = np.tile(f_profile, (nt, 1))
        rho = solve_sourced(spec, v, f)
        data = source_vstar_norm(spec, f) ** 2
        ratios.append(rho.sup_l2() ** 2 / (np.exp(2 * v.theta * grid.T) * data))
    assert all(r <= 1.1 for r in ratios)
    steps = np.abs(np.diff(ratios))
    assert np.all(np.diff(steps) < 0)
    assert steps[-1] <= 0.6 * steps[0]


class TestHarness:
    def test_registry_covered_exactly_once(self):
        report = run_all(small_suite_config())
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names))
        assert set(names) == set(CLAIMS)

    def test_deterministic_reports(self):
        a = run_all(small_suite_config())
        b = run_all(small_suite_config())
        assert a.to_text() == b.to_text()

    def test_overall_pass_flag(self):
        report = VerifyReport()
        report.add("operator-weights", 0.0, upper=1e-14)
        assert report.passed
        report.add("operator-symmetry", 1.0, upper=0.0)
        assert not report.passed

    def test_report_only_entries_never_fail(self):
        report = VerifyReport()
        report.add("condition-smallness", -123.0)
        report.add("adjoint-energy-ratio", math.nan)
        assert report.passed
        assert "rule=reported" in report.to_text()

    def test_csv_layout(self, tmp_path):
        report = VerifyReport()
        report.add("operator-weights", 1e-16, upper=1e-14)
        report.add("variational-inequality", -2.0, lower=-1e-8)
        report.add("state-lipschitz", 0.75, 0.5, 2.0)
        report.add("condition-smallness", 0.5)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        assert path.read_text().splitlines() == [
            "check,value,lower,upper,status",
            "operator-weights,9.9999999999999998e-17,,1e-14,pass",
            "variational-inequality,-2,-1e-08,,FAIL",
            "state-lipschitz,0.75,0.5,2,pass",
            "condition-smallness,0.5,,,pass",
        ]

    def test_text_states_each_rule(self):
        report = VerifyReport()
        report.add("operator-weights", 1e-16, upper=1e-14)
        report.add("variational-inequality", -2.0, lower=-1e-8, detail="10 samples")
        report.add("state-lipschitz", 0.75, 0.5, 2.0)
        assert report.to_text().splitlines() == [
            "[pass] operator-weights: value=1e-16 rule=<= 1e-14",
            "[FAIL] variational-inequality: value=-2 rule=>= -1e-08 (10 samples)",
            "[pass] state-lipschitz: value=0.75 rule=in [0.5, 2]",
            "overall: FAIL (2/3)",
        ]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="no-such-suite"):
            SuiteConfig(suites=("no-such-suite",))

    def test_unregistered_check_name_rejected(self):
        report = VerifyReport()
        with pytest.raises(KeyError):
            report.add("not-a-registered-check", 0.0, upper=0.0)


def _check(value, lower=-math.inf, upper=math.inf):
    return CheckResult("operator-weights", "", value, lower, upper)


class TestRules:
    """pass/fail is lower <= value <= upper, or always pass with both sides open."""

    @pytest.mark.parametrize("lower,upper", [(-math.inf, 1e-6), (1e-6, math.inf),
                                             (1e-6, 2.0), (-3.0, 1e-6), (1e-6, 1e-6)])
    def test_value_on_its_bound_passes(self, lower, upper):
        assert _check(1e-6, lower, upper).passed

    @pytest.mark.parametrize("lower,upper", [(-math.inf, 1.0), (0.0, math.inf), (0.5, 2.0)])
    def test_nan_fails_every_bounded_check(self, lower, upper):
        assert not _check(math.nan, lower, upper).passed

    def test_nan_passes_a_report_only_check(self):
        assert _check(math.nan).passed

    @pytest.mark.parametrize("quotient", [math.inf, 0.0, math.nan, 0.4999, 2.0001])
    def test_lipschitz_quotient_outside_its_interval_fails(self, quotient):
        # an infinite base ratio gives 0, an infinite refined one inf, both NaN
        assert not _check(quotient, 0.5, 2.0).passed

    def test_zero_eigenvalue_fails_positive_definiteness(self):
        check = next(c for c in run_operator_suite(SuiteConfig()).checks
                     if c.name == "operator-positive-definite")
        assert dataclasses.replace(check, value=math.ulp(0.0)).passed
        assert not dataclasses.replace(check, value=0.0).passed
        assert not dataclasses.replace(check, value=-1e-300).passed

    def test_inconclusive_coercivity_fails_its_bound(self):
        # away from a stationary point the gradient field is nonzero at every
        # window node, so all are strongly active and the sampled cone is {0};
        # the NaN quotient reported then must fail
        spec = small_benchmark()
        u = constant_control(spec.grid, 0.5, spec.vmin, spec.vmax)
        coercivity = check_coercivity(spec, kkt_residual(spec, u), tau=0.0, n_samples=2)
        assert coercivity.n_used == 0 and math.isnan(coercivity.min_quotient)
        assert not _check(coercivity.min_quotient, lower=-1e-8).passed

    def test_nan_case_reaches_the_check_value(self, monkeypatch):
        # a worst-of over cases must keep a NaN case, wherever it falls:
        # Python's max(0.0, nan) is 0.0 and would pass the check
        real = verify.directional_error
        calls = []

        def nan_once(*args):
            calls.append(args)
            # call 1 is derivative-convex-fd, call 2 the first gradient-fd case
            return math.nan if len(calls) == 2 else real(*args)

        monkeypatch.setattr(verify, "directional_error", nan_once)
        report = run_derivative_suite(small_suite_config())
        check = next(c for c in report.checks if c.name == "gradient-fd")
        assert len(calls) == 1 + small_suite_config().derivative_cases
        assert math.isnan(check.value)
        assert check.status == "FAIL"


def _large_data_instance():
    grid = Grid.from_window(a=-1.0, b=1.0, n=31, window=(-0.5, 0.5), T=0.5, nt=40)
    return ProblemSpec(grid=grid, s=0.5, alpha=0.1, vmin=-1.0, vmax=1.0,
                       rho0=bump_profile(grid, 1.0), rho_target=bump_profile(grid, 0.8))


def _status_runs():
    small = small_benchmark()
    start = constant_control(small.grid, 0.9, small.vmin, small.vmax)
    large = _large_data_instance()
    rng = np.random.default_rng(0)
    random_start = ControlField(rng.uniform(-1.0, 1.0, (large.grid.nt, large.grid.n_omega)),
                                large.grid, vmin=-1.0, vmax=1.0)
    return [
        ("pg-converged", projected_gradient, small, start, dict(kkt_tol=1e-8), "converged"),
        ("pg-max_iters", projected_gradient, small, start, dict(kkt_tol=1e-12, max_iters=1),
         "max_iters"),
        # Armijo can no longer resolve the cost decrease near KKT 1e-9
        ("pg-stalled", projected_gradient, large, random_start, dict(kkt_tol=1e-12), "stalled"),
        ("fp-converged", fixed_point, small, start, dict(kkt_tol=1e-8), "converged"),
        ("fp-max_iters", fixed_point, small, start, dict(kkt_tol=1e-12, max_iters=1),
         "max_iters"),
        ("fp-stalled", fixed_point, small, start, dict(kkt_tol=1e-300), "stalled"),
    ]


@pytest.mark.parametrize("case", _status_runs(), ids=lambda case: case[0])
def test_converged_status_is_the_kkt_bound(case):
    # optimizer-converged and fixed-point-converged read only the final KKT
    # residual against kkt_tol; this pins that the driver's status carries
    # no other information
    _, driver, spec, start, options, status = case
    opts = OptimOptions(**options)
    result = driver(spec, start, opts)
    assert result.status == status
    assert (result.status == "converged") == (result.kkt_final <= opts.kkt_tol)
    # and kkt_residual recomputes the same numbers from the returned fields
    kkt = kkt_residual(spec, result.u, rho=result.rho, q=result.q)
    assert kkt.residual == result.kkt_final
    assert kkt.j == result.j_final


def test_state_adjoint_pairs_come_from_kkt_residual(monkeypatch, tmp_path):
    # the estimate and Lipschitz suites and `solve --adjoint` evaluate each
    # control once through kkt_residual instead of pairing the solvers by hand
    from fracctrl import cli

    evaluated = []

    def counting(spec, u, **known):
        evaluated.append(u)
        return kkt_residual(spec, u, **known)

    monkeypatch.setattr(verify, "kkt_residual", counting)
    monkeypatch.setattr(cli, "kkt_residual", counting)

    run_estimate_suite(SuiteConfig(estimate_cases=2))
    assert len(evaluated) == 2

    spec = verify._lipschitz_instance(16, 32, 0.1)
    rng = np.random.default_rng(5)
    shape = (spec.grid.nt, spec.grid.n_omega)
    pairs = [(rng.uniform(-1, 1, shape), rng.uniform(-1, 1, shape)) for _ in range(2)]
    verify._lipschitz_ratios(spec, pairs)
    assert len(evaluated) == 2 + 4

    config = tmp_path / "run.cfg"
    config.write_text("problem.n = 31\nproblem.nt = 40\n")
    assert cli.main(["solve", "--config", str(config), "--control", "constant(0.3)",
                     "--adjoint", "--out", str(tmp_path / "out")]) == 0
    assert len(evaluated) == 2 + 4 + 1
    assert (tmp_path / "out" / "q.csv").exists()
