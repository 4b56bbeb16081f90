"""Harness suites on reduced case counts, check rules, registry coverage,
determinism."""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracctrl import control, verify
from fracctrl.control import kkt_residual
from fracctrl.fracop import Grid
from fracctrl.optimize import OptimOptions, fixed_point, projected_gradient
from fracctrl.pdesolve import (ControlField, TimeField, constant_control, solve_sourced,
                               source_vstar_norm, window_source)
from fracctrl.problem import ProblemSpec, benchmark_problem, bump_profile
from fracctrl.verify import (
    CLAIMS,
    SUITES,
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


class TestSupEnvelope:
    """sup_envelope_ratios reads the computed levels 1..nt against the datum."""

    def test_the_datum_level_is_not_a_ratio(self):
        # the largest sup is the datum's: level 0 alone would read 1 and exp(-theta T)
        grid = Grid.from_window(a=-1.0, b=1.0, n=6, window=(-0.5, 0.5), T=0.5, nt=4)
        values = np.full((5, 6), 0.5)
        values[0] = 1.0
        theta = 0.8
        step, growth = verify.sup_envelope_ratios(TimeField(values, grid), theta)
        # the worst computed level is the first, one step of 1 - dt*theta from the datum
        assert step == pytest.approx(0.5 * (1.0 - grid.dt * theta), rel=1e-15) and step < 1.0
        assert growth == 0.5 / math.exp(theta * grid.T)
        assert verify.sup_envelope_ratios(TimeField(np.zeros((5, 6)), grid), theta) == (0.0, 0.0)

    def test_adjoint_in_march_order_is_the_per_level_envelope(self):
        # q^n has taken nt - n + 1 steps from its terminal datum
        rng = np.random.default_rng(5)
        spec = small_benchmark().with_data(rng.standard_normal(31), rng.standard_normal(31))
        grid = spec.grid
        v = ControlField(rng.uniform(-1.0, 1.0, (grid.nt, grid.n_omega)), grid, -1.0, 1.0)
        e = kkt_residual(spec, v)
        terminal = e.rho.final - spec.rho_target
        marched = TimeField(np.vstack([terminal, e.q.values[:0:-1]]), grid)
        levels = np.arange(grid.nt, 0, -1)
        bounds = (1.0 - grid.dt * v.theta) ** (-levels) * np.max(np.abs(terminal))
        per_level = np.max(np.abs(e.q.values[1:]), axis=1) / bounds
        assert verify.sup_envelope_ratios(marched, v.theta)[0] == np.max(per_level) < 1.0


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


# three quick suites: enough to keep two workers busy
WORKER_SUITES = dict(suites=("operator", "maximum-principle", "derivatives"), mp_cases=6,
                     derivative_cases=2)
several_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                                  reason="on one usable CPU run_all starts no workers")


def _one_by_one(cfg):
    """cfg's report from its suites' module functions, called here in order."""
    report = VerifyReport()
    for name in cfg.suites:
        report.extend(getattr(verify, SUITES[name])(cfg))
    return report


def _timed_in_order(report, cfg):
    """Whether the report times cfg's suites, in order, in finite
    non-negative seconds."""
    return (list(report.timings) == list(cfg.suites)
            and all(math.isfinite(s) and s >= 0 for t in report.timings.values() for s in t))


class TestWorkers:
    @several_cpus
    def test_workers_give_the_in_process_checks(self, started):
        # the second run takes the Lipschitz suite's n=129 instance at 4
        # pairs; its step factors are at most 65 wide, below OpenBLAS's switch
        # to threads at 128, so its quotients read the same under one BLAS
        # thread and two (test_workers_get_a_short_openblas_thread_timeout
        # pins the environment the workers get)
        for counts in (WORKER_SUITES, dict(suites=("lipschitz", "derivatives"),
                                           lipschitz_pairs=4, derivative_cases=2)):
            cfg = SuiteConfig(**counts)
            report = run_all(cfg)
            assert report.checks == _one_by_one(cfg).checks
            assert _timed_in_order(report, cfg)
        assert len(started) == 4
        assert all(proc.returncode is not None for proc in started)

    @several_cpus
    def test_workers_get_a_short_openblas_thread_timeout(self, monkeypatch, started):
        cfg = SuiteConfig(suites=("operator", "derivatives"), derivative_cases=2)
        monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
        run_all(cfg)
        assert [proc.given_env for proc in started] == \
            [{**os.environ, "OPENBLAS_THREAD_TIMEOUT": "4"}] * 2
        # a value the caller set is passed on as it is
        monkeypatch.setenv("OPENBLAS_THREAD_TIMEOUT", "30")
        run_all(cfg)
        assert [proc.given_env for proc in started[2:]] == [dict(os.environ)] * 2
        assert all(proc.returncode is not None for proc in started)

    def test_a_replaced_suite_runs_in_process(self, monkeypatch, started):
        # the benchmark's tracer wraps the suites through these attributes
        cfg = SuiteConfig(**WORKER_SUITES)
        expected = _one_by_one(cfg)
        original = verify.run_operator_suite
        callers = []

        def wrapper(cfg):
            callers.append(os.getpid())
            return original(cfg)

        monkeypatch.setattr(verify, "run_operator_suite", wrapper)
        report = run_all(cfg)
        assert report.checks == expected.checks
        assert _timed_in_order(report, cfg)
        assert callers == [os.getpid()]
        assert started == []

    @several_cpus
    def test_a_warning_in_a_worker_reaches_the_caller(self, tmp_path, monkeypatch, started):
        # every interpreter imports sitecustomize as it starts, so in the
        # workers this one makes a helper of the operator suite warn
        site = tmp_path / "sitecustomize.py"
        site.write_text("import warnings\n"
                        "from fracctrl import verify\n"
                        "original = verify.normalization_constant\n"
                        "def warned(s):\n"
                        "    warnings.warn('normalization from a worker', RuntimeWarning)\n"
                        "    return original(s)\n"
                        "verify.normalization_constant = warned\n")
        src = Path(verify.__file__).resolve().parents[1]
        monkeypatch.setenv("PYTHONPATH", f"{tmp_path}{os.pathsep}{src}")
        cfg = SuiteConfig(**WORKER_SUITES)
        with pytest.warns(RuntimeWarning, match="normalization from a worker") as caught:
            assert run_all(cfg).checks == _one_by_one(cfg).checks
        assert [(w.filename, w.lineno) for w in caught] == [(str(site), 5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="normalization from a worker"):
                run_all(cfg)
        assert len(started) == 4
        assert all(proc.returncode is not None for proc in started)

    @several_cpus
    def test_a_caller_without_a_main_guard(self, tmp_path):
        # workers run fracctrl's own code, never the caller's script again
        script = tmp_path / "harness.py"
        script.write_text("from fracctrl.verify import SuiteConfig, run_all\n"
                          f"report = run_all(SuiteConfig(**{WORKER_SUITES!r}))\n"
                          "print(report.to_text(), end='')\n")
        src = Path(verify.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == _one_by_one(SuiteConfig(**WORKER_SUITES)).to_text()


def _check(value, lower=-math.inf, upper=math.inf):
    return CheckResult("operator-weights", value, lower, upper)


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

    def test_inconclusive_coercivity_fails_its_bound(self, monkeypatch):
        # an empty sample at the interior optimum, where the cone is not {0},
        # is inconclusive: the optimality suite reads it as NaN, which must fail
        spec = small_benchmark()
        empty = np.empty(0)
        assert empty.size == 0
        monkeypatch.setattr(verify, "check_coercivity", lambda *args, **kwargs: empty)
        report = run_optimality_suite(SuiteConfig(spec=spec, seed=1, vi_samples=2,
                                                  coercivity_samples=2, growth_samples=2,
                                                  starts=2))
        checks = {c.name: c for c in report.checks}
        for name in ("second-order-necessary", "second-order-sufficient"):
            assert math.isnan(checks[name].value)
            assert not checks[name].passed
            assert checks[name].detail.startswith("0 sampled")

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


def test_second_order_adjoint_that_drops_the_last_source_fails_symmetry(monkeypatch):
    # a mutant second-order adjoint whose source loses level nt is no longer
    # the linearized solver's transpose; <Hw,d> = <Hd,w> must catch it
    def last_level_lost(grid, values):
        source = window_source(grid, values)
        source[-1] = 0.0
        return source

    monkeypatch.setattr(control, "window_source", last_level_lost)
    report = run_derivative_suite(small_suite_config())
    check = next(c for c in report.checks if c.name == "hessian-symmetry")
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
    kkt = kkt_residual(spec, result.final.u, rho=result.final.rho)
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

    spec = benchmark_problem(16, 32)
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
