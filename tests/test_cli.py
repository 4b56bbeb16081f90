"""Config parsing, command dispatch, exit codes, artifact layout."""

import errno
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fracctrl import cli, problem
from fracctrl.cli import (
    ConfigError,
    OptimizerConfig,
    RunConfig,
    build_spec,
    main,
    parse_config,
    serialize_config,
)
from fracctrl.control import ssc_smallness
from fracctrl.fracop import assemble_operator
from fracctrl.pdesolve import constant_control, export_control_csv
from fracctrl.problem import ProblemConfig, benchmark_problem
from fracctrl.verify import SuiteConfig

from test_pdesolve import make_spec
from test_verify import several_cpus

TINY = """
problem.n = 31
problem.nt = 40
optimizer.kkt_tol = 1e-8
verify.mp_cases = 5
verify.estimate_cases = 3
verify.derivative_cases = 2
verify.lipschitz_pairs = 2
verify.vi_samples = 10
verify.coercivity_samples = 4
verify.growth_samples = 4
verify.starts = 2
"""


DEFAULT_CONFIG_TEXT = """\
problem.a = -1
problem.b = 1
problem.n = 127
problem.s = 0.5
problem.T = 0.5
problem.nt = 200
problem.omega_a = -0.5
problem.omega_b = 0.5
problem.alpha = 1
problem.m = -1
problem.M = 1
problem.rho0 = bump(0.1)
problem.rhod = bump(0.05)
problem.c_user = 0
optimizer.method = pg
optimizer.max_iters = 200
optimizer.kkt_tol = 1e-08
verify.seed = 0
verify.suites = operator,maximum-principle,estimates,derivatives,lipschitz,optimality
verify.mp_cases = 100
verify.estimate_cases = 50
verify.derivative_cases = 20
verify.lipschitz_pairs = 50
verify.vi_samples = 100
verify.coercivity_samples = 64
verify.growth_samples = 50
verify.starts = 8
"""


def read_kv(path):
    out = {}
    for line in path.read_text().strip().splitlines():
        key, value = line.split(" = ", 1)
        out[key] = value
    return out


class TestConfigParsing:
    def test_default_round_trip(self):
        cfg = RunConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_modified_round_trip(self):
        cfg = parse_config(TINY)
        assert cfg.problem.n == 31
        assert cfg.verify.mp_cases == 5
        assert parse_config(serialize_config(cfg)) == cfg

    def test_spec_round_trip_field_for_field(self):
        cfg = parse_config(TINY)
        spec_a = build_spec(cfg.problem)
        spec_b = build_spec(parse_config(serialize_config(cfg)).problem)
        assert spec_a.grid == spec_b.grid
        assert (spec_a.s, spec_a.alpha, spec_a.vmin, spec_a.vmax) == \
               (spec_b.s, spec_b.alpha, spec_b.vmin, spec_b.vmax)
        assert np.array_equal(spec_a.rho0, spec_b.rho0)
        assert np.array_equal(spec_a.rho_target, spec_b.rho_target)
        assert spec_a.rho0_sup == spec_b.rho0_sup

    def test_default_problem_is_the_reference_instance(self):
        # the config's problem block defaults to the reference instance,
        # whose one description is ProblemConfig's defaults
        cli_spec = build_spec(RunConfig().problem)
        ref = benchmark_problem()
        assert cli_spec.grid == ref.grid
        assert (cli_spec.s, cli_spec.alpha, cli_spec.vmin, cli_spec.vmax) == \
               (ref.s, ref.alpha, ref.vmin, ref.vmax)
        assert np.array_equal(cli_spec.rho0, ref.rho0)
        assert np.array_equal(cli_spec.rho_target, ref.rho_target)
        assert (cli_spec.rho0_sup, cli_spec.target_sup) == (ref.rho0_sup, ref.target_sup)

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="alpha_"):
            parse_config("problem.alpha_ = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="solver"):
            parse_config("solver.tol = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("problem.alpha\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="problem.n"):
            parse_config("problem.n = twelve\n")

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config("verify.suites = operator,frobnicate\n")

    def test_repeated_key_names_both_lines(self, tmp_path, capsys):
        text = "problem.n = 31\n# finer\nproblem.n = 63\n"
        with pytest.raises(ConfigError, match="line 3: key 'problem.n' is already set on line 1"):
            parse_config(text)
        config = tmp_path / "run.cfg"
        config.write_text(text)
        assert main(["gradcheck", "--config", str(config)]) == 2
        assert "'problem.n'" in capsys.readouterr().err

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# header\n\nproblem.alpha = 2.0  # trailing\n")
        assert cfg.problem.alpha == 2.0

    def test_profile_errors(self, tmp_path, capsys):
        cfg = parse_config("problem.rho0 = blobby(1)\n")
        with pytest.raises(ConfigError, match="blobby"):
            build_spec(cfg.problem)
        # through the CLI each bad profile ends in exit 2 and a one-line
        # message naming it, never a traceback
        config = tmp_path / "run.cfg"
        words = tmp_path / "words.txt"
        words.write_text("abc\n")
        for text, message in [
                (f"csv({words})", f"cannot read profile file '{words}': could not convert"),
                ("bump()", "bad argument '' in 'bump()'"),
                ("eigen(2.5)", "bad argument '2.5' in 'eigen(2.5)'"),
                ("eigen(0)", "eigenvector index must lie in 1..15, got 0"),
                ("csv()", "cannot read profile file ''"),
                ("bump(inf)", "argument 'inf' in 'bump(inf)' is not finite"),
                ("BUMP(1)", "malformed profile 'BUMP(1)'"),
                ("bump(1)(2)", "bad argument '1)(2' in 'bump(1)(2)'"),
                ("zero(3)", "profile 'zero(3)' takes no argument: zero"),
                ("zero()", "profile 'zero()' takes no argument: zero")]:
            config.write_text(f"problem.n = 15\nproblem.nt = 10\nproblem.rho0 = {text}\n")
            assert main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {message}") and err.count("\n") == 1, text

    def test_eigen_profiles_read_the_spec_operator(self, monkeypatch):
        # the profiles and the instance share one assembled operator
        calls = []
        assemble = problem.assemble_operator
        monkeypatch.setattr(problem, "assemble_operator",
                            lambda *args: calls.append(args) or assemble(*args))
        spec = build_spec(parse_config(
            "problem.n = 31\nproblem.rho0 = eigen(1)\nproblem.rhod = eigen(2)\n").problem)
        spec.operator
        assert len(calls) == 1
        vals, vecs = np.linalg.eigh(spec.operator.matrix)
        assert np.allclose(np.abs(spec.rho0), np.abs(vecs[:, 0]) / np.abs(vecs[:, 0]).max())
        assert spec.rho_target.max() == 1.0

    def test_default_text_pinned(self):
        # every key, its order and its default; the blocks reuse the library's
        # dataclasses, so a field added there must not leak into the config
        assert serialize_config(RunConfig()) == DEFAULT_CONFIG_TEXT

    def test_readme_config_block_is_the_default_text(self):
        # README lists every key with its default in its ini block
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert "".join(line.split("#", 1)[0].rstrip() + "\n"
                       for line in block.splitlines()) == serialize_config(RunConfig())

    def test_invalid_optimizer_value_rejected_when_parsed(self):
        with pytest.raises(ConfigError, match="tolerance must be positive, got 0.0"):
            parse_config("optimizer.kkt_tol = 0\n")

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("build", [
        lambda c: SuiteConfig(spec=replace(make_spec(), c_user=c)),
        lambda c: ProblemConfig(n=15, nt=10, c_user=c).build(),
        lambda c: ssc_smallness(make_spec(c_user=c)),
    ], ids=["suite", "optimizer", "ssc"])
    def test_one_rule_for_the_ssc_constant(self, build, value):
        # the readers of the constant, the optimality suite, optimize's
        # summary and ssc_smallness, all take it from their problem, so a
        # bad one never reaches them: ProblemSpec refuses it with one
        # message whether it is replaced, built from a problem block or
        # passed to the constructor
        with pytest.raises(ValueError) as exc:
            build(value)
        assert str(exc.value) == f"c_user must be finite and nonnegative, got {value}"

    def test_unknown_method_rejected_when_built(self):
        # the optimizer block owns the method rule, so a config built in code
        # cannot reach cmd_optimize with a method it would not run
        with pytest.raises(ValueError, match="method must be pg or fp, got 'newton'"):
            OptimizerConfig(method="newton")
        with pytest.raises(ValueError, match="'newton'"):
            replace(OptimizerConfig(), method="newton")

    def test_cli_filled_suite_fields_are_not_keys(self):
        for key in ("verify.spec", "verify.c_user", "optimizer.max_backtracks"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(f"{key} = 1\n")

    @pytest.mark.parametrize("key", ["optimizer.seed", "optimizer.c_user"])
    def test_settings_owned_elsewhere_are_not_optimizer_keys(self, tmp_path, capsys, key):
        # the constant is problem.c_user and gradcheck's seed is verify.seed
        with pytest.raises(ConfigError, match=f"line 1: unknown key '{key}'"):
            parse_config(f"{key} = 1\n")
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = 1\n")
        assert main(["gradcheck", "--config", str(config)]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err


class TestCommands:
    def test_solve_zero_problem(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(TINY + "problem.rho0 = zero\n")
        out = tmp_path / "out"
        code = main(["solve", "--config", str(config), "--out", str(out)])
        assert code == 0
        rows = (out / "rho.csv").read_text().strip().splitlines()
        assert rows[0] == "t,x,value"
        values = np.array([float(r.split(",")[2]) for r in rows[1:]])
        assert np.all(values == 0.0)
        summary = read_kv(out / "summary.txt")
        spec = build_spec(parse_config(config.read_text()).problem)
        expected = np.sqrt(spec.grid.dx * np.sum(spec.rho_target**2))
        assert float(summary["tracking_error_l2"]) == pytest.approx(expected, rel=1e-14)

    def test_solve_eigen_instance_matches_closed_form(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "problem.n = 24\nproblem.nt = 16\nproblem.omega_a = -1\nproblem.omega_b = 1\n"
            "problem.m = -2\nproblem.M = 2\nproblem.rho0 = eigen(1)\nproblem.rhod = zero\n")
        out = tmp_path / "out"
        code = main(["solve", "--config", str(config), "--out", str(out),
                     "--control", "constant(0.3)"])
        assert code == 0
        spec = build_spec(parse_config(config.read_text()).problem)
        vals, vecs = np.linalg.eigh(assemble_operator(spec.grid, spec.s).matrix)
        lam = vals[0]
        phi = vecs[:, 0]
        phi = phi / phi[np.argmax(np.abs(phi))]
        grid = spec.grid
        expected = ((1 + grid.dt * (lam - 0.3)) ** (-grid.nt)
                    * np.sqrt(grid.dx * np.dot(phi, phi)))
        summary = read_kv(out / "summary.txt")
        assert float(summary["tracking_error_l2"]) == pytest.approx(expected, rel=1e-12)

    def test_adjoint_command(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(TINY)
        out = tmp_path / "out"
        code = main(["adjoint", "--config", str(config), "--out", str(out),
                     "--control", "constant(0.2)"])
        assert code == 0
        assert (out / "q.csv").exists()
        assert "adjoint_sup" in read_kv(out / "summary.txt")

    def test_solve_with_csv_control_round_trip(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(TINY)
        out1 = tmp_path / "a"
        assert main(["optimize", "--config", str(config), "--out", str(out1)]) == 0
        out2 = tmp_path / "b"
        code = main(["solve", "--config", str(config), "--out", str(out2),
                     "--control", f"csv({out1 / 'u.csv'})"])
        assert code == 0

    def test_optimize_writes_artifacts_and_converges(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(TINY)
        out = tmp_path / "out"
        code = main(["optimize", "--config", str(config), "--out", str(out)])
        assert code == 0
        summary = read_kv(out / "summary.txt")
        assert summary["status"] == "converged"
        assert float(summary["kkt_residual"]) <= 1e-8
        assert summary["uniqueness_holds"] == "True"
        for name in ("u.csv", "rho.csv", "q.csv"):
            assert (out / name).exists()

    def test_optimize_summary_fields(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(TINY + "optimizer.method = fp\n")
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(config), "--out", str(out)]) == 0
        keys = [line.split(" = ")[0] for line in (out / "summary.txt").read_text().splitlines()]
        assert keys == ["status", "iterations", "cost", "kkt_residual", "control_l2",
                        "control_sup", "uniqueness_lhs", "uniqueness_margin",
                        "uniqueness_holds", "ssc_constant", "ssc_lhs", "ssc_holds"]

    def test_optimize_budget_exhaustion_exit_code(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(TINY.replace("optimizer.kkt_tol = 1e-8", "optimizer.kkt_tol = 1e-13")
                          + "optimizer.max_iters = 1\n")
        out = tmp_path / "out"
        code = main(["optimize", "--config", str(config), "--out", str(out)])
        assert code == 4
        assert (out / "u.csv").exists()  # artifacts written despite failure

    def test_optimize_where_the_smallness_exponentials_overflow(self, tmp_path):
        # dt*theta = 1/3 is admissible, yet e^(3 theta T) = e^1500 is past the
        # float range: the summary reads inf and False, and nothing warns
        config = tmp_path / "run.cfg"
        config.write_text("problem.n = 7\nproblem.nt = 1500\nproblem.m = -1000\n"
                          "problem.M = 1000\n")
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(config), "--out", str(out)]) == 0
        summary = read_kv(out / "summary.txt")
        assert summary["status"] == "converged"
        assert (summary["uniqueness_lhs"], summary["uniqueness_margin"],
                summary["uniqueness_holds"]) == ("inf", "-inf", "False")
        assert (summary["ssc_lhs"], summary["ssc_holds"]) == ("inf", "False")

    def test_optimize_on_data_past_the_float_range_fails_without_warning(self, tmp_path):
        # rho0 of sup 1e200: the cost and the products rho*q overflow to inf,
        # which the run reports as status failed, exit 4, not as a warning
        config = tmp_path / "run.cfg"
        config.write_text("problem.n = 15\nproblem.nt = 20\nproblem.rho0 = bump(1e200)\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["optimize", "--config", str(config), "--out", str(out)]) == 4
        summary = read_kv(out / "summary.txt")
        assert (summary["status"], summary["iterations"], summary["cost"]) == ("failed", "0", "inf")

    @pytest.mark.parametrize("argv,code", [
        (["solve"], 0), (["solve", "--adjoint"], 0), (["adjoint"], 0), (["gradcheck"], 4),
        (["verify", "--suite", "optimality"], 4),
        # two suites run in workers, which issue their warnings again here
        (["verify"], 4)],
        ids=["solve", "solve-adjoint", "adjoint", "gradcheck", "verify-optimality", "verify"])
    def test_every_command_on_data_past_the_float_range_ends_with_its_exit_code(
            self, tmp_path, capsys, argv, code):
        # norms, inner products and Hessian actions of the overflowing state
        # read inf or NaN without a warning, so warnings as errors change nothing
        config = tmp_path / "run.cfg"
        config.write_text("problem.n = 15\nproblem.nt = 20\nproblem.rho0 = bump(1e200)\n"
                          "verify.suites = derivatives,optimality\nverify.derivative_cases = 2\n"
                          "verify.vi_samples = 10\nverify.coercivity_samples = 4\n"
                          "verify.growth_samples = 4\nverify.starts = 2\n")
        argv = argv + ["--config", str(config)]
        if argv[0] != "gradcheck":
            argv += ["--out", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == code
        if argv[0] in ("solve", "adjoint"):
            assert read_kv(tmp_path / "out" / "summary.txt")["tracking_error_l2"] == "inf"

    @pytest.mark.parametrize("line,message", [
        ("problem.a = -inf", "domain endpoints must be finite with a < b, got (-inf, 1.0)"),
        ("problem.b = inf", "domain endpoints must be finite with a < b, got (-1.0, inf)"),
        ("problem.n = -1", "need at least one interior node, got n=-1"),
        ("problem.a = -1e308\nproblem.b = 1e308",
         "domain (-1e+308, 1e+308) is too long: its length b - a overflows to inf")])
    def test_bad_grid_is_a_config_error_under_warnings_as_errors(self, tmp_path, capsys,
                                                                   line, message):
        # the grid is refused before its nodes are computed, so an infinite
        # end (NaN nodes) or n = -1 (spacing (b-a)/0) never reaches numpy
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--suite", "optimality", "--config", str(config),
                         "--out", str(tmp_path / "out")])
        assert (code, capsys.readouterr().err) == (2, f"config error: {message}\n")

    @pytest.mark.parametrize("lines", [
        "problem.alpha = 1e308\nproblem.rhod = bump(-1e308)\noptimizer.method = fp\n",
        "problem.rho0 = bump(-1e308)\n"],
        ids=["second-order-adjoint", "linearized"])
    @pytest.mark.parametrize("action", ["default", "error"])
    def test_hessian_past_the_float_range_is_an_internal_error_under_any_filter(
            self, tmp_path, capsys, lines, action):
        # the name is kept from when the Hessian march raised on this data
        # (exit 5, internal error).  Now the optimizer's final evaluation
        # overflows (j = inf), so the Hessian's linearized source w*rho or
        # second-order source w*q would too: the coercivity checks read NaN
        # without marching and fail, exit 4 like other overflowing data, and
        # nothing warns under any filter
        config = tmp_path / "run.cfg"
        config.write_text("problem.n = 5\nproblem.nt = 5\n" + lines)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            code = main(["verify", "--suite", "optimality", "--config", str(config),
                         "--out", str(tmp_path / "out")])
        assert (code, capsys.readouterr().err) == (4, "")
        assert caught == []
        rows = (tmp_path / "out" / "report.csv").read_text().splitlines()
        values = dict(row.split(",")[:2] for row in rows)
        assert (values["second-order-necessary"], values["second-order-sufficient"]) == (
            "nan", "nan")

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "nope.cfg"), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_key_exit_code(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("problem.alpha_ = 1\n")
        code = main(["solve", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "alpha_" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["armijo_c1", "backtrack", "sigma0", "fp_damping"])
    def test_removed_optimizer_key_exit_code(self, tmp_path, capsys, key):
        # the Armijo constants, the first step and the damping are no settings
        config = tmp_path / "run.cfg"
        config.write_text(f"optimizer.{key} = 0.5\n")
        code = main(["optimize", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"unknown key 'optimizer.{key}'" in capsys.readouterr().err

    def test_stability_violation_exit_code(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("problem.T = 10\nproblem.nt = 2\n")
        code = main(["solve", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--control", "constant(1)"])
        assert code == 3
        assert "stability" in capsys.readouterr().err

    def test_gradcheck(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(TINY)
        code = main(["gradcheck", "--config", str(config)])
        assert code == 0
        assert "relative_error" in capsys.readouterr().out

    def test_verify_single_suite(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["verify", "--suite", "operator", "--out", str(out)])
        assert code == 0
        text = (out / "report.txt").read_text()
        assert "overall: pass" in text
        assert (out / "report.csv").exists()

    def test_verify_writes_the_timing_of_each_suite(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(TINY + "verify.suites = derivatives,operator\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "timings.csv").read_text().splitlines()]
        assert rows[0] == ["suite", "wall_s", "cpu_s"]
        assert [row[0] for row in rows[1:]] == ["derivatives", "operator"]
        seconds = [float(value) for row in rows[1:] for value in row[1:]]
        assert len(seconds) == 4 and all(math.isfinite(s) and s >= 0 for s in seconds)

    def test_verify_reports_byte_identical_under_seed(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(TINY)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = main(["verify", "--config", str(config), "--seed", "7",
                         "--suite", "maximum-principle", "--out", str(out)])
            assert code == 0
            outs.append((out / "report.txt").read_bytes()
                        + (out / "report.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("m,M", [(0, 1), (0, 1e-4), (-1e-4, 0), (-1e-4, 1e-4)])
    def test_optimality_passes_where_the_box_binds(self, tmp_path, capsys, m, M):
        # at the optimum every window point sits at the box; where all are
        # strongly active the tau = 0 cone is {0} and the necessary condition
        # holds with nothing to sample
        config = tmp_path / "run.cfg"
        config.write_text(TINY + f"problem.m = {m}\nproblem.M = {M}\n")
        out = tmp_path / "out"
        code = main(["verify", "--config", str(config), "--suite", "optimality",
                     "--out", str(out)])
        text = (out / "report.txt").read_text()
        assert code == 0, text
        assert "overall: pass (10/10)" in text
        assert "second-order-necessary: value=inf" in text
        assert "the cone is {0}" in text

    def test_estimate_reports_byte_identical_under_one_and_two_blas_threads(self, tmp_path):
        # the suite's energy and dual norms sum in numpy, not in threaded BLAS
        config = tmp_path / "run.cfg"
        config.write_text(TINY)
        src = Path(cli.__file__).resolve().parents[1]
        runs = {}
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
            runs[threads] = subprocess.Popen(
                [sys.executable, "-m", "fracctrl.cli", "verify", "--config", str(config),
                 "--suite", "estimates", "--out", str(tmp_path / threads)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        for proc in runs.values():
            assert proc.wait(timeout=120) == 0, proc.stderr.read()
            proc.stderr.close()
        for name in ("report.txt", "report.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


class _ExitWhenLoaded:
    """Unpickling it calls os._exit(7), so a process that reads it dies."""

    def __reduce__(self):
        return os._exit, (7,)


class TestBadInput:
    """Every bad input ends with its exit code and a message, never a traceback."""

    @several_cpus
    def test_stability_error_in_a_worker(self, tmp_path, capfd, started):
        # dt*theta = 0.75: the optimality suite's worker refuses the problem
        config = tmp_path / "run.cfg"
        config.write_text("problem.M = 3\nproblem.nt = 2\nverify.suites = operator,optimality\n")
        code = main(["verify", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capfd.readouterr().err
        assert code == 3
        assert "stability error" in err and "Traceback" not in err
        assert len(started) == 2
        assert all(proc.returncode is not None for proc in started)

    @several_cpus
    def test_a_worker_that_dies(self, tmp_path, capfd, monkeypatch, started):
        # both suites ignore the problem; a worker dies as it reads it
        monkeypatch.setattr(cli, "build_spec", lambda pcfg: _ExitWhenLoaded())
        config = tmp_path / "run.cfg"
        config.write_text(TINY + "verify.suites = operator,derivatives\n")
        code = main(["verify", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capfd.readouterr().err
        assert code == 5
        assert "internal error" in err and "died" in err and "Traceback" not in err
        assert len(started) == 2
        assert all(proc.returncode is not None for proc in started)

    @several_cpus
    def test_a_worker_that_cannot_start(self, tmp_path, capfd, monkeypatch, started):
        # the process table is full when the second worker starts
        class TableFull(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                if started:
                    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", TableFull)
        config = tmp_path / "run.cfg"
        config.write_text(TINY + "verify.suites = operator,derivatives\n")
        code = main(["verify", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capfd.readouterr().err
        assert code == 5
        assert ("internal error: could not start a worker for the derivatives suite: "
                f"[Errno {errno.EAGAIN}] Resource temporarily unavailable") in err
        assert "Traceback" not in err
        assert len(started) == 1 and started[0].returncode is not None

    @pytest.mark.parametrize("value", ["300", "390", "1000"])
    def test_control_outside_the_box_hits_the_stability_guard(self, tmp_path, capsys, value):
        # default grid: dt = 1/400, so dt*value > 1/2 although the box is [-1, 1]
        code = main(["solve", "--control", f"constant({value})", "--out", str(tmp_path)])
        assert code == 3
        assert "stability" in capsys.readouterr().err
        assert not (tmp_path / "summary.txt").exists()

    def test_non_numeric_constant(self, tmp_path, capsys):
        code = main(["solve", "--control", "constant(abc)", "--out", str(tmp_path)])
        assert code == 2
        assert "abc" in capsys.readouterr().err
        # the control sources share the profiles' grammar and its messages
        config = tmp_path / "run.cfg"
        config.write_text("problem.n = 15\nproblem.nt = 10\n")
        for text, message in [
                ("zero(1)", "control source 'zero(1)' takes no argument: zero"),
                ("constant()", "bad argument '' in 'constant()'"),
                ("constant(inf)", "argument 'inf' in 'constant(inf)' is not finite"),
                ("CONSTANT(1)", "malformed control source 'CONSTANT(1)'")]:
            assert main(["solve", "--config", str(config), "--control", text,
                         "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n", text

    def test_negative_iteration_budget(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(TINY + "optimizer.method = fp\noptimizer.max_iters = -1\n")
        code = main(["optimize", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "iteration budget" in capsys.readouterr().err

    @pytest.mark.parametrize("key,suite", [("lipschitz_pairs", "lipschitz"),
                                           ("derivative_cases", "derivatives")])
    def test_zero_case_count(self, tmp_path, capsys, key, suite):
        config = tmp_path / "run.cfg"
        config.write_text(TINY.replace(f"verify.{key} = 2", f"verify.{key} = 0"))
        code = main(["verify", "--config", str(config), "--suite", suite,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [("problem.s = 1.5", "fractional order"),
                                              ("problem.s = 0", "fractional order"),
                                              ("problem.s = nan", "fractional order"),
                                              ("problem.alpha = inf", "regularization weight"),
                                              ("problem.M = inf", "control box"),
                                              ("problem.m = -inf", "control box"),
                                              ("problem.T = inf", "horizon")])
    @pytest.mark.parametrize("command", ["solve", "optimize", "verify", "gradcheck"])
    def test_bad_order_or_weight(self, tmp_path, capsys, line, message, command):
        config = tmp_path / "run.cfg"
        config.write_text(TINY + line + "\n")
        argv = [command, "--config", str(config)]
        if command != "gradcheck":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("suites,message", [("", "at least one suite"),
                                                ("operator,operator", "operator more than once"),
                                                ("operator,no-such-suite", "no-such-suite")])
    def test_empty_or_repeated_suite_list(self, tmp_path, capsys, suites, message):
        config = tmp_path / "run.cfg"
        config.write_text(TINY + f"verify.suites = {suites}\n")
        assert main(["verify", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_method_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(TINY + "optimizer.method = x\n")
        assert main(["optimize", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "method must be pg or fp, got 'x'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["optimize", "verify"])
    def test_bad_ssc_constant(self, tmp_path, capsys, value, command):
        # optimize writes c_user to its summary and verify's optimality suite
        # reads it; either must refuse it before writing a file
        config = tmp_path / "run.cfg"
        config.write_text(TINY + f"problem.c_user = {value}\n")
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        if command == "verify":
            argv += ["--suite", "optimality"]
        assert main(argv) == 2
        assert "c_user must be finite and nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,line", [
        (["verify", "--suite", "derivatives", "--seed", "-1"], ""),
        (["verify", "--suite", "operator"], "verify.seed = -1"),
        (["gradcheck", "--seed", "-2"], ""),
        (["gradcheck"], "verify.seed = -3"),
    ], ids=["verify-flag", "verify-key", "gradcheck-flag", "gradcheck-key"])
    def test_negative_seed(self, tmp_path, capsys, argv, line):
        config = tmp_path / "run.cfg"
        config.write_text(TINY + line + "\n")
        out = [] if argv[0] == "gradcheck" else ["--out", str(tmp_path / "out")]
        assert main(argv + ["--config", str(config)] + out) == 2
        captured = capsys.readouterr()
        assert "seed must be nonnegative" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "adjoint", "optimize"])
    def test_seed_only_on_commands_that_read_it(self, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "3", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_out_only_on_commands_that_write_files(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "adjoint", "optimize", "verify"])
    def test_out_naming_a_file(self, tmp_path, capsys, monkeypatch, command):
        # the output directory is made before the job runs, so a bad one
        # costs no solve and no harness run
        harness_runs = []
        monkeypatch.setattr(cli, "run_all", lambda cfg: harness_runs.append(cfg))
        config = tmp_path / "run.cfg"
        config.write_text(TINY)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main([command, "--config", str(config), "--out", str(taken)]) == 2
        assert "config error" in capsys.readouterr().err
        assert harness_runs == []
        assert taken.read_text() == ""

    def test_config_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"problem.n = 31\n\xff\n")
        assert main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert f"cannot read config '{config}'" in capsys.readouterr().err

    def test_control_csv_not_utf8(self, tmp_path, capsys):
        argv = self._control_csv(tmp_path, lambda lines: lines)
        path = tmp_path / "u.csv"
        path.write_bytes(path.read_bytes() + b"\xff\n")
        assert main(argv) == 2
        assert f"cannot read control file '{path}'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["rho.csv", "q.csv", "summary.txt"])
    def test_solve_output_file_not_writable(self, tmp_path, capsys, name):
        config = tmp_path / "run.cfg"
        config.write_text(TINY)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["solve", "--adjoint", "--config", str(config), "--out", str(out)]) == 2
        assert f"cannot write '{out / name}'" in capsys.readouterr().err

    def test_optimize_control_file_not_writable(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(TINY + "optimizer.max_iters = 1\n")
        out = tmp_path / "out"
        (out / "u.csv").mkdir(parents=True)
        assert main(["optimize", "--config", str(config), "--out", str(out)]) == 2
        assert f"cannot write '{out / 'u.csv'}'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["report.txt", "report.csv", "timings.csv"])
    def test_verify_report_not_writable(self, tmp_path, capsys, monkeypatch, name):
        # every output file is claimed before the harness, so no suite runs
        harness_runs = []
        monkeypatch.setattr(cli, "run_all", lambda cfg: harness_runs.append(cfg))
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["verify", "--suite", "operator", "--out", str(out)]) == 2
        assert f"cannot write '{out / name}'" in capsys.readouterr().err
        assert harness_runs == []

    def test_missing_profile_file(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"problem.rho0 = csv({tmp_path / 'missing.txt'})\n")
        code = main(["solve", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "missing.txt" in capsys.readouterr().err

    def _control_csv(self, tmp_path, edit):
        config = tmp_path / "run.cfg"
        config.write_text(TINY)
        spec = build_spec(parse_config(TINY).problem)
        path = tmp_path / "u.csv"
        export_control_csv(constant_control(spec.grid, 0.1, spec.vmin, spec.vmax), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")
        return ["solve", "--config", str(config), "--out", str(tmp_path / "out"),
                "--control", f"csv({path})"]

    def test_control_csv_short_row(self, tmp_path, capsys):
        def drop_value(lines):
            lines[5] = lines[5].rsplit(",", 1)[0]
            return lines
        assert main(self._control_csv(tmp_path, drop_value)) == 2
        assert "t,x,value rows" in capsys.readouterr().err

    def test_control_csv_for_another_grid(self, tmp_path, capsys):
        # same row count, coordinates of a grid with twice the time step
        def stretch_time(lines):
            rows = [line.split(",") for line in lines[1:]]
            return lines[:1] + [f"{2 * float(t)!r},{x},{v}" for t, x, v in rows]
        assert main(self._control_csv(tmp_path, stretch_time)) == 2
        assert "line 2: t,x is not the grid point" in capsys.readouterr().err


def test_readme_library_quick_start_runs():
    # README's library example in a fresh interpreter with every warning an
    # error, as the suite runs, so an export it uses cannot go unnoticed
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", block], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("converged ")
