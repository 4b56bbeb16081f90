"""Property tests of the step solver over random orders, grids, boxes and controls.

Every instance keeps dt*theta <= 1/2, so each step matrix is an M-matrix and
the forward and adjoint sweeps share its exact Cholesky factors.  One
property runs both optimizers a few steps and re-evaluates the control they
return.  Another covers the CLI config text: serializing then parsing any
valid config gives it back.  The last checks that a failing property is
reported like any failing test and the run goes on.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from fracctrl.cli import (
    OptimizerConfig,
    ProblemConfig,
    RunConfig,
    build_spec,
    main,
    parse_config,
    serialize_config,
)
from fracctrl.control import kkt_residual
from fracctrl.optimize import OptimOptions, fixed_point, projected_gradient
from fracctrl.pdesolve import (
    ControlField,
    export_control_csv,
    export_trajectory_csv,
    solve_adjoint,
    solve_linearized,
    solve_state,
)
from fracctrl.verify import SUITES, SuiteConfig, sup_envelope_ratios


@st.composite
def instances(draw):
    """Problem keys of a random instance (CLI config names), a seed for its
    data and whether its control is bang-bang.

    The window covers the nodes first..last; its ends sit half a spacing
    outside them, so the mask does not depend on rounding.
    """
    n = draw(st.integers(3, 40))
    nt = draw(st.integers(1, 30))
    T = draw(st.floats(0.05, 2.0))
    first = draw(st.integers(0, n - 1))
    last = draw(st.integers(first, n - 1))
    dx = 2.0 / (n + 1)
    limit = 0.5 * nt / T
    lo, hi = sorted(draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)))
    assume(hi > lo)
    keys = dict(a=-1.0, b=1.0, n=n, s=draw(st.floats(0.05, 0.95)), T=T, nt=nt,
                omega_a=-1.0 + (first + 0.5) * dx, omega_b=-1.0 + (last + 1.5) * dx,
                m=lo * limit, M=hi * limit)
    assume(T / nt * max(abs(keys["m"]), abs(keys["M"])) <= 0.5)
    return keys, draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


def build(keys, seed, bang_bang):
    """Spec with a random nonnegative rho0 and a random admissible control.

    bang_bang puts every control value on a corner of the box.
    """
    text = "".join(f"problem.{k} = {v!r}\n" for k, v in keys.items())
    spec = build_spec(parse_config(text).problem)
    rng = np.random.default_rng(seed)
    n = spec.grid.n
    spec = spec.with_data(np.abs(rng.standard_normal(n)) * (rng.random(n) < 0.7)
                          * rng.uniform(0.1, 2.0), rng.standard_normal(n))
    shape = (spec.grid.nt, spec.grid.n_omega)
    vals = (np.where(rng.random(shape) < 0.5, spec.vmin, spec.vmax) if bang_bang
            else rng.uniform(spec.vmin, spec.vmax, size=shape))
    return text, spec, ControlField(vals, spec.grid, spec.vmin, spec.vmax), rng


@given(instances())
def test_state_stays_nonnegative(instance):
    _, spec, v, _ = build(*instance)
    assert solve_state(spec, v).values.min() >= 0.0


@given(instances())
def test_per_step_sup_bound(instance):
    _, spec, v, _ = build(*instance)
    step_ratio, _ = sup_envelope_ratios(solve_state(spec, v), v.theta)
    assert step_ratio <= 1 + 1e-12


@given(instances())
def test_adjoint_duality_to_round_off(instance):
    # dx<r, y_T> = dx dt sum(w rho q) on the window; scaled by Cauchy-Schwarz
    # because the pairing itself can cancel to zero
    _, spec, v, rng = build(*instance)
    w = rng.standard_normal(v.values.shape)
    r = rng.standard_normal(spec.grid.n)
    rho = solve_state(spec, v)
    y_final = solve_linearized(spec, v, w[None], rho).final[:, 0]
    q = solve_adjoint(spec, v, r)
    dx = spec.grid.dx
    lhs = dx * float(np.dot(r, y_final))
    rhs = spec.control_dot(w * rho.restrict_omega(), q.restrict_omega())
    assert abs(lhs - rhs) <= 1e-12 * dx * np.linalg.norm(r) * np.linalg.norm(y_final)


@given(instances())
def test_control_csv_round_trip_is_exact(instance):
    # the CLI rebuilds rho0 from its config, so compare against that spec
    text, spec, v, _ = build(*instance)
    spec = build_spec(parse_config(text).problem)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "run.cfg").write_text(text)
        export_control_csv(v, tmp / "u.csv")
        code = main(["solve", "--config", str(tmp / "run.cfg"), "--out", str(tmp / "out"),
                     "--control", f"csv({tmp / 'u.csv'})"])
        assert code == 0
        export_trajectory_csv(solve_state(spec, v), tmp / "rho.csv")
        assert (tmp / "out" / "rho.csv").read_bytes() == (tmp / "rho.csv").read_bytes()


@given(instances(), st.sampled_from([projected_gradient, fixed_point]), st.integers(0, 5))
def test_optimizer_result_is_its_final_evaluation(instance, driver, max_iters):
    # u, rho, q, the final cost and the final KKT residual all come from one
    # evaluated iterate, whatever the status, so evaluating u afresh
    # reproduces every one of them exactly
    _, spec, v, _ = build(*instance)
    result = driver(spec, v, OptimOptions(max_iters=max_iters))
    fresh = kkt_residual(spec, result.final.u)
    assert np.array_equal(fresh.rho.values, result.final.rho.values)
    assert np.array_equal(fresh.q.values, result.final.q.values)
    assert fresh.j == result.j_final == result.j_history[-1]
    assert fresh.residual == result.kkt_final == result.kkt_history[-1]
    assert result.iterations <= max_iters


def _finite(lo=None, hi=None, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


def _open_unit():
    return _finite(0.0, 1.0, exclude_min=True, exclude_max=True)


def _positive():
    return _finite(0.0, exclude_min=True)


def _ordered_pair():
    return st.tuples(_finite(), _finite()).filter(lambda p: p[0] < p[1])


_PROFILES = st.one_of(st.just("zero"), _finite().map(lambda a: f"bump({a!r})"),
                      st.integers(1, 1000).map(lambda k: f"eigen({k})"),
                      st.sampled_from(["csv(rho0.txt)", "csv(data/target-1.csv)"]))


@st.composite
def run_configs(draw):
    """A random valid value for every config key."""
    (a, b), (omega_a, omega_b), (m, M) = (draw(_ordered_pair()) for _ in range(3))
    problem = ProblemConfig(a=a, b=b, n=draw(st.integers(1, 10**6)), s=draw(_open_unit()),
                            T=draw(_positive()), nt=draw(st.integers(1, 10**6)),
                            omega_a=omega_a, omega_b=omega_b, alpha=draw(_positive()),
                            m=m, M=M, rho0=draw(_PROFILES), rhod=draw(_PROFILES),
                            c_user=draw(_finite(0.0)))
    optimizer = OptimizerConfig(
        max_iters=draw(st.integers(0, 10**6)), kkt_tol=draw(_positive()),
        method=draw(st.sampled_from(["pg", "fp"])))
    counts = {name: draw(st.integers(1, 10**6))
              for name in ("mp_cases", "estimate_cases", "derivative_cases", "lipschitz_pairs",
                           "vi_samples", "coercivity_samples", "growth_samples", "starts")}
    suites = tuple(draw(st.lists(st.sampled_from(list(SUITES)), min_size=1, unique=True)))
    verify = SuiteConfig(seed=draw(st.integers(0, 2**63)), suites=suites, **counts)
    return RunConfig(problem=problem, optimizer=optimizer, verify=verify)


@given(run_configs())
def test_config_round_trip(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


_FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_leaves_the_run_going(tmp_path):
    # reporting a failing example imports libcst, whose deprecation warning
    # must not become an INTERNALERROR (exit 3) that hides every later test
    (tmp_path / "test_two.py").write_text(_FAILING_PROPERTY)
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-c", str(pyproject),
                          "-p", "no:cacheprovider", str(tmp_path)],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
