"""Verification harness: every checkable claim gets a named pass/fail entry.

Each check records its measured value and the closed interval [lower, upper]
the value must lie in, with an infinite bound for an open side; that
interval is the whole rule.  Continuous a-priori inequalities are asserted
in discrete form with explicit slack factors; claims whose constants are not
computable from first principles are report-only (both sides open).  All
suites are deterministic under a fixed seed.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .control import (
    Evaluation,
    active_set,
    check_coercivity,
    cost,
    hessian_action,
    kkt_residual,
    project,
    ssc_smallness,
    uniqueness_condition,
)
from .fracop import (
    Grid,
    SolverError,
    assemble_operator,
    assemble_weights,
    l2_norm,
    normalization_constant,
    quadrature_oracle,
    v_seminorm,
    vstar_norm,
)
from .optimize import OptimOptions, fixed_point, multistart_uniqueness, projected_gradient
from .pdesolve import (
    ControlField,
    StepSolver,
    TimeField,
    constant_control,
    random_admissible,
    solve_linearized,
    solve_shifted,
    solve_sourced,
    solve_state,
    source_vstar_norm,
)
from .problem import ProblemConfig, ProblemSpec, benchmark_problem, bump_profile

# Registry of check names and the property each one verifies.  The harness
# meta-test requires every enabled check to appear exactly once and every
# registry entry to be covered by the full run.
CLAIMS = {
    "operator-weights": "half-order weights match the closed forms 4/pi, -4/(3pi), -4/(15pi)",
    "operator-normalization": "singular-integral constant at order 1/2 equals 1/pi",
    "operator-sign-pattern": "g_0 > 0 and g_k < 0 for k >= 1 across random orders",
    "operator-symmetry": "assembled matrices are exactly symmetric",
    "operator-positive-definite": "smallest eigenvalue positive for all tested sizes",
    "operator-closed-form": "profile (1-x^2)^s reproduces its constant image away from the boundary",
    "operator-closed-form-refinement": "closed-form profile error falls under every refinement",
    "operator-oracle-agreement": "matrix operator matches the quadrature oracle within the envelope",
    "operator-oracle-refinement": "error against the quadrature oracle falls under every refinement",
    "norm-duality": "dual norm equals the supremum of the duality pairing",
    "norm-duality-sup-bound": "no sampled duality pairing exceeds the dual norm",
    "state-nonnegativity": "nonnegative initial data keep the state nonnegative",
    "state-sup-bound": "per-step sup bound (1-dt*theta)^-n holds at every computed level",
    "state-sup-growth": "sup-norm growth stays within 1.05 of the exponential envelope",
    "shifted-energy-sup": "shifted system: sup-in-time L2 energy bounded by data",
    "shifted-energy-dissipation": "shifted system: dissipated energy bounded by data",
    "sourced-energy-sup": "sourced system: sup-in-time L2 bounded by exp(2 theta T) times data",
    "sourced-energy-dissipation": "sourced system: dissipated energy bounded by exp(2 theta T) times data",
    "state-supl2-bound": "homogeneous state: sup-in-time L2 bounded by exp(theta T) times the datum",
    "adjoint-sup-bound": "adjoint per-step sup bound from the M-matrix property",
    "adjoint-energy-ratio": "adjoint energy per unit data (constant unknown, reported)",
    "derivative-convex-exact": "zero initial state: gradient reduces to the regularizer exactly",
    "derivative-convex-fd": "zero initial state: central differences match the gradient",
    "gradient-fd": "adjoint gradient matches central differences",
    "gradient-duality": "terminal sensitivity pairing equals window multiplier pairing",
    "gradient-fd-vshape": "finite-difference error is V-shaped in the step with a deep minimum",
    "hessian-symmetry": "<Hw,d> = <Hd,w>: the second-order adjoint transposes the linearized solver",
    "hessian-fd": "Hessian quadratic form matches second central differences",
    "linearized-fd-slope": "linearized solver is the first-order term of the control perturbation",
    "state-lipschitz": "control-to-state difference ratios bounded and mesh-stable",
    "adjoint-lipschitz": "control-to-adjoint difference ratios bounded and mesh-stable",
    "lipschitz-data-scaling": "difference ratios scale linearly with the initial-data magnitude",
    "optimizer-converged": "projected gradient reaches the KKT tolerance (computed minimizer witness)",
    "variational-inequality": "sampled first-order inequality holds at the computed control",
    "projection-consistency": "projected gradient and fixed-point iteration agree",
    "fixed-point-converged": "fixed-point iteration reaches the KKT tolerance",
    "second-order-necessary": "sampled Hessian quotients nonnegative on the tau = 0 critical cone",
    "second-order-sufficient": "sampled Hessian quotients at least alpha/2 on the critical cone",
    "quadratic-growth": "sampled costs do not undercut the computed minimum",
    "local-uniqueness": "random starts converge to one control under the smallness condition",
    "local-uniqueness-converged": "every random start of the uniqueness probe converges",
    "condition-smallness": "smallness-condition margins for uniqueness and sufficiency (reported)",
}


@dataclass
class CheckResult:
    """A measured value and the closed interval [lower, upper] it must lie in."""

    name: str
    value: float
    lower: float = -math.inf
    upper: float = math.inf
    detail: str = ""

    @property
    def report_only(self) -> bool:
        return self.lower == -math.inf and self.upper == math.inf

    @property
    def passed(self) -> bool:
        return self.report_only or self.lower <= self.value <= self.upper

    @property
    def status(self) -> str:
        return "pass" if self.passed else "FAIL"

    @property
    def rule(self) -> str:
        if self.report_only:
            return "reported"
        if self.lower == -math.inf:
            return f"<= {self.upper:.6g}"
        if self.upper == math.inf:
            return f">= {self.lower:.6g}"
        return f"in [{self.lower:.6g}, {self.upper:.6g}]"


def _csv_bound(bound: float) -> str:
    return "" if math.isinf(bound) else f"{bound:.17g}"


@dataclass
class VerifyReport:
    checks: list[CheckResult] = field(default_factory=list)
    # suite name -> (wall, CPU) seconds in the process that ran the suite
    timings: dict = field(default_factory=dict, compare=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, value: float, lower: float = -math.inf,
            upper: float = math.inf, detail: str = "") -> None:
        if name not in CLAIMS:
            raise KeyError(f"unregistered check name '{name}'")
        self.checks.append(CheckResult(name, float(value), float(lower), float(upper), detail))

    def extend(self, other: "VerifyReport") -> None:
        self.checks.extend(other.checks)
        self.timings.update(other.timings)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            line = f"[{c.status}] {c.name}: value={c.value:.10g} rule={c.rule}"
            if c.detail:
                line += f" ({c.detail})"
            lines.append(line)
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'} "
                     f"({sum(c.passed for c in self.checks)}/{len(self.checks)})")
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check", "value", "lower", "upper", "status"])
            for c in self.checks:
                writer.writerow([c.name, f"{c.value:.17g}", _csv_bound(c.lower),
                                 _csv_bound(c.upper), c.status])

    def timings_to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["suite", "wall_s", "cpu_s"])
            for name, (wall, cpu) in self.timings.items():
                writer.writerow([name, f"{wall:.6f}", f"{cpu:.6f}"])


# Suite name -> the module function that runs it.  run_all looks the function
# up when it runs, so a wrapper installed on the module attribute is called.
SUITES = {
    "operator": "run_operator_suite",
    "maximum-principle": "run_maximum_principle_suite",
    "estimates": "run_estimate_suite",
    "derivatives": "run_derivative_suite",
    "lipschitz": "run_lipschitz_suite",
    "optimality": "run_optimality_suite",
}


@dataclass
class SuiteConfig:
    """Seed, suites and case counts of a harness run; every suite reads its
    settings from here."""

    seed: int = 0
    suites: tuple = tuple(SUITES)
    mp_cases: int = 100
    estimate_cases: int = 50
    derivative_cases: int = 20
    lipschitz_pairs: int = 50
    vi_samples: int = 100
    coercivity_samples: int = 64
    growth_samples: int = 50
    starts: int = 8
    spec: ProblemSpec | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not self.suites:
            raise ValueError("suites must name at least one suite")
        unknown = [name for name in self.suites if name not in SUITES]
        if unknown:
            raise ValueError(f"unknown suite(s): {', '.join(unknown)}; "
                             f"available: {', '.join(SUITES)}")
        repeated = sorted({name for name in self.suites if self.suites.count(name) > 1})
        if repeated:
            raise ValueError(f"suites names {', '.join(repeated)} more than once")
        for name in ("mp_cases", "estimate_cases", "derivative_cases", "lipschitz_pairs",
                     "vi_samples", "coercivity_samples", "growth_samples", "starts"):
            count = getattr(self, name)
            if count < 1:
                raise ValueError(f"{name} must be at least 1, got {count}")


# The order in which workers take the suites: longest first, as measured at
# the default SuiteConfig counts, so that the optimality suite, the long
# pole, starts at once.
_LONGEST_FIRST = ("optimality", "estimates", "lipschitz", "maximum-principle", "operator",
                  "derivatives")


def run_all(cfg: SuiteConfig | None = None) -> VerifyReport:
    """The checks of every suite in cfg.suites, in that order.

    The suites run in fresh worker interpreters, at most one per usable CPU,
    each taking the longest suite left when it is free.  They run here, one
    after another, when there is one suite or one usable CPU, or when a
    requested suite's module attribute is not this module's own function (a
    tracing wrapper or a test's patch), which is then called here.  A
    worker sees no other patch.  Every suite seeds its own generator from
    cfg.seed and workers inherit the environment, BLAS thread count
    included, so both ways give the same report bit for bit.  Workers also
    get OPENBLAS_THREAD_TIMEOUT=4 unless the caller set it: an idle OpenBLAS
    helper thread then sleeps at once instead of spinning on a CPU another
    worker needs.  It changes no thread count and so no value, and BLAS
    libraries other than OpenBLAS ignore it.  A warning a suite issues in a
    worker is issued again here.  The report's timings hold each suite's
    wall and CPU seconds in the process that ran it.
    """
    cfg = SuiteConfig() if cfg is None else cfg
    suites = {name: globals()[SUITES[name]] for name in cfg.suites}
    workers = min(len(suites), _usable_cpus())
    if workers < 2 or any(fn is not _OWN_SUITES[name] for name, fn in suites.items()):
        reports = {name: _run_timed(name, fn, cfg) for name, fn in suites.items()}
    else:
        reports = _run_in_workers(cfg, workers)
    report = VerifyReport()
    for name in cfg.suites:
        report.extend(reports[name])
    return report


def _run_timed(name: str, fn, cfg: SuiteConfig) -> VerifyReport:
    """fn(cfg), timed as suite `name` in this process."""
    wall, cpu = time.perf_counter(), time.process_time()
    report = fn(cfg)
    report.timings[name] = (time.perf_counter() - wall, time.process_time() - cpu)
    return report


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


# A worker is `python -c` on this: it imports fracctrl from the source tree
# the caller's fracctrl came from and serves suites until its stdin closes.
_WORKER = "import sys; sys.path.insert(0, {root!r}); from fracctrl.verify import _serve; _serve()"
# Added to the environment a worker inherits unless the caller set it (see
# run_all): an idle OpenBLAS helper thread, of numpy's pool or scipy's,
# sleeps after 2^4 cycles instead of spinning for the default 2^28.
_WORKER_ENV = {"OPENBLAS_THREAD_TIMEOUT": "4"}


def _run_in_workers(cfg: SuiteConfig, workers: int) -> dict[str, VerifyReport]:
    """Each suite's report from `workers` worker processes.  A suite's error
    is raised here as the worker raised it, and a worker that cannot start
    or that dies raises SolverError; either way every worker is killed and
    reaped first."""
    import pickle
    import selectors
    import subprocess
    import sys
    import warnings

    command = [sys.executable, "-c", _WORKER.format(
        root=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))]
    pending = [name for name in _LONGEST_FIRST if name in cfg.suites]
    env = {**_WORKER_ENV, **os.environ}
    reports, procs, registries = {}, [], {}
    ready = selectors.DefaultSelector()

    def send(proc):
        name = pending.pop(0)
        try:
            proc.stdin.write(pickle.dumps((name, cfg)))
            proc.stdin.flush()
        except BrokenPipeError:
            raise _died(proc, name) from None
        ready.register(proc.stdout, selectors.EVENT_READ, (proc, name))

    try:
        for _ in range(workers):
            try:
                procs.append(subprocess.Popen(command, stdin=subprocess.PIPE,
                                              stdout=subprocess.PIPE, env=env))
            except OSError as exc:
                raise SolverError(f"could not start a worker for the {pending[0]} "
                                  f"suite: {exc}") from exc
            send(procs[-1])
        while ready.get_map():
            for key, _ in ready.select():
                ready.unregister(key.fileobj)
                proc, name = key.data
                try:
                    ok, payload, caught = pickle.load(proc.stdout)
                except (EOFError, pickle.UnpicklingError):
                    raise _died(proc, name) from None
                # a registry per file, as modules have in-process, so that
                # the "default" filter shows each location once
                for message, category, filename, lineno in caught:
                    warnings.warn_explicit(message, category, filename, lineno,
                                           registry=registries.setdefault(filename, {}))
                if not ok:
                    raise payload
                reports[name] = payload
                if pending:
                    send(proc)
    finally:
        ready.close()
        for proc in procs:
            proc.kill()
            proc.communicate()  # closes the pipes and reaps the process
    return reports


def _died(proc, name: str) -> SolverError:
    """The error for a worker that stopped answering; it is killed first,
    which leaves the status of one that exited on its own as it was."""
    proc.kill()
    return SolverError(f"the worker running the {name} suite died "
                       f"(exit status {proc.wait()})")


def _serve() -> None:
    """A worker's loop: read pickled (suite name, SuiteConfig) pairs from
    stdin until it closes and answer each on stdout with a pickled
    (True, report with its timing) or (False, the exception the suite
    raised), followed by every warning the suite issued as (message,
    category, filename, lineno)."""
    import pickle
    import signal
    import sys
    import warnings

    # an interrupt is the parent's to handle: it kills its workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    jobs, answers = sys.stdin.buffer, sys.stdout.buffer
    while True:
        try:
            name, cfg = pickle.load(jobs)
        except EOFError:
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                answer = (True, _run_timed(name, _OWN_SUITES[name], cfg))
            except Exception as exc:  # sent to the parent, which raises it
                answer = (False, exc)
        caught = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
        answers.write(pickle.dumps((*answer, caught)))
        answers.flush()


# The gradient-fd rule: a central difference at this step matches the
# adjoint gradient to this bound, in every derivative case and in
# fracctrl gradcheck.
GRADIENT_FD_STEP = 1e-5
GRADIENT_FD_BOUND = 1e-6


def central_difference(spec: ProblemSpec, v: ControlField, w: np.ndarray, eps: float) -> float:
    """Directional derivative of the cost at v along w by central differences."""
    plus = cost(spec, v.like(v.values + eps * w))
    minus = cost(spec, v.like(v.values - eps * w))
    return (plus - minus) / (2 * eps)


def directional_error(spec: ProblemSpec, g: np.ndarray, w: np.ndarray, fd: float) -> float:
    """Error of a difference quotient fd of the cost along w against <g, w>,
    over its Cauchy-Schwarz bound ||g|| ||w||; unlike |<g, w>| that scale
    cannot cancel to zero."""
    return abs(spec.control_dot(g, w) - fd) / (spec.control_norm(g) * spec.control_norm(w))


def sup_envelope_ratios(rho: TimeField, theta: float) -> tuple[float, float]:
    """Worst ratio of sup|rho^n| to the per-step envelope (1 - dt*theta)^(-n) sup|rho^0|,
    and of max_n sup|rho^n| to the growth envelope exp(theta T) sup|rho^0|, over
    the computed levels n = 1..nt (the datum's ratios are 1 and exp(-theta T)).
    An adjoint q is read in march order: its terminal datum, then q.values[:0:-1].
    Both are 0 when the datum vanishes, since the trajectory then stays zero.
    """
    grid = rho.grid
    sups = np.max(np.abs(rho.values), axis=1)
    sup0 = float(sups[0])
    if sup0 == 0.0:
        return 0.0, 0.0
    bounds = (1.0 - grid.dt * theta) ** (-np.arange(1, grid.nt + 1)) * sup0
    growth = float(sups[1:].max()) / (math.exp(theta * grid.T) * sup0)
    return float(np.max(sups[1:] / bounds)), growth


def run_operator_suite(cfg: SuiteConfig) -> VerifyReport:
    report = VerifyReport()

    g = assemble_weights(0.5, 3)
    ref = np.array([4 / math.pi, -4 / (3 * math.pi), -4 / (15 * math.pi)])
    report.add("operator-weights", np.max(np.abs(g - ref)), upper=1e-14)
    report.add("operator-normalization", abs(normalization_constant(0.5) - 1 / math.pi),
               upper=1e-14)

    rng = np.random.default_rng(0)
    sign_ok = True
    for s in rng.uniform(1e-3, 1 - 1e-3, size=1000):
        w = assemble_weights(s, 201)
        if not (w[0] > 0 and np.all(w[1:] < 0)):
            sign_ok = False
            break
    report.add("operator-sign-pattern", float(sign_ok), lower=1.0,
               detail="1000 random orders, 201 weights each")

    sym_err = 0.0
    min_eig = math.inf
    for n, s in ((64, 0.25), (128, 0.5), (256, 0.75), (256, 0.5)):
        grid = Grid.from_window(-1.0, 1.0, n, (-1.0, 1.0), 1.0, 1)
        op = assemble_operator(grid, s)
        sym_err = np.maximum(sym_err, np.max(np.abs(op.matrix - op.matrix.T)))
        min_eig = np.minimum(min_eig, np.linalg.eigvalsh(op.matrix).min())
    report.add("operator-symmetry", sym_err, upper=0.0)
    # the smallest positive float as a closed lower bound: min_eig > 0 exactly
    report.add("operator-positive-definite", min_eig, lower=math.ulp(0.0),
               detail="dense eigensolve, n up to 256")

    # closed-form profile: max interior error decreases monotonically for each
    # order; at s = 0.5 the discrete-L2 error over the kept nodes meets 1e-3
    not_falling = 0
    l2_at_half = math.nan
    details = []
    for s in (0.25, 0.5, 0.75):
        c = 2.0**(2 * s) * math.gamma(s + 1) * math.gamma(s + 0.5) / math.gamma(0.5)
        max_errs = []
        for n in (64, 128, 256):
            grid = Grid.from_window(-1.0, 1.0, n, (-1.0, 1.0), 1.0, 1)
            op = assemble_operator(grid, s)
            x = grid.nodes
            u = np.maximum(1 - x**2, 0.0)**s
            keep = np.abs(x) <= 0.8  # nodes within 10% of the boundary excluded
            err = op.apply(u)[keep] - c
            max_errs.append(float(np.max(np.abs(err))))
            if s == 0.5 and n == 256:
                l2_at_half = l2_norm(grid.dx, err)
        not_falling += sum(not b < a for a, b in zip(max_errs, max_errs[1:]))
        details.append(f"s={s}: max_err={max_errs[-1]:.3e}")
    report.add("operator-closed-form", l2_at_half, upper=1e-3,
               detail="; ".join(details) + "; value is the L2 error at s=0.5, n=256")
    report.add("operator-closed-form-refinement", not_falling, upper=0.0,
               detail="refinements n=64->128->256 whose max error did not fall")

    not_falling = 0
    worst_rel = 0.0
    test_u = lambda y: math.exp(-y**2) * max(1 - y**2, 0.0)**2
    points = [0.0, 0.31, -0.52, 0.7, -0.11]
    for s in (0.3, 0.5, 0.7):
        worsts = []
        for n in (64, 128, 256):
            grid = Grid.from_window(-1.0, 1.0, n, (-1.0, 1.0), 1.0, 1)
            op = assemble_operator(grid, s)
            au = op.apply(np.array([test_u(xi) for xi in grid.nodes]))
            worst = 0.0
            for p in points:
                i = int(round((p - grid.a) / grid.dx)) - 1
                ref_val = quadrature_oracle(test_u, grid.nodes[i], s, grid.dx / 4)
                worst = np.maximum(worst, abs(au[i] - ref_val))
            envelope = 0.5 * grid.dx ** min(2 - 2 * s, 1.0)
            worst_rel = np.maximum(worst_rel, worst / envelope)
            worsts.append(worst)
        not_falling += sum(not b < a for a, b in zip(worsts, worsts[1:]))
    report.add("operator-oracle-agreement", worst_rel, upper=1.0,
               detail="worst error relative to the refinement envelope")
    report.add("operator-oracle-refinement", not_falling, upper=0.0,
               detail="refinements n=64->128->256 whose error did not fall")

    rng = np.random.default_rng(1)
    grid = Grid.from_window(-1.0, 1.0, 32, (-1.0, 1.0), 1.0, 1)
    op = assemble_operator(grid, 0.6)
    f = rng.standard_normal(32)
    target = vstar_norm(op, f)
    # 1000 random pairings and the maximizer A^(-1) f
    samples = [rng.standard_normal(32) for _ in range(1000)] + [op.solve(f)]
    best = np.max([grid.dx * float(np.dot(f, u)) / v_seminorm(op, u) for u in samples])
    report.add("norm-duality", abs(best - target) / target, upper=1e-6)
    report.add("norm-duality-sup-bound", best, upper=target * (1 + 1e-12),
               detail="largest sampled pairing; the bound is the dual norm times 1 + 1e-12")
    return report


def run_maximum_principle_suite(cfg: SuiteConfig) -> VerifyReport:
    report = VerifyReport()
    rng = np.random.default_rng(cfg.seed)
    base = benchmark_problem(64, 256)
    zeros = np.zeros(base.grid.n)
    worst_min, envelopes = 0.0, []
    for case in range(cfg.mp_cases):
        rho0 = np.abs(rng.standard_normal(base.grid.n)) * rng.uniform(0.1, 2.0)
        spec = base.with_data(rho0, zeros)
        if case == 0:
            # adversarial control alternating between the box corners per step
            vals = np.empty((spec.grid.nt, spec.grid.n_omega))
            vals[0::2] = spec.vmax
            vals[1::2] = spec.vmin
            v = ControlField(vals, spec.grid, spec.vmin, spec.vmax)
        else:
            v = random_admissible(spec, rng)
        rho = solve_state(spec, v)
        worst_min = np.minimum(worst_min, rho.values.min() / spec.rho0_sup)
        envelopes.append(sup_envelope_ratios(rho, v.theta))
    worst_step, worst_growth = np.max(envelopes, axis=0)
    report.add("state-nonnegativity", worst_min, lower=-1e-12,
               detail=f"{cfg.mp_cases} cases incl. alternating-corner control; "
                      f"value is min rho / sup|rho0|")
    report.add("state-sup-bound", worst_step, upper=1.0 + 1e-12,
               detail="worst ratio to the per-step envelope")
    report.add("state-sup-growth", worst_growth, upper=1.05,
               detail=f"worst ratio to exp(theta T) sup|rho0| at nt={base.grid.nt}")
    return report


def run_estimate_suite(cfg: SuiteConfig) -> VerifyReport:
    report = VerifyReport()
    rng = np.random.default_rng(cfg.seed)
    base = benchmark_problem(64, 256)
    grid, op = base.grid, base.operator
    slack = 1.1
    ratios = {name: [] for name in ("shift_sup", "shift_diss", "src_sup", "src_diss", "supl2",
                                    "adj_step", "adj_energy")}
    e2 = math.exp(2.0 * base.theta * grid.T)
    e1 = math.exp(base.theta * grid.T)
    for _ in range(cfg.estimate_cases):
        rho0 = rng.standard_normal(grid.n)
        target = 0.5 * rng.standard_normal(grid.n)
        spec = base.with_data(rho0, target)
        v = random_admissible(spec, rng)
        f = rng.standard_normal((grid.nt, grid.n))
        data = source_vstar_norm(spec, f) ** 2 + l2_norm(grid.dx, rho0) ** 2

        z = solve_shifted(spec, v, f)
        ratios["shift_sup"].append(z.sup_l2() ** 2 / data)
        ratios["shift_diss"].append(z.st_v(op) ** 2 / data)

        # the sourced solve, the state and the adjoint march on one set of factors
        steps = StepSolver(spec, v)
        rho_f = solve_sourced(spec, v, f, steps=steps)
        ratios["src_sup"].append(rho_f.sup_l2() ** 2 / (e2 * data))
        ratios["src_diss"].append(rho_f.st_v(op) ** 2 / (e2 * data))

        e = kkt_residual(spec, v, steps=steps)
        ratios["supl2"].append(e.rho.sup_l2() / (e1 * l2_norm(grid.dx, rho0)))
        # q in march order from its terminal datum, as kkt_residual takes it
        marched = np.vstack([e.rho.final - spec.rho_target, e.q.values[:0:-1]])
        ratios["adj_step"].append(sup_envelope_ratios(TimeField(marched, grid), v.theta)[0])
        denom = e1 * (l2_norm(grid.dx, rho0) + l2_norm(grid.dx, target))
        ratios["adj_energy"].append(e.q.st_v(op) / denom)
    worst = {name: np.max(values) for name, values in ratios.items()}

    report.add("shifted-energy-sup", worst["shift_sup"], upper=slack)
    report.add("shifted-energy-dissipation", worst["shift_diss"], upper=slack)
    report.add("sourced-energy-sup", worst["src_sup"], upper=slack,
               detail="ratio already divided by exp(2 theta T)")
    report.add("sourced-energy-dissipation", worst["src_diss"], upper=slack,
               detail="ratio already divided by exp(2 theta T)")
    report.add("state-supl2-bound", worst["supl2"], upper=slack,
               detail="ratio already divided by exp(theta T)")
    report.add("adjoint-sup-bound", worst["adj_step"], upper=1.0 + 1e-12,
               detail="worst ratio to the per-step envelope")
    report.add("adjoint-energy-ratio", worst["adj_energy"],
               detail="energy norm per exp(theta T)(|rho0| + |target|); constant not asserted")
    return report


def run_derivative_suite(cfg: SuiteConfig) -> VerifyReport:
    report = VerifyReport()
    rng = np.random.default_rng(cfg.seed)
    worst_fd = worst_dual = worst_sym = worst_hfd = worst_slope = 0.0
    vshape_min = math.inf
    n = 20
    base = ProblemConfig(n=n, nt=32, omega_a=-0.6, omega_b=0.6, rho0="zero",
                         rhod="zero").build()

    # zero initial state: rho vanishes, the gradient is alpha*v exactly; the
    # discarded rho0 draw keeps the rng stream of every later case
    rng.standard_normal(n)
    spec0 = base.with_data(np.zeros(n), rng.standard_normal(n))
    v0 = random_admissible(spec0, rng)
    w0 = rng.standard_normal(v0.values.shape)
    g0 = kkt_residual(spec0, v0).g
    report.add("derivative-convex-exact", np.max(np.abs(g0 - spec0.alpha * v0.values)),
               upper=0.0)
    # the cost is exactly quadratic here, so the central difference carries no
    # truncation term at any step; a large step avoids cancellation noise
    fd0 = central_difference(spec0, v0, w0, 1e-2)
    report.add("derivative-convex-fd", directional_error(spec0, g0, w0, fd0),
               upper=1e-10)

    for case in range(cfg.derivative_cases):
        spec = base.with_data(rng.standard_normal(n), rng.standard_normal(n))
        v = random_admissible(spec, rng, 0.7)
        w = rng.standard_normal(v.values.shape)
        d = rng.standard_normal(v.values.shape)

        e = kkt_residual(spec, v)
        rho = e.rho
        directional = spec.control_dot(e.g, w)
        fd = central_difference(spec, v, w, GRADIENT_FD_STEP)
        worst_fd = np.maximum(worst_fd, directional_error(spec, e.g, w, fd))
        y = solve_linearized(spec, v, w[None], rho, steps=e.steps).values[..., 0]

        # duality pairing over its Cauchy-Schwarz bound dx |r| |y_T|; the
        # bound is 0 when rho(T) meets the target, and the NaN of 0/0 fails
        r = rho.final - spec.rho_target
        lhs = spec.grid.dx * float(np.dot(r, y[-1]))
        rhs = spec.control_dot(w * rho.restrict_omega(), e.q.restrict_omega())
        scale = spec.grid.dx * np.linalg.norm(r) * np.linalg.norm(y[-1])
        worst_dual = np.maximum(worst_dual, abs(lhs - rhs) / scale)

        # the symmetry error over its Cauchy-Schwarz scale, which cannot cancel
        hw, hd = hessian_action(e, np.stack([w, d]))
        h_wd, h_dw = spec.control_dot(hw, d), spec.control_dot(hd, w)
        cs = min(spec.control_norm(hw) * spec.control_norm(d),
                 spec.control_norm(hd) * spec.control_norm(w))
        worst_sym = np.maximum(worst_sym, abs(h_wd - h_dw) / cs)

        h_ww = spec.control_dot(hw, w)
        eps2 = 1e-3
        sd = (cost(spec, v.like(v.values + eps2 * w)) - 2 * e.j
              + cost(spec, v.like(v.values - eps2 * w))) / eps2**2
        worst_hfd = np.maximum(worst_hfd, abs(h_ww - sd) / abs(h_ww))

        eps_grid = np.array([1e-2, 1e-3, 1e-4])
        errs = []
        for eps in eps_grid:
            pert = solve_state(spec, v.like(v.values + eps * w))
            errs.append(TimeField((pert.values - rho.values) / eps - y, spec.grid).st_l2())
        slope = float(np.polyfit(np.log(eps_grid), np.log(errs), 1)[0])
        worst_slope = np.maximum(worst_slope, abs(slope - 1.0))

        if case < 3:
            sweep = [abs(central_difference(spec, v, w, eps) - directional)
                     / abs(directional) for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
            vshape_min = np.minimum(vshape_min, np.min(sweep))

    report.add("gradient-fd", worst_fd, upper=GRADIENT_FD_BOUND,
               detail=f"{cfg.derivative_cases} cases, central differences at eps=1e-5")
    report.add("gradient-duality", worst_dual, upper=1e-12)
    report.add("hessian-symmetry", worst_sym, upper=1e-13)
    report.add("hessian-fd", worst_hfd, upper=1e-4, detail="second central differences at eps=1e-3")
    report.add("linearized-fd-slope", worst_slope, upper=0.1,
               detail="worst |slope - 1| on the log-log fit")
    report.add("gradient-fd-vshape", vshape_min, upper=1e-7,
               detail="minimum of the eps sweep over 3 cases")
    return report


def _lipschitz_ratios(spec: ProblemSpec, pairs) -> tuple[float, float]:
    op = spec.operator
    state_ratio = adj_ratio = 0.0
    for v1, v2 in pairs:
        u1, u2 = (ControlField(v, spec.grid, spec.vmin, spec.vmax) for v in (v1, v2))
        # each control's state and adjoint march on one set of factors
        ev1, ev2 = (kkt_residual(spec, u, steps=StepSolver(spec, u)) for u in (u1, u2))
        dv = spec.control_norm(v1 - v2)
        num = TimeField(ev1.rho.values - ev2.rho.values, spec.grid).st_v(op)
        state_ratio = np.maximum(state_ratio, num / dv)
        qnum = TimeField(ev1.q.values - ev2.q.values, spec.grid).st_v(op)
        adj_ratio = np.maximum(adj_ratio, qnum / dv)
    return state_ratio, adj_ratio


def _fit_lipschitz_constant(ratio, spec: ProblemSpec) -> float:
    """Solve ratio = [(2 + C1 theta) e^(theta T) + 1] e^(theta T) sup|rho0| for C1."""
    e1 = math.exp(spec.theta * spec.grid.T)
    return ((ratio / (e1 * spec.rho0_sup) - 1.0) / e1 - 2.0) / spec.theta


def _realize_blocks(spec: ProblemSpec, block: np.ndarray) -> np.ndarray:
    """Sample a piecewise-constant space-time field on the control grid.

    The block lattice is fixed in continuum coordinates, so coarse and fine
    grids sample the same admissible control and difference ratios can be
    compared across refinement.
    """
    bt, bx = block.shape
    grid = spec.grid
    t_idx = np.minimum(((np.arange(grid.nt) + 0.5) / grid.nt * bt).astype(int), bt - 1)
    xi = (grid.nodes[grid.omega_mask] - grid.a) / (grid.b - grid.a)
    x_idx = np.minimum((xi * bx).astype(int), bx - 1)
    return block[np.ix_(t_idx, x_idx)]


def run_lipschitz_suite(cfg: SuiteConfig) -> VerifyReport:
    report = VerifyReport()
    rng = np.random.default_rng(cfg.seed)
    n_pairs = cfg.lipschitz_pairs
    base = benchmark_problem(64, 256)

    blocks = [(rng.uniform(base.vmin, base.vmax, (16, 8)),
               rng.uniform(base.vmin, base.vmax, (16, 8))) for _ in range(n_pairs)]

    def realize_pairs(spec, count):
        return [(_realize_blocks(spec, b1), _realize_blocks(spec, b2))
                for b1, b2 in blocks[:count]]

    base_pairs = realize_pairs(base, n_pairs)
    s_base, a_base = _lipschitz_ratios(base, base_pairs)

    fine = benchmark_problem(129, 512)
    s_fine, a_fine = _lipschitz_ratios(fine, realize_pairs(fine, max(n_pairs // 4, 4)))

    # value is the mesh-stability quotient; the raw ratios are reported in the
    # detail together with the fitted constant of the a-priori template
    report.add("state-lipschitz", s_fine / s_base, 0.5, 2.0,
               detail=f"ratio {s_base:.6g} (refined {s_fine:.6g}); fitted constant "
                      f"{_fit_lipschitz_constant(s_base, base):.6g}")
    report.add("adjoint-lipschitz", a_fine / a_base, 0.5, 2.0,
               detail=f"ratio {a_base:.6g} (refined {a_fine:.6g})")

    # the state map is linear in the initial datum at fixed controls, so the
    # ratio must scale exactly with the data amplitude (both data scaled)
    small = base.with_data(bump_profile(base.grid, 0.01), bump_profile(base.grid, 0.005))
    s_small, a_small = _lipschitz_ratios(small, base_pairs)
    # np.max, not max: a NaN deviation must reach the value and fail
    report.add("lipschitz-data-scaling", np.max(np.abs([s_small / s_base - 0.1,
                                                         a_small / a_base - 0.1])),
               upper=1e-6, detail="deviation of the ratio-of-ratios from the 0.1 data scale")
    return report


def sampled_vi_min(e: Evaluation, n_samples: int, rng) -> float:
    """Minimum of <e.g, v - e.u> over random admissible v (first-order inequality)."""
    worst = math.inf
    for _ in range(n_samples):
        v = random_admissible(e.spec, rng)
        worst = np.minimum(worst, e.spec.control_dot(e.g, v.values - e.u.values))
    return worst


def _least_quotient(e: Evaluation, tau: float, quotients: np.ndarray) -> tuple[float, str]:
    """The least sampled quotient on the tau-critical cone, and a note for the
    detail.  An empty sample reads inf, the minimum over an empty set, where
    every point is strongly active and the cone is {0}; anywhere else it is
    inconclusive and reads NaN, which fails every bound."""
    if quotients.size:
        return np.min(quotients), ""
    if active_set(e, tau).all():
        return math.inf, "; every point is strongly active, so the cone is {0}"
    return math.nan, ""


def run_optimality_suite(cfg: SuiteConfig) -> VerifyReport:
    report = VerifyReport()
    spec = benchmark_problem() if cfg.spec is None else cfg.spec
    opts = OptimOptions(kkt_tol=1e-8)
    rng = np.random.default_rng(cfg.seed + 1)

    start = constant_control(spec.grid, 0.0, spec.vmin, spec.vmax)
    result = projected_gradient(spec, start, opts)
    # projected_gradient ends "converged" exactly when the residual of its
    # final evaluation meets kkt_tol; every check below reads that evaluation
    optimum = result.final
    report.add("optimizer-converged", optimum.residual, upper=opts.kkt_tol,
               detail=f"status={result.status} after {result.iterations} iterations")

    vi = sampled_vi_min(optimum, cfg.vi_samples, rng)
    report.add("variational-inequality", vi, lower=-1e-8,
               detail=f"{cfg.vi_samples} random admissible controls")

    uniq = uniqueness_condition(spec)
    ssc = ssc_smallness(spec)
    report.add("condition-smallness", uniq.margin,
               detail=f"uniqueness lhs={uniq.lhs:.6g} holds={uniq.holds}; "
                      f"sufficiency lhs={ssc.lhs:.6g} holds={ssc.holds} at C={spec.c_user:g}")
    # a failed smallness condition leaves sufficiency and uniqueness report-only
    observed = None if uniq.holds else "smallness condition fails; observational only"

    necessary = check_coercivity(optimum, tau=0.0,
                                 n_samples=cfg.coercivity_samples, seed=cfg.seed + 2)
    least, note = _least_quotient(optimum, 0.0, necessary)
    report.add("second-order-necessary", least, lower=-1e-8 * spec.alpha,
               detail=f"{necessary.size} sampled directions on the tau = 0 critical cone{note}")

    tau = 1e-3 * spec.alpha
    sufficient = check_coercivity(optimum, tau=tau,
                                  n_samples=cfg.coercivity_samples, seed=cfg.seed + 3)
    least, note = _least_quotient(optimum, tau, sufficient)
    report.add("second-order-sufficient", least,
               lower=-math.inf if observed else 0.5 * spec.alpha,
               detail=observed or f"{sufficient.size} sampled critical directions{note}")

    j_star = optimum.j
    gamma = 0.1 * (spec.vmax - spec.vmin)
    growth_min = math.inf
    beta_hat = math.inf
    for _ in range(cfg.growth_samples):
        direction = rng.standard_normal(optimum.u.values.shape)
        radius = gamma * rng.uniform(0.1, 1.0)
        norm = spec.control_norm(direction)
        cand = project(spec, optimum.u.values + direction * (radius / norm))
        dist = spec.control_norm(cand.values - optimum.u.values)
        if dist <= 1e-12:
            continue
        j_cand = cost(spec, cand)
        growth_min = np.minimum(growth_min, j_cand - j_star)
        beta_hat = np.minimum(beta_hat, (j_cand - j_star) / dist**2)
    report.add("quadratic-growth", growth_min, lower=-1e-10,
               detail=f"fitted growth coefficient {beta_hat:.6g} over {cfg.growth_samples} samples")

    runs = multistart_uniqueness(spec, cfg.starts, opts, cfg.seed + 4)
    finals = [r.final.u.values for r in runs]
    # np.max, not max: a NaN distance must reach the value and fail
    spread = np.max([spec.control_norm(a - b) for a, b in combinations(finals, 2)], initial=0.0)
    tolerance = 1e-6 * (spec.vmax - spec.vmin) * math.sqrt(spec.grid.omega_measure * spec.grid.T)
    multi_detail = observed or f"{cfg.starts} starts"
    report.add("local-uniqueness", spread, upper=math.inf if observed else tolerance,
               detail=multi_detail)
    report.add("local-uniqueness-converged", sum(r.status != "converged" for r in runs),
               upper=math.inf if observed else 0.0, detail=multi_detail)

    # cross-solver consistency: fixed-point iteration from a different start
    # must land on the same control
    fp_start = constant_control(spec.grid, spec.vmin + 0.75 * (spec.vmax - spec.vmin),
                                spec.vmin, spec.vmax)
    fp = fixed_point(spec, fp_start, opts)
    agree = spec.control_norm(fp.final.u.values - optimum.u.values)
    report.add("projection-consistency", agree, upper=1e-6,
               detail="L2 distance between projected-gradient and fixed-point controls")
    report.add("fixed-point-converged", fp.kkt_final, upper=opts.kkt_tol,
               detail=f"status={fp.status} after {fp.iterations} iterations")
    return report


# Each suite's own function, which a worker runs; run_all runs the suites in
# process when a module attribute no longer holds it.
_OWN_SUITES = {name: globals()[attr] for name, attr in SUITES.items()}
