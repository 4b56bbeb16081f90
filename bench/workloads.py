"""The benchmark's workloads.

Each workload builds its inputs from the seed when constructed (that is the
set-up ``setup_s`` times), runs one job per ``job(i)`` call and times only
the call into fracctrl, and checks every output afterwards, outside the
timed region.  ``job`` returns (output, parts): parts maps each timed part's
name to a list of the seconds its samples took.

Why these three (the reasons are repeated in BENCHMARK.json):
- verify-harness is the job users run and the ROADMAP's headline number;
  hundreds of small (n <= 129) time-varying solves, so per-level
  factorization and scipy wrapper overhead dominate.
- optimize-armijo is the optimizer's real loop: 18 accepted steps with
  about one rejected Armijo trial each, every trial a state solve and every
  accepted control factorized twice (state, then adjoint).
- grid-sweep grows the size: the gradient is factorization-bound and grows
  as n^3, while the CLI solve with a time-constant control factorizes once
  and spends most of its time writing CSV files.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

# Jobs call fracctrl through its module attributes (control.gradient, not a
# local binding), so a traced run's wrappers see those calls.
from fracctrl import cli, control, optimize
from fracctrl.control import cost_from_state
from fracctrl.fracop import Grid
from fracctrl.optimize import OptimOptions
from fracctrl.pdesolve import ControlField, solve_state
from fracctrl.problem import ProblemSpec, benchmark_problem, bump_profile
from fracctrl.verify import CLAIMS, SuiteConfig, VerifyReport, run_all


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _count_lines(path: Path) -> int:
    """Newlines in the file; -1 if it does not exist."""
    if not path.is_file():
        return -1
    lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
    return lines


class VerifyHarness:
    """The full ``fracctrl verify`` harness: all six suites, default counts.

    One job is one ``run_all`` at the run's seed; an operation is one check.
    """

    name = "verify-harness"
    min_jobs = max_jobs = 1  # one harness already outlasts --seconds
    # A second full harness would cost as much as the first, so a run with one
    # report re-runs these three fast suites and compares their checks byte
    # for byte.  A traced run has two full reports and compares all of them.
    RERUN_SUITES = ("operator", "maximum-principle", "derivatives")

    def __init__(self, seed: int, workdir: Path):
        self.cfg = SuiteConfig(seed=seed)

    def job(self, i: int):
        report, seconds = _timed(run_all, self.cfg)
        return report, {"verify_s": [seconds]}

    def check(self, reports):
        problems = []
        attempted = sum(len(r.checks) for r in reports)
        failed = sum(not c.passed for r in reports for c in r.checks)
        if failed:
            problems.append(f"{failed} verify checks failed")
        for r in reports:
            names = [c.name for c in r.checks]
            if sorted(names) != sorted(CLAIMS):
                problems.append("report does not cover every CLAIMS entry exactly once")
                break
        texts = [r.to_text() for r in reports]
        if len(reports) == 1:
            rerun = run_all(replace(self.cfg, suites=self.RERUN_SUITES))
            names = {c.name for c in rerun.checks}
            texts = [VerifyReport([c for c in reports[0].checks if c.name in names]).to_text(),
                     rerun.to_text()]
        if len(set(texts)) != 1:
            problems.append("report text differs between repeats of one seed")
        return attempted, failed, problems


class OptimizeArmijo:
    """Projected gradient to kkt_tol=1e-7 from seeded uniform-random starts.

    The instance has real Armijo backtracking (alpha=0.1, larger data than
    the reference instance, which converges in 2 iterations).  Every start
    converges to the same cost.  One job is one start; an operation is one
    start.

    The tolerance is 1e-7, not 1e-8: this instance's KKT residual bottoms
    out near 1e-8, where Armijo can no longer resolve the cost decrease, and
    about one start in five then stops as "stalled" at 1.2e-8 to 2.4e-8
    (see bench/README.md, known defects).
    """

    name = "optimize-armijo"
    min_jobs, max_jobs = 3, None
    KKT_TOL = 1e-7
    J_REF = 0.0142555212087527  # the minimum every start reaches
    J_TOL = 1e-10

    def __init__(self, seed: int, workdir: Path):
        grid = Grid.from_window(a=-1.0, b=1.0, n=127, window=(-0.5, 0.5), T=0.5, nt=200)
        self.spec = ProblemSpec(grid=grid, s=0.5, alpha=0.1, vmin=-1.0, vmax=1.0,
                                rho0=bump_profile(grid, 1.0),
                                rho_target=bump_profile(grid, 0.8))
        self.seed = seed
        self.opts = OptimOptions(kkt_tol=self.KKT_TOL)

    def start(self, i: int) -> ControlField:
        spec = self.spec
        rng = np.random.default_rng([self.seed, i])
        values = rng.uniform(spec.vmin, spec.vmax, size=(spec.grid.nt, spec.grid.n_omega))
        return ControlField(values, spec.grid, vmin=spec.vmin, vmax=spec.vmax)

    def job(self, i: int):
        result, seconds = _timed(optimize.projected_gradient, self.spec, self.start(i),
                                 self.opts)
        return result, {"optimize_s": [seconds]}

    def check(self, results):
        problems = []
        bad = [r for r in results
               if r.status != "converged" or not r.kkt_final <= self.KKT_TOL]
        off = [r for r in results if not abs(r.j_final - self.J_REF) <= self.J_TOL]
        failed = len({id(r) for r in bad + off})
        if bad:
            problems.append(f"{len(bad)} starts did not converge to KKT <= {self.KKT_TOL:g}")
        if off:
            problems.append(f"{len(off)} starts end with a cost off {self.J_REF!r} "
                            f"by more than {self.J_TOL:g}")
        return len(results), failed, problems


class GridSweep:
    """Reference instance at n = 127, 255, 511, 1023 with nt = 200.

    One job is one sweep: exact gradients with a seeded time-varying control
    at every size (small sizes repeated so their medians settle), then one
    in-process ``fracctrl solve --control "constant(0.3)" --adjoint`` at
    n = 1023.  An operation is one gradient or one CLI call.
    """

    name = "grid-sweep"
    min_jobs = max_jobs = 1  # one sweep already outlasts --seconds
    SIZES = (127, 255, 511, 1023)
    REPEATS = {127: 5, 255: 3, 511: 1, 1023: 1}
    CLI_N = 1023
    FD_EPS = 1e-5  # the step and threshold of verify's gradient-fd check
    FD_TOL = 1e-6

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.cases = {}
        for n in self.SIZES:
            spec = benchmark_problem(n=n)
            spec.operator  # assemble now: operator assembly is set-up work
            shape = (spec.grid.nt, spec.grid.n_omega)
            # A fresh control for every repeat, so no repeat can reuse work
            # done for an earlier one.
            controls = [ControlField(rng.uniform(0.7 * spec.vmin, 0.7 * spec.vmax, shape),
                                     spec.grid, vmin=spec.vmin, vmax=spec.vmax)
                        for _ in range(self.REPEATS[n])]
            self.cases[n] = (spec, controls, rng.standard_normal(shape))
        workdir.mkdir(parents=True, exist_ok=True)
        self.config = workdir / "cli.cfg"
        self.config.write_text(f"problem.n = {self.CLI_N}\n")
        self.out = workdir / "cli-out"
        self.cli_argv = ["solve", "--config", str(self.config), "--control", "constant(0.3)",
                         "--adjoint", "--out", str(self.out)]

    def job(self, i: int):
        parts = {}
        grads = {}
        for n in self.SIZES:
            spec, controls, _ = self.cases[n]
            key = f"gradient_s.n{n}"
            parts[key] = []
            grads[n] = []
            for v in controls:
                (g, _, _), seconds = _timed(control.gradient, spec, v)
                parts[key].append(seconds)
                grads[n].append(g)
        code, seconds = _timed(cli.main, self.cli_argv)
        parts[f"cli_solve_s.n{self.CLI_N}"] = [seconds]
        rows = {name: _count_lines(self.out / name) for name in ("rho.csv", "q.csv")}
        summary = _count_lines(self.out / "summary.txt")
        return {"grads": grads, "cli": (code, rows, summary)}, parts

    def _fd_error(self, n: int, g: np.ndarray) -> float:
        spec, controls, w = self.cases[n]
        v = controls[0]

        def j_at(values):
            u = v.like(values)
            return cost_from_state(spec, u, solve_state(spec, u))

        directional = spec.control_dot(g, w)
        eps = self.FD_EPS
        fd = (j_at(v.values + eps * w) - j_at(v.values - eps * w)) / (2 * eps)
        return abs(directional - fd) / abs(directional)

    def check(self, sweeps):
        problems = []
        attempted = failed = 0
        for sweep in sweeps:
            for n, gs in sweep["grads"].items():
                attempted += len(gs)
                bad = sum(not np.all(np.isfinite(g)) for g in gs)
                if bad:
                    failed += bad
                    problems.append(f"{bad} non-finite gradients at n={n}")
            attempted += 1
            code, rows, summary = sweep["cli"]
            spec = self.cases[self.CLI_N][0]
            want = (spec.grid.nt + 1) * spec.grid.n + 1
            if code != 0 or any(r != want for r in rows.values()) or summary != 5:
                failed += 1
                problems.append(f"cli solve: exit {code}, rows {rows} (want {want}), "
                                f"summary lines {summary} (want 5)")
        # Central differences cost two state solves per size, so the check
        # runs once per invocation, on the first sweep's gradients.
        for n, gs in sweeps[0]["grads"].items():
            err = self._fd_error(n, gs[0])
            if not err <= self.FD_TOL:
                failed += 1
                problems.append(f"gradient at n={n} misses central differences: "
                                f"relative error {err:.3g} > {self.FD_TOL:g}")
        return attempted, failed, problems


WORKLOADS = {w.name: w for w in (VerifyHarness, OptimizeArmijo, GridSweep)}
