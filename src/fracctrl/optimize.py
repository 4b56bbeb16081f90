"""Box-constrained minimization of the tracking cost.

Two drivers: projected gradient with Armijo backtracking along the
projection arc (monotone in J), and damped fixed-point iteration of the
projection formula u = clip(-rho*q/alpha) (no monotonicity guarantee, fast
under the small-data contraction regime).  A multistart wrapper probes
local uniqueness by comparing converged controls from random starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .control import (
    ConditionReport,
    cost_from_state,
    gradient,
    project,
    projection_residual,
    ssc_smallness,
    uniqueness_condition,
)
from .pdesolve import ControlField, TimeField, solve_state
from .problem import ProblemSpec

# Armijo trials per iteration before the iterate counts as stalled.
MAX_BACKTRACKS = 40


@dataclass
class OptimOptions:
    max_iters: int = 200
    kkt_tol: float = 1e-8
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    sigma0: float | None = None  # None -> 1/alpha, the natural quadratic scaling
    fp_damping: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.armijo_c1 < 1.0:
            raise ValueError(f"armijo constant must lie in (0,1), got {self.armijo_c1}")
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError(f"backtrack factor must lie in (0,1), got {self.backtrack}")
        if self.sigma0 is not None and not self.sigma0 > 0:
            raise ValueError(f"initial step must be positive, got {self.sigma0}")
        if not 0.0 < self.fp_damping <= 1.0:
            raise ValueError(f"fixed-point damping must lie in (0,1], got {self.fp_damping}")
        if not self.kkt_tol > 0:
            raise ValueError(f"tolerance must be positive, got {self.kkt_tol}")
        if self.max_iters < 0:
            raise ValueError(f"iteration budget must be nonnegative, got {self.max_iters}")

    def step0(self, spec: ProblemSpec) -> float:
        return self.sigma0 if self.sigma0 is not None else 1.0 / spec.alpha


@dataclass
class OptimResult:
    u: ControlField
    rho: TimeField
    q: TimeField
    j_history: list[float]
    kkt_history: list[float]
    iterations: int
    status: str  # converged | max_iters | stalled | failed

    @property
    def j_final(self) -> float:
        return self.j_history[-1]

    @property
    def kkt_final(self) -> float:
        return self.kkt_history[-1]

    def summary_text(self, spec: ProblemSpec, c_user: float = 0.0) -> str:
        uniq = uniqueness_condition(spec)
        ssc = ssc_smallness(spec, c_user)
        lines = [
            f"status = {self.status}",
            f"iterations = {self.iterations}",
            f"cost = {self.j_final:.17g}",
            f"kkt_residual = {self.kkt_final:.17g}",
            f"control_l2 = {self.u.l2():.17g}",
            f"control_sup = {self.u.sup:.17g}",
            f"uniqueness_lhs = {uniq.lhs:.17g}",
            f"uniqueness_margin = {uniq.margin:.17g}",
            f"uniqueness_holds = {uniq.holds}",
            f"ssc_constant = {c_user:.17g}",
            f"ssc_lhs = {ssc.lhs:.17g}",
            f"ssc_holds = {ssc.holds}",
        ]
        return "\n".join(lines) + "\n"


def projected_gradient(spec: ProblemSpec, v0: ControlField, opts: OptimOptions) -> OptimResult:
    """Armijo projected gradient; every iterate admissible, J nonincreasing.

    Steps v+ = clip(v - sigma*g) with sigma backtracked until
    J(v+end) <= J(v) - c1 * <g, v - v+> in L2(omega_T).
    """
    v = project(spec, v0)
    g, rho, q = gradient(spec, v)
    j_cur = cost_from_state(spec, v, rho)
    res, _ = projection_residual(spec, v, rho, q)
    j_hist, kkt_hist = [j_cur], [res]
    status = "max_iters"
    iterations = 0

    if not np.isfinite(j_cur) or not np.all(np.isfinite(g)):
        return OptimResult(v, rho, q, j_hist, kkt_hist, 0, "failed")
    if res <= opts.kkt_tol:
        return OptimResult(v, rho, q, j_hist, kkt_hist, 0, "converged")

    for it in range(1, opts.max_iters + 1):
        sigma = opts.step0(spec)
        accepted = None
        for _ in range(MAX_BACKTRACKS):
            cand = project(spec, v.values - sigma * g)
            predicted = opts.armijo_c1 * spec.control_dot(g, v.values - cand.values)
            rho_c = solve_state(spec, cand)
            j_c = cost_from_state(spec, cand, rho_c)
            if np.isfinite(j_c) and j_c <= j_cur - predicted:
                accepted = (cand, rho_c, j_c)
                break
            sigma *= opts.backtrack
        if accepted is None:
            status = "stalled"
            break
        if np.array_equal(accepted[0].values, v.values):
            # backtracking shrank the step below float resolution: the cost
            # decrease is under the solver noise floor, so the iterate froze
            status = "stalled"
            break
        v, rho, j_cur = accepted
        g, _, q = gradient(spec, v, rho=rho)
        res, _ = projection_residual(spec, v, rho, q)
        j_hist.append(j_cur)
        kkt_hist.append(res)
        iterations = it
        if not np.isfinite(j_cur) or not np.all(np.isfinite(g)):
            status = "failed"
            break
        if res <= opts.kkt_tol:
            status = "converged"
            break
    return OptimResult(v, rho, q, j_hist, kkt_hist, iterations, status)


def fixed_point(spec: ProblemSpec, v0: ControlField, opts: OptimOptions) -> OptimResult:
    """Damped iteration of v+ = (1-sigma)v + sigma*clip(-rho(v)q(v)/alpha).

    Stops on the KKT residual or on a stalled step; J is reported as
    observed, without a monotonicity guarantee.
    """
    v = project(spec, v0)
    j_hist, kkt_hist = [], []
    status = "max_iters"
    iterations = 0
    rho = q = None
    for it in range(opts.max_iters + 1):
        g, rho, q = gradient(spec, v)
        j_hist.append(cost_from_state(spec, v, rho))
        res, target = projection_residual(spec, v, rho, q)
        kkt_hist.append(res)
        iterations = it
        if not np.isfinite(j_hist[-1]) or not np.all(np.isfinite(g)):
            status = "failed"
            break
        if res <= opts.kkt_tol:
            status = "converged"
            break
        if it == opts.max_iters:
            break
        new_vals = (1.0 - opts.fp_damping) * v.values + opts.fp_damping * target.values
        step = spec.control_norm(new_vals - v.values)
        v = ControlField(new_vals, spec.grid, vmin=spec.vmin, vmax=spec.vmax)
        if step < 1e-14:
            status = "stalled"
            iterations = it + 1
            break
    return OptimResult(v, rho, q, j_hist, kkt_hist, iterations, status)


@dataclass
class MultistartReport:
    """Pairwise agreement of converged controls from random admissible starts."""

    results: list[OptimResult] = field(repr=False, default_factory=list)
    max_pairwise: float = 0.0
    tolerance: float = 0.0
    condition: ConditionReport | None = None
    all_converged: bool = False

    @property
    def assertion_mode(self) -> bool:
        return self.condition is not None and self.condition.holds


def multistart_uniqueness(spec: ProblemSpec, k_starts: int, opts: OptimOptions) -> MultistartReport:
    """Run projected gradient from k random admissible starts and compare.

    In assertion mode (the smallness condition holds) the converged controls
    must agree pairwise within 1e-6 * (vmax - vmin) * |omega_T|^(1/2);
    otherwise the report is observational.
    """
    rng = np.random.default_rng(opts.seed)
    shape = (spec.grid.nt, spec.grid.n_omega)
    results = []
    for _ in range(k_starts):
        start = ControlField(rng.uniform(spec.vmin, spec.vmax, size=shape), spec.grid,
                             vmin=spec.vmin, vmax=spec.vmax)
        results.append(projected_gradient(spec, start, opts))
    max_pair = 0.0
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            dist = spec.control_norm(results[i].u.values - results[j].u.values)
            max_pair = max(max_pair, dist)
    measure_qt = spec.grid.omega_measure * spec.grid.T
    return MultistartReport(
        results=results,
        max_pairwise=max_pair,
        tolerance=1e-6 * (spec.vmax - spec.vmin) * float(np.sqrt(measure_qt)),
        condition=uniqueness_condition(spec),
        all_converged=all(r.status == "converged" for r in results),
    )
