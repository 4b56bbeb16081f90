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

from .control import Evaluation, cost_from_state, kkt_residual, project
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
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def step0(self, spec: ProblemSpec) -> float:
        return self.sigma0 if self.sigma0 is not None else 1.0 / spec.alpha


@dataclass
class OptimResult:
    """The final evaluated iterate, the cost and KKT residual of every
    iterate from the projected start on, and how the run ended."""

    final: Evaluation
    j_history: list[float]
    kkt_history: list[float]
    status: str  # converged | max_iters | stalled | failed

    @property
    def u(self) -> ControlField:
        return self.final.u

    @property
    def rho(self) -> TimeField:
        return self.final.rho

    @property
    def q(self) -> TimeField:
        return self.final.q

    @property
    def j_final(self) -> float:
        return self.final.j

    @property
    def kkt_final(self) -> float:
        return self.final.residual

    @property
    def iterations(self) -> int:
        """Updates that produced the final iterate."""
        return len(self.j_history) - 1


def _iterate(spec: ProblemSpec, v0: ControlField, opts: OptimOptions, step) -> OptimResult:
    """Evaluate the projected start, then replace the iterate by
    step(spec, e, opts) until it is non-finite, meets kkt_tol or spends
    max_iters updates, or until step returns None (stalled)."""
    e = kkt_residual(spec, project(spec, v0))
    j_hist, kkt_hist = [e.j], [e.residual]
    status = None
    while status is None:
        if not e.finite:
            status = "failed"
        elif e.residual <= opts.kkt_tol:
            status = "converged"
        elif len(j_hist) > opts.max_iters:
            status = "max_iters"
        elif (nxt := step(spec, e, opts)) is None:
            status = "stalled"
        else:
            e = nxt
            j_hist.append(e.j)
            kkt_hist.append(e.residual)
    return OptimResult(e, j_hist, kkt_hist, status)


def _armijo_step(spec: ProblemSpec, e: Evaluation, opts: OptimOptions) -> Evaluation | None:
    """The next projected-gradient iterate, or None when no trial passes Armijo."""
    sigma = opts.step0(spec)
    for _ in range(MAX_BACKTRACKS):
        cand = project(spec, e.u.values - sigma * e.g)
        predicted = opts.armijo_c1 * spec.control_dot(e.g, e.u.values - cand.values)
        rho_c = solve_state(spec, cand)
        j_c = cost_from_state(spec, cand, rho_c)
        if np.isfinite(j_c) and j_c <= e.j - predicted:
            if np.array_equal(cand.values, e.u.values):
                # backtracking shrank the step below float resolution: the
                # cost decrease is under the solver noise floor, so the
                # iterate froze
                return None
            return kkt_residual(spec, cand, rho=rho_c)
        sigma *= opts.backtrack
    return None


def projected_gradient(spec: ProblemSpec, v0: ControlField, opts: OptimOptions) -> OptimResult:
    """Armijo projected gradient; every iterate admissible, J nonincreasing.

    Steps v+ = clip(v - sigma*g) with sigma backtracked until
    J(v+end) <= J(v) - c1 * <g, v - v+> in L2(omega_T).
    """
    return _iterate(spec, v0, opts, _armijo_step)


def _fixed_point_step(spec: ProblemSpec, e: Evaluation, opts: OptimOptions) -> Evaluation | None:
    """The next damped fixed-point iterate, or None when the step is below 1e-14."""
    new_vals = (1.0 - opts.fp_damping) * e.u.values + opts.fp_damping * e.image.values
    if spec.control_norm(new_vals - e.u.values) < 1e-14:
        return None
    return kkt_residual(spec, ControlField(new_vals, spec.grid, vmin=spec.vmin, vmax=spec.vmax))


def fixed_point(spec: ProblemSpec, v0: ControlField, opts: OptimOptions) -> OptimResult:
    """Damped iteration of v+ = (1-sigma)v + sigma*clip(-rho(v)q(v)/alpha).

    Stops on the KKT residual or on a stalled step; J is reported as
    observed, without a monotonicity guarantee.  A step shorter than 1e-14
    in L2(omega_T) is not taken: the run ends "stalled" and returns the last
    evaluated iterate, and `iterations` counts the updates that produced it.
    """
    return _iterate(spec, v0, opts, _fixed_point_step)


@dataclass
class MultistartReport:
    """Pairwise agreement of converged controls from random admissible starts."""

    results: list[OptimResult] = field(repr=False, default_factory=list)
    max_pairwise: float = 0.0
    tolerance: float = 0.0


def multistart_uniqueness(spec: ProblemSpec, k_starts: int, opts: OptimOptions) -> MultistartReport:
    """Run projected gradient from k random admissible starts and compare.

    The report holds the largest pairwise L2 distance of the final controls
    and the tolerance 1e-6 * (vmax - vmin) * |omega_T|^(1/2); verify asserts
    the one against the other when the uniqueness condition holds.
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
            max_pair = np.maximum(max_pair, dist)
    measure_qt = spec.grid.omega_measure * spec.grid.T
    return MultistartReport(
        results=results,
        max_pairwise=max_pair,
        tolerance=1e-6 * (spec.vmax - spec.vmin) * float(np.sqrt(measure_qt)),
    )
