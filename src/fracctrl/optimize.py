"""Box-constrained minimization of the tracking cost.

Two drivers: projected gradient with Armijo backtracking along the
projection arc (monotone in J; every update after the first tries the
Barzilai-Borwein step first, capped at the first update's step 1/alpha),
and fixed-point iteration of the projection formula u = clip(-rho*q/alpha)
(no monotonicity guarantee, fast under the small-data contraction regime).
A multistart wrapper probes local uniqueness by comparing converged
controls from random starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .control import Evaluation, cost_from_state, kkt_residual, project
from .pdesolve import ControlField, StepSolver, random_admissible, solve_state
from .problem import ProblemSpec

# Armijo trials per iteration before the iterate counts as stalled.
MAX_BACKTRACKS = 40
ARMIJO_C1 = 1e-4  # sufficient-decrease constant c1 of the Armijo test
BACKTRACK = 0.5  # factor each rejected Armijo trial multiplies its step by


@dataclass
class OptimOptions:
    """Settings of both drivers."""

    max_iters: int = 200
    kkt_tol: float = 1e-8

    def __post_init__(self):
        if not self.kkt_tol > 0:
            raise ValueError(f"tolerance must be positive, got {self.kkt_tol}")
        if self.max_iters < 0:
            raise ValueError(f"iteration budget must be nonnegative, got {self.max_iters}")


@dataclass
class OptimResult:
    """The final evaluated iterate, the cost and KKT residual of every
    iterate from the projected start on, and how the run ended."""

    final: Evaluation
    j_history: list[float]
    kkt_history: list[float]
    status: str  # converged | max_iters | stalled | failed

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
    step(spec, e, prev) until it is non-finite, meets kkt_tol or
    spends max_iters updates, or until step returns None (stalled).  prev is
    the previous iterate's (u values, gradient), None on the first update.
    Each evaluated control marches its state and adjoint on one StepSolver."""
    u0 = project(spec, v0.values)
    e = kkt_residual(spec, u0, steps=StepSolver(spec, u0))
    j_hist, kkt_hist = [e.j], [e.residual]
    status, prev = None, None
    while status is None:
        if not e.finite:
            status = "failed"
        elif e.residual <= opts.kkt_tol:
            status = "converged"
        elif len(j_hist) > opts.max_iters:
            status = "max_iters"
        elif (nxt := step(spec, e, prev)) is None:
            status = "stalled"
        else:
            prev, e = (e.u.values, e.g), nxt
            j_hist.append(e.j)
            kkt_hist.append(e.residual)
    return OptimResult(e, j_hist, kkt_hist, status)


def _armijo_step(spec: ProblemSpec, e: Evaluation, prev=None) -> Evaluation | None:
    """The next projected-gradient iterate, or None when no trial passes Armijo.

    The first trial step is 1/alpha when prev is None; otherwise it is the
    Barzilai-Borwein step <s,s>/<s,y> of s = u - u_prev, y = g - g_prev,
    capped at 1/alpha, or 1/alpha when <s,y> <= 0 (no curvature along s).
    Each rejection multiplies it by BACKTRACK.  Each trial marches its
    state on its own step factors; an accepted trial hands them to its
    adjoint, and a rejected one drops them before the next trial builds.
    """
    sigma = 1.0 / spec.alpha
    if prev is not None:
        s, y = e.u.values - prev[0], e.g - prev[1]
        sy = spec.control_dot(s, y)
        if sy > 0:
            sigma = min(sigma, spec.control_dot(s, s) / sy)
    for _ in range(MAX_BACKTRACKS):
        cand = project(spec, e.u.values - sigma * e.g)
        if np.array_equal(cand.values, e.u.values):
            # backtracking shrank the step below float resolution: the trial
            # would repeat e's cost with a predicted decrease of 0, so the
            # iterate froze
            return None
        predicted = ARMIJO_C1 * spec.control_dot(e.g, e.u.values - cand.values)
        steps = StepSolver(spec, cand)
        rho_c = solve_state(spec, cand, steps=steps)
        j_c = cost_from_state(spec, cand, rho_c)
        if np.isfinite(j_c) and j_c <= e.j - predicted:
            return kkt_residual(spec, cand, rho=rho_c, steps=steps)
        del steps
        sigma *= BACKTRACK
    return None


def projected_gradient(spec: ProblemSpec, v0: ControlField, opts: OptimOptions) -> OptimResult:
    """Armijo projected gradient; every iterate admissible, J nonincreasing.

    Steps v+ = clip(v - sigma*g) with sigma backtracked until
    J(v+) <= J(v) - c1 * <g, v - v+> in L2(omega_T).  The first update
    starts at 1/alpha; every later one at the spectral (Barzilai-Borwein)
    step min(1/alpha, <s,s>/<s,y>) of the last update's control and gradient
    differences, or at 1/alpha when <s,y> <= 0.
    """
    return _iterate(spec, v0, opts, _armijo_step)


def _fixed_point_step(spec: ProblemSpec, e: Evaluation, prev=None) -> Evaluation | None:
    """The image of e.u under the projection formula as the next iterate, or
    None when the step, e.residual, is below 1e-14.  prev is not used."""
    if e.residual < 1e-14:
        return None
    return kkt_residual(spec, e.image, steps=StepSolver(spec, e.image))


def fixed_point(spec: ProblemSpec, v0: ControlField, opts: OptimOptions) -> OptimResult:
    """Iteration of the projection formula v+ = clip(-rho(v)q(v)/alpha).

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


def multistart_uniqueness(spec: ProblemSpec, k_starts: int, opts: OptimOptions,
                          seed: int) -> MultistartReport:
    """Run projected gradient from k random admissible starts, drawn from a
    generator seeded with seed, and compare.

    The report holds the largest pairwise L2 distance of the final controls
    and the tolerance 1e-6 * (vmax - vmin) * |omega_T|^(1/2); verify asserts
    the one against the other when the uniqueness condition holds.
    """
    rng = np.random.default_rng(seed)
    results = [projected_gradient(spec, random_admissible(spec, rng), opts)
               for _ in range(k_starts)]
    max_pair = 0.0
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            dist = spec.control_norm(results[i].final.u.values - results[j].final.u.values)
            max_pair = np.maximum(max_pair, dist)
    measure_qt = spec.grid.omega_measure * spec.grid.T
    return MultistartReport(
        results=results,
        max_pairwise=max_pair,
        tolerance=1e-6 * (spec.vmax - spec.vmin) * float(np.sqrt(measure_qt)),
    )
