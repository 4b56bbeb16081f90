"""Cost functional, adjoint-based derivatives, and optimality machinery.

The gradient is returned as the Riesz representative against the discrete
L2(omega x (0,T)) inner product dx*dt*<.,.>, i.e. g = alpha*u + rho*q on the
window nodes.  With this convention the projection formula

    u = clip(-rho*q/alpha, [vmin, vmax])

is literally the optimizer's fixed-point map, and the directional
derivative of the discrete cost along w equals dx*dt*sum(g*w) with no
discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pdesolve import (
    ControlField,
    StepSolver,
    TimeField,
    direction_stack,
    solve_adjoint,
    solve_linearized,
    solve_state,
    window_source,
)
from .problem import ProblemSpec

# Box-boundary detection tolerance, relative to the box width.
BOX_REL = 1e-9


def cost_from_state(spec: ProblemSpec, v: ControlField, rho: TimeField) -> float:
    mismatch = rho.final - spec.rho_target
    with np.errstate(over="ignore"):  # past the float range J is inf, which fails .finite
        track = 0.5 * spec.grid.dx * float(np.dot(mismatch, mismatch))
        reg = 0.5 * spec.alpha * spec.control_dot(v.values, v.values)
    return track + reg


def cost(spec: ProblemSpec, v: ControlField) -> float:
    """J(v) = 1/2 ||rho(T) - target||_L2^2 + alpha/2 ||v||_L2(omega_T)^2."""
    return cost_from_state(spec, v, solve_state(spec, v))


def project(spec: ProblemSpec, values: np.ndarray) -> ControlField:
    """Pointwise clip of control-shaped values onto the admissible box;
    idempotent and 1-Lipschitz in L2."""
    clipped = np.clip(values, spec.vmin, spec.vmax)
    return ControlField(clipped, spec.grid, vmin=spec.vmin, vmax=spec.vmax)


@dataclass
class Evaluation:
    """A control u evaluated under spec: its state rho, adjoint q, gradient
    field g = alpha*u + rho*q on the window, cost j, projection image
    clip(-rho*q/alpha), first-order residual ||u - image|| in L2(omega_T)
    and step factors steps, built when a Hessian first asks for them."""

    spec: ProblemSpec
    u: ControlField
    rho: TimeField
    q: TimeField
    g: np.ndarray
    j: float
    image: ControlField
    residual: float

    @property
    def finite(self) -> bool:
        return bool(np.isfinite(self.j) and np.all(np.isfinite(self.g)))

    @cached_property
    def steps(self) -> StepSolver:
        return StepSolver(self.spec, self.u)


def kkt_residual(spec: ProblemSpec, u: ControlField, rho: TimeField | None = None,
                 steps: StepSolver | None = None) -> Evaluation:
    """Evaluate u: every quantity the optimizers, the Hessian and verify read.

    A state already computed for u may be passed; the adjoint always runs.
    Given steps = StepSolver(spec, u), the solves march on it; otherwise
    each builds its own, identical factors.  The Evaluation does not keep
    steps.
    """
    if rho is None:
        rho = solve_state(spec, u, steps=steps)
    q = solve_adjoint(spec, u, rho.final - spec.rho_target, steps=steps)
    with np.errstate(over="ignore"):  # an overflowing rho*q makes g inf, which fails .finite
        # the projection form of the first-order condition: u = image at a KKT point
        image = project(spec, -rho.restrict_omega() * q.restrict_omega() / spec.alpha)
        g = spec.alpha * u.values + rho.restrict_omega() * q.restrict_omega()
    return Evaluation(spec=spec, u=u, rho=rho, q=q, g=g,
                      j=cost_from_state(spec, u, rho), image=image,
                      residual=spec.control_norm(u.values - image.values))


def gradient(spec: ProblemSpec, v: ControlField):
    """Gradient field on the window plus the state and adjoint trajectories.

    Returns (g, rho, q) with g = alpha*v + rho*q control-shaped; the identity
    dJ/deps J(v + eps*w) = dx*dt*sum(g*w) is exact for the discrete cost.
    """
    e = kkt_residual(spec, v)
    return e.g, e.rho, e.q


def hessian_action(e: Evaluation, directions: np.ndarray) -> np.ndarray:
    """H w on the window for each w of a stack of directions, shape
    (k, nt, n_omega): the derivative of the gradient field along w at the
    evaluated control e.u, alpha*w + y*q + rho*p.

    y is the linearized state along w and p the second-order adjoint, the
    derivative of the adjoint along w: the backward march from y(T) with
    source w*q.  Both march on e.steps, so p is the exact transpose of the
    linearized map and <Hw, d> = <w, Hd> holds to round-off.  The k
    directions share one forward and one backward block march, and each
    action is bitwise its direction's alone; the stack is C-contiguous, so
    each H w sums as one (nt, n_omega) array.
    """
    spec, grid = e.spec, e.spec.grid
    directions = direction_stack(grid, directions)
    y = solve_linearized(spec, e.u, directions, e.rho, steps=e.steps)
    w = np.moveaxis(directions, 0, -1)  # (nt, n_omega, k)
    rho, q = e.rho.restrict_omega()[..., None], e.q.restrict_omega()[..., None]
    p = e.steps.march(y.final, window_source(grid, w * q), backward=True)
    h = spec.alpha * w + y.restrict_omega() * q + rho * p.restrict_omega()
    return np.ascontiguousarray(np.moveaxis(h, -1, 0))


def hessian_bilinear(e: Evaluation, w: np.ndarray, d: np.ndarray) -> float:
    """Second derivative of the discrete cost at e.u along the control-shaped
    directions (w, d): <Hw, d>."""
    return e.spec.control_dot(hessian_action(e, w[None])[0], d)


def active_set(g: np.ndarray, tau: float) -> np.ndarray:
    """Strongly active window points: |g| = |alpha*u + rho*q| strictly above tau."""
    if tau < 0:
        raise ValueError(f"activity threshold must be nonnegative, got {tau}")
    return np.abs(g) > tau


def critical_cone_project(spec: ProblemSpec, u: ControlField, tau: float, v: np.ndarray,
                          g: np.ndarray) -> np.ndarray:
    """Pointwise L2 projection of a direction onto the tau-critical cone of u,
    whose gradient field is g.

    Zero on the strongly active set; nonnegative part where the control sits
    at the lower bound (off the active set), nonpositive part at the upper
    bound; unchanged elsewhere.
    """
    active = active_set(g, tau)
    box_tol = BOX_REL * (spec.vmax - spec.vmin)
    at_lower = (u.values - spec.vmin) <= box_tol
    at_upper = (spec.vmax - u.values) <= box_tol
    out = np.asarray(v, dtype=float).copy()
    lower_free = at_lower & ~active
    upper_free = at_upper & ~active
    out[lower_free] = np.maximum(out[lower_free], 0.0)
    out[upper_free] = np.minimum(out[upper_free], 0.0)
    out[active] = 0.0
    return out


@dataclass
class ConditionReport:
    """Evaluation of a smallness condition: lhs against its bound."""

    lhs: float
    bound: float
    holds: bool

    @property
    def margin(self) -> float:
        return self.bound - self.lhs


# An overflowing left-hand side is inf and fails; zero data give 0 whatever the exponential.
def uniqueness_condition(spec: ProblemSpec) -> ConditionReport:
    """Local-uniqueness smallness test: 3 e^(3 theta T) (||rho0||_inf^2 +
    ||target||_inf^2) < alpha."""
    with np.errstate(over="ignore"):
        data = np.float64(spec.rho0_sup)**2 + np.float64(spec.target_sup)**2
        lhs = 3.0 * np.exp(3.0 * spec.theta * spec.grid.T) * data if data else 0.0
    return ConditionReport(lhs=float(lhs), bound=spec.alpha, holds=bool(lhs < spec.alpha))


def ssc_smallness(spec: ProblemSpec) -> ConditionReport:
    """Sufficient-condition smallness test:
    (6 + C theta) e^(2 theta T) (||rho0||_inf + ||target||_inf) ||rho0||_inf <= alpha/2,
    with C the problem's constant spec.c_user.
    """
    with np.errstate(over="ignore"):
        lhs = (6.0 + spec.c_user * spec.theta) * np.exp(2.0 * spec.theta * spec.grid.T) * (
            spec.rho0_sup + spec.target_sup) * spec.rho0_sup if spec.rho0_sup else 0.0
    bound = 0.5 * spec.alpha
    return ConditionReport(lhs=float(lhs), bound=bound, holds=bool(lhs <= bound))


@dataclass
class CoercivityReport:
    """Sampled Rayleigh quotients of the Hessian over the critical cone;
    min_quotient is NaN when no sampled direction survived (n_used = 0)."""

    min_quotient: float
    n_used: int


def check_coercivity(e: Evaluation, tau: float, n_samples: int,
                     seed: int = 0) -> CoercivityReport:
    """Sample random directions projected into the tau-critical cone of the
    evaluated control e.u and report the minimum Hessian Rayleigh quotient
    J''(u)[v,v] / ||v||^2.  Directions of norm below 1e-10 are dropped; the
    rest share one block Hessian action.

    The activity threshold is floored at 1e-6 times the natural field
    magnitude alpha*theta + sup|rho| sup|q|: at a numerically converged
    interior point the gradient field is round-off noise rather than an
    exact zero, and treating that noise as strong activity would collapse
    the cone to {0}.
    """
    spec = e.spec
    tau_eff = max(tau, 1e-6 * (spec.alpha * spec.theta + e.rho.linf() * e.q.linf()))
    rng = np.random.default_rng(seed)
    kept, norms = [], []
    for _ in range(n_samples):
        raw = rng.standard_normal(e.u.values.shape)
        proj = critical_cone_project(spec, e.u, tau_eff, raw, e.g)
        norm = spec.control_norm(proj)
        if norm < 1e-10:
            continue
        kept.append(proj)
        norms.append(norm)
    if not kept:
        return CoercivityReport(min_quotient=np.nan, n_used=0)
    # every kept direction in one block action: one forward and one backward march
    actions = hessian_action(e, np.stack(kept))
    quotients = [spec.control_dot(h, d) / norm**2 for h, d, norm in zip(actions, kept, norms)]
    return CoercivityReport(min_quotient=float(np.min(quotients)), n_used=len(quotients))
