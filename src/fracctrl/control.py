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

import numpy as np

from .pdesolve import (
    ControlField,
    TimeField,
    solve_adjoint,
    solve_linearized,
    solve_state,
)
from .problem import ProblemSpec

# Box-boundary detection tolerance, relative to the box width.
BOX_REL = 1e-9


def cost_from_state(spec: ProblemSpec, v: ControlField, rho: TimeField) -> float:
    mismatch = rho.final - spec.rho_target
    track = 0.5 * spec.grid.dx * float(np.dot(mismatch, mismatch))
    reg = 0.5 * spec.alpha * spec.control_dot(v.values, v.values)
    return track + reg


def cost(spec: ProblemSpec, v: ControlField) -> float:
    """J(v) = 1/2 ||rho(T) - target||_L2^2 + alpha/2 ||v||_L2(omega_T)^2."""
    return cost_from_state(spec, v, solve_state(spec, v))


def project(spec: ProblemSpec, raw) -> ControlField:
    """Pointwise clip onto the admissible box; idempotent and 1-Lipschitz in L2."""
    values = raw.values if isinstance(raw, ControlField) else np.asarray(raw, dtype=float)
    clipped = np.clip(values, spec.vmin, spec.vmax)
    return ControlField(clipped, spec.grid, vmin=spec.vmin, vmax=spec.vmax)


@dataclass
class Evaluation:
    """A control u with its state rho, adjoint q, gradient field
    g = alpha*u + rho*q on the window, cost j, projection image
    clip(-rho*q/alpha) and first-order residual ||u - image|| in
    L2(omega_T)."""

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


def kkt_residual(spec: ProblemSpec, u: ControlField,
                 rho: TimeField | None = None, q: TimeField | None = None) -> Evaluation:
    """Evaluate u: every quantity the optimizers, the Hessian and verify read.

    Trajectories already computed for u may be passed; only the missing
    solves run.
    """
    if rho is None:
        rho = solve_state(spec, u)
    if q is None:
        q = solve_adjoint(spec, u, rho.final - spec.rho_target)
    # the projection form of the first-order condition: u = image at a KKT point
    image = project(spec, -rho.restrict_omega() * q.restrict_omega() / spec.alpha)
    return Evaluation(u=u, rho=rho, q=q,
                      g=spec.alpha * u.values + rho.restrict_omega() * q.restrict_omega(),
                      j=cost_from_state(spec, u, rho), image=image,
                      residual=spec.control_norm(u.values - image.values))


def gradient(spec: ProblemSpec, v: ControlField):
    """Gradient field on the window plus the state and adjoint trajectories.

    Returns (g, rho, q) with g = alpha*v + rho*q control-shaped; the identity
    dJ/deps J(v + eps*w) = dx*dt*sum(g*w) is exact for the discrete cost.
    """
    e = kkt_residual(spec, v)
    return e.g, e.rho, e.q


def hessian_bilinear(spec: ProblemSpec, e: Evaluation, w: ControlField,
                     d: ControlField) -> float:
    """Second derivative of the discrete cost at the evaluated control e.u
    along the direction pair (w, d).

    Exact for the discrete objective and symmetric in (w, d) by construction.
    When d is w the one linearized solve serves both directions.
    """
    y_w = solve_linearized(spec, e.u, w, e.rho)
    y_d = y_w if d is w else solve_linearized(spec, e.u, d, e.rho)
    q_w = e.q.restrict_omega()
    cross = spec.control_dot(d.values * y_w.restrict_omega()
                             + w.values * y_d.restrict_omega(), q_w)
    terminal = spec.grid.dx * float(np.dot(y_w.final, y_d.final))
    reg = spec.alpha * spec.control_dot(d.values, w.values)
    return cross + terminal + reg


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


def uniqueness_condition(spec: ProblemSpec) -> ConditionReport:
    """Local-uniqueness smallness test: 3 e^(3 theta T) (||rho0||_inf^2 +
    ||target||_inf^2) < alpha."""
    lhs = 3.0 * np.exp(3.0 * spec.theta * spec.grid.T) * (
        spec.rho0_sup**2 + spec.target_sup**2)
    return ConditionReport(lhs=float(lhs), bound=spec.alpha, holds=bool(lhs < spec.alpha))


def ssc_smallness(spec: ProblemSpec, c_user: float = 0.0) -> ConditionReport:
    """Sufficient-condition smallness test:
    (6 + C theta) e^(2 theta T) (||rho0||_inf + ||target||_inf) ||rho0||_inf <= alpha/2.

    The constant C depends on the domain and order in a way that is not
    computable here; the caller supplies it (default 0, the most optimistic).
    """
    if not c_user >= 0:
        raise ValueError(f"constant must be nonnegative, got {c_user}")
    lhs = (6.0 + c_user * spec.theta) * np.exp(2.0 * spec.theta * spec.grid.T) * (
        spec.rho0_sup + spec.target_sup) * spec.rho0_sup
    bound = 0.5 * spec.alpha
    return ConditionReport(lhs=float(lhs), bound=bound, holds=bool(lhs <= bound))


@dataclass
class CoercivityReport:
    """Sampled Rayleigh quotients of the Hessian over the critical cone;
    min_quotient is NaN when no sampled direction survived (n_used = 0)."""

    min_quotient: float
    n_used: int


def check_coercivity(spec: ProblemSpec, e: Evaluation, tau: float, n_samples: int,
                     seed: int = 0) -> CoercivityReport:
    """Sample random directions projected into the tau-critical cone of the
    evaluated control e.u and report the minimum Hessian Rayleigh quotient
    J''(u)[v,v] / ||v||^2.

    The activity threshold is floored at 1e-6 times the natural field
    magnitude alpha*theta + sup|rho| sup|q|: at a numerically converged
    interior point the gradient field is round-off noise rather than an
    exact zero, and treating that noise as strong activity would collapse
    the cone to {0}.
    """
    tau_eff = max(tau, 1e-6 * (spec.alpha * spec.theta + e.rho.linf() * e.q.linf()))
    rng = np.random.default_rng(seed)
    quotients = []
    for _ in range(n_samples):
        raw = rng.standard_normal(e.u.values.shape)
        proj = critical_cone_project(spec, e.u, tau_eff, raw, e.g)
        norm = spec.control_norm(proj)
        if norm < 1e-10:
            continue
        direction = ControlField(proj, spec.grid)
        value = hessian_bilinear(spec, e, direction, direction)
        quotients.append(value / norm**2)
    if not quotients:
        return CoercivityReport(min_quotient=np.nan, n_used=0)
    return CoercivityReport(min_quotient=float(np.min(quotients)), n_used=len(quotients))
