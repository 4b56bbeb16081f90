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
    and step factors steps, built when a Hessian first asks for them; that
    build takes the factors of the last solver to die when it was built for
    u under spec, as the adjoint's of a steps-less kkt_residual is."""

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
    each makes its own build, and the adjoint's takes the factors that the
    state's solver left when it died, so u is factored once.  The
    Evaluation does not keep steps.
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
    with np.errstate(over="ignore"):  # past the float range; march names the level it spoils
        source = window_source(grid, w * q)
    p = e.steps.march(y.final, source, backward=True)
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range h is inf or NaN
        h = spec.alpha * w + y.restrict_omega() * q + rho * p.restrict_omega()
    return np.ascontiguousarray(np.moveaxis(h, -1, 0))


def hessian_bilinear(e: Evaluation, w: np.ndarray, d: np.ndarray) -> float:
    """Second derivative of the discrete cost at e.u along the control-shaped
    directions (w, d): <Hw, d>."""
    return e.spec.control_dot(hessian_action(e, w[None])[0], d)


def _at_bounds(e: Evaluation) -> tuple[np.ndarray, np.ndarray]:
    """Where e.u sits at vmin and at vmax, within BOX_REL of the box width."""
    tol = BOX_REL * (e.spec.vmax - e.spec.vmin)
    return e.u.values - e.spec.vmin <= tol, e.spec.vmax - e.u.values <= tol


def active_set(e: Evaluation, tau: float) -> np.ndarray:
    """Strongly active window points of the evaluated control: e.u at a bound
    and its gradient field e.g pointing out of the box by more than tau,
    g > tau at vmin and g < -tau at vmax.  At a KKT point this is |g| > tau."""
    if tau < 0:
        raise ValueError(f"activity threshold must be nonnegative, got {tau}")
    at_lower, at_upper = _at_bounds(e)
    return (at_lower & (e.g > tau)) | (at_upper & (e.g < -tau))


def critical_cone_project(e: Evaluation, tau: float, v: np.ndarray) -> np.ndarray:
    """Pointwise L2 projection onto the tau-critical cone of e.u of one
    direction or of each of a (k, nt, n_omega) stack: zero on the strongly
    active set, nonnegative where the control sits at the lower bound,
    nonpositive at the upper bound, unchanged elsewhere."""
    at_lower, at_upper = _at_bounds(e)
    return np.where((at_lower & (v < 0)) | (at_upper & (v > 0)) | active_set(e, tau), 0.0, v)


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


def check_coercivity(e: Evaluation, tau: float, n_samples: int, seed: int = 0) -> np.ndarray:
    """Hessian Rayleigh quotients J''(u)[v,v] / ||v||^2 of random directions
    projected into the tau-critical cone of the evaluated control e.u, one
    per direction kept; directions of norm below 1e-10 are dropped, and the
    array is empty when none survives.  The samples are drawn and projected
    as one stack, and the kept directions share one block Hessian action.
    An evaluation that is not finite (its cost or gradient overflowed) has
    no Hessian to sample: every kept quotient reads NaN, which fails every
    bound, and nothing marches.
    """
    spec = e.spec
    raw = np.random.default_rng(seed).standard_normal((n_samples, *e.u.values.shape))
    proj = critical_cone_project(e, tau, raw)
    norms = np.array([spec.control_norm(d) for d in proj])
    keep = ~(norms < 1e-10)  # a NaN norm is kept, so its quotient reads NaN
    kept, norms = proj[keep], norms[keep]
    if not (norms.size and e.finite):
        return np.full(norms.size, np.nan)
    # every kept direction in one block action: one forward and one backward march
    actions = hessian_action(e, kept)
    return np.array([spec.control_dot(h, d) / norm**2 for h, d, norm in zip(actions, kept, norms)])
