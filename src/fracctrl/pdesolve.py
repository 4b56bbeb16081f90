"""Implicit time stepping for the bilinear fractional diffusion equation.

All solvers march the backward Euler scheme with the bilinear term taken
implicitly: each step solves

    (I + dt*(A + shift*I) - dt*diag(v^n on omega)) u^n = u^(n-1) + dt*f^n.

Under dt*theta <= 1/2 every step matrix is a symmetric positive definite
M-matrix, which yields nonnegativity preservation and the per-step sup
bound ||M^(-1)||_inf <= 1/(1 - dt*theta) for free.  Every step is solved
with the exact Cholesky factors of its matrix, and the forward and adjoint
sweeps use the same factors, so the adjoint solver is the exact transpose
of the forward map and discrete duality identities hold to round-off
rather than to discretization accuracy.

Controls and directions live on the omega nodes at the implicit levels
1..nt, piecewise constant in time and space.

Validation happens once per object, not once per step: ProblemSpec and
ControlField reject non-finite data when they are built, so the dense step
path hands its matrices and right-hand sides to LAPACK unchecked, and each
march checks its finished trajectory once, raising SolverError that names
the first non-finite level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor

from .fracop import (
    FractionalOperator,
    Grid,
    SolverError,
    cholesky_solve,
    l2_norm,
    linf_norm,
    v_seminorm,
    vstar_norm,
)
from .problem import ProblemSpec

# Margin away from the M-matrix boundary dt*theta < 1; 1/2 keeps the step
# matrices well conditioned.
STABILITY_MARGIN = 0.5


class StabilityError(RuntimeError):
    """Time step too large for the M-matrix stability margin."""


@dataclass
class TimeField:
    """Space-time trajectory: nt+1 snapshots of length n (index 0 is t=0)."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.nt + 1, self.grid.n)
        if self.values.shape != expected:
            raise ValueError(f"trajectory shape {self.values.shape} != {expected}")

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]

    @property
    def times(self) -> np.ndarray:
        return self.grid.dt * np.arange(self.grid.nt + 1)

    def linf(self) -> float:
        return linf_norm(self.values)

    def snapshot_l2(self) -> np.ndarray:
        """Discrete L2 norm of every snapshot, index 0..nt."""
        dx = self.grid.dx
        return np.sqrt(dx * np.sum(self.values**2, axis=1))

    def sup_l2(self) -> float:
        return float(np.max(self.snapshot_l2()))

    def st_l2(self) -> float:
        """Space-time L2 over the implicit levels 1..nt (weight dx*dt)."""
        dx, dt = self.grid.dx, self.grid.dt
        return float(np.sqrt(dx * dt * np.sum(self.values[1:] ** 2)))

    def st_v(self, op: FractionalOperator) -> float:
        """Space-time energy norm (dt sum of squared V-seminorms, levels 1..nt)."""
        dt = self.grid.dt
        total = sum(v_seminorm(op, snap) ** 2 for snap in self.values[1:])
        return float(np.sqrt(dt * total))

    def restrict_omega(self) -> np.ndarray:
        """Values on the omega nodes at levels 1..nt, control-shaped (nt, n_omega)."""
        return self.values[1:, self.grid.omega_mask]


@dataclass
class ControlField:
    """Control values on the omega nodes at implicit levels 1..nt.

    vmin/vmax carry the admissible box; direction fields carry none.
    """

    values: np.ndarray
    grid: Grid
    vmin: float | None = None
    vmax: float | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.nt, self.grid.n_omega)
        if self.values.shape != expected:
            raise ValueError(f"control shape {self.values.shape} != {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("control contains non-finite entries")

    @property
    def sup(self) -> float:
        """Actual sup-norm of the values."""
        return linf_norm(self.values)

    @property
    def theta(self) -> float:
        """Larger of the actual sup and, when a box is attached, the box magnitude."""
        if self.vmin is not None and self.vmax is not None:
            return max(abs(self.vmin), abs(self.vmax), self.sup)
        return self.sup

    def like(self, values: np.ndarray) -> "ControlField":
        return ControlField(values=np.asarray(values, dtype=float), grid=self.grid,
                            vmin=self.vmin, vmax=self.vmax)


def constant_control(grid: Grid, value: float, vmin=None, vmax=None) -> ControlField:
    return ControlField(np.full((grid.nt, grid.n_omega), float(value)), grid,
                        vmin=vmin, vmax=vmax)


class StepSolver:
    """Cholesky factors of the step matrices M_n = I + dt*(A + shift*I) - dt*diag(v^n).

    Each level is factorized once (one factor serves every level when the
    control is constant in time).  The matrices are symmetric, so the same
    factors serve the forward and the transposed (adjoint) sweeps, which is
    what makes the adjoint the exact transpose of the forward map.

    The solver trusts its inputs: spec and v were checked for finite values
    when they were built, so each level is factorized in place by potrf and
    each solve is one potrs call, neither scanning for non-finite entries.
    _march checks the trajectory it assembles.
    """

    def __init__(self, spec: ProblemSpec, v: ControlField, shift: float = 0.0):
        grid = spec.grid
        dt = grid.dt
        vals = v.values
        self.time_constant = bool(np.all(vals == vals[0]))
        A = spec.operator.matrix
        base = np.asfortranarray(np.eye(grid.n) + dt * (A + shift * np.eye(grid.n)))
        self._factors = []
        idx = grid.omega_indices
        n_factor = 1 if self.time_constant else grid.nt
        try:
            for k in range(n_factor):
                # Fortran order lets potrf overwrite this copy with its factor
                M = base.copy(order="F")
                M[idx, idx] -= dt * vals[k]
                self._factors.append(cho_factor(M, overwrite_a=True, check_finite=False)[0])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD by construction
            raise SolverError(f"step matrix factorization failed: {exc}") from exc

    def solve(self, level: int, rhs: np.ndarray) -> np.ndarray:
        """Solve M_level x = rhs; level is the implicit index 1..nt."""
        return cholesky_solve(self._factors[0 if self.time_constant else level - 1], rhs)


def _check_stability(spec: ProblemSpec, v: ControlField) -> None:
    margin = spec.grid.dt * v.theta
    if margin > STABILITY_MARGIN:
        raise StabilityError(
            f"dt*theta = {margin:.6g} exceeds the stability margin {STABILITY_MARGIN}; "
            f"refine the time grid or shrink the control box"
        )


def _as_source(grid: Grid, f) -> np.ndarray:
    """Source at the implicit levels 1..nt as an (nt, n) array."""
    arr = np.asarray(f, dtype=float)
    if arr.shape != (grid.nt, grid.n):
        raise ValueError(f"source shape {arr.shape} != {(grid.nt, grid.n)}")
    return arr


def _check_finite(values: np.ndarray, levels, what: str) -> None:
    """Raise SolverError naming the first of levels, in the order given, whose
    snapshot holds a non-finite entry."""
    finite = np.isfinite(values).all(axis=1)
    for k in levels:
        if not finite[k]:
            raise SolverError(f"non-finite {what} at level {k}")


def _march(spec: ProblemSpec, steps: StepSolver, init: np.ndarray,
           source: np.ndarray | None, backward: bool = False) -> TimeField:
    """Solve M_k x^k = x^(prev) + dt * source_k level by level.

    Forward, the levels run 1..nt from x^0 = init.  Backward (the adjoint
    sweep, sourceless), they run nt..1 from init as the terminal datum, and
    slot 0 repeats level 1.  The first non-finite level is named in march
    order.
    """
    grid = spec.grid
    dt = grid.dt
    levels = range(grid.nt, 0, -1) if backward else range(1, grid.nt + 1)
    out = np.empty((grid.nt + 1, grid.n))
    cur = np.asarray(init, dtype=float)
    for k in levels:
        rhs = cur if source is None else cur + dt * source[k - 1]
        cur = steps.solve(k, rhs)
        out[k] = cur
    _check_finite(out, levels, "multiplier" if backward else "state")
    out[0] = out[1] if backward else init
    return TimeField(out, grid)


def solve_state(spec: ProblemSpec, v: ControlField) -> TimeField:
    """Trajectory of the homogeneous bilinear equation from rho0."""
    _check_stability(spec, v)
    return _march(spec, StepSolver(spec, v), spec.rho0, None)


def solve_sourced(spec: ProblemSpec, v: ControlField, f) -> TimeField:
    """Trajectory with an additive source f at the implicit levels."""
    _check_stability(spec, v)
    return _march(spec, StepSolver(spec, v), spec.rho0, _as_source(spec.grid, f))


def solve_shifted(spec: ProblemSpec, v: ControlField, f) -> TimeField:
    """Trajectory of the shifted system with rate r = sup|v| and source e^(-r t_n) f^n.

    The shift makes the step matrices M-matrices for any dt, so no stability
    guard applies.  e^(r t_n) z^n tracks the sourced solution to O(dt).
    """
    r = v.sup
    grid = spec.grid
    scale = np.exp(-r * grid.dt * np.arange(1, grid.nt + 1))
    return _march(spec, StepSolver(spec, v, shift=r), spec.rho0,
                  scale[:, None] * _as_source(grid, f))


def solve_adjoint(spec: ProblemSpec, v: ControlField, terminal: np.ndarray) -> TimeField:
    """Exact discrete transpose of the forward map.

    Solves M_nt lam^nt = terminal, then M_n lam^n = lam^(n+1) down to n = 1.
    Snapshot n is the multiplier attached to forward step n; slot 0 repeats
    lam^1 as the t=0 extension.  This pairing makes the discrete duality
    identity with the linearized solver exact.
    """
    _check_stability(spec, v)
    terminal = np.asarray(terminal, dtype=float)
    if terminal.shape != (spec.grid.n,):
        raise ValueError(f"terminal datum shape {terminal.shape} != {(spec.grid.n,)}")
    return _march(spec, StepSolver(spec, v), terminal, None, backward=True)


def solve_linearized(spec: ProblemSpec, v: ControlField, w: ControlField,
                     rho: TimeField) -> TimeField:
    """Derivative of the discrete forward map in the control direction w.

    y^0 = 0 and M_n y^n = y^(n-1) + dt * (w^n rho^n) on the window, with rho
    the solve_state trajectory for v.  This is exact for the discrete scheme:
    it is what differentiating M_n rho^n = rho^(n-1) in v gives.
    """
    _check_stability(spec, v)
    grid = spec.grid
    if rho.grid != grid:
        raise ValueError("state trajectory was computed on a different grid")
    source = np.zeros((grid.nt, grid.n))
    source[:, grid.omega_mask] = w.values * rho.restrict_omega()
    zero = np.zeros(grid.n)
    return _march(spec, StepSolver(spec, v), zero, source)


def source_vstar_norm(spec: ProblemSpec, f) -> float:
    """Space-time dual norm of a source: (dt sum_n ||f^n||_V*^2)^(1/2)."""
    arr = _as_source(spec.grid, f)
    op = spec.operator
    total = sum(vstar_norm(op, row) ** 2 for row in arr)
    return float(np.sqrt(spec.grid.dt * total))


def _write_rows(path, times: np.ndarray, x: np.ndarray, values: np.ndarray) -> None:
    """One t,x,value row per (time, node), 17 significant digits, under a header."""
    t_col = np.repeat(times, len(x)).tolist()
    x_col = np.tile(x, len(times)).tolist()
    rows = map("%.17g,%.17g,%.17g\r\n".__mod__, zip(t_col, x_col, np.ravel(values).tolist()))
    with open(path, "w", newline="") as fh:
        fh.write("t,x,value\r\n" + "".join(rows))


def export_trajectory_csv(field: TimeField, path) -> None:
    """One row per (snapshot, node): t,x,value with 17 significant digits."""
    _write_rows(path, field.times, field.grid.nodes, field.values)


def export_control_csv(field: ControlField, path) -> None:
    """Control trajectory on the window nodes at levels 1..nt, t,x,value rows."""
    grid = field.grid
    _write_rows(path, grid.dt * np.arange(1, grid.nt + 1), grid.nodes[grid.omega_mask],
                field.values)
