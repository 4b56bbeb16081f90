"""Implicit time stepping for the bilinear fractional diffusion equation.

All solvers march the backward Euler scheme with the bilinear term taken
implicitly: each step solves

    (I + dt*(A + shift*I) - dt*diag(v^n on omega)) u^n = u^(n-1) + dt*f^n.

Under dt*theta <= 1/2 every step matrix is a symmetric positive definite
M-matrix, which yields nonnegativity preservation and the per-step sup
bound ||M^(-1)||_inf <= 1/(1 - dt*theta) for free.  The adjoint solver is
the exact transpose of the forward map (step matrices are symmetric and
reused), so discrete duality identities hold to round-off rather than to
discretization accuracy.

Controls and directions live on the omega nodes at the implicit levels
1..nt, piecewise constant in time and space.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import LinearOperator, cg

from .fracop import (
    FractionalOperator,
    Grid,
    SolverError,
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
    def has_box(self) -> bool:
        return self.vmin is not None and self.vmax is not None

    @property
    def sup(self) -> float:
        """Actual sup-norm of the values."""
        return linf_norm(self.values)

    @property
    def theta(self) -> float:
        """Larger of the actual sup and, when a box is attached, the box magnitude."""
        if self.has_box:
            return max(abs(self.vmin), abs(self.vmax), self.sup)
        return self.sup

    def is_admissible(self, tol: float = 0.0) -> bool:
        if not self.has_box:
            return False
        return bool(
            np.all(self.values >= self.vmin - tol) and np.all(self.values <= self.vmax + tol)
        )

    def l2(self) -> float:
        return float(np.sqrt(self.grid.dx * self.grid.dt * np.sum(self.values**2)))

    def scatter(self) -> np.ndarray:
        """Embed into full node space: (nt, n) array, zero off the window."""
        full = np.zeros((self.grid.nt, self.grid.n))
        full[:, self.grid.omega_mask] = self.values
        return full

    def like(self, values: np.ndarray) -> "ControlField":
        return ControlField(values=np.asarray(values, dtype=float), grid=self.grid,
                            vmin=self.vmin, vmax=self.vmax)


def zero_control(grid: Grid, vmin: float | None = None, vmax: float | None = None) -> ControlField:
    return ControlField(np.zeros((grid.nt, grid.n_omega)), grid, vmin=vmin, vmax=vmax)


def constant_control(grid: Grid, value: float, vmin=None, vmax=None) -> ControlField:
    return ControlField(np.full((grid.nt, grid.n_omega), float(value)), grid,
                        vmin=vmin, vmax=vmax)


class StepSolver:
    """Per-level step matrices M_n = I + dt*(A + shift*I) - dt*diag(v^n).

    method "dense" factorizes each level with Cholesky (shared across levels
    when the control is constant in time); method "cg" runs conjugate
    gradients on the FFT Toeplitz matvec instead, to relative residual 1e-12,
    matching the dense results within solver tolerance.  Matrices are
    symmetric, so the same solver serves the forward and the transposed
    (adjoint) sweeps.
    """

    CG_RTOL = 1e-12

    def __init__(self, spec: ProblemSpec, v: ControlField, shift: float = 0.0,
                 method: str = "dense"):
        if method not in ("dense", "cg"):
            raise ValueError(f"unknown solver method '{method}' (use dense or cg)")
        grid = spec.grid
        dt = grid.dt
        vals = v.values
        self.method = method
        self.time_constant = bool(np.all(vals == vals[0]))
        self.grid = grid
        if method == "cg":
            self._op = spec.operator
            self._dt = dt
            self._shift = shift
            self._vfull = v.scatter()
            return
        A = spec.operator.matrix
        base = np.eye(grid.n) + dt * (A + shift * np.eye(grid.n))
        self._factors = []
        idx = grid.omega_indices
        n_factor = 1 if self.time_constant else grid.nt
        try:
            for k in range(n_factor):
                M = base.copy()
                M[idx, idx] -= dt * vals[k]
                self._factors.append(cho_factor(M))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD by construction
            raise SolverError(f"step matrix factorization failed: {exc}") from exc

    def solve(self, level: int, rhs: np.ndarray) -> np.ndarray:
        """Solve M_level x = rhs; level is the implicit index 1..nt."""
        if self.method == "dense":
            factor = self._factors[0 if self.time_constant else level - 1]
            return cho_solve(factor, rhs)
        dt, shift = self._dt, self._shift
        vrow = self._vfull[level - 1]

        def matvec(x):
            return x + dt * (self._op.apply_fft(x) + shift * x) - dt * (vrow * x)

        operator = LinearOperator((self.grid.n, self.grid.n), matvec=matvec)
        x, info = cg(operator, rhs, x0=rhs, rtol=self.CG_RTOL, atol=0.0)
        if info != 0:  # pragma: no cover - well-conditioned SPD system
            raise SolverError(f"conjugate gradients failed at level {level} (info={info})")
        return x


def _check_stability(spec: ProblemSpec, v: ControlField) -> None:
    margin = spec.grid.dt * v.theta
    if margin > STABILITY_MARGIN:
        raise StabilityError(
            f"dt*theta = {margin:.6g} exceeds the stability margin {STABILITY_MARGIN}; "
            f"refine the time grid or shrink the control box"
        )


def _as_source(grid: Grid, f) -> np.ndarray:
    """Source at the implicit levels: accepts (nt, n) arrays or a TimeField
    (whose levels 1..nt are used)."""
    if isinstance(f, TimeField):
        arr = f.values[1:]
    else:
        arr = np.asarray(f, dtype=float)
    if arr.shape != (grid.nt, grid.n):
        raise ValueError(f"source shape {arr.shape} != {(grid.nt, grid.n)}")
    return arr


def _march(spec: ProblemSpec, steps: StepSolver, init: np.ndarray,
           source: np.ndarray | None, scale: np.ndarray | None) -> TimeField:
    grid = spec.grid
    dt = grid.dt
    out = np.empty((grid.nt + 1, grid.n))
    out[0] = init
    cur = np.asarray(init, dtype=float)
    for k in range(1, grid.nt + 1):
        rhs = cur if source is None else cur + dt * (
            source[k - 1] if scale is None else scale[k - 1] * source[k - 1])
        cur = steps.solve(k, rhs)
        if not np.all(np.isfinite(cur)):
            raise SolverError(f"non-finite state at level {k}")
        out[k] = cur
    return TimeField(out, grid)


def solve_state(spec: ProblemSpec, v: ControlField, method: str = "dense") -> TimeField:
    """Trajectory of the homogeneous bilinear equation from rho0."""
    _check_stability(spec, v)
    return _march(spec, StepSolver(spec, v, method=method), spec.rho0, None, None)


def solve_sourced(spec: ProblemSpec, v: ControlField, f, method: str = "dense") -> TimeField:
    """Trajectory with an additive source f at the implicit levels."""
    _check_stability(spec, v)
    return _march(spec, StepSolver(spec, v, method=method), spec.rho0,
                  _as_source(spec.grid, f), None)


def solve_shifted(spec: ProblemSpec, v: ControlField, f, method: str = "dense") -> TimeField:
    """Trajectory of the shifted system with rate r = sup|v| and source e^(-r t_n) f^n.

    The shift makes the step matrices M-matrices for any dt, so no stability
    guard applies.  e^(r t_n) z^n tracks the sourced solution to O(dt).
    """
    r = v.sup
    grid = spec.grid
    scale = np.exp(-r * grid.dt * np.arange(1, grid.nt + 1))
    return _march(spec, StepSolver(spec, v, shift=r, method=method), spec.rho0,
                  _as_source(grid, f), scale)


def solve_adjoint(spec: ProblemSpec, v: ControlField, terminal: np.ndarray,
                  method: str = "dense") -> TimeField:
    """Exact discrete transpose of the forward map.

    Solves M_nt lam^nt = terminal, then M_n lam^n = lam^(n+1) down to n = 1.
    Snapshot n is the multiplier attached to forward step n; slot 0 repeats
    lam^1 as the t=0 extension.  This pairing makes the discrete duality
    identity with the linearized solver exact.
    """
    _check_stability(spec, v)
    grid = spec.grid
    terminal = np.asarray(terminal, dtype=float)
    if terminal.shape != (grid.n,):
        raise ValueError(f"terminal datum shape {terminal.shape} != {(grid.n,)}")
    steps = StepSolver(spec, v, method=method)
    out = np.empty((grid.nt + 1, grid.n))
    cur = steps.solve(grid.nt, terminal)
    out[grid.nt] = cur
    for k in range(grid.nt - 1, 0, -1):
        cur = steps.solve(k, cur)
        if not np.all(np.isfinite(cur)):
            raise SolverError(f"non-finite multiplier at level {k}")
        out[k] = cur
    out[0] = out[1]
    return TimeField(out, grid)


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
    return _march(spec, StepSolver(spec, v), zero, source, None)


def source_vstar_norm(spec: ProblemSpec, f) -> float:
    """Space-time dual norm of a source: (dt sum_n ||f^n||_V*^2)^(1/2)."""
    arr = _as_source(spec.grid, f)
    op = spec.operator
    total = sum(vstar_norm(op, row) ** 2 for row in arr)
    return float(np.sqrt(spec.grid.dt * total))


def _write_rows(path, times: np.ndarray, x: np.ndarray, values: np.ndarray) -> None:
    """One t,x,value row per (time, node), 17 significant digits, under a header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "value"])
        for k, t in enumerate(times):
            for i, xi in enumerate(x):
                writer.writerow([f"{t:.17g}", f"{xi:.17g}", f"{values[k, i]:.17g}"])


def export_trajectory_csv(field: TimeField, path) -> None:
    """One row per (snapshot, node): t,x,value with 17 significant digits."""
    _write_rows(path, field.times, field.grid.nodes, field.values)


def export_control_csv(field: ControlField, path) -> None:
    """Control trajectory on the window nodes at levels 1..nt, t,x,value rows."""
    grid = field.grid
    _write_rows(path, grid.dt * np.arange(1, grid.nt + 1), grid.nodes[grid.omega_mask],
                field.values)
