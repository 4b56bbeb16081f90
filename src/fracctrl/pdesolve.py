"""Implicit time stepping for the bilinear fractional diffusion equation.

All solvers march the backward Euler scheme with the bilinear term taken
implicitly: each step solves

    (I + dt*(A + shift*I) - dt*diag(v^n on omega)) u^n = u^(n-1) + dt*f^n.

Under dt*theta <= 1/2 every step matrix is a symmetric positive definite
M-matrix, which yields nonnegativity preservation and the per-step sup
bound ||M^(-1)||_inf <= 1/(1 - dt*theta) for free.  Every step is solved
directly, with Cholesky factors computed once per distinct matrix: of the
whole matrix, or, from N_SCHUR nodes up with a node off the window, of the
window's Schur complement, with the off-window block factored once per
problem.  The Schur complement of an M-matrix is an M-matrix, so both
paths keep the bounds above.  The forward and adjoint sweeps use the same
factors, so the adjoint solver is the exact transpose of the forward map
and discrete duality identities hold to round-off, not to discretization
accuracy.

Controls and directions live on the omega nodes at the implicit levels
1..nt, piecewise constant in time and space.

Validation happens once per object, not once per step: ProblemSpec and
ControlField reject non-finite data when they are built, so the dense step
path hands its matrices and right-hand sides to LAPACK unchecked, and
StepSolver.march, the one loop over time levels, checks its finished
trajectory once, raising SolverError that names the first non-finite level.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .fracop import (
    FractionalOperator,
    Grid,
    SolverError,
    cho_factor,
    cholesky_solve,
    linf_norm,
    schur_complement,
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
    """Space-time trajectory: nt+1 snapshots of length n (index 0 is t=0), or a
    block (nt+1, n, k) of k trajectories, whose final and restrict_omega keep
    the block axis; the norms read one trajectory."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.nt + 1, self.grid.n)
        if self.values.shape[:2] != expected or self.values.ndim > 3:
            raise ValueError(f"trajectory shape {self.values.shape} != {expected}")

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]

    @property
    def times(self) -> np.ndarray:
        return self.grid.dt * np.arange(self.grid.nt + 1)

    def linf(self) -> float:
        return linf_norm(self.values)

    def sup_l2(self) -> float:
        """Largest discrete L2 norm of the implicit levels 1..nt."""
        return sqrt(self.grid.dx * float(np.max(np.sum(self.values[1:] ** 2, axis=1))))

    def st_l2(self) -> float:
        """Space-time L2 over the implicit levels 1..nt (weight dx*dt)."""
        dx, dt = self.grid.dx, self.grid.dt
        return float(np.sqrt(dx * dt * np.sum(self.values[1:] ** 2)))

    def st_v(self, op: FractionalOperator) -> float:
        """Space-time energy norm (dt sum of squared V-seminorms, levels 1..nt)."""
        return sqrt(self.grid.dt) * v_seminorm(op, self.values[1:])

    def restrict_omega(self) -> np.ndarray:
        """Values on the omega nodes at levels 1..nt, control-shaped (nt, n_omega[, k])."""
        return self.values[1:, self.grid.omega_mask]


@dataclass
class ControlField:
    """Control values on the omega nodes at implicit levels 1..nt, stored
    C-contiguous, with the admissible box [vmin, vmax] they were drawn for.
    A direction is a plain control-shaped array, not a ControlField."""

    values: np.ndarray
    grid: Grid
    vmin: float
    vmax: float

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
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
        """Larger of the box magnitude and the actual sup."""
        return max(abs(self.vmin), abs(self.vmax), self.sup)

    def like(self, values: np.ndarray) -> "ControlField":
        return ControlField(values, self.grid, vmin=self.vmin, vmax=self.vmax)


def constant_control(grid: Grid, value: float, vmin: float, vmax: float) -> ControlField:
    return ControlField(np.full((grid.nt, grid.n_omega), float(value)), grid, vmin, vmax)


def random_admissible(spec: ProblemSpec, rng, scale: float = 1.0) -> ControlField:
    """Uniform random control on the box shrunk by scale, carrying the full box."""
    vals = rng.uniform(scale * spec.vmin, scale * spec.vmax,
                       size=(spec.grid.nt, spec.grid.n_omega))
    return ControlField(vals, spec.grid, vmin=spec.vmin, vmax=spec.vmax)


# The factor block of the last StepSolver to die and what its factors were
# built for, keyed by the block's shape: one slot, which the next build takes
# when it needs exactly that shape and drops otherwise.  A build for the same
# step matrices keeps the factors in it; any other build of that shape
# overwrites them.  Either way no fresh pages are faulted in.
_spare: dict[tuple, tuple[np.ndarray, tuple]] = {}


def _keep_spare(block: np.ndarray, built_for: tuple) -> None:
    _spare.clear()
    _spare[block.shape] = block, built_for


# Smallest n at which StepSolver factors only the window's Schur complement
# at each level: from here up one Schur step solve is no slower than one
# dense potrs (README, "Per-step matrices", has the measured crossover).
N_SCHUR = 116


def _coupled(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """a @ y, for a vector y or each column of an (m, k) block y alone.

    A block is one stacked matrix-vector product, which numpy runs as one
    gemv per column, so column j is bitwise a @ y[:, j], as march's block
    columns need.  numpy and OpenBLAS do not promise this: it rests on the
    gemv of a column not depending on the others, which a gemm on the whole
    block breaks (its columns differ from a @ y[:, j] in the last bits).
    tests/test_fracop.py pins it for the coupling shapes of n = 127 to 1023
    and k from 1 to 64."""
    if y.ndim == 1:
        return a @ y
    return np.matmul(a, y.T[..., None])[..., 0].T


class _WindowSchur:
    """What the Schur path needs besides each level's factor, for the fixed
    part M0 = I + dt*(A + shift*I) of the step matrices.

    With the off-window nodes first, M0 = [[B, C], [C^T, D]] and a level's
    matrix differs from M0 only on the window's diagonal, D - dt*diag(v^n).
    B's lower Cholesky factor, X = B^-1 C and the window's Schur complement
    K = D - C^T X are computed once; a level then factors K - dt*diag(v^n),
    n_omega wide, and solves in two potrs and two gemv.  The Schur complement
    of an M-matrix is an M-matrix, and every product here adds terms of one
    sign, so a nonnegative right-hand side gives a nonnegative solution."""

    def __init__(self, grid: Grid, base: np.ndarray):
        self.off, self.win = np.flatnonzero(~grid.omega_mask), grid.omega_indices
        self.factor = cho_factor(np.asfortranarray(base[np.ix_(self.off, self.off)]))
        coupling = base[np.ix_(self.off, self.win)]
        self.X, self.K = schur_complement(self.factor, coupling,
                                          base[np.ix_(self.win, self.win)])
        self.Ct = np.ascontiguousarray(coupling.T)

    def solve(self, factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve the level whose K - dt*diag(v^n) factors into factor:
        y_B = B^-1 b_B, x_W = (K - dt*diag(v^n))^-1 (b_W - C^T y_B) and
        x_B = y_B - X x_W."""
        y = cholesky_solve(self.factor, rhs[self.off])
        x = np.empty(rhs.shape)
        x[self.win] = xw = cholesky_solve(factor, rhs[self.win] - _coupled(self.Ct, y))
        x[self.off] = y - _coupled(self.X, xw)
        return x


class StepSolver:
    """Cholesky factors of the step matrices M_n = I + dt*(A + shift*I) - dt*diag(v^n).

    One factor per distinct level: rows of v holding the same bytes share one
    (-0.0 and 0.0 rows do not).  Below N_SCHUR nodes, or when the window
    holds every node, it is the factor of the whole n x n matrix and a solve
    is one potrs.  Otherwise it is the factor of the window's Schur
    complement K - dt*diag(v^n), n_omega wide, and a solve is two potrs and
    two gemv (_WindowSchur).  The part of that path which no control
    changes is computed by the first build at shift 0 and kept on the spec;
    a shifted build computes its own.  The matrices are symmetric, so march runs
    the forward and the transposed (adjoint) sweeps on the same factors: the
    adjoint is the exact transpose of the forward map.  At shift 0 the build
    raises StabilityError unless dt*theta <= 1/2; a shift >= sup|v| makes
    every M_n an M-matrix for any dt and needs no guard.  Any other shift is
    a ValueError.
    spec, v and shift record what the factors were built for, so a solve_*
    handed steps= can refuse a solver built for other matrices.

    The solver trusts its inputs: spec and v were checked for finite values
    when they were built, so each factor is computed in place by potrf and
    each solve calls potrs directly, neither scanning for non-finite entries.
    No factor is written after its build.  march checks the trajectory it
    assembles.

    A build's m distinct factors live in one (m, size, size) block, size
    being n or n_omega.  When a solver dies its block becomes the module's
    one spare, with what it was built for: spec.operator (by identity), dt,
    shift, the window and the distinct rows' bytes in level order (the
    Schur part is a function of the first four).  The next build of exactly
    that shape takes the block instead of faulting in fresh pages, and a
    build of any other shape drops it first.  If every input matches, the
    build takes the factors as they are and calls no potrf: so the
    adjoint's build after a steps-less state solve, and Evaluation.steps
    after it, factor nothing.  Any other build of that shape factors every
    distinct level afresh.  Live solvers never share memory.  The cost is
    one dead block, and its operator, kept after a process's last build,
    m*size*size*8 bytes with m <= nt: on the Schur path 418 MB at n = 1023
    (n_omega = 511), nt = 200, where whole-matrix factors would take 1.67 GB.
    """

    def __init__(self, spec: ProblemSpec, v: ControlField, shift: float = 0.0):
        if shift != 0.0 and not shift >= v.sup:
            raise ValueError(f"shift {shift:.6g} must be 0 or at least sup|v| = {v.sup:.6g}")
        if shift == 0.0 and (margin := spec.grid.dt * v.theta) > STABILITY_MARGIN:
            raise StabilityError(
                f"dt*theta = {margin:.6g} exceeds the stability margin {STABILITY_MARGIN}; "
                f"refine the time grid or shrink the control box"
            )
        self.spec, self.v, self.shift = spec, v, shift
        grid = spec.grid
        n, dt = grid.n, grid.dt
        rows = {}  # the distinct rows by their bytes, in level order
        for row in v.values:
            rows.setdefault(row.tobytes(), row)
        self._schur = None
        if n >= N_SCHUR and grid.n_omega < n:
            if shift == 0.0 and spec._schur is None:
                spec._schur = _WindowSchur(grid, self._fixed_part())
            self._schur = spec._schur if shift == 0.0 else _WindowSchur(grid, self._fixed_part())
        size = n if self._schur is None else grid.n_omega
        shape = (len(rows), size, size)
        # every input of the step matrices: the operator, which compares by
        # identity and is never written after assembly, then dt, shift, the
        # window and the rows
        built_for = (spec.operator, np.array([dt, shift]).tobytes()
                     + grid.omega_mask.tobytes() + b"".join(rows))
        block, was_for = _spare.pop(shape, (None, None))
        _spare.clear()  # a spare of another shape goes before this build allocates
        if block is None:
            block = np.empty(shape)
        # block[j] is C-contiguous, so M = block[j].T is the Fortran layout in
        # which potrf overwrites M with its factor
        by_row = dict(zip(rows, block.transpose(0, 2, 1)))
        # potrs only reads a factor, so a block built for these very matrices
        # still holds the bytes potrf would write into it again
        if was_for != built_for:
            if self._schur is None:
                base, idx = self._fixed_part(), grid.omega_indices
            else:
                base, idx = self._schur.K, np.arange(size)
            for row, M in zip(rows.values(), by_row.values()):
                M[...] = base
                M[idx, idx] -= dt * row
                cho_factor(M)
        self._factors = [by_row[row.tobytes()] for row in v.values]  # levels 1..nt
        weakref.finalize(self, _keep_spare, block, built_for).atexit = False

    def _fixed_part(self) -> np.ndarray:
        """I + dt*(A + shift*I), the part of every step matrix that no
        control changes."""
        n, dt = self.spec.grid.n, self.spec.grid.dt
        return np.asfortranarray(np.eye(n)
                                 + dt * (self.spec.operator.matrix + self.shift * np.eye(n)))

    def solve(self, level: int, rhs: np.ndarray) -> np.ndarray:
        """Solve M_level x = rhs; level is the implicit index 1..nt."""
        if self._schur is None:
            return cholesky_solve(self._factors[level - 1], rhs)
        return self._schur.solve(self._factors[level - 1], rhs)

    def march(self, init: np.ndarray, source: np.ndarray | None = None,
              backward: bool = False) -> TimeField:
        """Solve M_k x^k = x^(prev) + dt * source_k level by level.

        Forward, the levels run 1..nt from x^0 = init.  Backward (the adjoint
        sweep), they run nt..1 from init as the terminal datum, and slot 0
        repeats level 1.  Either direction adds dt * source_k when a source is
        given.  SolverError names the first non-finite level in march order.

        init (n, k) and source (nt, n, k) march a block of k columns, one
        solve with k right-hand sides per level; potrs solves the columns
        independently, so column j is bitwise the march of column j alone.
        Any other shape, which would broadcast or run short, is a ValueError.
        """
        grid = self.spec.grid
        dt = grid.dt
        levels = range(grid.nt, 0, -1) if backward else range(1, grid.nt + 1)
        cur = np.asarray(init, dtype=float)
        shape = None if source is None else np.shape(source)
        if (cur.ndim not in (1, 2) or cur.shape[0] != grid.n
                or shape not in (None, (grid.nt,) + cur.shape)):
            raise ValueError(f"march needs init (n,) or (n, k) and source (nt,) + init's shape, "
                             f"n={grid.n}, nt={grid.nt}; got init {cur.shape} and source {shape}")
        out = np.empty((grid.nt + 1,) + cur.shape)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite level is named below
            for k in levels:
                rhs = cur if source is None else cur + dt * source[k - 1]
                cur = self.solve(k, rhs)
                out[k] = cur
        finite = np.isfinite(out).reshape(grid.nt + 1, -1).all(axis=1)
        for k in levels:
            if not finite[k]:
                raise SolverError(f"non-finite {'multiplier' if backward else 'state'} "
                                  f"at level {k}")
        out[0] = out[1] if backward else init
        return TimeField(out, grid)


def _steps_for(spec: ProblemSpec, v: ControlField, steps: StepSolver | None) -> StepSolver:
    """steps, checked to be StepSolver(spec, v) for these very objects, or a
    fresh build when it is None.  Factors of other matrices would march the
    wrong scheme, and the adjoint would no longer be the state's transpose."""
    if steps is None:
        return StepSolver(spec, v)
    if steps.spec is not spec or steps.v is not v or steps.shift != 0.0:
        raise ValueError("steps must be StepSolver(spec, v) built for this spec "
                         "and control at shift 0")
    return steps


def window_source(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Control-shaped values on the window as an (nt, n) source, zero off it;
    a block of shape (nt, n_omega, k) gives an (nt, n, k) source."""
    source = np.zeros((grid.nt, grid.n) + values.shape[2:])
    source[:, grid.omega_mask] = values
    return source


def direction_stack(grid: Grid, w) -> np.ndarray:
    """w as an array; anything but a stack (k, nt, n_omega) would broadcast."""
    arr = np.asarray(w, dtype=float)
    if arr.ndim != 3 or arr.shape[1:] != (grid.nt, grid.n_omega):
        raise ValueError(f"direction stack shape {arr.shape} != (k, {grid.nt}, {grid.n_omega})")
    return arr


def _as_source(grid: Grid, f) -> np.ndarray:
    """Source at the implicit levels 1..nt as an (nt, n) array."""
    arr = np.asarray(f, dtype=float)
    if arr.shape != (grid.nt, grid.n):
        raise ValueError(f"source shape {arr.shape} != {(grid.nt, grid.n)}")
    return arr


def solve_state(spec: ProblemSpec, v: ControlField,
                steps: StepSolver | None = None) -> TimeField:
    """Trajectory of the homogeneous bilinear equation from rho0.

    steps, when given, must be StepSolver(spec, v); it is built otherwise.
    The same holds for every solve_* that takes steps=.
    """
    return _steps_for(spec, v, steps).march(spec.rho0)


def solve_sourced(spec: ProblemSpec, v: ControlField, f,
                  steps: StepSolver | None = None) -> TimeField:
    """Trajectory with an additive source f at the implicit levels."""
    return _steps_for(spec, v, steps).march(spec.rho0, _as_source(spec.grid, f))


def solve_shifted(spec: ProblemSpec, v: ControlField, f) -> TimeField:
    """Trajectory of the shifted system with rate r = sup|v| and source e^(-r t_n) f^n.

    The shift makes the step matrices M-matrices for any dt, so the stability
    guard applies only at rate 0.  e^(r t_n) z^n tracks the sourced solution to O(dt).
    """
    r = v.sup
    grid = spec.grid
    scale = np.exp(-r * grid.dt * np.arange(1, grid.nt + 1))
    return StepSolver(spec, v, shift=r).march(spec.rho0, scale[:, None] * _as_source(grid, f))


def solve_adjoint(spec: ProblemSpec, v: ControlField, terminal: np.ndarray,
                  steps: StepSolver | None = None) -> TimeField:
    """Exact discrete transpose of the forward map.

    Solves M_nt lam^nt = terminal, then M_n lam^n = lam^(n+1) down to n = 1.
    Snapshot n is the multiplier attached to forward step n; slot 0 repeats
    lam^1 as the t=0 extension.  This pairing makes the discrete duality
    identity with the linearized solver exact.
    """
    return _steps_for(spec, v, steps).march(terminal, backward=True)


def solve_linearized(spec: ProblemSpec, v: ControlField, w,
                     rho: TimeField, steps: StepSolver | None = None) -> TimeField:
    """Derivative of the discrete forward map along each direction of w.

    y^0 = 0 and M_n y^n = y^(n-1) + dt * (w^n rho^n) on the window, with rho
    the solve_state trajectory for v.  This is exact for the discrete scheme:
    it is what differentiating M_n rho^n = rho^(n-1) in v gives.

    w is a stack (k, nt, n_omega) of directions marched as one (nt+1, n, k)
    block, whose column j is bitwise direction j's alone.
    """
    grid = spec.grid
    if rho.grid != grid:
        raise ValueError("state trajectory was computed on a different grid")
    # (k, nt, n_omega) -> (nt, n_omega, k), against rho's (nt, n_omega, 1); past
    # the float range the source is inf, and march names the level it spoils
    with np.errstate(over="ignore"):
        source = np.moveaxis(direction_stack(grid, w), 0, -1) * rho.restrict_omega()[..., None]
    return _steps_for(spec, v, steps).march(np.zeros((grid.n, source.shape[2])),
                                            window_source(grid, source))


def source_vstar_norm(spec: ProblemSpec, f) -> float:
    """Space-time dual norm of a source: (dt sum_n ||f^n||_V*^2)^(1/2)."""
    return sqrt(spec.grid.dt) * vstar_norm(spec.operator, _as_source(spec.grid, f))


def _write_rows(path, times: np.ndarray, x: np.ndarray, values: np.ndarray) -> None:
    """One t,x,value row per (time, node), 17 significant digits, under a header.

    Each x and each t is formatted once: a level's rows are one template,
    t before every node's ",x,%.17g" tail, filled with that level's values."""
    tails = [",%.17g,%%.17g\r\n" % xi for xi in x.tolist()]
    levels = np.reshape(values, (len(times), len(tails))).tolist()
    with open(path, "w", newline="") as fh:
        fh.write("t,x,value\r\n")
        for t, row in zip(times.tolist(), levels):
            fh.write(("%.17g" % t).join(["", *tails]) % tuple(row))


def export_trajectory_csv(field: TimeField, path) -> None:
    """One row per (snapshot, node): t,x,value with 17 significant digits."""
    _write_rows(path, field.times, field.grid.nodes, field.values)


def export_control_csv(field: ControlField, path) -> None:
    """Control trajectory on the window nodes at levels 1..nt, t,x,value rows."""
    grid = field.grid
    _write_rows(path, grid.dt * np.arange(1, grid.nt + 1), grid.nodes[grid.omega_mask],
                field.values)
