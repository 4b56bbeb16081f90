"""Problem instances for the tracking-type bilinear control problem.

A ProblemSpec bundles the grid, the fractional order, the regularization
weight, the control box, and the sampled initial and target states.  The
cost is

    J(v) = 1/2 ||rho(T) - rho_target||_L2^2 + alpha/2 ||v||_L2(omega x (0,T))^2

subject to rho_t + (-Delta)^s rho = v rho on the control window, with zero
exterior condition and rho(0) = rho0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .fracop import FractionalOperator, Grid, InvalidOrderError, assemble_operator


@dataclass
class ProblemSpec:
    """Full control problem instance.

    s is the fractional order in (0, 1) and alpha > 0 the finite
    regularization weight; vmin/vmax are the finite box bounds on the
    control (vmax > vmin); rho0 and rho_target are values at the interior
    nodes.  rho0_sup/target_sup may declare the analytic sup-norms of the
    underlying profiles, never below the sampled max; they default to it.

    The operator is derived state, assembled on first use and never copied
    by dataclasses.replace, so a replaced order or grid gets its own.  A sup
    that replace copies along with new data is checked like a declared one;
    with_data is the way to vary the data of an instance.
    """

    grid: Grid
    s: float
    alpha: float
    vmin: float
    vmax: float
    rho0: np.ndarray
    rho_target: np.ndarray
    rho0_sup: float | None = None
    target_sup: float | None = None
    _op: FractionalOperator | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise InvalidOrderError(f"fractional order must lie in (0, 1), got s={self.s}")
        if not 0.0 < self.alpha < np.inf:
            raise ValueError(f"regularization weight must be positive and finite, "
                             f"got alpha={self.alpha}")
        if not -np.inf < self.vmin < self.vmax < np.inf:
            raise ValueError(f"control box needs finite bounds with vmax > vmin, "
                             f"got [{self.vmin}, {self.vmax}]")
        self.rho0 = np.asarray(self.rho0, dtype=float)
        self.rho_target = np.asarray(self.rho_target, dtype=float)
        for name, arr, sup_name in (("rho0", self.rho0, "rho0_sup"),
                                    ("rho_target", self.rho_target, "target_sup")):
            if arr.shape != (self.grid.n,):
                raise ValueError(f"{name} must have length n={self.grid.n}, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            sampled = float(np.max(np.abs(arr)))
            declared = getattr(self, sup_name)
            if declared is None:
                setattr(self, sup_name, sampled)
            elif not declared >= sampled:
                raise ValueError(f"{sup_name}={declared} is below the sampled max "
                                 f"{sampled} of {name}")

    @property
    def theta(self) -> float:
        """Box magnitude max(|vmin|, |vmax|); bounds the sup-norm of any admissible control."""
        return max(abs(self.vmin), abs(self.vmax))

    @property
    def operator(self) -> FractionalOperator:
        if self._op is None:
            self._op = assemble_operator(self.grid, self.s)
        return self._op

    def with_data(self, rho0, rho_target) -> ProblemSpec:
        """This instance with new initial and target data: the same grid,
        order, weight and box, the same operator object, and both sups
        recomputed from the new data."""
        spec = replace(self, rho0=rho0, rho_target=rho_target, rho0_sup=None, target_sup=None)
        spec._op = self.operator
        return spec

    def control_dot(self, a, b) -> float:
        """Discrete L2(omega x (0,T)) inner product of control-shaped arrays."""
        return self.grid.dx * self.grid.dt * float(np.sum(a * b))

    def control_norm(self, a) -> float:
        return float(np.sqrt(max(self.control_dot(a, a), 0.0)))


def bump_profile(grid: Grid, amplitude: float) -> np.ndarray:
    """amplitude * (1 - xi^2)_+ with xi the domain rescaled to (-1, 1)."""
    xi = (2.0 * grid.nodes - grid.a - grid.b) / (grid.b - grid.a)
    return amplitude * np.maximum(1.0 - xi**2, 0.0)


def eigen_profile(grid: Grid, s: float, k: int = 1) -> np.ndarray:
    """k-th eigenvector of the discrete operator, sup-normalized with positive peak."""
    op = assemble_operator(grid, s)
    if not 1 <= k <= op.n:
        raise ValueError(f"eigenvector index must lie in 1..{op.n}, got {k}")
    _, vecs = np.linalg.eigh(op.matrix)
    phi = vecs[:, k - 1]
    peak = phi[np.argmax(np.abs(phi))]
    return phi / peak


def benchmark_problem(n: int = 127, nt: int = 200) -> ProblemSpec:
    """Small-data reference instance used across the verification harness.

    Omega = (-1, 1), s = 0.5, T = 0.5, window (-0.5, 0.5), alpha = 1,
    box [-1, 1], rho0 = bump(0.1), target = bump(0.05).  The data are small
    enough that the local-uniqueness condition holds with a wide margin.
    """
    grid = Grid.from_window(a=-1.0, b=1.0, n=n, window=(-0.5, 0.5), T=0.5, nt=nt)
    return ProblemSpec(
        grid=grid,
        s=0.5,
        alpha=1.0,
        vmin=-1.0,
        vmax=1.0,
        rho0=bump_profile(grid, 0.1),
        rho_target=bump_profile(grid, 0.05),
    )
