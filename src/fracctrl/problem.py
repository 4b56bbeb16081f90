"""Problem instances for the tracking-type bilinear control problem.

A ProblemSpec bundles the grid, the fractional order, the regularization
weight, the control box, and the sampled initial and target states.  The
cost is

    J(v) = 1/2 ||rho(T) - rho_target||_L2^2 + alpha/2 ||v||_L2(omega x (0,T))^2

subject to rho_t + (-Delta)^s rho = v rho on the control window, with zero
exterior condition and rho(0) = rho0.  A ProblemConfig states an instance
as config text does; its defaults are the reference instance.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .fracop import FractionalOperator, Grid, InvalidOrderError, assemble_operator


@dataclass
class ProblemSpec:
    """Full control problem instance.

    s is the fractional order in (0, 1) and alpha > 0 the finite
    regularization weight; vmin/vmax are the finite box bounds on the
    control (vmax > vmin); rho0 and rho_target are values at the interior
    nodes.  c_user >= 0 is the finite constant C of the sufficient-condition
    smallness test; it depends on the domain and order in a way not
    computable here (default 0, the most optimistic).

    Derived state that no argument sets: rho0_sup and target_sup, the
    sampled sups the smallness conditions read, are computed on
    construction, so dataclasses.replace recomputes them; the operator is
    assembled on first use and never copied, so a replaced order or grid
    gets its own.  The same holds for the spec-only part of pdesolve's
    Schur step path (the off-window factor, the coupling and the window's
    Schur complement at shift 0), which the first StepSolver that needs it
    computes.  with_data varies the data and shares the operator, and that
    part once it is computed.
    """

    grid: Grid
    s: float
    alpha: float
    vmin: float
    vmax: float
    rho0: np.ndarray
    rho_target: np.ndarray
    c_user: float = 0.0
    rho0_sup: float = field(init=False)
    target_sup: float = field(init=False)
    _op: FractionalOperator | None = field(default=None, init=False, repr=False, compare=False)
    _schur: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise InvalidOrderError(f"fractional order must lie in (0, 1), got s={self.s}")
        if not 0.0 < self.alpha < np.inf:
            raise ValueError(f"regularization weight must be positive and finite, "
                             f"got alpha={self.alpha}")
        if not -np.inf < self.vmin < self.vmax < np.inf:
            raise ValueError(f"control box needs finite bounds with vmax > vmin, "
                             f"got [{self.vmin}, {self.vmax}]")
        if not 0.0 <= self.c_user < np.inf:
            raise ValueError(f"c_user must be finite and nonnegative, got {self.c_user}")
        self.rho0 = np.asarray(self.rho0, dtype=float)
        self.rho_target = np.asarray(self.rho_target, dtype=float)
        for name, arr in (("rho0", self.rho0), ("rho_target", self.rho_target)):
            if arr.shape != (self.grid.n,):
                raise ValueError(f"{name} must have length n={self.grid.n}, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        self.rho0_sup = float(np.max(np.abs(self.rho0)))
        self.target_sup = float(np.max(np.abs(self.rho_target)))

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
        order, weight, box and constant C, and the same operator object (and
        Schur part, if this instance has computed it)."""
        spec = replace(self, rho0=rho0, rho_target=rho_target)
        spec._op, spec._schur = self.operator, self._schur
        return spec

    def control_dot(self, a, b) -> float:
        """Discrete L2(omega x (0,T)) inner product of control-shaped arrays;
        past the float range it is inf or NaN, with no warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.grid.dx * self.grid.dt * float(np.sum(a * b))

    def control_norm(self, a) -> float:
        return float(np.sqrt(self.control_dot(a, a)))


def bump_profile(grid: Grid, amplitude: float) -> np.ndarray:
    """amplitude * (1 - xi^2)_+ with xi the domain rescaled to (-1, 1)."""
    xi = (2.0 * grid.nodes - grid.a - grid.b) / (grid.b - grid.a)
    return amplitude * np.maximum(1.0 - xi**2, 0.0)


def eigen_profile(op: FractionalOperator, k: int = 1) -> np.ndarray:
    """k-th eigenvector of the discrete operator, sup-normalized with positive peak."""
    if not 1 <= k <= op.n:
        raise ValueError(f"eigenvector index must lie in 1..{op.n}, got {k}")
    _, vecs = np.linalg.eigh(op.matrix)
    phi = vecs[:, k - 1]
    peak = phi[np.argmax(np.abs(phi))]
    return phi / peak


_SOURCE_RE = re.compile(r"^([a-z]+)(?:\((.*)\))?$")


def split_source(text: str, what: str, kinds: tuple) -> tuple[str, str | None]:
    """'kind(arg)' -> (kind, arg), the grammar of profiles and control
    sources; zero takes no argument and every other kind needs one."""
    m = _SOURCE_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed {what} '{text}'")
    kind, arg = m.groups()
    if kind not in kinds:
        raise ValueError(f"unknown {what} '{kind}' in '{text}' (use {', '.join(kinds)})")
    if kind == "zero" and arg is not None:
        raise ValueError(f"{what} '{text}' takes no argument: zero")
    if kind != "zero" and arg is None:
        raise ValueError(f"{what} '{text}' lacks its argument: {kind}(...)")
    return kind, arg


def source_number(text: str, arg: str, cast=float):
    """Finite numeric argument of a profile or control source."""
    try:
        value = cast(arg)
    except ValueError:
        raise ValueError(f"bad argument '{arg}' in '{text}'") from None
    if not math.isfinite(value):
        raise ValueError(f"argument '{arg}' in '{text}' is not finite")
    return value


def _profile(text: str, spec: ProblemSpec) -> np.ndarray:
    """Samples of a profile at the interior nodes of spec's grid: zero,
    bump(amplitude), eigen(k) of spec's operator, or csv(path)."""
    kind, arg = split_source(text, "profile", ("zero", "bump", "eigen", "csv"))
    n = spec.grid.n
    if kind == "zero":
        return np.zeros(n)
    if kind == "bump":
        return bump_profile(spec.grid, source_number(text, arg))
    if kind == "eigen":
        k = source_number(text, arg, int)
        return eigen_profile(spec.operator, k)
    try:
        values = np.loadtxt(arg, ndmin=1)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read profile file '{arg}': {exc}") from exc
    if values.shape != (n,):
        raise ValueError(f"profile file '{arg}' has {values.size} values, expected {n}")
    return values


@dataclass
class ProblemConfig:
    """An instance as the config's problem block states it: domain (a, b)
    with n interior nodes, order s, horizon T with nt steps, control window
    (omega_a, omega_b), weight alpha, box [m, M], the initial and target
    data as profiles zero | bump(amp) | eigen(k) | csv(path), and the
    constant C of the sufficient-condition smallness test.  The defaults
    are the reference instance; build() raises ValueError for a value that
    makes no instance."""

    a: float = -1.0
    b: float = 1.0
    n: int = 127
    s: float = 0.5
    T: float = 0.5
    nt: int = 200
    omega_a: float = -0.5
    omega_b: float = 0.5
    alpha: float = 1.0
    m: float = -1.0
    M: float = 1.0
    rho0: str = "bump(0.1)"
    rhod: str = "bump(0.05)"
    c_user: float = 0.0

    def build(self) -> ProblemSpec:
        """The instance; an eigen profile reads its operator, assembled once."""
        grid = Grid.from_window(a=self.a, b=self.b, n=self.n,
                                window=(self.omega_a, self.omega_b), T=self.T, nt=self.nt)
        spec = ProblemSpec(grid=grid, s=self.s, alpha=self.alpha, vmin=self.m, vmax=self.M,
                           rho0=np.zeros(grid.n), rho_target=np.zeros(grid.n),
                           c_user=self.c_user)
        return spec.with_data(_profile(self.rho0, spec), _profile(self.rhod, spec))


def benchmark_problem(n: int = ProblemConfig.n, nt: int = ProblemConfig.nt) -> ProblemSpec:
    """The small-data reference instance, ProblemConfig's defaults, with n
    interior nodes and nt time steps.  Its data are small enough that the
    local-uniqueness condition holds with a wide margin."""
    return ProblemConfig(n=n, nt=nt).build()
