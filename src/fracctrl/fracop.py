"""Discrete fractional Laplacian on a uniform 1-D grid.

The operator is the restricted (integral) fractional Laplacian with zero
exterior condition, discretized by fractional centered differences: a
symmetric Toeplitz matrix A with entries A_ij = dx^(-2s) * g_|i-j|.
Because grid functions vanish identically outside the domain, truncating
the infinite stencil to the interior nodes is exact.

Also provides the discrete L2 / sup / energy / dual norms and a
singular-integral quadrature routine used as an independent ground truth
for the matrix operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma, pi, sqrt

import numpy as np


class InvalidOrderError(ValueError):
    """Fractional order outside the open interval (0, 1)."""


class SolverError(RuntimeError):
    """Internal numerical failure (cannot occur for the SPD matrices built here)."""


def _check_nodes(a: float, b: float, n: int) -> None:
    """What the nodes a + i*(b-a)/(n+1), i = 1..n, need: finite a < b whose
    length b - a is finite too, and n >= 1."""
    if not -np.inf < a < b < np.inf:
        raise ValueError(f"domain endpoints must be finite with a < b, got ({a}, {b})")
    if not b - a < np.inf:
        raise ValueError(f"domain ({a}, {b}) is too long: its length b - a overflows to inf")
    if n < 1:
        raise ValueError(f"need at least one interior node, got n={n}")


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform grid on (a, b) with n interior nodes and nt implicit time levels.

    Nodes are x_i = a + i*dx, i = 1..n, dx = (b-a)/(n+1); both endpoints are
    excluded.  omega_mask marks the interior nodes lying inside the control
    window.  The time grid is t_k = k*dt, dt = T/nt.
    """

    a: float
    b: float
    n: int
    omega_mask: np.ndarray
    T: float
    nt: int

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return ((self.a, self.b, self.n, self.T, self.nt)
                == (other.a, other.b, other.n, other.T, other.nt)
                and np.array_equal(self.omega_mask, other.omega_mask))

    def __post_init__(self):
        _check_nodes(self.a, self.b, self.n)
        if self.nt < 1:
            raise ValueError(f"need at least one time step, got nt={self.nt}")
        if not 0 < self.T < np.inf:
            raise ValueError(f"horizon must be positive and finite, got T={self.T}")
        mask = np.asarray(self.omega_mask, dtype=bool)
        if mask.shape != (self.n,):
            raise ValueError(f"omega_mask must have length n={self.n}, got shape {mask.shape}")
        if not mask.any():
            raise ValueError("control window is empty: omega_mask has no True entry")
        object.__setattr__(self, "omega_mask", mask)

    @property
    def dx(self) -> float:
        return (self.b - self.a) / (self.n + 1)

    @property
    def dt(self) -> float:
        return self.T / self.nt

    @property
    def nodes(self) -> np.ndarray:
        return self.a + self.dx * np.arange(1, self.n + 1)

    @property
    def omega_indices(self) -> np.ndarray:
        return np.flatnonzero(self.omega_mask)

    @property
    def n_omega(self) -> int:
        return int(self.omega_mask.sum())

    @property
    def omega_measure(self) -> float:
        """Discrete measure of the control window, dx * #(omega nodes)."""
        return self.dx * self.n_omega

    @classmethod
    def from_window(cls, a, b, n, window, T, nt) -> "Grid":
        """Build a grid whose omega_mask marks nodes inside the open window."""
        _check_nodes(a, b, n)  # before the nodes: an infinite end makes them NaN
        wa, wb = window
        dx = (b - a) / (n + 1)
        x = a + dx * np.arange(1, n + 1)
        return cls(a=a, b=b, n=n, omega_mask=(x > wa) & (x < wb), T=T, nt=nt)


def assemble_weights(s: float, n: int) -> np.ndarray:
    """Fractional centered-difference weights g_0..g_{n-1}.

    g_0 = Gamma(2s+1)/Gamma(s+1)^2 and g_{k+1} = g_k (k-s)/(k+1+s).  The
    recurrence avoids Gamma-ratio overflow at large k.  g_0 > 0 and
    g_k < 0 for k >= 1; scaling by dx^(-2s) is the caller's job.
    """
    if not 0.0 < s <= 1.0:
        # s = 1 is allowed as a boundary check; it reproduces [2, -1, 0, ...].
        raise InvalidOrderError(f"fractional order must lie in (0, 1), got s={s}")
    if n < 1:
        raise ValueError(f"need at least one weight, got n={n}")
    g = np.empty(n)
    g[0] = gamma(2.0 * s + 1.0) / gamma(s + 1.0) ** 2
    for k in range(n - 1):
        g[k + 1] = g[k] * (k - s) / (k + 1.0 + s)
    return g


def normalization_constant(s: float) -> float:
    """Singular-integral normalization in one dimension:
    s 4^s Gamma(s + 1/2) / (pi^(1/2) Gamma(1-s))."""
    if not 0.0 < s < 1.0:
        raise InvalidOrderError(f"fractional order must lie in (0, 1), got s={s}")
    return s * 4.0**s * gamma(s + 0.5) / (pi ** 0.5 * gamma(1.0 - s))


class FractionalOperator:
    """Dense symmetric Toeplitz realization of the fractional Laplacian.

    A_ij = dx^(-2s) g_|i-j|.  A is positive definite (the zero exterior
    condition removes the constant null vector) and an M-matrix: positive
    diagonal, negative off-diagonals, nonnegative row sums.
    """

    def __init__(self, s: float, n: int, dx: float):
        if not 0.0 < s < 1.0:
            raise InvalidOrderError(f"fractional order must lie in (0, 1), got s={s}")
        self.s = float(s)
        self.n = int(n)
        self.dx = float(dx)
        self.g = assemble_weights(s, n)
        i = np.arange(n)
        self.matrix = dx ** (-2.0 * s) * self.g[np.abs(i[:, None] - i)]
        self._cho = None

    def _factor(self):
        if self._cho is None:
            self._cho = cho_factor(np.array(self.matrix, order="F"))
        return self._cho

    def apply(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n,):
            raise ValueError(f"vector length {u.shape} does not match operator size {self.n}")
        return self.matrix @ u

    def solve(self, f: np.ndarray) -> np.ndarray:
        return cholesky_solve(self._factor(), np.asarray(f, dtype=float))


# scipy's LAPACK potrf and potrs and its BLAS gemm, bound by _bind_lapack at
# the first factorization or solve: importing scipy.linalg takes longer than
# importing numpy, and a process that never factors (the parent of verify's
# workers) should not pay for it.
_potrf = _potrs = _gemm = None


def _bind_lapack() -> None:
    global _potrf, _potrs, _gemm
    from scipy.linalg.blas import dgemm
    from scipy.linalg.lapack import dpotrf, dpotrs
    _potrf, _potrs, _gemm = dpotrf, dpotrs, dgemm


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of the SPD matrix a = L L^T, computed in place
    by LAPACK potrf when a is a Fortran-ordered float array.  potrf reads
    and writes only the lower triangle, so the strict upper triangle keeps
    a's entries, and potrs never reads it.  a is not scanned for non-finite
    entries: callers pass data validated where it was built.

    The lower triangle is the faster one in OpenBLAS's potrf at the sizes
    the step matrices take most (about 0.63x the upper's time at n = 64 and
    0.70x at n = 127, on one thread or two), and level with it within the
    noise elsewhere; README's "Per-step matrices" has the table."""
    if _potrf is None:
        _bind_lapack()
    c, info = _potrf(a, lower=1, clean=0, overwrite_a=1)
    if info != 0:  # pragma: no cover - SPD by construction
        raise SolverError(f"Cholesky factorization failed (potrf info={info})")
    return c


def cholesky_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T x = rhs with the lower factor L that cho_factor returns,
    straight through LAPACK potrs, which reads only the lower triangle.
    Neither the factor nor rhs is scanned for non-finite entries: callers
    pass data validated where it was built.

    An (n, k) rhs is one potrs call with k right-hand sides, and column j of
    the result is bitwise the solve of rhs[:, j] alone.  LAPACK does not
    promise this; it rests on OpenBLAS, scipy's BLAS, doing each column's
    arithmetic in the same order whatever k is, including past its switch to
    threads at n = 128.  tests/test_fracop.py pins it for n from 9 to 129
    and k from 1 to 64.  StepSolver.march's block columns depend on it on
    both step paths; the Schur path also depends on pdesolve._coupled's
    stacked gemv, which states and pins its own."""
    if _potrs is None:
        _bind_lapack()
    x, info = _potrs(factor, rhs, lower=1)
    if info != 0:  # pragma: no cover - only an illegal argument sets it
        raise SolverError(f"Cholesky solve failed (potrs info={info})")
    return x


def schur_complement(factor: np.ndarray, coupling: np.ndarray,
                     block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X = B^-1 coupling and the Schur complement K = block - coupling^T X,
    for B = L L^T with the lower factor L that cho_factor returned.

    Both run on scipy's OpenBLAS, like the potrf calls that then factor K's
    levels.  numpy's matmul would run the product on numpy's own OpenBLAS,
    whose helper threads keep spinning after it, and a threaded potrf right
    after it stalls until they stop: the first gradient at n = 511 took
    0.28-0.75 s that way and 0.16-0.25 s this way (5 alternating runs on 2
    vCPUs)."""
    x = cholesky_solve(factor, coupling)
    return x, _gemm(-1.0, coupling, x, 1.0, np.asfortranarray(block), trans_a=1, overwrite_c=1)


def assemble_operator(grid: Grid, s: float) -> FractionalOperator:
    return FractionalOperator(s=s, n=grid.n, dx=grid.dx)


def l2_norm(dx: float, u: np.ndarray) -> float:
    with np.errstate(over="ignore"):  # past the float range the norm is inf, with no warning
        return sqrt(dx * float(np.dot(u, u)))


def linf_norm(u: np.ndarray) -> float:
    return float(np.max(np.abs(u)))


def _rows(op: FractionalOperator, u) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(u, dtype=float))
    if rows.ndim != 2 or rows.shape[1] != op.n:
        raise ValueError(f"expected a vector or rows of length {op.n}, got shape {rows.shape}")
    return rows


def v_seminorm(op: FractionalOperator, u) -> float:
    """Energy norm (dx u^T A u)^(1/2) of a vector u; of a stack of rows, the
    root of the rows' summed squares.  One stacked vector-matrix product: a
    GEMM over the stack slows down severalfold under two OpenBLAS threads."""
    rows = _rows(op, u)
    au = np.matmul(rows[:, None, :], op.matrix)[:, 0]
    return sqrt(max(op.dx * float(np.sum(au * rows)), 0.0))


def vstar_norm(op: FractionalOperator, f) -> float:
    """Dual norm (dx f^T A^(-1) f)^(1/2) of a vector f; of a stack of rows,
    the root of the rows' summed squares, with one Cholesky solve per row."""
    rows = _rows(op, f)
    sol = np.stack([op.solve(row) for row in rows])
    return sqrt(max(op.dx * float(np.sum(sol * rows)), 0.0))


def quadrature_oracle(u, x: float, s: float, eps: float) -> float:
    """Ground-truth pointwise value of the fractional Laplacian at x.

    Evaluates C_{1,s} * [ P.V. far field + near-field Taylor correction ]:
    the far field |x-y| > eps by adaptive quadrature over the support (-1, 1)
    plus the analytic tail where u vanishes, the near field |x-y| < eps by
    the second-order correction -u''(x) eps^(2-2s)/(2-2s), with u''(x) from
    a central difference of step 1e-4.

    u must be defined on all of R (zero outside (-1, 1)) and twice
    differentiable near x.
    """
    # Imported here: scipy.integrate pulls in scipy.optimize, .special and
    # .fft, which every other import of fracctrl would pay for.
    from scipy.integrate import quad

    if eps <= 0.0:
        raise ValueError(f"cutoff must be positive, got eps={eps}")
    cs = normalization_constant(s)
    lo, hi = -1.0, 1.0
    if not lo < x < hi:
        raise ValueError(f"evaluation point {x} outside support ({lo}, {hi})")
    ux = float(u(x))

    def integrand(y):
        return (ux - float(u(y))) / abs(x - y) ** (1.0 + 2.0 * s)

    far = 0.0
    if x + eps < hi:
        val, _ = quad(integrand, x + eps, hi, limit=200)
        far += val
        far += ux * (hi - x) ** (-2.0 * s) / (2.0 * s)
    else:
        far += ux * eps ** (-2.0 * s) / (2.0 * s)
    if x - eps > lo:
        val, _ = quad(integrand, lo, x - eps, limit=200)
        far += val
        far += ux * (x - lo) ** (-2.0 * s) / (2.0 * s)
    else:
        far += ux * eps ** (-2.0 * s) / (2.0 * s)
    if not np.isfinite(far):
        raise ValueError("far-field integrand produced a non-finite value")

    h = 1e-4
    upp = (float(u(x + h)) - 2.0 * ux + float(u(x - h))) / h**2
    near = -upp * eps ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    return cs * (far + near)
