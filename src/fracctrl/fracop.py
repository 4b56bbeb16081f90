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

from dataclasses import dataclass, field
from math import gamma, pi, sqrt

import numpy as np
from scipy.integrate import quad
from scipy.linalg import cho_factor, toeplitz
from scipy.linalg.lapack import dpotrs


class InvalidOrderError(ValueError):
    """Fractional order outside the open interval (0, 1)."""


class SolverError(RuntimeError):
    """Internal numerical failure (cannot occur for the SPD matrices built here)."""


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
        if not self.b > self.a:
            raise ValueError(f"domain endpoints must satisfy a < b, got ({self.a}, {self.b})")
        if self.n < 1:
            raise ValueError(f"need at least one interior node, got n={self.n}")
        if self.nt < 1:
            raise ValueError(f"need at least one time step, got nt={self.nt}")
        if not self.T > 0:
            raise ValueError(f"horizon must be positive, got T={self.T}")
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


def normalization_constant(s: float, ndim: int = 1) -> float:
    """Singular-integral normalization: s 4^s Gamma((2s+N)/2) / (pi^(N/2) Gamma(1-s))."""
    if not 0.0 < s < 1.0:
        raise InvalidOrderError(f"fractional order must lie in (0, 1), got s={s}")
    return s * 4.0**s * gamma((2.0 * s + ndim) / 2.0) / (pi ** (ndim / 2.0) * gamma(1.0 - s))


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
        self.matrix = dx ** (-2.0 * s) * toeplitz(self.g)
        self._cho = None
        self._fft = None  # circulant embedding for the fast matvec

    def _factor(self):
        if self._cho is None:
            try:
                self._cho, _ = cho_factor(np.array(self.matrix, order="F"), overwrite_a=True,
                                          check_finite=False)
            except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD by construction
                raise SolverError(f"operator factorization failed: {exc}") from exc
        return self._cho

    def apply(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n,):
            raise ValueError(f"vector length {u.shape} does not match operator size {self.n}")
        return self.matrix @ u

    def apply_fft(self, u: np.ndarray) -> np.ndarray:
        """Toeplitz matvec via circulant embedding; O(n log n) per product."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n,):
            raise ValueError(f"vector length {u.shape} does not match operator size {self.n}")
        if self._fft is None:
            col = self.dx ** (-2.0 * self.s) * self.g
            emb = np.concatenate([col, [0.0], col[:0:-1]])
            self._fft = np.fft.rfft(emb)
        ext = np.zeros(2 * self.n)
        ext[: self.n] = u
        prod = np.fft.irfft(self._fft * np.fft.rfft(ext), 2 * self.n)
        return prod[: self.n]

    def solve(self, f: np.ndarray) -> np.ndarray:
        return cholesky_solve(self._factor(), np.asarray(f, dtype=float))

    def form(self, u: np.ndarray, v: np.ndarray) -> float:
        """Discrete energy form: dx * v^T A u (the bilinear pairing <Au, v>_h)."""
        return float(self.dx * np.dot(v, self.apply(u)))


def cholesky_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with the upper Cholesky factor that cho_factor returns, straight
    through LAPACK potrs.  Neither the factor nor rhs is scanned for
    non-finite entries: callers pass data validated where it was built."""
    x, info = dpotrs(factor, rhs)
    if info != 0:  # pragma: no cover - only an illegal argument sets it
        raise SolverError(f"Cholesky solve failed (potrs info={info})")
    return x


def assemble_operator(grid: Grid, s: float) -> FractionalOperator:
    return FractionalOperator(s=s, n=grid.n, dx=grid.dx)


def l2_norm(dx: float, u: np.ndarray) -> float:
    return sqrt(dx * float(np.dot(u, u)))


def linf_norm(u: np.ndarray) -> float:
    u = np.asarray(u)
    return float(np.max(np.abs(u))) if u.size else 0.0


def v_seminorm(op: FractionalOperator, u: np.ndarray) -> float:
    """Energy norm (dx u^T A u)^(1/2)."""
    return sqrt(max(op.form(u, u), 0.0))


def vstar_norm(op: FractionalOperator, f: np.ndarray) -> float:
    """Dual norm (dx f^T A^(-1) f)^(1/2); one Cholesky solve per call."""
    f = np.asarray(f, dtype=float)
    val = op.dx * float(np.dot(f, op.solve(f)))
    return sqrt(max(val, 0.0))


def quadrature_oracle(u, x: float, s: float, eps: float, support=(-1.0, 1.0), u_xx=None) -> float:
    """Ground-truth pointwise value of the fractional Laplacian at x.

    Evaluates C_{1,s} * [ P.V. far field + near-field Taylor correction ]:
    the far field |x-y| > eps by adaptive quadrature over the support plus
    the analytic tail where u vanishes, the near field |x-y| < eps by the
    second-order correction -u''(x) eps^(2-2s)/(2-2s).

    u must be defined on all of R (zero outside the support) and twice
    differentiable near x.  u_xx optionally supplies u''(x); otherwise a
    central difference with step 1e-4 is used.
    """
    if eps <= 0.0:
        raise ValueError(f"cutoff must be positive, got eps={eps}")
    cs = normalization_constant(s)
    lo, hi = support
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

    if u_xx is not None:
        upp = float(u_xx(x))
    else:
        h = 1e-4
        upp = (float(u(x + h)) - 2.0 * ux + float(u(x - h))) / h**2
    near = -upp * eps ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    return cs * (far + near)
