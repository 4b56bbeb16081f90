"""Bilinear optimal control of a 1-D fractional diffusion equation.

Solvers for the state, adjoint and linearized systems of the
control-multiplies-state tracking problem with box constraints, adjoint
gradients that are exact for the discrete objective, projected-gradient and
fixed-point optimizers, and a verification harness for the maximum
principles, a-priori bounds, optimality conditions and the local-uniqueness
criterion.
"""

from .control import (
    ConditionReport,
    Evaluation,
    active_set,
    check_coercivity,
    cost,
    critical_cone_project,
    gradient,
    hessian_bilinear,
    kkt_residual,
    project,
    ssc_smallness,
    uniqueness_condition,
)
from .fracop import (
    FractionalOperator,
    Grid,
    InvalidOrderError,
    assemble_operator,
    assemble_weights,
    normalization_constant,
    quadrature_oracle,
)
from .optimize import (
    OptimOptions,
    OptimResult,
    fixed_point,
    multistart_uniqueness,
    projected_gradient,
)
from .pdesolve import (
    ControlField,
    SolverError,
    StabilityError,
    TimeField,
    solve_adjoint,
    solve_linearized,
    solve_shifted,
    solve_sourced,
    solve_state,
)
from .problem import ProblemConfig, ProblemSpec, benchmark_problem, bump_profile, eigen_profile

__version__ = "0.1.0"
