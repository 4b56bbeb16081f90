"""Command-line driver: solve / adjoint / optimize / verify / gradcheck.

Configuration is flat key = value text with dotted section prefixes
(problem.*, optimizer.*, verify.*); unknown keys are rejected with the
offending line.  Exit codes: 0 ok, 2 config error, 3 stability error,
4 non-convergence or failed check, 5 internal error.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .control import cost_from_state, gradient, kkt_residual, ssc_smallness, uniqueness_condition
from .fracop import Grid, l2_norm
from .optimize import OptimOptions, fixed_point, projected_gradient
from .pdesolve import (
    ControlField,
    SolverError,
    StabilityError,
    constant_control,
    export_control_csv,
    export_trajectory_csv,
    solve_state,
)
from .problem import ProblemSpec, bump_profile, eigen_profile
from .verify import (
    SUITES,
    SuiteConfig,
    central_difference,
    directional_error,
    random_admissible,
    run_all,
    sup_envelope_ratios,
)


class ConfigError(ValueError):
    pass


@dataclass
class ProblemConfig:
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


@dataclass
class OptimizerConfig(OptimOptions):
    """The library's optimizer options (sigma0 = None is "auto" in config
    text) plus the choices only the CLI makes."""

    method: str = "pg"  # pg | fp
    c_user: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.c_user < math.inf:
            raise ValueError(f"c_user must be finite and nonnegative, got {self.c_user}")


@dataclass
class RunConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    verify: SuiteConfig = field(default_factory=SuiteConfig)


_SECTIONS = {"problem": ProblemConfig, "optimizer": OptimizerConfig, "verify": SuiteConfig}
# SuiteConfig fields the CLI fills in itself: the problem comes from the
# problem block, the constant from optimizer.c_user.
_NOT_KEYS = {"verify": {"spec", "c_user"}}


def _keys(section: str) -> list[str]:
    """Config keys of a section in file order; method leads the optimizer block."""
    names = [f.name for f in fields(_SECTIONS[section])
             if f.name not in _NOT_KEYS.get(section, ())]
    return sorted(names, key=lambda name: name != "method")


def _parse_value(section: str, name: str, text: str, lineno: int):
    text = text.strip()
    try:
        if section == "optimizer" and name == "sigma0":
            return None if text == "auto" else float(text)
        if section == "optimizer" and name == "method":
            if text not in ("pg", "fp"):
                raise ValueError(f"method must be pg or fp, got '{text}'")
            return text
        if section == "verify" and name == "suites":
            return tuple(part.strip() for part in text.split(",") if part.strip())
        current = getattr(_SECTIONS[section](), name)
        if isinstance(current, int):
            return int(text)
        if isinstance(current, float):
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for '{section}.{name}': {exc}") from exc


def parse_config(text: str) -> RunConfig:
    values = {section: {} for section in _SECTIONS}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got '{raw.strip()}'")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." not in key:
            raise ConfigError(f"line {lineno}: key '{key}' lacks a section prefix")
        section, name = key.split(".", 1)
        if section not in _SECTIONS:
            raise ConfigError(f"line {lineno}: unknown section '{section}' in key '{key}'")
        if name not in _keys(section):
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        values[section][name] = _parse_value(section, name, value, lineno)
    try:
        return RunConfig(**{section: cls(**values[section])
                            for section, cls in _SECTIONS.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _format_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for section in ("problem", "optimizer", "verify"):
        block = getattr(cfg, section)
        for name in _keys(section):
            lines.append(f"{section}.{name} = {_format_value(getattr(block, name))}")
    return "\n".join(lines) + "\n"


_PROFILE_RE = re.compile(r"^([a-z]+)(?:\((.*)\))?$")


def _split_source(text: str, what: str, kinds: tuple) -> tuple[str, str | None]:
    """'kind(arg)' -> (kind, arg); every kind but zero needs its argument."""
    m = _PROFILE_RE.match(text.strip())
    if not m:
        raise ConfigError(f"malformed {what} '{text}'")
    kind, arg = m.group(1), m.group(2)
    if kind not in kinds:
        raise ConfigError(f"unknown {what} '{kind}' in '{text}' (use {', '.join(kinds)})")
    if arg is None and kind != "zero":
        raise ConfigError(f"{what} '{text}' lacks its argument: {kind}(...)")
    return kind, arg


def _number(text: str, arg: str, cast=float):
    """Finite numeric argument of a profile or control source."""
    try:
        value = cast(arg)
    except ValueError:
        raise ConfigError(f"bad argument '{arg}' in '{text}'") from None
    if not math.isfinite(value):
        raise ConfigError(f"argument '{arg}' in '{text}' is not finite")
    return value


def _resolve_profile(text: str, grid: Grid, s: float):
    """Profile -> (samples, declared sup or None).  Supported: zero,
    bump(amplitude), eigen(k), csv(path)."""
    kind, arg = _split_source(text, "profile", ("zero", "bump", "eigen", "csv"))
    if kind == "zero":
        return np.zeros(grid.n), 0.0
    if kind == "bump":
        amp = _number(text, arg)
        return bump_profile(grid, amp), abs(amp)
    if kind == "eigen":
        return eigen_profile(grid, s, _number(text, arg, int)), None
    try:
        values = np.loadtxt(arg, ndmin=1)
    except OSError as exc:
        raise ConfigError(f"cannot read profile file '{arg}': {exc}") from exc
    if values.shape != (grid.n,):
        raise ConfigError(f"profile file '{arg}' has {values.size} values, expected {grid.n}")
    return values, None


def build_spec(pcfg: ProblemConfig) -> ProblemSpec:
    try:
        grid = Grid.from_window(a=pcfg.a, b=pcfg.b, n=pcfg.n,
                                window=(pcfg.omega_a, pcfg.omega_b), T=pcfg.T, nt=pcfg.nt)
        rho0, sup0 = _resolve_profile(pcfg.rho0, grid, pcfg.s)
        rhod, supd = _resolve_profile(pcfg.rhod, grid, pcfg.s)
        return ProblemSpec(grid=grid, s=pcfg.s, alpha=pcfg.alpha, vmin=pcfg.m, vmax=pcfg.M,
                           rho0=rho0, rho_target=rhod, rho0_sup=sup0, target_sup=supd)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    return parse_config(text)


def _parse_control_source(text: str, spec: ProblemSpec) -> ControlField:
    kind, arg = _split_source(text, "control source", ("zero", "constant", "csv"))
    if kind == "csv":
        return _read_control_csv(arg, spec)
    value = 0.0 if kind == "zero" else _number(text, arg)
    return constant_control(spec.grid, value, spec.vmin, spec.vmax)


def _read_control_csv(path: str, spec: ProblemSpec) -> ControlField:
    """Rows t,x,value in the order export_control_csv writes them; each row's
    t and x must be its grid point's to within 1e-9 of the spacing."""
    grid = spec.grid
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["t", "x", "value"]:
                raise ConfigError(f"control file '{path}' must carry a t,x,value header")
            rows = list(reader)
    except OSError as exc:
        raise ConfigError(f"cannot read control file '{path}': {exc}") from exc
    if len(rows) != grid.nt * grid.n_omega:
        raise ConfigError(f"control file '{path}' has {len(rows)} rows, "
                          f"expected {grid.nt * grid.n_omega}")
    try:
        table = np.array([[float(c) for c in row] for row in rows])
        table = table.reshape(grid.nt, grid.n_omega, 3)
        control = ControlField(table[..., 2].copy(), grid, vmin=spec.vmin, vmax=spec.vmax)
    except ValueError as exc:
        raise ConfigError(f"control file '{path}' needs finite t,x,value rows: {exc}") from exc
    off = ((np.abs(table[..., 0] - grid.dt * np.arange(1, grid.nt + 1)[:, None]) > 1e-9 * grid.dt)
           | (np.abs(table[..., 1] - grid.nodes[grid.omega_mask]) > 1e-9 * grid.dx))
    if off.any():
        raise ConfigError(f"control file '{path}' line {2 + int(np.argmax(off))}: "
                          f"t,x is not the grid point of that row")
    return control


def _write_kv(path: Path, items) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{key} = {_format_value(value)}\n" for key, value in items)


def _solve_summary(spec: ProblemSpec, v: ControlField, rho) -> list:
    step_ratio, growth_ratio = sup_envelope_ratios(rho, v.theta)
    return [
        ("tracking_error_l2", l2_norm(spec.grid.dx, rho.final - spec.rho_target)),
        ("state_sup", rho.linf()),
        ("sup_bound_step_ratio", step_ratio),
        ("sup_bound_growth_ratio", growth_ratio),
        ("cost", cost_from_state(spec, v, rho)),
    ]


def cmd_solve(args) -> int:
    """solve writes rho.csv, and q.csv with --adjoint; adjoint writes q.csv
    and adds adjoint_sup to the summary."""
    cfg = _load_config(args.config)
    spec = build_spec(cfg.problem)
    v = _parse_control_source(args.control, spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rho = solve_state(spec, v)
    items = _solve_summary(spec, v, rho)
    if args.command == "solve":
        export_trajectory_csv(rho, out / "rho.csv")
    if args.adjoint:
        q = kkt_residual(spec, v, rho=rho).q
        export_trajectory_csv(q, out / "q.csv")
        if args.command == "adjoint":
            items.append(("adjoint_sup", q.linf()))
    _write_kv(out / "summary.txt", items)
    return 0


def cmd_optimize(args) -> int:
    cfg = _load_config(args.config)
    spec = build_spec(cfg.problem)
    start = constant_control(spec.grid, 0.0, spec.vmin, spec.vmax)
    driver = projected_gradient if cfg.optimizer.method == "pg" else fixed_point
    result = driver(spec, start, cfg.optimizer)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export_control_csv(result.u, out / "u.csv")
    export_trajectory_csv(result.rho, out / "rho.csv")
    export_trajectory_csv(result.q, out / "q.csv")
    c_user = cfg.optimizer.c_user
    uniq = uniqueness_condition(spec)
    ssc = ssc_smallness(spec, c_user)
    _write_kv(out / "summary.txt", [
        ("status", result.status), ("iterations", result.iterations),
        ("cost", result.j_final), ("kkt_residual", result.kkt_final),
        ("control_l2", spec.control_norm(result.u.values)), ("control_sup", result.u.sup),
        ("uniqueness_lhs", uniq.lhs), ("uniqueness_margin", uniq.margin),
        ("uniqueness_holds", uniq.holds), ("ssc_constant", c_user),
        ("ssc_lhs", ssc.lhs), ("ssc_holds", ssc.holds)])
    return 0 if result.status == "converged" else 4


def _seeded(block, seed: int | None):
    """block with --seed, when given, as its seed; the block's own checks judge it."""
    try:
        return block if seed is None else replace(block, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"--seed: {exc}") from exc


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    suite_cfg = replace(_seeded(cfg.verify, args.seed), spec=build_spec(cfg.problem),
                        c_user=cfg.optimizer.c_user,
                        suites=(args.suite,) if args.suite else cfg.verify.suites)
    report = run_all(suite_cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(report.to_text())
    report.to_csv(out / "report.csv")
    sys.stdout.write(report.to_text())
    return 0 if report.passed else 4


def cmd_gradcheck(args) -> int:
    cfg = _load_config(args.config)
    spec = build_spec(cfg.problem)
    rng = np.random.default_rng(_seeded(cfg.optimizer, args.seed).seed)
    v = random_admissible(spec, rng, 0.7)
    w = rng.standard_normal(v.values.shape)
    g, _, _ = gradient(spec, v)
    fd = central_difference(spec, v, w, 1e-5)
    rel = directional_error(spec, g, w, fd)
    sys.stdout.write(f"directional = {spec.control_dot(g, w):.17g}\n"
                     f"central_difference = {fd:.17g}\n"
                     f"relative_error = {rel:.17g}\n")
    return 0 if rel <= 1e-6 else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracctrl",
        description="Bilinear control of a fractional diffusion equation: "
                    "solve, optimize, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, control=False, seed=False, out=True):
        p.add_argument("--config", help="key = value config file; defaults used if omitted")
        if out:
            p.add_argument("--out", default="out", help="output directory (default: out)")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        if control:
            p.add_argument("--control", default="zero",
                           help="control source: zero, constant(c) or csv(path)")

    p = sub.add_parser("solve", help="run the forward solver and export the trajectory")
    common(p, control=True)
    p.add_argument("--adjoint", action="store_true", help="also export the adjoint trajectory")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("adjoint", help="run the forward then adjoint solver")
    common(p, control=True)
    p.set_defaults(func=cmd_solve, adjoint=True)

    p = sub.add_parser("optimize", help="minimize the tracking cost over the control box")
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify", help="run the verification suites")
    common(p, seed=True)
    p.add_argument("--suite", choices=sorted(SUITES), help="run a single suite")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gradcheck", help="compare the adjoint gradient with finite differences")
    common(p, seed=True, out=False)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except StabilityError as exc:
        sys.stderr.write(f"stability error: {exc}\n")
        return 3
    except SolverError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 5


if __name__ == "__main__":
    sys.exit(main())
