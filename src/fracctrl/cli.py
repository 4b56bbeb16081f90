"""Command-line driver: solve / adjoint / optimize / verify / gradcheck.

Configuration is flat key = value text with dotted section prefixes
(problem.*, optimizer.*, verify.*); unknown keys are rejected with the
offending line.  Exit codes: 0 ok, 2 config error, 3 stability error,
4 non-convergence or failed check, 5 internal error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .control import cost_from_state, kkt_residual, ssc_smallness, uniqueness_condition
from .fracop import l2_norm
from .optimize import OptimOptions, fixed_point, projected_gradient
from .pdesolve import (
    ControlField,
    SolverError,
    StabilityError,
    StepSolver,
    constant_control,
    export_control_csv,
    export_trajectory_csv,
    random_admissible,
    solve_state,
)
from .problem import ProblemConfig, ProblemSpec, source_number, split_source
from .verify import (
    GRADIENT_FD_BOUND,
    GRADIENT_FD_STEP,
    SUITES,
    SuiteConfig,
    central_difference,
    directional_error,
    run_all,
    sup_envelope_ratios,
)


class ConfigError(ValueError):
    pass


@dataclass
class OptimizerConfig(OptimOptions):
    """The library's optimizer options plus the driver, a choice only the CLI makes."""

    method: str = "pg"  # pg | fp

    def __post_init__(self):
        super().__post_init__()
        if self.method not in ("pg", "fp"):
            raise ValueError(f"method must be pg or fp, got '{self.method}'")


@dataclass
class RunConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    verify: SuiteConfig = field(default_factory=SuiteConfig)


_SECTIONS = {"problem": ProblemConfig, "optimizer": OptimizerConfig, "verify": SuiteConfig}


def _keys(section: str) -> list[str]:
    """Config keys of a section in file order; method leads the optimizer
    block.  SuiteConfig.spec is no key: the CLI builds it from the problem
    block."""
    names = [f.name for f in fields(_SECTIONS[section]) if f.name != "spec"]
    return sorted(names, key=lambda name: name != "method")


def _parse_value(section: str, name: str, text: str, lineno: int):
    text = text.strip()
    try:
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
    seen = {}  # key -> the line that first set it
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
        if (first := seen.setdefault(key, lineno)) != lineno:
            raise ConfigError(f"line {lineno}: key '{key}' is already set on line {first}")
        values[section][name] = _parse_value(section, name, value, lineno)
    try:
        return RunConfig(**{section: cls(**values[section])
                            for section, cls in _SECTIONS.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _format_value(value) -> str:
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


def build_spec(pcfg: ProblemConfig) -> ProblemSpec:
    """The problem block's instance; a value the build refuses is a config error."""
    try:
        return pcfg.build()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_config(args) -> RunConfig:
    """The config file's settings, or the defaults, with --seed as
    verify.seed, the seed of verify and gradcheck."""
    if args.config is None:
        cfg = RunConfig()
    else:
        try:
            text = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config '{args.config}': {exc}") from exc
        cfg = parse_config(text)
    if getattr(args, "seed", None) is None:
        return cfg
    try:
        return replace(cfg, verify=replace(cfg.verify, seed=args.seed))
    except ValueError as exc:
        raise ConfigError(f"--seed: {exc}") from exc


def _parse_control_source(text: str, spec: ProblemSpec) -> ControlField:
    try:
        kind, arg = split_source(text, "control source", ("zero", "constant", "csv"))
        value = source_number(text, arg) if kind == "constant" else 0.0
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if kind == "csv":
        return _read_control_csv(arg, spec)
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
    except (OSError, UnicodeDecodeError) as exc:
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


def _write(path: Path, writer, *args) -> None:
    """writer(*args, path); an output file that cannot be written is a
    config error naming it."""
    try:
        writer(*args, path)
    except OSError as exc:
        raise ConfigError(f"cannot write '{path}': {exc}") from exc


def _write_text(text: str, path: Path) -> None:
    path.write_text(text)


def _write_kv(items, path: Path) -> None:
    _write_text("".join(f"{key} = {_format_value(value)}\n" for key, value in items), path)


def _solve_summary(spec: ProblemSpec, v: ControlField, rho) -> list:
    step_ratio, growth_ratio = sup_envelope_ratios(rho, v.theta)
    return [
        ("tracking_error_l2", l2_norm(spec.grid.dx, rho.final - spec.rho_target)),
        ("state_sup", rho.linf()),
        ("sup_bound_step_ratio", step_ratio),
        ("sup_bound_growth_ratio", growth_ratio),
        ("cost", cost_from_state(spec, v, rho)),
    ]


def cmd_solve(args, cfg: RunConfig, spec: ProblemSpec) -> int:
    """solve writes rho.csv, and q.csv with --adjoint; adjoint writes q.csv
    and adds adjoint_sup to the summary."""
    v = _parse_control_source(args.control, spec)
    out = Path(args.out)
    # with the adjoint, the state and adjoint march on one set of factors
    steps = StepSolver(spec, v)
    rho = solve_state(spec, v, steps=steps)
    q = kkt_residual(spec, v, rho=rho, steps=steps).q if args.adjoint else None
    del steps  # release the factors before any file is written
    items = _solve_summary(spec, v, rho)
    if args.command == "solve":
        _write(out / "rho.csv", export_trajectory_csv, rho)
    if args.adjoint:
        _write(out / "q.csv", export_trajectory_csv, q)
        if args.command == "adjoint":
            items.append(("adjoint_sup", q.linf()))
    _write(out / "summary.txt", _write_kv, items)
    return 0


def cmd_optimize(args, cfg: RunConfig, spec: ProblemSpec) -> int:
    start = constant_control(spec.grid, 0.0, spec.vmin, spec.vmax)
    driver = projected_gradient if cfg.optimizer.method == "pg" else fixed_point
    result = driver(spec, start, cfg.optimizer)
    final = result.final
    out = Path(args.out)
    _write(out / "u.csv", export_control_csv, final.u)
    _write(out / "rho.csv", export_trajectory_csv, final.rho)
    _write(out / "q.csv", export_trajectory_csv, final.q)
    uniq = uniqueness_condition(spec)
    ssc = ssc_smallness(spec)
    _write(out / "summary.txt", _write_kv, [
        ("status", result.status), ("iterations", result.iterations),
        ("cost", result.j_final), ("kkt_residual", result.kkt_final),
        ("control_l2", spec.control_norm(final.u.values)), ("control_sup", final.u.sup),
        ("uniqueness_lhs", uniq.lhs), ("uniqueness_margin", uniq.margin),
        ("uniqueness_holds", uniq.holds), ("ssc_constant", spec.c_user),
        ("ssc_lhs", ssc.lhs), ("ssc_holds", ssc.holds)])
    return 0 if result.status == "converged" else 4


def cmd_verify(args, cfg: RunConfig, spec: ProblemSpec) -> int:
    suite_cfg = replace(cfg.verify, spec=spec,
                        suites=(args.suite,) if args.suite else cfg.verify.suites)
    out = Path(args.out)
    # an unwritable report stops the run before the harness, not after it
    for name in ("report.txt", "report.csv", "timings.csv"):
        _write(out / name, _write_text, "")
    report = run_all(suite_cfg)
    _write(out / "report.txt", _write_text, report.to_text())
    _write(out / "report.csv", report.to_csv)
    _write(out / "timings.csv", report.timings_to_csv)
    sys.stdout.write(report.to_text())
    return 0 if report.passed else 4


def cmd_gradcheck(args, cfg: RunConfig, spec: ProblemSpec) -> int:
    rng = np.random.default_rng(cfg.verify.seed)
    v = random_admissible(spec, rng, 0.7)
    w = rng.standard_normal(v.values.shape)
    g = kkt_residual(spec, v).g
    fd = central_difference(spec, v, w, GRADIENT_FD_STEP)
    rel = directional_error(spec, g, w, fd)
    sys.stdout.write(f"directional = {spec.control_dot(g, w):.17g}\n"
                     f"central_difference = {fd:.17g}\n"
                     f"relative_error = {rel:.17g}\n")
    return 0 if rel <= GRADIENT_FD_BOUND else 4


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
    """Load the config and build the problem, create --out, then run the
    command; a bad config or output directory stops the run before its job."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        spec = build_spec(cfg.problem)
        if "out" in args:
            try:
                Path(args.out).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create output directory '{args.out}': {exc}") from exc
        return args.func(args, cfg, spec)
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
