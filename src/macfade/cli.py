"""Command-line front end: JSON config in, CSV out.

Commands
    solve      solve the power prices for an explicit weight vector
    boundary   sweep a simplex grid of weight vectors into boundary points
    verify-mc  cross-check analytic rates and powers against Monte Carlo
    compare    corrected-vs-naive gap report at one weight vector

Exit codes: 0 success, 1 config error, 2 solver or quadrature
non-convergence, 3 verification failure.  All randomness flows from the
single seed in the config; CSV numbers carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .boundary import DEFAULT_MU_MIN, check_grid, compare_modes, rate_point, simplex_grid, sweep
from .fading import ExponentialGain, PiecewiseLinearEmpirical, UniformGain
from .kernel import (
    CdfMode,
    ChannelConfig,
    RateAwardVector,
    UserSpec,
)
from .montecarlo import check_run, estimate
from .quadrature import QuadratureError
from .solver import SolverError, SolverSettings, solve_lambda

__all__ = ["ConfigError", "GridSpec", "RunConfig", "load_config", "dump_config", "main", "entry"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VERIFY_FAILED = 3

LN2 = math.log(2.0)
_MISSING = object()


class ConfigError(Exception):
    """Configuration problem; the message names the offending field."""


@dataclass(frozen=True)
class GridSpec:
    resolution: int
    mu_min: float = DEFAULT_MU_MIN


@dataclass(frozen=True)
class RunConfig:
    channel: ChannelConfig
    mu: object  # RateAwardVector or GridSpec
    power_rel_tol: float
    max_outer_iters: int
    bracket_growth: float
    outer_abs_tol: float
    tail_epsilon: float
    mc_samples: int
    mc_seed: int
    mode: str  # corrected | naive | both
    units: str  # nats | bits
    threads: int
    output: str | None


def _expect_mapping(node, path):
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object")
    return node


def _take(node: dict, key: str, path: str, default=_MISSING):
    if key in node:
        return node.pop(key)
    if default is _MISSING:
        raise ConfigError(f"{path}.{key}: missing required field")
    return default


def _no_leftovers(node: dict, path: str):
    if node:
        raise ConfigError(f"{path}.{next(iter(node))}: unknown field")


def _as_float(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    return float(value)


def _as_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    return value


def _as_knot(value, path):
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{path}: expected a [gain, cdf] pair")
    return tuple(_as_float(x, path) for x in value)


def _build(path, make, *args):
    """``make(*args)``: a library type, whose complaints are reported against ``path``."""
    try:
        return make(*args)
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_fading(node, path, base_dir: Path):
    node = dict(_expect_mapping(node, path))
    kind = _take(node, "kind", path)
    if kind == "exponential":
        mean = _as_float(_take(node, "mean", path), f"{path}.mean")
        _no_leftovers(node, path)
        return _build(f"{path}.mean", ExponentialGain, mean)
    if kind == "uniform":
        low = _as_float(_take(node, "low", path), f"{path}.low")
        high = _as_float(_take(node, "high", path), f"{path}.high")
        _no_leftovers(node, path)
        return _build(path, UniformGain, low, high)
    if kind == "empirical":
        knots = node.pop("knots", None)
        csv_path = node.pop("csv", None)
        _no_leftovers(node, path)
        if (knots is None) == (csv_path is None):
            raise ConfigError(f"{path}: give exactly one of 'knots' or 'csv'")
        if csv_path is not None:
            csv_file = base_dir / _as_path(csv_path, f"{path}.csv")
            return _build(path, PiecewiseLinearEmpirical.from_csv, csv_file)
        if not isinstance(knots, list):
            raise ConfigError(f"{path}.knots: expected a list of [gain, cdf] pairs")
        pairs = [_as_knot(pair, f"{path}.knots[{j}]") for j, pair in enumerate(knots)]
        return _build(path, PiecewiseLinearEmpirical,
                      tuple(h for h, _ in pairs), tuple(F for _, F in pairs))
    raise ConfigError(f"{path}.kind: unknown fading kind {kind!r}")


def _parse_mu(node, path, channel: ChannelConfig):
    if isinstance(node, list):
        return _build(path, channel.weights, node)
    if isinstance(node, dict):
        node = dict(node)
        resolution = _as_int(_take(node, "resolution", path), f"{path}.resolution")
        mu_min = _as_float(node.pop("mu_min", DEFAULT_MU_MIN), f"{path}.mu_min")
        _no_leftovers(node, path)
        return GridSpec(resolution, mu_min)
    raise ConfigError(f"{path}: expected a weight list or a grid object")


def _one_of(*choices):
    def parse(value, path):
        if value not in choices:
            names = [repr(c) for c in choices]
            raise ConfigError(f"{path}: expected {', '.join(names[:-1])} or {names[-1]}")
        return value
    return parse


def _as_path(value, path):
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{path}: expected a path string")
    return value


_MODES = ("corrected", "naive", "both")  # the choices of the config and of --mode
_UNITS = ("nats", "bits")
# Every option besides the channel and mu: (section, key, RunConfig field,
# default, parser), with section None at the top level.  Parsers check the
# type and the choice only; the library checks ranges (``_check_ranges``).
_OPTIONS = (
    ("solver", "power_rel_tol", "power_rel_tol", SolverSettings.power_rel_tol, _as_float),
    ("solver", "max_outer_iters", "max_outer_iters", SolverSettings.max_outer_iters, _as_int),
    ("solver", "bracket_growth", "bracket_growth", SolverSettings.bracket_growth, _as_float),
    ("quadrature", "outer_abs_tol", "outer_abs_tol", SolverSettings.quad_abs_tol, _as_float),
    ("quadrature", "tail_epsilon", "tail_epsilon", SolverSettings.tail_epsilon, _as_float),
    ("mc", "n_samples", "mc_samples", 1_000_000, _as_int),
    ("mc", "seed", "mc_seed", 12345, _as_int),
    (None, "mode", "mode", "corrected", _one_of(*_MODES)),
    (None, "units", "units", "nats", _one_of(*_UNITS)),
    (None, "threads", "threads", 1, _as_int),
    (None, "output", "output", None, _as_path),
)
_SETTINGS_NAMES = {"outer_abs_tol": "quad_abs_tol"}  # RunConfig -> SolverSettings field


def _option_path(section, key) -> str:
    return key if section is None else f"{section}.{key}"


_LIBRARY_PATHS = {"resolution": "mu.resolution", "mu_min": "mu.mu_min",  # arg -> config path
                  **{_SETTINGS_NAMES.get(key, key): _option_path(section, key)
                     for section, key, _, _, _ in _OPTIONS}}


def parse_config(data: dict, base_dir: Path) -> RunConfig:
    root = dict(_expect_mapping(data, "config"))

    channel_node = dict(_expect_mapping(_take(root, "channel", "config"), "channel"))
    sigma2 = _as_float(_take(channel_node, "sigma2", "channel"), "channel.sigma2")
    users_node = _take(channel_node, "users", "channel")
    _no_leftovers(channel_node, "channel")
    if not isinstance(users_node, list) or not users_node:
        raise ConfigError("channel.users: expected a nonempty list")
    users = []
    for idx, user_node in enumerate(users_node):
        upath = f"channel.users[{idx}]"
        user_node = dict(_expect_mapping(user_node, upath))
        fading = _parse_fading(_take(user_node, "fading", upath), f"{upath}.fading", base_dir)
        pbar = _as_float(_take(user_node, "pbar", upath), f"{upath}.pbar")
        _no_leftovers(user_node, upath)
        users.append(_build(f"{upath}.pbar", UserSpec, fading, pbar))
    channel = _build("channel.sigma2", ChannelConfig, sigma2, tuple(users))
    mu = _parse_mu(_take(root, "mu", "config"), "mu", channel)

    nodes = {None: root}
    values = {}
    for section, key, field, default, parse in _OPTIONS:
        if section not in nodes:
            nodes[section] = dict(_expect_mapping(root.pop(section, {}), section))
        values[field] = parse(nodes[section].pop(key, default), _option_path(section, key))
    for section, node in nodes.items():
        _no_leftovers(node, section or "config")
    return _check_ranges(RunConfig(channel=channel, mu=mu, **values))


def _check_ranges(cfg: RunConfig) -> RunConfig:
    """``cfg``, or ConfigError ``<config path>: <reason>`` from a library range check."""
    try:
        if isinstance(cfg.mu, GridSpec):
            check_grid(cfg.channel.n_users, cfg.mu.resolution, cfg.mu.mu_min)
        check_run(cfg.mc_samples, cfg.mc_seed, cfg.threads)
        _solver_settings(cfg, CdfMode.CORRECTED)
    except ValueError as exc:
        name, _, reason = str(exc).partition(" ")
        raise ConfigError(f"{_LIBRARY_PATHS[name]}: {reason}") from exc
    return cfg


def load_config(path: str) -> RunConfig:
    config_path = Path(path)
    try:
        text = config_path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(data, config_path.resolve().parent)


def _fading_to_dict(dist) -> dict:
    if isinstance(dist, ExponentialGain):
        return {"kind": "exponential", "mean": dist.mean_gain}
    if isinstance(dist, UniformGain):
        return {"kind": "uniform", "low": dist.low, "high": dist.high}
    if isinstance(dist, PiecewiseLinearEmpirical):
        return {"kind": "empirical",
                "knots": [[h, F] for h, F in zip(dist.h_knots, dist.cdf_knots)]}
    raise TypeError(f"cannot serialize fading {type(dist).__name__}")


def dump_config(cfg: RunConfig) -> str:
    """Canonical JSON form; re-parsing it yields an identical RunConfig."""
    if isinstance(cfg.mu, RateAwardVector):
        mu_node: object = list(cfg.mu.mu)
    else:
        mu_node = {"resolution": cfg.mu.resolution, "mu_min": cfg.mu.mu_min}
    users = [{"fading": _fading_to_dict(u.fading), "pbar": u.pbar} for u in cfg.channel.users]
    doc = {"channel": {"sigma2": cfg.channel.sigma2, "users": users}, "mu": mu_node}
    for section, key, field, _, _ in _OPTIONS:
        (doc if section is None else doc.setdefault(section, {}))[key] = getattr(cfg, field)
    return json.dumps(doc, indent=2)


def _solver_settings(cfg: RunConfig, mode: CdfMode) -> SolverSettings:
    return SolverSettings(mode=mode, **{_SETTINGS_NAMES.get(field, field): getattr(cfg, field)
                                        for section, _, field, _, _ in _OPTIONS
                                        if section in ("solver", "quadrature")})


def _modes(cfg: RunConfig):
    return list(CdfMode) if cfg.mode == "both" else [CdfMode(cfg.mode)]


def _rate_scale(cfg: RunConfig) -> float:
    return 1.0 / LN2 if cfg.units == "bits" else 1.0


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(cfg: RunConfig, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if cfg.output is None:
        sys.stdout.write(text)
    else:
        with open(cfg.output, "w", newline="") as fh:
            fh.write(text)


def _require_explicit_mu(cfg: RunConfig) -> RateAwardVector:
    if not isinstance(cfg.mu, RateAwardVector):
        raise ConfigError("mu: this command needs an explicit weight vector, not a grid")
    return cfg.mu


def cmd_solve(cfg: RunConfig) -> int:
    mu = _require_explicit_mu(cfg)
    m = cfg.channel.n_users
    header = ["mode", "user", "mu", "lambda", "pbar", "achieved_power",
              "residual_rel", "solver_iters"]
    rows = []
    for mode in _modes(cfg):
        solution = solve_lambda(mu, cfg.channel, _solver_settings(cfg, mode))
        for i in range(m):
            rows.append([
                mode.value, i + 1, mu[i], solution.lam[i], cfg.channel.users[i].pbar,
                solution.achieved[i], solution.certified_residuals[i], solution.sweeps,
            ])
        print(f"{mode.value}: converged in {solution.sweeps} Newton steps "
              f"({solution.power_evals} power evaluations)", file=sys.stderr)
    _write_csv(cfg, header, rows)
    return EXIT_OK


def cmd_boundary(cfg: RunConfig) -> int:
    if not isinstance(cfg.mu, GridSpec):
        raise ConfigError("mu: the boundary command needs a grid spec "
                          "{'resolution': ..., 'mu_min': ...}")
    m = cfg.channel.n_users
    grid = simplex_grid(m, cfg.mu.resolution, cfg.mu.mu_min)
    scale = _rate_scale(cfg)
    header = (["mode"]
              + [f"mu_{i + 1}" for i in range(m)]
              + [f"lambda_{i + 1}" for i in range(m)]
              + [f"R_{i + 1}" for i in range(m)]
              + [f"Pach_{i + 1}" for i in range(m)]
              + ["quad_err", "solver_iters", "status"])
    rows = []
    n_ok = 0
    for mode in _modes(cfg):
        points = sweep(cfg.channel, grid, _solver_settings(cfg, mode))
        for point in points:
            row: list = [mode.value]
            row.extend(point.mu[i] for i in range(m))
            if point.ok:
                n_ok += 1
                row.extend(point.lam[i] for i in range(m))
                row.extend(point.rates[i] * scale for i in range(m))
                row.extend(point.achieved_powers[i] for i in range(m))
                row.append(max(point.diagnostics.rate_quad_errors) * scale)
                row.append(point.diagnostics.solver_sweeps)
                row.append("ok")
            else:
                row.extend([math.nan] * (3 * m + 1))
                row.append(0)
                row.append(point.status.replace(",", ";"))
            rows.append(row)
    _write_csv(cfg, header, rows)
    return EXIT_OK if n_ok > 0 else EXIT_NO_CONVERGENCE


def cmd_verify_mc(cfg: RunConfig) -> int:
    mu = _require_explicit_mu(cfg)
    m = cfg.channel.n_users
    scale = _rate_scale(cfg)
    header = ["mode", "user", "quantity", "analytic", "mc_mean", "mc_se", "z_score"]
    rows = []
    worst = 0.0
    for mode in _modes(cfg):
        solution = solve_lambda(mu, cfg.channel, _solver_settings(cfg, mode))
        rates = rate_point(mu, solution.lam, cfg.channel, mode,
                           cfg.outer_abs_tol, cfg.tail_epsilon)
        mc = estimate(cfg.channel, mu, solution.lam, cfg.mc_samples, cfg.mc_seed,
                      threads=cfg.threads)
        for i in range(m):
            for quantity, analytic, sampled, se in (
                ("rate", rates[i] * scale, mc.rates[i] * scale, mc.rate_se[i] * scale),
                ("power", cfg.channel.users[i].pbar, mc.powers[i], mc.power_se[i]),
            ):
                if se > 0.0:
                    z = (sampled - analytic) / se
                else:
                    z = 0.0 if sampled == analytic else math.inf
                worst = max(worst, abs(z))
                rows.append([mode.value, i + 1, quantity, analytic, sampled, se, z])
    _write_csv(cfg, header, rows)
    return EXIT_OK if worst <= 4.0 else EXIT_VERIFY_FAILED


def cmd_compare(cfg: RunConfig) -> int:
    mu = _require_explicit_mu(cfg)
    scale = _rate_scale(cfg)
    report = compare_modes(cfg.channel, mu, _solver_settings(cfg, CdfMode.CORRECTED))
    header = ["user", "rate_corrected", "rate_naive_same_lambda",
              "same_lambda_gap_abs", "same_lambda_gap_rel",
              "rate_naive_end_to_end", "end_to_end_gap_abs", "end_to_end_gap_rel"]
    rows = []
    for i in range(cfg.channel.n_users):
        rows.append([
            i + 1,
            report.rates_corrected[i] * scale,
            report.rates_naive_same_lambda[i] * scale,
            report.same_lambda_gap_abs[i] * scale,
            report.same_lambda_gap_rel[i],
            report.rates_naive_end_to_end[i] * scale,
            report.end_to_end_gap_abs[i] * scale,
            report.end_to_end_gap_rel[i],
        ])
    _write_csv(cfg, header, rows)
    return EXIT_OK


_COMMANDS = {  # name -> (command, help text)
    "solve": (cmd_solve, "solve power prices for an explicit weight vector"),
    "boundary": (cmd_boundary, "sweep a simplex grid into boundary points"),
    "verify-mc": (cmd_verify_mc, "cross-check analytics against Monte Carlo"),
    "compare": (cmd_compare, "corrected-vs-naive gap report"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macfade",
        description="Capacity region boundary of Gaussian multiple-access "
                    "fading channels, with Monte Carlo cross-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
        cmd.add_argument("--output", help="write the CSV here instead of stdout")
        cmd.add_argument("--mode", choices=_MODES, help="override the config mode")
        cmd.add_argument("--units", choices=_UNITS, help="override the config rate units")
        cmd.add_argument("--threads", type=int, help="override the config thread count")
        cmd.add_argument("--dump-config", action="store_true",
                         help="print the effective config as JSON and exit")
    return parser


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    """``cfg`` with the top-level options given on the command line, checked alike."""
    return _check_ranges(replace(cfg, **{field: parse(getattr(args, key), key)
                                         for section, key, field, _, parse in _OPTIONS
                                         if section is None and getattr(args, key) is not None}))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_CONFIG
        return EXIT_OK if code == 0 else EXIT_CONFIG
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        if args.dump_config:
            print(dump_config(cfg))
            return EXIT_OK
        return _COMMANDS[args.command][0](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except QuadratureError as exc:
        print(f"quadrature error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


def entry() -> None:
    raise SystemExit(main())
