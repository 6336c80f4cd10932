"""The benchmark's seeded workloads: the config a seed generates, one pass, its checks.

Every workload is a closed loop with one client: a pass issues the next
library call only after the previous one returned.  The program sees only
the generated JSON config (parsed with ``macfade.cli.load_config``) plus,
for ``mc2-exp``, the price vector the seed pins.  Tolerances are the
program defaults, so the config leaves them out.

Library calls go through module attributes (``api.boundary.sweep`` rather
than an imported name) so the traced run's hooks see them.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

Z_GATE = 4.0                # MC |z| gate, as in the acceptance suite and verify-mc
RESIDUAL_GATE = 1e-6        # certified relative power residual of every sweep point
SAME_RATE_GATE = 2e-8       # acceptance-2: the smaller-weight user's two rates agree
JITTER = 0.2                # channel parameters are drawn within +-20% of nominal
MC_CHECK_STATES = 1 << 18   # 64 chunks: the MC check stays a few percent of an analytic pass
MC_THREADS = 2              # the load model allows at most nproc = 2 threads


@dataclass
class PassOutcome:
    """What one pass produced: check verdicts, result text and point counts."""

    checks: list = field(default_factory=list)      # (label, ok)
    analytic_csv: str = ""
    mc_csv: str = ""
    points: int = 0
    points_failed: int = 0
    completed: bool = True

    def check(self, label: str, ok: bool) -> None:
        self.checks.append((label, bool(ok)))

    def digest(self) -> str:
        return hashlib.sha256((self.analytic_csv + self.mc_csv).encode()).hexdigest()


def _csv(api, header, rows) -> str:
    """CSV text as the CLI writes it, cells formatted by the CLI's own ``_fmt``.

    ``cli._write_csv`` only writes to a file or standard output, so the
    joining of cells is repeated here.
    """
    lines = [",".join(header)]
    lines.extend(",".join(api.cli._fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _jittered(rng: random.Random, nominal: float) -> float:
    return nominal * rng.uniform(1.0 - JITTER, 1.0 + JITTER)


def _config(users, mu, mc_samples: int, mc_seed: int) -> dict:
    return {
        "channel": {"sigma2": 1.0, "users": users},
        "mu": mu,
        "mc": {"n_samples": mc_samples, "seed": mc_seed},
        "threads": MC_THREADS,
    }


def _exp_user(mean: float) -> dict:
    return {"fading": {"kind": "exponential", "mean": mean}, "pbar": 1.0}


def _mc_check(api, cfg, mu, lam, rates, powers, n_samples, outcome: PassOutcome):
    """MC estimates on 1 and 2 threads against the analytic rates and powers."""
    estimates = {threads: api.montecarlo.estimate(cfg.channel, mu, lam, n_samples,
                                                  cfg.mc_seed, threads=threads)
                 for threads in (1, cfg.threads)}
    est = estimates[1]
    rows = []
    for i in range(cfg.channel.n_users):
        for quantity, analytic, sampled, se in (
            ("rate", rates[i], est.rates[i], est.rate_se[i]),
            ("power", powers[i], est.powers[i], est.power_se[i]),
        ):
            # the z-score as ``cli.cmd_verify_mc`` computes it inline (it has
            # no function of its own); the analytic power here is the
            # achieved power at the given prices, not the target ``pbar``
            if se > 0.0:
                z = (sampled - analytic) / se
            else:
                z = 0.0 if sampled == analytic else math.inf
            outcome.check(f"mc {quantity} of user {i + 1}: |z| <= {Z_GATE}", abs(z) <= Z_GATE)
            rows.append(["corrected", i + 1, quantity, analytic, sampled, se, z])
    outcome.check("mc estimates identical on 1 and 2 threads",
                  estimates[1] == estimates[cfg.threads])
    outcome.mc_csv = _csv(api, ["mode", "user", "quantity", "analytic", "mc_mean", "mc_se",
                           "z_score"], rows)


# --- sweep3-exp -------------------------------------------------------------

SWEEP_RESOLUTION = 4  # three interior points: one cold solve, two warm-started


def make_sweep3(seed: int):
    rng = random.Random(seed)
    users = [_exp_user(_jittered(rng, mean)) for mean in (0.5, 1.0, 2.0)]
    config = _config(users, {"resolution": SWEEP_RESOLUTION}, MC_CHECK_STATES,
                     rng.randrange(2**32))
    return config, {}


def run_sweep3(api, cfg, pinned) -> PassOutcome:
    out = PassOutcome()
    mode = api.kernel.CdfMode.CORRECTED
    m = cfg.channel.n_users
    grid = api.boundary.simplex_grid(m, cfg.mu.resolution, cfg.mu.mu_min)
    points = api.boundary.sweep(cfg.channel, grid, api.cli._solver_settings(cfg, mode),
                                rate_tol=cfg.outer_abs_tol, tail_eps=cfg.tail_epsilon)
    header = (["mode"] + [f"mu_{i + 1}" for i in range(m)]
              + [f"lambda_{i + 1}" for i in range(m)] + [f"R_{i + 1}" for i in range(m)]
              + [f"Pach_{i + 1}" for i in range(m)] + ["quad_err", "solver_iters", "status"])
    rows = []
    for point in points:
        label = "point mu=(" + ", ".join(f"{x:.4g}" for x in point.mu.mu) + ")"
        out.check(f"{label} is ok", point.ok)
        row = [mode.value, *point.mu.mu]
        if point.ok:
            worst = max(abs(r) for r in point.diagnostics.certified_residuals)
            out.check(f"{label} certified residual <= {RESIDUAL_GATE}", worst <= RESIDUAL_GATE)
            row += [*point.lam.lam, *point.rates, *point.achieved_powers,
                    max(point.diagnostics.rate_quad_errors),
                    point.diagnostics.solver_sweeps, "ok"]
        else:
            row += [math.nan] * (3 * m + 1) + [0, point.status.replace(",", ";")]
        rows.append(row)
    out.points = len(points)
    out.points_failed = sum(not p.ok for p in points)
    out.analytic_csv = _csv(api, header, rows)
    middle = points[len(points) // 2]
    if middle.ok:
        _mc_check(api, cfg, middle.mu, middle.lam, middle.rates, middle.achieved_powers,
                  cfg.mc_samples, out)
    return out


# --- compare2-mixed ---------------------------------------------------------

# The channel is fixed; the seed draws only the MC seed.  Inside a +-20% box
# around these parameters the cost of a pass jumps three- to eight-fold where
# a uniform edge lines up badly with the integration panels (e.g. high 2.06 or
# low 0.36), which would swamp every change this workload is meant to resolve.
MIXED_USERS = [
    _exp_user(1.0),
    {"fading": {"kind": "uniform", "low": 0.3, "high": 2.5}, "pbar": 1.0},
]


def make_compare2(seed: int):
    rng = random.Random(seed)
    return _config(MIXED_USERS, [0.7, 0.3], MC_CHECK_STATES, rng.randrange(2**32)), {}


def run_compare2(api, cfg, pinned) -> PassOutcome:
    out = PassOutcome()
    mu = cfg.mu
    report = api.boundary.compare_modes(
        cfg.channel, mu, api.cli._solver_settings(cfg, api.kernel.CdfMode.CORRECTED),
        rate_tol=cfg.outer_abs_tol, tail_eps=cfg.tail_epsilon)
    out.points = 1
    big = max(range(len(mu)), key=lambda i: mu[i])
    small = min(range(len(mu)), key=lambda i: mu[i])
    out.check(f"user {big + 1} (largest weight): corrected rate exceeds naive rate",
              report.rates_corrected[big] > report.rates_naive_same_lambda[big])
    out.check(f"user {small + 1} (smallest weight): corrected and naive rates agree "
              f"within {SAME_RATE_GATE}",
              abs(report.rates_corrected[small] - report.rates_naive_same_lambda[small])
              <= SAME_RATE_GATE)
    rows = [[i + 1, report.rates_corrected[i], report.rates_naive_same_lambda[i],
             report.same_lambda_gap_abs[i], report.same_lambda_gap_rel[i],
             report.rates_naive_end_to_end[i], report.end_to_end_gap_abs[i],
             report.end_to_end_gap_rel[i]] for i in range(cfg.channel.n_users)]
    out.analytic_csv = _csv(api, ["user", "rate_corrected", "rate_naive_same_lambda",
                             "same_lambda_gap_abs", "same_lambda_gap_rel",
                             "rate_naive_end_to_end", "end_to_end_gap_abs",
                             "end_to_end_gap_rel"], rows)
    _mc_check(api, cfg, mu, report.lam_corrected, report.rates_corrected,
              cfg.channel.pbars, cfg.mc_samples, out)
    return out


# --- mc2-exp ----------------------------------------------------------------

MC_STATES = 1_000_000
PRICE_RANGE = (0.15, 0.4)


def make_mc2(seed: int):
    rng = random.Random(seed)
    users = [_exp_user(_jittered(rng, 1.0)) for _ in range(2)]
    config = _config(users, [0.7, 0.3], MC_STATES, rng.randrange(2**32))
    return config, {"lam": [rng.uniform(*PRICE_RANGE) for _ in range(2)]}


def run_mc2(api, cfg, pinned) -> PassOutcome:
    out = PassOutcome()
    mode = api.kernel.CdfMode.CORRECTED
    mu = cfg.mu
    lam = api.kernel.LambdaVector(tuple(pinned["lam"]))
    rates = api.boundary.rate_point(mu, lam, cfg.channel, mode, cfg.outer_abs_tol,
                                    cfg.tail_epsilon)
    powers = tuple(api.solver.achieved_power(i, mu, lam, cfg.channel, mode,
                                             cfg.outer_abs_tol, cfg.tail_epsilon)
                   for i in range(cfg.channel.n_users))
    out.analytic_csv = _csv(api, ["user", "lambda", "rate", "power"],
                            [[i + 1, lam[i], rates[i], powers[i]]
                             for i in range(cfg.channel.n_users)])
    _mc_check(api, cfg, mu, lam, rates, powers, cfg.mc_samples, out)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    make: object      # seed -> (config dict, pinned inputs)
    run_pass: object  # (api, RunConfig, pinned) -> PassOutcome


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep3-exp", make_sweep3, run_sweep3),
        Workload("compare2-mixed", make_compare2, run_compare2),
        Workload("mc2-exp", make_mc2, run_mc2),
    )
}
