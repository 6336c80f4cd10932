"""Capacity-region boundary points: solve prices, integrate rates, sweep the simplex.

A boundary point for a weight vector mu is produced by solving the power
prices first and then integrating each user's rate kernel over the
interference level.  Rates are in nats (natural log); divide by ln 2 for
bits.  ``compare_modes`` quantifies how far the naive negative-argument
treatment falls below the corrected one, both at a shared price vector and
end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernel import (
    CdfMode,
    ChannelConfig,
    LambdaVector,
    RateAwardVector,
    DEFAULT_OUTER_TOL,
    DEFAULT_TAIL_EPS,
    outer_truncation,
    rate_integrand,
)
from .quadrature import (
    IntegrationRequest,
    QuadratureError,
    dyadic_panel_edges,
    integrate_or_raise,
)
from .solver import SolverError, SolverSettings, solve_lambda

__all__ = [
    "BoundaryPoint",
    "PointDiagnostics",
    "ModeComparison",
    "rate_point",
    "simplex_grid",
    "sweep",
    "compare_modes",
]


@dataclass(frozen=True)
class PointDiagnostics:
    rate_quad_errors: tuple
    solver_sweeps: int
    solver_power_evals: int
    certified_residuals: tuple


@dataclass(frozen=True)
class BoundaryPoint:
    mu: RateAwardVector
    lam: LambdaVector | None
    rates: tuple | None
    achieved_powers: tuple | None
    mode: CdfMode
    diagnostics: PointDiagnostics | None
    status: str = "ok"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _rate_point_detailed(mu, lam, channel, mode, tol, tail_eps):
    rates = []
    errors = []
    inner_tol = tol / 10.0
    for i in range(channel.n_users):
        z_top = outer_truncation(i, mu, lam, channel, tail_eps)
        if z_top <= 0.0:
            rates.append(0.0)
            errors.append(0.0)
            continue

        def integrand(z, i=i):
            return rate_integrand(i, z, mu, lam, channel, mode, inner_tol, tail_eps)

        req = IntegrationRequest(integrand, 0.0, z_top, abs_tol=tol,
                                 breakpoints=tuple(dyadic_panel_edges(0.0, z_top)),
                                 vectorized=True)
        result = integrate_or_raise(req)
        rates.append(max(result.value, 0.0))
        errors.append(result.error_estimate)
    return tuple(rates), tuple(errors)


def rate_point(mu, lam, channel: ChannelConfig,
               mode: CdfMode = CdfMode.CORRECTED,
               tol: float = DEFAULT_OUTER_TOL,
               tail_eps: float = DEFAULT_TAIL_EPS) -> tuple:
    """Per-user boundary rates (nats) at the given weights and prices."""
    rates, _ = _rate_point_detailed(mu, lam, channel, mode, tol, tail_eps)
    return rates


def simplex_grid(n_users: int, resolution: int, mu_min: float = 1e-3) -> list:
    """Uniform lattice of weight vectors strictly inside the simplex.

    Lattice points are k/resolution with every integer k_i >= 1, so each
    weight is at least 1/resolution; the mu_min margin must not exceed that.
    Points come out in lexicographic order, which keeps simplex neighbors
    adjacent for warm starting.
    """
    if resolution < n_users:
        raise ValueError("resolution must be at least the user count")
    if 1.0 / resolution < mu_min:
        raise ValueError("grid resolution puts weights below the mu_min margin")

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first, *rest)

    return [
        RateAwardVector(tuple(k / resolution for k in combo))
        for combo in compositions(resolution, n_users)
    ]


def sweep(channel: ChannelConfig, mu_grid, settings: SolverSettings | None = None,
          rate_tol: float = DEFAULT_OUTER_TOL,
          tail_eps: float = DEFAULT_TAIL_EPS) -> list:
    """Boundary points for every weight vector in the grid, warm-starting prices.

    Per-point failures are recorded in the returned point's status and do not
    stop the sweep.  ``mu_grid`` is a sequence of RateAwardVector (see
    :func:`simplex_grid`).
    """
    if settings is None:
        settings = SolverSettings()
    points: list[BoundaryPoint] = []
    solved: list[tuple[np.ndarray, LambdaVector]] = []
    for mu in mu_grid:
        if not isinstance(mu, RateAwardVector):
            mu = RateAwardVector(tuple(mu))
        warm = None
        if solved:
            target = mu.as_array()
            nearest = min(solved, key=lambda item: float(np.sum((item[0] - target) ** 2)))
            warm = nearest[1]
        try:
            solution = solve_lambda(mu, channel, settings, initial_lambda=warm)
            rates, errors = _rate_point_detailed(mu, solution.lam, channel,
                                                 settings.mode, rate_tol, tail_eps)
        except (SolverError, QuadratureError) as exc:
            points.append(BoundaryPoint(mu, None, None, None, settings.mode,
                                        None, status=f"error: {exc}"))
            continue
        solved.append((mu.as_array(), solution.lam))
        diag = PointDiagnostics(
            rate_quad_errors=errors,
            solver_sweeps=solution.sweeps,
            solver_power_evals=solution.power_evals,
            certified_residuals=solution.certified_residuals,
        )
        points.append(BoundaryPoint(mu, solution.lam, rates, solution.achieved,
                                    settings.mode, diag))
    return points


@dataclass(frozen=True)
class ModeComparison:
    """Corrected-vs-naive gap report at one weight vector.

    Same-price gaps isolate the integrand distortion (prices solved in
    corrected mode, rates integrated in both); end-to-end gaps run the whole
    pipeline separately per mode.
    """

    mu: RateAwardVector
    lam_corrected: LambdaVector
    rates_corrected: tuple
    rates_naive_same_lambda: tuple
    lam_naive: LambdaVector
    rates_naive_end_to_end: tuple
    same_lambda_gap_abs: tuple
    same_lambda_gap_rel: tuple
    end_to_end_gap_abs: tuple
    end_to_end_gap_rel: tuple


def compare_modes(channel: ChannelConfig, mu, settings: SolverSettings | None = None,
                  rate_tol: float = DEFAULT_OUTER_TOL,
                  tail_eps: float = DEFAULT_TAIL_EPS) -> ModeComparison:
    """Quantify the distortion of the naive negative-argument treatment."""
    if settings is None:
        settings = SolverSettings()
    if not isinstance(mu, RateAwardVector):
        mu = RateAwardVector(tuple(mu))

    corrected = solve_lambda(mu, channel,
                             replace(settings, mode=CdfMode.CORRECTED))
    rates_corr = rate_point(mu, corrected.lam, channel, CdfMode.CORRECTED,
                            rate_tol, tail_eps)
    rates_naive_same = rate_point(mu, corrected.lam, channel, CdfMode.NAIVE_ZERO,
                                  rate_tol, tail_eps)
    naive = solve_lambda(mu, channel, replace(settings, mode=CdfMode.NAIVE_ZERO),
                         initial_lambda=corrected.lam)
    rates_naive_end = rate_point(mu, naive.lam, channel, CdfMode.NAIVE_ZERO,
                                 rate_tol, tail_eps)

    def gaps(reference, other):
        gap_abs = tuple(r - o for r, o in zip(reference, other))
        gap_rel = tuple(g / r if r != 0.0 else (0.0 if g == 0.0 else math.inf)
                        for g, r in zip(gap_abs, reference))
        return gap_abs, gap_rel

    same_abs, same_rel = gaps(rates_corr, rates_naive_same)
    end_abs, end_rel = gaps(rates_corr, rates_naive_end)
    return ModeComparison(
        mu=mu,
        lam_corrected=corrected.lam,
        rates_corrected=rates_corr,
        rates_naive_same_lambda=rates_naive_same,
        lam_naive=naive.lam,
        rates_naive_end_to_end=rates_naive_end,
        same_lambda_gap_abs=same_abs,
        same_lambda_gap_rel=same_rel,
        end_to_end_gap_abs=end_abs,
        end_to_end_gap_rel=end_rel,
    )
