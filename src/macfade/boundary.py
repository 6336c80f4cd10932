"""Capacity-region boundary points: solve prices, integrate rates, sweep the simplex.

A boundary point for a weight vector mu is produced by solving the power
prices first and then integrating each user's rate kernel over the
interference level.  Rates are in nats (natural log); divide by ln 2 for
bits.  ``compare_modes`` quantifies how far the naive negative-argument
treatment falls below the corrected one, both at a shared price vector and
end to end.
"""

from __future__ import annotations

import itertools
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
    is_int,
    outer_request,
    rate_integrand,
)
from .quadrature import QuadratureError, integrate_or_raise
from .solver import SolverError, SolverResult, SolverSettings, solve_lambda

__all__ = [
    "BoundaryPoint",
    "PointDiagnostics",
    "ModeComparison",
    "rate_point",
    "simplex_grid",
    "sweep",
    "compare_modes",
]

DEFAULT_MU_MIN = 1e-3  # smallest weight a simplex grid may hold


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
    rates, errors = [0.0] * channel.n_users, [0.0] * channel.n_users
    for i in range(channel.n_users):
        req = outer_request(rate_integrand, i, mu, lam, channel, mode, tol, tail_eps)
        if req is not None:
            result = integrate_or_raise(req)
            rates[i], errors[i] = float(result.values[0]), float(result.error_estimates[0])
    return tuple(rates), tuple(errors)


def rate_point(mu, lam, channel: ChannelConfig,
               mode: CdfMode = CdfMode.CORRECTED,
               tol: float = DEFAULT_OUTER_TOL,
               tail_eps: float = DEFAULT_TAIL_EPS) -> tuple:
    """Per-user boundary rates (nats) at the given weights and prices."""
    rates, _ = _rate_point_detailed(mu, lam, channel, mode, tol, tail_eps)
    return rates


def check_grid(n_users: int, resolution: int, mu_min: float) -> None:
    """Raise ``ValueError``, led by the argument's name, unless ``n_users`` and ``resolution``
    are integers (not bools), 1 <= n_users <= resolution, and ``mu_min`` is in (0, 1/resolution]."""
    if not is_int(n_users) or n_users < 1:
        raise ValueError(f"n_users must be a positive integer, not {n_users!r}")
    if not is_int(resolution) or resolution < n_users:
        raise ValueError(f"resolution must be an integer >= n_users = {n_users}, not {resolution!r}")
    if (isinstance(mu_min, bool) or not isinstance(mu_min, (int, float))
            or not 0.0 < mu_min <= 1.0 / resolution):
        raise ValueError(f"mu_min must be a number in (0, 1/resolution], not {mu_min!r}")


def simplex_grid(n_users: int, resolution: int, mu_min: float = DEFAULT_MU_MIN) -> list:
    """Uniform lattice of weight vectors strictly inside the simplex.

    Lattice points are k/resolution with every integer k_i >= 1, so each
    weight is at least 1/resolution; the mu_min margin must not exceed that.
    Points come out in lexicographic order, which keeps simplex neighbors
    adjacent for warm starting.
    """
    check_grid(n_users, resolution, mu_min)
    # stars and bars: the k_i are the gaps between n_users - 1 cuts in 1..resolution-1
    return [
        RateAwardVector(tuple((b - a) / resolution
                              for a, b in zip((0, *cuts), (*cuts, resolution))))
        for cuts in itertools.combinations(range(1, resolution), n_users - 1)
    ]


def sweep(channel: ChannelConfig, mu_grid, settings: SolverSettings | None = None,
          rate_tol: float | None = None, tail_eps: float | None = None) -> list:
    """Boundary points for every weight vector in the grid, warm-starting prices.

    Each point after the first starts from the nearest solved point's final
    Jacobian (re-measured only as :func:`solve_lambda` says) and its prices
    scaled user by user by mu_new / mu_old, keeping each own threshold put.
    Per-point failures are recorded in the returned point's status and do not
    stop the sweep.  ``mu_grid`` is a sequence of weight vectors (see
    :func:`simplex_grid`), each checked against the channel.  Rates are
    integrated at ``rate_tol`` and ``tail_eps``, by default the settings'
    ``quad_abs_tol`` and ``tail_epsilon``, which the prices are solved at.
    """
    settings = SolverSettings() if settings is None else settings
    rate_tol = settings.quad_abs_tol if rate_tol is None else rate_tol
    tail_eps = settings.tail_epsilon if tail_eps is None else tail_eps
    points: list[BoundaryPoint] = []
    solved: list[tuple[np.ndarray, SolverResult]] = []
    for mu in map(channel.weights, mu_grid):
        target = mu.as_array()
        warm = jac = None
        if solved:
            near_mu, near = min(solved, key=lambda item: float(np.sum((item[0] - target) ** 2)))
            warm, jac = near.lam.as_array() * (target / near_mu), near.jacobian
        try:
            solution = solve_lambda(mu, channel, settings, initial_lambda=warm,
                                    initial_jacobian=jac)
            rates, errors = _rate_point_detailed(mu, solution.lam, channel,
                                                 settings.mode, rate_tol, tail_eps)
        except (SolverError, QuadratureError) as exc:
            points.append(BoundaryPoint(mu, None, None, None, settings.mode,
                                        None, status=f"error: {exc}"))
            continue
        solved.append((target, solution))
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
                  rate_tol: float | None = None,
                  tail_eps: float | None = None) -> ModeComparison:
    """Quantify the distortion of the naive negative-argument treatment.

    ``rate_tol`` and ``tail_eps`` default to the settings' values, as in
    :func:`sweep`.
    """
    settings = SolverSettings() if settings is None else settings
    rate_tol = settings.quad_abs_tol if rate_tol is None else rate_tol
    tail_eps = settings.tail_epsilon if tail_eps is None else tail_eps
    mu = channel.weights(mu)

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
