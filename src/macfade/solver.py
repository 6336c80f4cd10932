"""Power-price solver: find the price vector meeting the average power budgets.

The achieved average transmit power of user i is strictly decreasing in its
own price lam_i (a higher price raises the positivity threshold and shrinks
every rival factor it enters), so each coordinate is solved by bracketed
bisection on a log scale, and the coordinates are swept Gauss-Seidel style
until a full sweep leaves every residual inside tolerance.  The fixed point
is unique, so the sweep order cannot change the answer, only the path.

Early sweeps solve each coordinate only as tightly as the cross-coupling
still moves it (inexact Gauss-Seidel); brackets start from the previous
iterate and expand geometrically on a miss.  Quadrature tolerances scale
with each user's power budget so tiny budgets stay resolvable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import (
    CdfMode,
    ChannelConfig,
    LambdaVector,
    RateAwardVector,
    DEFAULT_OUTER_TOL,
    DEFAULT_TAIL_EPS,
    outer_truncation,
    power_integrand,
)
from .quadrature import IntegrationRequest, dyadic_panel_edges, integrate_or_raise

__all__ = ["SolverSettings", "SolverResult", "SolverError", "achieved_power", "solve_lambda"]


@dataclass(frozen=True)
class SolverSettings:
    power_rel_tol: float = 1e-6
    max_outer_iters: int = 200
    bracket_growth: float = 4.0
    mode: CdfMode = CdfMode.CORRECTED
    quad_abs_tol: float = DEFAULT_OUTER_TOL
    tail_epsilon: float = DEFAULT_TAIL_EPS
    max_bisect_iters: int = 200

    def __post_init__(self):
        if not self.power_rel_tol > 0.0:
            raise ValueError("power_rel_tol must be positive")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")
        if not self.bracket_growth > 1.0:
            raise ValueError("bracket_growth must exceed 1")


@dataclass(frozen=True)
class SolverResult:
    lam: LambdaVector
    achieved: tuple
    residuals: tuple            # relative residuals at the working tolerance
    certified_residuals: tuple  # re-verified with quadrature tightened tenfold
    sweeps: int
    power_evals: int


class SolverError(RuntimeError):
    """Sweeps exhausted; carries the last iterate and its residuals."""

    def __init__(self, message, lam=None, residuals=None):
        super().__init__(message)
        self.lam = lam
        self.residuals = residuals


def achieved_power(i: int, mu, lam, channel: ChannelConfig,
                   mode: CdfMode = CdfMode.CORRECTED,
                   tol: float = DEFAULT_OUTER_TOL,
                   tail_eps: float = DEFAULT_TAIL_EPS) -> float:
    """Average transmit power user i spends under prices ``lam``.

    Outer adaptive integral over the interference level of the inner
    1/h-weighted kernel; the inner integrals run at tol/10 so the composition
    error stays within the outer budget.  Each outer rule batch hands all
    its levels to one batched inner integral.
    """
    z_top = outer_truncation(i, mu, lam, channel, tail_eps)
    if z_top <= 0.0:
        return 0.0
    inner_tol = tol / 10.0

    def integrand(z):
        return power_integrand(i, z, mu, lam, channel, mode, inner_tol, tail_eps)

    req = IntegrationRequest(integrand, 0.0, z_top, abs_tol=tol,
                             breakpoints=tuple(dyadic_panel_edges(0.0, z_top)),
                             vectorized=True)
    result = integrate_or_raise(req)
    return max(result.value, 0.0)


def _quad_tol(settings: SolverSettings, pbar: float) -> float:
    # Absolute integration tolerance scaled to the power budget being matched.
    return settings.quad_abs_tol * min(1.0, pbar)


def _initial_bracket(i, mu, channel):
    """Cold-start price bracket around the single-user water-filling scale."""
    dist = channel.users[i].fading
    q99 = dist.quantile(0.99)
    q01 = max(dist.quantile(0.01), 1e-12)
    lo = mu[i] / (2.0 * channel.sigma2 * q99) * 1e-3
    hi = mu[i] * 1e3 / (2.0 * channel.sigma2 * q01)
    return lo, hi


class _Tally:
    __slots__ = ("evals",)

    def __init__(self):
        self.evals = 0


def _solve_coordinate(i, mu, lam_work, channel, settings, width, known_res,
                      abs_tol, quad_tol, tally):
    """Bisect lam_work[i] until |achieved - pbar| <= abs_tol.

    ``known_res`` is the residual at the current price, so the bracket only
    needs to grow on the root's side of it.  Returns the accepted residual
    and leaves lam_work[i] at the accepted price.
    """
    pbar = channel.users[i].pbar
    growth = settings.bracket_growth

    def residual_at(price):
        lam_work[i] = price
        tally.evals += 1
        lam = LambdaVector(tuple(lam_work))
        return achieved_power(i, mu, lam, channel, settings.mode,
                              quad_tol, settings.tail_epsilon) - pbar

    current = lam_work[i]
    # Achieved power decreases in the price: residual > 0 puts the root above.
    if known_res > 0.0:
        lo, r_lo = current, known_res
        hi = current * width
        r_hi = residual_at(hi)
        if abs(r_hi) <= abs_tol:
            return r_hi
        for _ in range(600):
            if r_hi < 0.0:
                break
            lo, r_lo = hi, r_hi
            hi *= growth
            r_hi = residual_at(hi)
            if abs(r_hi) <= abs_tol:
                return r_hi
        else:
            raise SolverError(f"could not bracket the price of user {i} from above")
    else:
        hi, r_hi = current, known_res
        lo = current / width
        r_lo = residual_at(lo)
        if abs(r_lo) <= abs_tol:
            return r_lo
        for _ in range(600):
            if r_lo > 0.0:
                break
            hi, r_hi = lo, r_lo
            lo /= growth
            r_lo = residual_at(lo)
            if abs(r_lo) <= abs_tol:
                return r_lo
        else:
            raise SolverError(f"could not bracket the price of user {i} from below")

    for _ in range(settings.max_bisect_iters):
        mid = float(np.sqrt(lo * hi))
        if not lo < mid < hi:
            break
        r_mid = residual_at(mid)
        if abs(r_mid) <= abs_tol:
            return r_mid
        if r_mid > 0.0:
            lo = mid
        else:
            hi = mid
    raise SolverError(
        f"bisection for user {i} stalled: bracket [{lo:.6e}, {hi:.6e}] cannot "
        f"meet the power tolerance; quadrature tolerance may be too loose"
    )


def solve_lambda(mu, channel: ChannelConfig,
                 settings: SolverSettings | None = None,
                 initial_lambda=None) -> SolverResult:
    """Solve for the unique price vector meeting every average power budget.

    Gauss-Seidel sweeps of per-coordinate bisection; convergence is declared
    only when a whole sweep finds every residual already inside tolerance.
    Pass ``initial_lambda`` to warm-start from a neighboring solution.
    """
    if settings is None:
        settings = SolverSettings()
    if not isinstance(mu, RateAwardVector):
        mu = RateAwardVector(tuple(mu))
    m = channel.n_users
    if len(mu) != m:
        raise ValueError("mu length must match the user count")

    if initial_lambda is not None:
        values = initial_lambda.lam if isinstance(initial_lambda, LambdaVector) else initial_lambda
        lam_work = [float(x) for x in values]
        if len(lam_work) != m or any(x <= 0.0 for x in lam_work):
            raise ValueError("initial_lambda must be a positive vector of matching length")
    else:
        lam_work = []
        for i in range(m):
            lo, hi = _initial_bracket(i, mu, channel)
            lam_work.append(float(np.sqrt(lo * hi)))

    tally = _Tally()
    growth = settings.bracket_growth
    # accept 5% inside the contract tolerance so the post-hoc certificate at
    # tighter quadrature cannot be pushed past it by integration noise
    rtol = 0.95 * settings.power_rel_tol
    residuals = [np.inf] * m
    widths = [growth] * m   # per-coordinate bracket factor, adapted to movement
    sweep_rtol = max(rtol, 1e-2)  # inexact early sweeps, tightened by coupling decay
    for sweep in range(1, settings.max_outer_iters + 1):
        dirty = False
        max_move = 0.0
        for i in range(m):
            pbar = channel.users[i].pbar
            lam = LambdaVector(tuple(lam_work))
            tally.evals += 1
            res = achieved_power(i, mu, lam, channel, settings.mode,
                                 _quad_tol(settings, pbar),
                                 settings.tail_epsilon) - pbar
            residuals[i] = res / pbar
            if abs(res) <= rtol * pbar:
                continue
            dirty = True
            previous = lam_work[i]
            # Coarse sweeps tolerate proportionally coarser quadrature; the
            # convergence-deciding residuals above always use full precision.
            quad_relax = min(1e4, max(1.0, 0.01 * sweep_rtol / rtol))
            accepted = _solve_coordinate(i, mu, lam_work, channel, settings,
                                         widths[i], res, sweep_rtol * pbar,
                                         _quad_tol(settings, pbar) * quad_relax,
                                         tally)
            residuals[i] = accepted / pbar
            move = abs(lam_work[i] - previous) / previous
            max_move = max(max_move, move)
            widths[i] = min(growth, max(1.0 + 8.0 * move,
                                        1.0 + 100.0 * settings.power_rel_tol))
        if not dirty:
            lam = LambdaVector(tuple(lam_work))
            achieved = []
            certified = []
            for i in range(m):
                pbar = channel.users[i].pbar
                value = achieved_power(i, mu, lam, channel, settings.mode,
                                       _quad_tol(settings, pbar) / 10.0,
                                       settings.tail_epsilon)
                achieved.append(value)
                certified.append((value - pbar) / pbar)
            return SolverResult(
                lam=lam,
                achieved=tuple(achieved),
                residuals=tuple(residuals),
                certified_residuals=tuple(certified),
                sweeps=sweep,
                power_evals=tally.evals,
            )
        sweep_rtol = max(rtol, min(sweep_rtol, 0.25 * max_move))
    raise SolverError(
        f"no convergence in {settings.max_outer_iters} sweeps; "
        f"last residuals {tuple(residuals)}",
        lam=LambdaVector(tuple(lam_work)),
        residuals=tuple(residuals),
    )
