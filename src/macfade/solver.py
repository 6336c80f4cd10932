"""Power-price solver: find the price vector meeting the average power budgets.

The prices are the root of r(x) = (P(exp x) - pbar) / pbar in x = log lam,
where P is the vector of achieved average powers.  Achieved power falls in
the own price and rises in every rival's, and the root is unique (the
Tse-Hanly price structure), so one damped quasi-Newton solve finds it in
both CDF modes:

- the Jacobian starts as a forward difference (step 1e-4 in x, full
  quadrature tolerance) or as a neighbouring solve's final matrix, and
  takes a Broyden rank-one update after every accepted step;
- each step is capped so no price moves by more than ``bracket_growth``;
  a starved user, spending under 1% of its budget, has a zero or tiny
  Jacobian row and lowers its own price by the full factor, and the
  Jacobian is measured afresh once it spends again;
- every step, starved users' too, is halved along its price segment until
  the slope of the convex dual g(lam) = sum mu_i R_i - lam.(P - pbar) is at
  most half its start value; an uphill step, or a failed search on an
  updated or carried Jacobian, is retried once on a fresh forward difference.

Convergence is declared only when every residual, evaluated at the full
quadrature tolerance, is inside 0.95 ``power_rel_tol``; the returned
solution is then re-verified at a tenfold tighter tolerance.  Quadrature
tolerances scale with each user's power budget so tiny budgets stay
resolvable.

Scaling every weight and price by one factor changes no achieved power
(Tse & Hanly, IEEE Trans. IT 44(7), 1998): the prices are homogeneous of
degree 1 in the weights, which ``boundary.sweep`` scales a neighbour's by,
and the log-price Jacobian ``SolverResult.jacobian`` is scale-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import (
    CdfMode,
    ChannelConfig,
    LambdaVector,
    DEFAULT_OUTER_TOL,
    DEFAULT_TAIL_EPS,
    outer_request,
    power_integrand,
)
from .quadrature import QuadratureError, integrate_or_raise

__all__ = ["SolverSettings", "SolverResult", "SolverError", "achieved_power", "solve_lambda"]

_FD_STEP = 1e-4      # forward-difference step in log price
_MAX_HALVINGS = 10   # line-search halvings before the Jacobian is blamed
_STARVED = 1e-2      # share of its budget below which a user counts as spending 0


@dataclass(frozen=True)
class SolverSettings:
    power_rel_tol: float = 1e-6
    max_outer_iters: int = 200
    bracket_growth: float = 4.0
    mode: CdfMode = CdfMode.CORRECTED
    quad_abs_tol: float = DEFAULT_OUTER_TOL
    tail_epsilon: float = DEFAULT_TAIL_EPS

    def __post_init__(self):
        if not self.power_rel_tol > 0.0:
            raise ValueError("power_rel_tol must be positive")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")
        if not self.bracket_growth > 1.0:
            raise ValueError("bracket_growth must exceed 1")
        if not self.quad_abs_tol > 0.0:
            raise ValueError("quad_abs_tol must be positive")
        if not 0.0 < self.tail_epsilon < 1.0:
            raise ValueError("tail_epsilon must be in (0, 1)")


@dataclass(frozen=True)
class SolverResult:
    lam: LambdaVector
    achieved: tuple
    certified_residuals: tuple  # re-verified with quadrature tightened tenfold
    sweeps: int                 # Newton steps taken
    power_evals: int
    jacobian: tuple | None = None  # final d r / d log(lam) as row tuples; None if none was live


class SolverError(RuntimeError):
    """Newton steps exhausted or stalled; the message ends with the last prices and residuals."""


def achieved_power(i: int, mu, lam, channel: ChannelConfig,
                   mode: CdfMode = CdfMode.CORRECTED,
                   tol: float = DEFAULT_OUTER_TOL,
                   tail_eps: float = DEFAULT_TAIL_EPS) -> float:
    """Average transmit power user i spends under prices ``lam``.

    Outer adaptive integral over the interference level of the inner
    1/h-weighted kernel (see ``kernel.outer_request``).  Each outer rule
    batch hands all its levels to one batched inner integral.
    """
    req = outer_request(power_integrand, i, mu, lam, channel, mode, tol, tail_eps)
    return 0.0 if req is None else float(integrate_or_raise(req).values[0])


def _quad_tol(settings: SolverSettings, pbar: float) -> float:
    # Absolute integration tolerance scaled to the power budget being matched.
    return settings.quad_abs_tol * min(1.0, pbar)


def _cold_price(i, mu, channel):
    """Cold-start price: the geometric middle of the water-filling price scale."""
    dist = channel.users[i].fading
    q99 = dist.quantile(0.99)
    q01 = max(dist.quantile(0.01), 1e-12)
    return mu[i] / (2.0 * channel.sigma2 * float(np.sqrt(q99 * q01)))


def solve_lambda(mu, channel: ChannelConfig,
                 settings: SolverSettings | None = None,
                 initial_lambda=None, initial_jacobian=None) -> SolverResult:
    """Solve for the unique price vector meeting every average power budget.

    Damped Newton-Broyden steps in log price, each accepted by one line
    search on the dual's slope; convergence is declared only when every
    residual is inside tolerance at full quadrature precision.  Pass
    ``initial_lambda`` and ``initial_jacobian`` (m x m, d r / d log lam) to
    warm-start from a neighbour's solution; the forward difference is then
    taken only when a line search fails or a starved user revives.  A
    ``QuadratureError`` is raised again with the step, iterate and residuals.
    """
    settings = SolverSettings() if settings is None else settings
    mu = channel.weights(mu)
    m = channel.n_users
    lam0 = ([_cold_price(i, mu, channel) for i in range(m)] if initial_lambda is None
            else channel.prices(initial_lambda).lam)
    # measured lazily, and again whenever a starved user revives
    jac = None if initial_jacobian is None else np.array(initial_jacobian, dtype=float)
    if jac is not None and (jac.shape != (m, m) or not np.isfinite(jac).all()):
        raise ValueError(f"initial_jacobian must be a finite {m} x {m} matrix")

    pbar = [user.pbar for user in channel.users]
    evals = 0

    def power(i, lam, tol):
        # A quadrature failure is raised again with where the solve was.
        try:
            return achieved_power(i, mu, lam, channel, settings.mode, tol, settings.tail_epsilon)
        except QuadratureError as exc:
            stage = (f"certificate pass after {steps} Newton steps" if certifying
                     else f"Newton step {steps + 1}")
            last = "none yet" if r is None else tuple(r.tolist())
            raise QuadratureError(f"{exc}; in the solver's {stage} from "
                                  f"lam={tuple(np.exp(x).tolist())}, last residuals {last}",
                                  exc.result) from exc

    def residuals(x, users=range(m)):
        # Relative power residuals of ``users`` at prices exp(x); others read -1.
        nonlocal evals
        lam = LambdaVector(tuple(np.exp(x)))
        r = np.full(m, -1.0)
        for i in users:
            evals += 1
            r[i] = (power(i, lam, _quad_tol(settings, pbar[i])) - pbar[i]) / pbar[i]
        return r

    def fd_jacobian(x, r, live):
        # Only the live block is measured: a starved user's power is too small
        # to difference and barely moves a rival, so its row and column stay 0.
        users = np.flatnonzero(live).tolist()
        jac = np.zeros((m, m))
        for j in users:
            bumped = x.copy()
            bumped[j] += _FD_STEP
            jac[users, j] = (residuals(bumped, users)[users] - r[users]) / _FD_STEP
        return jac

    max_log_step = float(np.log(settings.bracket_growth))
    # accept 5% inside the contract tolerance so the post-hoc certificate at
    # tighter quadrature cannot be pushed past it by integration noise
    rtol = 0.95 * settings.power_rel_tol
    x = np.log(lam0)
    # read by ``power`` to place a quadrature failure; r is None until the start is evaluated
    r, steps, certifying = None, 0, False
    r = residuals(x)
    fresh = False  # jac is a forward difference with no Broyden update since
    while np.max(np.abs(r)) > rtol:
        if steps == settings.max_outer_iters:
            raise _stalled(f"no convergence in {steps} Newton steps", x, r)
        live = r > _STARVED - 1.0
        if jac is None:
            jac, fresh = fd_jacobian(x, r, live), True
        while True:
            step = _capped_step(jac, r, live, max_log_step)
            if step is not None:
                x_new, r_new = _line_search(residuals, x, r, step, pbar)
                if x_new is not None:
                    break
            if fresh:
                raise _stalled(f"no descent step from a fresh Jacobian after "
                               f"{steps} Newton steps", x, r)
            jac, fresh = fd_jacobian(x, r, live), True
        if (~live & (r_new > _STARVED - 1.0)).any():
            jac = None
        elif live.any():
            s = np.where(live, x_new - x, 0.0)
            jac += np.outer(np.where(live, r_new - r - jac @ s, 0.0), s) / (s @ s)
            fresh = False
        x, r = x_new, r_new
        steps += 1

    certifying = True
    lam = LambdaVector(tuple(np.exp(x)))
    achieved = [power(i, lam, _quad_tol(settings, pbar[i]) / 10.0) for i in range(m)]
    return SolverResult(
        lam=lam,
        achieved=tuple(achieved),
        certified_residuals=tuple((a - p) / p for a, p in zip(achieved, pbar)),
        sweeps=steps,
        power_evals=evals,
        jacobian=None if jac is None else tuple(map(tuple, jac.tolist())),
    )


def _capped_step(jac, r, live, max_log_step):
    """Newton step of the live users scaled to the cap, starved users down by
    the cap; None when the live block of ``jac`` is singular."""
    step = np.full(len(r), -max_log_step)
    if live.any():
        newton = _solve(jac[np.ix_(live, live)], -r[live])
        if newton is None:
            return None
        step[live] = newton * (max_log_step / max(max_log_step, np.max(np.abs(newton))))
    return step


def _solve(a, b):
    """x with a @ x = b by elimination with partial pivoting, overwriting a and b.

    None when a is singular.  ``numpy.linalg`` would load LAPACK for these
    per-user systems, adding about 0.4 MB to the peak memory of a process.
    """
    n = len(b)
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0.0:
            return None
        a[[k, p]], b[[k, p]] = a[[p, k]], b[[p, k]]
        factors = a[k + 1:, k] / a[k, k]
        a[k + 1:] -= np.outer(factors, a[k])
        b[k + 1:] -= factors * b[k]
    x = np.zeros(n)
    for k in reversed(range(n)):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x


def _stalled(reason, x, r) -> SolverError:
    return SolverError(f"{reason} at lam={tuple(np.exp(x).tolist())}; "
                       f"last residuals {tuple(r.tolist())}")


def _line_search(residuals, x, r, step, pbar):
    """First of lam + d, lam + d/2, ... (lam = exp(x), d = exp(x + step) - lam) whose dual
    slope -d.(pbar r) is at most half its size at lam, or (None, None), unevaluated if uphill."""
    lam = np.exp(x)
    d = np.exp(x + step) - lam
    slope = -(d * pbar) @ r
    if slope >= 0.0:
        return None, None
    for k in range(_MAX_HALVINGS + 1):
        x_new = x + step if k == 0 else np.log(lam + d / 2.0 ** k)
        r_new = residuals(x_new)
        if -(d * pbar) @ r_new <= -0.5 * slope:
            return x_new, r_new
    return None, None
