"""Power-price solver: find the price vector meeting the average power budgets.

The prices are the root of r(x) = (P(exp x) - pbar) / pbar in x = log lam,
where P is the vector of achieved average powers.  Achieved power falls in
the own price and rises in every rival's, and the root is unique (the
Tse-Hanly price structure), so one damped quasi-Newton solve finds it in
both CDF modes:

- a cold solve starts where each user alone would spend its budget (its
  one-user water-filling price); the Jacobian starts as the closed-form
  one-user own-price slopes, a diagonal floored at -1e-12, or as a
  neighbouring solve's final matrix, and takes a Broyden update after every
  step;
- each Newton step is scaled down so no price moves by more than a factor
  of 4; a user that spends nothing has a floored slope, so its step asks for
  far more than the cap and lowers its price by about the full factor;
- every step is halved along its price segment until the slope of the
  convex dual g(lam) = sum mu_i R_i - lam.(P - pbar) is at most half its
  start value; an uphill step, or a failed search on a carried or updated
  Jacobian, is retried once on the one-user slopes at the current prices,
  which cost no integral.

Every residual vector, the certificate's too, is one outer request with a
row per user (``kernel.outer_request``).  Convergence is declared only when
every residual, evaluated at the full quadrature tolerance, is inside 0.95
``power_rel_tol``; the returned solution is then re-verified at a tenfold
tighter tolerance.  Quadrature tolerances scale with each user's power
budget, floored at 1e-320, so tiny budgets stay resolvable.

Scaling every weight and price by one factor changes no achieved power
(Tse & Hanly, IEEE Trans. IT 44(7), 1998): the prices are homogeneous of
degree 1 in the weights, which ``boundary.sweep`` scales a neighbour's by,
and the log-price Jacobian ``SolverResult.jacobian`` is scale-free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .kernel import (
    CdfMode,
    ChannelConfig,
    LambdaVector,
    DEFAULT_OUTER_TOL,
    DEFAULT_TAIL_EPS,
    is_int,
    is_real,
    outer_request,
    power_integrand,
)
from .quadrature import BatchRequest, QuadratureError, integrate_or_raise, panel_edges

__all__ = ["SolverSettings", "SolverResult", "SolverError", "achieved_power", "solve_lambda"]

_MAX_LOG_STEP = float(np.log(4.0))  # largest move of one log price in one step
_MAX_HALVINGS = 10   # line-search halvings before the Jacobian is blamed
_START_TOL = 1e-2    # relative power residual after which the one-user start stops
_TOL_FLOOR = 1e-320  # least tolerance whose hundredth, a certificate's inner one, is positive


@dataclass(frozen=True)
class SolverSettings:
    power_rel_tol: float = 1e-6
    max_outer_iters: int = 200
    mode: CdfMode = CdfMode.CORRECTED
    quad_abs_tol: float = DEFAULT_OUTER_TOL
    tail_epsilon: float = DEFAULT_TAIL_EPS

    def __post_init__(self):
        for name in ("power_rel_tol", "quad_abs_tol", "tail_epsilon"):
            if not (is_real(value := getattr(self, name)) and abs(value) < np.inf):
                raise ValueError(f"{name} must be a finite number, not {value!r}")
        if not self.power_rel_tol > 0.0:
            raise ValueError("power_rel_tol must be positive")
        object.__setattr__(self, "mode", CdfMode(self.mode))
        if not is_int(self.max_outer_iters):
            raise ValueError(f"max_outer_iters must be an integer, not {self.max_outer_iters!r}")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")
        if not self.quad_abs_tol > 0.0:
            raise ValueError("quad_abs_tol must be positive")
        if self.quad_abs_tol < _TOL_FLOOR:
            raise ValueError(f"quad_abs_tol must be at least {_TOL_FLOOR!r}")
        if not 0.0 < self.tail_epsilon < 1.0:
            raise ValueError("tail_epsilon must be in (0, 1)")


@dataclass(frozen=True)
class SolverResult:
    lam: LambdaVector
    achieved: tuple
    certified_residuals: tuple  # re-verified with quadrature tightened tenfold
    sweeps: int                 # Newton steps taken
    power_evals: int
    jacobian: tuple | None = None  # final d r / d log(lam) as row tuples; None if unstepped


class SolverError(RuntimeError):
    """Newton steps exhausted or stalled; the message ends with the last prices and residuals."""


def achieved_power(i: int, mu, lam, channel: ChannelConfig,
                   mode: CdfMode = CdfMode.CORRECTED,
                   tol: float = DEFAULT_OUTER_TOL,
                   tail_eps: float = DEFAULT_TAIL_EPS) -> float:
    """Average transmit power user i spends under prices ``lam``.

    The one-row outer request of ``kernel.outer_request``: an adaptive
    integral over the interference level of the inner 1/h-weighted kernel,
    each outer rule batch handing all its levels to one batched inner
    integral.
    """
    req = outer_request(power_integrand, [i], mu, lam, channel, mode, tol, tail_eps)
    return float(integrate_or_raise(req).values[0])


def _own_slopes(mu, channel, x):
    """Each user's d r_i / d log lam_i alone at exp(x), -(w_i/pbar_i)(1 - F_i(sigma2/w_i)),
    floored at -1e-12: a user that spends nothing then asks to step down far past the cap."""
    level = mu.as_array() * np.exp(-x) / 2.0  # w_i = mu_i/(2 lam_i), the water level
    spend = [1.0 - u.fading._cdf_raw(channel.sigma2 / w) for u, w in zip(channel.users, level)]
    return np.minimum(-level * spend / channel.pbars, -1e-12)


def _one_user_start(mu, channel, settings):
    """Log prices at which each user alone spends its budget, E[(w - sigma2/h)^+] = pbar_i:
    Newton in log lam on ``_own_slopes``, one batch of a row per user split at its own kinks
    per iterate, from the 1%/99% gain-quantile guess or, if lower, mu_i/(2 pbar_i), as w is
    at least what a user alone spends.  That power is convex and falling in log lam, so no
    step up passes the root; steps down are capped at _MAX_LOG_STEP (the whole cap where
    the slope is 0).  A user stops after the step from a residual under _START_TOL."""
    dists, sigma2, pbar = [u.fading for u in channel.users], channel.sigma2, np.array(channel.pbars)
    q = np.array([(d.quantile(0.99), max(d.quantile(0.01), 1e-12)) for d in dists])
    x = np.log(mu.as_array() / (2.0 * np.maximum(sigma2 * np.sqrt(q[:, 0] * q[:, 1]), pbar)))
    tail = np.array([d.tail_point(settings.tail_epsilon) for d in dists])
    busy = np.arange(channel.n_users)
    while busy.size:
        # in u = h / tail every row's window ends at 1; an empty one is cut to its last 1e-9
        level, top = mu.as_array()[busy] * np.exp(-x[busy]) / 2.0, tail[busy]
        kinks = itertools.zip_longest(*(dists[i].kinks() for i in busy), fillvalue=np.inf)
        edges = panel_edges(np.minimum(sigma2 / level / top, 1.0 - 1e-9), 1.0,
                            [np.array(c) / top for c in kinks]) * top[:, None]
        power = integrate_or_raise(BatchRequest(lambda h, g: np.stack(
            [np.maximum(level[r] - sigma2 / hr, 0.0) * dists[busy[r]]._pdf_raw(hr)
             for r, hr in zip(g, h)]), edges, abs_tol=max(1e-3 * min(pbar), _TOL_FLOOR),
            row_name=lambda r: f"one-user start of user {busy[r]}")).values
        r = power / pbar[busy] - 1.0
        x[busy] += np.clip(r / -_own_slopes(mu, channel, x)[busy], -_MAX_LOG_STEP, _MAX_LOG_STEP)
        busy = busy[np.abs(r) > _START_TOL]
    return x


def solve_lambda(mu, channel: ChannelConfig,
                 settings: SolverSettings | None = None,
                 initial_lambda=None, initial_jacobian=None) -> SolverResult:
    """Solve for the unique price vector meeting every average power budget.

    Damped Newton-Broyden steps in log price, each accepted by one line
    search on the dual's slope; convergence is declared only when every
    residual is inside tolerance at full quadrature precision.  The start is
    ``initial_lambda`` or the one-user prices, and the Jacobian (m x m,
    d r / d log lam) ``initial_jacobian`` or the one-user slopes there, which
    ``SolverResult.jacobian`` returns unstepped only when exact, for one user;
    a failed search on any other matrix is retried on those slopes at the
    current prices.  A ``QuadratureError`` is raised again with the step,
    iterate and residuals, or in the start with the user's one-user start named.
    """
    settings = SolverSettings() if settings is None else settings
    mu = channel.weights(mu)
    m = channel.n_users
    try:
        jac = None if initial_jacobian is None else np.array(initial_jacobian, dtype=float)
    except (TypeError, ValueError):  # ragged or not numbers
        jac = np.empty(0)
    if jac is not None and (jac.shape != (m, m) or not np.isfinite(jac).all()):
        raise ValueError(f"initial_jacobian must be a finite {m} x {m} matrix")
    x = (_one_user_start(mu, channel, settings) if initial_lambda is None
         else np.log(channel.prices(initial_lambda).lam))
    # fresh: jac is the one-user slopes at x, so retrying on them is no use
    jac, fresh = (np.diag(_own_slopes(mu, channel, x)), True) if jac is None else (jac, False)
    pbar, evals = np.array(channel.pbars), 0
    # scaled to each budget, and floored so that a tiny budget's stays positive
    tols = np.maximum(settings.quad_abs_tol * np.minimum(1.0, pbar), _TOL_FLOOR)

    def powers(trial, tols):
        # Every user's power at exp(trial), a failure raised again with where the solve was.
        try:
            return integrate_or_raise(outer_request(power_integrand, range(m), mu, np.exp(trial),
                                                    channel, settings.mode, tols,
                                                    settings.tail_epsilon)).values
        except QuadratureError as exc:
            stage = (f"certificate pass after {steps} Newton steps" if certifying
                     else f"Newton step {steps + 1}")
            last = "none yet" if r is None else tuple(r.tolist())
            raise QuadratureError(f"{exc}; in the solver's {stage} from "
                                  f"lam={tuple(np.exp(x).tolist())}, last residuals {last}",
                                  exc.result) from exc

    def residuals(x):
        # Relative power residuals at prices exp(x).
        nonlocal evals
        evals += m
        return (powers(x, tols) - pbar) / pbar

    # accept 5% inside the contract tolerance so the post-hoc certificate at
    # tighter quadrature cannot be pushed past it by integration noise
    rtol = 0.95 * settings.power_rel_tol
    # read by ``powers`` to place a quadrature failure; r is None until the start is evaluated
    r, steps, certifying = None, 0, False
    r = residuals(x)
    while np.max(np.abs(r)) > rtol:
        if steps == settings.max_outer_iters:
            raise _stalled(f"no convergence in {steps} Newton steps", x, r)
        while True:
            x_new, r_new = _line_search(residuals, x, r, _capped_step(jac, r), pbar)
            if x_new is not None:
                break
            if fresh:
                raise _stalled(f"no descent step from a fresh Jacobian after "
                               f"{steps} Newton steps", x, r)
            jac, fresh = np.diag(_own_slopes(mu, channel, x)), True
        s = x_new - x
        jac += np.outer(r_new - r - jac @ s, s) / (s @ s)
        x, r, fresh = x_new, r_new, False
        steps += 1

    certifying = True
    achieved = powers(x, tols / 10.0)
    return SolverResult(
        lam=LambdaVector(tuple(np.exp(x))),
        achieved=tuple(achieved.tolist()),
        certified_residuals=tuple(((achieved - pbar) / pbar).tolist()),
        sweeps=steps,
        power_evals=evals,
        jacobian=(None if steps == 0 and initial_jacobian is None and m > 1
                  else tuple(map(tuple, jac.tolist()))),
    )


def _capped_step(jac, r):
    """Newton step scaled to the cap; all NaN when ``jac`` is singular."""
    step = _solve(jac.copy(), -r)
    if step is None:
        return np.full(len(r), np.nan)
    return step * (_MAX_LOG_STEP / max(_MAX_LOG_STEP, np.max(np.abs(step))))


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
    slope -d.(pbar r) is at most half that at lam, or (None, None), unevaluated if not downhill."""
    lam = np.exp(x)
    d = np.exp(x + step) - lam
    slope = -(d * pbar) @ r
    if not slope < 0.0:
        return None, None
    for k in range(_MAX_HALVINGS + 1):
        x_new = x + step if k == 0 else np.log(lam + d / 2.0 ** k)
        r_new = residuals(x_new)
        if -(d * pbar) @ r_new <= -0.5 * slope:
            return x_new, r_new
    return None, None
