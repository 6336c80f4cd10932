"""Integrand kernel for the rate and power integrals of the capacity boundary.

The probability that user i is the winning bidder at interference level z is
an integral over its own gain h of f_i(h) times, for every rival k, the
chance that the rival's marginal utility falls below user i's.  Each rival
factor is the rival's gain CDF evaluated at

    x = 2*lam_k*h*(sigma2+z) / (2*lam_i*(sigma2+z) + (mu_k-mu_i)*h)

whose denominator changes sign at a finite gain h* whenever mu_k < mu_i.
Past that point x is negative, which only means the rival loses with
certainty, so the CDF factor must be 1.  ``CdfMode.CORRECTED`` applies that
clipping; ``CdfMode.NAIVE_ZERO`` instead maps negative arguments to CDF
value 0 (the plausible-looking but wrong treatment) so the distortion can be
quantified side by side.

The inner kernels take one interference level z or an array of them.  An
array is integrated in one batched pass, a row per level with its own
window, panel edges (the dyadic seeding edges plus every rival's case
boundary that falls inside the window) and adaptive refinement, so each
entry equals the one-level call bit for bit.  Outer integrals hand each
rule batch of levels to one such call.

All functions here are pure; everything is safe to evaluate concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .fading import FadingDistribution
from .quadrature import BatchRequest, integrate_or_raise, panel_edges

__all__ = [
    "CdfMode",
    "ChannelConfig",
    "UserSpec",
    "RateAwardVector",
    "LambdaVector",
    "clip_star",
    "cross_argument",
    "case_boundary",
    "cdf_factor",
    "win_probability",
    "rate_integrand",
    "power_integrand",
    "inner_lower_limit",
    "outer_truncation",
    "DEFAULT_INNER_TOL",
    "DEFAULT_OUTER_TOL",
    "DEFAULT_TAIL_EPS",
]

DEFAULT_OUTER_TOL = 1e-8
DEFAULT_INNER_TOL = 1e-9
DEFAULT_TAIL_EPS = 1e-12
SIMPLEX_TOL = 1e-12


class CdfMode(enum.Enum):
    """How rival-CDF arguments that fall below zero are treated."""

    CORRECTED = "corrected"
    NAIVE_ZERO = "naive"


@dataclass(frozen=True)
class UserSpec:
    """One transmitter: its fading law and long-term average power budget."""

    fading: FadingDistribution
    pbar: float

    def __post_init__(self):
        if not isinstance(self.fading, FadingDistribution):
            raise TypeError("fading must be a FadingDistribution")
        if not (np.isfinite(self.pbar) and self.pbar > 0.0):
            raise ValueError("average power constraint must be positive and finite")


@dataclass(frozen=True)
class ChannelConfig:
    """Receiver noise variance plus the per-user fading laws and power budgets."""

    sigma2: float
    users: tuple

    def __post_init__(self):
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise ValueError("noise variance sigma2 must be positive and finite")
        users = tuple(self.users)
        if not users:
            raise ValueError("need at least one user")
        for u in users:
            if not isinstance(u, UserSpec):
                raise TypeError("users must be UserSpec instances")
        object.__setattr__(self, "users", users)

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def pbars(self) -> tuple:
        return tuple(u.pbar for u in self.users)


@dataclass(frozen=True)
class RateAwardVector:
    """Simplex weights picking the boundary point: mu_i in (0, 1], sum = 1."""

    mu: tuple

    def __post_init__(self):
        mu = tuple(float(x) for x in self.mu)
        if not mu:
            raise ValueError("mu must be nonempty")
        if any(not (0.0 < x <= 1.0) for x in mu):
            raise ValueError("every mu_i must lie in (0, 1]")
        if abs(math.fsum(mu) - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"mu must sum to 1 within {SIMPLEX_TOL}")
        object.__setattr__(self, "mu", mu)

    def __len__(self):
        return len(self.mu)

    def __getitem__(self, i):
        return self.mu[i]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.mu, dtype=float)


@dataclass(frozen=True)
class LambdaVector:
    """Per-user power prices (utility per unit transmit power), all positive."""

    lam: tuple

    def __post_init__(self):
        lam = tuple(float(x) for x in self.lam)
        if not lam:
            raise ValueError("lam must be nonempty")
        if any(not (np.isfinite(x) and x > 0.0) for x in lam):
            raise ValueError("every power price must be positive and finite")
        object.__setattr__(self, "lam", lam)

    def __len__(self):
        return len(self.lam)

    def __getitem__(self, i):
        return self.lam[i]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.lam, dtype=float)


def _coeffs(v) -> np.ndarray:
    if isinstance(v, RateAwardVector):
        return v.as_array()
    if isinstance(v, LambdaVector):
        return v.as_array()
    return np.asarray(v, dtype=float)


def clip_star(x: float) -> float:
    """Clip a CDF argument: identity for x >= 0, +inf for x < 0.

    The +inf sentinel makes the downstream CDF evaluate to 1 (the rival gain
    is surely below an unreachable threshold read the other way around).
    Idempotent by construction.
    """
    return x if x >= 0.0 else math.inf


def cross_argument(i: int, k: int, h: float, z: float, mu, lam, sigma2: float) -> float:
    """Argument fed to rival k's CDF when user i holds gain h at level z.

    Positive exactly when the denominator is positive (the numerator always
    is for h > 0).  An exact denominator zero returns +inf, the limit from
    below; the event has measure zero and the clipped factor is continuous
    through it.
    """
    mu = _coeffs(mu)
    lam = _coeffs(lam)
    a = sigma2 + z
    num = 2.0 * lam[k] * h * a
    den = 2.0 * lam[i] * a + (mu[k] - mu[i]) * h
    if den == 0.0:
        return math.inf
    return num / den


def case_boundary(i: int, k: int, z: float, mu, lam, sigma2: float):
    """Gain at which the cross-argument denominator for rival k hits zero.

    Exists only when mu_k < mu_i; beyond it the rival factor is pinned at 1
    in corrected mode (and wrongly at 0 in naive mode).  Returns None when
    the denominator stays positive for every gain.
    """
    mu = _coeffs(mu)
    lam = _coeffs(lam)
    if mu[k] >= mu[i]:
        return None
    return 2.0 * lam[i] * (sigma2 + z) / (mu[i] - mu[k])


def _clipped_argument(i, k, h_arr, z, mu_arr, lam_arr, sigma2, mode):
    """Vectorized cross-argument with mode-specific treatment of negatives.

    Returns nonnegative values (possibly +inf) so distribution CDFs never see
    a negative input: corrected mode sends negatives to +inf (CDF value 1),
    naive mode sends them to 0 (CDF value 0, the reproduced bug).  An exact
    denominator zero goes to +inf in both modes (limit from below).
    """
    a = sigma2 + z
    num = 2.0 * lam_arr[k] * h_arr * a
    den = 2.0 * lam_arr[i] * a + (mu_arr[k] - mu_arr[i]) * h_arr
    pos = den > 0.0
    x = num / np.where(pos, den, 1.0)
    if mode is CdfMode.CORRECTED:
        return np.where(pos, x, np.inf)
    return np.where(pos, x, np.where(den == 0.0, np.inf, 0.0))


def cdf_factor(i: int, k: int, h, z: float, mu, lam, channel: ChannelConfig,
               mode: CdfMode = CdfMode.CORRECTED):
    """Rival k's CDF factor at user-i gain h: F_k applied to the treated argument."""
    mu_arr = _coeffs(mu)
    lam_arr = _coeffs(lam)
    h_arr = np.asarray(h, dtype=float)
    arg = _clipped_argument(i, k, h_arr, z, mu_arr, lam_arr, channel.sigma2, mode)
    out = channel.users[k].fading.cdf(arg)
    return float(out) if np.ndim(h) == 0 else out


def inner_lower_limit(i: int, z: float, mu, lam, sigma2: float) -> float:
    """Smallest own gain at which user i's marginal utility is positive."""
    mu = _coeffs(mu)
    lam = _coeffs(lam)
    return 2.0 * lam[i] * (sigma2 + z) / mu[i]


def _inner_integral(i, z, mu_arr, lam_arr, channel, mode, tol, tail_eps,
                    power_weight, max_evals, quantity):
    """Common inner h-integral for the win probability and the power kernel.

    ``z`` is one interference level or an array of them; all levels share
    one batched integral with a row per level whose window is not empty,
    each refined on its own.  Returns a float for a scalar ``z``, else an
    array shaped like ``z``.
    """
    sigma2 = channel.sigma2
    dist_i = channel.users[i].fading
    z_arr = np.asarray(z, dtype=float)
    zs = z_arr.ravel()
    lower = 2.0 * lam_arr[i] * (sigma2 + zs) / mu_arr[i]
    upper = dist_i.tail_point(tail_eps)
    out = np.zeros(zs.shape)
    live = np.flatnonzero(~(upper <= lower))
    if live.size:
        z_live = zs[live]
        rivals = [k for k in range(channel.n_users) if k != i]
        cuts = [2.0 * lam_arr[i] * (sigma2 + z_live) / (mu_arr[i] - mu_arr[k])
                for k in rivals if mu_arr[k] < mu_arr[i]]
        rival_dists = [channel.users[k].fading for k in rivals]

        def integrand(h, rows):
            z_h = z_live[rows, None]
            value = dist_i._pdf_raw(h)
            if power_weight:
                value = value / h
            for k, dist in zip(rivals, rival_dists):
                arg = _clipped_argument(i, k, h, z_h, mu_arr, lam_arr, sigma2, mode)
                value = value * dist._cdf_raw(arg)
            return value

        req = BatchRequest(
            integrand,
            panel_edges(lower[live], upper, cuts),
            abs_tol=tol,
            max_evals=max_evals,
            row_name=lambda r: f"{quantity} of user {i} at z={float(z_live[r])!r}",
        )
        result = integrate_or_raise(req)
        out[live] = np.maximum(result.values, 0.0)
    return float(out[0]) if z_arr.ndim == 0 else out.reshape(z_arr.shape)


def win_probability(i: int, z, mu, lam, channel: ChannelConfig,
                    mode: CdfMode = CdfMode.CORRECTED,
                    tol: float = DEFAULT_INNER_TOL,
                    tail_eps: float = DEFAULT_TAIL_EPS,
                    max_evals: int = 100_000):
    """Probability that user i wins the bidding at interference level z.

    Integrates f_i(h) times the product of treated rival CDF factors from the
    positivity threshold upward, splitting panels at every rival's case
    boundary.  Truncation is at the 1 - tail_eps quantile of user i's own
    gain, which bounds the discarded tail because the rival factors never
    exceed 1.  ``z`` may be a float or an array of levels (array result);
    ``tol`` and ``max_evals`` apply to each level on its own.
    """
    return _inner_integral(i, z, _coeffs(mu), _coeffs(lam), channel, mode, tol, tail_eps,
                           power_weight=False, max_evals=max_evals,
                           quantity="win probability")


def rate_integrand(i: int, z, mu, lam, channel: ChannelConfig,
                   mode: CdfMode = CdfMode.CORRECTED,
                   tol: float = DEFAULT_INNER_TOL,
                   tail_eps: float = DEFAULT_TAIL_EPS,
                   max_evals: int = 100_000):
    """Win probability weighted by the rate-per-received-power factor 1/(2(sigma2+z))."""
    p = _inner_integral(i, z, _coeffs(mu), _coeffs(lam), channel, mode, tol, tail_eps,
                        power_weight=False, max_evals=max_evals, quantity="rate")
    return p / (2.0 * (channel.sigma2 + z))


def power_integrand(i: int, z, mu, lam, channel: ChannelConfig,
                    mode: CdfMode = CdfMode.CORRECTED,
                    tol: float = DEFAULT_INNER_TOL,
                    tail_eps: float = DEFAULT_TAIL_EPS,
                    max_evals: int = 100_000):
    """Same inner integral as the win probability with the transmit-power weight 1/h."""
    return _inner_integral(i, z, _coeffs(mu), _coeffs(lam), channel, mode, tol, tail_eps,
                           power_weight=True, max_evals=max_evals, quantity="power")


def outer_truncation(i: int, mu, lam, channel: ChannelConfig,
                     tail_eps: float = DEFAULT_TAIL_EPS) -> float:
    """Interference level beyond which user i's win probability is below tail_eps.

    The win probability at level z is bounded by the chance that the own gain
    clears the positivity threshold, so once that threshold passes the
    1 - tail_eps gain quantile the remaining outer integrand is negligible.
    Returns 0.0 when the whole integral is already below the tail bound.
    """
    mu = _coeffs(mu)
    lam = _coeffs(lam)
    tail_gain = channel.users[i].fading.tail_point(tail_eps)
    z = mu[i] * tail_gain / (2.0 * lam[i]) - channel.sigma2
    return max(z, 0.0)
