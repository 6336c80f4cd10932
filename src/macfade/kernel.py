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

The gain integrand is also non-smooth at the fading laws' kinks (a uniform
law's edges, an empirical law's knots): at the user's own kinks, and at
each gain where a rival's argument x reaches one of that rival's kinks.
The inner kernels take one interference level z or an array of them.  An
array is integrated in one batched pass, a row per level with its own
window, panel edges (the dyadic seeding edges plus every case boundary,
own kink and rival-kink preimage that falls inside the window) and
adaptive refinement, so each entry equals the one-level call bit for bit.
``outer_request`` sets up the outer integrals: each rule batch of levels
goes to one such call, and the z-range splits, by the same edge rule, at
the levels where a user's positivity threshold or a case boundary
reaches a kink.

All functions here are pure; everything is safe to call from several threads at once.
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
    "win_probability",
    "rate_integrand",
    "power_integrand",
    "outer_request",
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
    """Receiver noise variance plus the per-user fading laws and power budgets.

    Every library call that takes a user index, weights or prices checks
    them here, with :meth:`user_index`, :meth:`weights` and :meth:`prices`.
    """

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

    def user_index(self, i) -> int:
        if not (is_int(i) and 0 <= i < self.n_users):
            raise ValueError(f"user index must be an integer in [0, {self.n_users}), not {i!r}")
        return int(i)

    def weights(self, mu) -> "RateAwardVector":
        """``mu`` checked as this channel's weight vector, built from a sequence if need be."""
        return self._vector(RateAwardVector, mu)

    def prices(self, lam) -> "LambdaVector":
        """``lam`` checked as this channel's price vector, built from a sequence if need be."""
        return self._vector(LambdaVector, lam)

    def _vector(self, kind, values):
        vector = values if isinstance(values, kind) else kind(tuple(values))
        if len(vector) != self.n_users:
            raise ValueError(f"{kind._field} has {len(vector)} entries for {self.n_users} users")
        return vector


def is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy integer or float, and not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


class _Vector:
    """Tuple plumbing shared by the weight and price vectors.

    A subclass is a frozen dataclass with one tuple field, named by
    ``_field``, and a ``_check`` that rejects out-of-range entries.
    """

    _field = ""

    def __post_init__(self):
        values = tuple(getattr(self, self._field))
        for x in values:
            if not is_real(x):
                raise ValueError(f"{self._field} entries must be numbers, not {x!r}")
        values = tuple(map(float, values))
        if not values:
            raise ValueError(f"{self._field} must be nonempty")
        self._check(values)
        object.__setattr__(self, self._field, values)
        object.__setattr__(self, "_values", values)

    def __len__(self):
        return len(self._values)

    def __getitem__(self, i):
        return self._values[i]

    def as_array(self) -> np.ndarray:
        return np.asarray(self._values, dtype=float)


@dataclass(frozen=True)
class RateAwardVector(_Vector):
    """Simplex weights picking the boundary point: mu_i in (0, 1], sum = 1."""

    mu: tuple
    _field = "mu"

    @staticmethod
    def _check(mu):
        if any(not (0.0 < x <= 1.0) for x in mu):
            raise ValueError("every mu_i must lie in (0, 1]")
        if abs(math.fsum(mu) - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"mu must sum to 1 within {SIMPLEX_TOL}")


@dataclass(frozen=True)
class LambdaVector(_Vector):
    """Per-user power prices (utility per unit transmit power), all positive."""

    lam: tuple
    _field = "lam"

    @staticmethod
    def _check(lam):
        if any(not (np.isfinite(x) and x > 0.0) for x in lam):
            raise ValueError("every power price must be positive and finite")


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


def _inner_integral(i, z, mu, lam, channel, mode, tol, tail_eps, quantity):
    """Common inner h-integral for the win probability and the power kernel.

    ``z`` is one interference level or an array of them; all levels share
    one batched integral with a row per level whose window is not empty,
    each refined on its own.  ``quantity`` names the rows in error messages,
    and ``"power"`` adds the transmit-power weight 1/h.  Returns a float for
    a scalar ``z``, else an array shaped like ``z``.
    """
    i, mode = channel.user_index(i), CdfMode(mode)
    mu_arr, lam_arr = channel.weights(mu).as_array(), channel.prices(lam).as_array()
    sigma2 = channel.sigma2
    dist_i = channel.users[i].fading
    z_arr = np.asarray(z, dtype=float)
    zs = z_arr.ravel()
    if not np.all(zs >= 0.0):  # refuses NaN too; +inf is a level no gain wins at
        raise ValueError(f"interference level z must be nonnegative, not {z!r}")
    lower = 2.0 * lam_arr[i] * (sigma2 + zs) / mu_arr[i]
    upper = dist_i.tail_point(tail_eps)
    out = np.zeros(zs.shape)
    live = np.flatnonzero(~(upper <= lower))
    if live.size:
        z_live = zs[live]
        a = sigma2 + z_live
        rivals = [k for k in range(channel.n_users) if k != i]
        rival_dists = [channel.users[k].fading for k in rivals]
        cuts = [2.0 * lam_arr[i] * a / (mu_arr[i] - mu_arr[k])
                for k in rivals if mu_arr[k] < mu_arr[i]]
        cuts += [np.full(a.shape, c) for c in dist_i.kinks()]
        for k, dist in zip(rivals, rival_dists):
            for c in dist.kinks():
                # the gain where rival k's argument reaches c, if it ever does
                den = 2.0 * lam_arr[k] * a - c * (mu_arr[k] - mu_arr[i])
                pos = den > 0.0
                cuts.append(np.where(pos, 2.0 * c * lam_arr[i] * a / np.where(pos, den, 1.0), np.inf))
        pdf = dist_i._pdf_raw
        density = (lambda h: pdf(h) / h) if quantity == "power" else pdf

        def integrand(h, rows):
            z_h = z_live[rows, None]
            value = density(h)
            for k, dist in zip(rivals, rival_dists):
                arg = _clipped_argument(i, k, h, z_h, mu_arr, lam_arr, sigma2, mode)
                value = value * dist._cdf_raw(arg)
            return value

        req = BatchRequest(
            integrand,
            panel_edges(lower[live], upper, cuts),
            abs_tol=tol,
            row_name=lambda r: f"{quantity} of user {i} at z={float(z_live[r])!r}",
        )
        result = integrate_or_raise(req)
        out[live] = result.values
    return float(out[0]) if z_arr.ndim == 0 else out.reshape(z_arr.shape)


def win_probability(i: int, z, mu, lam, channel: ChannelConfig,
                    mode: CdfMode = CdfMode.CORRECTED,
                    tol: float = DEFAULT_INNER_TOL,
                    tail_eps: float = DEFAULT_TAIL_EPS):
    """Probability that user i wins the bidding at interference level z.

    Integrates f_i(h) times the product of treated rival CDF factors from the
    positivity threshold upward, splitting panels at every rival's case
    boundary, at user i's own kinks and at each gain where a rival's CDF
    argument reaches one of that rival's kinks.  Truncation is at the
    1 - tail_eps quantile of user i's own gain, which bounds the discarded
    tail because the rival factors never exceed 1.  ``z`` may be a float or
    an array of levels (array result); ``tol`` and the default evaluation
    budget of a :class:`BatchRequest` apply to each level on its own.
    """
    return _inner_integral(i, z, mu, lam, channel, mode, tol, tail_eps, "win probability")


def rate_integrand(i: int, z, mu, lam, channel: ChannelConfig,
                   mode: CdfMode = CdfMode.CORRECTED,
                   tol: float = DEFAULT_INNER_TOL,
                   tail_eps: float = DEFAULT_TAIL_EPS):
    """Win probability weighted by the rate-per-received-power factor 1/(2(sigma2+z))."""
    p = _inner_integral(i, z, mu, lam, channel, mode, tol, tail_eps, "rate")
    return p / (2.0 * (channel.sigma2 + z))


def power_integrand(i: int, z, mu, lam, channel: ChannelConfig,
                    mode: CdfMode = CdfMode.CORRECTED,
                    tol: float = DEFAULT_INNER_TOL,
                    tail_eps: float = DEFAULT_TAIL_EPS):
    """Same inner integral as the win probability with the transmit-power weight 1/h."""
    return _inner_integral(i, z, mu, lam, channel, mode, tol, tail_eps, "power")


def outer_request(inner, i: int, mu, lam, channel: ChannelConfig, mode: CdfMode,
                  tol: float, tail_eps: float) -> BatchRequest | None:
    """User i's outer integral of the inner kernel ``inner`` over the interference level.

    A one-row request whose integrand hands each rule batch of levels to
    ``inner``, ``rate_integrand`` or ``power_integrand``, which runs at
    tol/10 so the composition error stays within the outer budget ``tol``.
    The window ends where user i's positivity threshold passes the
    1 - tail_eps quantile of its gain: the win probability at level z is
    bounded by the chance that the own gain clears the threshold, so the
    rest of the outer integrand is negligible.  Returns None when that
    window is empty.
    """
    i, mode = channel.user_index(i), CdfMode(mode)
    mu, lam = channel.weights(mu), channel.prices(lam)
    tail_gain = channel.users[i].fading.tail_point(tail_eps)
    z_top = mu[i] * tail_gain / (2.0 * lam[i]) - channel.sigma2
    if z_top <= 0.0:
        return None
    if math.isinf(z_top):
        raise ValueError(f"integration window must be finite; user {i}'s price "
                         f"{lam[i]!r} puts its end at inf")
    inner_tol = tol / 10.0

    def integrand(z, rows):
        return inner(i, z, mu, lam, channel, mode, inner_tol, tail_eps)

    # Besides the dyadic seeding edges, split at the levels where a kink of
    # the gain integrand meets a moving cut of the inner integral, so that
    # the inner integral is smooth in z on every panel:
    # - a user's positivity threshold reaches one of its own kinks,
    #   z = mu_j*c/(2*lam_j) - sigma2.  For j = i the kink leaves user i's
    #   window; for a rival, user i's threshold meets the preimage of the
    #   rival's kink there.
    # - a case boundary of user i reaches one of user i's own kinks,
    #   z = c*(mu_i - mu_k)/(2*lam_i) - sigma2.
    # There are as many of these as kinks.  The crossings of rival-kink
    # preimages with own kinks (own kinks times rival kinks of them) are left
    # to adaptive refinement: with empirical laws of a hundred knots each
    # they cost more panels than the bisections they save.
    levels = [mu[j] * c / (2.0 * lam[j])
              for j in range(channel.n_users) for c in channel.users[j].fading.kinks()]
    levels += [c * (mu[i] - mu[k]) / (2.0 * lam[i])
               for k in range(channel.n_users) if mu[k] < mu[i]
               for c in channel.users[i].fading.kinks()]
    edges = panel_edges(np.zeros(1), z_top, np.reshape(levels, (-1, 1)) - channel.sigma2)
    quantity = inner.__name__.removesuffix("_integrand")
    return BatchRequest(integrand, edges, abs_tol=tol, row_name=lambda r: (
        f"outer {quantity} integral of user {i} over z at lam={lam.lam!r}"))
