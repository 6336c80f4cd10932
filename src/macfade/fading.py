"""Per-user fading laws: channel power gain distributions on [0, inf).

Every distribution exposes exact pdf/cdf/quantile evaluation; draws are
quantiles of a caller-owned uniform stream, so a fixed random stream yields
identical draws on every platform.  The gain h is the channel POWER gain: it
divides the power price and multiplies received power, so the 1/h factor in
the transmit-power accounting is literal.  A uniform law is the two-knot
piecewise-linear law, so one implementation serves both kinked laws.

Instances are immutable and safe to share across threads; no module state.
"""

from __future__ import annotations

import csv
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FadingDistribution",
    "ExponentialGain",
    "UniformGain",
    "PiecewiseLinearEmpirical",
]


def _nonnegative(h):
    arr = np.asarray(h, dtype=float)
    if not np.all(arr >= 0.0):
        raise ValueError("gain must be nonnegative; clip CDF arguments before evaluating")
    return arr


def _probability(p):
    arr = np.asarray(p, dtype=float)
    if not np.all((arr >= 0.0) & (arr < 1.0)):
        raise ValueError("p must lie in [0, 1); use tail_point() for tail truncation")
    return arr


def _like(template, result):
    return float(result) if np.ndim(template) == 0 else result


class FadingDistribution(ABC):
    """Law of a nonnegative channel power gain with continuous density."""

    def pdf(self, h):
        """Density at gain h >= 0 (scalar or array)."""
        return _like(h, self._pdf_raw(_nonnegative(h)))

    def cdf(self, h):
        """Probability that the gain is at most h, for h >= 0 (+inf maps to 1)."""
        return _like(h, self._cdf_raw(_nonnegative(h)))

    def quantile(self, p):
        """Smallest gain whose cdf reaches p, for p in [0, 1); p=0 gives the support infimum."""
        return _like(p, self._quantile_raw(_probability(p)))

    # Unvalidated array evaluators for integration and sampling hot paths
    # whose callers already guarantee arguments in the domain.
    @abstractmethod
    def _pdf_raw(self, arr: np.ndarray) -> np.ndarray:
        """Density at every entry of a nonnegative array."""

    @abstractmethod
    def _cdf_raw(self, arr: np.ndarray) -> np.ndarray:
        """Cdf at every entry of a nonnegative array (+inf maps to 1)."""

    @abstractmethod
    def _quantile_raw(self, arr: np.ndarray) -> np.ndarray:
        """Quantile at every entry of an array of probabilities in [0, 1)."""

    @abstractmethod
    def _tail_raw(self, eps: float):
        """Tail point for a tail mass eps in (0, 1)."""

    def kinks(self) -> tuple:
        """Positive gains where the pdf or cdf is not smooth, in ascending order.

        Integrals over the gain split at these points so that every panel
        sees a smooth integrand.
        """
        return ()

    def tail_point(self, eps: float) -> float:
        """Smallest gain beyond which the remaining tail mass is at most eps."""
        if not 0.0 < eps < 1.0:
            raise ValueError("eps must be in (0, 1)")
        return float(self._tail_raw(eps))


@dataclass(frozen=True)
class ExponentialGain(FadingDistribution):
    """Exponential power gain (Rayleigh amplitude fading) with mean ``mean_gain``."""

    mean_gain: float

    def __post_init__(self):
        if not (np.isfinite(self.mean_gain) and self.mean_gain > 0.0):
            raise ValueError("mean_gain must be positive and finite")

    def _pdf_raw(self, arr):
        return np.exp(-arr / self.mean_gain) / self.mean_gain

    def _cdf_raw(self, arr):
        return -np.expm1(-arr / self.mean_gain)

    def _quantile_raw(self, arr):
        out = np.negative(arr, out=np.empty_like(arr))  # one buffer, the bits of -m*log1p(-p)
        return np.multiply(np.log1p(out, out=out), -self.mean_gain, out=out)

    def _tail_raw(self, eps):
        return -self.mean_gain * np.log(eps)


@dataclass(frozen=True)
class PiecewiseLinearEmpirical(FadingDistribution):
    """Empirical gain law given as knots (h_j, F_j) of a piecewise-linear cdf.

    Knot gains must be strictly increasing and nonnegative; knot cdf values
    must start at 0, end at 1 and be nondecreasing.  The pdf is the
    piecewise-constant slope (right-continuous at knots, zero outside the
    knot span), which keeps the density continuous in the sense needed by
    the capacity integrals: no point masses.
    """

    h_knots: tuple
    cdf_knots: tuple

    def __post_init__(self):
        h = np.asarray(self.h_knots, dtype=float)
        F = np.asarray(self.cdf_knots, dtype=float)
        if h.ndim != 1 or h.shape != F.shape or h.size < 2:
            raise ValueError("need at least two (h, F) knots of equal length")
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(F))):
            raise ValueError("knots must be finite")
        if h[0] < 0.0 or np.any(np.diff(h) <= 0.0):
            raise ValueError("knot gains must be nonnegative and strictly increasing")
        if F[0] != 0.0 or F[-1] != 1.0 or np.any(np.diff(F) < 0.0):
            raise ValueError("knot cdf values must run nondecreasing from 0 to 1")
        object.__setattr__(self, "h_knots", tuple(float(x) for x in h))
        object.__setattr__(self, "cdf_knots", tuple(float(x) for x in F))
        object.__setattr__(self, "_h", h)
        object.__setattr__(self, "_F", F)
        dF, dh = np.diff(F), np.diff(h)
        # segment tables: the density padded with a 0 on each side, and each
        # segment's start, rise (1 on a plateau, where no p > 0 lands) and width
        object.__setattr__(self, "_density", np.concatenate(([0.0], dF / dh, [0.0])))
        object.__setattr__(self, "_segments", (h[:-1], F[:-1], np.where(dF > 0.0, dF, 1.0), dh))

    @classmethod
    def from_csv(cls, path) -> "PiecewiseLinearEmpirical":
        """Load knots from a two-column CSV with header ``h,F``."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header[:2]] != ["h", "F"]:
                raise ValueError(f"{path}: expected CSV header 'h,F'")
            rows = [row for row in reader if row and any(c.strip() for c in row)]
        if not rows:
            raise ValueError(f"{path}: no knot rows")
        try:
            h = tuple(float(row[0]) for row in rows)
            F = tuple(float(row[1]) for row in rows)
        except (IndexError, ValueError) as exc:
            raise ValueError(f"{path}: malformed knot row: {exc}") from exc
        return cls(h, F)

    def _pdf_raw(self, arr):
        return self._density[np.searchsorted(self._h, arr, side="right")]

    def _cdf_raw(self, arr):
        return np.interp(arr, self._h, self._F)

    def _quantile_raw(self, arr):
        # the first segment whose top cdf reaches p; p = 0 lands on h[0] + 0
        seg = np.searchsorted(self._F[1:], arr, side="left")
        h0, F0, dF, dh = (table[seg] for table in self._segments)
        return h0 + (arr - F0) / dF * dh

    def _tail_raw(self, eps):
        return self.h_knots[-1]

    def kinks(self) -> tuple:
        return tuple(h for h in self.h_knots if h > 0.0)


class UniformGain(PiecewiseLinearEmpirical):
    """Power gain uniform on [low, high] with 0 <= low < high: the two-knot law.

    Its repr rebuilds it; ``dataclasses.replace`` does not support it.
    """

    def __init__(self, low: float, high: float):
        if not (np.isfinite(low) and np.isfinite(high) and 0.0 <= low < high):
            raise ValueError("require 0 <= low < high, both finite")
        super().__init__((low, high), (0.0, 1.0))

    low = property(lambda self: self.h_knots[0])
    high = property(lambda self: self.h_knots[1])

    def __repr__(self):
        return f"UniformGain(low={self.low!r}, high={self.high!r})"

    def _quantile_raw(self, arr):
        # The two-knot table lookup's bits without its searchsorted on random
        # keys: 5 against 74 us per 4,096 Monte Carlo draws (Xeon, numpy 2.4).
        out = np.multiply(arr, self.high - self.low, out=np.empty_like(arr))
        return np.add(out, self.low, out=out)
