"""Independent numerical oracles used only by the tests.

Most of this is deliberately written from scratch on plain numpy so the
values it produces share no code path with the package: composite Simpson
integration, the exponential integral E1 via series / continued fraction,
and the single-user water-filling baseline (power, rate, and price solve)
it implies for an exponential gain law.

The exception is the reference for the batched integrator:
``reference_integrate``, a plain one-integral adaptive Gauss-Kronrod (7, 15)
loop, and ``per_z_inner_integral``, the inner gain integral built on it one
interference level at a time (a scalar closure and scalar breakpoint
merging).  They reuse the package's rule constants and integrand pieces on
purpose: the batched rows must match them bit for bit, so they must do the
same arithmetic in the same order, only one integral at a time.
"""

import heapq
import math

import numpy as np

from macfade.kernel import _clipped_argument
from macfade.quadrature import (
    _EPS,
    _GAUSS_IDX,
    _NODES,
    _WEIGHTS_G,
    _WEIGHTS_K,
    IntegrationResult,
    dyadic_panel_edges,
)


def simpson(f, a, b, n=20001):
    """Composite Simpson rule on [a, b] with an odd node count."""
    if b <= a:
        return 0.0
    if n % 2 == 0:
        n += 1
    xs = np.linspace(a, b, n)
    ys = np.asarray(f(xs), dtype=float)
    h = (b - a) / (n - 1)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))


_EULER_GAMMA = 0.57721566490153286060651209008240243


def exp_integral_e1(x: float) -> float:
    """E1(x) = integral of exp(-t)/t from x to infinity, for x > 0.

    Power series for small arguments, modified Lentz continued fraction for
    large ones (the crossover at 1 keeps both sides well conditioned).
    """
    if x <= 0.0:
        raise ValueError("E1 requires x > 0")
    if x <= 1.0:
        total = -_EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 200):
            term *= -x / k
            total -= term / k
            if abs(term / k) < 1e-18 * abs(total):
                break
        return total
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x)


def exponential_pdf(h, mean):
    return np.exp(-np.asarray(h) / mean) / mean


def wf_power(lam: float, sigma2: float, mean_gain: float) -> float:
    """Average transmit power E[(1/(2 lam) - sigma2/h)^+] for h ~ Exp(mean_gain)."""
    threshold = 2.0 * lam * sigma2
    upper = threshold + 45.0 * mean_gain

    def integrand(h):
        return (1.0 / (2.0 * lam) - sigma2 / h) * exponential_pdf(h, mean_gain)

    return simpson(integrand, threshold, upper)


def wf_rate(lam: float, sigma2: float, mean_gain: float) -> float:
    """Ergodic rate E[0.5 ln(h / (2 lam sigma2))^+] in nats for h ~ Exp(mean_gain)."""
    threshold = 2.0 * lam * sigma2
    upper = threshold + 45.0 * mean_gain

    def integrand(h):
        return 0.5 * np.log(np.asarray(h) / threshold) * exponential_pdf(h, mean_gain)

    return simpson(integrand, threshold, upper)


def wf_solve_lambda(pbar: float, sigma2: float, mean_gain: float) -> float:
    """Price meeting the average power budget, by plain bisection on a log scale."""
    lo, hi = 1e-8, 1e8
    assert wf_power(lo, sigma2, mean_gain) > pbar > wf_power(hi, sigma2, mean_gain)
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if wf_power(mid, sigma2, mean_gain) > pbar:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def _reference_rule(f, lows, highs):
    """Gauss-Kronrod 15-point values and error estimates on a 1-D batch of panels."""
    lows_arr = np.asarray(lows, dtype=float)
    highs_arr = np.asarray(highs, dtype=float)
    centers = 0.5 * (lows_arr + highs_arr)
    halfwidths = 0.5 * (highs_arr - lows_arr)
    xs = centers[:, None] + halfwidths[:, None] * _NODES
    fv = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    resk = halfwidths * (fv @ _WEIGHTS_K)
    resabs = halfwidths * (np.abs(fv) @ _WEIGHTS_K)
    assert np.all(np.isfinite(resabs)), "non-finite integrand value"
    resg = halfwidths * (fv[:, _GAUSS_IDX] @ _WEIGHTS_G)
    means = resk / (highs_arr - lows_arr)
    resasc = halfwidths * (np.abs(fv - means[:, None]) @ _WEIGHTS_K)
    err = np.abs(resk - resg)
    safe_asc = np.where(resasc > 0.0, resasc, 1.0)
    sharpened = resasc * np.minimum(1.0, (200.0 * err / safe_asc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), sharpened, err)
    err = np.maximum(err, 50.0 * _EPS * resabs)
    return resk, err


def reference_integrate(f, lower, upper, breakpoints=(), abs_tol=1e-9, max_evals=100_000):
    """One integral of the vectorized ``f``, refined on its own.

    Pops the panel with the largest error (the leftmost on ties), bisects
    it, charges 30 evaluations, and stops at the tolerance or the budget;
    then sums the panels left to right.
    """
    edges = [float(lower), *[float(b) for b in breakpoints], float(upper)]
    heap: list = []  # (-err, a, b, value)
    done: list = []  # (a, b, value, err) panels at float resolution
    values, errs = _reference_rule(f, edges[:-1], edges[1:])
    evals = 15 * (len(edges) - 1)
    for a, b, value, err in zip(edges, edges[1:], values, errs):
        heapq.heappush(heap, (-float(err), a, b, float(value)))
    total_err = sum(-item[0] for item in heap)

    while heap and total_err > abs_tol and evals + 30 <= max_evals:
        neg_err, a, b, value = heapq.heappop(heap)
        err = -neg_err
        mid = 0.5 * (a + b)
        if not a < mid < b:
            done.append((a, b, value, err))
            continue
        halves, half_errs = _reference_rule(f, (a, mid), (mid, b))
        evals += 30
        heapq.heappush(heap, (-float(half_errs[0]), a, mid, float(halves[0])))
        heapq.heappush(heap, (-float(half_errs[1]), mid, b, float(halves[1])))
        total_err += float(half_errs[0]) + float(half_errs[1]) - err

    panels = done + [(a, b, value, -neg_err) for neg_err, a, b, value in heap]
    panels.sort(key=lambda p: p[0])
    value = 0.0
    error = 0.0
    for _, _, v, e in panels:
        value += v
        error += e
    return IntegrationResult(value, error, evals, error <= abs_tol)


def merge_edges(edges, lower: float, upper: float) -> list:
    """Sort candidate interior edges, dropping out-of-window and near-duplicate ones."""
    gap = 1e-12 * (upper - lower)
    out: list = []
    for b in sorted(edges):
        if not lower < b < upper:
            continue
        if out and b - out[-1] <= gap:
            continue
        if upper - b <= gap:
            continue
        out.append(b)
    return out


def per_z_inner_integral(i, z, mu_arr, lam_arr, channel, mode, tol, tail_eps,
                         power_weight, max_evals):
    """Inner h-integral at one interference level z, one request per level."""
    sigma2 = channel.sigma2
    dist_i = channel.users[i].fading
    lower = 2.0 * lam_arr[i] * (sigma2 + z) / mu_arr[i]
    upper = dist_i.tail_point(tail_eps)
    if upper <= lower:
        return 0.0
    rivals = [k for k in range(channel.n_users) if k != i]
    edges = dyadic_panel_edges(lower, upper)
    for k in rivals:
        if mu_arr[k] < mu_arr[i]:
            edges.append(2.0 * lam_arr[i] * (sigma2 + z) / (mu_arr[i] - mu_arr[k]))
    breakpoints = merge_edges(edges, lower, upper)

    rival_dists = [channel.users[k].fading for k in rivals]

    def integrand(h):
        value = dist_i._pdf_raw(h)
        if power_weight:
            value = value / h
        for k, dist in zip(rivals, rival_dists):
            arg = _clipped_argument(i, k, h, z, mu_arr, lam_arr, sigma2, mode)
            value = value * dist._cdf_raw(arg)
        return value

    result = reference_integrate(integrand, lower, upper, breakpoints, tol, max_evals)
    assert result.converged, (i, z)
    return max(result.value, 0.0)
