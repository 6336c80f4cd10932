"""Adaptive integration over truncated semi-infinite domains, many integrals per call.

A request holds one or more rows, each an integral of its own over a finite
window [lower, truncation_point] split at its own breakpoints.  Every row is
refined exactly as a lone integral would be: the panel with the largest
error estimate (the leftmost one on ties) is bisected with a nested
Gauss-Kronrod (7, 15) rule pair until the row's summed error drops below its
absolute tolerance (one per request or one per row) or the row has spent the
evaluation budget.  Rows advance in lockstep, so one integrand call evaluates
the rule batch of every row that still needs work, yet a row's result never
depends on the other rows.  Chopping the infinite tail is the caller's job:
pick the truncation point so the discarded mass is provably below tolerance
(distribution tail quantiles make this cheap and rigorous).

Panels are summed in ascending position order, so a given row always
produces bit-identical output no matter how the refinement work is scheduled.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BatchRequest",
    "BatchResult",
    "IntegrationResult",
    "QuadratureError",
    "integrate_or_raise",
]


class QuadratureError(RuntimeError):
    """Integration failed to converge (or hit a non-finite integrand value).

    Carries the best-effort ``IntegrationResult`` of the failing row in
    ``result`` when one is available so callers can report the achieved
    error estimate.
    """

    def __init__(self, message: str, result: "IntegrationResult | None" = None):
        super().__init__(message)
        self.result = result


# Gauss-Kronrod (7, 15) nodes and weights on [-1, 1].
_XGK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_WGK_CENTER = 0.209482141084727828012999174891714
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
])
_WG_CENTER = 0.417959183673469387755102040816327

_NODES = np.concatenate([-_XGK_HALF, [0.0], _XGK_HALF[::-1]])
_WEIGHTS_K = np.concatenate([_WGK_HALF, [_WGK_CENTER], _WGK_HALF[::-1]])
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WEIGHTS_G = np.array([
    _WG_HALF[0], _WG_HALF[1], _WG_HALF[2], _WG_CENTER,
    _WG_HALF[2], _WG_HALF[1], _WG_HALF[0],
])

_EPS = float(np.finfo(float).eps)
_EVALS_PER_RULE = 15


@dataclass(frozen=True)
class BatchRequest:
    """Many integrals of one integrand family, one per row.

    integrand  maps ``(x, rows)`` to integrand values: ``x`` is a 2-D float
               array of abscissae whose line g belongs to row ``rows[g]``;
               must return an array shaped like ``x``, finite on every window
    edges      (rows, n) array holding each row's lower limit, interior
               breakpoints and truncation point, strictly increasing, padded
               on the right with NaN where a row has fewer edges than n
    abs_tol    absolute error target of every row, or one per row (kept per row)
    max_evals  integrand-evaluation budget of each row
    row_name   maps a row index to the text naming that row in error messages
    """

    integrand: Callable
    edges: np.ndarray
    abs_tol: float = 1e-9
    max_evals: int = 100_000
    row_name: Callable | None = None

    def __post_init__(self):
        edges = np.array(self.edges, dtype=float)
        if edges.ndim != 2 or edges.shape[1] < 2:
            raise ValueError("edges must be a (rows, n >= 2) array")
        pad = np.isnan(edges)
        if (pad[:, :-1] > pad[:, 1:]).any():
            raise ValueError("NaN may only pad the right end of a row of edges")
        if pad[:, 1].any() or np.isinf(edges).any():
            raise ValueError("integration window must be finite; truncate the tail first")
        if (np.diff(edges, axis=1) <= 0.0).any():  # NaN padding compares False
            raise ValueError("edges must be strictly increasing")
        abs_tol = np.full(len(edges), self.abs_tol, dtype=float)  # a wrong count raises ValueError
        if not (abs_tol > 0.0).all():
            raise ValueError("abs_tol must be positive")
        if self.max_evals < _EVALS_PER_RULE:
            raise ValueError("max_evals must allow at least one rule application")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "abs_tol", abs_tol)
        object.__setattr__(self, "max_evals", int(self.max_evals))

    def prefix(self, row: int) -> str:
        """Error-message lead naming ``row``; empty when rows are unnamed."""
        return "" if self.row_name is None else f"{self.row_name(row)}: "


@dataclass(frozen=True)
class IntegrationResult:
    """The best estimate of one failed row, as ``QuadratureError.result``."""

    value: float
    error_estimate: float
    evals: int
    converged: bool


@dataclass(frozen=True)
class BatchResult:
    """Per-row values, error estimates and evaluation counts of converged rows."""

    values: np.ndarray
    error_estimates: np.ndarray
    row_evals: np.ndarray

    @property
    def evals(self) -> int:
        """Integrand evaluations summed over every row."""
        return int(self.row_evals.sum())


def _apply_rule_batch(f, lows, highs, rows):
    """Gauss-Kronrod 15-point values and error estimates on (groups, panels) arrays.

    Each of the ``len(rows)`` groups holds the same number of panels of one
    row; all groups share one integrand call, which keeps per-call overhead
    off the inner loops.  The arithmetic per panel is the standard
    embedded-rule estimate with QUADPACK-style sharpening and a roundoff
    floor.  Returns ``(values, errors, bad)``; ``bad`` maps each group that
    met a non-finite integrand value to the first such abscissa, and that
    group's values and errors are meaningless.

    The rule sums are BLAS matrix-vector products, whose rounding depends on
    the matrix shape and layout.  Stacking groups makes one product per
    group on exactly the (panels, 15) matrix that integrating the row on its
    own would use, which keeps every row bit-identical to its lone integral.
    """
    centers = 0.5 * (lows + highs)
    halfwidths = 0.5 * (highs - lows)
    xs = centers[..., None] + halfwidths[..., None] * _NODES
    lines = xs.reshape(len(rows), -1)
    fv = np.asarray(f(lines, rows), dtype=float)
    if fv.shape != lines.shape:
        raise QuadratureError("integrand returned a shape that does not match its input")
    fv = fv.reshape(xs.shape)
    resk = halfwidths * (fv @ _WEIGHTS_K)
    resabs = halfwidths * (np.abs(fv) @ _WEIGHTS_K)
    bad: dict = {}
    # non-finite integrand values cannot cancel out of resabs (weights > 0)
    if not np.isfinite(resabs).all():
        for group, panel in np.argwhere(~np.isfinite(resabs)).tolist():
            if group not in bad:
                bad[group] = float(xs[group, panel][~np.isfinite(fv[group, panel])][0])
        # zeros keep the other groups' arithmetic below free of inf and NaN
        broken = np.zeros(len(rows), dtype=bool)
        broken[list(bad)] = True
        fv = np.where(broken[:, None, None], 0.0, fv)
        resk = np.where(broken[:, None], 0.0, resk)
        resabs = np.where(broken[:, None], 0.0, resabs)
    # Gauss nodes laid out panel-minor, as a lone row's fv[:, _GAUSS_IDX] is
    gauss = np.ascontiguousarray(fv.transpose(0, 2, 1)[:, _GAUSS_IDX]).transpose(0, 2, 1)
    resg = halfwidths * (gauss @ _WEIGHTS_G)
    means = resk / (highs - lows)
    resasc = halfwidths * (np.abs(fv - means[..., None]) @ _WEIGHTS_K)
    err = np.abs(resk - resg)
    safe_asc = np.where(resasc > 0.0, resasc, 1.0)
    sharpened = resasc * np.minimum(1.0, (200.0 * err / safe_asc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), sharpened, err)
    err = np.maximum(err, 50.0 * _EPS * resabs)
    return resk, err, bad


def integrate_or_raise(req: BatchRequest) -> BatchResult:
    """Refine every row of ``req`` to its tolerance or budget, in lockstep.

    The initial panel set of a row (one panel per gap between its edges) is
    always evaluated, since no estimate exists without it; ``max_evals``
    bounds the refinement on top of it.  Rows whose initial error is within
    tolerance finish without any per-row Python work.  A refining row keeps
    a running total of its panel errors; once that says stop, the panels
    are summed left to right, and the row stops only if that sum, which is
    also its reported result, meets the tolerance.

    A row fails when its integrand turns non-finite, or when it ends
    unconverged: its budget ran out, or every panel hit float resolution,
    before its error met the tolerance.  Rows above the lowest failed row
    then stop refining, and that row's :class:`QuadratureError`, carrying
    its best estimate, is raised once the rows below it are done: the error
    that integrating the rows one by one would stop at, with no row above
    it bisected more often than it was.
    """
    f = req.integrand
    edges = req.edges
    tols = req.abs_tol.tolist()
    budget = req.max_evals
    n_panels = np.count_nonzero(~np.isnan(edges), axis=1) - 1
    values = np.empty(len(edges))
    errors = np.empty(len(edges))
    evals = _EVALS_PER_RULE * n_panels
    refining: dict = {}  # row -> [heap of (-err, a, b, value), done panels, total_err]
    failures: dict = {}  # row -> its QuadratureError

    def fail(r, message, result):
        failures[r] = QuadratureError(f"{req.prefix(r)}{message}", result)

    def fail_unconverged(r):
        row = IntegrationResult(float(values[r]), float(errors[r]), int(evals[r]), False)
        fail(r, f"quadrature did not converge: error estimate {row.error_estimate:.3e} "
                f"exceeds tolerance {tols[r]:.3e} after {row.evals} evaluations", row)

    def summed(r, heap, done):
        """Store row r's value and error, its panels added left to right; return the error."""
        value = error = 0.0
        # sorted by left edge a, unique within a row
        for _, _, v, e in sorted(done + [(a, b, v, -neg_err) for neg_err, a, b, v in heap]):
            value += v
            error += e
        values[r], errors[r] = value, error
        return error

    def prune():
        """Stop refining the lowest failed row and every row above it."""
        first = min(failures)
        for r in [r for r in refining if r >= first]:
            del refining[r]

    def rule(lows, highs, rows):
        vals, errs, bad = _apply_rule_batch(f, lows, highs, rows)
        for g, x in bad.items():
            r = int(rows[g])
            fail(r, f"integrand returned a non-finite value at x={x!r}",
                 IntegrationResult(float("nan"), float("inf"), int(evals[r]), False))
        return vals, errs, bad

    for p in sorted(set(n_panels.tolist())):  # np.unique would import numpy.ma
        group = np.flatnonzero(n_panels == p)
        window = edges[group, :p + 1]
        vals, errs, bad = rule(window[:, :-1], window[:, 1:], group)
        value = error = 0.0
        for j in range(p):  # left to right from 0.0, as a finished row is summed
            value = value + vals[:, j]
            error = error + errs[:, j]
        values[group] = value
        errors[group] = error
        rest = (error > req.abs_tol[group]) & (evals[group] + 2 * _EVALS_PER_RULE <= budget)
        rest[list(bad)] = False
        for g in np.flatnonzero(rest).tolist():
            a_b = window[g].tolist()
            heap: list = []
            for a, b, v, e in zip(a_b, a_b[1:], vals[g].tolist(), errs[g].tolist()):
                heapq.heappush(heap, (-e, a, b, v))
            refining[int(group[g])] = [heap, [], float(error[g])]
        ended = ~rest & ~(error <= req.abs_tol[group])
        ended[list(bad)] = False
        for g in np.flatnonzero(ended).tolist():
            fail_unconverged(int(group[g]))
    if failures:
        prune()

    while refining:
        batch = []  # (row, a, mid, b, err) of the panel each active row bisects
        for r, state in list(refining.items()):
            heap, done, total_err = state
            while heap and evals[r] + 2 * _EVALS_PER_RULE <= budget:
                if not total_err > tols[r]:
                    # The running total drifts from the panel sum by rounding,
                    # and can even cancel to 0.0: only the sum may stop a row.
                    total_err = state[2] = summed(r, heap, done)
                    if total_err <= tols[r]:
                        break
                neg_err, a, b, value = heapq.heappop(heap)
                mid = 0.5 * (a + b)
                if a < mid < b:
                    batch.append((r, a, mid, b, -neg_err))
                    break
                done.append((a, b, value, -neg_err))  # at float resolution
            else:
                summed(r, heap, done)
            if not (batch and batch[-1][0] == r):  # the row is done refining
                del refining[r]
                if not errors[r] <= tols[r]:
                    fail_unconverged(r)
        if failures:
            prune()
            batch = [item for item in batch if item[0] in refining]
        if not batch:
            break
        rows = np.array([item[0] for item in batch])
        evals[rows] += 2 * _EVALS_PER_RULE
        splits = np.array([(a, mid, b) for _, a, mid, b, _ in batch])
        halves, half_errs, bad = rule(splits[:, :2], splits[:, 1:], rows)
        if bad:
            prune()
        for (r, a, mid, b, err), (v0, v1), (e0, e1) in zip(batch, halves.tolist(),
                                                           half_errs.tolist()):
            state = refining.get(r)
            if state is None:
                continue
            heapq.heappush(state[0], (-e0, a, mid, v0))
            heapq.heappush(state[0], (-e1, mid, b, v1))
            state[2] += e0 + e1 - err

    if failures:
        raise failures[min(failures)]
    return BatchResult(values, errors, evals)


def dyadic_panel_edges(lower, upper) -> list:
    """Interior edges giving six panels of dyadically growing width from ``lower``.

    Integrands here decay away from the lower limit, so packing narrow panels
    there lets most panels converge on the first rule application instead of
    being found by bisection.  Purely a seeding hint: results are unchanged,
    only the refinement path (breakpoint-insensitivity property).  Works
    elementwise when ``lower`` is an array of per-row limits.
    """
    scale = (upper - lower) / 63.0
    return [lower + scale * (2.0 ** k - 1.0) for k in range(1, 6)]


def panel_edges(lower: np.ndarray, upper, cuts) -> np.ndarray:
    """Per-row edges for a :class:`BatchRequest`: dyadic seeding plus cut points.

    Row r runs from ``lower[r]`` to ``upper`` (one end for every row, or one
    per row) with the dyadic seeding edges and the r-th entry of every array
    in ``cuts``.  Candidates are taken in ascending order; one is dropped when
    it lies outside the open window, within 1e-12 of the window width of the
    row's upper end, or within that gap above the in-window candidate before
    it, kept or not.  Dropped slots become right-hand NaN padding.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.full(lower.shape, upper, dtype=float)
    cand = np.sort(np.stack([*dyadic_panel_edges(lower, upper), *cuts], axis=1), axis=1)
    gap = 1e-12 * (upper - lower)[:, None]
    keep = (lower[:, None] < cand) & (cand < upper[:, None]) & ~(upper[:, None] - cand <= gap)
    # Out-of-window candidates (infinite cuts among them) enter the
    # differences as NaN, which compares False: no inf - inf is formed.
    inside = np.where(keep, cand, np.nan)
    keep[:, 1:] &= ~(inside[:, 1:] - inside[:, :-1] <= gap)
    inner = np.where(keep, cand, np.nan)
    return np.sort(np.column_stack([lower, inner, upper]), axis=1)
