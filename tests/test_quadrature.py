import math

import numpy as np
import pytest

from macfade.quadrature import (
    BatchRequest,
    IntegrationResult,
    QuadratureError,
    dyadic_panel_edges,
    integrate_or_raise,
)

from oracles import merge_edges


def one_row(integrand, lower, truncation_point, breakpoints=(), abs_tol=1e-9,
            max_evals=100_000):
    """The one-row request integrating the vectorized ``integrand`` over one window."""
    return BatchRequest(lambda x, rows: integrand(x), [[lower, *breakpoints, truncation_point]],
                        abs_tol, max_evals)


def integrate_one(*args, **kwargs) -> IntegrationResult:
    """The row's result, converged or not: an unconverged one is its error's ``result``."""
    try:
        res = integrate_or_raise(one_row(*args, **kwargs))
    except QuadratureError as exc:
        return exc.result
    return IntegrationResult(float(res.values[0]), float(res.error_estimates[0]),
                             int(res.row_evals[0]), True)


def test_exponential_decay_to_unity():
    res = integrate_one(lambda x: np.exp(-x), 0.0, 40.0, abs_tol=1e-10)
    assert res.converged
    assert res.error_estimate <= 1e-10
    assert abs(res.value - 1.0) <= 1e-10


def test_truncated_inverse_square():
    res = integrate_one(lambda z: 1.0 / (2.0 * (1.0 + z) ** 2), 0.0, 1e6, abs_tol=1e-8)
    assert res.converged
    # truncation-limited: exact tail beyond 1e6 is 0.5/(1 + 1e6)
    assert abs(res.value - 0.5) <= 2e-6


def test_step_integrand_with_breakpoint():
    res = integrate_one(lambda x: np.where(x < 1.0, 1.0, 0.0), 0.0, 2.0,
                        breakpoints=(1.0,), abs_tol=1e-12)
    assert res.converged
    assert res.value == 1.0


def test_linearity():
    tol = 1e-9
    f = lambda x: np.exp(-x)
    g = lambda x: 1.0 / (1.0 + x) ** 2
    alpha, beta = 2.5, -0.75

    def run(func):
        return integrate_one(func, 0.0, 10.0, abs_tol=tol).value

    combined = run(lambda x: alpha * f(x) + beta * g(x))
    assert abs(combined - (alpha * run(f) + beta * run(g))) <= 2.0 * tol


def test_spurious_breakpoint_insensitivity():
    tol = 1e-10
    f = lambda x: np.exp(-x) * np.sin(x) ** 2
    base = integrate_one(f, 0.0, 12.0, abs_tol=tol)
    extra = integrate_one(f, 0.0, 12.0, breakpoints=(4.321,), abs_tol=tol)
    assert base.converged and extra.converged
    assert abs(base.value - extra.value) <= 2.0 * tol


@pytest.mark.parametrize("degree", [0, 3, 7, 13])
def test_polynomial_exactness_single_panel(degree):
    coeffs = np.arange(1, degree + 2, dtype=float)

    def poly(x):
        return np.polyval(coeffs, x)

    exact = np.polyval(np.polyint(coeffs), 2.0) - np.polyval(np.polyint(coeffs), -1.0)
    res = integrate_one(poly, -1.0, 2.0, abs_tol=1e-6)
    assert res.evals == 15  # the single panel is already exact
    assert abs(res.value - exact) <= 1e-12 * max(1.0, abs(exact))


def test_budget_exhaustion_returns_best_estimate():
    # needle the rule pair cannot resolve with a 45-evaluation budget
    f = lambda x: 1.0 / (1e-6 + (x - 0.613) ** 2)
    with pytest.raises(QuadratureError) as err:
        integrate_or_raise(one_row(f, 0.0, 1.0, abs_tol=1e-12, max_evals=45))
    res = err.value.result
    assert res is not None
    assert not res.converged
    assert res.error_estimate > 1e-12
    assert res.evals <= 45


def test_non_finite_integrand_raises():
    with np.errstate(divide="ignore"):
        with pytest.raises(QuadratureError, match="non-finite"):
            integrate_or_raise(one_row(lambda x: 1.0 / (x - 0.5), 0.0, 1.0, abs_tol=1e-6))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lower": 1.0, "truncation_point": 1.0},
        {"lower": 2.0, "truncation_point": 1.0},
        {"lower": 0.0, "truncation_point": math.inf},
        {"lower": 0.0, "truncation_point": 1.0, "abs_tol": 0.0},
        {"lower": 0.0, "truncation_point": 1.0, "breakpoints": (1.5,)},
        {"lower": 0.0, "truncation_point": 1.0, "breakpoints": (0.8, 0.2)},
        {"lower": 0.0, "truncation_point": 1.0, "max_evals": 3},
        {"lower": math.nan, "truncation_point": 1.0},
        {"lower": 0.0, "truncation_point": 1.0, "abs_tol": [0.0]},  # one per row
        {"lower": 0.0, "truncation_point": 1.0, "abs_tol": [1e-9, 1e-9]},  # two for one row
    ],
)
def test_request_validation(kwargs):
    defaults = {"integrand": lambda x: x, "lower": 0.0, "truncation_point": 1.0}
    defaults.update(kwargs)
    with pytest.raises(ValueError):
        one_row(**defaults)


def test_converged_implies_error_within_tolerance():
    rng = np.random.default_rng(7)
    for _ in range(25):
        scale = float(rng.uniform(0.5, 3.0))
        upper = float(rng.uniform(2.0, 30.0))
        res = integrate_one(lambda x, s=scale: np.exp(-s * x), 0.0, upper, abs_tol=1e-9)
        exact = (1.0 - math.exp(-scale * upper)) / scale
        assert res.converged
        assert res.error_estimate <= 1e-9
        assert abs(res.value - exact) <= 1e-9


def test_dyadic_edges_and_merge():
    edges = dyadic_panel_edges(1.0, 64.0)
    assert len(edges) == 5
    assert all(1.0 < e < 64.0 for e in edges)
    assert edges == sorted(edges)
    merged = merge_edges(edges + [edges[0], 1.0, 64.0, 200.0], 1.0, 64.0)
    assert merged == edges
