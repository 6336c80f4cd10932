import math

import numpy as np
import pytest

from macfade.quadrature import (
    IntegrationRequest,
    QuadratureError,
    dyadic_panel_edges,
    integrate,
    integrate_or_raise,
)

from oracles import merge_edges


def test_exponential_decay_to_unity():
    req = IntegrationRequest(lambda x: math.exp(-x), 0.0, 40.0, abs_tol=1e-10)
    res = integrate(req)
    assert res.converged
    assert res.error_estimate <= 1e-10
    assert abs(res.value - 1.0) <= 1e-10


def test_truncated_inverse_square():
    req = IntegrationRequest(lambda z: 1.0 / (2.0 * (1.0 + z) ** 2), 0.0, 1e6,
                             abs_tol=1e-8)
    res = integrate(req)
    assert res.converged
    # truncation-limited: exact tail beyond 1e6 is 0.5/(1 + 1e6)
    assert abs(res.value - 0.5) <= 2e-6


def test_step_integrand_with_breakpoint():
    req = IntegrationRequest(lambda x: 1.0 if x < 1.0 else 0.0, 0.0, 2.0,
                             breakpoints=(1.0,), abs_tol=1e-12)
    res = integrate(req)
    assert res.converged
    assert res.value == 1.0


def test_linearity():
    tol = 1e-9
    f = lambda x: np.exp(-x)
    g = lambda x: 1.0 / (1.0 + x) ** 2
    alpha, beta = 2.5, -0.75

    def run(func):
        return integrate(IntegrationRequest(func, 0.0, 10.0, abs_tol=tol,
                                            vectorized=True)).value

    combined = run(lambda x: alpha * f(x) + beta * g(x))
    assert abs(combined - (alpha * run(f) + beta * run(g))) <= 2.0 * tol


def test_spurious_breakpoint_insensitivity():
    tol = 1e-10
    f = lambda x: np.exp(-x) * np.sin(x) ** 2
    base = integrate(IntegrationRequest(f, 0.0, 12.0, abs_tol=tol, vectorized=True))
    extra = integrate(IntegrationRequest(f, 0.0, 12.0, breakpoints=(4.321,),
                                         abs_tol=tol, vectorized=True))
    assert base.converged and extra.converged
    assert abs(base.value - extra.value) <= 2.0 * tol


@pytest.mark.parametrize("degree", [0, 3, 7, 13])
def test_polynomial_exactness_single_panel(degree):
    coeffs = np.arange(1, degree + 2, dtype=float)

    def poly(x):
        return np.polyval(coeffs, x)

    exact = np.polyval(np.polyint(coeffs), 2.0) - np.polyval(np.polyint(coeffs), -1.0)
    res = integrate(IntegrationRequest(poly, -1.0, 2.0, abs_tol=1e-6, vectorized=True))
    assert res.evals == 15  # the single panel is already exact
    assert abs(res.value - exact) <= 1e-12 * max(1.0, abs(exact))


def test_scalar_and_vectorized_paths_agree():
    fs = lambda x: math.exp(-x) * x
    fv = lambda x: np.exp(-x) * x
    a = integrate(IntegrationRequest(fs, 0.0, 5.0, abs_tol=1e-10))
    b = integrate(IntegrationRequest(fv, 0.0, 5.0, abs_tol=1e-10, vectorized=True))
    assert a.value == b.value
    assert a.evals == b.evals


def test_budget_exhaustion_returns_best_estimate():
    # needle the rule pair cannot resolve with a 45-evaluation budget
    f = lambda x: 1.0 / (1e-6 + (x - 0.613) ** 2)
    res = integrate(IntegrationRequest(f, 0.0, 1.0, abs_tol=1e-12, max_evals=45))
    assert not res.converged
    assert res.error_estimate > 1e-12
    assert res.evals <= 45
    with pytest.raises(QuadratureError) as err:
        integrate_or_raise(IntegrationRequest(f, 0.0, 1.0, abs_tol=1e-12, max_evals=45))
    assert err.value.result is not None
    assert err.value.result.error_estimate > 1e-12


def test_non_finite_integrand_raises():
    with np.errstate(divide="ignore"):
        with pytest.raises(QuadratureError, match="non-finite"):
            integrate(IntegrationRequest(lambda x: 1.0 / (x - 0.5), 0.0, 1.0,
                                         abs_tol=1e-6))


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
    ],
)
def test_request_validation(kwargs):
    defaults = {"integrand": lambda x: x, "lower": 0.0, "truncation_point": 1.0}
    defaults.update(kwargs)
    with pytest.raises(ValueError):
        IntegrationRequest(**defaults)


def test_converged_implies_error_within_tolerance():
    rng = np.random.default_rng(7)
    for _ in range(25):
        scale = float(rng.uniform(0.5, 3.0))
        upper = float(rng.uniform(2.0, 30.0))
        req = IntegrationRequest(lambda x, s=scale: np.exp(-s * x), 0.0, upper,
                                 abs_tol=1e-9, vectorized=True)
        res = integrate(req)
        exact = (1.0 - math.exp(-scale * upper)) / scale
        assert res.converged
        assert res.error_estimate <= 1e-9
        assert abs(res.value - exact) <= 1e-9


def test_dyadic_edges_and_merge():
    edges = dyadic_panel_edges(1.0, 64.0, n_panels=6)
    assert len(edges) == 5
    assert all(1.0 < e < 64.0 for e in edges)
    assert edges == sorted(edges)
    merged = merge_edges(edges + [edges[0], 1.0, 64.0, 200.0], 1.0, 64.0)
    assert merged == edges
