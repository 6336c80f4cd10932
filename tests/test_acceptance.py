"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to stream them).
Tolerances are pinned here, not configurable.
"""

import csv
import math
import time

import numpy as np
import pytest

from macfade.boundary import rate_point, simplex_grid, sweep
from macfade.cli import main
from macfade.fading import ExponentialGain
from macfade.kernel import (
    CdfMode,
    ChannelConfig,
    LambdaVector,
    RateAwardVector,
    UserSpec,
    win_probability,
)
from macfade.montecarlo import estimate
from macfade.solver import SolverSettings, solve_lambda

from oracles import (
    case_boundary,
    cdf_factor,
    reference_estimate_win_probability,
    wf_rate,
    wf_solve_lambda,
)


def expo_channel(n_users, sigma2=1.0, means=None, pbars=None):
    means = means or [1.0] * n_users
    pbars = pbars or [1.0] * n_users
    return ChannelConfig(sigma2, tuple(
        UserSpec(ExponentialGain(m), p) for m, p in zip(means, pbars)))


CH1 = expo_channel(1)
CH2 = expo_channel(2)


def report(number, description, ok):
    print(f"ACCEPTANCE {number} [{description}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_acceptance_1_single_user_water_filling_equivalence():
    started = time.perf_counter()
    mu = RateAwardVector((1.0,))
    solution = solve_lambda(mu, CH1)
    rate = rate_point(mu, solution.lam, CH1)[0]
    lam_oracle = wf_solve_lambda(1.0, 1.0, 1.0)
    rate_oracle = wf_rate(lam_oracle, 1.0, 1.0)
    elapsed = time.perf_counter() - started
    lam_ok = abs(solution.lam[0] - lam_oracle) / lam_oracle <= 1e-5
    rate_ok = abs(rate - rate_oracle) / rate_oracle <= 1e-5
    report(1, f"water-filling equivalence in {elapsed:.2f}s",
           lam_ok and rate_ok and elapsed < 5.0)


def test_acceptance_2_correction_visibility():
    started = time.perf_counter()
    mu = RateAwardVector((0.7, 0.3))
    solution = solve_lambda(mu, CH2)  # corrected mode
    rates_corrected = rate_point(mu, solution.lam, CH2, CdfMode.CORRECTED)
    rates_naive = rate_point(mu, solution.lam, CH2, CdfMode.NAIVE_ZERO)
    mc = estimate(CH2, mu, solution.lam, 1_000_000, seed=20240814)
    elapsed = time.perf_counter() - started

    agree = abs(rates_corrected[0] - mc.rates[0]) <= 3.0 * mc.rate_se[0]
    naive_below = (mc.rates[0] - rates_naive[0]) > 4.0 * mc.rate_se[0]
    min_weight_untouched = abs(rates_corrected[1] - rates_naive[1]) <= 2e-8
    report(2, f"corrected=MC, naive<MC-4SE, user2 mode-free in {elapsed:.1f}s",
           agree and naive_below and min_weight_untouched and elapsed < 120.0)


def test_acceptance_3_equal_weights_coincide():
    mu = RateAwardVector((0.5, 0.5))
    corrected = solve_lambda(mu, CH2, SolverSettings(mode=CdfMode.CORRECTED))
    naive = solve_lambda(mu, CH2, SolverSettings(mode=CdfMode.NAIVE_ZERO))
    rates_corrected = rate_point(mu, corrected.lam, CH2, CdfMode.CORRECTED)
    rates_naive = rate_point(mu, naive.lam, CH2, CdfMode.NAIVE_ZERO)
    modes_identical = (
        max(abs(a - b) for a, b in zip(corrected.lam.lam, naive.lam.lam)) <= 1e-8
        and max(abs(a - b) for a, b in zip(rates_corrected, rates_naive)) <= 1e-8
    )
    symmetric = abs(rates_corrected[0] - rates_corrected[1]) <= 1e-6
    report(3, "equal weights: modes coincide, users symmetric",
           modes_identical and symmetric)


def test_acceptance_4_power_constraint_certification():
    two_user = sweep(CH2, simplex_grid(2, 10))
    ok_two = all(p.ok for p in two_user) and all(
        abs(res) <= 1e-6
        for p in two_user for res in p.diagnostics.certified_residuals)

    started = time.perf_counter()
    three_user_channel = expo_channel(3, means=[0.5, 1.0, 2.0])
    three_user = sweep(three_user_channel, simplex_grid(3, 7))
    elapsed = time.perf_counter() - started
    ok_three = all(p.ok for p in three_user) and all(
        abs(res) <= 1e-6
        for p in three_user for res in p.diagnostics.certified_residuals)

    report(4, f"9+15 sweep points certified <=1e-6, 3-user in {elapsed:.0f}s",
           ok_two and ok_three and len(two_user) == 9 and len(three_user) == 15
           and elapsed < 600.0)


def test_acceptance_5_win_probability_disjoint_and_mc_checked():
    mu = RateAwardVector((0.7, 0.3))
    solution = solve_lambda(mu, CH2)
    lam = solution.lam
    disjoint = True
    mc_agrees = True
    for z in np.linspace(0.0, 3.6, 10):
        z = float(z)
        probs = [win_probability(i, z, mu, lam, CH2) for i in range(2)]
        disjoint &= sum(probs) <= 1.0 + 1e-7
        for i in range(2):
            p_mc, se = reference_estimate_win_probability(CH2, i, z, mu, lam, 1_000_000,
                                                          seed=515151)
            scale = math.sqrt(max(p_mc * (1.0 - p_mc),
                                  probs[i] * (1.0 - probs[i])) / 1_000_000)
            mc_agrees &= abs(probs[i] - p_mc) <= 3.0 * scale
    report(5, "win probabilities disjoint and MC-confirmed on 10-z grid",
           disjoint and mc_agrees)


def test_acceptance_6_integrand_continuity_at_case_boundary():
    mu = RateAwardVector((0.7, 0.3))
    rng = np.random.default_rng(606)
    continuous = True
    jumps = True
    for _ in range(20):
        z = float(rng.uniform(0.0, 3.0))
        lam = LambdaVector(tuple(rng.uniform(0.05, 1.5, size=2)))
        h_star = case_boundary(0, 1, z, mu, lam, CH2.sigma2)
        below, above = h_star * (1.0 - 1e-6), h_star * (1.0 + 1e-6)
        corr_lo = cdf_factor(0, 1, below, z, mu, lam, CH2, CdfMode.CORRECTED)
        corr_hi = cdf_factor(0, 1, above, z, mu, lam, CH2, CdfMode.CORRECTED)
        naive_lo = cdf_factor(0, 1, below, z, mu, lam, CH2, CdfMode.NAIVE_ZERO)
        naive_hi = cdf_factor(0, 1, above, z, mu, lam, CH2, CdfMode.NAIVE_ZERO)
        continuous &= abs(corr_hi - corr_lo) < 1e-4
        jumps &= abs(naive_hi - naive_lo) > 0.9
    report(6, "corrected factor continuous at h*, naive factor jumps 1->0",
           continuous and jumps)


def test_acceptance_7_verify_mc_thread_determinism(tmp_path, capsys):
    config = {
        "channel": {
            "sigma2": 1.0,
            "users": [
                {"fading": {"kind": "exponential", "mean": 1.0}, "pbar": 1.0},
                {"fading": {"kind": "exponential", "mean": 1.0}, "pbar": 1.0},
            ],
        },
        "mu": [0.7, 0.3],
        "mc": {"n_samples": 200_000, "seed": 4242},
        "mode": "corrected",
    }
    import json

    config_path = tmp_path / "determinism.json"
    config_path.write_text(json.dumps(config))
    out1 = tmp_path / "t1.csv"
    out8 = tmp_path / "t8.csv"
    code1 = main(["verify-mc", "--config", str(config_path),
                  "--output", str(out1), "--threads", "1"])
    code8 = main(["verify-mc", "--config", str(config_path),
                  "--output", str(out8), "--threads", "8"])
    capsys.readouterr()

    def mc_columns(path):
        with open(path, newline="") as fh:
            return [(row["mc_mean"], row["mc_se"]) for row in csv.DictReader(fh)]

    identical = mc_columns(out1) == mc_columns(out8)
    bytes_identical = out1.read_bytes() == out8.read_bytes()
    report(7, "verify-mc byte-identical across thread counts",
           code1 == 0 and code8 == 0 and identical and bytes_identical)
