import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import macfade
from macfade import solver
from macfade.boundary import simplex_grid
from macfade.cli import (
    _OPTIONS,
    ConfigError,
    GridSpec,
    RunConfig,
    dump_config,
    load_config,
    main,
    parse_config,
)
from macfade.fading import ExponentialGain, PiecewiseLinearEmpirical, UniformGain
from macfade.kernel import ChannelConfig, RateAwardVector, UserSpec
from macfade.montecarlo import estimate
from macfade.quadrature import _EVALS_PER_RULE, integrate_or_raise


BASE_CONFIG = {
    "channel": {
        "sigma2": 1.0,
        "users": [
            {"fading": {"kind": "exponential", "mean": 1.0}, "pbar": 1.0},
            {"fading": {"kind": "exponential", "mean": 1.0}, "pbar": 1.0},
        ],
    },
    "mu": [0.7, 0.3],
    "solver": {"power_rel_tol": 1e-4},
    "quadrature": {"outer_abs_tol": 1e-7},
    "mc": {"n_samples": 100_000, "seed": 777},
    "mode": "corrected",
    "threads": 1,
}


def write_config(tmp_path, overrides=None, name="config.json"):
    doc = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigParsing:
    def test_round_trip_identity(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        again = parse_config(json.loads(dump_config(cfg)), tmp_path)
        assert again == cfg

    def test_round_trip_with_grid_and_empirical(self, tmp_path):
        overrides = {
            "mu": {"resolution": 10, "mu_min": 0.001},
            "channel": {
                "sigma2": 0.8,
                "users": [
                    {"fading": {"kind": "uniform", "low": 0.1, "high": 2.0}, "pbar": 0.5},
                    {"fading": {"kind": "empirical",
                                "knots": [[0.0, 0.0], [1.0, 0.4], [3.0, 1.0]]},
                     "pbar": 1.5},
                ],
            },
        }
        cfg = load_config(write_config(tmp_path, overrides))
        assert cfg.mu == GridSpec(10, 0.001)
        assert isinstance(cfg.channel.users[0].fading, UniformGain)
        assert isinstance(cfg.channel.users[1].fading, PiecewiseLinearEmpirical)
        again = parse_config(json.loads(dump_config(cfg)), tmp_path)
        assert again == cfg

    def test_empirical_csv_sidecar(self, tmp_path):
        (tmp_path / "trace.csv").write_text("h,F\n0.0,0.0\n1.0,0.4\n3.0,1.0\n")
        overrides = {
            "channel": {
                "sigma2": 1.0,
                "users": [
                    {"fading": {"kind": "empirical", "csv": "trace.csv"}, "pbar": 1.0},
                ],
            },
            "mu": [1.0],
        }
        cfg = load_config(write_config(tmp_path, overrides))
        assert cfg.channel.users[0].fading.h_knots == (0.0, 1.0, 3.0)

    @pytest.mark.parametrize("overrides,needle", [
        ({"channel": {"users": []}}, "channel"),
        ({"mode": "wrong"}, "mode"),
        ({"units": "dB"}, "units"),
        ({"mu": [0.7, 0.7]}, "mu"),
        ({"mu": [0.5, 0.25, 0.25]}, "mu"),
        ({"mc": {"n_samples": 0}}, "mc.n_samples"),
        ({"solver": {"power_rel_tol": -1.0}}, "solver.power_rel_tol"),
        ({"solver": {"unexpected": 1}}, "solver.unexpected"),
        ({"solver": {"bracket_growth": 1.0}}, "^solver.bracket_growth: must exceed 1$"),
        ({"solver": {"max_outer_iters": 0}}, "^solver.max_outer_iters: must be at least 1$"),
        ({"quadrature": {"outer_abs_tol": 0.0}}, "^quadrature.outer_abs_tol: must be positive$"),
        ({"quadrature": {"tail_epsilon": 1.0}}, "^quadrature.tail_epsilon: must be in "),
    ])
    def test_malformed_configs_name_the_field(self, tmp_path, overrides, needle):
        with pytest.raises(ConfigError, match=needle.replace(".", r"\.")):
            load_config(write_config(tmp_path, overrides))

    @pytest.mark.parametrize("sigma2, user, prefix", [
        (1.0, {"fading": {"kind": "exponential", "mean": math.inf}, "pbar": 1.0},
         "channel.users[0].fading.mean: "),
        (1.0, {"fading": {"kind": "exponential", "mean": 1.0}, "pbar": math.inf},
         "channel.users[0].pbar: "),
        (math.inf, {"fading": {"kind": "exponential", "mean": 1.0}, "pbar": 1.0},
         "channel.sigma2: "),
    ])
    def test_library_range_checks_name_the_field(self, tmp_path, capsys, sigma2, user, prefix):
        path = write_config(tmp_path, {"channel": {"sigma2": sigma2, "users": [user]},
                                       "mu": [1.0]})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value).startswith(prefix)
        assert main(["solve", "--config", path]) == 1
        assert capsys.readouterr().err == f"config error: {err.value}\n"

    def test_missing_sigma2_named(self, tmp_path):
        doc = json.loads(json.dumps(BASE_CONFIG))
        del doc["channel"]["sigma2"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="sigma2"):
            load_config(str(path))

    def test_unknown_fading_kind(self, tmp_path):
        overrides = {
            "channel": {
                "sigma2": 1.0,
                "users": [{"fading": {"kind": "rician", "k": 3}, "pbar": 1.0}],
            },
            "mu": [1.0],
        }
        with pytest.raises(ConfigError, match="kind"):
            load_config(write_config(tmp_path, overrides))


class TestExitCodes:
    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_config_error(self):
        assert main(["solve", "--config", "/no/such/file.json"]) == 1

    def test_grid_for_solve_is_config_error(self, tmp_path):
        path = write_config(tmp_path, {"mu": {"resolution": 10}})
        assert main(["solve", "--config", path]) == 1

    def test_explicit_mu_for_boundary_is_config_error(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["boundary", "--config", path]) == 1

    def test_solver_non_convergence_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"solver": {"max_outer_iters": 1}})
        assert main(["solve", "--config", path]) == 2
        assert capsys.readouterr().err.count("last residuals") == 1

    def test_quadrature_failure_names_its_layer_once(self, tmp_path, capsys, monkeypatch):
        # The fourth outer power integral, user 1's at the first Newton
        # step's trial prices, gets one rule's budget and a tolerance it
        # cannot meet.
        calls = []

        def starved_fourth(req):
            calls.append(req)
            if len(calls) == 4:
                req = dataclasses.replace(req, abs_tol=1e-300, max_evals=_EVALS_PER_RULE)
            return integrate_or_raise(req)

        monkeypatch.setattr(solver, "integrate_or_raise", starved_fourth)
        path = write_config(tmp_path, {"solver": None, "quadrature": None})
        assert main(["solve", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.count("did not converge") == 1
        assert "outer power integral of user 1 over z at lam=(" in err
        assert re.search(r"; in the solver's Newton step \d+ from lam=\(.*\), "
                         r"last residuals \(-?\d[^,]*, -?\d[^,]*\)$", err)

    def test_bad_thread_override_is_config_error(self, tmp_path, capsys):
        assert main(["solve", "--config", write_config(tmp_path), "--threads", "0"]) == 1
        assert "threads: must be at least 1" in capsys.readouterr().err

    def test_usage_error_remapped_to_config_error(self, capsys):
        assert main(["solve"]) == 1  # missing --config
        assert main(["frobnicate", "--config", "x"]) == 1
        capsys.readouterr()


class TestSolveCommand:
    @pytest.mark.parametrize("mode", ["corrected", "naive"])
    def test_narrow_uniform_laws_solve(self, tmp_path, capsys, mode):
        # Two nearly equal narrow uniform laws: the starved-user steps once
        # let the users take turns at spending nothing until an outer
        # integral ran out of budget.
        out = tmp_path / "solve.csv"
        uniform = [{"fading": {"kind": "uniform", "low": lo, "high": hi}, "pbar": 1.0}
                   for lo, hi in ((1.0, 1.001), (0.999, 1.0))]
        path = write_config(tmp_path, {"channel": {"sigma2": 1.0, "users": uniform},
                                       "mu": [0.5, 0.5], "solver": None, "quadrature": None,
                                       "mode": mode, "output": str(out)})
        assert main(["solve", "--config", path]) == 0
        capsys.readouterr()
        rows = read_csv(out)
        assert [r["mode"] for r in rows] == [mode, mode]
        assert all(abs(float(r["residual_rel"])) <= 1e-6 for r in rows)

    def test_stderr_counts_newton_steps(self, tmp_path, capsys):
        path = write_config(tmp_path, {"output": str(tmp_path / "solve.csv")})
        assert main(["solve", "--config", path]) == 0
        err = capsys.readouterr().err
        assert re.search(r"corrected: converged in \d+ Newton steps "
                         r"\(\d+ power evaluations\)", err)

    def test_symmetric_report(self, tmp_path, capsys):
        out = tmp_path / "solve.csv"
        path = write_config(tmp_path, {"mu": [0.5, 0.5], "output": str(out)})
        assert main(["solve", "--config", path]) == 0
        capsys.readouterr()
        rows = read_csv(out)
        assert [r["user"] for r in rows] == ["1", "2"]
        lam = [float(r["lambda"]) for r in rows]
        assert lam[0] == pytest.approx(lam[1], rel=1e-4)
        for r in rows:
            assert abs(float(r["residual_rel"])) <= 1e-4
            assert r["mode"] == "corrected"


class TestBoundaryCommand:
    def test_grid_times_modes_row_count(self, tmp_path, capsys):
        out = tmp_path / "boundary.csv"
        path = write_config(tmp_path, {
            "mu": {"resolution": 10},
            "mode": "both",
            "output": str(out),
        })
        assert main(["boundary", "--config", path]) == 0
        capsys.readouterr()
        rows = read_csv(out)
        assert len(rows) == 18
        assert sum(r["mode"] == "corrected" for r in rows) == 9
        assert sum(r["mode"] == "naive" for r in rows) == 9
        assert all(r["status"] == "ok" for r in rows)
        header = list(rows[0].keys())
        assert header == ["mode", "mu_1", "mu_2", "lambda_1", "lambda_2",
                          "R_1", "R_2", "Pach_1", "Pach_2",
                          "quad_err", "solver_iters", "status"]

    def test_single_user_single_row(self, tmp_path, capsys):
        out = tmp_path / "b1.csv"
        overrides = {
            "channel": {"sigma2": 1.0,
                        "users": [{"fading": {"kind": "exponential", "mean": 1.0},
                                   "pbar": 1.0}]},
            "mu": {"resolution": 1},
            "output": str(out),
        }
        path = write_config(tmp_path, overrides)
        assert main(["boundary", "--config", path]) == 0
        capsys.readouterr()
        rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["mu_1"]) == 1.0

    def test_bits_units_divide_by_ln2(self, tmp_path, capsys):
        overrides = {
            "channel": {"sigma2": 1.0,
                        "users": [{"fading": {"kind": "exponential", "mean": 1.0},
                                   "pbar": 1.0}]},
            "mu": {"resolution": 1},
        }
        out_nats = tmp_path / "nats.csv"
        out_bits = tmp_path / "bits.csv"
        path = write_config(tmp_path, overrides)
        assert main(["boundary", "--config", path, "--output", str(out_nats)]) == 0
        assert main(["boundary", "--config", path, "--output", str(out_bits),
                     "--units", "bits"]) == 0
        capsys.readouterr()
        nats = float(read_csv(out_nats)[0]["R_1"])
        bits = float(read_csv(out_bits)[0]["R_1"])
        assert bits == pytest.approx(nats / math.log(2.0), rel=1e-12)


class TestVerifyMcCommand:
    def test_corrected_mode_passes(self, tmp_path, capsys):
        out = tmp_path / "vmc.csv"
        path = write_config(tmp_path, {"output": str(out)})
        assert main(["verify-mc", "--config", path]) == 0
        capsys.readouterr()
        rows = read_csv(out)
        assert len(rows) == 4  # 2 users x (rate, power)
        for r in rows:
            assert abs(float(r["z_score"])) <= 4.0

    def test_naive_mode_fails_verification(self, tmp_path, capsys):
        out = tmp_path / "vmc_naive.csv"
        path = write_config(tmp_path, {"mode": "naive", "output": str(out)})
        assert main(["verify-mc", "--config", path]) == 3
        capsys.readouterr()
        rows = read_csv(out)
        worst = max(abs(float(r["z_score"])) for r in rows)
        assert worst > 4.0

    def test_equal_weights_naive_passes(self, tmp_path, capsys):
        out = tmp_path / "vmc_eq.csv"
        path = write_config(tmp_path, {"mode": "naive", "mu": [0.5, 0.5],
                                       "output": str(out)})
        assert main(["verify-mc", "--config", path]) == 0
        capsys.readouterr()


class TestCompareCommand:
    def test_gap_report(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        path = write_config(tmp_path, {"output": str(out)})
        assert main(["compare", "--config", path]) == 0
        capsys.readouterr()
        rows = read_csv(out)
        assert len(rows) == 2
        assert float(rows[0]["same_lambda_gap_abs"]) > 0.01
        assert abs(float(rows[1]["same_lambda_gap_abs"])) <= 1e-8


class TestDumpConfig:
    def test_dump_reflects_overrides_and_reparses(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["solve", "--config", path, "--dump-config",
                     "--mode", "naive", "--units", "bits", "--threads", "3"]) == 0
        dumped = capsys.readouterr().out
        doc = json.loads(dumped)
        assert doc["mode"] == "naive"
        assert doc["units"] == "bits"
        assert doc["threads"] == 3
        reparsed = parse_config(doc, tmp_path)
        assert reparsed.mode == "naive"
        assert isinstance(reparsed.mu, RateAwardVector)

    def test_threads_default_is_one(self, tmp_path, capsys):
        path = write_config(tmp_path, {"threads": None})
        assert main(["solve", "--config", path, "--dump-config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["threads"] == 1
        assert parse_config(doc, tmp_path).threads == 1

    def test_full_precision_numbers(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mu": [1.0 / 3.0, 2.0 / 3.0]})
        assert main(["solve", "--config", path, "--dump-config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mu"][0] == 1.0 / 3.0


# The bad-config matrix: every option of ``cli._OPTIONS`` plus the two grid
# keys, each tried as a bool, as a wrong type (chosen by its default's type)
# and at each edge of its range.  The values must fail when the config loads,
# whatever the command, and the library's owner check must refuse the same
# values for the five the library range-checks.
WRONG_TYPES = {float: ["0.5"], int: [1.5, "1"], str: [1], type(None): [1]}
RANGE_EDGES = {
    "solver.power_rel_tol": [0.0],
    "solver.max_outer_iters": [0],
    "solver.bracket_growth": [1.0],
    "quadrature.outer_abs_tol": [0.0],
    "quadrature.tail_epsilon": [0.0, 1.0],
    "mc.n_samples": [0],
    "mc.seed": [-1, 2**128],
    "mode": ["sideways"],
    "units": ["dB"],
    "threads": [0],
    "mu.resolution": [1],  # below the two users of BASE_CONFIG
    "mu.mu_min": [0.0, 0.2],  # 0.2 exceeds 1/resolution = 0.1
}
GRID = {"resolution": 10, "mu_min": 0.001}
FIELDS = ([(key if section is None else f"{section}.{key}", default)
           for section, key, _, default, _ in _OPTIONS]
          + [(f"mu.{key}", default) for key, default in GRID.items()])
BAD_VALUES = [(path, value) for path, default in FIELDS
              for value in [True, *WRONG_TYPES[type(default)], *RANGE_EDGES.get(path, [])]]
LIBRARY_ARGS = {"mc.n_samples": "n_samples", "mc.seed": "seed", "threads": "threads",
                "mu.resolution": "resolution", "mu.mu_min": "mu_min"}
COMMANDS = (["solve"], ["boundary"], ["verify-mc"], ["compare"], ["solve", "--dump-config"])


def bad_config(tmp_path, path, value):
    doc = json.loads(json.dumps(BASE_CONFIG))
    section, _, key = path.rpartition(".")
    if section == "mu":
        doc["mu"] = {**GRID, key: value}
    else:
        (doc.setdefault(section, {}) if section else doc)[key] = value
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    return str(config)


def matrix_id(case):
    path, value = case
    return f"{path}={value!r}"


def test_bad_value_matrix_covers_every_range_edge():
    assert set(RANGE_EDGES) <= {path for path, _ in FIELDS}
    assert set(LIBRARY_ARGS) <= set(RANGE_EDGES)


@pytest.mark.parametrize("case", BAD_VALUES, ids=matrix_id)
def test_bad_value_fails_at_load_in_every_command(tmp_path, capsys, case):
    path, value = case
    config = bad_config(tmp_path, path, value)
    for command in COMMANDS:
        assert main([*command, "--config", config]) == 1, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1, captured.err
        assert captured.err.startswith(f"config error: {path}: "), captured.err


# Empirical knots are checked like every other number: each entry is a
# [gain, cdf] pair of numbers, and a bad one is named by its index.
BAD_FADING = [
    ({"knots": [["0", "0"], ["1.5", "1"]]}, "knots[0]: expected a number"),
    ({"knots": [[0, 0], [True, True]]}, "knots[1]: expected a number"),
    ({"knots": [[0, 0], [1, 1, 1]]}, "knots[1]: expected a [gain, cdf] pair"),
    ({"knots": [[0, 0], 1.0]}, "knots[1]: expected a [gain, cdf] pair"),
    ({"knots": {"h": [0, 1]}}, "knots: expected a list of [gain, cdf] pairs"),
    ({"csv": 5}, "csv: expected a path string"),
]


@pytest.mark.parametrize("fields, message", BAD_FADING, ids=[
    "string-knot", "bool-knot", "triple", "scalar-entry", "object-knots", "csv-number"])
def test_bad_knots_fail_at_load_in_every_command(tmp_path, capsys, fields, message):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["channel"]["users"][1]["fading"] = {"kind": "empirical", **fields}
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    for command in COMMANDS:
        assert main([*command, "--config", str(config)]) == 1, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: channel.users[1].fading.{message}\n"


TWO_USERS = ChannelConfig(1.0, (UserSpec(ExponentialGain(1.0), 1.0),
                                UserSpec(ExponentialGain(1.0), 1.0)))


@pytest.mark.parametrize("case", [case for case in BAD_VALUES if case[0] in LIBRARY_ARGS],
                         ids=matrix_id)
def test_library_owner_refuses_the_same_value(case):
    path, value = case
    name = LIBRARY_ARGS[path]
    with pytest.raises(ValueError, match=f"^{name} "):
        if path.startswith("mu."):
            simplex_grid(2, **{**GRID, name: value})
        else:
            estimate(TWO_USERS, (0.7, 0.3), (0.126, 0.0454),
                     **{"n_samples": 100, "seed": 1, "threads": 1, name: value})


def test_module_entry_reports_a_seed_out_of_range_without_traceback(tmp_path):
    config = write_config(tmp_path, {"mc": {"n_samples": 100_000, "seed": 2**128}})
    src = str(Path(macfade.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "macfade", "verify-mc", "--config", config],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error: mc.seed:"), proc.stderr
    assert "Traceback" not in proc.stderr
