"""Harness behavior: config handling, determinism, reports, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import REPO_CONFIGS, centered_gaussian, checked_in
from viscowave import cli
from viscowave.asymptotics import LinearSource
from viscowave.cli import emit_report, main, run_scenario
from viscowave.elastic import LameParams, default_cutoffs
from viscowave.exceptions import FitError, QuadratureAccuracyError
from viscowave.grid import forward_scalar, make_grid
from viscowave.solver import SolverConfig, picard_iterate

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

FAST_KERNELS = """
[scenario]
name = kernels-fast
suite = kernels
seed = 7

[lame]
lambda = 0.0
mu = 1.0
nu = 1.0

[kernels]
oracle_samples = 6
"""


FAST_PICARD = """
[scenario]
name = picard-fast
suite = picard
seed = 7

[grid]
n = 16
box_length = 16.0

[solver]
dt = 1.0
t_end = 2.0
picard_tol = {tol}
picard_max_iter = {max_iter}
"""


def picard16(**overrides) -> str:
    """The checked-in picard config at n = 16, with ``key = value`` lines replaced."""
    return checked_in("picard", **{"n": 16, **overrides})


def with_nan(values) -> np.ndarray:
    """A float copy of ``values`` whose second entry is NaN."""
    out = np.array(values, dtype=float)
    out[1] = math.nan
    return out


def write_cfg(tmp_path, text, name="scenario.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def read_all_bytes(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


class TestRunScenario:
    def test_kernels_suite_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_KERNELS)
        out = tmp_path / "out"
        assert run_scenario(cfg, out) == 0
        assert (out / "summary.json").is_file()
        assert (out / "manifest.json").is_file()
        assert (out / "kernel_table.csv").is_file()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert {a["criterion"] for a in summary["assertions"]} == {"1", "2"}

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_KERNELS)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_scenario(cfg, out1) == 0
        assert run_scenario(cfg, out2) == 0
        assert read_all_bytes(out1) == read_all_bytes(out2)

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[scenario]\nsuite = not-a-suite\n")
        out = tmp_path / "out"
        assert run_scenario(cfg, out) == 2
        assert not out.exists()  # no partial outputs
        # Not valid UTF-8: a Latin-1 byte in a comment.
        cfg.write_bytes(FAST_KERNELS.encode() + b"# caf\xe9\n")
        capsys.readouterr()
        assert main(["kernels", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")

    def test_out_at_or_under_a_file_is_usage_error(self, tmp_path, monkeypatch, capsys):
        cfg = write_cfg(tmp_path, FAST_KERNELS)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        monkeypatch.setitem(cli._SUITE_FN, "kernels", lambda cfg: pytest.fail("the suite ran"))
        for out in (taken, taken / "sub"):
            assert main(["kernels", "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error:")
        assert taken.read_text() == "keep"

    @pytest.mark.parametrize(
        "solver",
        [
            "dt = 0.7\nt_end = 1.0",
            "dt = 1.0\nt_end = 0.0",
            "dt = 1.0\nt_end = 2.0\npicard_max_iter = 0",
            "dt = inf\nt_end = 2.0",
            "dt = 1.0\nt_end = inf",
            "dt = nan\nt_end = 2.0",
            "dt = 1.0\nt_end = 2.0\npicard_tol = inf",
        ],
    )
    def test_unusable_solver_settings_are_usage_errors(self, tmp_path, solver):
        cfg = write_cfg(tmp_path, FAST_KERNELS + "\n[solver]\n" + solver + "\n")
        out = tmp_path / "out"
        assert run_scenario(cfg, out) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "override",
        [
            {"sigma": "-0.5"},
            {"sigma": "nan"},
            {"lambda": "inf"},
            {"mu": "nan"},
            {"nu": "inf"},
        ],
    )
    def test_non_finite_or_non_positive_data_is_usage_error(self, tmp_path, override, capsys):
        cfg = write_cfg(tmp_path, picard16(**override))
        out = tmp_path / "out"
        assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "suite, override",
        [
            ("picard", {"n": "7"}),
            ("picard", {"n": "4"}),
            ("picard", {"box_length": "0.0"}),
            ("picard", {"box_length": "nan"}),
            ("linear-decay", {"start": "0.0"}),
            ("linear-decay", {"start": "-1.0"}),
            ("linear-decay", {"start": "nan"}),
            ("linear-decay", {"start": "inf"}),
            ("linear-decay", {"stop": "100.0"}),
            ("linear-decay", {"stop": "10.0"}),
            ("linear-decay", {"stop": "inf"}),
            ("linear-decay", {"count": "0"}),
            ("linear-decay", {"count": "-3"}),
            ("picard", {"box_length": "inf"}),
        ],
    )
    def test_unusable_grid_or_times_is_usage_error(self, tmp_path, suite, override, capsys):
        cfg = write_cfg(tmp_path, checked_in(suite, **override))
        out = tmp_path / "out"
        assert main([suite, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    @pytest.mark.parametrize("family", ["band_random", "dgaussian"])
    def test_unknown_data_family_is_usage_error(self, tmp_path, family, capsys):
        cfg = write_cfg(tmp_path, FAST_KERNELS + f"\n[data]\nfamily = {family}\n")
        out = tmp_path / "out"
        assert main(["kernels", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "replace, extra",
        [
            (("oracle_samples = 6", "oracle_samples = 0"), []),
            (("oracle_samples = 6", "oracle_samples = -2"), []),
            (("seed = 7", "seed = -1"), []),
            (("", ""), ["--seed", "-1"]),
        ],
        ids=["oracle_samples=0", "oracle_samples=-2", "seed=-1", "--seed=-1"],
    )
    def test_empty_oracle_or_negative_seed_is_usage_error(self, tmp_path, replace, extra, capsys):
        cfg = write_cfg(tmp_path, FAST_KERNELS.replace(*replace))
        out = tmp_path / "out"
        assert main(["kernels", "--config", str(cfg), "--out", str(out), *extra]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    def test_nonlinear16_copy_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, checked_in("nonlinear", n=16))
        out = tmp_path / "out"
        assert run_scenario(cfg, out, suite="nonlinear") == 0
        summary = json.loads((out / "summary.json").read_text())
        crit8 = [a for a in summary["assertions"] if a["criterion"] == "8"]
        assert len(crit8) == 2 and all(a["passed"] for a in crit8)

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2,
        reason="needs 2 CPUs: OpenBLAS runs at most one thread per CPU, so both runs would match",
    )
    def test_nonlinear16_bytes_independent_of_blas_threads(self, tmp_path):
        cfg = write_cfg(tmp_path, checked_in("nonlinear", n=16))
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(REPO_SRC)}
            cmd = [sys.executable, "-m", "viscowave.cli", "nonlinear", "--config", str(cfg)]
            subprocess.run([*cmd, "--out", str(out)], env=env, check=True, capture_output=True)
            outs.append(read_all_bytes(out))
        assert outs[0] == outs[1]

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2,
        reason="needs 2 CPUs: OpenBLAS runs at most one thread per CPU, so both runs would match",
    )
    def test_shared_moment_pass_bytes_independent_of_blas_threads(self):
        # the widest shared pass: every sup/L^p field of profile-error at one time
        probe = "\n".join([
            "import numpy as np",
            "from viscowave import asymptotics as a, cli",
            "from viscowave.elastic import LameParams",
            "src, lame = a.LinearSource.gaussian(0.5), LameParams(0.0, 1.0, 1.0)",
            "norms = [(which, spec) for which, spec in cli._PROFILE_SET if spec.p != 2.0]",
            "fields = a._profile_fields(src, norms, lame)",
            "print(np.array(a._norms(fields, 100.0, lame, src)).tobytes().hex())",
        ])
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(REPO_SRC)}
            done = subprocess.run(
                [sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True
            )
            outs.append(done.stdout)
        assert outs[0] == outs[1] and len(outs[0]) > 100

    def test_smoothing_sweeps_the_moment_tables_once_per_time(self, tmp_path, monkeypatch):
        from viscowave import asymptotics, radial

        blocks, calls = [], []
        real_tables, real_evaluate = radial._cs_tables, asymptotics.axisym_evaluate

        def tables(s, r, out):
            blocks.append((s[0], s.size))
            return real_tables(s, r, out)

        def evaluate(*args, **kwargs):
            calls.append(1)
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(radial, "_cs_tables", tables)
        monkeypatch.setattr(asymptotics, "axisym_evaluate", evaluate)
        assert run_scenario(REPO_CONFIGS / "smoothing.ini", tmp_path / "out") == 0
        cfg = cli._parse_config(REPO_CONFIGS / "smoothing.ini")
        times = cli._times(cfg)
        src = LinearSource.gaussian(cfg["sigma"])
        n_s = [asymptotics._xspace_grids(cfg["lame"], src, t)[1].size for t in times]
        # one evaluation per time, whose blocks cover that time's s grid once
        assert len(calls) == len(times)
        assert sum(1 for first, _ in blocks if first == 0.0) == len(times)
        assert sum(size for _, size in blocks) == sum(n_s)

    def test_picard16_copy_runs(self, tmp_path):
        # the fixture the usage-error cases perturb is itself a passing run
        cfg = write_cfg(tmp_path, picard16(t_end="2.5"))
        assert run_scenario(cfg, tmp_path / "out", suite="picard") == 0

    @pytest.mark.parametrize(
        "exc, achieved",
        [
            (FitError("banded kernel norm is not monotonically decaying"), None),
            (QuadratureAccuracyError("radial quadrature reached relative error 3.00e-06", 3e-6), 3e-6),
        ],
    )
    def test_suite_error_is_status_3_with_summary(self, tmp_path, monkeypatch, capsys, exc, achieved):
        def failing_suite(cfg):
            raise exc

        monkeypatch.setitem(cli._SUITE_FN, "kernels", failing_suite)
        cfg = write_cfg(tmp_path, FAST_KERNELS)
        out = tmp_path / "out"
        assert main(["kernels", "--config", str(cfg), "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is False and summary["suite"] == "kernels"
        assert summary["error"]["type"] == type(exc).__name__
        assert summary["error"]["message"] == str(exc)
        assert summary["error"].get("achieved") == achieved
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_memory_error_is_status_3_with_summary(self, tmp_path, monkeypatch, capsys):
        # Out of memory is no failed check: status 3 and a summary, not Python's status 1.
        def oversized_suite(cfg):
            raise MemoryError("Unable to allocate 3.2 GiB")

        monkeypatch.setitem(cli._SUITE_FN, "kernels", oversized_suite)
        cfg = write_cfg(tmp_path, FAST_KERNELS)
        out = tmp_path / "out"
        assert main(["kernels", "--config", str(cfg), "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is False and summary["assertions"] == []
        assert summary["error"] == {"type": "MemoryError", "message": "Unable to allocate 3.2 GiB"}
        assert capsys.readouterr().err == "suite error: MemoryError: Unable to allocate 3.2 GiB\n"

    def test_internal_error_is_status_4_with_summary(self, tmp_path, monkeypatch, capsys):
        # A library bug is neither a failed check nor a toolkit error: status 4, summary, traceback.
        def broken_suite(cfg):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setitem(cli._SUITE_FN, "kernels", broken_suite)
        cfg = write_cfg(tmp_path, FAST_KERNELS)
        out = tmp_path / "out"
        assert main(["kernels", "--config", str(cfg), "--out", str(out)]) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is False and summary["assertions"] == []
        assert summary["error"] == {
            "type": "ValueError",
            "message": "operands could not be broadcast together",
            "internal": True,
        }
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and "in broken_suite" in err
        assert err.endswith("ValueError: operands could not be broadcast together\n")

    def test_non_finite_norm_is_status_3(self, tmp_path, monkeypatch):
        # one NaN norm must stop the fit, not pass through as a NaN slope
        real = cli.linear_norm

        def fake(lame, src, specs, t):
            values = real(lame, src, specs, t)
            return [math.nan] + values[1:] if abs(t - 1e3) < 1.0 else values
        monkeypatch.setattr(cli, "linear_norm", fake)
        out = tmp_path / "out"
        assert run_scenario(REPO_CONFIGS / "linear-decay.ini", out) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"]["type"] == "FitError"

    @pytest.mark.parametrize(
        "suite, error",
        [
            ("linear-decay", "FitError"),
            ("smoothing", "QuadratureAccuracyError"),
            ("profile-error", "QuadratureAccuracyError"),
        ],
    )
    def test_vanishing_data_transform_is_status_3(self, tmp_path, capsys, suite, error):
        # the parser accepts sigma = 1e8, whose transform underflows to 0 at every probed radius:
        # the L^2 norms all vanish, and the sup/L^p support probe finds nothing to keep
        cfg = write_cfg(tmp_path, checked_in(suite, sigma="1e8"))
        out = tmp_path / "out"
        assert main([suite, "--config", str(cfg), "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is False and summary["error"]["type"] == error
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "suite, callee, call, nan_of, criterion, check",
        [
            ("kernels", "kernel_hat", 1, lambda k: math.nan, "1", "kernel-oracle relative error"),
            (
                "kernels",
                "lowfreq_residual",
                1,
                lambda res: (with_nan(res[0]), res[1]),
                "2",
                "low-frequency representation residual",
            ),
            ("nonlinear", "half_seminorm", 1, lambda norm: math.nan, "8", "deviation ratio"),
            ("audit", "inequality_check", 1, lambda ratio: math.nan, "9", "Riesz l2 ratio"),
            (
                "audit",
                "dilation_ratios",
                1,
                lambda scan: {**scan, "GN_INF": with_nan(scan["GN_INF"])},
                "9",
                "GN_INF dilation invariance",
            ),
            # the second scan of the first bound: its density-128 sup
            (
                "audit",
                "symbol_bound_scan",
                2,
                lambda sup: math.nan,
                "10",
                "B331 density stability",
            ),
        ],
        ids=["1-oracle", "2-residual", "8-deviation", "9-riesz", "9-dilation", "10-scan"],
    )
    def test_one_nan_fails_its_criterion(
        self, tmp_path, monkeypatch, suite, callee, call, nan_of, criterion, check
    ):
        # Python's max(worst, nan) returns worst, so each check must see the NaN itself.
        real, calls = getattr(cli, callee), []

        def nan_once(*args, **kwargs):
            value = real(*args, **kwargs)
            calls.append(1)
            return nan_of(value) if len(calls) == call else value

        monkeypatch.setattr(cli, callee, nan_once)
        config = {
            "kernels": FAST_KERNELS,
            "nonlinear": checked_in("nonlinear", n=16),
            "audit": checked_in("audit"),
        }[suite]
        out = tmp_path / "out"
        assert run_scenario(write_cfg(tmp_path, config), out) == 1
        summary = json.loads((out / "summary.json").read_text())
        failed = [a for a in summary["assertions"] if not a["passed"]]
        assert {a["criterion"] for a in failed} == {criterion}
        assert any(check in a["name"] for a in failed)

    def test_slower_high_band_decay_fails_the_envelope(self, tmp_path, monkeypatch):
        # Criterion 6's envelope C e^{-ct} ||chi_H g|| is fixed by the symbol, so
        # kernels that decay 10% slower on the high band break it.  The slowdown
        # is blended in by chi_H itself (0 at c1, full from 2 c1 on): a jump at
        # c1 would stop the mid band's quadrature, whose support reaches 2 c1.
        from viscowave import audit

        cfg = write_cfg(tmp_path, checked_in("audit"))
        chi_h = default_cutoffs(cli._parse_config(cfg)["lame"]).chi_h
        real = audit.kernel_hat

        def slower(t, r, params, which="K0", dt_order=0):
            r = np.asarray(r, dtype=float)
            nu, beta = params.nu, params.beta
            gap = np.sqrt(np.maximum(0.25 * nu**2 * r**4 - beta**2 * r**2, 0.0))
            slow_root = beta**2 * r**2 / (0.5 * nu * r**2 + gap)  # the decay rate on r >= c1
            gain = np.exp(0.1 * slow_root * t * chi_h(r))
            return real(t, r, params, which, dt_order) * gain

        monkeypatch.setattr(audit, "kernel_hat", slower)
        out = tmp_path / "out"
        assert run_scenario(cfg, out) == 1
        summary = json.loads((out / "summary.json").read_text())
        failed = [a["name"] for a in summary["assertions"] if not a["passed"]]
        assert failed == ["high-band gradient-norm envelope"]

    def test_import_loads_no_unused_scipy(self):
        # scipy.fft is imported at the first transform and the slope CI's t
        # quantile is the library's own, so a fit loads no scipy module at all
        probe = (
            "import sys, numpy, viscowave.cli; "
            "t = numpy.logspace(2, 4, 9); viscowave.cli.decay_slope(t, t ** -1.5); "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO_SRC)}
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True
        )
        assert done.stdout.strip() == "[]"

    def test_linear_decay_run_loads_no_scipy(self, tmp_path):
        # a whole continuum suite, as the console script runs it, makes no
        # transform and so never imports scipy (-X importtime lists every import)
        env = {**os.environ, "PYTHONPATH": str(REPO_SRC)}
        config = REPO_CONFIGS / "linear-decay.ini"
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "viscowave.cli", "linear-decay",
             "--config", str(config), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()]
        assert "viscowave.asymptotics" in imported
        assert [m for m in imported if m == "scipy" or m.startswith("scipy.")] == []

    def test_subcommand_must_match_config_suite(self, tmp_path):
        repo_cfg = Path(__file__).resolve().parents[1] / "configs" / "kernels.ini"
        out = tmp_path / "out"
        assert main(["picard", "--config", str(repo_cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_unconverged_picard_fails(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_PICARD.format(tol=1e-30, max_iter=1))
        out = tmp_path / "out"
        assert run_scenario(cfg, out) == 1
        summary = json.loads((out / "summary.json").read_text())
        (last,) = [a for a in summary["assertions"] if a["name"].startswith("last Picard")]
        assert last["passed"] is False and last["bound"] == 1e-30

    def test_single_sweep_without_ratio_fails_criterion_7(self, tmp_path):
        # one sweep meets this tolerance, so no contraction ratio is ever measured
        cfg = write_cfg(tmp_path, picard16(t_end="2.5", picard_tol="1e300"))
        out = tmp_path / "out"
        assert run_scenario(cfg, out, suite="picard") == 1
        summary = json.loads((out / "summary.json").read_text())
        failed = [a["name"] for a in summary["assertions"] if not a["passed"]]
        assert failed == ["contraction ratio from iteration 2 on"]
        with open(out / "picard_history.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0]["ratio"] == ""

    def test_infinite_marched_x1_norm_fails_criterion_7(self, tmp_path, monkeypatch):
        check = cli._assert("7", "marched X1 norm finite", math.inf, math.inf, "<")
        assert check["passed"] is False
        real = cli.x1_norm_and_distance
        monkeypatch.setattr(
            cli, "x1_norm_and_distance", lambda states, ref: (math.inf, real(states, ref)[1])
        )
        cfg = write_cfg(tmp_path, picard16(t_end="2.5"))
        out = tmp_path / "out"
        assert run_scenario(cfg, out, suite="picard") == 1
        summary = json.loads((out / "summary.json").read_text())
        failed = [a["name"] for a in summary["assertions"] if not a["passed"]]
        assert failed == ["marched X1 norm finite"]

    def test_missing_config(self, tmp_path):
        assert run_scenario(tmp_path / "nope.ini", tmp_path / "out") == 2

    def test_seed_override_changes_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_KERNELS)
        out = tmp_path / "out"
        assert run_scenario(cfg, out, seed=99) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_main_entry(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_KERNELS)
        status = main(["kernels", "--config", str(cfg), "--out", str(tmp_path / "m")])
        assert status == 0

    def test_checked_in_config_parses(self, tmp_path):
        repo_cfg = Path(__file__).resolve().parents[1] / "configs" / "kernels.ini"
        from viscowave.cli import _parse_config

        cfg = _parse_config(repo_cfg)
        assert cfg["suite"] == "kernels"


class TestEmitReport:
    def test_empty_results_error(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report({}, tmp_path)

    def test_csv_stability(self, tmp_path):
        rows = {"series": [{"t": 1.0, "value": 1.0 / 3.0}, {"t": 2.0, "value": 2.0 / 3.0}]}
        p1 = emit_report(rows, tmp_path / "a")[0]
        p2 = emit_report(rows, tmp_path / "b")[0]
        assert p1.read_bytes() == p2.read_bytes()
        assert "0.33333333333333331" in p1.read_text()


class TestChecksHoldNoTrajectory:
    """The grid checks read the marched states as they stream, holding O(1) of them."""

    LAME = LameParams(0.0, 1.0, 1.0)

    def setup_method(self):
        grid = make_grid(16, 16.0)
        f0, f1 = centered_gaussian(grid, sigma=0.8).data, centered_gaussian(grid, sigma=0.8).data
        self.data = grid, f0, f1
        forward_scalar(grid, f0)  # scipy.fft is imported at the first transform: not in a trace
        self.state_bytes = 3 * grid.n * grid.n * (grid.n // 2 + 1) * 16
        self.base = 0

    def peak(self, check, sc):
        """Peak traced bytes during ``check`` above ``self.base`` (the start, unless reset)."""
        tracemalloc.start()
        try:
            self.base = tracemalloc.get_traced_memory()[0]
            check(*self.data, self.LAME, sc)
            return tracemalloc.get_traced_memory()[1] - self.base
        finally:
            tracemalloc.stop()

    def test_nonlinear_check(self):
        peaks = [self.peak(cli.nonlinear_check, SolverConfig(dt=0.5, t_end=t)) for t in (2.0, 4.0)]
        # A held trajectory would add two states (u and v) per extra step: four here.
        assert peaks[1] - peaks[0] < self.state_bytes

    def test_picard_check_marching_phase(self, monkeypatch):
        real = cli.picard_iterate

        def picard_then_reset(*args):
            # Picard's own states are not under test: count from its return.
            out = real(*args)
            tracemalloc.reset_peak()
            self.base = tracemalloc.get_traced_memory()[0]
            return out

        monkeypatch.setattr(cli, "picard_iterate", picard_then_reset)
        peaks = [
            self.peak(cli.picard_check, SolverConfig(dt=0.5, t_end=t, picard_max_iter=2))
            for t in (2.0, 4.0)
        ]
        assert peaks[1] - peaks[0] < self.state_bytes

    def test_picard_iterate_keeps_the_band(self):
        def iterate(grid, f0, f1, lame, sc):
            picard_iterate(grid, forward_scalar(grid, f0), forward_scalar(grid, f1), lame, sc)

        peaks = [
            self.peak(iterate, SolverConfig(dt=0.5, t_end=t, picard_max_iter=2))
            for t in (2.0, 4.0)
        ]
        # 8 more half-step nodes, each with a displacement and every other one
        # with a velocity: whole states would add 1.5 states a node, the dealias
        # band (31.5% of the half lattice at n = 16) adds 0.47.
        assert peaks[1] - peaks[0] < 8 * 0.6 * self.state_bytes
