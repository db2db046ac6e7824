"""Harness behavior: config handling, determinism, reports, exit codes."""

import json
from pathlib import Path

import pytest

from viscowave.cli import emit_report, main, run_scenario

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

    def test_malformed_config_is_usage_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "[scenario]\nsuite = not-a-suite\n")
        out = tmp_path / "out"
        assert run_scenario(cfg, out) == 2
        assert not out.exists()  # no partial outputs

    @pytest.mark.parametrize(
        "solver",
        [
            "dt = 0.7\nt_end = 1.0",
            "dt = 1.0\nt_end = 0.0",
            "dt = 1.0\nt_end = 2.0\npicard_max_iter = 0",
        ],
    )
    def test_unusable_solver_settings_are_usage_errors(self, tmp_path, solver):
        cfg = write_cfg(tmp_path, FAST_KERNELS + "\n[solver]\n" + solver + "\n")
        out = tmp_path / "out"
        assert run_scenario(cfg, out) == 2
        assert not out.exists()

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

    def test_json_round_trip(self, tmp_path):
        rows = {"series": [{"t": 0.1, "value": 0.7071067811865476}]}
        path = emit_report(rows, tmp_path, fmt="json")[0]
        parsed = json.loads(path.read_text())
        assert parsed == rows["series"]
