"""Self-tests of the benchmark harness: span arithmetic, percentiles, margins, failure counting.

Run with: PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(1, str(HERE.parents[1] / "src"))

from checks import check_margin, judge  # noqa: E402
from spans import Tracer, layer_metrics, self_times, tail_percentile  # noqa: E402


def test_self_time_subtracts_union_of_children():
    spans = [
        [1, 0, "a", 0.0, 10.0, None],
        [2, 1, "b", 1.0, 4.0, None],
        [3, 1, "c", 3.0, 6.0, None],  # overlaps b: counted once
        [4, 2, "d", 2.0, 3.0, None],
        [5, 1, "e", 9.0, 12.0, None],  # runs past its parent: clipped
    ]
    got = self_times(spans)
    assert got == pytest.approx({1: 10.0 - 5.0 - 1.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0})


def test_layer_metrics_nested_kernel_calls_and_self_time():
    spans = [
        [1, 0, "radial.radial_l2_norm", 0.0, 5.0, None],
        [2, 1, "kernels.kernel_hat", 1.0, 2.0, 1],
        [3, 1, "kernels.kernel_hat", 2.0, 3.0, 1],
        [4, 0, "grid.transform", 6.0, 8.0, None],
        [5, 4, "fft.fftn", 6.5, 7.5, [64, 3]],
        [6, 0, "kernels.kernel_hat", 9.0, 9.5, 100],
    ]
    m = layer_metrics(spans)
    assert m["radial.radial_l2_norm.self_s"] == pytest.approx(3.0)
    assert m["radial.radial_l2_norm.kernel_calls_per_norm"] == 2
    assert m["kernels.kernel_hat.calls"] == 3
    assert m["kernels.kernel_hat.points_per_call"] == pytest.approx(34.0)
    assert m["grid.transform.self_s"] == pytest.approx(1.0)
    assert m["fft.calls"] == 1 and m["fft.s"] == pytest.approx(1.0)
    assert m["fft.gflop_computed"] == pytest.approx(5 * 64 * 6 * 3 / 1e9)
    assert m["fft.gb_computed"] == pytest.approx(64 * 3 * 32 / 1e9)
    assert m["solver.picard_iterate.sweeps"] == 0 and m["asymptotics.linear_norm.tail_pct"] == 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(10))) is None
    for n in (11, 27, 100, 1000, 1234):
        values = [float(i) for i in range(n)]
        p, value, count = tail_percentile(values)
        assert count == n
        assert sum(v > value for v in values) >= 10
        # One percentile higher would leave fewer than ten beyond it.
        assert n - -(-(p + 1) * n // 100) < 10
    assert tail_percentile([float(i) for i in range(27)])[:2] == (62, 16.0)
    assert tail_percentile([float(i) for i in range(1000)])[:2] == (99, 989.0)


def _a(value, bound, op, passed=True):
    return {"value": value, "bound": bound, "op": op, "passed": passed, "name": "x"}


@pytest.mark.parametrize(
    "assertion, slack",
    [
        (_a(0.5, 1.0, "<="), 0.5),
        (_a(1.5, 1.0, "<="), -0.5),
        (_a(1.5, 1.0, ">="), 0.5),
        (_a(0.5, 1.0, ">"), -0.5),
        (_a(-1.0, -0.9, "<="), 0.1 / 0.9),
        (_a(-0.8, -0.9, "<"), -0.1 / 0.9),
    ],
)
def test_check_margin_sign_follows_passing_side(assertion, slack):
    assert check_margin([assertion]) == pytest.approx(slack)


def test_check_margin_skips_infinite_and_zero_bounds():
    rows = [_a(3.0, "inf", "<="), _a(2.0, 0.0, ">"), _a(0.9, 1.0, "<=")]
    assert check_margin(rows) == pytest.approx(0.1)
    assert math.isnan(check_margin(rows[:2]))


def _write(out, suite="picard", values=(0.1, 0.2, 0.3), passed=(True, True, True), history=None):
    out.mkdir(parents=True, exist_ok=True)
    rows = [_a(v, 1.0, "<=", p) for v, p in zip(values, passed)]
    (out / "summary.json").write_text(json.dumps({"suite": suite, "assertions": rows}))
    if history is not None:
        lines = ["distance,iteration,ratio"] + [f"{d!r},{i + 1},0" for i, d in enumerate(history)]
        (out / "picard_history.csv").write_text("\n".join(lines) + "\n")
    return out


def test_judge_passes_healthy_run(tmp_path):
    out = _write(tmp_path, history=[5e-9, 1e-14])
    v = judge(out, "picard", 3, 0, "", picard_tol=1e-10)
    assert (v.failed, v.expected) == (0, 3)
    assert v.margin == pytest.approx(0.7)


@pytest.mark.parametrize(
    "kwargs, exit_code, stderr",
    [
        ({"passed": (True, False, True)}, 1, ""),  # a failed assertion
        ({"values": (0.1, float("nan"), 0.3)}, 0, ""),  # NaN got past the suite's guards
        ({"history": [5e-9, 7.4e5]}, 0, ""),  # Picard stopped above tolerance
        ({"suite": "kernels"}, 0, ""),  # the config's suite ran, not the subcommand's
        ({}, 1, "Traceback (most recent call last):\n  ...\nDivergenceError: x\n"),
    ],
)
def test_judge_counts_every_check_failed(tmp_path, kwargs, exit_code, stderr):
    kwargs.setdefault("history", [5e-9, 1e-14])
    out = _write(tmp_path, **kwargs)
    v = judge(out, "picard", 3, exit_code, stderr, picard_tol=1e-10)
    assert (v.failed, v.expected) == (3, 3) and v.reasons


def test_judge_missing_summary_and_missing_checks(tmp_path):
    v = judge(tmp_path / "absent", "audit", 45, 1, "")
    assert (v.failed, v.expected) == (45, 45)
    out = _write(tmp_path / "short", suite="smoothing", values=(0.1, 0.2))
    v = judge(out, "smoothing", 3, 0, "")
    assert (v.failed, v.expected) == (1, 3)


def test_tracer_rebinds_every_import_site():
    import numpy as np
    import scipy.fft

    import viscowave
    from viscowave import grid as vgrid

    original_fftn = scipy.fft.fftn
    tracer = Tracer()
    tracer.install()
    try:
        where = {name: {site.rsplit(".", 1)[0] for site in sites} for name, sites in tracer.bindings.items()}
        for mod in ("kernels", "grid", "elastic", "solver", "asymptotics", "audit", "cli"):
            assert f"viscowave.{mod}" in where["kernels.kernel_hat"]
        for mod in ("elastic", "solver", "cli"):
            assert f"viscowave.{mod}" in where["elastic.linear_propagate"]
        for mod in ("grid", "solver", "asymptotics", "audit", "cli"):
            assert f"viscowave.{mod}" in where["grid.transform"]
        assert scipy.fft.fftn is not original_fftn
        g = vgrid.make_grid(8, 2.0 * np.pi)
        vgrid.transform(vgrid.VectorField(g, np.ones((3, 8, 8, 8)), "physical"))
    finally:
        tracer.uninstall()
    assert scipy.fft.fftn is original_fftn
    assert viscowave.transform is vgrid.transform and not hasattr(vgrid.transform, "__wrapped__")
    (transform_span,) = [s for s in tracer.spans if s[2] == "grid.transform"]
    (fft_span,) = [s for s in tracer.spans if s[2] == "fft.fftn"]
    assert fft_span[1] == transform_span[0] and fft_span[5] == [512, 3]
