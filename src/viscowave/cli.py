"""Scenario-driven command-line front end.

Each subcommand runs one named experiment suite from an INI config, writes
plot-ready CSV series plus a JSON summary whose assertions reference the
acceptance-criterion numbers they implement, and exits 0 only if every
assertion passed.  All randomness is seeded from the config (or --seed), and
outputs are byte-stable across reruns: fixed float formatting, sorted keys,
no timestamps.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import (
    LinearSource,
    NormSpec,
    SUPPORTED_NORMS,
    decay_slope,
    linear_norm,
    profile_error_series,
)
from .audit import decay_fit, dilation_ratios, heat_multiplier_l1, symbol_bound_scan, SYMBOL_BOUNDS
from .elastic import LameParams, default_cutoffs, linear_propagate
from .exceptions import ConfigError
from .grid import VectorField, make_grid, transform
from .kernels import DampingParams, kernel_eval, kernel_hat, lowfreq_residual, mode_oracle
from .solver import (
    ContractionTensor,
    SolverConfig,
    evolve,
    picard_iterate,
    x1_data_seminorm,
    x1_distance,
    x1_norm,
)

SUITES = (
    "kernels",
    "linear-decay",
    "smoothing",
    "profile-error",
    "nonlinear",
    "picard",
    "audit",
)


# ---------------------------------------------------------------------------
# configuration


def _parse_config(path: Path) -> dict:
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    try:
        scen = cp["scenario"]
        cfg = {
            "name": scen.get("name", path.stem),
            "suite": scen["suite"],
            "seed": scen.getint("seed", 1234),
            "lame": LameParams(
                cp.getfloat("lame", "lambda", fallback=0.0),
                cp.getfloat("lame", "mu", fallback=1.0),
                cp.getfloat("lame", "nu", fallback=1.0),
            ),
            "family": cp.get("data", "family", fallback="gaussian"),
            "sigma": cp.getfloat("data", "sigma", fallback=0.5),
            "amplitude": cp.getfloat("data", "amplitude", fallback=1.0),
            "n": cp.getint("grid", "n", fallback=64),
            "box_length": cp.getfloat("grid", "box_length", fallback=16.0),
            "t_start": cp.getfloat("times", "start", fallback=100.0),
            "t_stop": cp.getfloat("times", "stop", fallback=10000.0),
            "t_count": cp.getint("times", "count", fallback=9),
            "dt": cp.getfloat("solver", "dt", fallback=1.25),
            "t_end": cp.getfloat("solver", "t_end", fallback=25.0),
            "picard_tol": cp.getfloat("solver", "picard_tol", fallback=1e-9),
            "picard_max_iter": cp.getint("solver", "picard_max_iter", fallback=25),
            "tensor": cp.get("solver", "tensor", fallback="default"),
            "oracle_samples": cp.getint("kernels", "oracle_samples", fallback=40),
        }
        _solver_config(cfg)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"config validation failure: {exc}") from exc
    if cfg["suite"] not in SUITES:
        raise ConfigError(f"unknown suite {cfg['suite']!r}")
    if cfg["family"] not in ("gaussian", "dgaussian", "band_random"):
        raise ConfigError(f"unknown data family {cfg['family']!r}")
    if cfg["tensor"] not in ("default", "diagonal", "zero"):
        raise ConfigError(f"unknown contraction tensor {cfg['tensor']!r}")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    cfg["config_hash"] = digest
    return cfg


def _solver_config(cfg: dict, scale: float = 1.0) -> SolverConfig:
    """Validated solver settings; ``scale`` shrinks both ``dt`` and ``t_end``."""
    return SolverConfig(
        dt=cfg["dt"] / scale,
        t_end=cfg["t_end"] / scale,
        picard_tol=cfg["picard_tol"],
        picard_max_iter=cfg["picard_max_iter"],
    )


def _times(cfg: dict) -> np.ndarray:
    return np.geomspace(cfg["t_start"], cfg["t_stop"], cfg["t_count"])


def _tensor(cfg: dict) -> ContractionTensor:
    return {
        "default": ContractionTensor.default,
        "diagonal": ContractionTensor.diagonal,
        "zero": ContractionTensor.zero,
    }[cfg["tensor"]]()


def _grid_data(cfg: dict, rng: np.random.Generator):
    """(f0, f1) physical fields for the configured data family."""
    grid = make_grid(cfg["n"], cfg["box_length"])
    L = grid.box_length
    x = [grid.x_component(a) - L / 2.0 for a in range(3)]
    r2 = x[0] ** 2 + x[1] ** 2 + x[2] ** 2
    sig = cfg["sigma"]
    if cfg["family"] == "gaussian":
        prof = np.exp(-r2 / (2.0 * sig**2)) / (sig**3 * (2.0 * np.pi) ** 1.5)
    elif cfg["family"] == "dgaussian":
        base = np.exp(-r2 / (2.0 * sig**2)) / (sig**3 * (2.0 * np.pi) ** 1.5)
        prof = -x[0] / sig**2 * base
    else:  # band_random
        prof = rng.standard_normal(grid.shape)
        ph = transform(VectorField(grid, np.stack([prof] * 3), "physical"))
        mask = grid.radius <= 0.5 * np.max(np.abs(grid.xi1))
        prof = transform(VectorField(grid, ph.data * mask, "spectral")).data[0]
    amp = cfg["amplitude"]
    data = amp * np.stack([prof, prof, prof])
    f0 = VectorField(grid, np.zeros_like(data), "physical")
    f1 = VectorField(grid, data, "physical")
    return f0, f1


# ---------------------------------------------------------------------------
# suites


def _suite_kernels(cfg: dict):
    lame: LameParams = cfg["lame"]
    rng = np.random.default_rng(cfg["seed"])
    n_samp = cfg["oracle_samples"]
    worst = 0.0
    for _ in range(n_samp):
        beta, nu = rng.uniform(0.1, 4.0, 2)
        r = rng.uniform(0.0, 8.0)
        t = rng.uniform(0.0, 20.0)
        dp = DampingParams(beta, nu)
        w0, w1 = rng.standard_normal(2)
        w, _ = mode_oracle(t, r, dp, w0, w1)
        closed = kernel_hat(t, r, dp, "K0") * w0 + kernel_hat(t, r, dp, "K1") * w1
        worst = max(worst, abs(closed - w) / max(abs(w), 1e-10 / 1e-8))
    cutoff = default_cutoffs(lame)
    ts = np.linspace(0.0, 20.0, 50)
    rs = np.linspace(1e-3, 0.99 * cutoff.c0, 50)
    res_worst = 0.0
    for dp in (lame.long_params, lame.trans_params):
        for t in ts:
            r24, r25 = lowfreq_residual(t, rs, dp)
            res_worst = max(res_worst, float(np.max((r24 + r25) / (1.0 + t))))
    rows = []
    for dp, fam in ((lame.long_params, "long"), (lame.trans_params, "trans")):
        for t in (0.5, 2.0, 10.0):
            for r in rs[::10]:
                ke = kernel_eval(float(t), float(r), dp)
                rows.append(
                    {
                        "family": fam,
                        "t": t,
                        "r": float(r),
                        "beta": dp.beta,
                        "nu": dp.nu,
                        "k0": ke.k0,
                        "k1": ke.k1,
                        "g0": ke.g0,
                        "g1": ke.g1,
                        "branch": ke.branch,
                    }
                )
    assertions = [
        _assert("1", "kernel-oracle relative error", worst, 1e-8, "<="),
        _assert("2", "low-frequency representation residual / (1+t)", res_worst, 1e-10, "<="),
    ]
    return {"kernel_table": rows}, assertions, {}


def _decay_rows(times, values):
    return [{"t": float(t), "value": float(v)} for t, v in zip(times, values)]


def _decay_sidecar(rep, cfg: dict) -> dict:
    return {
        "slope": rep.slope,
        "ci95": rep.ci95,
        "expected": rep.expected,
        "norm_id": rep.norm_id,
        "power_law_ok": rep.power_law_ok,
        "scenario_hash": cfg["config_hash"],
    }


def _suite_linear_decay(cfg: dict):
    lame = cfg["lame"]
    src = LinearSource.gaussian(sigma=cfg["sigma"])
    times = _times(cfg)
    series, assertions, sidecars = {}, [], {}
    for spec, target in (
        (NormSpec(1, 0, 2.0), -0.75),
        (NormSpec(2, 0, 2.0), -1.25),
        (NormSpec(3, 0, 2.0), -1.75),
        (NormSpec(0, 1, 2.0), -0.75),
        (NormSpec(1, 1, 2.0), -1.25),
    ):
        vals = [linear_norm(lame, src, spec, float(t)) for t in times]
        rep = decay_slope(times, vals, expected=target, norm_id=spec.label())
        key = f"decay_{spec.alpha}_{spec.ell}"
        series[key] = _decay_rows(times, vals)
        sidecars[key] = _decay_sidecar(rep, cfg)
        assertions.append(
            _assert("3", f"slope {spec.label()}", abs(rep.slope - target), 0.05, "<=")
        )
    return series, assertions, sidecars


def _suite_smoothing(cfg: dict):
    lame = cfg["lame"]
    src = LinearSource.gaussian(sigma=cfg["sigma"])
    times = _times(cfg)
    series, assertions, sidecars = {}, [], {}
    for spec, target, tol in (
        (NormSpec(0, 0, math.inf), -1.5, 0.1),
        (NormSpec(1, 0, math.inf), -2.0, 0.1),
        (NormSpec(0, 2, 2.0), -1.25, 0.1),
    ):
        vals = [linear_norm(lame, src, spec, float(t)) for t in times]
        rep = decay_slope(times, vals, expected=target, norm_id=spec.label())
        key = f"smoothing_{spec.alpha}_{spec.ell}_{'inf' if math.isinf(spec.p) else int(spec.p)}"
        series[key] = _decay_rows(times, vals)
        sidecars[key] = _decay_sidecar(rep, cfg)
        assertions.append(
            _assert("4", f"slope {spec.label()}", abs(rep.slope - target), tol, "<=")
        )
    return series, assertions, sidecars


_PROFILE_SET = tuple(
    (which, NormSpec(alpha, ell, p))
    for (which, ell), table in sorted(SUPPORTED_NORMS.items())
    for p, alphas in sorted(table.items())
    for alpha in alphas
)


def _suite_profile_error(cfg: dict):
    lame = cfg["lame"]
    src = LinearSource.gaussian(sigma=cfg["sigma"])
    times = _times(cfg)
    series, assertions, sidecars = {}, [], {}
    for which, spec in _PROFILE_SET:
        sol, err = profile_error_series(src, which, spec, times, lame=lame)
        tag = f"profile_{which}_{spec.alpha}_{spec.ell}_{'inf' if math.isinf(spec.p) else int(spec.p)}"
        series[tag + "_sol"] = _decay_rows(times, sol.values)
        series[tag + "_err"] = _decay_rows(times, err.values)
        sidecars[tag + "_sol"] = _decay_sidecar(sol, cfg)
        sidecars[tag + "_err"] = _decay_sidecar(err, cfg)
        gain = sol.slope - err.slope
        assertions.append(_assert("5", f"profile gain {which} {spec.label()}", gain, 0.35, ">="))
    return series, assertions, sidecars


def _suite_nonlinear(cfg: dict):
    lame = cfg["lame"]
    f0, f1 = _grid_data(cfg, np.random.default_rng(cfg["seed"]))
    grid = f0.grid
    scale = 1e-3 / x1_data_seminorm(f0, f1)

    def scaled(eps):
        return (
            VectorField(grid, eps * f0.data, "physical"),
            VectorField(grid, eps * f1.data, "physical"),
        )

    sc = _solver_config(cfg, scale=5.0)
    # Linear consistency with the zero tensor.
    fz0, fz1 = scaled(scale)
    traj0 = evolve(fz0, fz1, lame, ContractionTensor.zero(), sc)
    lin_end = linear_propagate(transform(fz0), transform(fz1), float(traj0.times[-1]), lame)
    num = np.max(np.abs(traj0.states[-1].displacement_hat.data - lin_end.displacement_hat.data))
    den = max(np.max(np.abs(lin_end.displacement_hat.data)), 1e-300)
    lin_err = num / den
    del traj0, lin_end

    # Amplitude scaling of the deviation from the homogeneous solution.
    devs = []
    for eps_fac in (1.0, 0.5):
        fe0, fe1 = scaled(scale * eps_fac)
        traj = evolve(fe0, fe1, lame, _tensor(cfg), sc)
        fe0h, fe1h = transform(fe0), transform(fe1)
        worst = 0.0
        for t, st in zip(traj.times[1:], traj.states[1:]):
            lin = linear_propagate(fe0h, fe1h, float(t), lame)
            dnum = np.linalg.norm(st.displacement_hat.data - lin.displacement_hat.data)
            dden = max(np.linalg.norm(lin.displacement_hat.data), 1e-300)
            worst = max(worst, dnum / dden)
        devs.append(worst)
        del traj
    ratio = devs[1] / max(devs[0], 1e-300)
    series = {
        "nonlinear_deviation": [
            {"eps_factor": 1.0, "relative_deviation": devs[0]},
            {"eps_factor": 0.5, "relative_deviation": devs[1]},
        ]
    }
    assertions = [
        _assert("8", "zero-tensor consistency with the propagator", lin_err, 1e-10, "<="),
        _assert("8", "deviation ratio under amplitude halving", abs(ratio - 0.5), 0.1, "<="),
    ]
    return series, assertions, {}


def _suite_picard(cfg: dict):
    lame = cfg["lame"]
    f0, f1 = _grid_data(cfg, np.random.default_rng(cfg["seed"]))
    grid = f0.grid
    scale = 1e-3 / x1_data_seminorm(f0, f1)
    f0 = VectorField(grid, scale * f0.data, "physical")
    f1 = VectorField(grid, scale * f1.data, "physical")
    sc = _solver_config(cfg)
    tensor = _tensor(cfg)
    traj_p, history = picard_iterate(f0, f1, lame, tensor, sc)
    traj_e = evolve(f0, f1, lame, tensor, sc)
    dist = x1_distance(traj_e, traj_p)
    ratios = [h["ratio"] for h in history if h["ratio"] is not None]
    worst_ratio = max(ratios) if ratios else 0.0
    series = {
        "picard_history": [
            {"iteration": h["iteration"], "distance": h["distance"], "ratio": h["ratio"] or 0.0}
            for h in history
        ]
    }
    assertions = [
        _assert("7", "contraction ratio from iteration 2 on", worst_ratio, 0.5, "<="),
        _assert("7", "fixed point vs marching (X1)", dist, 5.0 * sc.picard_tol, "<="),
        _assert("7", "marched X1 norm finite", x1_norm(traj_e), math.inf, "<="),
        _assert(
            "7", "last Picard increment below picard_tol", history[-1]["distance"], sc.picard_tol, "<"
        ),
    ]
    return series, assertions, {}


def _suite_audit(cfg: dict):
    lame = cfg["lame"]
    cutoff = default_cutoffs(lame)
    rng = np.random.default_rng(cfg["seed"])
    series, assertions, sidecars = {}, [], {}

    # Mid/high exponential decay of the banded kernels.  The mid bump sits in
    # the overdamped part of the band: oscillatory modes make the norm beat,
    # which is no exponential's fault but ruins a residual check.
    c0, c1 = cutoff.c0, cutoff.c1
    m_lo = max(c0, 1.1 * 2.0 * max(lame.beta_long, lame.beta_trans) / lame.nu)
    ghat_mid = lambda r: np.exp(-(((r - 0.5 * (m_lo + c1)) / ((c1 - m_lo) / 6.0)) ** 2))
    ghat_high = lambda r: np.exp(-(((r - 2.2 * c1) / 1.0) ** 2))
    for part, ghat in (("M", ghat_mid), ("H", ghat_high)):
        for which in ("K0", "K1"):
            fit = decay_fit(part, which, ghat, lame, cutoff=cutoff)
            series[f"decayfit_{part}_{which}"] = _decay_rows(fit.times, fit.values)
            sidecars[f"decayfit_{part}_{which}"] = {
                "part": part,
                "which": which,
                "c_fit": fit.c_fit,
                "prefactor": fit.prefactor,
                "residual": fit.residual,
                "rate_ci95": fit.rate_ci95,
                "scenario_hash": cfg["config_hash"],
            }
            assertions.append(
                _assert("6", f"{part}/{which} decay rate positive", fit.c_fit, 0.0, ">")
            )
            assertions.append(
                _assert("6", f"{part}/{which} fit residual", fit.residual, 0.05, "<=")
            )
            if part == "H" and which == "K1":
                # Envelope in units of the data gradient norm, with the fitted
                # intercept inflated by the observed worst deviation.
                log_range = float(np.ptp(np.log(fit.values)))
                pref = fit.prefactor * math.exp(fit.residual * log_range) / fit.grad_norm
                envelope = pref * np.exp(-fit.c_fit * fit.times) * fit.grad_norm
                margin = float(np.max(fit.values / envelope))
                assertions.append(
                    _assert("6", "high-band gradient-norm envelope", margin, 1.0 + 1e-9, "<=")
                )

    # Dilation invariance of the interpolation ratios (needs fine sampling:
    # high powers narrow the effective profile).
    grid = make_grid(128, 24.0)
    gauss = lambda x, y, z: np.exp(-(x * x + y * y + z * z) / 2.0)
    for ineq in ("GN_INF", "GN_L1", "GRAD_2P", "SOB_6"):
        ratios = dilation_ratios(ineq, gauss, grid, (0.5, 1.0, 2.0))
        spread = (max(ratios) - min(ratios)) / max(ratios)
        series[f"dilation_{ineq}"] = [
            {"lam": lam, "ratio": val} for lam, val in zip((0.5, 1.0, 2.0), ratios)
        ]
        assertions.append(_assert("9", f"{ineq} dilation invariance", spread, 1e-6, "<="))

    # Riesz contraction on random band-limited fields.
    from .audit import inequality_check

    worst = 0.0
    for _ in range(5):
        data = np.zeros((3, *grid.shape))
        data[0] = rng.standard_normal(grid.shape)
        fld = VectorField(grid, data, "physical")
        worst = max(worst, inequality_check("RIESZ", fld))
    assertions.append(_assert("9", "Riesz l2 ratio", worst, 1.0, "<="))

    # Heat-multiplier L^1 decay slopes.
    ts = np.geomspace(2.0, 200.0, 9)
    for alpha, ell, target in ((1, 0, -0.5), (2, 0, -1.0), (0, 1, -1.0)):
        vals = [heat_multiplier_l1(float(t), lame.nu, cutoff, alpha, ell) for t in ts]
        rep = decay_slope(ts, vals, expected=target)
        series[f"heat_l1_{alpha}_{ell}"] = _decay_rows(ts, vals)
        assertions.append(
            _assert("9", f"heat L1 slope (alpha={alpha}, ell={ell})", rep.slope, target + 0.1, "<=")
        )

    # Symbol bound scans with density doubling.
    for dp, fam in ((lame.long_params, "long"), (lame.trans_params, "trans")):
        r_hi = min(cutoff.c0, 0.9 * dp.root_threshold)
        for bid in SYMBOL_BOUNDS:
            r1 = symbol_bound_scan(bid, (1.0, 1e3), (1e-3, r_hi), dp, 64, cfg["seed"])
            r2 = symbol_bound_scan(bid, (1.0, 1e3), (1e-3, r_hi), dp, 128, cfg["seed"])
            hi = max(r1.max_ratio, r2.max_ratio)
            lo = max(min(r1.max_ratio, r2.max_ratio), 1e-300)
            series[f"scan_{fam}_{bid}"] = [
                {"density": 64, "sup_ratio": r1.max_ratio},
                {"density": 128, "sup_ratio": r2.max_ratio},
            ]
            sidecars[f"scan_{fam}_{bid}"] = {
                "bound_id": bid,
                "family": fam,
                "t_range": list(r1.t_range),
                "r_range": list(r1.r_range),
                "sup_ratios": [r1.max_ratio, r2.max_ratio],
                "samples": [r1.samples, r2.samples],
                "densities": [r1.density, r2.density],
                "seed": r1.seed,
                "scenario_hash": cfg["config_hash"],
            }
            assertions.append(_assert("10", f"{fam}/{bid} sup finite", hi, math.inf, "<"))
            assertions.append(_assert("10", f"{fam}/{bid} density stability", hi / lo, 2.0, "<"))
    return series, assertions, sidecars


_SUITE_FN = {
    "kernels": _suite_kernels,
    "linear-decay": _suite_linear_decay,
    "smoothing": _suite_smoothing,
    "profile-error": _suite_profile_error,
    "nonlinear": _suite_nonlinear,
    "picard": _suite_picard,
    "audit": _suite_audit,
}


# ---------------------------------------------------------------------------
# reporting


def _assert(criterion: str, name: str, value: float, bound: float, op: str) -> dict:
    ok = {
        "<=": value <= bound,
        "<": value < bound,
        ">=": value >= bound,
        ">": value > bound,
    }[op]
    return {
        "criterion": criterion,
        "name": name,
        "value": float(value),
        "bound": bound if math.isfinite(bound) else str(bound),
        "op": op,
        "passed": bool(ok),
    }


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def emit_report(results: dict, out_dir: Path, fmt: str = "csv") -> list[Path]:
    """Write series tables with bit-stable formatting; returns written paths."""
    if not results:
        raise ValueError("emit_report requires nonempty results")
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, rows in sorted(results.items()):
        if fmt == "csv":
            path = out_dir / f"{name}.csv"
            keys = sorted(rows[0].keys()) if rows else []
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(keys)
                for row in rows:
                    writer.writerow([_fmt(row[k]) for k in keys])
        elif fmt == "json":
            path = out_dir / f"{name}.json"
            path.write_text(json.dumps(rows, sort_keys=True, indent=1))
        else:
            raise ValueError(f"unknown report format {fmt!r}")
        written.append(path)
    return written


def run_scenario(config_path, out_dir, seed: int | None = None, suite: str | None = None) -> int:
    """Execute the configured suite; return the process exit status.

    With ``suite`` given, a config for another suite is a usage error.
    """
    try:
        cfg = _parse_config(Path(config_path))
        if suite is not None and suite != cfg["suite"]:
            raise ConfigError(f"config is for suite {cfg['suite']!r}, not {suite!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if seed is not None:
        cfg["seed"] = seed
    out = Path(out_dir)

    series, assertions, sidecars = _SUITE_FN[cfg["suite"]](cfg)

    out.mkdir(parents=True, exist_ok=True)
    emit_report(series, out, "csv")
    for name, payload in sorted(sidecars.items()):
        (out / f"{name}.json").write_text(json.dumps(payload, sort_keys=True, indent=1))
    passed = all(a["passed"] for a in assertions)
    summary = {
        "scenario": cfg["name"],
        "suite": cfg["suite"],
        "passed": passed,
        "assertions": assertions,
    }
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1))
    manifest = {
        "config_hash": cfg["config_hash"],
        "seed": cfg["seed"],
        "toolkit_version": __version__,
        "scenario": cfg["name"],
        "suite": cfg["suite"],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
    for a in assertions:
        status = "PASS" if a["passed"] else "FAIL"
        print(f"[{status}] criterion {a['criterion']}: {a['name']} = {a['value']:.6g}")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="viscowave",
        description="Spectral verification suites for damped elastic waves",
    )
    sub = parser.add_subparsers(dest="suite", required=True)
    for name in SUITES:
        sp = sub.add_parser(name, help=f"run the {name} suite")
        sp.add_argument("--config", required=True, help="scenario config (INI)")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
    args = parser.parse_args(argv)
    return run_scenario(args.config, args.out, seed=args.seed, suite=args.suite)


if __name__ == "__main__":
    sys.exit(main())
