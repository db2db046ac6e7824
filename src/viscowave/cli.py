"""Scenario-driven command-line front end.

Each subcommand runs one named experiment suite from an INI config, writes
plot-ready CSV series plus a JSON summary whose assertions reference the
acceptance-criterion numbers they implement, and exits 0 only if every
assertion passed.  All randomness is seeded from the config (or --seed), and
outputs are byte-stable across reruns: fixed float formatting, sorted keys,
no timestamps.

Exit status: 0 every check passed, 1 a check failed, 2 the config is unusable
(nothing is written), 3 the suite stopped on a toolkit error (summary.json
records it under ``error``).
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
    expected_solution_slope,
    linear_norm,
    profile_error_norms,
)
from .audit import (
    SYMBOL_BOUNDS,
    decay_fit,
    dilation_ratios,
    heat_multiplier_l1,
    inequality_check,
    symbol_bound_scan,
)
from .elastic import LameParams, Propagator, default_cutoffs, linear_propagate
from .exceptions import ConfigError, DegenerateInputError, ViscowaveError
from .grid import Grid3, forward_scalar, half_seminorm, make_grid
from .kernels import (
    DampingParams,
    diffusion_hat,
    kernel_branch,
    kernel_hat,
    lowfreq_residual,
    mode_oracle,
)
from .radial import radial_l2_norm
from .solver import (
    SolverConfig,
    evolve_stream,
    picard_iterate,
    x1_data_seminorm,
    x1_norm_and_distance,
)

# Not called here; kept bound because perfbench's layer tracer self-test expects it here.
from .grid import transform  # noqa: F401

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
        cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    try:
        scen = cp["scenario"]
        cfg = {
            "name": scen.get("name", path.stem),
            "suite": scen["suite"],
            "seed": _seed(scen.getint("seed", 1234)),
            "lame": LameParams(
                cp.getfloat("lame", "lambda", fallback=0.0),
                cp.getfloat("lame", "mu", fallback=1.0),
                cp.getfloat("lame", "nu", fallback=1.0),
            ),
            "family": cp.get("data", "family", fallback="gaussian"),
            "sigma": cp.getfloat("data", "sigma", fallback=0.5),
            "n": cp.getint("grid", "n", fallback=64),
            "box_length": cp.getfloat("grid", "box_length", fallback=16.0),
            "t_start": cp.getfloat("times", "start", fallback=100.0),
            "t_stop": cp.getfloat("times", "stop", fallback=10000.0),
            "t_count": cp.getint("times", "count", fallback=9),
            "dt": cp.getfloat("solver", "dt", fallback=1.25),
            "t_end": cp.getfloat("solver", "t_end", fallback=25.0),
            "picard_tol": cp.getfloat("solver", "picard_tol", fallback=1e-9),
            "picard_max_iter": cp.getint("solver", "picard_max_iter", fallback=25),
            "oracle_samples": cp.getint("kernels", "oracle_samples", fallback=40),
        }
        _solver_config(cfg)
        Grid3.check(cfg["n"], cfg["box_length"])
        if not (math.isfinite(cfg["sigma"]) and cfg["sigma"] > 0.0):
            raise ConfigError(f"[data] sigma must be finite and positive, got {cfg['sigma']}")
        if not 0.0 < cfg["t_start"] < cfg["t_stop"] < math.inf:
            raise ConfigError(
                f"[times] needs finite 0 < start < stop, got start={cfg['t_start']}, "
                f"stop={cfg['t_stop']}"
            )
        counts = (("t_count", "[times] count"), ("oracle_samples", "[kernels] oracle_samples"))
        for key, name in counts:
            if cfg[key] < 1:
                raise ConfigError(f"{name} must be at least 1, got {cfg[key]}")
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"config validation failure: {exc}") from exc
    if cfg["suite"] not in SUITES:
        raise ConfigError(f"unknown suite {cfg['suite']!r}")
    if cfg["family"] != "gaussian":
        raise ConfigError(f"unknown data family {cfg['family']!r}")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    cfg["config_hash"] = digest
    return cfg


def _seed(seed: int) -> int:
    """``seed`` if numpy's generator accepts it; a negative seed is a config error."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return seed


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


def _grid_data(cfg: dict):
    """``(grid, f0, f1)``: real ``(3, n, n, n)`` zeros, and a centred Gaussian in each component."""
    grid = make_grid(cfg["n"], cfg["box_length"])
    L = grid.box_length
    x = [grid.x_component(a) - L / 2.0 for a in range(3)]
    r2 = x[0] ** 2 + x[1] ** 2 + x[2] ** 2
    sig = cfg["sigma"]
    prof = np.exp(-r2 / (2.0 * sig**2)) / (sig**3 * (2.0 * np.pi) ** 1.5)
    f1 = np.stack([prof, prof, prof])
    return grid, np.zeros_like(f1), f1


# ---------------------------------------------------------------------------
# suites


def _suite_kernels(cfg: dict):
    lame: LameParams = cfg["lame"]
    rng = np.random.default_rng(cfg["seed"])
    # Each check takes np.max over its collected values, so a NaN fails it.
    errors = []
    for _ in range(cfg["oracle_samples"]):
        beta, nu = rng.uniform(0.1, 4.0, 2)
        r = rng.uniform(0.0, 8.0)
        t = rng.uniform(0.0, 20.0)
        dp = DampingParams(beta, nu)
        w0, w1 = rng.standard_normal(2)
        # The random combination, then K0 and K1 on their own.
        for a0, a1 in ((w0, w1), (1.0, 0.0), (0.0, 1.0)):
            w, _ = mode_oracle(t, r, dp, a0, a1)
            closed = kernel_hat(t, r, dp, "K0") * a0 + kernel_hat(t, r, dp, "K1") * a1
            errors.append(abs(closed - w) / max(abs(w), 1e-10 / 1e-8))
    # c0 = beta_min / nu lies below both families' root thresholds 2 beta / nu.
    cutoff = default_cutoffs(lame)
    ts = np.linspace(0.0, 20.0, 50)
    rs = np.linspace(1e-4, 0.99 * cutoff.c0, 50)
    residuals = []
    for dp in (lame.long_params, lame.trans_params):
        for t in ts:
            r24, r25 = lowfreq_residual(t, rs, dp)
            residuals.append(np.max((r24 + r25) / (1.0 + t)))
    table_rs = np.linspace(1e-3, 0.99 * cutoff.c0, 50)[::10]
    rows = []
    for dp, fam in ((lame.long_params, "long"), (lame.trans_params, "trans")):
        for t in (0.5, 2.0, 10.0):
            for r in map(float, table_rs):
                rows.append(
                    {
                        "family": fam,
                        "t": t,
                        "r": r,
                        "beta": dp.beta,
                        "nu": dp.nu,
                        "k0": kernel_hat(t, r, dp, "K0"),
                        "k1": kernel_hat(t, r, dp, "K1"),
                        "g0": diffusion_hat(t, r, dp, "G0"),
                        "g1": diffusion_hat(t, r, dp, "G1"),
                        "branch": kernel_branch(dp, r),
                    }
                )
    assertions = [
        _assert("1", "kernel-oracle relative error", np.max(errors), 1e-8, "<="),
        _assert(
            "2", "low-frequency representation residual / (1+t)", np.max(residuals), 1e-10, "<="
        ),
    ]
    return {"kernel_table": rows}, assertions, {}


def _decay_rows(times, values):
    return [{"t": float(t), "value": float(v)} for t, v in zip(times, values)]


def _fit_table(cfg: dict, times, table, columns):
    """Decay slope of each column of the time-by-norm ``table``.

    ``columns`` holds one ``(key, expected, norm_id)`` per column.  Returns
    the CSV rows and the slope sidecar under each key, and the slopes in
    column order.
    """
    series, sidecars, slopes = {}, {}, []
    for k, (key, expected, norm_id) in enumerate(columns):
        vals = [row[k] for row in table]
        rep = decay_slope(times, vals)
        series[key] = _decay_rows(times, vals)
        sidecars[key] = {
            "slope": rep.slope,
            "ci95": rep.ci95,
            "expected": expected,
            "norm_id": norm_id,
            "power_law_ok": rep.power_law_ok,
            "scenario_hash": cfg["config_hash"],
        }
        slopes.append(rep.slope)
    return series, sidecars, slopes


def _decay_checks(cfg: dict, criterion: str, specs, tol: float, key):
    """Decay slopes of the homogeneous solution's norms, each held to ``|slope - target| <= tol``.

    The target of each spec is ``expected_solution_slope(spec)``, and
    ``key(spec)`` names its series.  Time-outer: the sup/L^p norms at each
    time share one radial moment pass.
    """
    src = LinearSource.gaussian(sigma=cfg["sigma"])
    times = _times(cfg)
    table = [linear_norm(cfg["lame"], src, specs, float(t)) for t in times]
    targets = [expected_solution_slope(spec) for spec in specs]
    columns = [(key(spec), target, spec.label()) for spec, target in zip(specs, targets)]
    series, sidecars, slopes = _fit_table(cfg, times, table, columns)
    assertions = [
        _assert(criterion, f"slope {spec.label()}", abs(slope - target), tol, "<=")
        for spec, target, slope in zip(specs, targets, slopes)
    ]
    return series, assertions, sidecars


def _p_tag(spec: NormSpec) -> str:
    return "inf" if math.isinf(spec.p) else str(int(spec.p))


def _suite_linear_decay(cfg: dict):
    specs = [NormSpec(1, 0, 2.0), NormSpec(2, 0, 2.0), NormSpec(3, 0, 2.0)]
    specs += [NormSpec(0, 1, 2.0), NormSpec(1, 1, 2.0)]
    return _decay_checks(cfg, "3", specs, 0.05, lambda spec: f"decay_{spec.alpha}_{spec.ell}")


def _suite_smoothing(cfg: dict):
    specs = [NormSpec(0, 0, math.inf), NormSpec(1, 0, math.inf), NormSpec(0, 2, 2.0)]
    key = lambda spec: f"smoothing_{spec.alpha}_{spec.ell}_{_p_tag(spec)}"
    return _decay_checks(cfg, "4", specs, 0.1, key)


_PROFILE_SET = tuple(
    (which, NormSpec(alpha, ell, p))
    for (which, ell), table in sorted(SUPPORTED_NORMS.items())
    for p, alphas in sorted(table.items())
    for alpha in alphas
)


def _suite_profile_error(cfg: dict):
    times = _times(cfg)
    src = LinearSource.gaussian(sigma=cfg["sigma"])
    table = [profile_error_norms(src, _PROFILE_SET, float(t), cfg["lame"]) for t in times]
    columns = []
    for which, spec in _PROFILE_SET:
        tag = f"profile_{which}_{spec.alpha}_{spec.ell}_{_p_tag(spec)}"
        expected = expected_solution_slope(spec)
        columns += [
            (tag + "_sol", expected, spec.label()),
            (tag + "_err", expected - 0.5, spec.label() + ",err"),
        ]
    series, sidecars, slopes = _fit_table(cfg, times, table, columns)
    assertions = [
        _assert("5", f"profile gain {which} {spec.label()}", sol - err, 0.35, ">=")
        for (which, spec), sol, err in zip(_PROFILE_SET, slopes[::2], slopes[1::2])
    ]
    return series, assertions, sidecars


def _small_data(grid: Grid3, f0: np.ndarray, f1: np.ndarray):
    """``spectra(eps)``: half-lattice spectra of real ``(f0, f1)`` at X1 data seminorm ``eps 1e-3``.

    Each call transforms the scaled data with one ``forward_scalar`` per field.
    """
    scale = 1e-3 / x1_data_seminorm(grid, forward_scalar(grid, f0), forward_scalar(grid, f1))
    return lambda eps=1.0: (
        forward_scalar(grid, (scale * eps) * f0),
        forward_scalar(grid, (scale * eps) * f1),
    )


def _suite_nonlinear(cfg: dict):
    sc = _solver_config(cfg, scale=5.0)
    return (*nonlinear_check(*_grid_data(cfg), cfg["lame"], sc), {})


def nonlinear_check(
    grid: Grid3,
    f0: np.ndarray,
    f1: np.ndarray,
    lame: LameParams,
    sc: SolverConfig,
):
    """Criterion 8 on real data ``(f0, f1)`` scaled to X1 data seminorm 1e-3.

    Returns ``(series, assertions)``: the linear march against the linear
    propagator, and the deviation from the linear solution under amplitude
    halving.  Both compare half-lattice spectra as :func:`evolve_stream`
    yields them; no run's trajectory is held.  The deviation's norms sum the
    half lattice with ``half_seminorm``'s mirror weights.
    """
    spectra = _small_data(grid, f0, f1)

    # Consistency of the linear march; keep only the data and the last state.
    u0, v0 = spectra()
    for t_end, u_end, v_end in evolve_stream(grid, u0, v0, lame, sc, nonlinear=False):
        pass
    lin_u = linear_propagate(grid, u0, v0, t_end, lame)[0]
    lin_err = np.max(np.abs(u_end - lin_u)) / max(np.max(np.abs(lin_u)), 1e-300)
    del u_end, v_end, lin_u

    # Amplitude scaling of the deviation from the homogeneous solution.
    devs = []
    for eps_fac in (1.0, 0.5):
        if eps_fac != 1.0:  # the eps = 1 run reuses the linear march's data
            u0, v0 = spectra(eps_fac)
        states = evolve_stream(grid, u0, v0, lame, sc)
        next(states)
        deviations = []
        for t, u, v in states:
            # A Propagator per time keeps no time's tables alive.
            lin = Propagator(grid, lame, (t,)).propagate(t, u0, v0, velocity=False)[0]
            dnum = half_seminorm(grid, u - lin, 0)
            dden = max(half_seminorm(grid, lin, 0), 1e-300)
            deviations.append(dnum / dden)
            del u, v, lin  # hold nothing of this time while the march builds the next
        devs.append(float(np.max(deviations)))  # a NaN deviation fails the ratio check
        del u0, v0
    ratio = devs[1] / max(devs[0], 1e-300)
    series = {
        "nonlinear_deviation": [
            {"eps_factor": 1.0, "relative_deviation": devs[0]},
            {"eps_factor": 0.5, "relative_deviation": devs[1]},
        ]
    }
    assertions = [
        _assert("8", "linear march consistency with the propagator", lin_err, 1e-10, "<="),
        _assert("8", "deviation ratio under amplitude halving", abs(ratio - 0.5), 0.1, "<="),
    ]
    return series, assertions


def _suite_picard(cfg: dict):
    return (*picard_check(*_grid_data(cfg), cfg["lame"], _solver_config(cfg)), {})


def picard_check(
    grid: Grid3,
    f0: np.ndarray,
    f1: np.ndarray,
    lame: LameParams,
    sc: SolverConfig,
):
    """Criterion 7 on real data ``(f0, f1)`` scaled to X1 data seminorm 1e-3.

    Returns ``(series, assertions)``: Picard's contraction and convergence,
    and its fixed point against time marching.  The marched states are
    compared with Picard's as :func:`evolve_stream` yields them.
    """
    f0_hat, f1_hat = _small_data(grid, f0, f1)()
    traj_p, history = picard_iterate(grid, f0_hat, f1_hat, lame, sc)
    marched = evolve_stream(grid, f0_hat, f1_hat, lame, sc)
    marched_norm, dist = x1_norm_and_distance(marched, traj_p)
    ratios = [h["ratio"] for h in history if h["ratio"] is not None]
    # NaN when no ratio was measured, so the contraction check fails.
    worst_ratio = max(ratios) if ratios else math.nan
    series = {
        "picard_history": [
            {
                "iteration": h["iteration"],
                "distance": h["distance"],
                "ratio": "" if h["ratio"] is None else h["ratio"],
            }
            for h in history
        ]
    }
    assertions = [
        _assert("7", "contraction ratio from iteration 2 on", worst_ratio, 0.5, "<="),
        _assert("7", "fixed point vs marching (X1)", dist, 5.0 * sc.picard_tol, "<="),
        _assert("7", "marched X1 norm finite", marched_norm, math.inf, "<"),
        _assert(
            "7", "last Picard increment below picard_tol", history[-1]["distance"], sc.picard_tol, "<"
        ),
    ]
    return series, assertions


def riesz_check(grid: Grid3, rng: np.random.Generator, count: int, bound: float) -> dict:
    """Criterion 9's Riesz contraction: the worst l2 ratio over ``count`` random fields."""
    # Each field is drawn in the call, so it is freed once its spectrum is made.
    ratios = [
        inequality_check("RIESZ", grid, rng.standard_normal(grid.shape)) for _ in range(count)
    ]
    return _assert("9", "Riesz l2 ratio", np.max(ratios), bound, "<=")


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
                # Envelope fixed by the symbol, not the fit: on r >= c1 both
                # families are overdamped, the slow root is at least beta^2 / nu
                # and the root gap sqrt(nu^2 r^4 - 4 beta^2 r^2) at least its
                # value at c1, so |K1(t, r)| <= C e^{-c t} (see README, criterion 6).
                c_sym = min(lame.mu, lame.lam + 2.0 * lame.mu) / lame.nu
                C_sym = max(
                    1.0 / math.sqrt(lame.nu**2 * c1**4 - 4.0 * beta**2 * c1**2)
                    for beta in (lame.beta_long, lame.beta_trans)
                )
                banded = lambda r: cutoff.chi("H", r) * ghat_high(r)
                g_norm = radial_l2_norm(banded, banded, 0)
                envelope = C_sym * np.exp(-c_sym * fit.times) * g_norm
                margin = float(np.max(fit.values / envelope))
                sidecars["decayfit_H_K1"].update(c_sym=c_sym, C_sym=C_sym)
                assertions.append(
                    _assert("6", "high-band gradient-norm envelope", margin, 1.0 + 1e-9, "<=")
                )

    # Dilation invariance of the interpolation ratios (needs fine sampling:
    # high powers narrow the effective profile).
    grid = make_grid(128, 24.0)
    gauss = lambda x, y, z: np.exp(-(x * x + y * y + z * z) / 2.0)
    lams = (0.5, 1.0, 2.0)
    scan = dilation_ratios(("GN_INF", "GN_L1", "GRAD_2P", "SOB_6"), gauss, grid, lams)
    for ineq, ratios in scan.items():
        spread = (np.max(ratios) - np.min(ratios)) / np.max(ratios)  # NaN if any ratio is
        series[f"dilation_{ineq}"] = [
            {"lam": lam, "ratio": val} for lam, val in zip(lams, ratios)
        ]
        assertions.append(_assert("9", f"{ineq} dilation invariance", spread, 1e-6, "<="))

    assertions.append(riesz_check(grid, rng, 5, 1.0))

    # Heat-multiplier L^1 decay slopes.
    ts = np.geomspace(2.0, 200.0, 9)
    targets = {(1, 0): -0.5, (2, 0): -1.0, (0, 1): -1.0}
    per_t = [heat_multiplier_l1(float(t), lame.nu, cutoff, list(targets)) for t in ts]
    for i, ((alpha, ell), target) in enumerate(targets.items()):
        vals = [row[i] for row in per_t]
        rep = decay_slope(ts, vals)
        series[f"heat_l1_{alpha}_{ell}"] = _decay_rows(ts, vals)
        assertions.append(
            _assert("9", f"heat L1 slope (alpha={alpha}, ell={ell})", rep.slope, target + 0.1, "<=")
        )

    # Symbol bound scans with density doubling.
    densities = (64, 128)
    for dp, fam in ((lame.long_params, "long"), (lame.trans_params, "trans")):
        r_hi = min(cutoff.c0, 0.9 * dp.root_threshold)
        t_range, r_range = (1.0, 1e3), (1e-3, r_hi)
        for bid in SYMBOL_BOUNDS:
            sups = [
                symbol_bound_scan(bid, t_range, r_range, dp, d, cfg["seed"]) for d in densities
            ]
            # np.max and np.min keep a NaN ratio, so both checks fail on it.
            hi, lo = float(np.max(sups)), float(np.maximum(np.min(sups), 1e-300))
            series[f"scan_{fam}_{bid}"] = [
                {"density": d, "sup_ratio": sup} for d, sup in zip(densities, sups)
            ]
            sidecars[f"scan_{fam}_{bid}"] = {
                "bound_id": bid,
                "family": fam,
                "t_range": list(t_range),
                "r_range": list(r_range),
                "sup_ratios": sups,
                "samples": [d * d for d in densities],  # the mesh is density x density
                "densities": list(densities),
                "seed": cfg["seed"],
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


def emit_report(results: dict, out_dir: Path) -> list[Path]:
    """Write series tables as CSV with bit-stable formatting; returns written paths."""
    if not results:
        raise DegenerateInputError("emit_report requires nonempty results")
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, rows in sorted(results.items()):
        path = out_dir / f"{name}.csv"
        keys = sorted(rows[0].keys()) if rows else []
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(keys)
            for row in rows:
                writer.writerow([_fmt(row[k]) for k in keys])
        written.append(path)
    return written


def run_scenario(config_path, out_dir, seed: int | None = None, suite: str | None = None) -> int:
    """Execute the configured suite; return the process exit status (see the module doc).

    With ``suite`` given, a config for another suite is a usage error, and so
    is an ``out_dir`` that is, or lies under, an existing non-directory.  A
    toolkit error raised by the suite writes a failed summary.json that records
    it, prints one line to stderr and returns 3.
    """
    try:
        cfg = _parse_config(Path(config_path))
        if suite is not None and suite != cfg["suite"]:
            raise ConfigError(f"config is for suite {cfg['suite']!r}, not {suite!r}")
        if seed is not None:
            cfg["seed"] = _seed(seed)
        out = Path(out_dir)
        for path in (out, *out.parents):
            if path.exists() and not path.is_dir():
                raise ConfigError(f"output path {out}: {path} exists and is not a directory")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    summary = {"scenario": cfg["name"], "suite": cfg["suite"]}

    try:
        series, assertions, sidecars = _SUITE_FN[cfg["suite"]](cfg)
    except ViscowaveError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if getattr(exc, "achieved", None) is not None:
            error["achieved"] = float(exc.achieved)
        summary.update(passed=False, assertions=[], error=error)
        out.mkdir(parents=True, exist_ok=True)
        (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1))
        print(f"suite error: {error['type']}: {error['message']}", file=sys.stderr)
        return 3

    out.mkdir(parents=True, exist_ok=True)
    emit_report(series, out)
    for name, payload in sorted(sidecars.items()):
        (out / f"{name}.json").write_text(json.dumps(payload, sort_keys=True, indent=1))
    passed = all(a["passed"] for a in assertions)
    summary.update(passed=passed, assertions=assertions)
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
        epilog="exit status: 0 every check passed, 1 a check failed, 2 the config is "
        "unusable (nothing is written), 3 the suite stopped on a toolkit error "
        "(summary.json records it under 'error')",
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
