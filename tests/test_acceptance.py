"""Acceptance suite: one test per quantitative exit criterion.

Criteria 1-10 are implemented once, by the suites in ``viscowave.cli``.  Each
test here runs that code on its scenario and holds the result to a contract
written in the test: the exact ``(op, bound)`` list of the criterion's
assertions, all of which must pass.  Each test prints a PASS/FAIL line (run
with ``pytest -s`` to see them live).  The default scenario everywhere is
lambda = 0, mu = 1, nu = 1, so both wave families are active and distinct.
"""

import json
import math

import numpy as np
import pytest

from conftest import REPO_CONFIGS, centered_gaussian, checked_in, inverse_scalar
from viscowave.cli import nonlinear_check, picard_check, riesz_check, run_scenario
from viscowave.elastic import LameParams, Propagator, linear_propagate
from viscowave.grid import forward_scalar, make_grid
from viscowave.kernels import kernel_hat
from viscowave.solver import SolverConfig

LAME = LameParams(0.0, 1.0, 1.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def holds(num: int, assertions: list[dict], contract: list[tuple[str, float]]) -> None:
    """Criterion ``num``'s assertions carry exactly ``contract``'s (op, bound) list, all passed."""
    mine = [a for a in assertions if a["criterion"] == str(num)]
    terms = [(a["op"], float(a["bound"])) for a in mine]
    ok = terms == contract and all(a["passed"] for a in mine)
    detail = "; ".join(f"{a['name']} {a['value']:.3g} {a['op']} {a['bound']}" for a in mine)
    if terms != contract:
        detail += f" [contract {contract}, got {terms}]"
    report(num, ok, detail)


def suite_assertions(config, out, seed=None) -> list[dict]:
    """Run one suite and return the assertions its summary.json records."""
    run_scenario(config, out, seed=seed)
    return json.loads((out / "summary.json").read_text())["assertions"]


@pytest.fixture(scope="module")
def kernels_assertions(tmp_path_factory):
    """Criteria 1 and 2: the kernels suite with 200 oracle samples."""
    d = tmp_path_factory.mktemp("kernels")
    cfg = d / "kernels.ini"
    cfg.write_text(checked_in("kernels") + "\n[kernels]\noracle_samples = 200\n")
    return suite_assertions(cfg, d / "out", seed=20260810)


@pytest.fixture(scope="module")
def audit_assertions(tmp_path_factory):
    """Criteria 6, 9 and 10: the audit suite with criterion 10's scan seed."""
    return suite_assertions(REPO_CONFIGS / "audit.ini", tmp_path_factory.mktemp("audit"), seed=5)


def test_criterion_01_kernel_oracle_equivalence(kernels_assertions):
    holds(1, kernels_assertions, [("<=", 1e-8)])


def test_criterion_02_lowfreq_representation(kernels_assertions):
    holds(2, kernels_assertions, [("<=", 1e-10)])


def test_criterion_03_linear_decay_rates(tmp_path):
    holds(3, suite_assertions(REPO_CONFIGS / "linear-decay.ini", tmp_path), [("<=", 0.05)] * 5)


def test_criterion_04_smoothing_rates(tmp_path):
    holds(4, suite_assertions(REPO_CONFIGS / "smoothing.ini", tmp_path), [("<=", 0.1)] * 3)


def test_criterion_05_profile_convergence_gain(tmp_path):
    holds(5, suite_assertions(REPO_CONFIGS / "profile-error.ini", tmp_path), [(">=", 0.35)] * 13)


def test_criterion_06_mid_high_exponential_decay(audit_assertions):
    holds(6, audit_assertions, [(">", 0.0), ("<=", 0.05)] * 4 + [("<=", 1.0 + 1e-9)])


@pytest.fixture(scope="module")
def nonlinear_grid_data():
    g = make_grid(64, 16.0)
    return g, centered_gaussian(g, sigma=0.8).data, centered_gaussian(g, sigma=0.8).data


def test_criterion_07_fixed_point_construction(nonlinear_grid_data):
    sc = SolverConfig(dt=1.25, t_end=25.0, picard_tol=1e-10)
    _, assertions = picard_check(*nonlinear_grid_data, LAME, sc)
    holds(7, assertions, [("<=", 0.5), ("<=", 5.0 * 1e-10), ("<", math.inf), ("<", 1e-10)])


def test_criterion_08_nonlinear_consistency(nonlinear_grid_data):
    sc = SolverConfig(dt=0.25, t_end=5.0)
    _, assertions = nonlinear_check(*nonlinear_grid_data, LAME, sc)
    holds(8, assertions, [("<=", 1e-10), ("<=", 0.1)])


def test_criterion_09_inequality_audit(audit_assertions):
    # The suite's checks, then the Riesz contraction on its own small-grid scenario.
    riesz = riesz_check(make_grid(32, 16.0), np.random.default_rng(3), 10, 1.0 + 1e-14)
    contract = [("<=", 1e-6)] * 4 + [("<=", 1.0)]
    contract += [("<=", -0.5 + 0.1), ("<=", -1.0 + 0.1), ("<=", -1.0 + 0.1)]
    holds(9, audit_assertions + [riesz], contract + [("<=", 1.0 + 1e-14)])


def test_criterion_10_symbol_bound_scans(audit_assertions):
    holds(10, audit_assertions, [("<", math.inf), ("<", 2.0)] * 14)


def propagator_diagonalization(grid, lame, t):
    """Worst gap between the ``Propagator``'s 3x3 mode kernels and their eigenbasis form.

    Column ``c`` of each kernel is the propagation of unit data in component
    ``c``: as displacement for ``K0``, as velocity for ``K1``, with the
    velocity output giving time order 1.  On every nonzero half-lattice mode
    off the Nyquist planes, each kernel is compared with
    ``k_long q1 q1^T + k_trans (v2 v2^T + v3 v3^T)``: ``q1 = xi/|xi|``, ``v2``
    is Gram-Schmidt on the standard basis vector least aligned with ``q1``,
    ``v3 = q1 x v2``, and the scalar kernels are taken at the exact ``|xi|``.
    Returns (max-abs gap over K0/K1 at orders 0 and 1, number of modes).
    """
    prop = Propagator(grid, lame)
    zero = np.zeros((3, *grid.half_shape), dtype=np.complex128)
    cols = {}
    for c in range(3):
        unit = zero.copy()
        unit[c] = 1.0
        for which, (u, v) in (("K0", (unit, zero)), ("K1", (zero, unit))):
            out = prop.propagate(t, u, v)
            for order in (0, 1):
                cols[which, order, c] = out[order]

    h = grid.n // 2
    idx = np.indices(grid.half_shape)
    keep = np.all(idx != h, axis=0) & np.any(idx != 0, axis=0)
    xi = np.stack([grid.xi1[i[keep]] for i in idx])
    r = np.sqrt(np.sum(xi**2, axis=0))
    q1 = xi / r
    e = np.zeros_like(q1)
    e[np.argmin(np.abs(q1), axis=0), np.arange(r.size)] = 1.0
    v2 = e - np.sum(e * q1, axis=0) * q1
    v2 /= np.sqrt(np.sum(v2**2, axis=0))
    v3 = np.cross(q1, v2, axis=0)
    outer = lambda a: a[:, None] * a[None, :]

    worst = 0.0
    for which in ("K0", "K1"):
        for order in (0, 1):
            kl = kernel_hat(t, r, lame.long_params, which, order)
            kt = kernel_hat(t, r, lame.trans_params, which, order)
            rebuilt = kl * outer(q1) + kt * (outer(v2) + outer(v3))
            got = np.stack([cols[which, order, c][:, keep] for c in range(3)], axis=1)
            worst = max(worst, float(np.max(np.abs(got - rebuilt))))
    return worst, r.size


def test_criterion_11_structural_identities(tmp_path):
    worst_diag, modes = propagator_diagonalization(make_grid(16, 16.0), LAME, 1.1)
    assert modes == 1799

    g = make_grid(32, 16.0)
    f0h = forward_scalar(g, centered_gaussian(g, sigma=0.8).data)
    f1h = forward_scalar(g, centered_gaussian(g, sigma=0.6).data)
    first = linear_propagate(g, f0h, f1h, 1.7, LAME)
    two_step = linear_propagate(g, *first, 2.9, LAME)
    direct = linear_propagate(g, f0h, f1h, 4.6, LAME)
    scale = np.max(np.abs(direct[0]))
    semi = max(np.max(np.abs(a - b)) for a, b in zip(two_step, direct)) / scale

    lame_eq = LameParams(-1.0, 1.0, 1.0)
    f = forward_scalar(g, centered_gaussian(g, components=(1.0, 0.0, 0.0)).data)
    u = inverse_scalar(g, linear_propagate(g, np.zeros_like(f), f, 3.0, lame_eq)[0])
    decouple = max(np.max(np.abs(u[1])), np.max(np.abs(u[2]))) / np.max(np.abs(u[0]))

    cfg = tmp_path / "det.ini"
    cfg.write_text(
        "[scenario]\nname = det\nsuite = kernels\nseed = 5\n"
        "[kernels]\noracle_samples = 5\n"
    )
    assert run_scenario(cfg, tmp_path / "d1") == 0
    assert run_scenario(cfg, tmp_path / "d2") == 0
    bytes1 = {p.name: p.read_bytes() for p in sorted((tmp_path / "d1").iterdir())}
    bytes2 = {p.name: p.read_bytes() for p in sorted((tmp_path / "d2").iterdir())}
    deterministic = bytes1 == bytes2

    ok = worst_diag <= 1e-12 and semi <= 1e-10 and decouple <= 1e-14 and deterministic
    report(
        11,
        ok,
        f"diagonalization {worst_diag:.1e} on {modes} modes (<=1e-12); "
        f"semigroup {semi:.1e} (<=1e-10); decoupling {decouple:.1e}; "
        f"deterministic reports {deterministic}",
    )


def _summary(*ops_bounds, passed=True):
    return [
        {"criterion": "3", "name": f"check {i}", "value": 0.0, "bound": b, "op": op, "passed": passed}
        for i, (op, b) in enumerate(ops_bounds)
    ]


class TestContractHelper:
    """``holds`` rejects every way a suite's checks can drift from the contract."""

    CONTRACT = [("<=", 0.05), ("<", math.inf)]

    def test_matching_summary_passes(self):
        holds(3, _summary(("<=", 0.05), ("<", "inf")), self.CONTRACT)

    def test_other_criteria_are_ignored(self):
        other = {**_summary(("<=", 1.0))[0], "criterion": "4", "passed": False}
        holds(3, _summary(("<=", 0.05), ("<", "inf")) + [other], self.CONTRACT)

    @pytest.mark.parametrize(
        "assertions",
        [
            _summary(("<=", 0.06), ("<", "inf")),
            _summary(("<", 0.05), ("<", "inf")),
            _summary(("<=", 0.05)),
            _summary(("<=", 0.05), ("<", "inf"), ("<=", 1.0)),
            _summary(("<=", 0.05), ("<", "inf"), passed=False),
        ],
        ids=["changed-bound", "changed-op", "dropped", "extra", "failed"],
    )
    def test_drift_fails(self, assertions):
        with pytest.raises(AssertionError):
            holds(3, assertions, self.CONTRACT)
