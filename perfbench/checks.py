"""Correctness of one suite invocation, judged from its exit status and report files.

The exit code alone is not trusted: each of these counts every expected
check as failed -- a nonzero exit, a traceback on stderr, a missing or
unreadable ``summary.json``, a summary naming another suite than the one
requested, any non-finite assertion value, and (picard) a last Picard
increment that is not below ``picard_tol``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# Reports excluded from the digest: the manifest records the seed and the
# config hash, which identify the run rather than its results.
_NOT_DIGESTED = {"manifest.json"}


@dataclass
class Verdict:
    failed: int
    expected: int
    margin: float = math.nan
    reasons: list[str] = field(default_factory=list)


def check_margin(assertions) -> float:
    """Smallest signed normalised slack over assertions with a finite nonzero bound.

    Slack is ``|bound - value| / |bound|``, positive on the passing side of
    the assertion's operator and negative on the failing side.  Returns NaN
    when no assertion qualifies.
    """
    slacks = []
    for a in assertions:
        try:
            bound, value = float(a["bound"]), float(a["value"])
        except (TypeError, ValueError):
            continue
        if not (math.isfinite(bound) and math.isfinite(value)) or bound == 0.0:
            continue
        gap = bound - value if a["op"] in ("<=", "<") else value - bound
        slacks.append(gap / abs(bound))
    return min(slacks) if slacks else math.nan


def _last_picard_distance(out_dir: Path) -> float:
    with open(out_dir / "picard_history.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return float(rows[-1]["distance"]) if rows else math.nan


def judge(out_dir, suite: str, expected: int, exit_code: int, stderr: str,
          picard_tol: float | None = None) -> Verdict:
    """Count failed checks of one invocation; ``expected`` is the suite's check count."""
    out_dir = Path(out_dir)

    def all_failed(reason):
        return Verdict(expected, expected, reasons=[reason])

    if "Traceback (most recent call last)" in stderr:
        return all_failed("traceback on stderr")
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        assertions = summary["assertions"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return all_failed(f"no usable summary.json ({exc.__class__.__name__})")
    if summary.get("suite") != suite:
        return all_failed(f"summary is for suite {summary.get('suite')!r}, not {suite!r}")
    if exit_code != 0:
        return all_failed(f"exit status {exit_code}")
    if not all(math.isfinite(float(a["value"])) for a in assertions):
        return all_failed("non-finite assertion value")
    if picard_tol is not None:
        try:
            last = _last_picard_distance(out_dir)
        except (OSError, ValueError, KeyError) as exc:
            return all_failed(f"no usable picard_history.csv ({exc.__class__.__name__})")
        if not last < picard_tol:
            return all_failed(f"Picard stopped at increment {last:g}, not below tol {picard_tol:g}")
    failed = sum(1 for a in assertions if not a["passed"])
    total = max(expected, len(assertions))
    failed += total - len(assertions)
    reasons = [f"failed: {a['name']}" for a in assertions if not a["passed"]]
    if len(assertions) < expected:
        reasons.append(f"{expected - len(assertions)} expected checks missing")
    return Verdict(failed, total, check_margin(assertions), reasons)


def report_digest(out_dir) -> str:
    """SHA-256 over the names and bytes of the report files, manifest excluded."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        if path.is_file() and path.name not in _NOT_DIGESTED:
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()
