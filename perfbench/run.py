"""viscowave benchmark: closed-loop suite runs with end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload picard-32 --seed 1 --seconds 20 --trace 0

One client runs one ``viscowave <suite>`` process at a time from this
directory's pinned config, passing the workload seed through ``--seed``, and
starts the next only after the previous one has exited.  Each process is
bound to one CPU (see Runner).  ``--trace 0`` reports the end-to-end metrics
(medians over the run's processes); ``--trace 1`` runs one untraced and one
traced process and reports the per-layer metrics.  Every process's reports
are checked (see checks.py).
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import judge, report_digest  # noqa: E402
from spans import layer_metrics  # noqa: E402

# A benchmark run (set-up probes and suite processes) must end within 180 s;
# a process still running this long after the run started is killed.
RUN_DEADLINE_S = 170.0
# Set-up-only launches per run whose timing is discarded, then the number
# whose set-up times are kept in an end-to-end run (with each suite process's).
WARMUPS = 1
SETUP_PROBES = 1


@dataclass(frozen=True)
class Workload:
    suite: str
    config: str
    checks: int  # assertions the suite's summary.json holds when it runs to the end


# Why each workload was chosen, and which layers it exercises, is recorded in
# BENCHMARK.json and README.md.
WORKLOADS = {
    "picard-32": Workload("picard", "picard-32.ini", 3),
    "nonlinear-32": Workload("nonlinear", "nonlinear-32.ini", 2),
    "smoothing": Workload("smoothing", "smoothing.ini", 3),
    "audit": Workload("audit", "audit.ini", 45),
}


@dataclass
class Launch:
    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: float | None
    stamp: dict
    stderr: str


def launch(child_args, viscowave_argv, workdir: Path, deadline: float, pin_cpu=None) -> Launch:
    """Run one child process to completion and take its wall time and rusage."""
    workdir.mkdir(parents=True, exist_ok=True)
    stamp_path = workdir / "stamp.json"
    stamp_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "child.py"), "--stamp", str(stamp_path), *child_args,
           "--", *viscowave_argv]
    preexec = (lambda: os.sched_setaffinity(0, {pin_cpu})) if pin_cpu is not None else None
    with open(workdir / "stdout.txt", "w") as out, open(workdir / "stderr.txt", "w+") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=workdir, preexec_fn=preexec)
        watchdog = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    try:
        stamp = json.loads(stamp_path.read_text())
    except (OSError, ValueError):
        stamp = {}
    setup = stamp["suite_entry"] - t0 if "suite_entry" in stamp else None
    return Launch(proc.returncode, t1 - t0, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, setup, stamp, stderr)


class Runner:
    def __init__(self, name: str, seed: int, workdir: Path, deadline: float):
        self.name, self.wl = name, WORKLOADS[name]
        self.seed, self.workdir, self.deadline = seed, workdir, deadline
        self.config = HERE / "configs" / self.wl.config
        tol = None
        if self.wl.suite == "picard":
            cp = configparser.ConfigParser()
            cp.read(self.config)
            tol = cp.getfloat("solver", "picard_tol")
        self.picard_tol = tol
        self.count = 0
        self.digests: set[str] = set()
        # Suite processes run on one CPU.  On a shared host, FFT and BLAS
        # threads spread over several CPUs wait at every join for whichever
        # CPU another tenant holds, so their wall time swings far more than
        # their CPU time; on one CPU the two stay close.
        self.cpu = min(os.sched_getaffinity(0))

    def argv(self, out: Path):
        return [self.wl.suite, "--config", str(self.config), "--out", str(out),
                "--seed", str(self.seed)]

    def setup_probe(self) -> Launch:
        self.count += 1
        d = self.workdir / f"setup{self.count}"
        return launch(["--setup-only"], self.argv(d / "out"), d, self.deadline, self.cpu)

    def suite(self, label: str, spans: bool = False, all_cpus: bool = False):
        """Run the suite once; returns (Launch, Verdict, spans or None)."""
        self.count += 1
        d = self.workdir / f"run{self.count}"
        extra = ["--spans", str(d / "spans.json")] if spans else []
        run = launch(extra, self.argv(d / "out"), d, self.deadline,
                     None if all_cpus else self.cpu)
        verdict = judge(d / "out", self.wl.suite, self.wl.checks, run.status, run.stderr,
                        self.picard_tol)
        digest = report_digest(d / "out") if (d / "out").is_dir() else "-"
        if not all_cpus:
            self.digests.add(digest)
        elif digest not in self.digests:
            print("digest: the all-CPU run's reports differ from the one-CPU ones (FFT and BLAS "
                  "thread counts change rounding; informational)")
        setup = "-" if run.setup_s is None else f"{run.setup_s:.3f}"
        print(f"{label}: exit {run.status} wall {run.wall_s:.3f} s cpu {run.cpu_s:.3f} s "
              f"rss {run.rss_mb:.1f} MB setup {setup} s "
              f"checks {verdict.expected - verdict.failed}/{verdict.expected} "
              f"margin {verdict.margin:.6g} digest {digest[:16]}"
              + "".join(f"\n  {r}" for r in verdict.reasons))
        data = None
        if spans and (d / "spans.json").is_file():
            data = json.loads((d / "spans.json").read_text())
        return run, verdict, data


def host_snapshot() -> dict:
    """CPU steal ticks (all CPUs), load average and usable CPUs, from /proc."""
    snap = {"nproc": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        snap["steal_ticks"] = int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
        with open("/proc/loadavg") as fh:
            snap["loadavg"] = [float(x) for x in fh.read().split()[:3]]
    except OSError:
        pass
    return snap


def _metrics(values: dict, spec: list[dict]) -> dict:
    """Values labelled with their BENCHMARK.json units; the names must match the spec exactly."""
    units = {m["name"]: m["unit"] for m in spec}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def end_to_end(r: Runner, seconds: float, t_start: float):
    setups = [p.setup_s for p in (r.setup_probe() for _ in range(SETUP_PROBES))]
    runs = []
    while True:
        run, verdict, _ = r.suite(f"{r.name} #{len(runs) + 1}")
        runs.append((run, verdict))
        setups.append(run.setup_s)
        elapsed = time.monotonic() - t_start
        if elapsed + statistics.median(x.wall_s for x, _ in runs) > seconds:
            break
    if any(s is None for s in setups):
        raise RuntimeError("a process never reached the suite; see stderr.txt under the work dir")
    failed = sum(v.failed for _, v in runs)
    expected = sum(v.expected for _, v in runs)
    values = {
        "verdict_s": statistics.median(x.wall_s for x, _ in runs),
        "cpu_s": statistics.median(x.cpu_s for x, _ in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(x.rss_mb for x, _ in runs),
        "checks_passed_frac": 1.0 - failed / expected,
        "check_margin": min((v.margin for _, v in runs if math.isfinite(v.margin)), default=-1.0),
    }
    print(f"checks_failed_frac {failed / expected:.6g} ({failed} of {expected} checks failed); "
          f"samples: {len(runs)} suite runs, {len(setups)} set-up times")
    return runs, values


def traced(r: Runner):
    base, v0, _ = r.suite(f"{r.name} untraced")
    run, v1, data = r.suite(f"{r.name} traced", spans=True)
    runs = [(base, v0), (run, v1)]
    if data is None:
        raise RuntimeError("traced run wrote no spans")
    print("bindings: " + json.dumps(data["bindings"], sort_keys=True))
    values = layer_metrics(data["spans"])
    values["trace.overhead_frac"] = run.wall_s / base.wall_s - 1.0
    values["parallel.speedup"] = 0.0
    if r.name == "nonlinear-32":
        spread, v2, _ = r.suite(f"{r.name} on all CPUs", all_cpus=True)
        runs.append((spread, v2))
        values["parallel.speedup"] = base.wall_s / spread.wall_s
    return runs, values


def _digest_record(r: Runner):
    """Compare this run's report digest with the last run of the same workload and seed."""
    path = r.workdir.parent / "digests.json"
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        record = {}
    key = f"{r.name}/{r.seed}"
    digests = sorted(r.digests)
    if len(digests) > 1:
        print(f"digest: reports differ between reruns in this run: {digests}")
    elif key in record and record[key] != digests[0]:
        print(f"digest: reports drifted from the previous run of {key} (informational)")
    record[key] = digests[0]
    path.write_text(json.dumps(record, sort_keys=True, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "viscowave" / "cli.py").is_file():
        print(f"perfbench: no viscowave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    t_start = time.monotonic()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed = args.seed % 2**32
    workdir = HERE / ".work" / f"{args.workload}-{seed}-{os.getpid()}"
    runner = Runner(args.workload, seed, workdir, t_start + RUN_DEADLINE_S)
    print("workload " + next(w["name"] + ": " + w["why"] for w in bench["workloads"]
                             if w["name"] == args.workload))
    before = host_snapshot()
    print("host before: " + json.dumps(before, sort_keys=True))
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        # Warm-up launches compile bytecode and fill the page cache.  Their
        # timings are discarded; the first reports the libraries and threads in use.
        warm = [runner.setup_probe() for _ in range(WARMUPS)]
        print("context: " + json.dumps(warm[0].stamp.get("context", {}), sort_keys=True))
        if args.trace:
            runs, values = traced(runner)
        else:
            runs, values = end_to_end(runner, args.seconds, t_start)
        _digest_record(runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    after = host_snapshot()
    if before.get("steal_ticks") is not None and after.get("steal_ticks") is not None:
        after["steal_ticks_during_run"] = after["steal_ticks"] - before["steal_ticks"]
    print("host after: " + json.dumps(after, sort_keys=True))
    for name, v in values.items():
        print(f"  {name:48s} {v:.6g}")
    failed = sum(1 for _, v in runs if v.failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": _metrics(values, bench["per_layer" if args.trace else "end_to_end"]),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
