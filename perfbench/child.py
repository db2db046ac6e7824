"""One ``viscowave <suite>`` process, as the console script would run it, with probes.

Usage: python3 child.py --stamp FILE [--spans FILE] [--setup-only] -- <viscowave argv>

The probe wraps the suite function the CLI dispatches to, writing
``time.monotonic()`` to ``--stamp`` on the first call into the suite; the
launching process compares it with its own launch time to get set-up time.
With ``--setup-only`` the suite itself is skipped and the process also
records the thread and library context it started with.  With ``--spans``
the layer tracer is installed and its spans are written when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _context() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_after_import": len(os.listdir("/proc/self/task")),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "scipy_fft_workers": os.cpu_count(),
        "thread_env": {k: os.environ[k] for k in sorted(os.environ) if k.endswith("_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stamp", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.rest[1:] if args.rest[:1] == ["--"] else args.rest

    # scipy.fft sizes its thread pool for workers=-1 from os.cpu_count(), which
    # ignores the CPU affinity the launcher set; on fewer CPUs than that the
    # workers only take turns.  Report the usable CPUs, as Python 3.13's
    # os.process_cpu_count() does, before scipy is imported.
    allowed = len(os.sched_getaffinity(0))
    if allowed < (os.cpu_count() or allowed):
        os.cpu_count = lambda: allowed

    from viscowave import cli

    def probe(fn):
        def entered(cfg):
            payload = {"suite_entry": time.monotonic()}
            if args.setup_only:
                payload["context"] = _context()
            with open(args.stamp, "w") as fh:
                json.dump(payload, fh)
            if args.setup_only:
                raise SystemExit(0)
            return fn(cfg)

        return entered

    cli._SUITE_FN = {name: probe(fn) for name, fn in cli._SUITE_FN.items()}

    tracer = None
    if args.spans:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
