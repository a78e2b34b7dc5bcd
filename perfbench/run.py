"""Fixed-seed benchmark of satgrowth, run from the root of a checkout:

    python3 perfbench/run.py --workload mc-alpha10 --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a separate traced run with --trace 1.  The line before
it records the host, the run's settings and any failed check.  The exit code
is 0 when every check passed, 1 when one failed, and 2 when the checkout
holds no satgrowth sources.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 0
SETUP_REPEATS = 3
LAYERS = ("cnf", "dpll", "ensemble", "oracle", "annealed", "growth",
          "trajectory", "numerics")
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import "
                  + ", ".join("satgrowth." + m for m in LAYERS)
                  + "; print(time.perf_counter() - t)")


def pin_threads():
    """Size the BLAS and OpenMP pools to the usable cores.  Call before numpy
    loads; children inherit the setting."""
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)


def import_seconds():
    """Import time of every layer, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout)


def host_record():
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": NPROC,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def peak_rss_mb():
    """Peak resident memory of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "satgrowth", "__init__.py")):
        print(f"no satgrowth sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, SRC)
    import checks
    import workloads
    from spans import Tracer

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds, NPROC,
                                            checks.load_reference(), DEFAULT_SEED)
    setups = []

    def set_up():
        """One set-up: import every layer afresh, then make the inputs."""
        imported = import_seconds()
        start = time.perf_counter()
        inputs = wl.make_inputs()
        setups.append(imported + time.perf_counter() - start)
        return inputs

    for _ in range(SETUP_REPEATS):
        inputs = set_up()
    out = workloads.Outcomes()
    extra = {}
    if args.trace:
        # a run of its own: tracing never enters the end-to-end numbers
        layer = wl.trace(inputs, out, Tracer())
        listed = workloads.PER_LAYER
        values = dict.fromkeys((name for name, _, _ in listed), 0.0)
        unknown = set(layer) - set(values)
        if unknown:
            raise KeyError(f"per-layer metrics missing from PER_LAYER: {sorted(unknown)}")
        values.update(layer)
    else:
        res = wl.run(inputs, out)
        wl.check(res, out)
        # as many set-ups after the measured run as before, so that a slow
        # spell of the host does not move all of them together
        for _ in range(SETUP_REPEATS):
            set_up()
        listed = workloads.END_TO_END
        values = {"wall_s": statistics.median(res["walls"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": peak_rss_mb()}
        extra = {**wl.extra(res), "rep_walls": res["walls"]}
    metrics = {name: {"value": int(values[name]) if unit == "count" else values[name],
                      "unit": unit} for name, unit, _ in listed}

    info = {"host": host_record(), "workload": wl.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "reps": wl.reps,
            "default_seed": wl.at_default,
            "fail_frac": out.failed / out.attempted if out.attempted else 1.0,
            **extra, "failures": out.messages()[:20]}
    print(json.dumps(info))
    print(json.dumps({"correct": out.failed == 0 and out.attempted > 0,
                      "attempted": max(out.attempted, 1),
                      "failed": out.failed if out.attempted else 1,
                      "metrics": metrics}))
    return 0 if out.failed == 0 and out.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
