"""One benchmark process: import su2drift, run a cold op, then measure.

Started by run.py in a fresh interpreter for every set-up probe and for every
workload run.  It prints READY as soon as its cold warm-up op is done (the
parent times set-up up to that line) and ends with one JSON line of raw
measurements: for a probe, only the speed-gauge figures that normalise its
set-up time.  The library is imported from the checkout's own src/ directory
and from nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_library():
    src = ROOT / "src"
    if not (src / "su2drift" / "__init__.py").is_file():
        sys.exit(f"worker: no su2drift package under {src}")
    sys.path.insert(0, str(src))
    import su2drift

    if Path(su2drift.__file__).resolve().parent != (src / "su2drift").resolve():
        sys.exit(f"worker: imported su2drift from {su2drift.__file__}, not {src}")


def _run_op(workload, inp, gauge=None):
    """Run one op in the timed region: (seconds, nominal seconds, output, error).

    With a speed gauge the seconds exclude its samples and the nominal
    seconds are normalised by them (speed.py); without one, both are wall
    seconds.
    """
    if gauge:
        gauge.begin()
    start = perf_counter()
    try:
        out = workload.op(inp)
        error = None
    except Exception as exc:  # a failed op is counted, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    if not gauge:
        duration = perf_counter() - start
        return duration, duration, out, error
    own, ref, kernel = gauge.end()
    return own, speed.normalised(own, ref, kernel), out, error


def _check(workload, inp, out, error):
    if error is not None:
        return error
    try:
        return workload.check(inp, out)
    except Exception as exc:  # a failing check is a failed op
        return f"check raised {type(exc).__name__}: {exc}"


def measure(workload, seed: int, seconds: float, first_index: int = 0, tracer=None, gauge=None):
    """Closed loop, one caller: run ops until they have taken `seconds`.

    Only time inside ops counts towards `seconds`, so every run measures the
    same amount of op time whatever its checks cost.  Returns (op durations,
    nominal op durations, [(op index, reason)] of failed ops).  At least one
    op runs.
    """
    from workloads import MEASURED

    durations, nominal, failures = [], [], []
    k = first_index
    while not durations or sum(durations) < seconds:
        inp = workload.make_input(seed, MEASURED, k)
        if tracer:
            tracer.begin_op(k)
        duration, norm, out, error = _run_op(workload, inp, gauge)
        if tracer:
            tracer.end_op()
        reason = _check(workload, inp, out, error)
        durations.append(duration)
        nominal.append(norm)
        if reason:
            failures.append((k, reason))
        k += 1
    return durations, nominal, failures


def machine_info() -> dict:
    import numpy
    import scipy

    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (
                (index / "size").read_text().strip()
            )
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, help="op time to measure; probes measure none")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", type=int, default=None,
                   help="set-up probe number: cold op only, no measurement")
    args = p.parse_args(argv)

    gauge = speed.SpeedGauge()
    gauge.begin()
    import_library()
    from workloads import SETUP, WORKLOADS

    workload = WORKLOADS[args.workload]
    setup_index = args.probe if args.probe is not None else 0
    inp = workload.make_input(args.seed, SETUP, setup_index)
    _, _, out, error = _run_op(workload, inp)
    _, setup_ref, _ = gauge.end()
    setup = {"setup_spent": gauge.spent, "setup_ref": setup_ref, "setup_kernel": speed.kernel_seconds()}
    print("READY", flush=True)
    setup_failure = _check(workload, inp, out, error)
    del out
    if args.probe is not None:
        if setup_failure:
            sys.exit(f"worker: set-up op failed its check: {setup_failure}")
        print(json.dumps(setup), flush=True)
        return

    result = {"setup_failure": setup_failure, "machine": machine_info(),
              "mc_samples_per_op": workload.mc_samples_per_op, **setup}
    if args.trace:  # untraced and traced phases alike in wall seconds
        gauge = None
    durations, nominal, failures = measure(workload, args.seed, args.seconds, gauge=gauge)
    result.update(durations=durations, nominal=nominal, failures=failures)
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced, _, traced_failures = measure(
                workload, args.seed, args.seconds, first_index=len(durations), tracer=tracer
            )
        finally:
            tracer.uninstall()
        layers, absent, idle = tracer.layer_metrics()
        result.update(traced_durations=traced, traced_failures=traced_failures,
                      layers=layers, absent=absent + tracer.absent, idle=idle)
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json",
                     workload=args.workload, seed=args.seed)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    try:
        main()
    finally:  # no speed-gauge sample may fire while the interpreter exits
        signal.setitimer(signal.ITIMER_REAL, 0)
