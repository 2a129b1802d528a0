"""su2drift benchmark: run one workload (or all) and print every metric.

    python3 perfbench/run.py --workload channel-large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads, metric names, units and directions are defined in BENCHMARK.json
at the repository root.  Each workload run is a closed loop with one caller
on one thread in a fresh process (worker.py), with BLAS pinned to one thread.
Op k of a run gets inputs drawn from numpy's default_rng([seed, workload id,
stream, k]), so the inputs do not depend on speed; the library receives only
these generated inputs.  Every output is checked outside the timed region.

The host's speed swings by up to 1.6x within seconds, so every time the
end-to-end metrics report is in nominal seconds: wall seconds normalised by
a fixed reference kernel timed on the same thread while the op runs
(speed.py).  --trace 0 reports the end-to-end metrics:
  setup_s            median over three fresh processes of the time from
                     process start, through `import su2drift`, to the end
                     of one cold op (one of them is the measuring process
                     itself), in nominal seconds
  ops_per_nominal_s  ops completed per nominal second spent in ops
  op_p50_nominal_s   median op latency in nominal seconds
  peak_rss_mb        peak resident set of the measuring process
It also prints, not as gated metrics, the same times in wall seconds, the
mean reference-kernel time over the ops (NOMINAL_REF_S on a host as fast as
the nominal one), failed_op_share, op_tail_nominal_s where a run has at
least 20 ops, and mc_samples_per_nominal_s on mc-oracle.  A run ends
once its ops have taken --seconds of wall time; time spent in checks and
input generation is not counted.  --trace 1 runs the same loop untraced and
then traced, for --seconds each, without the speed gauge, and reports per-op
layer metrics from the traced phase with the tracing overhead in wall
seconds; spans go to perfbench/out/.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Exit status is nonzero, with no JSON line, when the run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Every workload run, its probes included, must finish within this.
RUN_LIMIT_S = 170.0
#: Fresh processes timed for setup_s: the measuring process and two probes.
SETUP_RUNS = 3


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: list, deadline: float):
    """Start a worker, time it up to its READY line, then collect its output.

    Returns (wall and nominal set-up seconds, the worker's JSON result).
    The child is always waited for, and killed first if it overruns the
    deadline.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode == -signal.SIGKILL:
        raise BenchError(f"worker overran the {RUN_LIMIT_S:.0f} s limit: {' '.join(args)}")
    if line.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {' '.join(args)}")
    raw = json.loads(rest.splitlines()[-1])
    setup = ready - raw["setup_spent"]  # without the gauge's own samples
    return (setup, speed.normalised(setup, raw["setup_ref"], raw["setup_kernel"])), raw


def tail_percentile(durations: list):
    """Highest percentile with at least 10 samples beyond it, if it is >= p50."""
    n = len(durations)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(durations)[n - 11]


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict):
    """Run one workload; return (report lines, result dict for the JSON line)."""
    deadline = perf_counter() + RUN_LIMIT_S
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for probe in range(1, SETUP_RUNS):
            setups.append(_spawn([*common, "--probe", str(probe)], deadline)[0])
    setup, raw = _spawn([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(setup)

    durations = raw["traced_durations"] if trace else raw["durations"]
    failures = raw["failures"] + raw.get("traced_failures", [])
    attempted = len(raw["durations"]) + len(raw.get("traced_durations", []))
    correct = not failures and raw["setup_failure"] is None
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    report = [f"workload {name}  seed {seed}  seconds {seconds:g}  trace {trace}  ops {len(durations)}",
              f"machine {json.dumps(raw['machine'], sort_keys=True)}"]

    if trace:
        values = dict(raw["layers"])
        untraced = len(raw["durations"]) / sum(raw["durations"])
        traced = len(durations) / sum(durations)
        values.update({
            "trace.untraced_ops_per_s": untraced,
            "trace.traced_ops_per_s": traced,
            "trace.ops_per_s_ratio": traced / untraced,
        })
        names = [m["name"] for m in spec["per_layer"]]
        if raw["absent"]:
            report.append(f"  absent (reported as 0): {', '.join(raw['absent'])}")
        if raw["idle"]:
            report.append(f"  no cache lookups (ratio reported as 0): {', '.join(raw['idle'])}")
    else:
        nominal = raw["nominal"]
        values = {
            "setup_s": statistics.median(n for _, n in setups),
            "ops_per_nominal_s": len(nominal) / sum(nominal),
            "op_p50_nominal_s": statistics.median(nominal),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        names = [m["name"] for m in spec["end_to_end"]]
        report.append("  setup samples (wall s / nominal s): "
                      + ", ".join(f"{w:.4f} / {n:.4f}" for w, n in setups))
        report.append(f"  {'wall_setup_s':<40} {statistics.median(w for w, _ in setups):>14.6g} s")
        report.append(f"  {'wall_ops_per_s':<40} {len(durations) / sum(durations):>14.6g} 1/s")
        report.append(f"  {'wall_op_p50_s':<40} {statistics.median(durations):>14.6g} s")
        report.append(f"  {'reference_kernel_s':<40} "
                      f"{sum(durations) / sum(nominal) * speed.NOMINAL_REF_S:>14.6g} s")
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names}
    for n in names:
        report.append(f"  {n:<40} {values[n]:>14.6g} {units[n]}")

    report.append(f"  {'failed_op_share':<40} {len(failures) / attempted:>14.6g} share "
                  f"({len(failures)} of {attempted})")
    if not trace:
        tail = tail_percentile(nominal)
        if tail:
            report.append(f"  {'op_tail_nominal_s':<40} {tail[1]:>14.6g} s")
            report.append(f"  {'op_tail_percentile':<40} {tail[0]:>14.6g} %")
        else:
            report.append(f"  {'op_tail_nominal_s':<40} {'omitted':>14} ({len(nominal)} ops, needs 20)")
        if raw["mc_samples_per_op"]:
            rate = raw["mc_samples_per_op"] * len(durations) / sum(durations)
            report.append(f"  {'mc_samples_per_wall_s':<40} {rate:>14.6g} 1/s")
            rate = raw["mc_samples_per_op"] * len(nominal) / sum(nominal)
            report.append(f"  {'mc_samples_per_nominal_s':<40} {rate:>14.6g} 1/s")
    for k, reason in failures[:5]:
        report.append(f"  FAILED op {k}: {reason}")
    if raw["setup_failure"]:
        report.append(f"  FAILED set-up op: {raw['setup_failure']}")
    return report, {"correct": correct, "attempted": attempted, "failed": len(failures),
                    "metrics": metrics}


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds through _spawn, which kills its worker


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")

    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in chosen:
            report, results[name] = run_workload(name, args.seed, args.seconds, args.trace, spec)
            print("\n".join(report), flush=True)
    except (BenchError, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if len(chosen) == 1:
        final = results[chosen[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
