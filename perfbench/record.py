"""Run every workload over several seeds and write a record of the results.

    python3 perfbench/record.py --seeds 1-10 --sets 2 --out perfbench/records/NAME.json

For each set, workload and end-to-end metric the record holds the ten (or
however many) values, their median, quartiles and spread (inter-quartile
distance over the median, as statistics.quantiles(values, n=4) gives the
quartiles), and whether the spread is within the metric's bound from
BENCHMARK.json.  With two or more sets it also holds how much worse each
later set's median is than the first's, as a share of the first's.  With
--trace-seed it adds one traced run per workload (per-layer metrics and
tracing overhead).  Workloads run in turn within each seed, so slow phases
of the machine spread over all of them.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


#: A report line of run.py that holds one ungated figure: name, value, unit.
FIGURE = re.compile(r"^  (\S.*?)\s+(-?[0-9.]+(?:e[-+]?[0-9]+)?)\s+(\S+)$")


def run_once(workload: str, seed: int, trace: int) -> tuple:
    """One run.py invocation: (final JSON, machine dict, ungated figures)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"record.py: {' '.join(cmd)} failed:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    machine = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("machine "))
    final = json.loads(lines[-1])
    figures = {}
    for line in lines:
        match = FIGURE.match(line)
        if match and match[1] not in final["metrics"]:
            figures[match[1]] = float(match[2])
    return final, machine, figures


def summarise(values: list, bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound, "within_bound": spread <= bound}


def _worse_by(first: float, later: float, better: str) -> float:
    """How much worse `later` is than `first`, as a share of `first`."""
    return (later - first) / first if better == "lower" else (first - later) / first


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--sets", type=int, default=1, help="sets of runs over the same seeds")
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--trace-seed", type=int, default=None)
    p.add_argument("--revision", default=None, help="revision of the measured code")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    seeds = _seeds(args.seeds)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = []
    machine = None
    for n in range(args.sets):
        values = {w: {m: [] for m in metrics} for w in args.workloads}
        figures = {w: {} for w in args.workloads}
        attempted = failed = 0
        for seed in seeds:
            for w in args.workloads:
                res, machine, extra = run_once(w, seed, 0)
                attempted += res["attempted"]
                failed += res["failed"]
                for m in metrics:
                    values[w][m].append(res["metrics"][m]["value"])
                for name, value in extra.items():
                    figures[w].setdefault(name, []).append(value)
                print(f"set {n + 1} {w} seed {seed}: " + ", ".join(
                    f"{m}={res['metrics'][m]['value']:.5g}" for m in metrics), flush=True)
        sets.append({"attempted": attempted, "failed": failed,
                     "end_to_end": {w: {m: summarise(v, metrics[m]["bound"]) for m, v in ms.items()}
                                    for w, ms in values.items()},
                     "ungated_medians": {w: {name: statistics.median(v) for name, v in fs.items()}
                                         for w, fs in figures.items()}})

    record = {
        "revision": args.revision,
        "command": spec["command"],
        "seed": "--seed <n>; op k draws its inputs from numpy default_rng([seed, workload id, stream, k])",
        "seeds": seeds,
        "run_seconds": spec["run_seconds"],
        "machine": machine,
        "sets": sets,
    }
    if len(sets) > 1:
        record["later_median_worse_by"] = [
            {w: {m: _worse_by(first[m]["median"], later["end_to_end"][w][m]["median"],
                              metrics[m]["better"])
                 for m in first} for w, first in sets[0]["end_to_end"].items()}
            for later in sets[1:]
        ]
    if args.trace_seed is not None:
        record["per_layer"] = {}
        for w in args.workloads:
            res, _, _ = run_once(w, args.trace_seed, 1)
            record["per_layer"][w] = {m: v["value"] for m, v in res["metrics"].items()}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for n, one in enumerate(sets, 1):
        for w, ms in one["end_to_end"].items():
            for m, s in ms.items():
                print(f"set {n} {w:<15} {m:<18} median {s['median']:<12.5g} spread {s['spread']:.4f} "
                      f"(bound {s['bound']}){'' if s['within_bound'] else '  OVER BOUND'}")
    for n, worse in enumerate(record.get("later_median_worse_by", []), 2):
        for w, ms in worse.items():
            print(f"set {n} {w:<15} median worse than set 1 by: "
                  + ", ".join(f"{m} {v:+.4f}" for m, v in ms.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
