"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py --seeds 1-10 [--workloads mc_null_100,cli_csv]
        [--trace 0|1] [--save runs.json] [--summary perfbench/baseline.json]

Runs are made one after another, never in parallel.  For every metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, (Q3 - Q1) / median, next to the bound BENCHMARK.json fixes for the
metric.  ``--save`` writes every run's result, with the run details, to a JSON
file.  ``--summary`` writes the medians and quartiles into a JSON file, under
``end_to_end`` for ``--trace 0`` and ``per_layer`` for ``--trace 1``, keeping
the other section; perfbench/baseline.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return {"seed": seed, "details": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save")
    parser.add_argument("--summary")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    runs, stats = {}, {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in seed_list(args.seeds):
            run = run_once(workload, seed, args.seconds, args.trace)
            runs[workload].append(run)
            print(f"{workload} seed {seed}: correct={run['result']['correct']} "
                  f"failed={run['result']['failed']}/{run['result']['attempted']}",
                  file=sys.stderr, flush=True)
        print(f"\n{workload}  ({len(runs[workload])} runs)")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        stats[workload] = {}
        for name, metric in runs[workload][0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in runs[workload]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"  {name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6}")
            stats[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                     "unit": metric["unit"]}
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1) + "\n")
    if args.summary:
        write_summary(Path(args.summary), runs, stats, args)
    return 0


def write_summary(path: Path, runs: dict, stats: dict, args) -> None:
    """Merge this sweep's medians and quartiles into the JSON file at ``path``."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    section = "per_layer" if args.trace else "end_to_end"
    first = next(iter(runs.values()))[0]["details"]
    env = {k: v for k, v in first["environment"].items() if k != "seed"}
    doc["note"] = "medians over seeds of perfbench/run.py results, made with perfbench/sweep.py"
    doc["environment"] = env
    doc[f"{section}_seconds"] = args.seconds
    doc[f"{section}_seeds"] = seed_list(args.seeds)
    for workload, by_metric in stats.items():
        entry = doc.setdefault("workloads", {}).setdefault(workload, {})
        entry[section] = by_metric
        if not args.trace:
            details = [r["details"] for r in runs[workload]]
            entry["failed_ratio"] = statistics.median(d["failed_ratio"] for d in details)
            entry["operations_timed"] = statistics.median(d["operations_timed"]
                                                          for d in details)
            entry[f"fields_seed_{runs[workload][0]['seed']}"] = details[0]["fields"]
    path.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
