"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/record.py --seeds 10 --label seed

runs ``run.py`` once per workload and seed (one after another, never in
parallel), then prints, for every end-to-end metric of every workload, the
median, the quartiles and the interquartile range as a share of the median
next to the metric's bound from ``BENCHMARK.json``. With ``--trace-seed`` it
adds one traced run per workload. With ``--label`` it writes everything to
``perfbench/results/BENCH_<label>.json``, one point of the perf trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N per workload")
    parser.add_argument("--trace-seed", type=int, help="also make one traced run with this seed")
    parser.add_argument("--label", help="write perfbench/results/BENCH_<label>.json")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    record: dict = {"seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.seeds + 1):
            start = time.monotonic()
            result, report = run_once(workload, seed, seconds, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed, "
                  f"{time.monotonic() - start:.1f} s wall", flush=True)
        record["machine"] = next(line[len("machine "):] for line in report
                                 if line.startswith("machine "))
        record["commit"] = next(line.rsplit(" at commit ", 1)[1] for line in report
                                if line.startswith("program "))
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "end_to_end": {}}
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            flag = "" if stats["iqr_share"] < bound / 3 else "  <-- above bound/3"
            print(f"  {name:<12} median {stats['median']:12.4f} {stats['unit']:<6} "
                  f"IQR/median {stats['iqr_share']:.4f} (bound {bound}){flag}", flush=True)
        if args.trace_seed is not None:
            traced, _ = run_once(workload, args.trace_seed, seconds, 1)
            entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
            entry["per_layer_correct"] = traced["correct"]
        record["workloads"][workload] = entry
    if args.label:
        out = BENCH / "results" / f"BENCH_{args.label}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
