"""Run the benchmark over several seeds and summarise its spread.

    python3 bench/prove.py --runs 10                 # every workload
    python3 bench/prove.py --runs 5 --workload catch_eval
    python3 bench/prove.py --runs 10 --trace --write # record the baseline

For each workload it runs ``bench/run.py`` once per seed (seeds 0..runs-1,
one after another) and reports, for every end-to-end metric, the median, the
quartiles and the quartile spread as a share of the median, next to the
metric's bound from BENCHMARK.json. ``--trace`` adds one traced run per
workload. ``--write`` stores the summary in ``bench/BENCH_baseline.json``
and each run's artifact hash in ``bench/recorded_hashes.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    report = next(json.loads(line[len("report "):]) for line in lines
                  if line.startswith("report "))
    return {"seed": seed, "result": json.loads(lines[-1]), "report": report}


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def summarise(runs: list, end_to_end: list) -> dict:
    out = {}
    for metric in end_to_end:
        name = metric["name"]
        stats = spread([r["result"]["metrics"][name]["value"] for r in runs])
        stats["bound"] = metric["bound"]
        out[name] = stats
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--write", action="store_true")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 to give quartiles")

    seconds = spec["run_seconds"]
    summary = {"run_seconds": seconds, "runs_per_workload": args.runs,
               "workloads": {}}
    hashes = {}
    all_steady = True
    for name in args.workload or names:
        runs = []
        for seed in range(args.runs):
            run = run_once(name, seed, seconds, 0)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}"
                for k, v in run["result"]["metrics"].items()), flush=True)
            runs.append(run)
        stats = summarise(runs, spec["end_to_end"])
        entry = {
            "correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "machine": runs[0]["report"]["machine"],
            "end_to_end": stats,
        }
        hashes[name] = {str(r["seed"]): r["report"]["artifact_hash"]
                        for r in runs}
        for metric, s in stats.items():
            steady = s["spread"] < s["bound"] / 3
            all_steady &= steady
            print(f"  {metric:16s} median {s['median']:.5g}  "
                  f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread "
                  f"{s['spread']:.3f} (bound {s['bound']}) "
                  f"{'' if steady else 'NOT STEADY'}", flush=True)
        if args.trace:
            traced = run_once(name, 0, seconds, 1)
            report = traced["report"]
            entry["traced_run"] = {
                "seed": 0,
                "slowest_layer": report["slowest_layer"],
                "missing_spans": report["missing_spans"],
                "zero_call_spans": report["zero_call_spans"],
                "per_layer": {k: v["value"] for k, v in
                              traced["result"]["metrics"].items()},
            }
            overhead = traced["result"]["metrics"]["trace.overhead_s"]
            print(f"  traced: slowest layer {report['slowest_layer']}, "
                  f"overhead {overhead['value']:.3f} s", flush=True)
        summary["workloads"][name] = entry

    if args.write:
        (BENCH_DIR / "BENCH_baseline.json").write_text(
            json.dumps(summary, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
        (BENCH_DIR / "recorded_hashes.json").write_text(
            json.dumps(hashes, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
