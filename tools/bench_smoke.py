"""Run each benchmark workload briefly and check that every run is sound.

    python3 tools/bench_smoke.py [--workloads W [W ...]] [--seeds 0-9]

Runs ``bench/run.py --seconds 1 --trace 0`` once per workload and seed, in
a fresh process each, one after another (default: every workload of
BENCHMARK.json, seeds 0 to 9). Prints one line per run with ``correct``,
``failed``, ``artifact_hash_matches_recorded``, the run's ``wall_s`` and
``peak_rss_mb`` and any ``check failed`` line, then a total; so a sweep in
two checkouts doubles as a quick before/after read. A run misses when it is not correct, fails an
operation, writes artifacts whose hash is not the recorded one (or none),
fails a check, or prints no result line; the exit status is 1 if any run
missed. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "bench" / "run.py"
CHECK_PREFIX = "check failed: "


TIMINGS = ("wall_s", "peak_rss_mb")  # result-line metrics shown, not judged


def summarize(stdout: str) -> dict:
    """What one bench/run.py run printed: its result line's correct, failed
    and TIMINGS metrics (None when absent), its report's
    artifact_hash_matches_recorded, and its failed checks; ok when all but
    the timings are sound."""
    lines = stdout.splitlines()
    result, report = {}, {}
    for line in lines:
        if line.startswith("report "):
            report = json.loads(line[len("report "):])
        elif line.startswith("{"):
            result = json.loads(line)
    out = {
        "correct": result.get("correct"),
        "failed": result.get("failed"),
        "artifact_hash_matches_recorded":
            report.get("artifact_hash_matches_recorded"),
        "checks": [line[len(CHECK_PREFIX):] for line in lines
                   if line.startswith(CHECK_PREFIX)],
    }
    metrics = result.get("metrics", {})
    for name in TIMINGS:
        out[name] = metrics.get(name, {}).get("value")
    out["ok"] = (out["correct"] is True and out["failed"] == 0
                 and out["artifact_hash_matches_recorded"] is True
                 and not out["checks"])
    return out


def format_line(workload: str, seed: int, summary: dict) -> str:
    text = (f"{workload} seed {seed}: correct={summary['correct']} "
            f"failed={summary['failed']} artifact_hash_matches_recorded="
            f"{summary['artifact_hash_matches_recorded']}")
    for name in TIMINGS:
        value = summary[name]
        text += f" {name}=" + ("None" if value is None else f"{value:.3f}")
    for check in summary["checks"]:
        text += f" check failed: {check}"
    return text + ("" if summary["ok"] else "  MISS")


def _seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=_seeds, default=_seeds("0-9"),
                   help="an inclusive range such as 0-9, or one seed")
    args = p.parse_args(argv)
    misses = runs = 0
    for workload in args.workloads:
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload,
                 "--seed", str(seed), "--seconds", "1", "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            summary = summarize(proc.stdout)
            print(format_line(workload, seed, summary), flush=True)
            runs += 1
            misses += not summary["ok"]
    print(f"{runs - misses} of {runs} runs sound")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
