"""Tests for the scripts under tools/, run on canned input only."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_smoke = load_tool("bench_smoke")


def run_output(correct=True, failed=0, matches=True, checks=(),
               result=True) -> str:
    """Standard output of one bench/run.py run, in its line formats."""
    lines = ['machine {"seed": 0}', "metric wall_s 1.2 s"]
    lines += [f"check failed: {c}" for c in checks]
    lines.append("report " + json.dumps(
        {"artifact_hash_matches_recorded": matches, "workload": "push_cma"},
        sort_keys=True))
    if result:
        lines.append(json.dumps({"correct": correct, "attempted": 24,
                                 "failed": failed, "metrics": {
                                     "wall_s": {"value": 1.2, "unit": "s"},
                                     "peak_rss_mb": {"value": 66.8125,
                                                     "unit": "MB"}}}))
    return "\n".join(lines) + "\n"


def test_bench_smoke_passes_a_sound_run():
    summary = bench_smoke.summarize(run_output())
    assert summary == {"correct": True, "failed": 0,
                       "artifact_hash_matches_recorded": True, "checks": [],
                       "wall_s": 1.2, "peak_rss_mb": 66.8125, "ok": True}
    line = bench_smoke.format_line("push_cma", 3, summary)
    assert line == ("push_cma seed 3: correct=True failed=0 "
                    "artifact_hash_matches_recorded=True wall_s=1.200 "
                    "peak_rss_mb=66.812")


@pytest.mark.parametrize("kwargs", [
    {"correct": False}, {"failed": 1}, {"matches": False}, {"matches": None},
    {"checks": ("repeats wrote different artifacts",)}, {"result": False},
], ids=["incorrect", "failed", "hash", "no-hash", "check", "no-result"])
def test_bench_smoke_misses_each_unsound_run(kwargs):
    summary = bench_smoke.summarize(run_output(**kwargs))
    assert not summary["ok"]
    line = bench_smoke.format_line("catch_eval", 0, summary)
    assert line.endswith("MISS")
    if kwargs == {"result": False}:
        assert summary["wall_s"] is None and summary["peak_rss_mb"] is None
        assert " wall_s=None peak_rss_mb=None" in line
    for check in kwargs.get("checks", ()):
        assert f"check failed: {check}" in line
