"""Tests of the benchmark's own code.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import run
import spans
import workloads
from spans import Target, Tracer

ROOT = Path(__file__).resolve().parent.parent
HARNESS = workloads.load_program()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children_on_a_fake_clock():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 0.5

    def inner():
        clock.now += 3.0
        leaf()

    def outer():
        clock.now += 1.0
        inner()
        clock.now += 2.0
        inner()
        clock.now += 1.0

    leaf = tracer.wrap(leaf, Target("m", "leaf", "neural.leaf"))
    inner = tracer.wrap(inner, Target("m", "inner", "envs.inner"))
    outer = tracer.wrap(outer, Target("m", "outer", "ppo.outer"))
    outer()

    assert tracer.stats["ppo.outer"] == [1, 11.0, 4.0]
    assert tracer.stats["envs.inner"] == [2, 7.0, 6.0]
    assert tracer.stats["neural.leaf"] == [2, 1.0, 1.0]
    assert tracer.layer_self("ppo") + tracer.layer_self("envs") \
        + tracer.layer_self("neural") == 11.0


def test_split_span_is_keyed_by_the_enclosing_context_and_survives_raise():
    clock = FakeClock()
    tracer = Tracer(clock)

    def forward(net, x):
        clock.now += 1.0

    def update():
        forward(None, [0.0])
        raise ValueError("update failed")

    forward = tracer.wrap(forward, Target("m", "forward", "neural.forward",
                                          split=True))
    update = tracer.wrap(update, Target("m", "update", "ppo.update",
                                        context="update"))
    with pytest.raises(ValueError):
        update()
    forward(None, [0.0])

    assert tracer.stats["neural.forward.update"] == [1, 1.0, 1.0]
    assert tracer.stats["neural.forward.other"] == [1, 1.0, 1.0]
    assert tracer.stats["ppo.update"] == [1, 1.0, 0.0]
    assert tracer.counts.context == "other"


def test_every_target_resolves_and_patches_are_undone():
    import toolsmith.envs.scoop
    import toolsmith.evaluation
    import toolsmith.neural
    import toolsmith.ppo
    forward = toolsmith.neural.forward
    run_plan = toolsmith.evaluation.run_plan
    supported = toolsmith.envs.scoop.supported_by_tool
    tracer = Tracer()
    patches = spans.Patches()
    patches.install(spans.TARGETS, tracer.wrap)
    try:
        assert patches.missing == []
        # a name imported elsewhere is wrapped where its caller looks it up
        assert toolsmith.ppo.forward is not forward
        assert toolsmith.ppo.forward is toolsmith.neural.forward
        assert toolsmith.evaluation.run_plan.__wrapped__ is run_plan
        # make_env imports the task modules lazily; they are wrapped too
        assert toolsmith.envs.scoop.supported_by_tool.__wrapped__ is supported
    finally:
        patches.remove()
    assert toolsmith.ppo.forward is forward
    assert toolsmith.neural.forward is forward
    assert toolsmith.evaluation.run_plan is run_plan


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_the_same_inputs(name):
    w = workloads.WORKLOADS[name]
    assert json.dumps(w.inputs(7)) == json.dumps(w.inputs(7))
    assert w.inputs(7) != w.inputs(8)


def test_setup_process_reports_ready_and_its_artifact_hash(tmp_path):
    digests = {run.time_setup("push_train", 0, tmp_path / str(k))[1]
               for k in range(4)}
    assert digests == {workloads.artifact_hash({})}


def _fake_run(trace: int) -> run.Run:
    args = Namespace(workload="push_train", seed=1, seconds=1.0, trace=trace)
    r = run.Run(args, HARNESS, ROOT / ".bench_work" / "unused")
    r.walls = {False: [2.0], True: [2.5]}
    r.setup_samples = [0.2]
    r.checked = workloads.Checked(env_steps=100, episodes=4, artifacts={})
    r.layers = [spans.layer_metrics(Tracer(), 1.0,
                                    workloads.Ops().snapshot())]
    return r


def test_every_printed_metric_is_named_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = _fake_run(0).end_to_end()
    per_layer = _fake_run(1).per_layer()
    assert list(end_to_end) == [m["name"] for m in spec["end_to_end"]]
    assert list(per_layer) == [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for name, (_, unit) in {**end_to_end, **per_layer}.items():
        assert units[name] == unit, name


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "push_train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
