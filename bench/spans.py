"""Per-layer spans recorded by wrapping the program's public functions.

The wrappers are installed from outside the program: every module-level
reference to a target function inside the ``toolsmith`` package is replaced,
so a function imported by name elsewhere (``ppo`` does
``from .neural import forward``) is recorded where its caller looks it up.
Methods are wrapped on the class that defines them.

A span's self time is its duration minus the time covered by its child
spans. Spans are aggregated in memory per name; nothing is written while the
program runs.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass

LAYERS = ("physics2d", "envs", "neural", "ppo", "evaluation", "baselines",
          "harness")
FORWARD_CONTEXTS = ("collect", "update", "eval")

TRAIN = ("push_train", "scoop_train")
EVAL = ("catch_eval",)
CMA = ("push_cma",)
ALL = TRAIN + EVAL + CMA


@dataclass(frozen=True)
class Target:
    """One wrapped function.

    ``attr`` is a module-level name or ``Class.method``. ``context`` names
    the context that spans nested inside this one inherit; ``split`` keys
    this span by the enclosing context. ``expect`` lists the workloads on
    which the target must record calls.
    """

    module: str
    attr: str
    span: str
    expect: tuple = ()
    context: str | None = None
    split: bool = False
    samples: bool = False
    post: object = None


def _contact_rows(counts, args, result):
    contacts = args[0].contacts
    counts["physics2d.contact_rows"] += \
        contacts.cs_circle.size + contacts.cc_a.size


def _row_count(x) -> int:
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


def _forward_rows(counts, args, result):
    counts["neural.forward.rows." + counts.context] += _row_count(args[1])


def _backward_rows(counts, args, result):
    counts["neural.backward.rows"] += _row_count(args[1])


def _checkpoint_bytes(counts, args, result):
    counts["neural.checkpoint_bytes"] = os.path.getsize(args[0])


def _epochs_run(counts, args, result):
    counts["ppo.epochs_run"] += result[1]["epochs_run"]


TARGETS = (
    Target("toolsmith.physics2d", "World.step", "physics2d.step", ALL,
           post=_contact_rows),
    Target("toolsmith.envs.base", "ToolTaskEnv.reset", "envs.reset", ALL),
    Target("toolsmith.envs.base", "ToolTaskEnv.step_design",
           "envs.step_design", ALL),
    Target("toolsmith.envs.base", "ToolTaskEnv.step_control",
           "envs.step_control", ALL),
    Target("toolsmith.envs.base", "ToolTaskEnv.design_input",
           "envs.featurize", TRAIN + EVAL),
    Target("toolsmith.envs.base", "ToolTaskEnv.control_input",
           "envs.featurize", TRAIN + EVAL),
    Target("toolsmith.envs.base", "ToolTaskEnv.value_input",
           "envs.featurize", TRAIN),
    Target("toolsmith.envs.base", "supported_by_tool",
           "envs.supported_by_tool", ("scoop_train", "catch_eval")),
    Target("toolsmith.neural", "forward", "neural.forward", TRAIN + EVAL,
           split=True, post=_forward_rows),
    Target("toolsmith.neural", "backward", "neural.backward", TRAIN,
           post=_backward_rows),
    Target("toolsmith.neural", "Adam.step", "neural.adam", TRAIN),
    Target("toolsmith.neural", "sample_action", "neural.sample_action", TRAIN),
    Target("toolsmith.neural", "save_checkpoint", "neural.checkpoint_save",
           TRAIN, post=_checkpoint_bytes),
    Target("toolsmith.neural", "load_checkpoint", "neural.checkpoint_load",
           EVAL),
    Target("toolsmith.ppo", "train", "ppo.train", TRAIN),
    Target("toolsmith.ppo", "collect_batch", "ppo.collect", TRAIN,
           context="collect"),
    Target("toolsmith.ppo", "prepare_batch", "ppo.prepare_batch", TRAIN),
    Target("toolsmith.ppo", "ppo_update", "ppo.update", TRAIN,
           context="update", post=_epochs_run),
    Target("toolsmith.ppo", "Optimizers.step_value", "ppo.minibatch", TRAIN),
    Target("toolsmith.ppo", "run_episode", "evaluation.run_episode", EVAL,
           context="eval", samples=True),
    Target("toolsmith.evaluation", "evaluate_policy",
           "evaluation.evaluate_policy", EVAL, context="eval"),
    Target("toolsmith.evaluation", "run_plan", "evaluation.run_plan", CMA),
    Target("toolsmith.evaluation", "evaluate_plan", "evaluation.evaluate_plan",
           CMA),
    Target("toolsmith.baselines.single_traj", "single_traj_cmaes",
           "baselines.single_traj", CMA),
    Target("toolsmith.baselines.single_traj", "plan_fitness",
           "baselines.plan_fitness", CMA),
    Target("toolsmith.baselines.cma", "cma_ask", "baselines.cma_ask", CMA),
    Target("toolsmith.baselines.cma", "cma_tell", "baselines.cma_tell", CMA),
    Target("toolsmith.harness", "cmd_train", "harness.cmd_train",
           TRAIN + CMA),
    Target("toolsmith.harness", "cmd_eval", "harness.cmd_eval", EVAL),
    Target("toolsmith.harness", "_run_one_seed", "harness.run_one_seed",
           TRAIN + CMA),
    Target("toolsmith.harness", "aggregate_metrics",
           "harness.aggregate_metrics", TRAIN + CMA),
    Target("toolsmith.harness", "write_manifest", "harness.write_manifest",
           ALL),
    Target("toolsmith.harness", "_load_for_eval", "harness.load_for_eval",
           EVAL),
)


class Counts(dict):
    """Integer counters that default to zero, plus the current context."""

    def __init__(self):
        super().__init__()
        self.context = "other"

    def __missing__(self, key):
        return 0


class Tracer:
    """Aggregates span calls, total and self time per span name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}      # span name -> [calls, total_s, self_s]
        self.samples = {}    # span name -> list of durations
        self.counts = Counts()
        self._children = []  # child time covered, one entry per open span
        self._contexts = []

    def wrap(self, fn, target: Target):
        clock = self.clock
        children = self._children
        contexts = self._contexts
        counts = self.counts
        stats = self.stats
        post = target.post
        context = target.context
        samples = self.samples.setdefault(target.span, []) \
            if target.samples else None

        def wrapper(*args, **kwargs):
            name = target.span
            if target.split:
                name = f"{name}.{counts.context}"
            if context is not None:
                contexts.append(counts.context)
                counts.context = context
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(counts, args, result)
                return result
            finally:
                duration = clock() - start
                child = children.pop()
                if children:
                    children[-1] += duration
                if context is not None:
                    counts.context = contexts.pop()
                stat = stats.get(name)
                if stat is None:
                    stat = stats[name] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - child
                if samples is not None:
                    samples.append(duration)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", target.attr)
        return wrapper

    def calls(self, name) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, name) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self(self, layer: str) -> float:
        return sum(s[2] for name, s in self.stats.items()
                   if name.split(".", 1)[0] == layer)


def _resolve(target: Target):
    module = sys.modules.get(target.module)
    if module is None:
        return None, None
    owner_name, _, attr = target.attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    if owner is None or attr not in vars(owner):
        return None, None
    return owner, attr


class Patches:
    """Installed wrappers and what they replaced, so they can be undone."""

    def __init__(self):
        self._undo = []
        self.missing = []

    def install(self, targets, make_wrapper) -> None:
        """Wrap each target with make_wrapper(original, target)."""
        program = [m for name, m in sorted(sys.modules.items())
                   if (name == "toolsmith" or name.startswith("toolsmith."))
                   and m is not None]
        for target in targets:
            owner, attr = _resolve(target)
            if owner is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            original = vars(owner)[attr]
            wrapper = make_wrapper(original, target)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for module in program:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def remove(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


def zero_call_targets(tracer: Tracer, workload: str, missing=()) -> list:
    """Targets expected on this workload that were found but never ran."""
    out = []
    for t in TARGETS:
        name = f"{t.module}.{t.attr}"
        if workload not in t.expect or name in missing:
            continue
        if t.split:
            ran = any(k.startswith(t.span + ".") for k in tracer.stats)
        else:
            ran = tracer.calls(t.span) > 0
        if not ran:
            out.append(name)
    return sorted(set(out))


def _per_call(total: float, calls: int, scale: float) -> float:
    return total / calls * scale if calls else 0.0


def layer_metrics(tracer: Tracer, wall: float, ops) -> dict:
    """Per-layer figures of one traced repeat that took ``wall`` seconds;
    ``ops`` is the workloads.OpsCount of the repeat."""
    t, c = tracer, tracer.counts
    m = {}

    steps = t.calls("physics2d.step")
    m["physics2d.step_calls"] = steps
    m["physics2d.step_us"] = _per_call(t.total("physics2d.step"), steps, 1e6)
    m["physics2d.step_share"] = t.total("physics2d.step") / wall
    m["physics2d.contact_rows_per_step"] = _per_call(
        c["physics2d.contact_rows"], steps, 1.0)

    resets = t.calls("envs.reset")
    m["envs.reset_calls"] = resets
    m["envs.reset_ms"] = _per_call(t.total("envs.reset"), resets, 1e3)
    m["envs.reset_self_ms"] = _per_call(t.self_time("envs.reset"), resets, 1e3)
    m["envs.step_control_self_us"] = _per_call(
        t.self_time("envs.step_control"), t.calls("envs.step_control"), 1e6)
    m["envs.step_design_us"] = _per_call(
        t.total("envs.step_design"), t.calls("envs.step_design"), 1e6)
    m["envs.featurize_us"] = _per_call(
        t.total("envs.featurize"), t.calls("envs.featurize"), 1e6)
    m["envs.featurize_share"] = t.total("envs.featurize") / wall
    m["envs.supported_by_tool_calls"] = t.calls("envs.supported_by_tool")
    m["envs.supported_by_tool_us"] = _per_call(
        t.total("envs.supported_by_tool"), t.calls("envs.supported_by_tool"),
        1e6)

    for ctx in FORWARD_CONTEXTS:
        name = f"neural.forward.{ctx}"
        m[f"{name}_calls"] = t.calls(name)
        m[f"{name}_rows"] = c[f"neural.forward.rows.{ctx}"]
        m[f"{name}_us"] = _per_call(t.total(name), t.calls(name), 1e6)
    m["neural.backward_calls"] = t.calls("neural.backward")
    m["neural.backward_rows"] = c["neural.backward.rows"]
    m["neural.backward_us"] = _per_call(
        t.total("neural.backward"), t.calls("neural.backward"), 1e6)
    m["neural.adam_steps"] = t.calls("neural.adam")
    m["neural.adam_us"] = _per_call(
        t.total("neural.adam"), t.calls("neural.adam"), 1e6)
    m["neural.sample_action_us"] = _per_call(
        t.total("neural.sample_action"), t.calls("neural.sample_action"), 1e6)
    m["neural.checkpoint_save_ms"] = _per_call(
        t.total("neural.checkpoint_save"), t.calls("neural.checkpoint_save"),
        1e3)
    m["neural.checkpoint_load_ms"] = _per_call(
        t.total("neural.checkpoint_load"), t.calls("neural.checkpoint_load"),
        1e3)
    m["neural.checkpoint_bytes"] = c["neural.checkpoint_bytes"]

    batches = t.calls("ppo.collect")
    m["ppo.batches"] = batches
    m["ppo.episodes_per_batch"] = _per_call(ops.episodes, batches, 1.0)
    m["ppo.collect_s"] = t.total("ppo.collect")
    m["ppo.collect_self_s"] = t.self_time("ppo.collect")
    m["ppo.prepare_batch_ms"] = _per_call(
        t.total("ppo.prepare_batch"), t.calls("ppo.prepare_batch"), 1e3)
    m["ppo.update_s"] = t.total("ppo.update")
    m["ppo.update_self_s"] = t.self_time("ppo.update")
    m["ppo.epochs_run"] = c["ppo.epochs_run"]
    m["ppo.minibatches"] = t.calls("ppo.minibatch")
    m["ppo.aborted_updates"] = ops.aborted
    m["ppo.train_self_ms"] = t.self_time("ppo.train") * 1e3

    episodes = t.samples.get("evaluation.run_episode", [])
    m["evaluation.episodes"] = t.calls("evaluation.run_episode")
    if episodes:
        p50, p90 = _quantiles_ms(episodes)
    else:
        p50 = p90 = 0.0
    m["evaluation.run_episode_ms_p50"] = p50
    m["evaluation.run_episode_ms_p90"] = p90
    m["evaluation.run_episode_self_us"] = _per_call(
        t.self_time("evaluation.run_episode"),
        t.calls("evaluation.run_episode"), 1e6)
    m["evaluation.plan_episodes"] = t.calls("evaluation.run_plan")
    m["evaluation.run_plan_self_us"] = _per_call(
        t.self_time("evaluation.run_plan"), t.calls("evaluation.run_plan"),
        1e6)

    m["baselines.generations"] = t.calls("baselines.cma_tell")
    m["baselines.cma_ask_ms"] = _per_call(
        t.total("baselines.cma_ask"), t.calls("baselines.cma_ask"), 1e3)
    m["baselines.cma_tell_ms"] = _per_call(
        t.total("baselines.cma_tell"), t.calls("baselines.cma_tell"), 1e3)
    m["baselines.plan_fitness_self_ms"] = _per_call(
        t.self_time("baselines.plan_fitness"),
        t.calls("baselines.plan_fitness"), 1e3)

    m["harness.self_ms"] = t.layer_self("harness") * 1e3
    for layer in LAYERS:
        m[f"{layer}.self_share"] = t.layer_self(layer) / wall
    return m


def _quantiles_ms(durations) -> tuple:
    if len(durations) == 1:
        return durations[0] * 1e3, durations[0] * 1e3
    deciles = statistics.quantiles(durations, n=10)
    return statistics.median(durations) * 1e3, deciles[8] * 1e3


def slowest_layer(metrics: dict) -> str:
    return max(LAYERS, key=lambda layer: metrics[f"{layer}.self_share"])
