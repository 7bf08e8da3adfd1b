"""The benchmark's workloads.

Each workload is a closed loop with one client: the trainer or evaluator
waits for each batch or episode before it issues the next. A workload makes
its inputs from the benchmark seed, sets up, runs one timed call into the
program's public entry point (``harness.cmd_train`` or ``harness.cmd_eval``)
on a fixed budget, and checks the artifacts that call wrote.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import math
import pkgutil
import sys
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import Target

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Fixed budgets of one timed call.
TRAIN_STEPS = 4096            # one desk-scale PPO batch
CATCH_GOALS = 64              # episodes per evaluation call
CATCH_CHECKPOINT_BATCH = 512  # small batch and few envs, so set-up stays short
CATCH_CHECKPOINT_ENVS = 1
# The cost of training the checkpoint differs by up to half from one training
# seed to another, so set-up trains it with one fixed seed and only the goals
# come from the benchmark seed; setup_s then measures the same work every run.
CATCH_CHECKPOINT_SEED = 0
CMA_STEPS = 1                 # any positive budget runs one CMA generation
CMA_POPULATION = 24           # single_traj_cmaes default population


class ProgramMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


class CheckFailed(RuntimeError):
    """An artifact the timed call wrote is missing or wrong."""


def load_program():
    """Import the checkout's own ``toolsmith`` and return its harness."""
    init = SRC / "toolsmith" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no program source at {init}")
    sys.path.insert(0, str(SRC))
    import toolsmith
    if Path(toolsmith.__file__).resolve() != init.resolve():
        raise ProgramMissing(
            f"toolsmith was imported from {toolsmith.__file__}, not {init}")
    # import every module now, so that wrappers also reach the names of
    # modules the program imports lazily (make_env imports the task modules)
    for module in pkgutil.walk_packages(toolsmith.__path__, "toolsmith."):
        importlib.import_module(module.name)
    return sys.modules["toolsmith.harness"]


# ---------------------------------------------------------------------------
# Operation counting
# ---------------------------------------------------------------------------

OpsCount = namedtuple("OpsCount", "attempted failed episodes steps aborted")


class Ops:
    """Operations attempted and failed, the episodes and steps they ran, and
    the PPO updates that reported ``aborted``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.episodes = 0
        self.steps = 0
        self.aborted = 0

    def snapshot(self) -> OpsCount:
        return OpsCount(self.attempted, self.failed, self.episodes,
                        self.steps, self.aborted)

    def since(self, start: OpsCount) -> OpsCount:
        return OpsCount(*(b - a for a, b in zip(start, self.snapshot())))

    def wrapper(self, hooks: dict):
        """make_wrapper for spans.Patches.

        hooks maps a Target to (hook, is_operation); hook(ops, args, result)
        counts episodes and steps and returns False for a failed operation.
        """
        def make(fn, target):
            hook, is_operation = hooks[target]

            def wrapper(*args, **kwargs):
                if is_operation:
                    self.attempted += 1
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    if is_operation:
                        self.failed += 1
                    raise
                if not hook(self, args, result) and is_operation:
                    self.failed += 1
                return result

            wrapper.__wrapped__ = fn
            return wrapper
        return make


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _update_ok(ops, args, result) -> bool:
    stats = result[1]
    ops.aborted += int(bool(stats["aborted"]))
    return not stats["aborted"] and _finite(
        stats["approx_kl"], stats["entropy"], stats["policy_loss"],
        stats["value_loss"])


def _count_batch(ops, args, result) -> bool:
    ops.episodes += len(result)
    ops.steps += sum(t.length for t in result)
    return True


def _episode_ok(ops, args, result) -> bool:
    ops.episodes += 1
    ops.steps += 1 + int(result["steps"])
    return _finite(result["return"])


def _plan_ok(ops, args, result) -> bool:
    ops.episodes += len(args[2])
    ops.steps += int(result["env_steps"])
    return _finite(result["mean_return"])


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read_csv(path: Path) -> list:
    _check(path.is_file(), f"{path.name} was not written")
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _check_metrics_csv(path: Path, rows_expected: int) -> list:
    rows = _read_csv(path)
    _check(len(rows) == rows_expected + 1,
           f"{path.name} has {len(rows) - 1} rows, expected {rows_expected}")
    values = np.array(rows[1:], dtype=np.float64)
    _check(bool(np.all(np.isfinite(values))), f"{path.name} is not finite")
    return rows


def artifact_hash(files: dict) -> str:
    """sha256 over the named clock-free artifacts, in name order."""
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode() + b"\0")
        digest.update(hashlib.sha256(files[name]).digest())
    return digest.hexdigest()


@dataclass
class Checked:
    """What one timed call did, read back from its result and artifacts."""

    env_steps: int
    episodes: int
    artifacts: dict


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""

    def inputs(self, seed: int) -> dict:
        """Everything the program receives, generated from the seed alone."""
        raise NotImplementedError

    def setup(self, harness, inputs: dict, work: Path) -> dict:
        """Work done before the timed call; returns the call's state."""
        return {"inputs": inputs}

    def run(self, harness, state: dict, out: Path):
        raise NotImplementedError

    def check(self, state: dict, result, ops: OpsCount) -> Checked:
        """Verify the call's artifacts; ops counts what the call did."""
        raise NotImplementedError

    def ops_per_repeat(self, inputs: dict) -> int:
        """Operations one timed call attempts."""
        raise NotImplementedError

    def counters(self) -> dict:
        """Target -> (hook, is_operation) for Ops.wrapper."""
        raise NotImplementedError

    def setup_artifacts(self, state: dict) -> dict:
        """Clock-free artifacts made during set-up."""
        return {}


def _derived_seed(seed: int, stream: int) -> int:
    return int(np.random.default_rng([stream, seed]).integers(2**31 - 1))


class TrainWorkload(Workload):
    task = ""
    total_steps = TRAIN_STEPS
    batch_size = 4096

    def inputs(self, seed):
        return {"train_seed": _derived_seed(seed, 1)}

    def run(self, harness, state, out):
        config = harness.ExperimentConfig(
            task=self.task, method="ours", total_steps=self.total_steps,
            seeds=(state["inputs"]["train_seed"],), out_dir=str(out))
        return harness.cmd_train(config)

    def ops_per_repeat(self, inputs):
        # every batch holds at least batch_size steps, so a budget that is a
        # whole number of batches takes exactly that many
        return self.total_steps // self.batch_size

    def counters(self):
        return {
            Target("toolsmith.ppo", "ppo_update", "op"): (_update_ok, True),
            Target("toolsmith.ppo", "collect_batch", "op"):
                (_count_batch, False),
        }

    def check(self, state, result, ops):
        from toolsmith.neural import load_checkpoint, params_from_state
        seed_dir = Path(result["seed_dirs"][0])
        res = result["results"][0]
        batches = self.ops_per_repeat(state["inputs"])
        _check(res["batches"] == batches,
               f"{res['batches']} batches, expected {batches}")
        _check(res["env_steps"] >= self.total_steps,
               f"{res['env_steps']} env steps < budget {self.total_steps}")
        _check(res["env_steps"] == ops.steps,
               "returned env steps differ from the collected batches")
        rows = _check_metrics_csv(seed_dir / "metrics.csv", batches)
        _check(int(rows[-1][0]) == res["env_steps"],
               "metrics.csv ends at another step count")
        ck_path = seed_dir / "checkpoint.json"
        _check(ck_path.is_file(), "checkpoint.json was not written")
        ck = load_checkpoint(ck_path)
        params = params_from_state(ck["params"])
        arrays = [a for net in (params.designer, params.controller,
                                params.value)
                  for a in net.weights + net.biases]
        _check(all(np.all(np.isfinite(a)) for a in arrays),
               "checkpoint parameters are not finite")
        _check(int(ck["env_steps"]) == res["env_steps"],
               "checkpoint env steps differ from the run")
        return Checked(
            env_steps=int(res["env_steps"]), episodes=ops.episodes,
            artifacts={"metrics.csv": (seed_dir / "metrics.csv").read_bytes(),
                       "checkpoint.json": ck_path.read_bytes()})


class PushTrain(TrainWorkload):
    """Update-bound: one puck means few contacts, so network passes and the
    PPO update do most of the work."""

    name = "push_train"
    task = "push"


class ScoopTrain(TrainWorkload):
    """Physics-bound: 40 balls, 5 substeps per action and a 30-step settle
    on every reset, so World.step dominates."""

    name = "scoop_train"
    task = "scoop"


class CatchEval(Workload):
    """Single-env inference: one-row forwards, a checkpoint load and
    supported_by_tool on every substep, with no update. It guards against
    batching changes that help training but slow inference."""

    name = "catch_eval"

    def inputs(self, seed):
        from toolsmith.envs import make_env
        env = make_env("catch")
        rng = np.random.default_rng([3, seed])
        goals = [env.sample_goal(rng).tolist() for _ in range(CATCH_GOALS)]
        return {"checkpoint_seed": CATCH_CHECKPOINT_SEED, "goals": goals}

    def setup(self, harness, inputs, work):
        from toolsmith.ppo import default_train_config
        seed = inputs["checkpoint_seed"]
        config = harness.ExperimentConfig(
            task="catch", method="ours", total_steps=CATCH_CHECKPOINT_BATCH,
            seeds=(seed,), out_dir=str(work / "checkpoint"),
            n_envs=CATCH_CHECKPOINT_ENVS,
            train=default_train_config("catch",
                                       batch_size=CATCH_CHECKPOINT_BATCH))
        result = harness.cmd_train(config)
        ck = Path(result["seed_dirs"][0]) / "checkpoint.json"
        _check(ck.is_file(), "set-up wrote no checkpoint")
        return {"inputs": inputs, "checkpoint": ck}

    def setup_artifacts(self, state):
        return {"checkpoint.json": state["checkpoint"].read_bytes()}

    def run(self, harness, state, out):
        return harness.cmd_eval(state["checkpoint"], str(out),
                                goals=[np.asarray(g) for g in
                                       state["inputs"]["goals"]],
                                task="catch")

    def ops_per_repeat(self, inputs):
        return len(inputs["goals"])

    def counters(self):
        return {Target("toolsmith.ppo", "run_episode", "op"):
                (_episode_ok, True)}

    def check(self, state, result, ops):
        n = self.ops_per_repeat(state["inputs"])
        report_path = Path(result["report_path"])
        _check(report_path.is_file(), "eval_report.json was not written")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        _check(report["n_goals"] == n, "eval_report.json counts other goals")
        _check(_finite(report["mean_return"], report["success_rate"]),
               "eval_report.json is not finite")
        rows = _read_csv(Path(result["per_goal_path"]))
        _check(len(rows) == n + 1, f"per_goal.csv has {len(rows) - 1} rows")
        for row in rows[1:]:
            _check(_finite(*row[2:5]), "per_goal.csv is not finite")
        _check(ops.episodes == n, f"{ops.episodes} episodes ran, expected {n}")
        return Checked(env_steps=ops.steps, episodes=n,
                       artifacts={"per_goal.csv":
                                  Path(result["per_goal_path"]).read_bytes()})


class PushCma(Workload):
    """CMA-ES over an open-loop plan: the baselines layer and the
    evaluation.run_plan path, with no network at all."""

    name = "push_cma"

    def inputs(self, seed):
        return {"cma_seed": _derived_seed(seed, 4)}

    def run(self, harness, state, out):
        config = harness.ExperimentConfig(
            task="push", method="single_traj", total_steps=CMA_STEPS,
            seeds=(state["inputs"]["cma_seed"],), out_dir=str(out))
        return harness.cmd_train(config)

    def ops_per_repeat(self, inputs):
        return CMA_POPULATION

    def counters(self):
        return {Target("toolsmith.baselines.single_traj", "plan_fitness",
                       "op"): (_plan_ok, True)}

    def check(self, state, result, ops):
        from toolsmith.baselines import plan_dim
        from toolsmith.envs import make_env
        seed_dir = Path(result["seed_dirs"][0])
        res = result["results"][0]
        _check(res["generations"] == 1,
               f"{res['generations']} generations, expected 1")
        _check(res["env_steps"] == ops.steps,
               "returned env steps differ from the evaluated candidates")
        _check_metrics_csv(seed_dir / "metrics.csv", res["generations"])
        plan_path = seed_dir / "best_plan.json"
        _check(plan_path.is_file(), "best_plan.json was not written")
        plan = json.loads(plan_path.read_text(encoding="utf-8"))
        _check(len(plan["vector"]) == plan_dim(make_env("push")),
               "best_plan.json vector has the wrong length")
        _check(_finite(plan["fitness"], *plan["vector"]),
               "best_plan.json is not finite")
        return Checked(
            env_steps=int(res["env_steps"]), episodes=ops.episodes,
            artifacts={"metrics.csv": (seed_dir / "metrics.csv").read_bytes(),
                       "best_plan.json": plan_path.read_bytes()})


WORKLOADS = {w.name: w for w in (PushTrain(), ScoopTrain(), CatchEval(),
                                 PushCma())}

