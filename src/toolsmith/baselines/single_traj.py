"""Open-loop baseline: one evolutionary search over a flat episode plan.

A candidate is a single vector holding the design action followed by every
control action of an episode, optimized for mean return over the shared
fixed goal set. No feedback, no networks: the plan is replayed as-is on
every goal, which is exactly what makes this baseline weak on goal variety.
"""

from __future__ import annotations

import json
import os

import numpy as np

from toolsmith.baselines.cma import cma_search
from toolsmith.envs import TaskConfig, default_config, make_env
from toolsmith.evaluation import evaluate_plan, evaluation_goals
from toolsmith.ppo import Artifact

BEST_PLAN_FILE = "best_plan.json"


def plan_dim(env) -> int:
    """Flat vector length: design action plus T control actions."""
    return env.design_action_dim \
        + env.cfg.max_episode_steps * env.control_action_dim


def split_plan(env, vector: np.ndarray) -> tuple:
    """(design_action, controls) views of one flat candidate vector."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (plan_dim(env),):
        raise ValueError(f"a {env.task_name} plan vector has {plan_dim(env)} "
                         f"entries, got shape {vector.shape}")
    nd = env.design_action_dim
    controls = vector[nd:].reshape(env.cfg.max_episode_steps,
                                   env.control_action_dim)
    return vector[:nd], controls


def load_plan(path) -> Artifact:
    """The open-loop Artifact of the best_plan.json single_traj_cmaes wrote."""
    with open(path, encoding="utf-8") as fh:
        state = json.load(fh)
    env = make_env(default_config(state.get("task")))
    design, controls = split_plan(env, state["vector"])
    return Artifact(env.task_name, fixed_design=design, controls=controls)


def plan_fitness(env, vector: np.ndarray, goals) -> dict:
    design_action, controls = split_plan(env, vector)
    return evaluate_plan(env, design_action, controls, goals)


def single_traj_cmaes(task_cfg: TaskConfig, total_steps: int, out_dir,
                      seed: int = 0, population_size: int = 24,
                      sigma0: float = 0.1, n_eval_goals: int = 16) -> dict:
    """Evolve a flat plan until the env-step budget is spent.

    Logs through cma_search, then writes best_plan.json for load_plan.
    """
    env = make_env(task_cfg)
    goals = evaluation_goals(env, n_eval_goals)
    out = cma_search(lambda vector: plan_fitness(env, vector, goals),
                     plan_dim(env), total_steps, out_dir,
                     np.random.default_rng(seed), population_size, sigma0,
                     artifact=BEST_PLAN_FILE)
    best_vector = out["best_candidate"]
    with open(os.path.join(out_dir, BEST_PLAN_FILE), "w",
              encoding="utf-8") as fh:
        json.dump({"task": env.task_name,
                   "fitness": out["best_fitness"],
                   "vector": [float(x) for x in best_vector]}, fh, indent=1)
    out["best_vector"] = best_vector
    return out
