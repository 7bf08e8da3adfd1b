"""Shared fixed-goal evaluation used by all methods for comparable curves.

Every method is scored the same way: deterministic rollouts on a fixed list
of goals with fixed reset seeds (goal k with EVAL_RESET_SEED + k), so curves
over env steps are directly comparable and rerunning a command reproduces
identical numbers.

Every scored episode is ppo.run_episodes of an Artifact. evaluate_policy
runs one ppo.run_episode (its one-env case) per goal, with one-row policy
forwards. evaluate_plan runs all goals of an open-loop plan, which needs no
forward, as one run_episodes call, so their scenes step together; each
episode is bitwise the one its goal runs alone. run_plan, one plan episode,
runs only in tests.
"""

from __future__ import annotations

import numpy as np

from toolsmith.envs import make_env
from toolsmith.ppo import Artifact, run_episode, run_episodes

EVAL_GOAL_SEED = 20000
EVAL_RESET_SEED = 30000


def evaluation_goals(env, n: int = 16) -> list:
    """Fixed goal set: goal k is drawn from its own seeded generator."""
    return [env.sample_goal(np.random.default_rng(EVAL_GOAL_SEED + k))
            for k in range(n)]


def _summarize(episodes) -> dict:
    return {
        "mean_return": float(np.mean([e["return"] for e in episodes])),
        "success_rate": float(np.mean([e["success"] for e in episodes])),
        "mean_d_used": float(np.mean([e["d_used"] for e in episodes])),
        "mean_c_used": float(np.mean([e["mean_c_used"] for e in episodes])),
        "env_steps": int(sum(1 + e["steps"] for e in episodes)),
    }


def evaluate_policy(env, art: Artifact, goals) -> dict:
    """art's deterministic episode on each goal, goal k reset with seed
    EVAL_RESET_SEED + k; returns aggregate statistics and the episodes."""
    episodes = [run_episode(env, art, goal=goal, seed=EVAL_RESET_SEED + k)
                for k, goal in enumerate(goals)]
    return {**_summarize(episodes), "episodes": episodes}


def run_plan(env, design_action, controls, goal, seed) -> dict:
    """Execute an open-loop plan: one design step, then scripted controls."""
    return run_episode(env, Artifact(env.task_name, fixed_design=design_action,
                                     controls=controls), goal=goal, seed=seed)


def evaluate_plan(env, design_action, controls, goals) -> dict:
    """Mean statistics of one plan over the fixed goal set.

    The goals run as one run_episodes call, goal k reset with seed
    EVAL_RESET_SEED + k: goal 0 on env, each other goal on its own
    make_env(env.cfg), so their scenes step together.
    """
    envs = [env] + [make_env(env.cfg) for _ in goals[1:]]
    art = Artifact(env.task_name, fixed_design=design_action,
                   controls=controls)
    seeds = [EVAL_RESET_SEED + k for k in range(len(goals))]
    return _summarize(run_episodes(envs, art, goals, seeds))
