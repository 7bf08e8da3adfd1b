"""Shared fixed-goal evaluation used by all methods for comparable curves.

Every method is scored the same way: deterministic rollouts on a fixed list
of goals with fixed reset seeds, so curves over env steps are directly
comparable and rerunning a command reproduces identical numbers.
"""

from __future__ import annotations

import numpy as np

from toolsmith.ppo import default_features, run_episode

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


def evaluate_policy(env, params, goals, fixed_design=None, controls=None,
                    features=default_features) -> dict:
    """Deterministic episodes on each goal; returns aggregate statistics.

    fixed_design and controls impose a design or an open-loop control
    schedule in place of the corresponding policy, as in run_episode.
    """
    episodes = [run_episode(env, params, goal=goal, seed=EVAL_RESET_SEED + k,
                            fixed_design=fixed_design, controls=controls,
                            features=features)
                for k, goal in enumerate(goals)]
    return {**_summarize(episodes), "episodes": episodes}


def run_plan(env, design_action, controls, goal, seed) -> dict:
    """Execute an open-loop plan: one design step, then scripted controls."""
    return run_episode(env, None, goal=goal, seed=seed,
                       fixed_design=design_action, controls=controls)


def evaluate_plan(env, design_action, controls, goals) -> dict:
    """Mean statistics of one plan over the fixed goal set."""
    return _summarize([run_plan(env, design_action, controls, goal,
                                EVAL_RESET_SEED + k)
                       for k, goal in enumerate(goals)])
