"""Bi-level search: evolutionary outer loop over designs, learned control.

Each outer candidate is a raw design action vector. A fresh control policy
is trained from scratch against that one design for a fixed inner budget,
then scored on the shared evaluation goals; the evolutionary update sees
only the scores. Candidates do not warm-start from one another. Env steps
spent in inner training and in evaluation are both charged to the curve.
"""

from __future__ import annotations

import os

import numpy as np

from toolsmith.baselines.cma import cma_search
from toolsmith.envs import default_config, make_env
from toolsmith.evaluation import evaluate_policy, evaluation_goals
from toolsmith.neural import save_checkpoint
from toolsmith.ppo import (
    Optimizers,
    TrainConfig,
    checkpoint_record,
    collect_batch,
    config_fingerprint,
    default_train_config,
    policy_columns,
    policy_for_env,
    ppo_update,
    prepare_batch,
    seeded_envs,
)

CHECKPOINT_FILE = "checkpoint.json"


def _train_inner(envs, params, cfg, rng, budget: int, design) -> tuple:
    """Control-only updates against one fixed design; returns the steps
    used and the optimizers."""
    optimizers = Optimizers(params, cfg)
    columns = policy_columns(params, envs[0])
    steps = 0
    while steps < budget:
        trajs = collect_batch(envs, params, cfg, rng, fixed_design=design)
        batch = prepare_batch(trajs, cfg, columns)
        steps += batch.env_steps
        ppo_update(params, batch, cfg, optimizers, rng)
    return steps, optimizers


def cma_rl(task: str, total_steps: int, out_dir, seed: int = 0,
           task_cfg=None, cfg: TrainConfig | None = None,
           population_size: int = 24, sigma0: float = 0.1,
           inner_steps: int = 20000, n_eval_goals: int = 16,
           n_envs: int = 8) -> dict:
    """Run the outer loop until the total env-step budget is spent.

    Saves the best candidate as checkpoint.json: ppo.checkpoint_record plus
    fixed_design (the searched design action) and fitness.
    """
    task_cfg = task_cfg or default_config(task)
    cfg = cfg or default_train_config(task, scale="desk")
    rng = np.random.default_rng(seed)
    envs = seeded_envs(task_cfg, n_envs, seed)
    eval_env = make_env(task_cfg)
    goals = evaluation_goals(eval_env, n_eval_goals)
    inner_total = 0

    def fitness(design) -> dict:
        nonlocal inner_total
        params = policy_for_env(envs[0], rng)
        inner, optimizers = _train_inner(envs, params, cfg, rng, inner_steps,
                                         design)
        res = evaluate_policy(eval_env, params, goals, fixed_design=design)
        inner_total += inner
        return dict(res, env_steps=inner + res["env_steps"], params=params,
                    optimizers=optimizers)

    out = cma_search(fitness, eval_env.design_action_dim, total_steps,
                     out_dir, rng, population_size, sigma0,
                     artifact=CHECKPOINT_FILE)
    best_design = out["best_candidate"]
    best_params = out["best_stats"]["params"]
    ck_path = os.path.join(out_dir, CHECKPOINT_FILE)
    config_hash = config_fingerprint(task_cfg, cfg, seed, n_envs,
                                     fixed_design=best_design)
    save_checkpoint(ck_path, {
        **checkpoint_record(best_params, out["best_stats"]["optimizers"], rng,
                            envs, out["env_steps"], config_hash,
                            eval_env.task_name),
        "fixed_design": [float(x) for x in best_design],
        "fitness": out["best_fitness"],
    })
    out.update(best_design=best_design, best_params=best_params,
               inner_steps=inner_total,
               eval_steps=out["env_steps"] - inner_total,
               checkpoint_path=ck_path)
    return out
