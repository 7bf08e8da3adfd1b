"""Bi-level search: evolutionary outer loop over designs, learned control.

Each outer candidate is a raw design action vector. A fresh control policy
is trained from scratch against that one design, as a fixed-design
ppo.Artifact through ppo.train_round, until it has spent the inner budget;
it is then scored on the shared evaluation goals, and the evolutionary
update sees only the scores. Candidates do not warm-start from one another.
Env steps spent in inner training and in evaluation are both charged to
the curve.
"""

from __future__ import annotations

import os

import numpy as np

from toolsmith.baselines.cma import cma_search
from toolsmith.envs import TaskConfig, make_env
from toolsmith.evaluation import evaluate_policy, evaluation_goals
from toolsmith.neural import save_checkpoint
from toolsmith.ppo import (
    Artifact,
    Optimizers,
    TrainConfig,
    checkpoint_record,
    config_fingerprint,
    default_train_config,
    policy_for_env,
    seeded_envs,
    train_round,
)

CHECKPOINT_FILE = "checkpoint.json"


def cma_rl(task_cfg: TaskConfig, total_steps: int, out_dir, n_envs: int,
           seed: int = 0, cfg: TrainConfig | None = None,
           population_size: int = 24, sigma0: float = 0.1,
           inner_steps: int = 20000, n_eval_goals: int = 16) -> dict:
    """Run the outer loop until the total env-step budget is spent; each
    candidate's inner training collects from n_envs environments.

    Saves the best candidate's Artifact as checkpoint.json: its
    ppo.checkpoint_record, with fixed_design, plus fitness.
    """
    cfg = cfg or default_train_config(task_cfg.task, scale="desk")
    rng = np.random.default_rng(seed)
    envs = seeded_envs(task_cfg, n_envs, seed)
    eval_env = make_env(task_cfg)
    goals = evaluation_goals(eval_env, n_eval_goals)
    inner_total = 0

    def fitness(design) -> dict:
        nonlocal inner_total
        art = Artifact(eval_env.task_name, policy_for_env(envs[0], rng),
                       fixed_design=design)
        optimizers = Optimizers(art.params, cfg)
        inner = 0
        while inner < inner_steps:
            batch, _ = train_round(envs, art, optimizers, cfg, rng)
            inner += batch.env_steps
        res = evaluate_policy(eval_env, art, goals)
        inner_total += inner
        return dict(res, env_steps=inner + res["env_steps"], art=art,
                    optimizers=optimizers)

    out = cma_search(fitness, eval_env.design_action_dim, total_steps,
                     out_dir, rng, population_size, sigma0,
                     artifact=CHECKPOINT_FILE)
    best = out["best_stats"]["art"]
    ck_path = os.path.join(out_dir, CHECKPOINT_FILE)
    config_hash = config_fingerprint(task_cfg, cfg, seed, n_envs,
                                     fixed_design=best.fixed_design)
    save_checkpoint(ck_path, {
        **checkpoint_record(best, out["best_stats"]["optimizers"], rng, envs,
                            out["env_steps"], config_hash),
        "fitness": out["best_fitness"],
    })
    out.update(best_design=out["best_candidate"], best_params=best.params,
               inner_steps=inner_total,
               eval_steps=out["env_steps"] - inner_total,
               checkpoint_path=ck_path)
    return out
