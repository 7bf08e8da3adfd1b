"""Joint design-and-control policy gradient with a single shared design.

The design distribution's mean is a free parameter vector rather than a
network output, so one design is learned for the whole goal distribution
while the controller stays goal-conditioned. Implemented as a designer with
no inputs: one affine layer whose output is exactly its bias, which the
usual policy-gradient update moves through the design-step
log-probabilities. Having no inputs, it reads no columns of the value row
(ppo.policy_columns), and no update can make it goal-dependent.
"""

from __future__ import annotations

import numpy as np

from toolsmith.envs import default_config, make_env
from toolsmith.neural import HIDDEN, Network, PolicyParams, init_network
from toolsmith.ppo import TrainConfig, policy_heads, train


def constant_designer_policy(env, rng: np.random.Generator,
                             **overrides) -> PolicyParams:
    """Policy bundle whose designer has no inputs.

    The designer is one affine layer from zero inputs, so its output is its
    bias: the design mean is a goal-independent parameter vector. Controller
    and value nets match the standard method; the heads come from
    ppo.policy_heads(env, **overrides).
    """
    d_out = env.design_action_dim
    designer = Network(sizes=(0, d_out), weights=[np.zeros((d_out, 0))],
                       biases=[np.zeros(d_out)])
    designer_head, controller_head = policy_heads(env, **overrides)
    return PolicyParams(
        designer=designer,
        designer_head=designer_head,
        controller=init_network(
            (env.control_input_dim, *HIDDEN, env.control_action_dim),
            rng, output_gain=0.01),
        controller_head=controller_head,
        value=init_network((env.value_input_dim, *HIDDEN, 1), rng,
                           output_gain=1.0),
    )


def hwasp_minimal(task: str, cfg: TrainConfig, total_steps: int, out_dir,
                  seed: int = 0, task_cfg=None, n_envs: int = 16,
                  policy_overrides=None, **train_kw) -> dict:
    """Train the shared-design variant with the standard update machinery."""
    task_cfg = task_cfg or default_config(task)
    env = make_env(task_cfg)
    params = constant_designer_policy(env, np.random.default_rng(seed),
                                      **(policy_overrides or {}))
    return train(task, cfg, total_steps, out_dir, seed=seed,
                 task_cfg=task_cfg, n_envs=n_envs, params=params,
                 policy_overrides=policy_overrides, **train_kw)
