"""Joint design-and-control policy gradient with a single shared design.

The design distribution's mean is a free parameter vector rather than a
network output, so one design is learned for the whole goal distribution
while the controller stays goal-conditioned. Implemented as a designer with
no inputs: one affine layer whose output is exactly its bias, which the
usual policy-gradient update moves through the design-step
log-probabilities. Having no inputs, it reads no columns of the value row
(ppo.policy_columns), and no update can make it goal-dependent.

The method is this starting policy and nothing else: ppo.train runs it
when given constant_designer_policy's bundle as params.
"""

from __future__ import annotations

import numpy as np

from toolsmith.neural import HIDDEN, Network, PolicyParams, init_network
from toolsmith.ppo import policy_heads


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
