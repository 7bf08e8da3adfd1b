"""Single-trunk ablation: design and control heads on one shared network.

Both phases read the whole phase-flagged value row, pass through one shared
stack of hidden layers, and branch only at the last affine layer; a designer
as wide as its controller is how ppo.Artifact tells a shared trunk.
The trunk arrays are literally the same objects in the designer and the
controller, so gradient accumulation and deduplicated optimizer stepping
fall out of the ordinary update path. The trunk is widened until the
trainable parameter count at least matches the separate-network method,
which keeps the comparison fair.

The method is this starting policy and nothing else: ppo.train runs it
when given shared_policy's bundle as params.
"""

from __future__ import annotations

import numpy as np

from toolsmith.neural import (
    HIDDEN,
    Network,
    PolicyParams,
    init_network,
    param_count,
)
from toolsmith.ppo import policy_for_env, policy_heads


def separate_param_count(env) -> int:
    """Trainable scalar count of the standard two-network method."""
    return param_count(policy_for_env(env, np.random.default_rng(0)))


def shared_policy(env, rng: np.random.Generator, **overrides) -> PolicyParams:
    """Build the tied-trunk bundle, widening until the size bar is met; the
    heads come from ppo.policy_heads(env, **overrides)."""
    heads = policy_heads(env, **overrides)
    floor = separate_param_count(env)
    widths = HIDDEN

    while True:
        candidate = _build(env, np.random.default_rng(0), widths, heads)
        if param_count(candidate) >= floor:
            break
        widths = tuple(w + 16 for w in widths)
    built = _build(env, rng, widths, heads)
    assert param_count(built) >= floor, \
        f"shared architecture {param_count(built)} params < separate {floor}"
    return built


def _build(env, rng, widths, heads) -> PolicyParams:
    d_out = env.design_action_dim
    c_out = env.control_action_dim
    v_in = env.value_input_dim
    trunk_and_design = init_network((v_in, *widths, d_out), rng,
                                    output_gain=0.01)
    control_head = init_network((widths[-1], c_out), rng, output_gain=0.01)
    controller = Network(
        sizes=(v_in, *widths, c_out),
        weights=trunk_and_design.weights[:-1] + control_head.weights,
        biases=trunk_and_design.biases[:-1] + control_head.biases,
    )
    return PolicyParams(
        designer=trunk_and_design,
        designer_head=heads[0],
        controller=controller,
        controller_head=heads[1],
        value=init_network((v_in, *widths, 1), rng, output_gain=1.0),
    )


def retie_trunk(params: PolicyParams) -> PolicyParams:
    """Point the controller's hidden layers back at the designer's arrays.

    Checkpoints store each network separately, so loading one duplicates
    the trunk; call this after decoding to restore the weight sharing.
    """
    n_trunk = len(params.designer.weights) - 1
    for i in range(n_trunk):
        if not np.array_equal(params.controller.weights[i],
                              params.designer.weights[i]):
            raise ValueError("checkpoint trunks diverged; not a tied bundle")
        params.controller.weights[i] = params.designer.weights[i]
        params.controller.biases[i] = params.designer.biases[i]
    return params
