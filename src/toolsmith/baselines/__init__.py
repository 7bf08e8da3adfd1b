"""Comparison methods: evolutionary search baselines and architecture ablations."""

from toolsmith.baselines.cma import CmaState, cma_init, cma_ask, cma_tell
from toolsmith.baselines.cma_rl import cma_rl
from toolsmith.baselines.hwasp import (
    constant_designer_policy,
    frozen_design_weights,
    hwasp_minimal,
)
from toolsmith.baselines.shared import (
    shared_arch,
    shared_features,
    shared_policy,
)
from toolsmith.baselines.single_traj import (
    plan_dim,
    single_traj_cmaes,
)

__all__ = [
    "CmaState",
    "cma_ask",
    "cma_init",
    "cma_rl",
    "cma_tell",
    "constant_designer_policy",
    "frozen_design_weights",
    "hwasp_minimal",
    "plan_dim",
    "shared_arch",
    "shared_features",
    "shared_policy",
    "single_traj_cmaes",
]
