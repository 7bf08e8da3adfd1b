"""Two-phase tool manipulation tasks."""

from .base import (
    CONTROL,
    DESIGN,
    Observation,
    ProtocolError,
    StepResult,
    TaskConfig,
    ToolTaskEnv,
    TradeoffConfig,
    default_config,
    dump_task_config,
    make_env,
    reset_envs,
    step_controls,
    tradeoff_reward,
)

TASKS = ("push", "catch", "scoop")

__all__ = [
    "CONTROL",
    "DESIGN",
    "Observation",
    "ProtocolError",
    "StepResult",
    "TASKS",
    "TaskConfig",
    "ToolTaskEnv",
    "TradeoffConfig",
    "default_config",
    "dump_task_config",
    "make_env",
    "reset_envs",
    "step_controls",
    "tradeoff_reward",
]
