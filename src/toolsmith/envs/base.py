"""Two-phase MDP core shared by all tasks.

Every episode starts in the design phase: the first action is a tool design
vector (in ratio space), realized and clamped to the task's bounds, and the
built tool is placed at the task's fixed init pose. The episode then switches
to the control phase, where actions command tool velocities, clamped to
per-task caps. The control-phase state is the task observation joined with
the episode's design action, which stays in every control observation.

Rewards: the design step earns only the material/control tradeoff term; each
control step earns task reward + slack + tradeoff. The tradeoff term is
K * [1 - (alpha * d_used/d_max + (1-alpha) * c_used/c_max)].

Policy inputs: value_input is the one featurization, the row [phase flag
(0 design, 1 control), task, design echo in ratio space, goal]. Each task
class declares task_center and task_scale (one entry per task-observation
entry) and goal_center and goal_scale (one per goal entry); a task or goal
entry x enters as (x - center) / scale. A policy reads columns of the row
(ppo.policy_columns): both halves of a shared trunk (a designer as wide as
its controller) read all of it, a designer with no inputs none; else the
designer reads design_columns (task, goal) and the controller
control_columns (all after the flag). Collection and the PPO update keep
only this row per step (ppo.Trajectory and ppo.Batch value_inputs) and take
each policy's columns from it. design_input and control_input return those
columns; nothing in the program calls them, bench/spans.py wraps them by
name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from ..geometry import (
    DESIGN_DIM,
    DesignVector,
    RatioDesignSpace,
    build_tool,
)
from ..physics2d import World

DESIGN = "design"
CONTROL = "control"

TOOL_RADIUS = 0.1
DEFAULT_DT = 1.0 / 60.0


class ProtocolError(RuntimeError):
    """Raised when design/control steps are taken out of phase order."""


@dataclass(frozen=True)
class TradeoffConfig:
    """Eq-style material/control tradeoff: K, alpha, and the normalizers."""

    k: float
    alpha: float
    d_max: float
    c_max: float

    def __post_init__(self):
        if self.k < 0.0:
            raise ValueError("tradeoff K must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("tradeoff alpha must lie in [0, 1]")
        if self.d_max <= 0.0 or self.c_max <= 0.0:
            raise ValueError("d_max and c_max must be positive")


def tradeoff_reward(cfg: TradeoffConfig, d_used: float, c_used: float) -> float:
    """K * [1 - (alpha * d_used/d_max + (1-alpha) * c_used/c_max)].

    K = 0 returns exact zero so total returns are bitwise independent of alpha.
    """
    if cfg.k == 0.0:
        return 0.0
    material = cfg.alpha * (d_used / cfg.d_max)
    effort = (1.0 - cfg.alpha) * (c_used / cfg.c_max)
    return cfg.k * (1.0 - (material + effort))


@dataclass
class Observation:
    """Flat task state, phase tag, design echo, and the episode goal.

    design_echo holds the realized physical design vector during the control
    phase and zeros during the design phase.
    """

    phase: str
    task: np.ndarray
    design_echo: np.ndarray
    goal: np.ndarray


@dataclass
class StepResult:
    observation: Observation
    reward: float
    done: bool
    info: dict


@dataclass(frozen=True)
class TaskConfig:
    """Per-task environment parameters, named after the hyperparameter tables."""

    task: str
    max_episode_steps: int
    control_steps_per_action: int
    slack_reward: float
    success_reward: float
    tool_position_init: tuple[float, float]
    tool_length_init: tuple[float, float, float]
    tool_length_ratio: tuple[float, float]
    tool_angle_ratio: tuple[float, float]
    tool_angle_scale: float  # degrees
    control_velocity_cap: tuple[float, ...]
    tradeoff_k: float = 0.0
    tradeoff_alpha: float = 0.5
    friction: float = 0.5
    restitution_circle: float = 0.1
    restitution_surface: float = 0.0
    dt: float = DEFAULT_DT

    def design_space(self) -> RatioDesignSpace:
        return RatioDesignSpace(
            length_init=self.tool_length_init,
            length_ratio=self.tool_length_ratio,
            angle_ratio=self.tool_angle_ratio,
            angle_scale=math.radians(self.tool_angle_scale),
        )


def default_config(task: str, **overrides) -> TaskConfig:
    """The declared defaults for one of the three tasks."""
    if task == "push":
        cfg = TaskConfig(
            task="push",
            max_episode_steps=150,
            control_steps_per_action=1,
            slack_reward=-0.001,
            success_reward=10.0,
            tool_position_init=(20.0, 10.0),
            tool_length_init=(2.0, 2.0, 2.0),
            tool_length_ratio=(-0.5, 0.5),
            tool_angle_ratio=(-1.0, 1.0),
            tool_angle_scale=90.0,
            control_velocity_cap=(12.0, 12.0),
            friction=0.3,
        )
    elif task == "catch":
        cfg = TaskConfig(
            task="catch",
            max_episode_steps=150,
            control_steps_per_action=1,
            slack_reward=-0.001,
            success_reward=10.0,
            tool_position_init=(20.0, 10.0),
            tool_length_init=(2.0, 1.0, 1.0),
            tool_length_ratio=(-0.5, 2.0),
            tool_angle_ratio=(-1.0, 1.0),
            tool_angle_scale=60.0,
            control_velocity_cap=(8.0,),
        )
    elif task == "scoop":
        cfg = TaskConfig(
            task="scoop",
            max_episode_steps=30,
            control_steps_per_action=5,
            slack_reward=-0.001,
            success_reward=10.0,
            tool_position_init=(15.0, 10.0),
            tool_length_init=(6.0, 3.0, 3.0),
            tool_length_ratio=(-0.7, 0.2),
            tool_angle_ratio=(-0.1, 0.7),
            tool_angle_scale=90.0,
            control_velocity_cap=(6.0, 6.0, 3.0),
        )
    else:
        raise ValueError(f"unknown task {task!r}; expected push, catch, or scoop")
    return replace(cfg, **overrides) if overrides else cfg


# ---------------------------------------------------------------------------
# Config text, hashed into the training fingerprint
# ---------------------------------------------------------------------------

_TUPLE_FIELDS = {"tool_position_init", "tool_length_init", "tool_length_ratio",
                 "tool_angle_ratio", "control_velocity_cap"}
_INT_FIELDS = {"max_episode_steps", "control_steps_per_action"}


def dump_task_config(cfg: TaskConfig) -> str:
    """One `key = value` line per field, tuples comma-separated."""
    lines = []
    for f in fields(TaskConfig):
        v = getattr(cfg, f.name)
        if f.name in _TUPLE_FIELDS:
            text = ", ".join(repr(float(x)) for x in v)
        elif f.name == "task":
            text = v
        elif f.name in _INT_FIELDS:
            text = str(int(v))
        else:
            text = repr(float(v))
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Base environment
# ---------------------------------------------------------------------------

class ToolTaskEnv:
    """Phase machine and shared plumbing for the three tasks.

    Subclasses provide the scene, observation vector, control application,
    and task reward; this class owns the design/control protocol, clamping,
    step budgets, and the reward composition.
    """

    task_name: str = ""
    goal_dim: int = 0
    control_action_dim: int = 0
    design_action_dim: int = DESIGN_DIM
    task_obs_dim: int = 0
    # featurization constants, one entry per task-observation / goal entry
    task_center: np.ndarray = np.zeros(0)
    task_scale: np.ndarray = np.ones(0)
    goal_center: np.ndarray = np.zeros(0)
    goal_scale: np.ndarray = np.ones(0)

    def __init__(self, config: TaskConfig):
        if config.task != self.task_name:
            raise ValueError(f"config is for task {config.task!r}, env is {self.task_name!r}")
        self.cfg = config
        self.space = config.design_space()
        cap = np.asarray(config.control_velocity_cap, dtype=np.float64)
        if cap.shape != (self.control_action_dim,):
            raise ValueError("control_velocity_cap length must match the action dim")
        self._cap = cap
        self.tradeoff = TradeoffConfig(
            k=config.tradeoff_k, alpha=config.tradeoff_alpha,
            d_max=self.space.bounds.d_max, c_max=float(np.linalg.norm(cap)))
        # value_input columns: the task and goal, and all after the phase flag
        n = 1 + self.task_obs_dim
        self.design_columns = np.r_[1:n, n + DESIGN_DIM:self.value_input_dim]
        self.control_columns = np.arange(1, self.value_input_dim)
        self._rng = np.random.default_rng()
        self._phase: str | None = None
        self._done = True
        self.world: World | None = None

    # -- goal handling (subclass hooks) --------------------------------------

    def sample_goal(self, rng: np.random.Generator):
        raise NotImplementedError

    def validate_goal(self, goal) -> np.ndarray:
        """Return the goal as a float array, raising ValueError when invalid."""
        raise NotImplementedError

    # -- episode protocol -----------------------------------------------------

    def reset(self, goal=None, seed=None) -> Observation:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        if goal is None:
            goal = self.sample_goal(self._rng)
        self._goal = self.validate_goal(goal)
        self.world = self._make_world()
        self._build_scene(self._rng)
        self._phase = DESIGN
        self._done = False
        self._steps = 0
        self._design: DesignVector | None = None
        self._design_echo = np.zeros(DESIGN_DIM, dtype=np.float64)
        self._d_used = 0.0
        self._success = 0.0
        self._last_c_used = 0.0
        return self._observation()

    def step_design(self, action) -> StepResult:
        if self._phase is None or self._done:
            raise ProtocolError("episode is finished; call reset first")
        if self._phase != DESIGN:
            raise ProtocolError("design step already taken this episode")
        a = np.asarray(action, dtype=np.float64).reshape(DESIGN_DIM)
        design = self.space.realize(a)
        self._design = design
        self._design_echo = design.as_array()
        self.world.set_tool(build_tool(design, radius=TOOL_RADIUS),
                            self.cfg.tool_position_init, angle=math.pi)
        self._d_used = float(sum(design.lengths))
        self._phase = CONTROL
        self._post_design()
        reward = tradeoff_reward(self.tradeoff, self._d_used, 0.0)
        return StepResult(self._observation(), float(reward), False, self._info())

    def step_control(self, action) -> StepResult:
        if self._phase is None or self._done:
            raise ProtocolError("episode is finished; call reset first")
        if self._phase != CONTROL:
            raise ProtocolError("control step before the design step")
        a = np.asarray(action, dtype=np.float64).reshape(self.control_action_dim)
        a = np.minimum(np.maximum(a, -self._cap), self._cap)
        c_used = float(np.linalg.norm(a))
        self._last_c_used = c_used
        self._apply_control(a)
        for _ in range(self.cfg.control_steps_per_action):
            self.world.step()
            self._after_substep()
        self._steps += 1
        task_r, done = self._task_reward_done()
        if self._steps >= self.cfg.max_episode_steps:
            done = True
        self._done = bool(done)
        reward = (task_r + self.cfg.slack_reward
                  + tradeoff_reward(self.tradeoff, self._d_used, c_used))
        return StepResult(self._observation(), float(reward), self._done, self._info())

    @property
    def phase(self) -> str | None:
        return self._phase

    @property
    def done(self) -> bool:
        return self._done

    @property
    def design(self) -> DesignVector | None:
        return self._design

    @property
    def goal(self) -> np.ndarray:
        return self._goal.copy()

    def _observation(self) -> Observation:
        echo = (self._design_echo.copy() if self._phase == CONTROL
                else np.zeros(DESIGN_DIM, dtype=np.float64))
        return Observation(phase=self._phase, task=self._task_obs(),
                           design_echo=echo, goal=self._goal.copy())

    def _info(self) -> dict:
        info = {
            "phase": self._phase,
            "steps": self._steps,
            "success": float(self._success),
            "d_used": float(self._d_used),
            "c_used": float(self._last_c_used),
        }
        info.update(self._task_info())
        return info

    # -- policy featurization -------------------------------------------------
    # Inputs are affinely normalized with the class's declared constants; the
    # design echo enters in ratio space.

    @property
    def design_input_dim(self) -> int:
        return self.task_obs_dim + self.goal_dim

    @property
    def control_input_dim(self) -> int:
        return self.task_obs_dim + DESIGN_DIM + self.goal_dim

    @property
    def value_input_dim(self) -> int:
        return 1 + self.task_obs_dim + DESIGN_DIM + self.goal_dim

    def _echo_ratio(self, echo: np.ndarray) -> np.ndarray:
        if not echo.any():
            return np.zeros(DESIGN_DIM, dtype=np.float64)
        return self.space.ratio_of(DesignVector.from_array(echo))

    def _row(self, obs: Observation) -> np.ndarray:
        flag = 0.0 if obs.phase == DESIGN else 1.0
        return np.concatenate([[flag],
                               (obs.task - self.task_center) / self.task_scale,
                               self._echo_ratio(obs.design_echo),
                               (obs.goal - self.goal_center) / self.goal_scale])

    def value_input(self, obs: Observation) -> np.ndarray:
        return self._row(obs)

    def design_input(self, obs: Observation) -> np.ndarray:
        return self._row(obs)[self.design_columns]

    def control_input(self, obs: Observation) -> np.ndarray:
        return self._row(obs)[self.control_columns]

    # -- subclass hooks ---------------------------------------------------

    def _make_world(self) -> World:
        cfg = self.cfg
        return World(gravity=self._gravity(), dt=cfg.dt, friction=cfg.friction,
                     restitution_circle=cfg.restitution_circle,
                     restitution_surface=cfg.restitution_surface)

    def _gravity(self):
        return (0.0, -9.8)

    def _build_scene(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def _post_design(self) -> None:
        pass

    def _apply_control(self, action: np.ndarray) -> None:
        raise NotImplementedError

    def _after_substep(self) -> None:
        pass

    def _task_reward_done(self) -> tuple[float, bool]:
        raise NotImplementedError

    def _task_obs(self) -> np.ndarray:
        raise NotImplementedError

    def _task_info(self) -> dict:
        return {}


def supported_by_tool(world: World) -> np.ndarray:
    """Circles touching the tool, directly or through a chain of contacts."""
    mask = world.circles_touching_tool()
    cc_a, cc_b = world.contacts.cc_a, world.contacts.cc_b
    if cc_a.size == 0:
        return mask
    changed = True
    while changed:
        linked = mask[cc_a] ^ mask[cc_b]
        if not np.any(linked):
            break
        changed = bool(np.any(linked))
        mask[cc_a[linked]] = True
        mask[cc_b[linked]] = True
    return mask


def make_env(config: TaskConfig | str, **overrides) -> ToolTaskEnv:
    """Build the environment for a task name or a TaskConfig."""
    if isinstance(config, str):
        config = default_config(config, **overrides)
    elif overrides:
        config = replace(config, **overrides)
    from .catch import CatchEnv
    from .push import PushEnv
    from .scoop import ScoopEnv
    cls = {"push": PushEnv, "catch": CatchEnv, "scoop": ScoopEnv}[config.task]
    return cls(config)
