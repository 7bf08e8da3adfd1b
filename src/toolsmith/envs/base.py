"""Two-phase MDP core shared by all tasks.

Every episode starts in the design phase: the first action is a ratio-space
design action, realized as the task's in-box design (a (DESIGN_DIM,) array
of link lengths and joint angles, see geometry.RatioDesignSpace), and the
built tool is placed at the task's fixed init pose. The episode then switches
to the control phase, where actions command tool velocities, clamped to
per-task caps.

The env's live state is its observation. reset and reset_envs return
nothing; step_design, step_control and step_controls return the reward(s).
Everything else is read from the env as it stands: phase, done, goal,
design, and the episode facts success, d_used and c_used (the last
control's effort).

Rewards: the design step earns only the material/control tradeoff term; each
control step earns task reward + slack + tradeoff. The tradeoff term is
K * [1 - (alpha * d_used/d_max + (1-alpha) * c_used/c_max)].

Policy inputs: value_input featurizes the env's current state as the one
row [phase flag (0 design, 1 control), task, design echo in ratio space,
goal]. The echo is zero in the design phase; step_design computes it once
per episode. Each task class declares task_center and task_scale (one entry
per task-observation entry) and goal_center and goal_scale (one per goal
entry); a task or goal entry x enters as (x - center) / scale. A policy
reads its columns of the row, as ppo.Artifact.columns picks them: the
designer design_columns (task, goal) and the controller control_columns
(all after the flag), unless it has no inputs or shares a trunk.
Collection and the PPO update keep only this row per step (ppo.Trajectory
and ppo.Batch value_inputs). design_input and control_input return those
columns; nothing in the program calls them, bench/spans.py wraps them by
name.

Batched stepping: reset_envs and step_controls advance several envs of one
task together. Each env does its own bookkeeping (rng draws, clamping,
control, rewards), while the physics of all of them runs as one World.step
pass per substep (see physics2d), so every env ends bitwise where its own
reset and step_control leave it. reset_envs builds every scene first, each
with its own rng in the one-env order, then runs the task's settle_steps
for all of them at once. reset and step_control are the one-env cases.
Their lockstep callers are ppo.collect_batch, which trains, and
ppo.run_episodes, the scored-episode loop (evaluation.evaluate_plan runs a
plan's goals through it). Scoop's settle lets its balls fall from their
jittered grid for a fixed number of steps; they are still moving, and still
sinking into each other, when the design step comes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from ..geometry import (
    DESIGN_DIM,
    NUM_LINKS,
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
    gravity: tuple = (0.0, -9.8)
    settle_steps: int = 0  # world steps after building a scene, before design
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
            d_max=self.space.d_max, c_max=float(np.linalg.norm(cap)))
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

    def reset(self, goal=None, seed=None) -> None:
        reset_envs([self], [goal], [seed])

    def _start_episode(self, goal, seed) -> None:
        """Everything of a reset but the settle steps."""
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        if goal is None:
            goal = self.sample_goal(self._rng)
        # a copy: the caller may write to its goal array after the reset
        self._goal = self.validate_goal(goal).copy()
        cfg = self.cfg
        self.world = World(gravity=self.gravity, dt=cfg.dt,
                           friction=cfg.friction,
                           restitution_circle=cfg.restitution_circle,
                           restitution_surface=cfg.restitution_surface)
        self._build_scene(self._rng)
        self._phase = DESIGN
        self._done = False
        self._steps = 0
        self._design: np.ndarray | None = None
        self._design_ratio = np.zeros(DESIGN_DIM, dtype=np.float64)
        self._d_used = 0.0
        self._success = 0.0
        self._c_used = 0.0

    def _require(self, phase: str) -> None:
        if self._phase is None or self._done:
            raise ProtocolError("episode is finished; call reset first")
        if self._phase != phase:
            raise ProtocolError("design step already taken this episode"
                                if phase == DESIGN else
                                "control step before the design step")

    def step_design(self, action) -> float:
        """Realize and build the design; returns the design step's reward."""
        self._require(DESIGN)
        a = np.asarray(action, dtype=np.float64).reshape(DESIGN_DIM)
        design = self.space.realize(a)
        design.flags.writeable = False
        self._design = design
        self._design_ratio = self.space.ratio_of(design)
        self.world.set_tool(build_tool(design, radius=TOOL_RADIUS),
                            self.cfg.tool_position_init, angle=math.pi)
        self._d_used = float(sum(design[:NUM_LINKS]))
        self._phase = CONTROL
        return float(tradeoff_reward(self.tradeoff, self._d_used, 0.0))

    def step_control(self, action) -> float:
        """One control step; returns its reward."""
        return step_controls([self], [action])[0]

    def _clamped(self, action) -> np.ndarray:
        a = np.asarray(action, dtype=np.float64).reshape(self.control_action_dim)
        return np.minimum(np.maximum(a, -self._cap), self._cap)

    def _end_control(self) -> float:
        """Count the step and score it, after its physics substeps."""
        self._steps += 1
        task_r, done = self._task_reward_done()
        if self._steps >= self.cfg.max_episode_steps:
            done = True
        self._done = bool(done)
        return float(task_r + self.cfg.slack_reward
                     + tradeoff_reward(self.tradeoff, self._d_used, self._c_used))

    @property
    def phase(self) -> str | None:
        return self._phase

    @property
    def done(self) -> bool:
        return self._done

    @property
    def design(self) -> np.ndarray | None:
        """The realized design, read-only; None before the design step."""
        return self._design

    @property
    def goal(self) -> np.ndarray:
        return self._goal.copy()

    @property
    def success(self) -> float:
        """The episode's success so far: 1 or 0, or catch's caught share."""
        return float(self._success)

    @property
    def d_used(self) -> float:
        """Material of the built design: its link lengths summed; 0 before."""
        return float(self._d_used)

    @property
    def c_used(self) -> float:
        """Effort of the last control: the clamped action's norm; 0 before."""
        return float(self._c_used)

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

    def value_input(self) -> np.ndarray:
        """The env as it stands: [phase flag, task, design ratio, goal]."""
        flag = 0.0 if self._phase == DESIGN else 1.0
        return np.concatenate([[flag],
                               (self._task_obs() - self.task_center) / self.task_scale,
                               self._design_ratio,
                               (self._goal - self.goal_center) / self.goal_scale])

    def design_input(self) -> np.ndarray:
        return self.value_input()[self.design_columns]

    def control_input(self) -> np.ndarray:
        return self.value_input()[self.control_columns]

    # -- subclass hooks ---------------------------------------------------

    def _build_scene(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def _apply_control(self, action: np.ndarray) -> None:
        raise NotImplementedError

    def _task_reward_done(self) -> tuple[float, bool]:
        raise NotImplementedError

    def _task_obs(self) -> np.ndarray:
        raise NotImplementedError


def _common(values, what: str):
    """The one value shared by every env stepped together."""
    values = set(values)
    if len(values) != 1:
        raise ValueError(f"envs stepped together must share {what}")
    return values.pop()


def reset_envs(envs: list, goals=None, seeds=None) -> None:
    """Reset every env.

    goals and seeds give each env's reset arguments (None: all None). The
    scenes are built in env order, each from its own rng, then the task's
    settle steps run for all of them as batched World.step passes.
    """
    goals = [None] * len(envs) if goals is None else goals
    seeds = [None] * len(envs) if seeds is None else seeds
    settle = _common((env.settle_steps for env in envs), "settle_steps")
    for env, goal, seed in zip(envs, goals, seeds):
        env._start_episode(goal, seed)
    worlds = [env.world for env in envs]
    for _ in range(settle):
        worlds[0].step(*worlds[1:])


def step_controls(envs: list, actions) -> list:
    """One control step of every env, actions[i] for envs[i]; returns their
    rewards. The physics substeps of all of them run as batched
    World.step passes; then each env scores its step."""
    if len(actions) != len(envs):
        raise ValueError(f"{len(envs)} envs need as many actions, got {len(actions)}")
    for env in envs:
        env._require(CONTROL)
    substeps = _common((env.cfg.control_steps_per_action for env in envs),
                       "control_steps_per_action")
    clamped = [env._clamped(a) for env, a in zip(envs, actions)]
    for env, a in zip(envs, clamped):
        env._c_used = float(np.linalg.norm(a))
        env._apply_control(a)
    worlds = [env.world for env in envs]
    for _ in range(substeps):
        worlds[0].step(*worlds[1:])
    return [env._end_control() for env in envs]


def supported_by_tool(world: World) -> np.ndarray:
    """Circles touching the tool, directly or through a chain of contacts."""
    mask = world.circles_touching_tool()
    cc_a, cc_b = world.contacts.cc_a, world.contacts.cc_b
    if cc_a.size == 0:
        # no circle-circle contact, as on most catch substeps: the loop's
        # first test would find none too, at about 4 us a call
        return mask
    # spread the mask until no contact links a held circle to a free one
    linked = mask[cc_a] ^ mask[cc_b]
    while linked.any():
        mask[cc_a[linked]] = True
        mask[cc_b[linked]] = True
        linked = mask[cc_a] ^ mask[cc_b]
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
