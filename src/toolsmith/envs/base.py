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
goal]. The echo is zero in the design phase; the reset writes the goal
part once per episode and step_design the flag and echo, so a step fills in
only the task part. Each task class declares task_center and task_scale (one entry
per task-observation entry) and goal_center and goal_scale (one per goal
entry); a task or goal entry x enters as (x - center) / scale. A policy
reads its columns of the row, as ppo.Artifact.columns picks them: the
designer design_columns (task, goal) and the controller control_columns
(all after the flag), unless it has no inputs or shares a trunk.
Collection and the PPO update keep only this row per step (ppo.Trajectory
and ppo.Batch value_inputs). design_input and control_input return those
columns; nothing in the program calls them, bench/spans.py wraps them by
name.

Batched stepping: reset_envs, step_controls and value_inputs work on several
envs of one task together, and every env ends bitwise where its own reset,
step_control and value_input leave it. reset, step_control and value_input
are the one-env cases; the lockstep callers are ppo.collect_batch, which
trains, and ppo.run_episodes, the scored-episode loop
(evaluation.evaluate_plan runs a plan's goals through it).
- reset_envs builds every scene first, each with its own rng in the one-env
  order, then runs the task's settle_steps for all of them at once. Scoop's
  settle lets its balls fall from their jittered grid for a fixed number of
  steps; they are still moving, and still sinking into each other, when the
  design step comes.
- step_controls takes envs that share one TaskConfig and refuses any other
  batch, or an action of the wrong shape, before it writes anything. Its
  clamp, efforts, step counts, time-limit done flags, slack, tradeoff term
  and rewards are one numpy expression each over the E envs. The physics
  runs as one World.step pass per substep (see physics2d). Then the task's
  batched hooks do the rest: _tool_commands turns the clamped actions into
  tool velocities, and _task_rewards scores the step on the scene stack's
  arrays (physics2d.stacked_state). Push reads its puck rows there. Catch
  and scoop read the pass's contact rows, which the stack carries, through
  one supported_by_tool call over all the scenes: catch once per control
  step, scoop on the step that ends its episodes. Catch keeps its ball
  state in _BallRows, which the next step of the same envs updates in
  place.
- value_inputs builds all rows at once from the scene stack, through the
  task's _task_obs_rows hook.

A quantity keeps the rounding path of the one-env arithmetic it replaces:
- the norm of one action, or of push's puck offset and velocity, was a 1-D
  np.linalg.norm, which is a BLAS ddot; np.sqrt(np.vecdot(a, a)) over rows
  calls the same ddot per row, whereas sqrt(a0*a0 + a1*a1) may round
  differently;
- catch's np.linalg.norm(..., axis=...) is a plain add.reduce of the
  squares, written out as such, not a vecdot;
- the tool heading's cos and sin stay per scene (math in physics2d, np.cos
  and np.sin in scoop's observation), never one np.cos over all scenes.
tests/test_envs.py checks each batched step against the env stepped alone.
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
from ..physics2d import SceneState, World, command_tools, stacked_state

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


def tradeoff_reward(cfg: TradeoffConfig, d_used, c_used):
    """K * [1 - (alpha * d_used/d_max + (1-alpha) * c_used/c_max)], for
    floats or elementwise for arrays over envs.

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

def dump_task_config(cfg: TaskConfig) -> str:
    """One `key = value` line per field, written as the field's declared
    type (str, int, float or a tuple of floats), tuples comma-separated."""
    lines = []
    for f in fields(TaskConfig):
        v = getattr(cfg, f.name)
        if f.type.startswith("tuple"):
            text = ", ".join(repr(float(x)) for x in v)
        elif f.type == "str":
            text = v
        elif f.type == "int":
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

    Subclasses provide the scene and the batched hooks that command the
    tools, score a control step and observe the task; this class and
    step_controls own the design/control protocol, clamping, step budgets,
    and the reward composition.
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
        self._cap, self._cap_low = cap, -cap
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
        # the value row but for its task part, which value_inputs fills in:
        # the design flag, a zero echo and the goal
        self._row = np.zeros(self.value_input_dim)
        self._row[-self.goal_dim:] = (self._goal - self.goal_center) / self.goal_scale
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
        self._row[0] = 1.0
        self._row[1 + self.task_obs_dim:-self.goal_dim] = self.space.ratio_of(design)
        self.world.set_tool(build_tool(design, radius=TOOL_RADIUS),
                            self.cfg.tool_position_init, angle=math.pi)
        self._d_used = float(sum(design[:NUM_LINKS]))
        self._phase = CONTROL
        return float(tradeoff_reward(self.tradeoff, self._d_used, 0.0))

    def step_control(self, action) -> float:
        """One control step; returns its reward."""
        return step_controls([self], [action])[0]

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
        return value_inputs([self])[0]

    def design_input(self) -> np.ndarray:
        return self.value_input()[self.design_columns]

    def control_input(self) -> np.ndarray:
        return self.value_input()[self.control_columns]

    # -- subclass hooks ---------------------------------------------------
    # The batched hooks take every env of a step_controls or value_inputs
    # call at once, with the stacked state of their scenes.

    def _build_scene(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    @classmethod
    def _tool_commands(cls, clamped: np.ndarray) -> tuple:
        """(tool velocities (E, 2), angular velocities (E,)) for the clamped
        control actions, one row per env."""
        raise NotImplementedError

    @classmethod
    def _task_rewards(cls, envs: list, steps: np.ndarray, tool_vel: np.ndarray,
                      state: SceneState) -> tuple:
        """(task rewards (E,), done flags (E,)) of a control step that has
        just run its physics; steps counts it and tool_vel (E, 2) is what
        it commanded. Writes each env's task state and success."""
        raise NotImplementedError

    @classmethod
    def _task_obs_rows(cls, envs: list, state: SceneState) -> np.ndarray:
        """The raw task observation of every env, one row each."""
        raise NotImplementedError


def reset_envs(envs: list, goals=None, seeds=None) -> None:
    """Reset every env.

    goals and seeds give each env's reset arguments, one entry per env
    (None: all None); any other length raises before an env is touched. The
    scenes are built in env order, each from its own rng, then the task's
    settle steps run for all of them as batched World.step passes.
    """
    goals = [None] * len(envs) if goals is None else goals
    seeds = [None] * len(envs) if seeds is None else seeds
    if not len(envs) == len(goals) == len(seeds):
        raise ValueError(f"{len(envs)} envs need as many goals and seeds, "
                         f"got {len(goals)} and {len(seeds)}")
    settle = {env.settle_steps for env in envs}
    if len(settle) != 1:
        raise ValueError("envs reset together must share settle_steps")
    settle = settle.pop()
    for env, goal, seed in zip(envs, goals, seeds):
        env._start_episode(goal, seed)
    worlds = [env.world for env in envs]
    for _ in range(settle):
        worlds[0].step(*worlds[1:])


def _control_actions(envs: list, actions) -> np.ndarray:
    """actions as one (E, control_action_dim) array, once every env is in
    its control phase, none is given twice and all share one TaskConfig;
    raises before anything is written."""
    if not envs or len(actions) != len(envs):
        raise ValueError(f"{len(envs)} envs need as many actions, got {len(actions)}")
    if len(set(map(id, envs))) < len(envs):
        raise ValueError("an env can be stepped only once per step_controls call")
    cfg = envs[0].cfg
    for env in envs:
        env._require(CONTROL)
        if env.cfg is not cfg and env.cfg != cfg:
            raise ValueError("envs stepped together must share one TaskConfig")
    shape = (len(envs), envs[0].control_action_dim)
    try:
        acts = np.asarray(actions, dtype=np.float64)
    except (TypeError, ValueError):
        acts = None
    if acts is None or acts.shape != shape:
        raise ValueError(f"{shape[0]} envs need one action of {shape[1]} "
                         f"values each")
    return acts


def step_controls(envs: list, actions) -> list:
    """One control step of every env, actions[i] for envs[i]; returns their
    rewards. The envs must share one TaskConfig; see the module docstring
    for what runs once over all of them."""
    acts = _control_actions(envs, actions)
    first = envs[0]
    cls, cfg = type(first), first.cfg
    clamped = np.minimum(np.maximum(acts, first._cap_low), first._cap)
    # each row's ddot, as np.linalg.norm of one action computes it
    c_used = np.sqrt(np.vecdot(clamped, clamped))
    worlds = [env.world for env in envs]
    velocity, spin = cls._tool_commands(clamped)
    command_tools(worlds, velocity, spin)
    for _ in range(cfg.control_steps_per_action):
        state = worlds[0].step(*worlds[1:])
    steps = np.array([env._steps + 1 for env in envs])
    rewards, done = cls._task_rewards(envs, steps, velocity, state)
    done |= steps >= cfg.max_episode_steps
    rewards += cfg.slack_reward
    if first.tradeoff.k:
        # K = 0 would add exact zeros: no reward is -0.0 here, since no
        # task reward is, so they would change nothing
        rewards += tradeoff_reward(
            first.tradeoff, np.array([env._d_used for env in envs]), c_used)
    for env, n, end, c in zip(envs, steps.tolist(), done.tolist(),
                              c_used.tolist()):
        env._steps, env._done, env._c_used = n, end, c
    return rewards.tolist()


def value_inputs(envs: list) -> np.ndarray:
    """The value row of every env of one task, env i's in row i: what
    env.value_input() gives, [phase flag, task, design ratio, goal]."""
    cls = type(envs[0])
    rows = np.array([env._row for env in envs])
    task = rows[:, 1:1 + cls.task_obs_dim]
    np.subtract(cls._task_obs_rows(envs, stacked_state([env.world for env in envs])),
                cls.task_center, out=task)
    task /= cls.task_scale
    return rows


def supported_by_tool(state: SceneState) -> np.ndarray:
    """(E, N) mask of the circles that touch the tool, directly or through a
    chain of circle-circle rows, in the World.step pass that returned state.

    The pass's rows number circle i of scene e as e * N + i and never link
    two scenes, so marking every tool row's circle and then spreading over
    the circle-circle rows gives each scene's own mask.
    """
    c = state.contacts
    if c is None:
        raise ValueError("supported_by_tool needs the state of a World.step "
                         "pass, which carries its contacts")
    e, n = state.pos.shape[:2]
    mask = np.zeros(e * n, dtype=bool)
    mask[c.a[c.is_tool]] = True
    # spread the mask until no contact links a held circle to a free one;
    # most catch substeps have no circle-circle row to spread over
    if c.a.size > c.surfaces:
        ia, ib = c.a[c.surfaces:], c.b[c.surfaces:]
        linked = mask[ia] ^ mask[ib]
        while linked.any():
            mask[ia[linked]] = True
            mask[ib[linked]] = True
            linked = mask[ia] ^ mask[ib]
    return mask.reshape(e, n)


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
