"""Catching: hold falling balls on the designed tool.

Three balls spawn at rest at goal-specified positions and fall under gravity;
there is no floor. The tool slides horizontally. A ball is caught once it has
moved with the tool (in sustained transitive contact, small relative speed)
for a streak of steps; it is lost once it falls below the tool line. Each
newly caught ball is worth +1, and catching all three ends the episode with
the success bonus. A control step is one physics substep, so catching is
scored once per step, after it.
"""

from __future__ import annotations

import numpy as np

from .base import ToolTaskEnv, supported_by_tool

NUM_BALLS = 3
BALL_RADIUS = 0.5
X_LOW, X_HIGH = 15.0, 25.0
H_LOW, H_HIGH = 16.0, 22.0
X_VALID = (12.0, 28.0)
H_VALID = (14.0, 24.0)
LOST_Y = 7.0
CATCH_REL_SPEED = 0.8
CATCH_STREAK = 6


class CatchEnv(ToolTaskEnv):

    task_name = "catch"
    goal_dim = 2 * NUM_BALLS
    control_action_dim = 1
    task_obs_dim = 4 * NUM_BALLS + 2
    # ball positions (x, y per ball), ball velocities, tool position
    task_center = np.concatenate([np.tile([20.0, 14.0], NUM_BALLS),
                                  np.zeros(2 * NUM_BALLS), [20.0, 14.0]])
    task_scale = np.concatenate([np.tile([10.0, 8.0], NUM_BALLS),
                                 np.full(2 * NUM_BALLS, 8.0), [10.0, 8.0]])
    # spawn xs, then spawn heights
    goal_center = np.repeat([20.0, 19.0], NUM_BALLS)
    goal_scale = np.repeat([5.0, 3.0], NUM_BALLS)

    def __init__(self, config):
        if config.control_steps_per_action != 1:
            raise ValueError(
                f"catch scores every physics substep, so it runs one per "
                f"control step, not {config.control_steps_per_action}")
        super().__init__(config)

    def sample_goal(self, rng: np.random.Generator) -> np.ndarray:
        xs = rng.uniform(X_LOW, X_HIGH, size=NUM_BALLS)
        hs = rng.uniform(H_LOW, H_HIGH, size=NUM_BALLS)
        return np.concatenate([xs, hs])

    def validate_goal(self, goal) -> np.ndarray:
        g = np.asarray(goal, dtype=np.float64).reshape(-1)
        if g.shape != (2 * NUM_BALLS,):
            raise ValueError("catch goal must give 3 spawn xs then 3 spawn heights")
        if not np.all(np.isfinite(g)):
            raise ValueError("catch goal must be finite")
        xs, hs = g[:NUM_BALLS], g[NUM_BALLS:]
        if np.any(xs < X_VALID[0]) or np.any(xs > X_VALID[1]):
            raise ValueError(f"catch spawn xs {xs.tolist()} outside {list(X_VALID)}")
        if np.any(hs < H_VALID[0]) or np.any(hs > H_VALID[1]):
            raise ValueError(f"catch spawn heights {hs.tolist()} outside {list(H_VALID)}")
        return g

    def _build_scene(self, rng: np.random.Generator) -> None:
        xs, hs = self._goal[:NUM_BALLS], self._goal[NUM_BALLS:]
        self._balls = [self.world.add_circle((x, h), radius=BALL_RADIUS)
                       for x, h in zip(xs, hs)]
        self._caught = np.zeros(NUM_BALLS, dtype=bool)
        self._lost = np.zeros(NUM_BALLS, dtype=bool)
        self._streak = np.zeros(NUM_BALLS, dtype=np.int64)
        self._ball_rows = None

    @classmethod
    def _tool_commands(cls, clamped):
        velocity = np.zeros((clamped.shape[0], 2))
        velocity[:, 0] = clamped[:, 0]
        return velocity, [0.0] * clamped.shape[0]

    @classmethod
    def _task_rewards(cls, envs, steps, tool_vel, state):
        # one supported_by_tool call reads the pass's rows of all scenes;
        # rel is np.linalg.norm(off, axis=2) written out, the same add.reduce
        held = supported_by_tool(state)
        off = state.vel - tool_vel[:, None]
        rel = np.sqrt(np.add.reduce(off * off, axis=2))
        rows = envs[0]._ball_rows
        if rows is None or not rows.holds(envs):
            rows = _BallRows(envs)
        streak, caught, lost = rows.streak, rows.caught, rows.lost
        # a ball's streak grows while it moves with the tool, else restarts
        streak += 1
        streak *= held & (rel < CATCH_REL_SPEED)
        # on bools, a > b is a & ~b
        newly = (streak >= CATCH_STREAK) > (caught | lost)
        caught |= newly
        lost |= (state.pos[:, :, 1] < LOST_Y) > caught
        count = np.add.reduce(caught, axis=1)
        reward = np.add.reduce(newly, axis=1, dtype=np.float64)
        np.add(reward, envs[0].cfg.success_reward, out=reward,
               where=count == NUM_BALLS)
        for env, n in zip(envs, count.tolist()):
            env._success = n / NUM_BALLS
        return reward, np.logical_and.reduce(caught | lost, axis=1)

    @classmethod
    def _task_obs_rows(cls, envs, state):
        e = len(envs)
        return np.concatenate([state.pos.reshape(e, -1), state.vel.reshape(e, -1),
                               state.tool_pos], axis=1)


class _BallRows:
    """The ball state of the envs scored together, env i's in row i: its
    streaks and its caught and lost flags, one column per ball.

    Each env's _streak, _caught and _lost are views of its rows, so a step
    of the same envs in the same order updates them in place; any other set
    of envs, or an env reset since, gets rows of its own.
    """

    def __init__(self, envs: list):
        self.envs = list(envs)
        self.streak = np.array([env._streak for env in envs])
        self.caught = np.array([env._caught for env in envs])
        self.lost = np.array([env._lost for env in envs])
        for env, s, c, lo in zip(envs, self.streak, self.caught, self.lost):
            env._streak, env._caught, env._lost = s, c, lo
            env._ball_rows = self

    def holds(self, envs: list) -> bool:
        """Whether these are this stack's envs, in order, none reset since."""
        if len(envs) != len(self.envs):
            return False
        for env, mine in zip(envs, self.envs):
            if env is not mine or env._ball_rows is not self:
                return False
        return True
