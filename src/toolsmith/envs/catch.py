"""Catching: hold falling balls on the designed tool.

Three balls spawn at rest at goal-specified positions and fall under gravity;
there is no floor. The tool slides horizontally. A ball is caught once it has
moved with the tool (in sustained transitive contact, small relative speed)
for a streak of steps; it is lost once it falls below the tool line. Each
newly caught ball is worth +1, and catching all three ends the episode with
the success bonus.
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
        self._newly_caught = 0

    def _apply_control(self, action: np.ndarray) -> None:
        self.world.command_tool((action[0], 0.0), 0.0)

    def _after_substep(self) -> None:
        w = self.world
        held = supported_by_tool(w)
        rel = np.linalg.norm(w.vel - w.tool_velocity, axis=1)
        moving_with_tool = held & (rel < CATCH_REL_SPEED)
        self._streak = np.where(moving_with_tool, self._streak + 1, 0)
        newly = (self._streak >= CATCH_STREAK) & ~self._caught & ~self._lost
        if np.any(newly):
            self._caught |= newly
            self._newly_caught += int(np.count_nonzero(newly))
        self._lost |= (w.pos[:, 1] < LOST_Y) & ~self._caught

    def _task_reward_done(self):
        reward = float(self._newly_caught)
        self._newly_caught = 0
        self._success = float(np.count_nonzero(self._caught)) / NUM_BALLS
        done = bool(np.all(self._caught | self._lost))
        if done and np.all(self._caught):
            reward += self.cfg.success_reward
        return reward, done

    def _task_obs(self) -> np.ndarray:
        w = self.world
        return np.concatenate([w.pos.ravel(), w.vel.ravel(), w.tool_position])
