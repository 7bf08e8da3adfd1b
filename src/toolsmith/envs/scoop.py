"""Scooping: lift an exact count of balls out of a tank.

Forty small balls fill a walled tank. The tool is velocity-controlled in
x, y, and rotation. The episode is a fixed horizon; only the final step is
rewarded, by how close the number of lifted balls (above the rim and
supported by the tool) is to the goal count, with a bonus for an exact match.
"""

from __future__ import annotations

import numpy as np

from .base import ToolTaskEnv, supported_by_tool

NUM_BALLS = 40
BALL_RADIUS = 0.25
FLOOR_Y = 3.0
WALL_LEFT, WALL_RIGHT = 4.0, 10.0
RIM_Y = 7.0
GOAL_MIN, GOAL_MAX = 1, 7
SETTLE_STEPS = 30
_COLS, _ROWS = 8, 5


class ScoopEnv(ToolTaskEnv):

    task_name = "scoop"
    # world steps in which the balls fall from their grid before the design;
    # they are still moving when it comes
    settle_steps = SETTLE_STEPS
    goal_dim = 1
    control_action_dim = 3
    task_obs_dim = 4 * NUM_BALLS + 4
    # ball positions (x, y per ball), ball velocities, tool position, then
    # the tool heading's cosine and sine, which enter unscaled
    task_center = np.concatenate([np.tile([10.0, 7.0], NUM_BALLS),
                                  np.zeros(2 * NUM_BALLS), [10.0, 7.0],
                                  [0.0, 0.0]])
    task_scale = np.concatenate([np.full(4 * NUM_BALLS + 2, 6.0), [1.0, 1.0]])
    goal_center = np.array([4.0])
    goal_scale = np.array([3.0])

    def sample_goal(self, rng: np.random.Generator) -> np.ndarray:
        return np.array([float(rng.integers(GOAL_MIN, GOAL_MAX + 1))])

    def validate_goal(self, goal) -> np.ndarray:
        g = np.asarray(goal, dtype=np.float64).reshape(-1)
        if g.shape != (1,):
            raise ValueError("scoop goal must be a single ball count")
        n = g[0]
        if not np.isfinite(n) or n != int(n):
            raise ValueError(f"scoop goal must be an integer, got {n!r}")
        if not GOAL_MIN <= int(n) <= GOAL_MAX:
            raise ValueError(
                f"scoop goal {int(n)} outside [{GOAL_MIN}, {GOAL_MAX}]")
        return g

    def _build_scene(self, rng: np.random.Generator) -> None:
        w = self.world
        w.add_static_capsule((0.0, FLOOR_Y), (20.0, FLOOR_Y))
        w.add_static_capsule((WALL_LEFT, FLOOR_Y), (WALL_LEFT, RIM_Y))
        w.add_static_capsule((WALL_RIGHT, FLOOR_Y), (WALL_RIGHT, RIM_Y))
        xs = np.linspace(4.6, 9.4, _COLS)
        ys = 3.5 + 0.6 * np.arange(_ROWS)
        for y in ys:
            for x in xs:
                jx, jy = rng.uniform(-0.05, 0.05, size=2)
                w.add_circle((x + jx, y + jy), radius=BALL_RADIUS)

    def _apply_control(self, action: np.ndarray) -> None:
        self.world.command_tool(action[:2], action[2])

    def _scooped_count(self) -> int:
        w = self.world
        held = supported_by_tool(w)
        return int(np.count_nonzero(held & (w.pos[:, 1] > RIM_Y)))

    def _task_reward_done(self):
        if self._steps < self.cfg.max_episode_steps:
            return 0.0, False
        k = self._scooped_count()
        n = int(self._goal[0])
        reward = 1.0 - abs(k - n) / 7.0
        if k == n:
            reward += self.cfg.success_reward
            self._success = 1.0
        return reward, True

    def _task_obs(self) -> np.ndarray:
        w = self.world
        return np.concatenate([w.pos.ravel(), w.vel.ravel(), w.tool_position,
                               [np.cos(w.tool_angle), np.sin(w.tool_angle)]])
