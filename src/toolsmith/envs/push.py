"""Planar pushing: slide a puck to a goal point with the designed tool.

Top-down scene (no gravity). The puck starts between the goal region and the
tool anchor; the tool is velocity-controlled in x and y. The per-step task
reward is the decrease in puck-goal distance, plus the success bonus when the
puck is parked at the goal.
"""

from __future__ import annotations

import numpy as np

from .base import ToolTaskEnv

PUCK_START = (13.0, 10.0)
PUCK_RADIUS = 0.6
PUCK_DAMPING = 1.2
GOAL_LOW = (4.0, 4.0)
GOAL_HIGH = (12.0, 16.0)
WORKSPACE_LOW = (1.0, 1.0)
WORKSPACE_HIGH = (19.0, 19.0)
SUCCESS_DIST = 0.8
SUCCESS_SPEED = 0.25


class PushEnv(ToolTaskEnv):

    task_name = "push"
    goal_dim = 2
    control_action_dim = 2
    task_obs_dim = 6
    # puck position, puck velocity, tool position
    task_center = np.array([10.0, 10.0, 0.0, 0.0, 10.0, 10.0])
    task_scale = np.array([10.0, 10.0, 6.0, 6.0, 10.0, 10.0])
    goal_center = np.array([10.0, 10.0])
    goal_scale = np.array([10.0, 10.0])

    def sample_goal(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(GOAL_LOW, GOAL_HIGH)

    def validate_goal(self, goal) -> np.ndarray:
        g = np.asarray(goal, dtype=np.float64).reshape(-1)
        if g.shape != (2,):
            raise ValueError("push goal must be a 2-d point")
        if not np.all(np.isfinite(g)):
            raise ValueError("push goal must be finite")
        if np.any(g < WORKSPACE_LOW) or np.any(g > WORKSPACE_HIGH):
            raise ValueError(f"push goal {g.tolist()} is outside the workspace")
        return g

    def _gravity(self):
        return (0.0, 0.0)

    def _build_scene(self, rng: np.random.Generator) -> None:
        self._puck = self.world.add_circle(PUCK_START, radius=PUCK_RADIUS,
                                           damping=PUCK_DAMPING)

    def _post_design(self) -> None:
        self._prev_dist = self._goal_dist()

    def _goal_dist(self) -> float:
        return float(np.linalg.norm(self.world.pos[self._puck] - self._goal))

    def _apply_control(self, action: np.ndarray) -> None:
        self.world.command_tool(action, 0.0)

    def _task_reward_done(self):
        dist = self._goal_dist()
        reward = self._prev_dist - dist
        self._prev_dist = dist
        speed = float(np.linalg.norm(self.world.vel[self._puck]))
        if dist < SUCCESS_DIST and speed < SUCCESS_SPEED:
            self._success = 1.0
            return reward + self.cfg.success_reward, True
        return reward, False

    def _task_obs(self) -> np.ndarray:
        w = self.world
        return np.concatenate([w.pos[self._puck], w.vel[self._puck], w.tool_position])
