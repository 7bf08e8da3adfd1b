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
    gravity = (0.0, 0.0)  # top-down
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

    def _build_scene(self, rng: np.random.Generator) -> None:
        self._puck = self.world.add_circle(PUCK_START, radius=PUCK_RADIUS,
                                           damping=PUCK_DAMPING)
        # the design step moves no circle, so this is the distance the
        # first control step is scored against
        self._prev_dist = self._goal_dist()

    def _goal_dist(self) -> float:
        return float(np.linalg.norm(self.world.pos[self._puck] - self._goal))

    @classmethod
    def _tool_commands(cls, clamped):
        return clamped, [0.0] * clamped.shape[0]

    @classmethod
    def _task_rewards(cls, envs, steps, tool_vel, state):
        # the puck rows of the scene stack; each row's norm is its ddot, as
        # _goal_dist's np.linalg.norm computes it
        puck = envs[0]._puck
        off = state.pos[:, puck] - [env._goal for env in envs]
        dist = np.sqrt(np.vecdot(off, off))
        puck_vel = state.vel[:, puck]
        speed = np.sqrt(np.vecdot(puck_vel, puck_vel))
        reward = np.array([env._prev_dist for env in envs]) - dist
        done = (dist < SUCCESS_DIST) & (speed < SUCCESS_SPEED)
        reward[done] += envs[0].cfg.success_reward
        for env, d, end in zip(envs, dist.tolist(), done.tolist()):
            env._prev_dist = d
            if end:
                env._success = 1.0
        return reward, done

    @classmethod
    def _task_obs_rows(cls, envs, state):
        puck = envs[0]._puck
        return np.concatenate([state.pos[:, puck], state.vel[:, puck],
                               state.tool_pos], axis=1)
