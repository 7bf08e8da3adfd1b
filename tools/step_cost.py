"""Time one control step of ``envs.step_controls`` per task and batch size.

    python3 tools/step_cost.py [--tasks push catch scoop] [--sizes 1 16 384]
                               [--steps 20] [--repeats 5]

For each task and batch size E, builds E envs of the task's default config,
resets them together (env i with reset seed i), takes one design step each
and then times ``steps`` calls of ``step_controls`` over all of them, on
seeded actions drawn up to 1.5 times the velocity caps, so some are clamped.
Each repeat resets the envs again. The figure is the minimum over repeats
of the mean time per call: the task work of a control step (clamps,
efforts, rewards, done flags, and catch's one ``supported_by_tool`` call
over the pass's rows of all E scenes) together with its physics passes.
Scoop reads ``supported_by_tool`` only on the step that ends its episodes,
which is never timed. BLAS is pinned to one thread. Prints one line per
task and size:

    step_cost task=push envs=16 us_per_step=412.3 us_per_env_step=25.77

and exits 1 if an episode ends inside the timed steps (lower --steps).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from toolsmith.envs import TASKS, make_env, reset_envs, step_controls  # noqa: E402
from toolsmith.geometry import DESIGN_DIM  # noqa: E402

ACTION_SEED = 0


def step_cost(task: str, size: int, steps: int, repeats: int) -> float:
    """Minimum over repeats of the mean seconds per step_controls call."""
    envs = [make_env(task) for _ in range(size)]
    cap = np.asarray(envs[0].cfg.control_velocity_cap)
    rng = np.random.default_rng(ACTION_SEED)
    actions = rng.uniform(-1.5, 1.5, size=(steps, size, cap.size)) * cap
    best = float("inf")
    for _ in range(repeats):
        reset_envs(envs, seeds=list(range(size)))
        for env in envs:
            env.step_design(np.zeros(DESIGN_DIM))
        start = time.perf_counter()
        for act in actions:
            step_controls(envs, act)
        best = min(best, (time.perf_counter() - start) / steps)
        if any(env.done for env in envs):
            raise RuntimeError(f"a {task} episode ended inside {steps} timed steps")
    return best


def format_line(task: str, size: int, seconds: float) -> str:
    us = seconds * 1e6
    return (f"step_cost task={task} envs={size} us_per_step={us:.1f} "
            f"us_per_env_step={us / size:.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tasks", nargs="+", choices=TASKS, default=list(TASKS))
    parser.add_argument("--sizes", nargs="+", type=int, default=[1, 16, 384])
    parser.add_argument("--steps", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if min(args.sizes) < 1 or args.steps < 1 or args.repeats < 1:
        parser.error("--sizes, --steps and --repeats must be at least 1")
    for task in args.tasks:
        for size in args.sizes:
            try:
                seconds = step_cost(task, size, args.steps, args.repeats)
            except RuntimeError as exc:
                print(f"step_cost: {exc}; lower --steps", file=sys.stderr)
                return 1
            print(format_line(task, size, seconds), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
