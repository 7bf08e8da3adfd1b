"""Time one control step of ``envs.step_controls`` per task and batch size.

    python3 tools/step_cost.py [--tasks push catch scoop] [--sizes 1 16 384]
                               [--steps 20] [--repeats 5]

For each task and batch size E (a cell), builds E envs of the task's
default config. One repeat resets them together (env i with reset seed i),
takes one design step each and then times ``steps`` calls of
``step_controls`` over all of them, on seeded actions drawn up to 1.5 times
the velocity caps, so some are clamped. Each cell first runs one untimed
warm-up repeat; then the repeats go round-robin over all cells, so a slow
spell of the host is spread over them rather than landing on one cell.
The figures are the minimum and the median over repeats of the mean time
per call: the task work of a control step (clamps, efforts, rewards, done
flags, and catch's one ``supported_by_tool`` call over the pass's rows of
all E scenes) together with its physics passes. Scoop reads
``supported_by_tool`` only on the step that ends its episodes, which is
never timed. BLAS is pinned to one thread. Prints one line per task and
size, after the last round:

    step_cost task=push envs=16 us_per_step=412.3 us_per_env_step=25.77 median_us_per_step=430.6

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


def prepare(task: str, size: int, steps: int) -> tuple:
    """A cell's envs and its (steps, E, control dim) seeded actions."""
    envs = [make_env(task) for _ in range(size)]
    cap = np.asarray(envs[0].cfg.control_velocity_cap)
    rng = np.random.default_rng(ACTION_SEED)
    return envs, rng.uniform(-1.5, 1.5, size=(steps, size, cap.size)) * cap


def time_repeat(task: str, envs: list, actions: np.ndarray) -> float:
    """Mean seconds per step_controls call of one repeat on a cell."""
    reset_envs(envs, seeds=list(range(len(envs))))
    for env in envs:
        env.step_design(np.zeros(DESIGN_DIM))
    start = time.perf_counter()
    for act in actions:
        step_controls(envs, act)
    seconds = (time.perf_counter() - start) / len(actions)
    if any(env.done for env in envs):
        raise RuntimeError(f"a {task} episode ended inside {len(actions)} timed steps")
    return seconds


def step_costs(cells: list, steps: int, repeats: int) -> list:
    """Each (task, size) cell's seconds per call of every repeat: one
    untimed warm-up repeat per cell, then the repeats round-robin."""
    prepared = [(task, *prepare(task, size, steps)) for task, size in cells]
    for cell in prepared:
        time_repeat(*cell)
    times = [[] for _ in cells]
    for _ in range(repeats):
        for cell, seconds in zip(prepared, times):
            seconds.append(time_repeat(*cell))
    return times


def format_line(task: str, size: int, seconds: list) -> str:
    us = min(seconds) * 1e6
    return (f"step_cost task={task} envs={size} us_per_step={us:.1f} "
            f"us_per_env_step={us / size:.2f} "
            f"median_us_per_step={float(np.median(seconds)) * 1e6:.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tasks", nargs="+", choices=TASKS, default=list(TASKS))
    parser.add_argument("--sizes", nargs="+", type=int, default=[1, 16, 384])
    parser.add_argument("--steps", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if min(args.sizes) < 1 or args.steps < 1 or args.repeats < 1:
        parser.error("--sizes, --steps and --repeats must be at least 1")
    cells = [(task, size) for task in args.tasks for size in args.sizes]
    try:
        times = step_costs(cells, args.steps, args.repeats)
    except RuntimeError as exc:
        print(f"step_cost: {exc}; lower --steps", file=sys.stderr)
        return 1
    for (task, size), seconds in zip(cells, times):
        print(format_line(task, size, seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
