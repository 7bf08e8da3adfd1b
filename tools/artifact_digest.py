"""Digest every artifact of a set of tiny runs, for bitwise comparisons.

    python3 tools/artifact_digest.py OUT_DIR > digests.txt

Runs every method and command on tiny budgets through the public
``harness.cmd_*`` entry points only, writing under OUT_DIR, which must be
new or empty. Then prints ``sha256 relative_path`` for every file written.
The script imports the ``toolsmith`` of the checkout it lives in, so a copy
run in two checkouts with the same OUT_DIR turns "byte-identical artifacts"
into one ``diff`` of the two listings. Manifests and eval reports embed
OUT_DIR, so they match only when the path does.

CMA+RL is patched down to a population of 3 and an inner budget of 600
steps, two PPO rounds of 302 steps at batch 256; its default would cost 24 x 20,000
inner steps per generation. Finetune runs two rounds on the push ``ours``
artifact and on the push ``hwasp`` artifact, so every training loop runs
past its first round.
BLAS is pinned to one thread so matmul rounding does not depend on the host.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from toolsmith import harness  # noqa: E402
from toolsmith.ppo import default_train_config  # noqa: E402

TINY_TRAIN = {"batch_size": 256, "minibatch_size": 64, "ppo_epochs": 2}
SEEDS = (0, 1)

# (run name, config keys): every method on push, the desk-override tasks
# for the PPO methods, and cutouts for those that sample goals
TRAIN_RUNS = (
    ("push_ours", {"task": "push", "method": "ours"}),
    ("push_ours_cutout", {"task": "push", "method": "ours",
                          "cutout_fraction": 0.2}),
    ("push_hwasp_cutout", {"task": "push", "method": "hwasp",
                           "cutout_fraction": 0.2}),
    ("push_shared_cutout", {"task": "push", "method": "shared",
                            "cutout_fraction": 0.2}),
    ("push_single_traj", {"task": "push", "method": "single_traj",
                          "total_steps": 2000}),
    ("push_cma_rl", {"task": "push", "method": "cma_rl", "n_envs": 2}),
    ("catch_ours", {"task": "catch", "method": "ours"}),
    ("catch_hwasp", {"task": "catch", "method": "hwasp"}),
    ("catch_shared", {"task": "catch", "method": "shared"}),
    ("scoop_ours", {"task": "scoop", "method": "ours", "n_envs": 2,
                    "batch_size": 64, "minibatch_size": 32}),
)


def _tiny_cma_rl(cma_rl):
    def run(*args, **kwargs):
        return cma_rl(*args, **kwargs, population_size=3, inner_steps=600,
                      n_eval_goals=2)
    return run


def run_all(out: Path) -> None:
    harness.cma_rl = _tiny_cma_rl(harness.cma_rl)
    artifacts = {}
    for name, keys in TRAIN_RUNS:
        data = {"total_steps": 300, "seeds": SEEDS, "n_envs": 4,
                "out_dir": str(out / "train" / name), **TINY_TRAIN, **keys}
        result = harness.cmd_train(harness.config_from_dict(data))
        seed_dir = Path(result["seed_dirs"][0])
        plan = seed_dir / "best_plan.json"
        artifacts[name] = plan if plan.exists() else seed_dir / "checkpoint.json"

    evals = out / "eval"
    for name, path in artifacts.items():
        harness.cmd_eval(str(path), str(evals / name))
    ours = str(artifacts["push_ours"])
    harness.cmd_eval(ours, str(evals / "push_ours_grid"), grid=3)
    harness.cmd_eval(ours, str(evals / "push_ours_grid_cutout"), grid=3,
                     cutout_fraction=0.2)
    harness.cmd_eval(str(artifacts["push_hwasp_cutout"]),
                     str(evals / "push_hwasp_cutout_region"),
                     cutout_fraction=0.2)

    goals = {"push": (8.0, 12.0),
             "catch": (20.0, 18.0, 16.0, 16.0, 20.0, 22.0), "scoop": (4,)}
    for name, path in artifacts.items():
        harness.cmd_export_tool(str(path), goals[name.split("_")[0]],
                                str(out / "export" / name))

    for name in ("push_ours", "push_hwasp_cutout"):
        harness.cmd_finetune(str(artifacts[name]), str(out / "finetune" / name),
                             budget=2, seed=0,
                             cfg=default_train_config("push", **TINY_TRAIN))
    harness.cmd_compare([str(artifacts[n].parent) for n in artifacts
                         if n.startswith("push")],
                        str(out / "compare"), "push", n_goals=4)
    harness.cmd_alpha_sweep(str(out / "alpha_sweep"), task="push",
                            alphas=(0.0, 1.0), k=0.5, budget=1, seeds=SEEDS,
                            cfg=default_train_config("push", **TINY_TRAIN),
                            n_envs=4)


def digests(out: Path) -> list:
    lines = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest} {path.relative_to(out).as_posix()}")
    return lines


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    run_all(out)
    print("\n".join(digests(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
