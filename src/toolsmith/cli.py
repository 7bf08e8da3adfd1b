"""Command line front end for training, evaluation, and export.

Every subcommand is a thin wrapper over a harness function: flags mirror
the config keys, an optional JSON config file supplies defaults, and
explicit flags win over the file.
"""

from __future__ import annotations

import os

# BLAS runs on one thread, whatever the host: a GEMM split across threads
# rounds differently, so artifacts would depend on the core count. A second
# core is used by a Python thread instead: ppo_update trains the value net
# beside the policy nets, each GEMM still on one BLAS thread. Set before
# numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from toolsmith import harness  # noqa: E402


def _parse_seeds(text: str) -> tuple:
    parts = [p for p in text.replace(",", " ").split() if p]
    return tuple(int(p) for p in parts)


def _parse_floats(text: str) -> tuple:
    parts = [p for p in text.replace(",", " ").split() if p]
    return tuple(float(p) for p in parts)


def _parse_opt(text: str) -> tuple:
    """KEY=VALUE with the value read as JSON when possible."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _load_config_file(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return data


def _goals_from_arg(args) -> list | None:
    if getattr(args, "goals_file", None):
        with open(args.goals_file, encoding="utf-8") as fh:
            return [np.asarray(g, dtype=np.float64) for g in json.load(fh)]
    return None


def cmd_train(args) -> int:
    data = _load_config_file(args.config) if args.config else {}
    for key in ("task", "method", "scale", "total_steps", "cutout_fraction",
                "tradeoff_k", "tradeoff_alpha", "n_envs", "out_dir"):
        value = getattr(args, key)
        if value is not None:
            data[key] = value
    if args.seeds is not None:
        data["seeds"] = args.seeds
    for key, value in args.opt or []:
        data[key] = value
    config = harness.config_from_dict(data)
    out = harness.cmd_train(config)
    print(f"trained {len(config.seeds)} seed(s) -> {config.out_dir}")
    print(f"aggregate curve: {out['aggregate_path']}")
    return 0


def cmd_eval(args) -> int:
    out = harness.cmd_eval(args.checkpoint, args.out_dir,
                           goals=_goals_from_arg(args), grid=args.grid,
                           cutout_fraction=args.cutout_fraction,
                           task=args.task)
    report = out["report"]
    print(f"evaluated {report['n_goals']} goals: "
          f"mean_return={report['mean_return']:.4f} "
          f"success_rate={report['success_rate']:.4f}")
    print(f"report: {out['report_path']}")
    return 0


def cmd_finetune(args) -> int:
    out = harness.cmd_finetune(args.checkpoint, args.out_dir,
                               goals=_goals_from_arg(args),
                               budget=args.budget, seed=args.seed)
    report = out["report"]
    print(f"finetuned={report['finetuned_final_return']:.4f} "
          f"scratch={report['scratch_final_return']:.4f}")
    print(f"report: {out['report_path']}")
    return 0


def cmd_alpha_sweep(args) -> int:
    rows = harness.cmd_alpha_sweep(args.out_dir, task=args.task,
                                   alphas=args.alphas, k=args.k,
                                   budget=args.budget, seeds=args.seeds)
    for row in rows:
        print(f"alpha={row['alpha']:g} seed={row['seed']} "
              f"ratio={row['ratio']:.4f} return={row['mean_return']:.4f}")
    return 0


def cmd_export_tool(args) -> int:
    goal = _parse_floats(args.goal)
    out = harness.cmd_export_tool(args.checkpoint, goal, args.out_dir)
    print(f"wrote {out['stl_path']} ({out['record']['stl_bytes']} bytes)")
    return 0


def cmd_compare(args) -> int:
    rows = harness.cmd_compare(args.run_dirs, args.out_dir, args.task,
                               n_goals=args.n_goals)
    for row in rows:
        ret = row["eval_mean_return"]
        print(f"{row['run_dir']}: "
              f"{'n/a' if ret is None else format(ret, '.4f')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toolsmith",
        description="Train and evaluate jointly learned tools and controllers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one method over several seeds")
    p.add_argument("--config", help="JSON file with config defaults")
    p.add_argument("--task", choices=("push", "catch", "scoop"))
    p.add_argument("--method", choices=harness.METHODS)
    p.add_argument("--scale", choices=("desk", "paper"))
    p.add_argument("--total-steps", dest="total_steps", type=int)
    p.add_argument("--seeds", type=_parse_seeds,
                   help="comma separated, e.g. 0,1,2")
    p.add_argument("--cutout-fraction", dest="cutout_fraction", type=float)
    p.add_argument("--tradeoff-k", dest="tradeoff_k", type=float)
    p.add_argument("--tradeoff-alpha", dest="tradeoff_alpha", type=float)
    p.add_argument("--n-envs", dest="n_envs", type=int)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--opt", action="append", type=_parse_opt, metavar="K=V",
                   help="extra config key, e.g. --opt batch_size=2048")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="deterministic rollouts from a checkpoint")
    p.add_argument("--checkpoint", required=True,
                   help="checkpoint.json, or best_plan.json of single_traj")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--task", help="expected task; errors on mismatch")
    p.add_argument("--grid", type=int, help="evaluate an NxN goal grid (push)")
    p.add_argument("--goals-file", dest="goals_file",
                   help="JSON list of goals to evaluate")
    p.add_argument("--cutout-fraction", dest="cutout_fraction", type=float,
                   default=0.0)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("finetune",
                       help="adapt a checkpoint to held-out goals vs scratch")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--goals-file", dest="goals_file")
    p.add_argument("--budget", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("alpha-sweep",
                       help="trade material against effort across weights")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--task", default="catch")
    p.add_argument("--alphas", type=_parse_floats,
                   default=harness.DEFAULT_ALPHAS)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--budget", type=int, default=200000)
    p.add_argument("--seeds", type=_parse_seeds, default=(0,))
    p.set_defaults(fn=cmd_alpha_sweep)

    p = sub.add_parser("export-tool", help="write the tool mesh for one goal")
    p.add_argument("--checkpoint", required=True,
                   help="checkpoint.json, or best_plan.json of single_traj")
    p.add_argument("--goal", required=True, help="comma separated numbers")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(fn=cmd_export_tool)

    p = sub.add_parser("compare", help="score several runs on one goal set")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--n-goals", dest="n_goals", type=int, default=16)
    p.set_defaults(fn=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
