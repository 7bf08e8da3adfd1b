"""Experiment orchestration: multi-seed training for every method, region
based evaluation, fine-tuning comparisons, the material/effort sweep, and
fabrication export.

All commands write a manifest before any long computation, derive every
random stream from the configured seeds, and emit deterministic CSV/JSON,
each format through one writer (_write_csv, _write_json), so reruns are
byte-identical.

Artifact contract: each method leaves one artifact per seed directory,
written and read in one module, and _load_for_eval loads it as one
ppo.Artifact for eval, compare, export-tool and finetune. ppo owns the
directory's layout: it names the files (RUN_FILES), and start_fresh removes
them all before any run but a resume. Each file keeps its content owner;
ppo.append_metrics writes metrics.csv rows and ppo.read_curve reads them.

- ours, hwasp, shared: checkpoint.json from one ppo.train call that differs
  only in the starting policy (PPO_POLICIES). ppo.checkpoint_record writes
  its keys (params, optimizers, rng_state, env_rng_states, env_steps,
  config_hash, task, param_count); ppo.artifact_from_record reads them.
- cma_rl: the same record of the best candidate's fixed-design Artifact,
  which adds fixed_design (the searched design action), plus fitness.
- single_traj: best_plan.json with task, fitness and vector (the design
  action, then every control action), written atomically by
  single_traj_cmaes and read by single_traj.load_plan.

The loader checks the task and re-ties a shared trunk (Artifact.kind).
Every command scores an artifact by evaluate_policy, one ppo.run_episode
per goal, and export-tool meshes Artifact.design_action, the design an
eval episode on its goal builds.
"""

from __future__ import annotations

import csv
import json
import os
import re
from dataclasses import asdict, dataclass, fields

import numpy as np

from toolsmith import __version__
from toolsmith.baselines import (
    cma_rl,
    constant_designer_policy,
    shared_policy,
    single_traj_cmaes,
)
from toolsmith.baselines.shared import retie_trunk
from toolsmith.baselines.single_traj import load_plan
from toolsmith.envs import default_config, make_env
from toolsmith.envs.push import GOAL_HIGH, GOAL_LOW
from toolsmith.evaluation import EVAL_RESET_SEED, evaluate_policy, evaluation_goals
from toolsmith.geometry import build_tool, export_stl
from toolsmith.neural import load_checkpoint
from toolsmith.ppo import (
    BEST_PLAN_FILE,
    CHECKPOINT_FILE,
    METRICS_FILE,
    METRICS_HEADER,
    Artifact,
    Optimizers,
    TrainConfig,
    artifact_from_record,
    default_train_config,
    policy_for_env,
    policy_settings,
    read_curve,
    seeded_envs,
    start_fresh,
    train,
    train_round,
)

OUTPUT_ROOT_VAR = "TOOLSMITH_OUT"
ALLOWED_FRACTIONS = (0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9)
METHODS = ("ours", "single_traj", "cma_rl", "hwasp", "shared")
# The methods ppo.train runs, by the policy builder each starts from; ours
# has none, so train draws its policy from the training rng. Only these
# train on sampled goals, so only they take a cutout sampler.
PPO_POLICIES = {"ours": None, "hwasp": constant_designer_policy,
                "shared": shared_policy}
DEFAULT_ALPHAS = (0.0, 0.3, 0.7, 1.0)

# Desk-scale policy adjustments applied when no explicit overrides are given,
# to every method that trains a Gaussian designer (ours, hwasp, shared).
# The catch designer explores with a smaller step so its action mean cannot
# random-walk past the design clamp bounds within a small-batch budget.
DESK_POLICY_OVERRIDES = {
    "catch": {"design_log_std": -1.2},
}

# Four push goals outside the training rectangle, two past each x edge,
# used as the default fine-tuning targets.
DEFAULT_FINETUNE_GOALS = ((13.5, 5.0), (13.5, 15.0), (2.5, 6.0), (2.5, 14.0))


def output_root() -> str:
    return os.environ.get(OUTPUT_ROOT_VAR, "runs")


# ---------------------------------------------------------------------------
# Cutout regions over the push goal rectangle
# ---------------------------------------------------------------------------

def centered_cutout(fraction: float) -> tuple:
    """The rectangles (x0, y0, x1, y1) removed from the goal region for
    training: none for 0, else one of the requested area share, centred."""
    if fraction not in ALLOWED_FRACTIONS:
        raise ValueError(
            f"cutout fraction {fraction} not one of {ALLOWED_FRACTIONS}")
    if fraction == 0.0:
        return ()
    w = GOAL_HIGH[0] - GOAL_LOW[0]
    h = GOAL_HIGH[1] - GOAL_LOW[1]
    cx = (GOAL_LOW[0] + GOAL_HIGH[0]) / 2.0
    cy = (GOAL_LOW[1] + GOAL_HIGH[1]) / 2.0
    scale = fraction ** 0.5
    half_w, half_h = w * scale / 2.0, h * scale / 2.0
    return ((cx - half_w, cy - half_h, cx + half_w, cy + half_h),)


def in_cutout(cutout: tuple, goal) -> bool:
    x, y = float(goal[0]), float(goal[1])
    return any(x0 <= x <= x1 and y0 <= y <= y1 for x0, y0, x1, y1 in cutout)


def classify_goal(cutout: tuple, goal) -> str:
    """Exhaustive, disjoint region label for one goal."""
    if in_cutout(cutout, goal):
        return "cutout"
    x, y = float(goal[0]), float(goal[1])
    if GOAL_LOW[0] <= x <= GOAL_HIGH[0] and GOAL_LOW[1] <= y <= GOAL_HIGH[1]:
        return "training"
    return "outside"


def cutout_goal_sampler(cutout: tuple):
    """Rejection sampler over the goal region with the cutout removed."""
    def sample(env, rng: np.random.Generator):
        while True:
            goal = env.sample_goal(rng)
            if not in_cutout(cutout, goal):
                return goal
    return sample


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    task: str = "push"
    method: str = "ours"
    scale: str = "desk"
    total_steps: int = 200000
    seeds: tuple = (0,)
    cutout_fraction: float = 0.0
    tradeoff_k: float = 0.0
    tradeoff_alpha: float = 0.5
    n_envs: int = 16
    out_dir: str = ""
    train: TrainConfig | None = None
    policy_overrides: dict | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected {METHODS}")
        if len(self.seeds) == 0:
            raise ValueError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds {list(self.seeds)} repeat a seed")
        if any(seed < 0 for seed in self.seeds):
            raise ValueError(f"seeds {list(self.seeds)} must be non-negative")
        if self.n_envs < 1:
            raise ValueError(f"n_envs must be at least 1, got {self.n_envs}")
        if self.total_steps < 1:
            raise ValueError(
                f"total_steps must be at least 1, got {self.total_steps}")
        if self.cutout_fraction not in ALLOWED_FRACTIONS:
            raise ValueError(
                f"cutout fraction {self.cutout_fraction} not one of "
                f"{ALLOWED_FRACTIONS}")
        if self.cutout_fraction > 0.0 and (self.task != "push"
                                           or self.method not in PPO_POLICIES):
            raise ValueError(
                f"cutout_fraction applies to push goals and the methods "
                f"{tuple(PPO_POLICIES)}, not to {self.task} with {self.method}")
        if self.train is None:
            self.train = default_train_config(self.task, scale=self.scale)
        if self.policy_overrides is None:
            self.policy_overrides = DESK_POLICY_OVERRIDES.get(self.task, {}) \
                if self.scale == "desk" else {}
        policy_settings(self.task, self.policy_overrides)
        # the task's env checks K and alpha as it builds its TradeoffConfig
        make_env(default_config(self.task, tradeoff_k=self.tradeoff_k,
                                tradeoff_alpha=self.tradeoff_alpha))
        if not self.out_dir:
            self.out_dir = os.path.join(output_root(),
                                        f"{self.task}_{self.method}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# declared field type -> (test of a given value, what the value must be)
_VALUE_CHECKS = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a number"),
    "tuple": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
              "a list of integers"),
    "dict | None": (lambda v: v is None or isinstance(v, dict)
                    and all(map(_is_number, v.values())),
                    "an object of numbers"),
}
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)}
# every flat key's check, from the type its dataclass declares for it
_KEY_CHECKS = {f.name: _VALUE_CHECKS[f.type] for f in fields(ExperimentConfig)
               + fields(TrainConfig) if f.name != "train"}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from plain keys, rejecting anything unrecognized or
    of the wrong type; TrainConfig keys are given flat, beside the others."""
    data = dict(data)
    if "train" in data:
        raise ValueError("give train settings as flat keys such as "
                         "batch_size, not as a 'train' object")
    unknown = set(data) - set(_KEY_CHECKS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        check, kind = _KEY_CHECKS[key]
        if not check(value):
            raise ValueError(f"{key} must be {kind}, got {value!r}")
    train_overrides = {key: data.pop(key) for key in list(data)
                       if key in _TRAIN_KEYS}
    if "seeds" in data:
        data["seeds"] = tuple(data["seeds"])
    cfg = ExperimentConfig(**data)
    if train_overrides:
        cfg.train = default_train_config(cfg.task, scale=cfg.scale,
                                         **train_overrides)
    return cfg


def _write_json(path, body: dict) -> str:
    """The one JSON writer: indent 1, sorted keys, a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=1, sort_keys=True, default=_jsonable)
        fh.write("\n")
    return path


def _write_csv(path, header: list, rows) -> str:
    """The one CSV writer: a header, then rows of already formatted cells."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_manifest(out_dir, command: str, payload: dict) -> str:
    """Record what is about to run; no clocks, so reruns match bytewise."""
    os.makedirs(out_dir, exist_ok=True)
    return _write_json(os.path.join(out_dir, "manifest.json"),
                       {"command": command, "code_version": __version__,
                        **payload})


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _run_one_seed(config: ExperimentConfig, seed: int, out_dir) -> dict:
    task_cfg = default_config(config.task,
                              tradeoff_k=config.tradeoff_k,
                              tradeoff_alpha=config.tradeoff_alpha)
    if config.method in PPO_POLICIES:
        build = PPO_POLICIES[config.method]
        params = None if build is None else build(
            make_env(task_cfg), np.random.default_rng(seed),
            **config.policy_overrides)
        sampler = None if config.cutout_fraction == 0.0 else \
            cutout_goal_sampler(centered_cutout(config.cutout_fraction))
        return train(task_cfg, config.train, config.total_steps, out_dir,
                     seed=seed, n_envs=config.n_envs, goal_sampler=sampler,
                     params=params, policy_overrides=config.policy_overrides)
    if config.method == "single_traj":
        return single_traj_cmaes(task_cfg, config.total_steps, out_dir,
                                 seed=seed)
    if config.method == "cma_rl":
        return cma_rl(task_cfg, config.total_steps, out_dir, config.n_envs,
                      seed=seed, cfg=config.train)
    raise ValueError(f"unknown method {config.method!r}")


def aggregate_metrics(seed_csvs: list, out_path) -> int:
    """Row-aligned mean and standard error across per-seed curves."""
    tables = [np.array(read_curve(path), dtype=np.float64)
              for path in seed_csvs]
    n_rows = min(t.shape[0] for t in tables)
    stack = np.stack([t[:n_rows] for t in tables])  # (seeds, rows, cols)
    mean = stack.mean(axis=0)
    if stack.shape[0] > 1:
        err = stack.std(axis=0, ddof=1) / np.sqrt(stack.shape[0])
    else:
        err = np.zeros_like(mean)
    header = ["env_steps"]
    for name in ("mean_return", "success_rate"):
        header += [f"{name}_mean", f"{name}_stderr"]
    ret_i = METRICS_HEADER.index("mean_return")
    suc_i = METRICS_HEADER.index("success_rate")
    _write_csv(out_path, header, [
        [f"{mean[r, 0]:.1f}",
         f"{mean[r, ret_i]:.6f}", f"{err[r, ret_i]:.6f}",
         f"{mean[r, suc_i]:.6f}", f"{err[r, suc_i]:.6f}"]
        for r in range(n_rows)])
    return n_rows


def _entries(out_dir, pattern: str, keep) -> list:
    """Paths of out_dir's entries whose whole name matches pattern and is
    not in keep, sorted by name; none when out_dir does not exist."""
    if not os.path.isdir(out_dir):
        return []
    return [os.path.join(out_dir, name) for name in sorted(os.listdir(out_dir))
            if re.fullmatch(pattern, name) and name not in keep]


def _remove_if_empty(path) -> None:
    if os.path.isdir(path) and not os.listdir(path):
        os.rmdir(path)


def _remove_stale_seeds(out_dir, seeds) -> None:
    """Remove each seed_<n>/ directory of out_dir whose seed is not in seeds,
    as a run with other seeds left it: its RUN_FILES (start_fresh), then the
    directory once it is empty. A file no command names keeps it."""
    for path in _entries(out_dir, r"seed_\d+", {f"seed_{s}" for s in seeds}):
        if os.path.isdir(path):
            start_fresh(path)
            _remove_if_empty(path)


def cmd_train(config: ExperimentConfig) -> dict:
    """Run the configured method for every seed, then aggregate the curves.

    Seed directories of the out dir for seeds not in this run are removed
    first (_remove_stale_seeds), so the out dir holds only this manifest's
    runs."""
    write_manifest(config.out_dir, "train", {
        "config": asdict(config),
    })
    _remove_stale_seeds(config.out_dir, config.seeds)
    seed_dirs = [os.path.join(config.out_dir, f"seed_{seed}")
                 for seed in config.seeds]
    results = [_run_one_seed(config, seed, seed_dir)
               for seed, seed_dir in zip(config.seeds, seed_dirs)]
    seed_csvs = [os.path.join(seed_dir, METRICS_FILE) for seed_dir in seed_dirs]
    agg_path = os.path.join(config.out_dir, "aggregate.csv")
    aggregate_metrics(seed_csvs, agg_path)
    return {
        "seed_dirs": seed_dirs,
        "seed_csvs": seed_csvs,
        "aggregate_path": agg_path,
        "results": results,
    }


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _load_for_eval(path, task: str | None = None) -> tuple:
    """Read a checkpoint.json or best_plan.json as (env, Artifact)."""
    art = load_plan(path) if os.path.basename(str(path)) == BEST_PLAN_FILE \
        else artifact_from_record(load_checkpoint(path))
    if task is not None and art.task != task:
        raise ValueError(
            f"checkpoint was trained on {art.task!r}, not {task!r}")
    env = make_env(default_config(art.task))
    if art.kind == "shared":
        retie_trunk(art.params)
    return env, art


def goal_grid(n: int) -> np.ndarray:
    """n x n goals spanning the push goal region corner to corner."""
    xs = np.linspace(GOAL_LOW[0], GOAL_HIGH[0], n)
    ys = np.linspace(GOAL_LOW[1], GOAL_HIGH[1], n)
    return np.array([(x, y) for y in ys for x in xs])


def cmd_eval(checkpoint_path, out_dir, goals=None, grid: int | None = None,
             cutout_fraction: float = 0.0, task: str | None = None) -> dict:
    """Deterministic rollouts per goal with region classification."""
    if goals is not None and grid is not None:
        raise ValueError("give either goals or a goal grid, not both")
    env, art = _load_for_eval(checkpoint_path, task)
    ck_task = art.task
    cutout = centered_cutout(cutout_fraction)
    if cutout_fraction > 0.0 and ck_task != "push":
        raise ValueError(f"cutout_fraction applies to push goals, not to "
                         f"a {ck_task} checkpoint")
    if grid is not None:
        if ck_task != "push":
            raise ValueError("goal grids are only defined for push")
        goals = goal_grid(grid)
    elif goals is None:
        goals = evaluation_goals(env, 16)
    if len(goals) == 0:
        raise ValueError("the goal set to evaluate is empty")
    for goal in goals:
        env.validate_goal(goal)
    write_manifest(out_dir, "eval", {
        "checkpoint": str(checkpoint_path),
        "task": ck_task,
        "n_goals": len(goals),
        "cutout_fraction": cutout_fraction,
    })
    result = evaluate_policy(env, art, goals)

    regions = {"training": [], "cutout": [], "outside": []}
    rows = []
    for goal, episode in zip(goals, result["episodes"]):
        region = classify_goal(cutout, goal) if ck_task == "push" \
            else "training"
        regions[region].append(episode)
        rows.append([
            " ".join(f"{g:.6f}" for g in np.atleast_1d(goal)),
            region,
            f"{episode['return']:.6f}",
            f"{episode['success']:.6f}",
            f"{episode['d_used']:.6f}",
            " ".join(f"{v:.6f}" for v in episode["design"]),
        ])
    per_goal_path = _write_csv(
        os.path.join(out_dir, "per_goal.csv"),
        ["goal", "region", "return", "success", "d_used", "design"], rows)

    designs = np.array([e["design"] for e in result["episodes"]])
    report = {
        "task": ck_task,
        "checkpoint": str(checkpoint_path),
        "cutout_fraction": cutout_fraction,
        "n_goals": len(goals),
        "mean_return": result["mean_return"],
        "success_rate": result["success_rate"],
        "regions": {
            name: {
                "count": len(eps),
                "mean_return": float(np.mean([e["return"] for e in eps]))
                if eps else None,
                "success_rate": float(np.mean([e["success"] for e in eps]))
                if eps else None,
            }
            for name, eps in regions.items()
        },
        "design_mean": [float(x) for x in designs.mean(axis=0)],
        "design_std": [float(x) for x in designs.std(axis=0)],
    }
    report_path = _write_json(os.path.join(out_dir, "eval_report.json"),
                              report)
    return {"report": report, "report_path": report_path,
            "per_goal_path": per_goal_path}


# ---------------------------------------------------------------------------
# finetune
# ---------------------------------------------------------------------------

def _finetune_arm(task_cfg, params, cfg, goals, budget: int, seed: int,
                  csv_path) -> dict:
    """budget PPO rounds on the fixed goal set, evaluated on it before the
    first round and after each one; the curve goes to csv_path."""
    envs = seeded_envs(task_cfg, 4, seed)
    rng = np.random.default_rng(seed)

    def sampler(env, sample_rng):
        return goals[int(sample_rng.integers(len(goals)))]

    eval_env = make_env(task_cfg)
    art = Artifact(task_cfg.task, params)
    optimizers = Optimizers(params, cfg)
    rows, steps = [], 0
    for update in range(budget + 1):
        if update:
            batch, _ = train_round(envs, art, optimizers, cfg, rng,
                                   goal_sampler=sampler)
            steps += batch.env_steps
        res = evaluate_policy(eval_env, art, goals)
        per_goal = [float(e["success"]) for e in res["episodes"]]
        rows.append([update, steps, f"{res['mean_return']:.6f}",
                     f"{np.mean(per_goal):.6f}"])
    _write_csv(csv_path, ["update", "env_steps", "eval_return",
                          "success_rate"], rows)
    return {"final_return": res["mean_return"], "per_goal_success": per_goal,
            "params": params}


def cmd_finetune(checkpoint_path, out_dir, goals=None, budget: int = 50,
                 seed: int = 0, cfg: TrainConfig | None = None) -> dict:
    """Adapt a trained checkpoint to held-out goals versus a cold start."""
    env, art = _load_for_eval(checkpoint_path)
    if art.kind != "policy":
        raise ValueError(f"fine-tuning expects a separate-network policy, "
                         f"not a {art.kind} artifact")
    ck_task, params = art.task, art.params
    goals = [env.validate_goal(g)
             for g in (goals if goals is not None else DEFAULT_FINETUNE_GOALS)]
    if not goals:
        raise ValueError("the goal set to fine-tune on is empty")
    if ck_task == "push":
        for g in goals:
            if classify_goal((), g) == "training":
                raise ValueError(
                    f"fine-tune goal {g.tolist()} lies inside the training region")
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    cfg = cfg or default_train_config(ck_task, scale="desk")
    write_manifest(out_dir, "finetune", {
        "checkpoint": str(checkpoint_path),
        "task": ck_task,
        "goals": [list(map(float, g)) for g in goals],
        "budget": budget,
        "seed": seed,
    })
    tuned = _finetune_arm(env.cfg, params, cfg, goals, budget, seed,
                          os.path.join(out_dir, "finetuned.csv"))
    scratch_params = policy_for_env(env, np.random.default_rng(seed),
                                    **DESK_POLICY_OVERRIDES.get(ck_task, {}))
    scratch = _finetune_arm(env.cfg, scratch_params, cfg, goals, budget, seed,
                            os.path.join(out_dir, "scratch.csv"))
    report = {
        "task": ck_task,
        "budget": budget,
        "goals": [list(map(float, g)) for g in goals],
        "finetuned_final_return": tuned["final_return"],
        "scratch_final_return": scratch["final_return"],
        "finetuned_per_goal_success": tuned["per_goal_success"],
        "scratch_per_goal_success": scratch["per_goal_success"],
    }
    report_path = _write_json(os.path.join(out_dir, "finetune_report.json"),
                              report)
    return {"report": report, "report_path": report_path,
            "finetuned": tuned, "scratch": scratch}


# ---------------------------------------------------------------------------
# alpha sweep
# ---------------------------------------------------------------------------

def cmd_alpha_sweep(out_dir, task: str = "catch", alphas=DEFAULT_ALPHAS,
                    k: float = 1.0, budget: int = 200000, seeds=(0,),
                    cfg: TrainConfig | None = None, n_envs: int = 16) -> list:
    """Train one agent per tradeoff weight and tabulate the usage ratio.

    Each weight is one ExperimentConfig for ours, whose seeds train through
    _run_one_seed under out_dir/alpha_<alpha:g>/seed_<seed>, so two weights
    that print alike would share a run and are refused. Each seed's
    tool_seed_<seed>.stl is the design its eval episode on goal 0 built.
    What an earlier sweep left for other alphas or seeds is removed first:
    their seed directories as _remove_stale_seeds does, their STL files,
    and then each other alpha's directory once it is empty."""
    if k <= 0.0:
        raise ValueError("the sweep needs K > 0; the tradeoff is inactive at 0")
    names = [f"alpha_{alpha:g}" for alpha in alphas]
    if len(alphas) == 0 or len(set(names)) != len(names):
        raise ValueError(f"alphas {list(alphas)} must be non-empty and not "
                         f"print alike as alpha_<alpha:g>")
    configs = [ExperimentConfig(
        task=task, method="ours", total_steps=budget, seeds=tuple(seeds),
        tradeoff_k=k, tradeoff_alpha=alpha, n_envs=n_envs, train=cfg,
        out_dir=os.path.join(out_dir, name)) for alpha, name in zip(alphas, names)]
    write_manifest(out_dir, "alpha-sweep", {
        "task": task, "alphas": list(alphas), "k": k,
        "budget": budget, "seeds": list(seeds),
    })
    alpha_dirs = {os.path.basename(config.out_dir) for config in configs}
    for alpha_dir in _entries(out_dir, r"alpha_[0-9.e+-]+", ()):
        kept = seeds if os.path.basename(alpha_dir) in alpha_dirs else ()
        _remove_stale_seeds(alpha_dir, kept)
        for stl in _entries(alpha_dir, r"tool_seed_\d+\.stl",
                            {f"tool_seed_{s}.stl" for s in kept}):
            os.remove(stl)
        _remove_if_empty(alpha_dir)
    rows = []
    for config in configs:
        alpha = config.tradeoff_alpha
        env = make_env(default_config(task, tradeoff_k=k, tradeoff_alpha=alpha))
        goals = evaluation_goals(env, 16)
        for seed in config.seeds:
            out = _run_one_seed(config, seed,
                                os.path.join(config.out_dir, f"seed_{seed}"))
            res = evaluate_policy(env, Artifact(task, out["params"]), goals)
            d_hat = res["mean_d_used"] / env.tradeoff.d_max
            c_hat = res["mean_c_used"] / env.tradeoff.c_max
            ratio = d_hat / c_hat if c_hat > 0 else float("inf")
            _write_stl(res["episodes"][0]["design"],
                       os.path.join(config.out_dir, f"tool_seed_{seed}.stl"))
            rows.append({"alpha": alpha, "seed": seed, "k": k,
                         "ratio": float(ratio), "d_hat": float(d_hat),
                         "c_hat": float(c_hat),
                         "mean_return": res["mean_return"],
                         "success_rate": res["success_rate"]})
    _write_csv(os.path.join(out_dir, "alpha_sweep.csv"),
               ["alpha", "seed", "k", "ratio", "d_hat", "c_hat",
                "mean_return", "success_rate"],
               [[f"{row['alpha']:g}", row["seed"], f"{row['k']:g}",
                 f"{row['ratio']:.6f}", f"{row['d_hat']:.6f}",
                 f"{row['c_hat']:.6f}", f"{row['mean_return']:.6f}",
                 f"{row['success_rate']:.6f}"] for row in rows])
    return rows


# ---------------------------------------------------------------------------
# export-tool
# ---------------------------------------------------------------------------

def _write_stl(design: np.ndarray, stl_path) -> int:
    """Write the printable mesh of a design; returns its size in bytes."""
    data = export_stl(build_tool(design))
    os.makedirs(os.path.dirname(stl_path) or ".", exist_ok=True)
    with open(stl_path, "wb") as fh:
        fh.write(data)
    return len(data)


def cmd_export_tool(checkpoint_path, goal, out_dir) -> dict:
    """Write the printable mesh of the design that the eval episode on goal
    (reset seed EVAL_RESET_SEED) builds, and record it in design.json."""
    env, art = _load_for_eval(checkpoint_path)
    goal = env.validate_goal(np.asarray(goal, dtype=np.float64))
    env.reset(goal=goal, seed=EVAL_RESET_SEED)
    action = art.design_action(env)
    design = env.space.realize(action)
    stl_path = os.path.join(out_dir, "tool.stl")
    record = {
        "task": art.task,
        "goal": [float(g) for g in np.atleast_1d(goal)],
        "design_action": [float(v) for v in action],
        "design": [float(v) for v in design],
        "stl_path": stl_path,
        "stl_bytes": _write_stl(design, stl_path),
    }
    record_path = _write_json(os.path.join(out_dir, "design.json"), record)
    return {"record": record, "record_path": record_path,
            "stl_path": stl_path}


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _compare_artifact(run_dir: str, task: str) -> Artifact | None:
    """The run dir's checkpoint.json, else its best_plan.json, as an
    Artifact of task; None when it has neither."""
    for name in (CHECKPOINT_FILE, BEST_PLAN_FILE):
        path = os.path.join(run_dir, name)
        if os.path.exists(path):
            return _load_for_eval(path, task)[1]
    return None


def cmd_compare(run_dirs: list, out_dir, task: str, n_goals: int = 16) -> list:
    """Score trained artifacts from several runs on one shared goal set."""
    if n_goals < 1:
        raise ValueError(f"n_goals must be at least 1, got {n_goals}")
    env = make_env(default_config(task))
    goals = evaluation_goals(env, n_goals)
    run_dirs = [str(d) for d in run_dirs]
    # every artifact is loaded and its task checked, and every curve is
    # read, before anything is written
    arts = [_compare_artifact(run_dir, task) for run_dir in run_dirs]
    metrics = [os.path.join(run_dir, METRICS_FILE) for run_dir in run_dirs]
    curves = [read_curve(path) if os.path.exists(path) else []
              for path in metrics]
    write_manifest(out_dir, "compare", {
        "task": task, "n_goals": n_goals, "run_dirs": run_dirs,
    })
    rows = []
    for run_dir, art, curve in zip(run_dirs, arts, curves):
        row = {"run_dir": run_dir, "env_steps": None,
               "train_mean_return": None, "eval_mean_return": None}
        if curve:
            last = dict(zip(METRICS_HEADER, curve[-1]))
            row["env_steps"] = int(last["env_steps"])
            row["train_mean_return"] = float(last["mean_return"])
        if art is not None:
            row["eval_mean_return"] = evaluate_policy(
                env, art, goals)["mean_return"]
        rows.append(row)
    _write_csv(os.path.join(out_dir, "compare.csv"),
               ["run_dir", "env_steps", "train_mean_return",
                "eval_mean_return"],
               [[row["run_dir"],
                 "" if row["env_steps"] is None else row["env_steps"],
                 "" if row["train_mean_return"] is None
                 else f"{row['train_mean_return']:.6f}",
                 "" if row["eval_mean_return"] is None
                 else f"{row['eval_mean_return']:.6f}"] for row in rows])
    return rows
