"""Experiment orchestration: multi-seed training for every method, region
based evaluation, fine-tuning comparisons, the material/effort sweep, and
fabrication export.

All commands write a manifest before any long computation, derive every
random stream from the configured seeds, and emit deterministic CSV/JSON so
reruns are byte-identical.

Artifact contract: each method leaves one artifact per seed directory, and
_load_for_eval reads it for eval, compare, export-tool and finetune.

- ours, hwasp, shared: checkpoint.json from ppo.train, holding the shared
  checkpoint record of ppo.checkpoint_record (params, optimizers,
  rng_state, env_rng_states, env_steps, config_hash, task, param_count).
- cma_rl: checkpoint.json with that record for the best candidate, plus
  fixed_design (the searched design action) and fitness.
- single_traj: best_plan.json with task, fitness and vector (the design
  action, then every control action).

The loader checks the task. Each network's shape decides which columns of
the value row it reads (ppo.policy_columns): a designer as wide as its
controller marks a shared trunk, which is re-tied and reads the whole row;
a designer with no inputs (hwasp) reads none. A fixed_design replaces the
designer; a plan's vector splits into its design and open-loop controls.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from toolsmith import __version__
from toolsmith.baselines import cma_rl, hwasp_minimal, shared_arch, single_traj_cmaes
from toolsmith.baselines.shared import retie_trunk
from toolsmith.baselines.single_traj import BEST_PLAN_FILE, split_plan
from toolsmith.envs import default_config, make_env
from toolsmith.envs.push import GOAL_HIGH, GOAL_LOW
from toolsmith.evaluation import EVAL_RESET_SEED, evaluate_policy, evaluation_goals
from toolsmith.geometry import build_tool, export_stl
from toolsmith.neural import (
    PolicyParams,
    forward,
    load_checkpoint,
    params_from_state,
)
from toolsmith.ppo import (
    METRICS_HEADER,
    Optimizers,
    TrainConfig,
    collect_batch,
    default_train_config,
    policy_columns,
    policy_for_env,
    policy_settings,
    ppo_update,
    prepare_batch,
    seeded_envs,
    train,
)

OUTPUT_ROOT_VAR = "TOOLSMITH_OUT"
ALLOWED_FRACTIONS = (0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9)
METHODS = ("ours", "single_traj", "cma_rl", "hwasp", "shared")
# the methods that train on sampled goals, so a cutout sampler reaches them
CUTOUT_METHODS = ("ours", "hwasp", "shared")
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

@dataclass(frozen=True)
class CutoutSpec:
    """Axis-aligned rectangles removed from the goal region for training."""

    rectangles: tuple
    fraction: float

    def __post_init__(self):
        if self.fraction not in ALLOWED_FRACTIONS:
            raise ValueError(
                f"cutout fraction {self.fraction} not one of {ALLOWED_FRACTIONS}")
        for rect in self.rectangles:
            x0, y0, x1, y1 = rect
            if not (x0 < x1 and y0 < y1):
                raise ValueError(f"degenerate cutout rectangle {rect}")
            if x0 < GOAL_LOW[0] or y0 < GOAL_LOW[1] \
                    or x1 > GOAL_HIGH[0] or y1 > GOAL_HIGH[1]:
                raise ValueError(f"cutout rectangle {rect} leaves the goal region")


def centered_cutout(fraction: float) -> CutoutSpec:
    """One rectangle of the requested area share, centred in the goal region."""
    if fraction == 0.0:
        return CutoutSpec(rectangles=(), fraction=0.0)
    w = GOAL_HIGH[0] - GOAL_LOW[0]
    h = GOAL_HIGH[1] - GOAL_LOW[1]
    cx = (GOAL_LOW[0] + GOAL_HIGH[0]) / 2.0
    cy = (GOAL_LOW[1] + GOAL_HIGH[1]) / 2.0
    scale = fraction ** 0.5
    half_w, half_h = w * scale / 2.0, h * scale / 2.0
    return CutoutSpec(
        rectangles=((cx - half_w, cy - half_h, cx + half_w, cy + half_h),),
        fraction=fraction)


def in_cutout(spec: CutoutSpec, goal) -> bool:
    x, y = float(goal[0]), float(goal[1])
    return any(x0 <= x <= x1 and y0 <= y <= y1
               for x0, y0, x1, y1 in spec.rectangles)


def classify_goal(spec: CutoutSpec, goal) -> str:
    """Exhaustive, disjoint region label for one goal."""
    if in_cutout(spec, goal):
        return "cutout"
    x, y = float(goal[0]), float(goal[1])
    if GOAL_LOW[0] <= x <= GOAL_HIGH[0] and GOAL_LOW[1] <= y <= GOAL_HIGH[1]:
        return "training"
    return "outside"


def cutout_goal_sampler(spec: CutoutSpec):
    """Rejection sampler over the goal region with the cutout removed."""
    def sample(env, rng: np.random.Generator):
        while True:
            goal = env.sample_goal(rng)
            if not in_cutout(spec, goal):
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
                                           or self.method not in CUTOUT_METHODS):
            raise ValueError(
                f"cutout_fraction applies to push goals and the methods "
                f"{CUTOUT_METHODS}, not to {self.task} with {self.method}")
        if self.train is None:
            self.train = default_train_config(self.task, scale=self.scale)
        if self.policy_overrides is None:
            self.policy_overrides = DESK_POLICY_OVERRIDES.get(self.task, {}) \
                if self.scale == "desk" else {}
        policy_settings(self.task, self.policy_overrides)
        if not self.out_dir:
            self.out_dir = os.path.join(output_root(),
                                        f"{self.task}_{self.method}")


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from plain keys, rejecting anything unrecognized."""
    data = dict(data)
    train_overrides = {}
    for key in list(data):
        if key in _TRAIN_KEYS:
            train_overrides[key] = data.pop(key)
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "seeds" in data:
        data["seeds"] = tuple(int(s) for s in data["seeds"])
    cfg = ExperimentConfig(**data)
    if train_overrides:
        cfg.train = default_train_config(cfg.task, scale=cfg.scale,
                                         **train_overrides)
    return cfg


def write_manifest(out_dir, command: str, payload: dict) -> str:
    """Record what is about to run; no clocks, so reruns match bytewise."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "manifest.json")
    body = {"command": command, "code_version": __version__}
    body.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=1, sort_keys=True, default=_jsonable)
        fh.write("\n")
    return path


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, TrainConfig):
        return asdict(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _run_one_seed(config: ExperimentConfig, seed: int, out_dir) -> dict:
    task_cfg = default_config(config.task,
                              tradeoff_k=config.tradeoff_k,
                              tradeoff_alpha=config.tradeoff_alpha)
    sampler = None
    if config.cutout_fraction > 0.0:
        sampler = cutout_goal_sampler(centered_cutout(config.cutout_fraction))
    if config.method == "ours":
        return train(config.task, config.train, config.total_steps, out_dir,
                     seed=seed, task_cfg=task_cfg, n_envs=config.n_envs,
                     goal_sampler=sampler,
                     policy_overrides=config.policy_overrides)
    if config.method == "hwasp":
        return hwasp_minimal(config.task, config.train, config.total_steps,
                             out_dir, seed=seed, task_cfg=task_cfg,
                             n_envs=config.n_envs, goal_sampler=sampler,
                             policy_overrides=config.policy_overrides)
    if config.method == "shared":
        return shared_arch(config.task, config.train, config.total_steps,
                           out_dir, seed=seed, task_cfg=task_cfg,
                           n_envs=config.n_envs, goal_sampler=sampler,
                           policy_overrides=config.policy_overrides)
    if config.method == "single_traj":
        return single_traj_cmaes(config.task, config.total_steps, out_dir,
                                 seed=seed, task_cfg=task_cfg)
    if config.method == "cma_rl":
        return cma_rl(config.task, config.total_steps, out_dir, seed=seed,
                      task_cfg=task_cfg, cfg=config.train)
    raise ValueError(f"unknown method {config.method!r}")


def aggregate_metrics(seed_csvs: list, out_path) -> int:
    """Row-aligned mean and standard error across per-seed curves."""
    tables = []
    for path in seed_csvs:
        with open(path, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == METRICS_HEADER, path
        tables.append(np.array(rows[1:], dtype=np.float64))
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
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in range(n_rows):
            writer.writerow([
                f"{mean[r, 0]:.1f}",
                f"{mean[r, ret_i]:.6f}", f"{err[r, ret_i]:.6f}",
                f"{mean[r, suc_i]:.6f}", f"{err[r, suc_i]:.6f}",
            ])
    return n_rows


def cmd_train(config: ExperimentConfig) -> dict:
    """Run the configured method for every seed, then aggregate the curves."""
    write_manifest(config.out_dir, "train", {
        "config": {**asdict(config), "train": asdict(config.train)},
    })
    seed_dirs, seed_csvs, results = [], [], []
    for seed in config.seeds:
        seed_dir = os.path.join(config.out_dir, f"seed_{seed}")
        res = _run_one_seed(config, seed, seed_dir)
        seed_dirs.append(seed_dir)
        seed_csvs.append(os.path.join(seed_dir, "metrics.csv"))
        results.append(res)
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

@dataclass
class Artifact:
    """One method's saved result, in the form evaluate_policy takes it."""

    task: str
    params: PolicyParams | None
    fixed_design: np.ndarray | None = None
    controls: np.ndarray | None = None

    @property
    def kind(self) -> str:
        if self.controls is not None:
            return "open-loop plan"
        if self.fixed_design is not None:
            return "fixed-design"
        env = make_env(self.task)
        if policy_columns(self.params, env)[0].size == env.value_input_dim:
            return "shared"
        return "policy"

    def evaluate(self, env, goals) -> dict:
        return evaluate_policy(env, self.params, goals,
                               fixed_design=self.fixed_design,
                               controls=self.controls)


def _load_for_eval(path, task: str | None = None) -> tuple:
    """Read a checkpoint.json or best_plan.json as (env, Artifact)."""
    is_plan = os.path.basename(str(path)) == BEST_PLAN_FILE
    if is_plan:
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
    else:
        state = load_checkpoint(path)
    ck_task = state.get("task")
    if task is not None and ck_task != task:
        raise ValueError(
            f"checkpoint was trained on {ck_task!r}, not {task!r}")
    env = make_env(default_config(ck_task))
    if is_plan:
        design, controls = split_plan(env, state["vector"])
        return env, Artifact(ck_task, None, fixed_design=design,
                             controls=controls)
    art = Artifact(ck_task, params_from_state(state["params"]))
    if "fixed_design" in state:
        art.fixed_design = np.asarray(state["fixed_design"], dtype=np.float64)
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
    env, art = _load_for_eval(checkpoint_path, task)
    ck_task = art.task
    spec = centered_cutout(cutout_fraction)
    if cutout_fraction > 0.0 and ck_task != "push":
        raise ValueError(f"cutout_fraction applies to push goals, not to "
                         f"a {ck_task} checkpoint")
    if goals is None:
        if grid is not None:
            if ck_task != "push":
                raise ValueError("goal grids are only defined for push")
            goals = goal_grid(grid)
        else:
            goals = evaluation_goals(env, 16)
    if len(goals) == 0:
        raise ValueError("the goal set to evaluate is empty")
    write_manifest(out_dir, "eval", {
        "checkpoint": str(checkpoint_path),
        "task": ck_task,
        "n_goals": len(goals),
        "cutout_fraction": cutout_fraction,
    })
    result = art.evaluate(env, goals)

    regions = {"training": [], "cutout": [], "outside": []}
    per_goal_path = os.path.join(out_dir, "per_goal.csv")
    with open(per_goal_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["goal", "region", "return", "success", "d_used",
                         "design"])
        for goal, episode in zip(goals, result["episodes"]):
            region = classify_goal(spec, goal) if ck_task == "push" \
                else "training"
            regions[region].append(episode)
            writer.writerow([
                " ".join(f"{g:.6f}" for g in np.atleast_1d(goal)),
                region,
                f"{episode['return']:.6f}",
                f"{episode['success']:.6f}",
                f"{episode['d_used']:.6f}",
                " ".join(f"{v:.6f}" for v in episode["design"]),
            ])

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
    report_path = os.path.join(out_dir, "eval_report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return {"report": report, "report_path": report_path,
            "per_goal_path": per_goal_path}


# ---------------------------------------------------------------------------
# finetune
# ---------------------------------------------------------------------------

def _eval_on_goals(env, params, goals) -> tuple:
    res = evaluate_policy(env, params, goals)
    per_goal = [float(e["success"]) for e in res["episodes"]]
    return res["mean_return"], per_goal


def _finetune_arm(env_template, params, cfg, goals, budget: int, seed: int,
                  csv_path, label: str) -> dict:
    """Train on the fixed goal set for budget updates, logging eval curves."""
    task_cfg = env_template.cfg
    envs = seeded_envs(task_cfg, 4, seed)
    rng = np.random.default_rng(seed)
    goal_arr = [np.asarray(g, dtype=np.float64) for g in goals]

    def sampler(env, sample_rng):
        return goal_arr[int(sample_rng.integers(len(goal_arr)))]

    eval_env = make_env(task_cfg)
    optimizers = Optimizers(params, cfg)
    rows = []
    ret0, per_goal = _eval_on_goals(eval_env, params, goal_arr)
    rows.append((0, 0, ret0, float(np.mean(per_goal))))
    columns = policy_columns(params, eval_env)
    steps = 0
    for update in range(1, budget + 1):
        trajs = collect_batch(envs, params, cfg, rng, goal_sampler=sampler)
        batch = prepare_batch(trajs, cfg, columns)
        steps += batch.env_steps
        params, _ = ppo_update(params, batch, cfg, optimizers, rng)
        ret, per_goal = _eval_on_goals(eval_env, params, goal_arr)
        rows.append((update, steps, ret, float(np.mean(per_goal))))
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["update", "env_steps", "eval_return", "success_rate"])
        for row in rows:
            writer.writerow([row[0], row[1], f"{row[2]:.6f}", f"{row[3]:.6f}"])
    return {"label": label, "rows": rows, "final_return": rows[-1][2],
            "per_goal_success": per_goal, "params": params}


def cmd_finetune(checkpoint_path, out_dir, goals=None, budget: int = 50,
                 seed: int = 0, cfg: TrainConfig | None = None) -> dict:
    """Adapt a trained checkpoint to held-out goals versus a cold start."""
    env, art = _load_for_eval(checkpoint_path)
    if art.kind != "policy":
        raise ValueError(f"fine-tuning expects a separate-network policy, "
                         f"not a {art.kind} artifact")
    ck_task, params = art.task, art.params
    goals = [np.asarray(g, dtype=np.float64)
             for g in (goals if goals is not None else DEFAULT_FINETUNE_GOALS)]
    if not goals:
        raise ValueError("the goal set to fine-tune on is empty")
    if ck_task == "push":
        for g in goals:
            if classify_goal(centered_cutout(0.0), g) == "training":
                raise ValueError(
                    f"fine-tune goal {g.tolist()} lies inside the training region")
    cfg = cfg or default_train_config(ck_task, scale="desk")
    write_manifest(out_dir, "finetune", {
        "checkpoint": str(checkpoint_path),
        "task": ck_task,
        "goals": [list(map(float, g)) for g in goals],
        "budget": budget,
        "seed": seed,
    })
    os.makedirs(out_dir, exist_ok=True)
    tuned = _finetune_arm(env, params, cfg, goals, budget, seed,
                          os.path.join(out_dir, "finetuned.csv"), "finetuned")
    scratch_params = policy_for_env(env, np.random.default_rng(seed),
                                    **DESK_POLICY_OVERRIDES.get(ck_task, {}))
    scratch = _finetune_arm(env, scratch_params, cfg, goals, budget, seed,
                            os.path.join(out_dir, "scratch.csv"), "scratch")
    report = {
        "task": ck_task,
        "budget": budget,
        "goals": [list(map(float, g)) for g in goals],
        "finetuned_final_return": tuned["final_return"],
        "scratch_final_return": scratch["final_return"],
        "finetuned_per_goal_success": tuned["per_goal_success"],
        "scratch_per_goal_success": scratch["per_goal_success"],
    }
    report_path = os.path.join(out_dir, "finetune_report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return {"report": report, "report_path": report_path,
            "finetuned": tuned, "scratch": scratch}


# ---------------------------------------------------------------------------
# alpha sweep
# ---------------------------------------------------------------------------

def cmd_alpha_sweep(out_dir, task: str = "catch", alphas=DEFAULT_ALPHAS,
                    k: float = 1.0, budget: int = 200000, seeds=(0,),
                    cfg: TrainConfig | None = None, n_envs: int = 16) -> list:
    """Train one agent per tradeoff weight and tabulate the usage ratio."""
    if k <= 0.0:
        raise ValueError("the sweep needs K > 0; the tradeoff is inactive at 0")
    cfg = cfg or default_train_config(task, scale="desk")
    write_manifest(out_dir, "alpha-sweep", {
        "task": task, "alphas": list(alphas), "k": k,
        "budget": budget, "seeds": list(seeds),
    })
    rows = []
    for alpha in alphas:
        for seed in seeds:
            run_dir = os.path.join(out_dir, f"alpha_{alpha:g}", f"seed_{seed}")
            task_cfg = default_config(task, tradeoff_k=k, tradeoff_alpha=alpha)
            out = train(task, cfg, budget, run_dir, seed=seed,
                        task_cfg=task_cfg, n_envs=n_envs,
                        policy_overrides=DESK_POLICY_OVERRIDES.get(task, {}))
            env = make_env(task_cfg)
            goals = evaluation_goals(env, 16)
            res = evaluate_policy(env, out["params"], goals)
            d_hat = res["mean_d_used"] / env.tradeoff.d_max
            c_hat = res["mean_c_used"] / env.tradeoff.c_max
            ratio = d_hat / c_hat if c_hat > 0 else float("inf")
            goal = goals[0]
            stl_path = os.path.join(out_dir, f"alpha_{alpha:g}",
                                    f"tool_seed_{seed}.stl")
            _export_design(env, Artifact(task, out["params"]), goal, stl_path)
            rows.append({"alpha": alpha, "seed": seed, "k": k,
                         "ratio": float(ratio), "d_hat": float(d_hat),
                         "c_hat": float(c_hat),
                         "mean_return": res["mean_return"],
                         "success_rate": res["success_rate"]})
    table_path = os.path.join(out_dir, "alpha_sweep.csv")
    with open(table_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "seed", "k", "ratio", "d_hat", "c_hat",
                         "mean_return", "success_rate"])
        for row in rows:
            writer.writerow([
                f"{row['alpha']:g}", row["seed"], f"{row['k']:g}",
                f"{row['ratio']:.6f}", f"{row['d_hat']:.6f}",
                f"{row['c_hat']:.6f}", f"{row['mean_return']:.6f}",
                f"{row['success_rate']:.6f}"])
    return rows


# ---------------------------------------------------------------------------
# export-tool
# ---------------------------------------------------------------------------

def _export_design(env, art: Artifact, goal, stl_path) -> dict:
    env.reset(goal=goal, seed=EVAL_RESET_SEED)
    if art.fixed_design is not None:
        mu = art.fixed_design
    else:
        design_cols, _ = policy_columns(art.params, env)
        mu = forward(art.params.designer, env.value_input()[design_cols])
    design = env.space.realize(mu)
    geom = build_tool(design)
    data = export_stl(geom)
    os.makedirs(os.path.dirname(stl_path) or ".", exist_ok=True)
    with open(stl_path, "wb") as fh:
        fh.write(data)
    return {
        "goal": [float(g) for g in np.atleast_1d(goal)],
        "design_action": [float(v) for v in np.atleast_1d(mu)],
        "design": [float(v) for v in design.as_array()],
        "stl_path": str(stl_path),
        "stl_bytes": len(data),
    }


def cmd_export_tool(checkpoint_path, goal, out_dir) -> dict:
    """Run the designer on one goal and write the printable mesh."""
    env, art = _load_for_eval(checkpoint_path)
    goal = env.validate_goal(np.asarray(goal, dtype=np.float64))
    os.makedirs(out_dir, exist_ok=True)
    record = _export_design(env, art, goal, os.path.join(out_dir, "tool.stl"))
    record["task"] = art.task
    record_path = os.path.join(out_dir, "design.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return {"record": record, "record_path": record_path,
            "stl_path": record["stl_path"]}


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(run_dirs: list, out_dir, task: str, n_goals: int = 16) -> list:
    """Score trained artifacts from several runs on one shared goal set."""
    if n_goals < 1:
        raise ValueError(f"n_goals must be at least 1, got {n_goals}")
    env = make_env(default_config(task))
    goals = evaluation_goals(env, n_goals)
    write_manifest(out_dir, "compare", {
        "task": task, "n_goals": n_goals,
        "run_dirs": [str(d) for d in run_dirs],
    })
    rows = []
    for run_dir in run_dirs:
        run_dir = str(run_dir)
        row = {"run_dir": run_dir, "env_steps": None,
               "train_mean_return": None, "eval_mean_return": None}
        metrics = os.path.join(run_dir, "metrics.csv")
        if os.path.exists(metrics):
            with open(metrics, encoding="utf-8") as fh:
                last = list(csv.DictReader(fh))[-1]
            row["env_steps"] = int(last["env_steps"])
            row["train_mean_return"] = float(last["mean_return"])
        for name in ("checkpoint.json", BEST_PLAN_FILE):
            path = os.path.join(run_dir, name)
            if os.path.exists(path):
                _, art = _load_for_eval(path, task)
                row["eval_mean_return"] = art.evaluate(env, goals)["mean_return"]
                break
        rows.append(row)
    table_path = os.path.join(out_dir, "compare.csv")
    with open(table_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_dir", "env_steps", "train_mean_return",
                         "eval_mean_return"])
        for row in rows:
            writer.writerow([
                row["run_dir"],
                "" if row["env_steps"] is None else row["env_steps"],
                "" if row["train_mean_return"] is None
                else f"{row['train_mean_return']:.6f}",
                "" if row["eval_mean_return"] is None
                else f"{row['eval_mean_return']:.6f}"])
    return rows
