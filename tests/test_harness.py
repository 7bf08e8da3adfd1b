"""Tests for the experiment harness and its command line wrapper."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import toolsmith
from toolsmith.baselines.single_traj import plan_dim, single_traj_cmaes
from toolsmith.cli import main as cli_main
from toolsmith.envs import default_config, make_env
from toolsmith.evaluation import (
    EVAL_RESET_SEED,
    evaluate_plan,
    evaluate_policy,
    evaluation_goals,
    run_plan,
)
from toolsmith.harness import (
    ALLOWED_FRACTIONS,
    DEFAULT_FINETUNE_GOALS,
    ExperimentConfig,
    aggregate_metrics,
    centered_cutout,
    classify_goal,
    cmd_alpha_sweep,
    cmd_compare,
    cmd_eval,
    cmd_export_tool,
    cmd_finetune,
    cmd_train,
    config_from_dict,
    cutout_goal_sampler,
    goal_grid,
    in_cutout,
    _compare_artifact,
    _load_for_eval,
)
from toolsmith.envs.push import GOAL_HIGH, GOAL_LOW
from toolsmith.neural import load_checkpoint, params_from_state, save_checkpoint
from toolsmith.ppo import Artifact, run_episode


def tiny_config(tmp_path, **overrides):
    data = {
        "task": "push",
        "method": "ours",
        "total_steps": 300,
        "seeds": (0,),
        "n_envs": 4,
        "out_dir": str(tmp_path / "run"),
        "batch_size": 256,
        "minibatch_size": 64,
        "ppo_epochs": 2,
    }
    data.update(overrides)
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# Cutout regions
# ---------------------------------------------------------------------------

def test_cutout_fraction_must_be_allowed():
    with pytest.raises(ValueError):
        centered_cutout(0.3)
    assert centered_cutout(0.0) == ()
    for fraction in ALLOWED_FRACTIONS[1:]:
        assert len(centered_cutout(fraction)) == 1


def test_centered_cutout_area_and_bounds():
    goal_area = (GOAL_HIGH[0] - GOAL_LOW[0]) * (GOAL_HIGH[1] - GOAL_LOW[1])
    for fraction in (0.1, 0.4, 0.9):
        (x0, y0, x1, y1), = centered_cutout(fraction)
        assert (x1 - x0) * (y1 - y0) == pytest.approx(fraction * goal_area)
        assert x0 >= GOAL_LOW[0] and y0 >= GOAL_LOW[1]
        assert x1 <= GOAL_HIGH[0] and y1 <= GOAL_HIGH[1]
        cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
        assert cx == pytest.approx((GOAL_LOW[0] + GOAL_HIGH[0]) / 2)
        assert cy == pytest.approx((GOAL_LOW[1] + GOAL_HIGH[1]) / 2)


def test_classification_is_a_trichotomy():
    cutout = centered_cutout(0.4)
    points = [(8.0, 10.0), (4.2, 4.2), (15.0, 10.0), (2.0, 2.0),
              (4.0, 4.0), (12.0, 16.0), (8.0, 4.1)]
    labels = {classify_goal(cutout, p) for p in points}
    assert labels == {"cutout", "training", "outside"}
    for p in points:
        assert classify_goal(cutout, p) in ("cutout", "training", "outside")


def test_empty_cutout_classifies_nothing_as_cutout():
    cutout = centered_cutout(0.0)
    rng = np.random.default_rng(0)
    env = make_env(default_config("push"))
    for _ in range(200):
        assert classify_goal(cutout, env.sample_goal(rng)) == "training"


def test_sampler_never_yields_cutout_goals():
    cutout = centered_cutout(0.8)
    sampler = cutout_goal_sampler(cutout)
    env = make_env(default_config("push"))
    rng = np.random.default_rng(3)
    for _ in range(300):
        goal = sampler(env, rng)
        assert not in_cutout(cutout, goal)
        assert classify_goal(cutout, goal) == "training"


def test_goal_grid_covers_the_goal_region():
    grid = goal_grid(20)
    assert grid.shape == (400, 2)
    assert grid.min(axis=0) == pytest.approx(GOAL_LOW)
    assert grid.max(axis=0) == pytest.approx(GOAL_HIGH)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_unknown_config_key_is_named():
    with pytest.raises(ValueError, match="bogus_key"):
        config_from_dict({"task": "push", "bogus_key": 1})


def test_zero_seeds_rejected():
    with pytest.raises(ValueError, match="seed"):
        config_from_dict({"task": "push", "seeds": []})


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="no_such"):
        config_from_dict({"task": "push", "method": "no_such"})


@pytest.mark.parametrize("key", ["n_envs", "total_steps"])
def test_nonpositive_sizes_rejected(key):
    with pytest.raises(ValueError, match=key):
        config_from_dict({"task": "push", key: 0})


@pytest.mark.parametrize("task,method", [("scoop", "ours"), ("catch", "hwasp"),
                                         ("push", "single_traj"),
                                         ("push", "cma_rl")])
def test_cutout_rejected_where_no_sampler_reads_it(task, method):
    """Only push has the goal rectangle a cutout removes, and only the
    methods that train on sampled goals receive the cutout sampler."""
    with pytest.raises(ValueError, match="cutout_fraction"):
        config_from_dict({"task": task, "method": method,
                          "cutout_fraction": 0.2})


def test_train_keys_route_into_train_config():
    cfg = config_from_dict({"task": "push", "batch_size": 512,
                            "minibatch_size": 128, "gamma": 0.9})
    assert cfg.train.batch_size == 512
    assert cfg.train.minibatch_size == 128
    assert cfg.train.gamma == 0.9


def test_desk_policy_override_defaults():
    cfg = config_from_dict({"task": "catch"})
    assert cfg.policy_overrides == {"design_log_std": -1.2}
    cfg = config_from_dict({"task": "push"})
    assert cfg.policy_overrides == {}
    explicit = config_from_dict({"task": "catch",
                                 "policy_overrides": {"design_log_std": -0.5}})
    assert explicit.policy_overrides == {"design_log_std": -0.5}


# ---------------------------------------------------------------------------
# train command
# ---------------------------------------------------------------------------

def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_cmd_train_two_seeds_aggregate_and_rerun(tmp_path):
    cfg = tiny_config(tmp_path, seeds=(0, 1), total_steps=600)
    out = cmd_train(cfg)
    for seed_dir in out["seed_dirs"]:
        assert os.path.exists(os.path.join(seed_dir, "metrics.csv"))
        assert os.path.exists(os.path.join(seed_dir, "checkpoint.json"))
    agg = read_csv(out["aggregate_path"])
    assert agg[0] == ["env_steps", "mean_return_mean", "mean_return_stderr",
                      "success_rate_mean", "success_rate_stderr"]
    tables = [np.array(read_csv(p)[1:], dtype=np.float64)
              for p in out["seed_csvs"]]
    n = min(t.shape[0] for t in tables)
    stack = np.stack([t[:n] for t in tables])
    for r, row in enumerate(agg[1:]):
        mean_ret = stack[:, r, 1].mean()
        err_ret = stack[:, r, 1].std(ddof=1) / np.sqrt(stack.shape[0])
        assert float(row[1]) == pytest.approx(mean_ret, abs=1e-6)
        assert float(row[2]) == pytest.approx(err_ret, abs=1e-6)

    snapshot = {}
    for name in ["aggregate.csv", "manifest.json",
                 "seed_0/metrics.csv", "seed_1/metrics.csv"]:
        with open(os.path.join(cfg.out_dir, name), "rb") as fh:
            snapshot[name] = fh.read()
    cmd_train(tiny_config(tmp_path, seeds=(0, 1), total_steps=600))
    for name, before in snapshot.items():
        with open(os.path.join(cfg.out_dir, name), "rb") as fh:
            assert fh.read() == before, name


def test_cmd_train_single_seed_stderr_is_zero(tmp_path):
    cfg = tiny_config(tmp_path)
    out = cmd_train(cfg)
    agg = read_csv(out["aggregate_path"])
    for row in agg[1:]:
        assert float(row[2]) == 0.0
        assert float(row[4]) == 0.0


def test_cmd_train_writes_manifest_without_timestamps(tmp_path):
    cfg = tiny_config(tmp_path)
    cmd_train(cfg)
    with open(os.path.join(cfg.out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "train"
    assert manifest["config"]["task"] == "push"
    assert manifest["config"]["seeds"] == [0]
    assert "time" not in json.dumps(manifest).lower()


def test_desk_catch_override_reaches_every_gaussian_designer(tmp_path):
    """The desk catch designer log-std reaches ours, hwasp and shared alike,
    so the methods explore the design with the same noise."""
    for method in ("ours", "hwasp", "shared"):
        out = cmd_train(tiny_config(tmp_path / method, task="catch",
                                    method=method, total_steps=1))
        ck = load_checkpoint(os.path.join(out["seed_dirs"][0],
                                          "checkpoint.json"))
        assert np.all(ck["params"]["designer_log_std"] == -1.2), method


def test_aggregate_metrics_rejects_a_curve_with_another_header(tmp_path):
    """A curve whose header is not metrics.csv's is refused with a
    ValueError naming the file, which python -O keeps, unlike an assert."""
    path = tmp_path / "metrics.csv"
    path.write_text("env_steps,mean_return\n256,0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="metrics.csv"):
        aggregate_metrics([str(path)], str(tmp_path / "aggregate.csv"))
    assert not (tmp_path / "aggregate.csv").exists()


# each method's files in its seed directory, and the kind of its artifact
METHOD_FILES = {
    "ours": ({"checkpoint.json", "design_means.csv", "metrics.csv"}, "policy"),
    "single_traj": ({"best_plan.json", "generations.jsonl", "metrics.csv"},
                    "open-loop plan"),
}


@pytest.mark.parametrize("first,second", [("ours", "single_traj"),
                                          ("single_traj", "ours")])
def test_reused_out_dir_holds_only_the_last_methods_files(tmp_path, first,
                                                          second):
    """A method trained into an out dir another method used leaves only its
    own files in each seed directory, so compare scores its artifact
    beside its curve."""
    for method in (first, second):
        cmd_train(tiny_config(tmp_path, method=method, total_steps=256))
    seed_dir = tmp_path / "run" / "seed_0"
    files, kind = METHOD_FILES[second]
    assert set(os.listdir(seed_dir)) == files
    assert _compare_artifact(str(seed_dir), "push").kind == kind


def test_cmd_train_removes_the_seed_dirs_of_an_earlier_run(tmp_path):
    """Seeds [0, 1, 2], then seeds [0], into one out dir: seed_1/ goes with
    its run files, so the out dir holds only the manifest's seeds. A seed
    directory holding a file no command names keeps that file alone, and
    entries that are not seed directories are left as they are."""
    cmd_train(tiny_config(tmp_path, seeds=(0, 1, 2), total_steps=1))
    run = tmp_path / "run"
    (run / "seed_2" / "notes.txt").write_text("mine", encoding="utf-8")
    (run / "seed_x").mkdir()
    (run / "seed_3.txt").write_text("mine", encoding="utf-8")
    cmd_train(tiny_config(tmp_path, seeds=(0,), total_steps=1))
    assert sorted(os.listdir(run)) == ["aggregate.csv", "manifest.json",
                                       "seed_0", "seed_2", "seed_3.txt",
                                       "seed_x"]
    assert os.listdir(run / "seed_2") == ["notes.txt"]
    with open(run / "manifest.json", encoding="utf-8") as fh:
        assert json.load(fh)["config"]["seeds"] == [0]


def test_alpha_sweep_removes_the_runs_of_an_earlier_sweep(tmp_path):
    """An alpha not in this sweep loses its directory, and a kept alpha
    loses the seed directories and STL files of seeds not in this sweep."""
    from toolsmith.ppo import default_train_config
    cfg = default_train_config("push", batch_size=256, minibatch_size=64,
                               ppo_epochs=1)
    sweep = dict(task="push", k=0.5, budget=1, cfg=cfg, n_envs=2)
    out = tmp_path / "sw"
    cmd_alpha_sweep(str(out), alphas=(0.0, 1.0), seeds=(0, 1), **sweep)
    cmd_alpha_sweep(str(out), alphas=(0.0,), seeds=(1,), **sweep)
    assert sorted(os.listdir(out)) == ["alpha_0", "alpha_sweep.csv",
                                       "manifest.json"]
    assert sorted(os.listdir(out / "alpha_0")) == ["seed_1",
                                                   "tool_seed_1.stl"]


def test_cmd_train_cutout_goals_avoid_the_cutout(tmp_path):
    cfg = tiny_config(tmp_path, cutout_fraction=0.8)
    out = cmd_train(cfg)
    ck = load_checkpoint(os.path.join(out["seed_dirs"][0], "checkpoint.json"))
    assert ck["env_steps"] >= 300


# ---------------------------------------------------------------------------
# eval command
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("ck")
    cfg = tiny_config(root)
    out = cmd_train(cfg)
    return os.path.join(out["seed_dirs"][0], "checkpoint.json")


def test_cmd_eval_grid_writes_one_record_per_goal(tmp_path, tiny_checkpoint):
    out = cmd_eval(tiny_checkpoint, str(tmp_path / "eval"), grid=3,
                   cutout_fraction=0.4)
    rows = read_csv(out["per_goal_path"])
    assert len(rows) == 1 + 9
    regions = {row[1] for row in rows[1:]}
    assert regions == {"training", "cutout"}
    report = out["report"]
    assert report["regions"]["cutout"]["count"] >= 1
    assert report["regions"]["outside"]["count"] == 0


def test_cmd_eval_task_mismatch_is_an_error(tmp_path, tiny_checkpoint):
    with pytest.raises(ValueError, match="push"):
        cmd_eval(tiny_checkpoint, str(tmp_path / "e"), task="catch")


def test_eval_rejects_a_grid_and_a_goal_list_together(tmp_path, capsys,
                                                      tiny_checkpoint):
    """Given both a grid and goals, eval raises before its manifest is
    written, rather than score the goals and drop the grid."""
    out_dir = tmp_path / "eval"
    with pytest.raises(ValueError, match="grid"):
        cmd_eval(tiny_checkpoint, str(out_dir), goals=[np.array([8.0, 12.0])],
                 grid=3)
    assert not out_dir.exists()
    goals_file = tmp_path / "g.json"
    goals_file.write_text(json.dumps([[8.0, 12.0]]))
    rc = cli_main(["eval", "--checkpoint", tiny_checkpoint, "--out-dir",
                   str(out_dir), "--grid", "3", "--goals-file",
                   str(goals_file)])
    assert rc == 2
    assert "grid" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cmd_eval_empty_cutout_has_no_cutout_class(tmp_path, tiny_checkpoint):
    out = cmd_eval(tiny_checkpoint, str(tmp_path / "eval0"), grid=3)
    rows = read_csv(out["per_goal_path"])
    assert {row[1] for row in rows[1:]} == {"training"}


def test_cmd_eval_default_goals_match_shared_protocol(tmp_path, tiny_checkpoint):
    out = cmd_eval(tiny_checkpoint, str(tmp_path / "evald"))
    env = make_env(default_config("push"))
    params = params_from_state(load_checkpoint(tiny_checkpoint)["params"])
    expect = evaluate_policy(env, Artifact("push", params),
                             evaluation_goals(env, 16))
    assert out["report"]["mean_return"] == pytest.approx(expect["mean_return"])
    assert out["report"]["n_goals"] == 16


# ---------------------------------------------------------------------------
# finetune command
# ---------------------------------------------------------------------------

def test_cmd_finetune_budget_zero_is_zero_shot(tmp_path, tiny_checkpoint):
    out = cmd_finetune(tiny_checkpoint, str(tmp_path / "ft"), budget=0)
    tuned_rows = read_csv(str(tmp_path / "ft" / "finetuned.csv"))
    scratch_rows = read_csv(str(tmp_path / "ft" / "scratch.csv"))
    assert len(tuned_rows) == 2 and len(scratch_rows) == 2
    assert tuned_rows[1][0] == "0" and tuned_rows[1][1] == "0"
    env = make_env(default_config("push"))
    params = params_from_state(load_checkpoint(tiny_checkpoint)["params"])
    goals = [np.asarray(g) for g in out["report"]["goals"]]
    expect = evaluate_policy(env, Artifact("push", params), goals)
    assert float(tuned_rows[1][2]) == pytest.approx(expect["mean_return"],
                                                    abs=1e-6)


def test_cmd_finetune_curve_has_one_row_per_round(tmp_path, tiny_checkpoint):
    """Each arm is evaluated before its first round and after each of its
    budget rounds; every round collects at least batch_size steps."""
    from toolsmith.ppo import default_train_config
    cfg = default_train_config("push", batch_size=256, minibatch_size=64,
                               ppo_epochs=2)
    cmd_finetune(tiny_checkpoint, str(tmp_path / "ft"), budget=2, cfg=cfg)
    for name in ("finetuned.csv", "scratch.csv"):
        header, *rows = read_csv(str(tmp_path / "ft" / name))
        assert header == ["update", "env_steps", "eval_return", "success_rate"]
        assert [int(r[0]) for r in rows] == [0, 1, 2]
        steps = [int(r[1]) for r in rows]
        assert steps[0] == 0
        assert all(b - a >= cfg.batch_size for a, b in zip(steps, steps[1:]))


def test_cli_finetune_rejects_a_negative_budget_before_running(
        tmp_path, capsys, tiny_checkpoint):
    out_dir = tmp_path / "ft"
    rc = cli_main(["finetune", "--checkpoint", tiny_checkpoint,
                   "--out-dir", str(out_dir), "--budget", "-1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "budget" in err
    assert not out_dir.exists()


def test_cmd_finetune_rejects_training_region_goals(tmp_path, tiny_checkpoint):
    with pytest.raises(ValueError, match="training region"):
        cmd_finetune(tiny_checkpoint, str(tmp_path / "ft2"),
                     goals=[(8.0, 10.0)], budget=0)


def test_cmd_finetune_keeps_the_hwasp_design_goal_independent(tmp_path):
    from toolsmith.ppo import default_train_config
    out = cmd_train(tiny_config(tmp_path, method="hwasp"))
    ck = os.path.join(out["seed_dirs"][0], "checkpoint.json")
    cfg = default_train_config("push", batch_size=256, minibatch_size=64,
                               ppo_epochs=2)
    tuned = cmd_finetune(ck, str(tmp_path / "ft"), budget=2, cfg=cfg)
    env = make_env(default_config("push"))
    goals = evaluation_goals(env, 4) + [np.asarray(g, dtype=np.float64)
                                        for g in DEFAULT_FINETUNE_GOALS]
    art = Artifact("push", tuned["finetuned"]["params"])
    episodes = evaluate_policy(env, art, goals)["episodes"]
    for ep in episodes[1:]:
        assert np.array_equal(ep["design"], episodes[0]["design"])


def test_cmd_finetune_report_lists_both_arms(tmp_path, tiny_checkpoint):
    out = cmd_finetune(tiny_checkpoint, str(tmp_path / "ft3"), budget=0)
    report = out["report"]
    assert len(report["finetuned_per_goal_success"]) == 4
    assert len(report["scratch_per_goal_success"]) == 4
    assert report["budget"] == 0


# ---------------------------------------------------------------------------
# alpha sweep command
# ---------------------------------------------------------------------------

def test_alpha_sweep_requires_positive_k(tmp_path):
    with pytest.raises(ValueError, match="K > 0"):
        cmd_alpha_sweep(str(tmp_path / "sw"), k=0.0)


def test_alpha_sweep_row_per_alpha_with_stl(tmp_path):
    from toolsmith.ppo import default_train_config
    cfg = default_train_config("push", batch_size=256, minibatch_size=64,
                               ppo_epochs=2)
    rows = cmd_alpha_sweep(str(tmp_path / "sw"), task="push",
                           alphas=(0.0, 1.0), k=0.5, budget=1, seeds=(0,),
                           cfg=cfg, n_envs=4)
    assert len(rows) == 2
    table = read_csv(str(tmp_path / "sw" / "alpha_sweep.csv"))
    assert len(table) == 3
    for row in rows:
        assert row["ratio"] > 0.0
        stl = os.path.join(str(tmp_path / "sw"), f"alpha_{row['alpha']:g}",
                           "tool_seed_0.stl")
        assert os.path.getsize(stl) > 84


# ---------------------------------------------------------------------------
# export command
# ---------------------------------------------------------------------------

def test_export_tool_is_deterministic(tmp_path, tiny_checkpoint):
    out1 = cmd_export_tool(tiny_checkpoint, (8.0, 12.0), str(tmp_path / "t1"))
    out2 = cmd_export_tool(tiny_checkpoint, (8.0, 12.0), str(tmp_path / "t2"))
    with open(out1["stl_path"], "rb") as fh:
        data1 = fh.read()
    with open(out2["stl_path"], "rb") as fh:
        data2 = fh.read()
    assert data1 == data2
    assert out1["record"]["design"] == out2["record"]["design"]


def test_export_tool_is_deterministic_on_a_random_scene(tmp_path):
    """Scoop resets scatter the balls at random, so the designer's input,
    and with it the exported mesh, depends on the seed of the reset."""
    from toolsmith.ppo import default_train_config, train
    cfg = default_train_config("scoop", batch_size=64, minibatch_size=32,
                               ppo_epochs=1)
    out = train(default_config("scoop"), cfg, 1, str(tmp_path / "run"),
                n_envs=1)
    stls = []
    for k in range(2):
        res = cmd_export_tool(out["checkpoint_path"], (4,),
                              str(tmp_path / f"t{k}"))
        with open(res["stl_path"], "rb") as fh:
            stls.append(fh.read())
    assert stls[0] == stls[1]


def test_export_tool_rejects_bad_goal(tmp_path, tiny_checkpoint):
    with pytest.raises(ValueError, match="workspace"):
        cmd_export_tool(tiny_checkpoint, (40.0, 40.0), str(tmp_path / "t3"))
    with pytest.raises(ValueError, match="2-d"):
        cmd_export_tool(tiny_checkpoint, (1.0, 2.0, 3.0), str(tmp_path / "t4"))


# ---------------------------------------------------------------------------
# compare command
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cma_rl_run(tmp_path_factory):
    from toolsmith.baselines import cma_rl
    from toolsmith.ppo import default_train_config
    cfg = default_train_config("push", batch_size=256, minibatch_size=64,
                               ppo_epochs=2)
    return cma_rl(default_config("push"), total_steps=1,
                  out_dir=str(tmp_path_factory.mktemp("cma_rl")), seed=0,
                  cfg=cfg, population_size=3, inner_steps=256,
                  n_eval_goals=2, n_envs=2)


def test_cmd_compare_scores_checkpoints_and_plans(tmp_path, tiny_checkpoint,
                                                  cma_rl_run):
    """Every method's artifact is scored, evaluated and exported; finetune
    takes only separate-network policies and names what it refuses."""
    run_dirs = {"ours": os.path.dirname(tiny_checkpoint),
                "cma_rl": os.path.dirname(cma_rl_run["checkpoint_path"])}
    for method, total_steps in (("hwasp", 300), ("shared", 300),
                                ("single_traj", 2000)):
        out = cmd_train(tiny_config(tmp_path / method, method=method,
                                    total_steps=total_steps))
        run_dirs[method] = out["seed_dirs"][0]

    rows = cmd_compare(list(run_dirs.values()), str(tmp_path / "cmp"), "push")
    assert len(rows) == 5
    table = read_csv(str(tmp_path / "cmp" / "compare.csv"))
    assert len(table) == 6

    artifacts = {}
    for (method, run_dir), row in zip(run_dirs.items(), rows):
        name = "best_plan.json" if method == "single_traj" \
            else "checkpoint.json"
        artifacts[method] = path = os.path.join(run_dir, name)
        out = cmd_eval(path, str(tmp_path / "eval" / method), task="push")
        assert row["eval_mean_return"] == out["report"]["mean_return"], method
        tool = cmd_export_tool(path, (8.0, 12.0), str(tmp_path / "t" / method))
        assert os.path.getsize(tool["stl_path"]) > 84

    for method, kind in (("shared", "shared"), ("cma_rl", "fixed-design"),
                         ("single_traj", "open-loop plan")):
        with pytest.raises(ValueError, match=kind):
            cmd_finetune(artifacts[method], str(tmp_path / "ft" / method),
                         budget=0)


CURVE_HEADER = "env_steps,mean_return,success_rate,approx_kl,entropy," \
    "mean_d_used,mean_c_used\n"


@pytest.mark.parametrize("text,cells", [
    pytest.param(CURVE_HEADER, ["", ""], id="header-only"),
    pytest.param(CURVE_HEADER
                 + "1208,-0.231082,0.000000,0.00031452,-1.783715,6.0,4.2\n"
                 + "2416,-0.116041,0.000000,-0.00025162,-1.783715",
                 ["1208", "-0.231082"], id="torn-last-row"),
])
def test_cmd_compare_reads_the_last_whole_curve_row(tmp_path, text, cells):
    """A run killed while writing its curve leaves a header alone, or a
    torn last row: compare reads the last whole row, or leaves the cells
    blank when there is none."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "metrics.csv").write_text(text, encoding="utf-8")
    row, = cmd_compare([run_dir], str(tmp_path / "cmp"), "push", n_goals=1)
    assert [row["env_steps"], row["train_mean_return"]] == \
        [int(cells[0]) if cells[0] else None,
         float(cells[1]) if cells[1] else None]
    table = read_csv(str(tmp_path / "cmp" / "compare.csv"))
    assert table[1][1:3] == cells


def test_cmd_compare_checks_every_artifact_before_writing(tmp_path,
                                                         tiny_checkpoint):
    """A run dir whose artifact belongs to another task is refused before
    the manifest is written or any run dir is scored."""
    env = make_env(default_config("catch"))
    catch_dir = tmp_path / "catch_run"
    catch_dir.mkdir()
    (catch_dir / "best_plan.json").write_text(json.dumps(
        {"task": "catch", "fitness": 0.0,
         "vector": [0.0] * plan_dim(env)}))
    out_dir = tmp_path / "cmp"
    with pytest.raises(ValueError, match="'catch', not 'push'"):
        cmd_compare([os.path.dirname(tiny_checkpoint), catch_dir],
                    str(out_dir), "push", n_goals=1)
    assert not out_dir.exists()


def test_cmd_compare_checks_every_curve_before_writing(tmp_path,
                                                     tiny_checkpoint):
    """A run dir whose metrics.csv has another header is refused, naming
    the file, before the manifest is written or any run dir is scored."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "metrics.csv").write_text("env_steps,return\n256,0.5\n",
                                         encoding="utf-8")
    out_dir = tmp_path / "cmp"
    with pytest.raises(ValueError, match="metrics.csv"):
        cmd_compare([os.path.dirname(tiny_checkpoint), run_dir],
                    str(out_dir), "push", n_goals=1)
    assert not out_dir.exists()


def test_cma_rl_checkpoint_evaluates_to_the_searched_design(tmp_path,
                                                           cma_rl_run):
    row, = cmd_compare([os.path.dirname(cma_rl_run["checkpoint_path"])],
                       str(tmp_path / "cmp"), "push")
    assert row["eval_mean_return"] is not None
    env = make_env(default_config("push"))
    out = cmd_eval(cma_rl_run["checkpoint_path"], str(tmp_path / "eval"),
                   goals=evaluation_goals(env, 2))
    design = env.space.realize(cma_rl_run["best_design"])
    assert out["report"]["design_mean"] == design.tolist()
    assert out["report"]["mean_return"] == cma_rl_run["best_fitness"]


# ---------------------------------------------------------------------------
# one policy source: every scored episode is run_episode of an Artifact
# ---------------------------------------------------------------------------

def write_plan(path, seed: int = 0):
    """A push best_plan.json holding a random plan vector."""
    env = make_env(default_config("push"))
    vector = np.random.default_rng(seed).normal(0.0, 0.3, plan_dim(env))
    path.write_text(json.dumps({"task": "push", "fitness": 0.0,
                                "vector": vector.tolist()}))
    return str(path)


def test_export_tool_writes_the_design_of_the_eval_episode(tmp_path,
                                                          tiny_checkpoint,
                                                          cma_rl_run):
    """export-tool's design action and design are those run_episode steps
    and builds on the same goal and reset seed, for each kind of artifact
    that carries a design step of its own."""
    goal = np.array([8.0, 12.0])
    for kind, path in (("policy", tiny_checkpoint),
                       ("fixed-design", cma_rl_run["checkpoint_path"]),
                       ("open-loop plan",
                        write_plan(tmp_path / "best_plan.json"))):
        env, art = _load_for_eval(path)
        assert art.kind == kind
        stepped = []
        step_design = env.step_design
        env.step_design = lambda a: stepped.append(np.copy(a)) \
            or step_design(a)
        episode = run_episode(env, art, goal=goal, seed=EVAL_RESET_SEED)
        record = cmd_export_tool(path, goal, str(tmp_path / kind))["record"]
        assert record["design_action"] == stepped[0].tolist(), kind
        assert record["design"] == episode["design"].tolist(), kind


def test_run_plan_is_run_episode_of_the_plan_artifact(tmp_path):
    env, art = _load_for_eval(write_plan(tmp_path / "best_plan.json", 1))
    design, controls = art.fixed_design, art.controls
    goals = evaluation_goals(env, 2)
    for k, goal in enumerate(goals):
        a = run_plan(env, design, controls, goal, EVAL_RESET_SEED + k)
        b = run_episode(env, Artifact("push", fixed_design=design,
                                      controls=controls),
                        goal=goal, seed=EVAL_RESET_SEED + k)
        assert np.array_equal(a.pop("design"), b.pop("design"))
        assert a == b
    stats = evaluate_policy(env, art, goals)
    del stats["episodes"]
    assert evaluate_plan(env, design, controls, goals) == stats


def count_calls(monkeypatch, module, name) -> list:
    """Wrap module.name under every name a toolsmith module holds it by,
    as the benchmark's counters do; returns the (args, result) of each
    call."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    for key, mod in list(sys.modules.items()):
        if key == "toolsmith" or key.startswith("toolsmith."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_eval_runs_one_episode_call_per_goal(tmp_path, monkeypatch,
                                            tiny_checkpoint):
    """cmd_eval scores each goal with its own ppo.run_episode call, which
    returns its return and control steps; batching the goals into one call
    would change what the eval benchmark counts."""
    calls = count_calls(monkeypatch, toolsmith.ppo, "run_episode")
    goals = goal_grid(2)
    out = cmd_eval(tiny_checkpoint, str(tmp_path / "eval"), goals=goals)
    assert len(calls) == len(goals) == out["report"]["n_goals"]
    rows = read_csv(out["per_goal_path"])[1:]
    for (_, episode), row in zip(calls, rows):
        assert f"{episode['return']:.6f}" == row[2]
        assert 1 <= episode["steps"] <= 150


def test_cma_generation_scores_each_candidate_by_one_plan_fitness_call(
        tmp_path, monkeypatch):
    """One single_traj generation makes population_size plan_fitness(env,
    vector, goals) calls, whose env steps add up to the run's."""
    import toolsmith.baselines.single_traj as single_traj
    calls = count_calls(monkeypatch, single_traj, "plan_fitness")
    out = single_traj_cmaes(default_config("push"), total_steps=1,
                            out_dir=tmp_path, seed=0, population_size=5,
                            n_eval_goals=2)
    assert out["generations"] == 1
    assert len(calls) == 5
    for (env, vector, goals), stats in calls:
        assert vector.shape == (plan_dim(env),) and len(goals) == 2
    assert sum(stats["env_steps"] for _, stats in calls) == out["env_steps"]


# ---------------------------------------------------------------------------
# command line wrapper
# ---------------------------------------------------------------------------

def test_cli_train_and_eval_roundtrip(tmp_path, capsys):
    out_dir = str(tmp_path / "cli_run")
    rc = cli_main(["train", "--task", "push", "--method", "ours",
                   "--total-steps", "300", "--seeds", "0",
                   "--n-envs", "4", "--out-dir", out_dir,
                   "--opt", "batch_size=256", "--opt", "minibatch_size=64",
                   "--opt", "ppo_epochs=2"])
    assert rc == 0
    assert os.path.exists(os.path.join(out_dir, "aggregate.csv"))
    rc = cli_main(["eval", "--checkpoint",
                   os.path.join(out_dir, "seed_0", "checkpoint.json"),
                   "--out-dir", str(tmp_path / "cli_eval"), "--grid", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mean_return" in out


def test_cli_checkpoint_does_not_depend_on_blas_threads(tmp_path):
    """A gradient GEMM summed over a 600-row minibatch rounds differently on
    two BLAS threads than on one, so only the CLI's own pin keeps the bytes."""
    src = os.path.dirname(os.path.dirname(toolsmith.__file__))
    checkpoints = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, env.get("PYTHONPATH", "")]).rstrip(os.pathsep))
        out_dir = str(tmp_path / f"threads_{threads}")
        subprocess.run(
            [sys.executable, "-m", "toolsmith.cli", "train", "--task", "push",
             "--method", "ours", "--total-steps", "600", "--seeds", "0",
             "--n-envs", "4", "--out-dir", out_dir,
             "--opt", "batch_size=600", "--opt", "minibatch_size=600",
             "--opt", "ppo_epochs=1"],
            env=env, check=True, capture_output=True, timeout=300)
        with open(os.path.join(out_dir, "seed_0", "checkpoint.json"),
                  "rb") as fh:
            checkpoints.append(fh.read())
    assert checkpoints[0] == checkpoints[1]


def test_cli_config_file_with_flag_override(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "task": "push", "method": "ours", "total_steps": 300,
        "seeds": [0], "n_envs": 4, "batch_size": 256,
        "minibatch_size": 64, "ppo_epochs": 2,
        "out_dir": str(tmp_path / "from_file")}))
    rc = cli_main(["train", "--config", str(config_path),
                   "--out-dir", str(tmp_path / "from_flag")])
    assert rc == 0
    assert os.path.exists(str(tmp_path / "from_flag" / "aggregate.csv"))
    assert not os.path.exists(str(tmp_path / "from_file"))


def test_cli_reports_config_errors(tmp_path, capsys):
    rc = cli_main(["train", "--task", "push", "--seeds", "0",
                   "--opt", "bogus_key=1"])
    assert rc == 2
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize("args,name", [
    pytest.param(["--n-envs", "0"], "n_envs", id="--n-envs-ours"),
    pytest.param(["--total-steps", "0"], "total_steps",
                 id="--total-steps-ours"),
    pytest.param(["--method", "single_traj", "--total-steps", "0"],
                 "total_steps", id="--total-steps-single_traj"),
    pytest.param(["--total-steps", "1", "--opt", "batch_size=512",
                  "--opt", "minibatch_size=0"], "minibatch_size",
                 id="minibatch_size"),
    pytest.param(["--total-steps", "1", "--opt", "batch_size=512",
                  "--opt", "ppo_epochs=0"], "ppo_epochs", id="ppo_epochs"),
    pytest.param(["--total-steps", "1", "--config"], "train",
                 id="nested-train"),
    pytest.param(["--opt", "seeds=5"], "seeds", id="seeds-not-a-list"),
    pytest.param(["--opt", "seeds=[0, 1.5]"], "seeds",
                 id="seeds-not-integers"),
    pytest.param(["--opt", 'gamma="x"'], "gamma", id="gamma-a-string"),
    pytest.param(["--opt", "n_envs=2.5"], "n_envs", id="n_envs-a-float"),
    pytest.param(["--opt", "total_steps=1.5"], "total_steps",
                 id="total_steps-a-float"),
    pytest.param(["--opt", "ppo_epochs=true"], "ppo_epochs",
                 id="ppo_epochs-a-bool"),
    pytest.param(["--opt", "out_dir=5"], "out_dir", id="out_dir-a-number"),
    pytest.param(["--opt", 'policy_overrides={"design_log_std": "x"}'],
                 "policy_overrides", id="policy_overrides-not-numbers"),
    pytest.param(["--total-steps", "10", "--tradeoff-k", "-1"], "tradeoff K",
                 id="--tradeoff-k-negative"),
    pytest.param(["--total-steps", "10", "--tradeoff-alpha", "1.5"],
                 "tradeoff alpha", id="--tradeoff-alpha-above-1"),
    pytest.param(["--total-steps", "10", "--opt", "policy_lr=-1"], "policy_lr",
                 id="policy_lr-negative"),
    pytest.param(["--total-steps", "10", "--opt", "value_lr=-1"], "value_lr",
                 id="value_lr-negative"),
    pytest.param(["--total-steps", "10", "--opt", "clip_epsilon=0"],
                 "clip_epsilon", id="clip_epsilon-zero"),
    pytest.param(["--total-steps", "10", "--opt", "clip_epsilon=-1"],
                 "clip_epsilon", id="clip_epsilon-negative"),
])
def test_cli_rejects_zero_sizes_before_running(tmp_path, capsys, args, name):
    """A size below 1, a value of the wrong type or out of range, or train
    keys nested in a config file's train object rather than given flat,
    exits 2 before anything is written."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"train": {"batch_size": 512}}))
    if args[-1] == "--config":
        args = args + [str(config)]
    out_dir = tmp_path / "run"
    rc = cli_main(["train", "--task", "push", "--seeds", "0",
                   "--out-dir", str(out_dir), *args])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert name in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command,args", [
    pytest.param("train", ["--task", "push", "--total-steps", "10"],
                 id="train"),
    pytest.param("finetune", ["--budget", "0"], id="finetune"),
    pytest.param("alpha-sweep", ["--task", "push", "--k", "0.5",
                                 "--alphas", "0", "--budget", "1"],
                 id="alpha-sweep"),
])
def test_cli_rejects_a_negative_seed_before_running(tmp_path, capsys,
                                                    tiny_checkpoint,
                                                    command, args):
    out_dir = tmp_path / "run"
    if command == "finetune":
        args = args + ["--checkpoint", tiny_checkpoint, "--seed", "-1"]
    else:
        args = args + ["--seeds=-1"]
    rc = cli_main([command, "--out-dir", str(out_dir), *args])
    assert rc == 2
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err


def test_cli_rejects_a_scoop_cutout_before_running(tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = cli_main(["train", "--task", "scoop", "--seeds", "0",
                   "--cutout-fraction", "0.2", "--out-dir", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cutout_fraction" in err
    assert not out_dir.exists()


def test_cli_eval_rejects_a_cutout_off_push(tmp_path, capsys):
    """Only push goals have a cutout region; a catch artifact evaluated with
    one exits 2 before anything is written."""
    env = make_env(default_config("catch"))
    plan = tmp_path / "best_plan.json"
    plan.write_text(json.dumps({"task": "catch", "fitness": 0.0,
                                "vector": [0.0] * plan_dim(env)}))
    out_dir = tmp_path / "eval"
    rc = cli_main(["eval", "--checkpoint", str(plan), "--out-dir",
                   str(out_dir), "--cutout-fraction", "0.2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cutout_fraction" in err
    assert not out_dir.exists()


def test_cli_eval_rejects_a_trained_log_std_head(tmp_path, capsys,
                                                 tiny_checkpoint):
    state = load_checkpoint(tiny_checkpoint)
    state["params"]["designer_fixed"] = False
    ck = tmp_path / "checkpoint.json"
    save_checkpoint(ck, state)
    with pytest.raises(ValueError, match="designer"):
        _load_for_eval(ck)
    rc = cli_main(["eval", "--checkpoint", str(ck),
                   "--out-dir", str(tmp_path / "eval")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_eval_rejects_truncated_plan(tmp_path, capsys):
    env = make_env(default_config("push"))
    plan = tmp_path / "best_plan.json"
    plan.write_text(json.dumps({"task": "push", "fitness": 0.0,
                                "vector": [0.0] * (plan_dim(env) - 2)}))
    rc = cli_main(["eval", "--checkpoint", str(plan),
                   "--out-dir", str(tmp_path / "eval")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(plan_dim(env)) in err


@pytest.mark.parametrize("command", ["eval", "finetune", "export-tool",
                                     "compare"])
@pytest.mark.parametrize("name,body", [
    pytest.param("checkpoint.json", [], id="checkpoint-list"),
    pytest.param("checkpoint.json", {"version": 1}, id="checkpoint-no-params"),
    pytest.param("best_plan.json", [], id="plan-list"),
    pytest.param("best_plan.json", {"task": "push"}, id="plan-no-vector"),
])
def test_cli_rejects_a_malformed_artifact_file(tmp_path, capsys, command,
                                               name, body):
    """A checkpoint or plan that is not a JSON object, or lacks the key its
    reader reads, exits 2 with an error line, not a traceback, before
    anything is written."""
    run = tmp_path / "run"
    run.mkdir()
    (run / name).write_text(json.dumps(body))
    args = {"eval": ["eval", "--checkpoint", str(run / name)],
            "finetune": ["finetune", "--checkpoint", str(run / name)],
            "export-tool": ["export-tool", "--checkpoint", str(run / name),
                            "--goal", "0,0"],
            "compare": ["compare", str(run), "--task", "push"]}[command]
    out_dir = tmp_path / "out"
    rc = cli_main([*args, "--out-dir", str(out_dir)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out_dir.exists()


@pytest.mark.parametrize("args", [
    pytest.param(["eval", "--checkpoint"], id="eval-checkpoint"),
    pytest.param(["train", "--task", "push", "--seeds", "0", "--config"],
                 id="train-config"),
])
def test_cli_rejects_a_directory_given_as_an_input_file(tmp_path, capsys, args):
    """A directory named where a checkpoint or a config file belongs exits 2
    with an error line, not a traceback, before anything is written."""
    given = tmp_path / "given"
    given.mkdir()
    out_dir = tmp_path / "run"
    rc = cli_main([*args, str(given), "--out-dir", str(out_dir)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out_dir.exists()


def test_cli_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("TOOLSMITH_OUT", str(tmp_path / "root"))
    cfg = config_from_dict({"task": "push"})
    assert cfg.out_dir == str(tmp_path / "root" / "push_ours")


def test_cli_rejects_an_unknown_policy_override_before_running(tmp_path, capsys):
    """A misspelled policy_overrides key exits 2 before the manifest is
    written, not once training has started."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"policy_overrides": {"design_std": -1}}))
    out_dir = tmp_path / "run"
    rc = cli_main(["train", "--config", str(config), "--task", "push",
                   "--method", "hwasp", "--seeds", "0", "--out-dir", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "design_std" in err
    assert not (out_dir / "manifest.json").exists()


def test_cli_rejects_repeated_seeds_before_running(tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = cli_main(["train", "--task", "push", "--seeds", "0,0",
                   "--total-steps", "1", "--out-dir", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command,flag,goals", [
    pytest.param("eval", "--goals-file", [], id="eval---goals-file"),
    pytest.param("eval", "--grid", None, id="eval---grid"),
    pytest.param("finetune", "--goals-file", [], id="finetune---goals-file"),
    pytest.param("compare", "--n-goals", None, id="compare---n-goals"),
    pytest.param("eval", "--goals-file", [[1, 2, 3]], id="eval-3d-goal"),
    pytest.param("finetune", "--goals-file", [[30, 30]],
                 id="finetune-goal-off-the-workspace"),
])
def test_cli_rejects_an_empty_goal_set_before_running(tmp_path, capsys,
                                                      tiny_checkpoint,
                                                      command, flag, goals):
    """An empty goal set, or a goal the task does not accept, exits 2
    before anything is written."""
    goals_file = tmp_path / "goals.json"
    goals_file.write_text(json.dumps(goals))
    value = str(goals_file) if flag == "--goals-file" else "0"
    source = ["--checkpoint", tiny_checkpoint] if command != "compare" else \
        [os.path.dirname(tiny_checkpoint), "--task", "push"]
    out_dir = tmp_path / "out"
    rc = cli_main([command, *source, "--out-dir", str(out_dir), flag, value])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out_dir.exists()


@pytest.mark.parametrize("flag,value", [("--seeds", "0,0"),
                                        ("--alphas", "0.5,0.5"),
                                        ("--alphas", "0.1,0.1000001"),
                                        ("--alphas", "1.5"),
                                        ("--seeds", ""),
                                        ("--budget", "0")])
def test_cli_alpha_sweep_rejects_bad_inputs_before_running(tmp_path, capsys,
                                                           flag, value):
    """A repeated seed, or two alphas that name one directory alpha_<g>,
    would train the same run twice, an alpha outside [0, 1] is no weight,
    no seed is no sweep and a budget of 0 trains nothing; each exits 2
    before anything is written."""
    out_dir = tmp_path / "sweep"
    rc = cli_main(["alpha-sweep", "--task", "push", "--budget", "1",
                   "--alphas", "0.5", "--out-dir", str(out_dir), flag, value])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out_dir.exists()


def test_cmd_train_runs_cma_rl_on_the_configured_envs(tmp_path, monkeypatch):
    """cma_rl collects from config.n_envs environments, as the manifest
    records; the checkpoint holds one env rng state per environment."""
    import toolsmith.harness as harness
    real = harness.cma_rl

    def tiny_cma_rl(*args, **kwargs):
        return real(*args, **kwargs, population_size=2, inner_steps=1,
                    n_eval_goals=1)

    monkeypatch.setattr(harness, "cma_rl", tiny_cma_rl)
    out = cmd_train(tiny_config(tmp_path, method="cma_rl", n_envs=3,
                                total_steps=1))
    ck = load_checkpoint(os.path.join(out["seed_dirs"][0], "checkpoint.json"))
    assert len(ck["env_rng_states"]) == 3
