"""Tests for the comparison optimizers and ablations."""

import json
import math
import os

import numpy as np
import pytest

from toolsmith.baselines import (
    CmaState,
    cma_init,
    cma_ask,
    cma_rl,
    cma_tell,
    constant_designer_policy,
    shared_policy,
)
from toolsmith.baselines.shared import retie_trunk, separate_param_count
from toolsmith.baselines.single_traj import (
    plan_dim,
    plan_fitness,
    single_traj_cmaes,
    split_plan,
)
from toolsmith.envs import default_config, make_env
from toolsmith.evaluation import evaluate_policy, evaluation_goals
from toolsmith.neural import (
    clone_params,
    forward,
    gaussian_logprob,
    load_checkpoint,
    param_count,
    parameters,
    params_from_state,
)
from toolsmith.ppo import (
    METRICS_HEADER,
    Artifact,
    Batch,
    Optimizers,
    collect_batch,
    default_train_config,
    ppo_update,
    prepare_batch,
    run_episode,
    train,
)


# ---------------------------------------------------------------------------
# CMA-ES core
# ---------------------------------------------------------------------------

def sphere(x):
    return -float(x @ x)


def test_cma_init_state_invariants():
    state = cma_init(np.zeros(5))
    assert state.population_size == 24
    assert state.sigma == 0.1
    assert state.generation == 0
    assert np.allclose(state.covariance, np.eye(5))
    assert np.all(state.weights > 0)
    assert abs(state.weights.sum() - 1.0) < 1e-12
    assert state.p_sigma.shape == (5,)
    assert state.p_c.shape == (5,)


def test_cma_ask_degenerate_sigma_collapses_to_mean():
    mean = np.array([1.0, -2.0, 0.5])
    state = cma_init(mean, sigma=1e-12, population_size=8)
    cands = cma_ask(state, np.random.default_rng(0))
    assert cands.shape == (8, 3)
    assert np.max(np.abs(cands - mean)) < 1e-9


def test_cma_ask_fixed_seed_reproduces_candidates():
    state = cma_init(np.ones(4), sigma=0.5)
    a = cma_ask(state, np.random.default_rng(42))
    b = cma_ask(state, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_cma_ask_sample_covariance_matches_state():
    """Monte-Carlo check: candidate covariance approaches sigma^2 C."""
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 5))
    cov = a @ a.T + 5.0 * np.eye(5)
    cov /= np.trace(cov) / 5.0
    state = cma_init(np.zeros(5), sigma=0.3, population_size=100)
    state.covariance[...] = cov
    draws = np.concatenate([cma_ask(state, rng) for _ in range(1000)])
    assert draws.shape[0] == 100000
    sample = np.cov(draws.T, bias=True)
    target = 0.3 ** 2 * cov
    rel = np.linalg.norm(sample - target) / np.linalg.norm(target)
    assert rel < 0.05


def test_cma_tell_identical_candidates_keep_mean():
    mean = np.array([0.3, -1.2, 0.0, 2.0])
    state = cma_init(mean, population_size=12)
    cands = np.tile(mean, (12, 1))
    fits = np.linspace(-1.0, 1.0, 12)
    new = cma_tell(state, cands, fits)
    assert np.array_equal(new.mean, mean)
    assert new.generation == 1


def test_cma_tell_moves_mean_toward_better_fitness():
    state = cma_init(np.full(3, 2.0), sigma=0.5, population_size=16)
    rng = np.random.default_rng(3)
    cands = cma_ask(state, rng)
    fits = np.array([sphere(c) for c in cands])
    new = cma_tell(state, cands, fits)
    assert np.linalg.norm(new.mean) < np.linalg.norm(state.mean)


def test_cma_sphere_dim5_converges_five_seeds():
    """Reference-function oracle: dim-5 sphere to 1e-6 within 200 generations."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        state = cma_init(np.full(5, 0.5), sigma=0.1, population_size=24)
        best = -math.inf
        gens = 0
        for g in range(200):
            cands = cma_ask(state, rng)
            fits = np.array([sphere(c) for c in cands])
            best = max(best, float(fits.max()))
            state = cma_tell(state, cands, fits)
            gens = g + 1
            if best >= -1e-6:
                break
        assert best >= -1e-6, f"seed {seed}: best {best} after {gens} generations"


def test_cma_mean_distance_trend_on_shifted_quadratic():
    """Median distance to the optimum is non-increasing on a 10-gen window."""
    target = np.array([0.3, -0.6, 0.15, 0.9, -0.3])
    n_gens = 60
    dists = np.zeros((5, n_gens))
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        state = cma_init(np.zeros(5), sigma=0.1, population_size=24)
        for g in range(n_gens):
            cands = cma_ask(state, rng)
            fits = np.array([-float((c - target) @ (c - target)) for c in cands])
            state = cma_tell(state, cands, fits)
            dists[seed, g] = np.linalg.norm(state.mean - target)
    med = np.median(dists, axis=0)
    for g in range(n_gens - 10):
        assert med[g + 10] <= med[g] + 1e-12, f"window at generation {g}"


def test_cma_covariance_stays_spd_every_generation():
    rng = np.random.default_rng(11)
    state = cma_init(np.zeros(4), sigma=0.2, population_size=10)
    for _ in range(50):
        cands = cma_ask(state, rng)
        fits = rng.normal(size=10)  # adversarially noisy ranking
        state = cma_tell(state, cands, fits)
        c = state.covariance
        assert np.array_equal(c, c.T)
        assert np.linalg.eigvalsh(c).min() > 0.0
        assert state.sigma > 0.0


def test_cma_tell_warns_and_excludes_nonfinite_fitness():
    state = cma_init(np.zeros(3), population_size=8)
    rng = np.random.default_rng(5)
    cands = cma_ask(state, rng)
    fits = np.array([sphere(c) for c in cands])
    fits[2] = np.nan
    fits[6] = np.inf  # +inf is non-finite too and must go
    with pytest.warns(UserWarning, match="non-finite"):
        new = cma_tell(state, cands, fits)
    assert np.all(np.isfinite(new.mean))
    assert np.linalg.eigvalsh(new.covariance).min() > 0.0

    # excluding the worst finite candidates by hand gives the same update as
    # marking them non-finite, since ranking only ever sees the finite ones
    order = np.argsort(fits[np.isfinite(fits)])
    keep = np.isfinite(fits)
    ref = cma_tell(state, cands[keep], fits[keep])
    assert np.allclose(new.mean, ref.mean)
    assert np.allclose(new.covariance, ref.covariance)


def test_cma_tell_rejects_all_nonfinite():
    state = cma_init(np.zeros(3), population_size=6)
    cands = cma_ask(state, np.random.default_rng(0))
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError):
            cma_tell(state, cands, np.full(6, np.nan))


# ---------------------------------------------------------------------------
# Single-trajectory plan search
# ---------------------------------------------------------------------------

def test_plan_dims_per_task():
    expected = {"push": 5 + 150 * 2, "catch": 5 + 150 * 1, "scoop": 5 + 30 * 3}
    for task, dim in expected.items():
        env = make_env(default_config(task))
        assert plan_dim(env) == dim


def test_split_plan_shapes():
    env = make_env(default_config("scoop"))
    vec = np.random.default_rng(0).normal(size=plan_dim(env)) * 0.1
    design_action, controls = split_plan(env, vec)
    assert controls.shape == (30, 3)
    assert design_action.shape == (5,)
    assert np.all(np.isfinite(env.space.realize(design_action)))


def test_split_plan_rejects_wrong_length():
    env = make_env(default_config("push"))
    with pytest.raises(ValueError, match=str(plan_dim(env))):
        split_plan(env, np.zeros(plan_dim(env) - 1))


def test_plan_fitness_deterministic_on_fixed_goal():
    env = make_env(default_config("push"))
    env.reset(seed=0)
    goals = evaluation_goals(env, 1)
    vec = np.random.default_rng(4).normal(size=plan_dim(env)) * 0.2
    a = plan_fitness(env, vec, goals)
    b = plan_fitness(env, vec, goals)
    assert a == b


def test_single_traj_run_logs_and_improves(tmp_path):
    """Small run: budget respected, JSONL schema right, best non-decreasing."""
    out = single_traj_cmaes(default_config("push"), total_steps=12000,
                            out_dir=tmp_path, seed=3, population_size=8,
                            n_eval_goals=4)
    assert out["env_steps"] >= 12000
    records = [json.loads(line)
               for line in open(out["generations_path"], encoding="utf-8")]
    assert len(records) == out["generations"]
    assert all(set(r) == {"generation", "best_fitness", "mean_fitness",
                          "sigma", "env_steps"} for r in records)
    best = [r["best_fitness"] for r in records]
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
    steps = [r["env_steps"] for r in records]
    assert all(s2 > s1 for s1, s2 in zip(steps, steps[1:]))
    assert records[-1]["best_fitness"] == out["best_fitness"]

    with open(out["metrics_path"], encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    assert header == METRICS_HEADER

    env = make_env(default_config("push"))
    goals = evaluation_goals(env, 4)
    res = plan_fitness(env, out["best_vector"], goals)
    assert res["mean_return"] == pytest.approx(out["best_fitness"], abs=1e-12)


def test_single_traj_rerun_is_byte_identical(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        single_traj_cmaes(default_config("scoop"), total_steps=2000, out_dir=d,
                          seed=5, population_size=6, n_eval_goals=2)
    for name in ("generations.jsonl", "metrics.csv", "best_plan.json"):
        with open(a_dir / name, "rb") as fa, open(b_dir / name, "rb") as fb:
            assert fa.read() == fb.read(), name


# ---------------------------------------------------------------------------
# Bi-level design search with learned control
# ---------------------------------------------------------------------------

def tiny_cfg(**overrides):
    kw = dict(batch_size=256, minibatch_size=64, ppo_epochs=2)
    kw.update(overrides)
    return default_train_config("push", scale="desk", **kw)


def test_cma_rl_step_accounting(tmp_path):
    out = cma_rl(default_config("push"), total_steps=1, out_dir=tmp_path, seed=2,
                 cfg=tiny_cfg(), population_size=3, inner_steps=600,
                 n_eval_goals=2, n_envs=2)
    assert out["env_steps"] == out["inner_steps"] + out["eval_steps"]
    assert out["inner_steps"] >= 3 * 600
    records = [json.loads(line)
               for line in open(out["generations_path"], encoding="utf-8")]
    assert records[-1]["env_steps"] == out["env_steps"]


def test_cma_rl_zero_inner_budget_scores_untrained_controller(tmp_path):
    out = cma_rl(default_config("push"), total_steps=1, out_dir=tmp_path, seed=4,
                 cfg=tiny_cfg(), population_size=3, inner_steps=0,
                 n_eval_goals=2, n_envs=2)
    assert out["inner_steps"] == 0
    assert out["env_steps"] == out["eval_steps"]
    assert math.isfinite(out["best_fitness"])
    env = make_env(default_config("push"))
    goals = evaluation_goals(env, 2)
    res = evaluate_policy(env, Artifact("push", out["best_params"],
                                        fixed_design=out["best_design"]),
                          goals)
    assert res["mean_return"] == out["best_fitness"]


def test_cma_rl_rerun_is_byte_identical(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        out = cma_rl(default_config("push"), total_steps=2000, out_dir=d, seed=6,
                     cfg=tiny_cfg(), population_size=3, inner_steps=256,
                     n_eval_goals=2, n_envs=2)
    assert out["generations"] == 2
    for name in ("generations.jsonl", "metrics.csv", "checkpoint.json"):
        with open(a_dir / name, "rb") as fa, open(b_dir / name, "rb") as fb:
            assert fa.read() == fb.read(), name


# ---------------------------------------------------------------------------
# Jointly learned constant design
# ---------------------------------------------------------------------------

def test_constant_designer_has_no_inputs():
    env = make_env(default_config("push"))
    params = constant_designer_policy(env, np.random.default_rng(0))
    assert params.designer.sizes == (0, env.design_action_dim)
    design_cols, control_cols = Artifact("push", params).columns(env)
    assert design_cols.size == 0
    assert np.array_equal(control_cols, env.control_columns)
    params.designer.biases[0][...] = np.arange(env.design_action_dim)
    assert np.array_equal(forward(params.designer, np.empty(0)),
                          params.designer.biases[0])


def test_constant_designer_mean_moves_under_design_advantages():
    env = make_env(default_config("push"))
    env.reset(seed=0)
    params = constant_designer_policy(env, np.random.default_rng(0))
    cfg = tiny_cfg(policy_lr=1e-2)
    rng = np.random.default_rng(5)
    art = Artifact("push", params)
    trajs = collect_batch([env], art, cfg, rng)
    batch = prepare_batch(trajs, cfg, art.columns(env))
    assert batch.num_design > 0
    params, stats = ppo_update(params, batch, cfg, Optimizers(params, cfg),
                               rng=np.random.default_rng(0))
    assert not stats["aborted"]
    assert np.any(params.designer.biases[0] != 0.0)


def test_hwasp_matches_direct_train_with_shared_seed(tmp_path):
    """hwasp through cmd_train is exactly the standard loop given the
    constant-head policy drawn from the seed."""
    from toolsmith.harness import cmd_train, config_from_dict
    cmd_train(config_from_dict({
        "task": "push", "method": "hwasp", "total_steps": 256, "seeds": (7,),
        "n_envs": 2, "out_dir": str(tmp_path / "a"), "batch_size": 256,
        "minibatch_size": 64, "ppo_epochs": 2}))
    env = make_env(default_config("push"))
    params = constant_designer_policy(env, np.random.default_rng(7))
    train(default_config("push"), tiny_cfg(), 256, tmp_path / "b", seed=7,
          n_envs=2, params=params)
    for name in ("checkpoint.json", "metrics.csv", "design_means.csv"):
        with open(tmp_path / "a" / "seed_7" / name, "rb") as fa, \
             open(tmp_path / "b" / name, "rb") as fb:
            assert fa.read() == fb.read(), name


def test_hwasp_design_constant_across_goals_after_training(tmp_path):
    env = make_env(default_config("push"))
    params = constant_designer_policy(env, np.random.default_rng(3))
    out = train(default_config("push"), tiny_cfg(), 512, tmp_path, seed=3,
                n_envs=2, params=params)
    episodes = evaluate_policy(env, Artifact("push", out["params"]),
                               evaluation_goals(env, 4))["episodes"]
    for ep in episodes[1:]:
        assert np.array_equal(ep["design"], episodes[0]["design"])


@pytest.mark.parametrize("build", [shared_policy, constant_designer_policy],
                         ids=["shared", "hwasp"])
def test_resume_matches_straight_run(tmp_path, build):
    """Resume copies the checkpoint into the method's own bundle, so a tied
    trunk stays tied and the run continues to the straight run's bytes."""
    task_cfg, cfg = default_config("push"), tiny_cfg()
    env = make_env(task_cfg)
    for total, out_dir, resume in ((512, "a", False), (1, "c", False),
                                   (512, "c", True)):
        train(task_cfg, cfg, total, tmp_path / out_dir, seed=4, n_envs=2,
              params=build(env, np.random.default_rng(4)), resume=resume)
    for name in ("metrics.csv", "design_means.csv", "checkpoint.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "c" / name).read_bytes(), name


# ---------------------------------------------------------------------------
# Tied-trunk architecture
# ---------------------------------------------------------------------------

def test_shared_policy_parameter_floor_and_tying():
    env = make_env(default_config("push"))
    params = shared_policy(env, np.random.default_rng(0))
    assert param_count(params) >= separate_param_count(env)
    n_trunk = len(params.designer.weights) - 1
    for i in range(n_trunk):
        assert params.controller.weights[i] is params.designer.weights[i]
        assert params.controller.biases[i] is params.designer.biases[i]
    assert params.controller.weights[-1] is not params.designer.weights[-1]
    # tied trunk arrays are listed once for the optimizer
    ids = [id(a) for a in params.trainable()]
    assert len(ids) == len(set(ids))


def test_shared_design_head_has_no_control_phase_channel():
    env = make_env(default_config("push"))
    params = shared_policy(env, np.random.default_rng(0))
    env.reset(seed=0)
    env.step_design(forward(params.designer, env.value_input()))
    assert env.phase == "control"
    with pytest.raises(Exception):
        env.step_design(np.zeros(5))
    ep = run_episode(env, Artifact("push", params), seed=1)
    assert math.isfinite(ep["return"])


def test_shared_losses_match_untied_twin_on_same_batch():
    """Weight tying must not change the loss arithmetic, only the gradients."""
    env = make_env(default_config("push"))
    tied = shared_policy(env, np.random.default_rng(8))
    untied = clone_params(tied)
    v_in = env.value_input_dim
    rng = np.random.default_rng(9)
    nd, nc = 4, 12
    d_in = rng.normal(size=(nd, v_in))
    c_in = rng.normal(size=(nc, v_in))
    d_act = forward(tied.designer, d_in) + 0.1 * rng.normal(size=(nd, 5))
    c_act = forward(tied.controller, c_in) \
        + 0.1 * rng.normal(size=(nc, env.control_action_dim))
    batch = Batch(
        columns=Artifact("push", tied).columns(env),
        design_actions=d_act,
        design_logp_old=gaussian_logprob(tied.designer_head,
                                         forward(tied.designer, d_in), d_act),
        design_adv=rng.normal(size=nd),
        control_actions=c_act,
        control_logp_old=gaussian_logprob(tied.controller_head,
                                          forward(tied.controller, c_in), c_act),
        control_adv=rng.normal(size=nc),
        value_inputs=np.concatenate([d_in, c_in]),
        returns=rng.normal(size=nd + nc),
    )
    cfg = tiny_cfg(policy_lr=0.0, value_lr=0.0, ppo_epochs=1,
                   batch_size=nd + nc, minibatch_size=nd + nc)
    _, s_tied = ppo_update(tied, batch, cfg, Optimizers(tied, cfg),
                             np.random.default_rng(0))
    _, s_untied = ppo_update(untied, batch, cfg, Optimizers(untied, cfg),
                             np.random.default_rng(0))
    assert s_tied["policy_loss"] == s_untied["policy_loss"]
    assert s_tied["value_loss"] == s_untied["value_loss"]
    assert s_tied["approx_kl"] == s_untied["approx_kl"]


def test_shared_arch_trains_and_reties_from_checkpoint(tmp_path):
    env = make_env(default_config("push"))
    out = train(default_config("push"), tiny_cfg(), 256, tmp_path, seed=6,
                n_envs=2, params=shared_policy(env, np.random.default_rng(6)))
    assert out["param_count"] >= separate_param_count(env)
    state = load_checkpoint(out["checkpoint_path"])
    loaded = retie_trunk(params_from_state(state["params"]))
    assert loaded.controller.weights[0] is loaded.designer.weights[0]
    live = out["params"]
    for a, b in zip(parameters(loaded.designer), parameters(live.designer)):
        assert np.array_equal(a, b)
