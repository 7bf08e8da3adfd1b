import json
import math
import os
import shutil
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from toolsmith.baselines.single_traj import plan_dim, split_plan
from toolsmith.envs import ToolTaskEnv, default_config, make_env
from toolsmith.evaluation import evaluate_plan, evaluate_policy
from toolsmith.physics2d import ContactBatch, World, stacked_state
from toolsmith.neural import (
    GaussianHead,
    HIDDEN,
    clone_params,
    forward,
    gaussian_entropy,
    gaussian_logprob,
    init_network,
    load_checkpoint,
    param_count,
    parameters,
    save_checkpoint,
)
import toolsmith.ppo as ppo
from toolsmith.ppo import (
    DESIGN_MEANS_HEADER,
    METRICS_HEADER,
    RUN_FILES,
    Artifact,
    Optimizers,
    TrainConfig,
    Trajectory,
    artifact_from_record,
    checkpoint_record,
    collect_batch,
    compute_gae,
    default_train_config,
    policy_for_env,
    policy_heads,
    append_metrics,
    ppo_update,
    prepare_batch,
    read_curve,
    run_episode,
    run_episodes,
    start_fresh,
    train,
    _heads,
    _policy_loss_grads,
)


PUSH = default_config("push")


def small_cfg(**overrides):
    kw = dict(batch_size=256, minibatch_size=128, ppo_epochs=2)
    kw.update(overrides)
    return default_train_config("push", **kw)


def make_setup(seed=11, n_envs=2, task="push", **cfg_overrides):
    rng = np.random.default_rng(seed)
    envs = [make_env(default_config(task)) for _ in range(n_envs)]
    for env, ss in zip(envs, np.random.SeedSequence(seed).spawn(n_envs)):
        env.reset(seed=ss)
    cfg = small_cfg(**cfg_overrides) if task == "push" else \
        default_train_config(task, batch_size=256, minibatch_size=128, ppo_epochs=2)
    params = policy_for_env(envs[0], rng)
    return rng, envs, params, cfg


def test_policy_for_env_shapes_and_count():
    """Three networks sized by the env, heads at the task's log-stds, and a
    parameter count summing every layer of the three."""
    env = make_env(default_config("push"))
    p = policy_for_env(env, np.random.default_rng(13), control_log_std=-0.5)
    nets = {"designer": (env.design_input_dim, *HIDDEN, env.design_action_dim),
            "controller": (env.control_input_dim, *HIDDEN,
                           env.control_action_dim),
            "value": (env.value_input_dim, *HIDDEN, 1)}
    for name, sizes in nets.items():
        assert getattr(p, name).sizes == sizes, name
    assert np.all(p.designer_head.log_std == -2.3)
    assert np.all(p.controller_head.log_std == -0.5)

    def net_scalars(sizes):
        return sum(sizes[i + 1] * sizes[i] + sizes[i + 1]
                   for i in range(len(sizes) - 1))
    assert param_count(p) == sum(net_scalars(s) for s in nets.values())


def collect_and_prepare(envs, params, cfg, rng):
    art = Artifact(envs[0].task_name, params)
    trajs = collect_batch(envs, art, cfg, rng)
    return prepare_batch(trajs, cfg, art.columns(envs[0]))


def all_params(params):
    arrs = list(params.trainable()) + list(parameters(params.value))
    return [a.copy() for a in arrs]


def params_equal(params, snapshot) -> bool:
    arrs = list(params.trainable()) + list(parameters(params.value))
    return all(np.array_equal(a, b) for a, b in zip(arrs, snapshot))


# ---------------------------------------------------------------------------
# GAE
# ---------------------------------------------------------------------------

def gae_reference(rewards, values, gamma, lam):
    """Direct double-sum evaluation of the advantage recursion over one
    whole episode, with a zero value after the last step."""
    T = len(rewards)
    v = list(values) + [0.0]
    deltas = [rewards[t] + gamma * v[t + 1] - v[t] for t in range(T)]
    adv = []
    for t in range(T):
        total, weight = 0.0, 1.0
        for k in range(t, T):
            total += weight * deltas[k]
            weight *= gamma * lam
        adv.append(total)
    return np.array(adv)


def test_gae_two_step_example():
    adv, ret = compute_gae([1.0, 1.0], [0.0, 0.0], 0.5, 0.5)
    assert adv[0] == pytest.approx(1.25, abs=0)
    assert adv[1] == pytest.approx(1.0, abs=0)
    assert np.array_equal(ret, adv)


def test_gae_lambda_one_gamma_one_telescopes():
    rng = np.random.default_rng(3)
    rewards = rng.standard_normal(40)
    values = rng.standard_normal(40)
    adv, ret = compute_gae(rewards, values, 1.0, 1.0)
    tail = np.cumsum(rewards[::-1])[::-1]
    assert np.allclose(adv, tail - values, atol=1e-12)
    assert np.allclose(ret, tail, atol=1e-12)


finite = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def gae_cases(draw):
    T = draw(st.integers(1, 40))
    rewards = draw(st.lists(finite, min_size=T, max_size=T))
    values = draw(st.lists(finite, min_size=T, max_size=T))
    return (np.array(rewards), np.array(values),
            draw(st.floats(0.0, 1.0, exclude_min=True)),
            draw(st.floats(0.0, 1.0, exclude_min=True)))


@settings(max_examples=200)
@given(gae_cases())
def test_gae_matches_reference(case):
    """Any episode length, any gamma and lambda in (0, 1]: the backward
    fold equals the direct double sum."""
    rewards, values, gamma, lam = case
    adv, ret = compute_gae(rewards, values, gamma, lam)
    expect = gae_reference(rewards, values, gamma, lam)
    assert np.allclose(adv, expect, rtol=0, atol=1e-10)
    assert np.allclose(ret, expect + values, rtol=0, atol=1e-10)


def test_gae_zero_rewards_zero_values():
    adv, ret = compute_gae(np.zeros(7), np.zeros(7), 0.99, 0.95)
    assert np.all(adv == 0.0)
    assert np.all(ret == 0.0)


def test_gae_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        compute_gae(np.zeros(5), np.zeros(6), 0.9, 0.9)
    with pytest.raises(ValueError):
        compute_gae(np.zeros(5), np.zeros(4), 0.9, 0.9)


def test_design_advantage_depends_on_control_rewards():
    rewards = np.array([0.5, 0.1, 0.1, 0.1, 2.0])
    values = np.zeros(5)
    adv_a, _ = compute_gae(rewards, values, 0.99, 0.95)
    bumped = rewards.copy()
    bumped[-1] += 1.0
    adv_b, _ = compute_gae(bumped, values, 0.99, 0.95)
    assert adv_b[0] > adv_a[0]
    assert adv_b[0] - adv_a[0] == pytest.approx((0.99 * 0.95) ** 4, rel=1e-12)


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=10, minibatch_size=20)
    with pytest.raises(ValueError):
        TrainConfig(kl_threshold=0.0)
    with pytest.raises(ValueError):
        TrainConfig(gamma=1.5)
    with pytest.raises(ValueError):
        TrainConfig(gae_lambda=0.0)


def test_task_train_configs():
    push = default_train_config("push")
    assert push.kl_threshold == 0.005 and push.value_lr == 1e-4
    catch = default_train_config("catch")
    assert catch.kl_threshold == 0.002 and catch.value_lr == 1e-4
    scoop = default_train_config("scoop")
    assert scoop.kl_threshold == 0.1 and scoop.value_lr == 3e-4
    paper = default_train_config("push", scale="paper")
    assert paper.batch_size == 50_000 and paper.minibatch_size == 2_000
    assert paper.policy_lr == 2e-5 and paper.ppo_epochs == 10
    with pytest.raises(ValueError):
        default_train_config("juggle")
    with pytest.raises(ValueError):
        default_train_config("push", scale="warehouse")


def test_task_policy_heads_are_fixed_with_published_stds():
    rng, envs, params, _ = make_setup(task="push")
    heads = (params.designer_head.log_std, params.controller_head.log_std)
    assert all(a is not h for a in params.trainable() for h in heads)
    assert np.all(params.designer_head.log_std == -2.3)
    assert np.all(params.controller_head.log_std == -1.0)
    _, _, params, _ = make_setup(task="catch")
    assert np.all(params.designer_head.log_std == 0.0)
    assert np.all(params.controller_head.log_std == 0.0)


def test_policy_heads_apply_overrides_and_reject_unknown_keys():
    env = make_env(default_config("catch"))
    design, control = policy_heads(env, design_log_std=-1.2)
    assert np.array_equal(design.log_std, np.full(env.design_action_dim, -1.2))
    assert np.array_equal(control.log_std, np.zeros(env.control_action_dim))
    with pytest.raises(ValueError, match="design_std"):
        policy_heads(env, design_std=-1.2)


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------

def test_collect_batch_structure():
    rng, envs, params, cfg = make_setup()
    trajs = collect_batch(envs, Artifact("push", params), cfg, rng)
    steps = sum(t.length for t in trajs)
    assert steps >= cfg.batch_size
    for t in trajs:
        assert t.rewards.size == 1 + t.control_actions.shape[0]
        assert t.value_inputs.shape == (t.rewards.size,
                                        envs[0].value_input_dim)
        assert t.values.size == t.rewards.size
        assert np.all(np.isfinite(t.rewards))
        assert t.design_action.shape == (5,)


def test_collect_batch_featurizes_each_step_once(monkeypatch):
    """One value_inputs call per lockstep step gives every stepped env's
    row; no env is featurized a second time, one by one."""
    rows = []
    value_inputs = ppo.value_inputs

    def counted(envs):
        rows.extend(envs)
        return value_inputs(envs)

    def forbidden(self):
        raise AssertionError("collect_batch featurized a step a second time")

    monkeypatch.setattr(ppo, "value_inputs", counted)
    monkeypatch.setattr(ToolTaskEnv, "value_input", forbidden)
    monkeypatch.setattr(ToolTaskEnv, "design_input", forbidden)
    monkeypatch.setattr(ToolTaskEnv, "control_input", forbidden)
    rng, envs, params, cfg = make_setup()
    trajs = collect_batch(envs, Artifact("push", params), cfg, rng)
    assert len(rows) == sum(t.length for t in trajs)


def test_collect_batch_deterministic():
    rng1, envs1, params1, cfg = make_setup()
    rng2, envs2, params2, _ = make_setup()
    t1 = collect_batch(envs1, Artifact("push", params1), cfg, rng1)
    t2 = collect_batch(envs2, Artifact("push", params2), cfg, rng2)
    assert len(t1) == len(t2)
    for x, y in zip(t1, t2):
        assert np.array_equal(x.rewards, y.rewards)
        assert np.array_equal(x.design_action, y.design_action)
        assert np.array_equal(x.control_actions, y.control_actions)
        assert np.array_equal(x.design, y.design)


def test_scoop_collect_batch_equals_worlds_stepped_one_at_a_time(monkeypatch):
    """collect_batch steps its scoop envs' worlds together, settles and all;
    the trajectories are bitwise those of a run that steps each world alone.
    That run hands the task the worlds' own contact rows, numbered as one
    pass numbers them: circle i of world e is e * N + i."""
    def collect():
        rng, envs, params, _ = make_setup(seed=5, task="scoop")
        cfg = default_train_config("scoop", batch_size=64, minibatch_size=32)
        return collect_batch(envs, Artifact("scoop", params), cfg, rng)

    together = collect()
    step = World.step

    def one_at_a_time(self, *others):
        worlds = (self,) + others
        for w in worlds:
            step(w)
        n = self.num_circles
        own = [(w.contacts, w.contacts.surfaces, e * n) for e, w in enumerate(worlds)]
        # every world's circle-surface rows, then every world's circle-circle rows
        a, b, is_tool = (np.concatenate(part) for part in zip(
            *[(c.a[:m] + off, c.b[:m], c.is_tool[:m]) for c, m, off in own],
            *[(c.a[m:] + off, c.b[m:] + off, c.is_tool[m:]) for c, m, off in own]))
        contacts = ContactBatch(sum(m for _, m, _ in own), a, b, is_tool)
        return stacked_state(worlds)._replace(contacts=contacts)

    monkeypatch.setattr(World, "step", one_at_a_time)
    alone = collect()
    assert len(together) == len(alone) == 4
    for x, y in zip(together, alone):
        for name in ("design_action", "design_logp", "control_actions",
                     "control_logps", "value_inputs", "rewards", "values",
                     "design", "success", "d_used", "mean_c_used"):
            assert np.array_equal(getattr(x, name), getattr(y, name)), name


def test_trajectory_rejects_nonfinite_rewards():
    with pytest.raises(ValueError):
        Trajectory(
            design_action=np.zeros(5), design_logp=0.0,
            control_actions=np.zeros((1, 2)), control_logps=np.zeros(1),
            value_inputs=np.zeros((2, 5)),
            rewards=np.array([0.0, np.nan]), values=np.zeros(2),
            design=np.zeros(5), success=0.0, d_used=0.0, mean_c_used=0.0)


def test_goal_sampler_overrides_goals():
    rng, envs, params, cfg = make_setup()
    fixed_goal = np.array([5.0, 12.0])

    def sampler(env, sampler_rng):
        return fixed_goal

    trajs = collect_batch(envs, Artifact("push", params), cfg, rng,
                          goal_sampler=sampler)
    for env in envs:
        assert np.array_equal(env.goal, fixed_goal)
    assert len(trajs) >= 1


def test_prepare_batch_normalizes_advantages_jointly():
    rng, envs, params, cfg = make_setup()
    batch = collect_and_prepare(envs, params, cfg, rng)
    alladv = np.concatenate([batch.design_adv, batch.control_adv])
    assert abs(alladv.mean()) < 1e-10
    assert abs(alladv.std() - 1.0) < 1e-10
    assert batch.num_rows == batch.design_adv.size + batch.control_adv.size
    assert batch.value_inputs.shape[0] == batch.returns.size == batch.num_rows


def test_prepare_batch_row_alignment():
    """Value rows must line up with policy rows: designs first, then controls."""
    rng, envs, params, cfg = make_setup()
    art = Artifact("push", params)
    trajs = collect_batch(envs, art, cfg, rng)
    batch = prepare_batch(trajs, cfg, art.columns(envs[0]))
    nd = batch.num_design
    assert nd == len(trajs)
    phase_flag = batch.value_inputs[:, 0]
    assert np.all(phase_flag[:nd] == 0.0)
    assert np.all(phase_flag[nd:] == 1.0)
    assert batch.control_adv.size == batch.num_rows - nd


def test_heads_read_their_columns_of_the_value_rows():
    """Each head's inputs are its columns of its value rows, in C order (the
    layout decides the matmul rounding), for every way a policy reads."""
    from toolsmith.baselines import constant_designer_policy, shared_policy
    rng, envs, separate, cfg = make_setup()
    for params in (separate, constant_designer_policy(envs[0], rng),
                   shared_policy(envs[0], rng)):
        art = Artifact("push", params)
        trajs = collect_batch(envs, art, cfg, rng)
        design_cols, control_cols = art.columns(envs[0])
        batch = prepare_batch(trajs, cfg, (design_cols, control_cols))
        (_, _, X_d, *_), (_, _, X_c, *_) = _heads(params, batch)
        expect_d = np.stack([t.value_inputs[0] for t in trajs])[:, design_cols]
        expect_c = np.concatenate([t.value_inputs[1:] for t in trajs])
        assert np.array_equal(X_d, expect_d)
        assert np.array_equal(X_c, expect_c[:, control_cols])
        assert X_d.flags.c_contiguous and X_c.flags.c_contiguous


# ---------------------------------------------------------------------------
# Updates
# ---------------------------------------------------------------------------

def test_surrogate_clipping_zeroes_gradient():
    rng = np.random.default_rng(5)
    net = init_network((3, 8, 2), rng)
    head = GaussianHead(np.zeros(2))
    X = rng.standard_normal((4, 3))
    acts = forward(net, X) + 0.1
    logp = gaussian_logprob(head, forward(net, X), acts)

    # old logp shifted so the ratio exp(+0.5) > 1.2 lands in the clipped band
    obj, grads = _policy_loss_grads(
        net, head, X, acts, logp - 0.5, np.ones(4), 0.2, 4)
    assert obj == pytest.approx(1.2, rel=1e-12)
    assert all(np.all(g == 0.0) for g in grads)

    # unshifted ratio 1 stays unclipped and drives a nonzero gradient
    obj2, grads2 = _policy_loss_grads(
        net, head, X, acts, logp, np.ones(4), 0.2, 4)
    assert obj2 == pytest.approx(1.0, rel=1e-12)
    assert any(np.any(g != 0.0) for g in grads2)


def test_surrogate_negative_advantage_keeps_gradient_when_ratio_high():
    """With adv < 0 and ratio above the band, min picks the unclipped branch."""
    rng = np.random.default_rng(6)
    net = init_network((3, 8, 2), rng)
    head = GaussianHead(np.zeros(2))
    X = rng.standard_normal((3, 3))
    acts = forward(net, X) + 0.2
    logp = gaussian_logprob(head, forward(net, X), acts)
    obj, grads = _policy_loss_grads(
        net, head, X, acts, logp - 0.5, -np.ones(3), 0.2, 3)
    rho = math.exp(0.5)
    assert obj == pytest.approx(-rho, rel=1e-12)
    assert any(np.any(g != 0.0) for g in grads)


def test_identity_update_zero_lr_keeps_kl_zero():
    rng, envs, params, _ = make_setup()
    cfg = small_cfg(policy_lr=0.0, value_lr=0.0, ppo_epochs=3,
                    kl_threshold=10.0)
    batch = collect_and_prepare(envs, params, cfg, rng)
    params, stats = ppo_update(params, batch, cfg, Optimizers(params, cfg),
                               np.random.default_rng(0))
    assert abs(stats["approx_kl"]) < 1e-15
    assert stats["epochs_run"] == 3


def test_zero_advantages_leave_policy_untouched():
    rng, envs, params, cfg = make_setup()
    cfg = small_cfg(entropy_beta=0.0, ppo_epochs=2, kl_threshold=10.0)
    batch = collect_and_prepare(envs, params, cfg, rng)
    batch.design_adv[...] = 0.0
    batch.control_adv[...] = 0.0
    pol_before = [a.copy() for a in params.trainable()]
    val_before = [a.copy() for a in parameters(params.value)]
    params, stats = ppo_update(params, batch, cfg, Optimizers(params, cfg),
                               np.random.default_rng(0))
    assert all(np.array_equal(a, b) for a, b in zip(params.trainable(), pol_before))
    assert not all(np.array_equal(a, b)
                   for a, b in zip(parameters(params.value), val_before))
    assert abs(stats["approx_kl"]) < 1e-15


def test_kl_early_stop_keeps_epoch_boundary_params():
    rng, envs, params, cfg = make_setup()
    batch = collect_and_prepare(envs, params, cfg, rng)

    tight = small_cfg(policy_lr=3e-3, ppo_epochs=6, kl_threshold=1e-7)
    p1 = clone_params(params)
    p1, s1 = ppo_update(p1, batch, tight, Optimizers(p1, tight),
                        np.random.default_rng(9))
    assert s1["epochs_run"] < 6
    assert s1["approx_kl"] > tight.kl_threshold

    unbounded = small_cfg(policy_lr=3e-3, ppo_epochs=s1["epochs_run"],
                          kl_threshold=1e9)
    p2 = clone_params(params)
    p2, s2 = ppo_update(p2, batch, unbounded, Optimizers(p2, unbounded),
                        np.random.default_rng(9))
    assert s2["epochs_run"] == s1["epochs_run"]
    assert params_equal(p1, all_params(p2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_loss_restores_params_and_optimizer():
    rng, envs, params, cfg = make_setup()
    batch = collect_and_prepare(envs, params, cfg, rng)
    batch.design_adv[0] = np.inf
    opt = Optimizers(params, cfg)
    before = all_params(params)
    params, stats = ppo_update(params, batch, cfg, opt, np.random.default_rng(0))
    assert stats["aborted"]
    assert params_equal(params, before)
    assert opt.policy.t == 0 and opt.value.t == 0


def test_update_reduces_value_loss():
    rng, envs, params, cfg = make_setup()
    cfg = small_cfg(value_lr=1e-4, ppo_epochs=1, kl_threshold=10.0)
    batch = collect_and_prepare(envs, params, cfg, rng)

    def value_loss():
        err = forward(params.value, batch.value_inputs)[:, 0] - batch.returns
        return float(err @ err) / err.size

    before = value_loss()
    params, _ = ppo_update(params, batch, cfg, Optimizers(params, cfg),
                           np.random.default_rng(0))
    assert value_loss() < before


def test_update_routes_design_rows_to_designer_head():
    """Batches with identical control rows but different design advantages
    must move the designer net differently while the controller matches."""
    rng, envs, params, cfg = make_setup()
    cfg = small_cfg(entropy_beta=0.0, ppo_epochs=1, kl_threshold=10.0,
                    policy_lr=1e-3)
    batch = collect_and_prepare(envs, params, cfg, rng)

    variants = []
    for sign in (1.0, -1.0):
        p = clone_params(params)
        b_adv = batch.design_adv.copy()
        saved = batch.design_adv
        batch.design_adv = sign * np.abs(b_adv) + 1.0
        p, _ = ppo_update(p, batch, cfg, Optimizers(p, cfg),
                          np.random.default_rng(1))
        batch.design_adv = saved
        variants.append(p)
    a, b = variants
    assert not all(np.array_equal(x, y) for x, y in
                   zip(parameters(a.designer), parameters(b.designer)))
    assert all(np.array_equal(x, y) for x, y in
               zip(parameters(a.controller), parameters(b.controller)))


def update_outcome(params, batch, cfg, seed=0):
    """ppo_update on a copy of params: its arrays, both optimizers' state
    and the stats, as one value whose repr holds every bit."""
    p = clone_params(params)
    opt = Optimizers(p, cfg)
    _, stats = ppo_update(p, batch, cfg, opt, np.random.default_rng(seed))
    return all_params(p), opt.state(), stats


def same_bits(x, y) -> bool:
    """Whether two nests of dicts, lists, arrays and numbers match bitwise."""
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(same_bits(x[k], y[k]) for k in x)
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(same_bits(a, b) for a, b in zip(x, y))
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and x.shape == y.shape \
            and x.tobytes() == y.tobytes()
    return type(x) is type(y) and repr(x) == repr(y)


@pytest.mark.parametrize("value_first", [True, False],
                         ids=["value-half-first", "policy-half-first"])
def test_update_bits_do_not_depend_on_which_half_finishes_first(
        monkeypatch, value_first):
    """Each epoch's value half is made to finish before its policy half
    starts, or to start only after the policy half (and its KL pass) ends;
    either way the params, both Adam states and the stats are bitwise those
    of an unforced update."""
    rng, envs, params, _ = make_setup()
    cfg = small_cfg(policy_lr=1e-3, ppo_epochs=3, kl_threshold=10.0)
    batch = collect_and_prepare(envs, params, cfg, rng)
    unforced = update_outcome(params, batch, cfg)

    finished = threading.Semaphore(0)
    order, value_threads = [], set()

    def runs_first(fn, name):
        def run(*args):
            out = fn(*args)
            order.append(name)
            finished.release()
            return out
        return run

    def runs_second(fn, name):
        def run(*args):
            assert finished.acquire(timeout=60)
            order.append(name)
            return fn(*args)
        return run

    def on_worker(fn):
        def run(*args):
            value_threads.add(threading.get_ident())
            return fn(*args)
        return run

    value_half = on_worker(ppo._value_epoch)
    if value_first:
        value_half = runs_first(value_half, "value")
        policy_half = runs_second(ppo._policy_epoch, "policy")
    else:
        value_half = runs_second(value_half, "value")
        policy_half = runs_first(ppo._mean_kl, "policy")
    monkeypatch.setattr(ppo, "_value_epoch", value_half)
    monkeypatch.setattr(ppo, "_policy_epoch" if value_first else "_mean_kl",
                        policy_half)
    forced = update_outcome(params, batch, cfg)

    first, second = ("value", "policy") if value_first else ("policy", "value")
    assert order == [first, second] * 3
    assert value_threads and threading.get_ident() not in value_threads
    assert forced[2]["epochs_run"] == 3
    assert same_bits(forced, unforced)


def test_concurrent_updates_under_a_short_switch_interval_keep_the_bits():
    """Three updates at once, each with its own worker (six threads on any
    core count), switching threads every microsecond: each update's params,
    Adam states and stats are bitwise those of one update run alone."""
    rng, envs, params, _ = make_setup()
    cfg = small_cfg(policy_lr=1e-3, ppo_epochs=2, kl_threshold=10.0)
    batch = collect_and_prepare(envs, params, cfg, rng)
    alone = update_outcome(params, batch, cfg)
    outcomes = [None] * 3

    def run(i):
        outcomes[i] = update_outcome(params, batch, cfg)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(same_bits(outcome, alone) for outcome in outcomes)


# one minibatch per epoch of a small_cfg batch, for aborts after an epoch
WHOLE_BATCH = dict(batch_size=4096, minibatch_size=4096)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("field,overrides,epochs_before", [
    ("returns", {}, 0),
    ("design_adv", {}, 0),
    (None, dict(WHOLE_BATCH, value_lr=1e300), 1),
    (None, dict(WHOLE_BATCH, policy_lr=1e300), 1),
], ids=["value-loss", "policy-loss", "value-loss-second-epoch", "kl"])
def test_nonfinite_update_aborts_with_its_last_whole_epochs_stats(
        field, overrides, epochs_before):
    """A non-finite value loss, policy loss or KL aborts the update: params
    and both optimizers are restored bitwise, the stats are those of the
    epochs before it (what an update of that many epochs returns; for the
    KL, that epoch's own), and the worker thread is gone."""
    rng, envs, params, _ = make_setup()
    batch = collect_and_prepare(envs, params, small_cfg(), rng)
    cfg = small_cfg(ppo_epochs=3, kl_threshold=10.0, **overrides)
    if field is not None:
        getattr(batch, field)[0] = np.inf
    if epochs_before:
        shorter = small_cfg(ppo_epochs=epochs_before, kl_threshold=10.0,
                            **overrides)
        expected = dict(update_outcome(params, batch, shorter)[2],
                        aborted=True)
    else:
        expected = {"approx_kl": 0.0, "entropy": 0.5 * (
            gaussian_entropy(params.designer_head)
            + gaussian_entropy(params.controller_head)), "epochs_run": 0,
            "policy_loss": 0.0, "value_loss": 0.0, "aborted": True}
    opt = Optimizers(params, cfg)
    before, opt_before = all_params(params), opt.state()
    threads = threading.active_count()
    params, stats = ppo_update(params, batch, cfg, opt,
                               np.random.default_rng(0))
    assert threading.active_count() == threads
    assert same_bits(stats, expected)
    assert params_equal(params, before)
    assert same_bits(opt.state(), opt_before)
    assert opt.policy.t == 0 and opt.value.t == 0


def test_an_error_in_the_value_half_propagates():
    rng, envs, params, cfg = make_setup()
    batch = collect_and_prepare(envs, params, cfg, rng)
    opt = Optimizers(params, cfg)

    def fail(grads):
        raise RuntimeError("value step failed")

    opt.step_value = fail
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="value step failed"):
        ppo_update(params, batch, cfg, opt, np.random.default_rng(0))
    assert threading.active_count() == threads


def test_update_refuses_a_value_net_that_shares_a_policy_array():
    """The value half runs beside the policy half only because they write
    no common array; a bundle that breaks this is refused before anything
    is written or drawn."""
    rng, envs, params, cfg = make_setup()
    batch = collect_and_prepare(envs, params, cfg, rng)
    params.value.weights[1] = params.controller.weights[1]
    opt = Optimizers(params, cfg)
    before, opt_before = all_params(params), opt.state()
    update_rng = np.random.default_rng(0)
    rng_before = update_rng.bit_generator.state
    with pytest.raises(ValueError, match="shares an array"):
        ppo_update(params, batch, cfg, opt, update_rng)
    assert params_equal(params, before)
    assert same_bits(opt.state(), opt_before)
    assert update_rng.bit_generator.state == rng_before


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def test_train_single_batch_when_total_below_batch_size(tmp_path):
    cfg = small_cfg()
    out = train(PUSH, cfg, total_steps=1, out_dir=tmp_path / "run",
                seed=5, n_envs=2)
    assert out["batches"] == 1
    assert out["env_steps"] >= cfg.batch_size
    with open(out["metrics_path"], encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == ",".join(METRICS_HEADER)
    assert lines[0] == "env_steps,mean_return,success_rate,approx_kl,entropy,mean_d_used,mean_c_used"
    assert len(lines) == 2
    with open(tmp_path / "run" / "design_means.csv", encoding="utf-8") as fh:
        means_lines = fh.read().strip().splitlines()
    assert means_lines[0] == ",".join(DESIGN_MEANS_HEADER)
    state = load_checkpoint(out["checkpoint_path"])
    assert state["env_steps"] == out["env_steps"]
    assert state["param_count"] == out["param_count"]


def test_train_rerun_is_byte_identical(tmp_path):
    cfg = small_cfg()
    train(PUSH, cfg, total_steps=300, out_dir=tmp_path / "a", seed=3, n_envs=2)
    train(PUSH, cfg, total_steps=300, out_dir=tmp_path / "b", seed=3, n_envs=2)
    for name in ("metrics.csv", "design_means.csv", "checkpoint.json"):
        wa = (tmp_path / "a" / name).read_bytes()
        wb = (tmp_path / "b" / name).read_bytes()
        assert wa == wb, name


def test_train_resume_matches_straight_run(tmp_path):
    cfg = small_cfg()
    train(PUSH, cfg, total_steps=600, out_dir=tmp_path / "a", seed=3, n_envs=2)
    train(PUSH, cfg, total_steps=1, out_dir=tmp_path / "c", seed=3, n_envs=2)
    train(PUSH, cfg, total_steps=600, out_dir=tmp_path / "c", seed=3, n_envs=2,
          resume=True)
    assert (tmp_path / "a" / "checkpoint.json").read_bytes() == \
        (tmp_path / "c" / "checkpoint.json").read_bytes()
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "c" / "metrics.csv").read_bytes()


def test_train_resume_drops_rows_logged_after_the_checkpoint(tmp_path):
    """A run killed after logging a batch past its last checkpoint resumes
    to the straight run's bytes instead of repeating that batch's rows."""
    cfg = small_cfg()
    train(PUSH, cfg, total_steps=1500, out_dir=tmp_path / "a", seed=3, n_envs=2)
    with open(tmp_path / "a" / "metrics.csv", encoding="utf-8") as fh:
        steps = [int(line.split(",")[0]) for line in fh.read().splitlines()[1:]]
    assert len(steps) >= 3
    # c stops at batch 2; k logs batch 3, then is left with c's checkpoint
    train(PUSH, cfg, total_steps=steps[1], out_dir=tmp_path / "c", seed=3,
          n_envs=2)
    train(PUSH, cfg, total_steps=steps[2], out_dir=tmp_path / "k", seed=3,
          n_envs=2)
    shutil.copy(tmp_path / "c" / "checkpoint.json", tmp_path / "k")
    train(PUSH, cfg, total_steps=1500, out_dir=tmp_path / "k", seed=3,
          n_envs=2, resume=True)
    for name in ("metrics.csv", "design_means.csv", "checkpoint.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "k" / name).read_bytes(), name


def test_train_resume_drops_a_torn_last_row(tmp_path):
    """A kill partway through appending a row leaves a fragment; resume
    drops it, so the curves match the straight run's bytes."""
    cfg = small_cfg()
    train(PUSH, cfg, total_steps=600, out_dir=tmp_path / "a", seed=3, n_envs=2)
    train(PUSH, cfg, total_steps=1, out_dir=tmp_path / "c", seed=3, n_envs=2)
    for name, fragment in (("metrics.csv", "6"), ("design_means.csv", "6,1.5")):
        with open(tmp_path / "c" / name, "a", encoding="utf-8") as fh:
            fh.write(fragment)
    train(PUSH, cfg, total_steps=600, out_dir=tmp_path / "c", seed=3, n_envs=2,
          resume=True)
    for name in ("metrics.csv", "design_means.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "c" / name).read_bytes(), name


def test_train_resume_rejects_config_change(tmp_path):
    cfg = small_cfg()
    train(PUSH, cfg, total_steps=1, out_dir=tmp_path / "r", seed=3, n_envs=2)
    other = small_cfg(gamma=0.9)
    with pytest.raises(ValueError):
        train(PUSH, other, total_steps=600, out_dir=tmp_path / "r", seed=3,
              n_envs=2, resume=True)


def test_killed_fresh_train_leaves_no_file_of_the_run_before(tmp_path,
                                                            monkeypatch):
    """A fresh run into a used out_dir that dies in its first round leaves
    none of the earlier run's files, so no other seed's checkpoint is left
    to be scored under the new run's manifest."""
    cfg = small_cfg(batch_size=64, minibatch_size=32)
    train(PUSH, cfg, total_steps=1, out_dir=tmp_path, seed=0, n_envs=2)
    assert sorted(os.listdir(tmp_path)) == \
        ["checkpoint.json", "design_means.csv", "metrics.csv"]

    def killed(*args, **kwargs):
        raise RuntimeError("killed")

    monkeypatch.setattr(ppo, "train_round", killed)
    with pytest.raises(RuntimeError, match="killed"):
        train(PUSH, cfg, total_steps=1, out_dir=tmp_path, seed=1, n_envs=2)
    assert os.listdir(tmp_path) == []


def test_start_fresh_removes_only_the_run_files(tmp_path):
    for name in RUN_FILES + ("manifest.json",):
        (tmp_path / name).write_text("x")
    start_fresh(tmp_path)
    assert os.listdir(tmp_path) == ["manifest.json"]
    start_fresh(tmp_path / "new")
    assert os.listdir(tmp_path / "new") == []


# One metrics.csv row as train wrote it, for batch and update statistics,
# and one as cma_search wrote it, before append_metrics formatted both.
METRICS_HEADER_LINE = \
    b"env_steps,mean_return,success_rate,approx_kl,entropy,mean_d_used," \
    b"mean_c_used\r\n"
TRAIN_ROW = \
    b"4832,-0.231082,0.062500,-0.00002516,-1.783715,6.000000,4.200000\r\n"
CMA_ROW = b"2416,-0.125514,0.250000,0.00000000,0.000000,5.500000,12.345679\r\n"


def append_train_and_cma_rows(path) -> None:
    append_metrics(path, env_steps=4832, mean_return=np.float64(-0.2310824999),
                   success_rate=0.0625, approx_kl=np.float64(-2.51620049e-05),
                   entropy=np.float64(-1.78371485),
                   mean_d_used=np.float64(6.0),
                   mean_c_used=np.float64(4.20000049))
    append_metrics(path, env_steps=2416,
                   mean_return=np.array([0.1234567, -0.5, 0.00000049]).mean(),
                   success_rate=0.25, approx_kl=0.0, entropy=0.0,
                   mean_d_used=5.5, mean_c_used=12.3456789)


def test_append_metrics_writes_the_frozen_row_bytes(tmp_path):
    """The header goes first into a new file, then each row in its columns'
    formats, byte for byte as train and cma_search wrote them."""
    path = tmp_path / "metrics.csv"
    append_train_and_cma_rows(path)
    assert path.read_bytes() == METRICS_HEADER_LINE + TRAIN_ROW + CMA_ROW


@pytest.mark.parametrize("torn", ["", "7248", "7248,-0.1",
                                  "7248,-0.1,0.0,0.0,0.0,1.0"],
                         ids=["none", "one-field", "two-fields", "six-fields"])
def test_read_curve_round_trips_rows_and_drops_a_torn_one(tmp_path, torn):
    """read_curve gives back every row append_metrics wrote, as its text
    fields, and drops a last row torn partway through writing it."""
    path = tmp_path / "metrics.csv"
    append_train_and_cma_rows(path)
    with open(path, "a", encoding="utf-8", newline="") as fh:
        fh.write(torn)
    assert read_curve(path) == [line.decode().rstrip().split(",")
                                for line in (TRAIN_ROW, CMA_ROW)]
    with pytest.raises(ValueError, match="metrics.csv"):
        read_curve(path, DESIGN_MEANS_HEADER)


# the keys of every checkpoint train writes; cma_rl adds fixed_design and
# fitness
TRAIN_KEYS = {"params", "optimizers", "rng_state", "env_rng_states",
              "env_steps", "config_hash", "task", "param_count"}


def param_bytes(params) -> list:
    return [a.tobytes() for net in (params.designer, params.controller,
                                    params.value)
            for a in net.weights + net.biases] \
        + [params.designer_head.log_std.tobytes(),
           params.controller_head.log_std.tobytes()]


@pytest.mark.parametrize("fixed", [False, True],
                         ids=["policy", "fixed-design"])
def test_checkpoint_record_round_trips_an_artifact(tmp_path, fixed):
    """checkpoint_record, save_checkpoint, load_checkpoint and
    artifact_from_record give back the artifact's task, params bytes and
    fixed design, bit for bit; the fixed design is stored as a JSON list."""
    rng, envs, params, cfg = make_setup()
    design = rng.normal(0.0, 0.3, 5) if fixed else None
    art = Artifact("push", params, fixed_design=design)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, checkpoint_record(art, Optimizers(params, cfg), rng,
                                            envs, 7, "abc"))
    back = artifact_from_record(load_checkpoint(path))
    assert (back.task, back.kind) == ("push", art.kind)
    assert param_bytes(back.params) == param_bytes(params)
    raw = json.loads(path.read_text(encoding="utf-8"))
    if fixed:
        assert set(raw) - {"version"} == TRAIN_KEYS | {"fixed_design"}
        expect = [float(x).hex() for x in design]
        assert [x.hex() for x in raw["fixed_design"]] == expect
        assert [float(x).hex() for x in back.fixed_design] == expect
    else:
        assert set(raw) - {"version"} == TRAIN_KEYS
        assert back.fixed_design is None


def test_train_and_cma_rl_checkpoints_keep_their_keys(tmp_path):
    """train's checkpoint holds no fixed_design; cma_rl's holds the best
    candidate's as a list of floats, and fitness."""
    from toolsmith.baselines import cma_rl
    out = train(PUSH, small_cfg(), total_steps=1, out_dir=tmp_path / "t",
                seed=2, n_envs=2)
    assert set(load_checkpoint(out["checkpoint_path"])) == TRAIN_KEYS
    out = cma_rl(PUSH, total_steps=1, out_dir=tmp_path / "c", n_envs=2,
                 seed=2, cfg=small_cfg(), population_size=3, inner_steps=0,
                 n_eval_goals=2)
    state = load_checkpoint(out["checkpoint_path"])
    assert set(state) == TRAIN_KEYS | {"fixed_design", "fitness"}
    assert isinstance(state["fixed_design"], list)
    back = artifact_from_record(state)
    assert back.kind == "fixed-design"
    assert [float(x).hex() for x in back.fixed_design] == \
        [float(x).hex() for x in out["best_design"]]


def test_run_episode_deterministic_eval():
    rng, envs, params, cfg = make_setup()
    env = envs[0]
    art = Artifact("push", params)
    a = run_episode(env, art, goal=np.array([8.0, 12.0]), seed=4)
    b = run_episode(env, art, goal=np.array([8.0, 12.0]), seed=4)
    assert a["return"] == b["return"]
    assert np.array_equal(a["design"], b["design"])
    assert a["steps"] == b["steps"]


LOCKSTEP_CONFIGS = {
    "push": PUSH,
    # not the default config: evaluate_plan must build its envs from env.cfg
    "push, tradeoff": default_config("push", tradeoff_k=2.0,
                                     tradeoff_alpha=0.3),
    "catch": default_config("catch"),
    "scoop, 3 steps": default_config("scoop", max_episode_steps=3),
}


def episode_bits(episode) -> tuple:
    return (episode["return"].hex(), episode["d_used"].hex(),
            episode["design"].tobytes(), episode["success"],
            episode["steps"], episode["mean_c_used"])


@settings(max_examples=24)
@given(st.sampled_from(sorted(LOCKSTEP_CONFIGS)), st.booleans(),
       st.lists(st.integers(0, 2**16), min_size=1, max_size=4, unique=True),
       st.integers(0, 2**16))
# four catch episodes that end at four different steps
@example("catch", True, [0, 1, 2, 3], 0)
@example("catch", False, [0, 1, 2, 3], 1)
def test_run_episodes_is_run_episode_of_each_env(name, plan, seeds,
                                                 data_seed):
    """Episodes run in lockstep are bitwise the ones each env runs alone, for
    an open-loop plan and a random policy, as envs finish at different
    steps; evaluate_plan, which runs its goals in lockstep, scores what
    evaluate_policy scores one goal at a time."""
    cfg = LOCKSTEP_CONFIGS[name]
    envs = [make_env(cfg) for _ in seeds]
    rng = np.random.default_rng(data_seed)
    goals = [envs[0].sample_goal(rng) for _ in seeds]
    if plan:
        design, controls = split_plan(
            envs[0], rng.normal(0.0, 0.5, plan_dim(envs[0])))
        art = Artifact(cfg.task, fixed_design=design, controls=controls)
    else:
        art = Artifact(cfg.task, policy_for_env(envs[0], rng))
    together = run_episodes(envs, art, goals, seeds)
    alone = [run_episode(make_env(cfg), art, goal=goal, seed=seed)
             for goal, seed in zip(goals, seeds)]
    assert [episode_bits(e) for e in together] == \
        [episode_bits(e) for e in alone]
    if plan:
        expect = evaluate_policy(envs[0], art, goals)
        del expect["episodes"]
        assert evaluate_plan(envs[0], design, controls, goals) == expect


def test_run_episodes_needs_one_goal_and_seed_per_env():
    envs = [make_env(PUSH) for _ in range(2)]
    art = Artifact("push", fixed_design=np.zeros(5),
                   controls=np.zeros((PUSH.max_episode_steps, 2)))
    for goals, seeds in (([None], [0, 1]), ([None, None], [0]),
                         ([None] * 3, [0, 1, 2])):
        with pytest.raises(ValueError, match="2 envs need as many"):
            run_episodes(envs, art, goals, seeds)
