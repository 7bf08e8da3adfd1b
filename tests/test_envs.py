import dataclasses
import math

import numpy as np
import pytest

from toolsmith.envs import (
    CONTROL,
    DESIGN,
    ProtocolError,
    TradeoffConfig,
    default_config,
    dump_task_config,
    make_env,
    reset_envs,
    step_controls,
    tradeoff_reward,
)
from toolsmith.envs.base import supported_by_tool
from toolsmith.geometry import build_tool
from toolsmith.physics2d import World

TASKS = ("push", "catch", "scoop")


def run_out(env, action):
    while not env.done:
        env.step_control(action)


# -- protocol ---------------------------------------------------------------

@pytest.mark.parametrize("task", TASKS)
def test_reset_starts_design_phase(task):
    env = make_env(task)
    assert env.reset(seed=0) is None
    assert env.phase == DESIGN and not env.done
    assert env.design is None
    assert (env.success, env.d_used, env.c_used) == (0.0, 0.0, 0.0)
    assert env.goal.shape == (env.goal_dim,)
    assert env._task_obs().shape == (env.task_obs_dim,)
    row = env.value_input()
    assert not row[1 + env.task_obs_dim:1 + env.task_obs_dim + 5].any()


@pytest.mark.parametrize("task", TASKS)
def test_design_step_switches_phase_and_echoes(task):
    env = make_env(task)
    env.reset(seed=0)
    u = np.full(5, 0.1)
    env.step_design(u)
    assert env.phase == CONTROL
    assert not env.done
    expected = env.space.realize(u)
    assert np.array_equal(env.design, expected)
    assert env.d_used == float(sum(expected[:3]))


def test_design_cannot_be_changed_through_its_getter():
    """env.design is read-only: writing into it raises, and neither the
    design nor the built tool changes."""
    env = make_env("push")
    env.reset(seed=0)
    env.step_design(np.full(5, 0.1))
    before = env.design.copy()
    tool = env.world.tool_geometry.segments.copy()
    with pytest.raises(ValueError):
        env.design[:] = 0.0
    with pytest.raises(ValueError):
        env.design[0] += 1.0
    assert np.array_equal(env.design, before)
    assert np.array_equal(env.world.tool_geometry.segments, tool)


def test_design_echo_constant_through_episode():
    env = make_env("push")
    env.reset(seed=0)
    env.step_design(np.full(5, 0.3))
    echo = env.control_input()[env.task_obs_dim:env.task_obs_dim + 5]
    for _ in range(5):
        env.step_control((1.0, 0.5))
        assert np.array_equal(
            env.control_input()[env.task_obs_dim:env.task_obs_dim + 5], echo)


def test_design_clamped_to_bounds():
    env = make_env("push")
    env.reset(seed=0)
    env.step_design(np.full(5, 99.0))
    high = env.space.high
    assert np.array_equal(env.design, high)
    assert np.allclose(high[:3], 3.0) and np.allclose(high[3:], math.pi / 2)


def test_control_before_design_raises():
    env = make_env("push")
    env.reset(seed=0)
    with pytest.raises(ProtocolError):
        env.step_control((0.0, 0.0))


def test_double_design_raises():
    env = make_env("push")
    env.reset(seed=0)
    env.step_design(np.zeros(5))
    with pytest.raises(ProtocolError):
        env.step_design(np.zeros(5))


def test_step_after_done_raises():
    env = make_env("push")
    env.reset(seed=0)
    env.step_design(np.zeros(5))
    run_out(env, (0.0, 0.0))
    assert env.done
    with pytest.raises(ProtocolError):
        env.step_control((0.0, 0.0))
    with pytest.raises(ProtocolError):
        env.step_design(np.zeros(5))
    env.reset(seed=1)
    env.step_design(np.zeros(5))
    env.step_control((0.0, 0.0))


def test_episode_truncates_at_budget():
    env = make_env("push")
    env.reset(seed=0)
    env.step_design(np.zeros(5))
    steps = 0
    while not env.done:
        env.step_control((0.0, 0.0))
        steps += 1
    assert steps == env.cfg.max_episode_steps == 150


# -- reward composition -----------------------------------------------------

def test_tradeoff_spec_examples():
    cfg = TradeoffConfig(k=1.0, alpha=0.3, d_max=1.0, c_max=1.0)
    assert tradeoff_reward(cfg, 0.5, 0.2) == pytest.approx(0.71, abs=1e-12)
    only_mat = TradeoffConfig(k=2.0, alpha=1.0, d_max=4.0, c_max=1.0)
    assert tradeoff_reward(only_mat, 1.0, 0.9) == pytest.approx(2.0 * 0.75, abs=1e-12)
    only_eff = TradeoffConfig(k=2.0, alpha=0.0, d_max=4.0, c_max=2.0)
    assert tradeoff_reward(only_eff, 3.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    off = TradeoffConfig(k=0.0, alpha=0.3, d_max=1.0, c_max=1.0)
    assert tradeoff_reward(off, 0.9, 0.9) == 0.0


def test_tradeoff_config_validation():
    with pytest.raises(ValueError):
        TradeoffConfig(k=-1.0, alpha=0.5, d_max=1.0, c_max=1.0)
    with pytest.raises(ValueError):
        TradeoffConfig(k=1.0, alpha=1.2, d_max=1.0, c_max=1.0)
    with pytest.raises(ValueError):
        TradeoffConfig(k=1.0, alpha=0.5, d_max=0.0, c_max=1.0)


def test_design_reward_is_tradeoff_only():
    env = make_env("push", tradeoff_k=2.0, tradeoff_alpha=0.4)
    env.reset(seed=0)
    reward = env.step_design(np.zeros(5))
    # init lengths (2,2,2) at zero ratio, d_max 9, no control used yet
    assert env.d_used == 6.0
    assert reward == 2.0 * (1.0 - (0.4 * (6.0 / 9.0) + 0.6 * 0.0))


def test_design_reward_zero_when_k_zero():
    env = make_env("push")
    env.reset(seed=0)
    assert env.step_design(np.full(5, 0.5)) == 0.0


def test_control_reward_composition():
    env = make_env("push", tradeoff_k=3.0, tradeoff_alpha=0.25)
    env.reset(goal=(8.0, 10.0), seed=0)
    env.step_design(np.zeros(5))
    # zero action: puck static, shaping is exactly 0, c_used is 0
    reward = env.step_control((0.0, 0.0))
    expected = 0.0 + -0.001 + 3.0 * (1.0 - (0.25 * (6.0 / 9.0) + 0.75 * 0.0))
    assert reward == expected


def test_slack_sum_exact():
    env = make_env("push")
    env.reset(goal=(8.0, 10.0), seed=0)
    env.step_design(np.zeros(5))
    rewards = []
    while not env.done:
        rewards.append(env.step_control((0.0, 0.0)))
    assert all(r == -0.001 for r in rewards)
    assert math.fsum(rewards) == pytest.approx(-0.15, abs=1e-12)


def test_k_zero_rewards_bitwise_alpha_independent():
    def episode(alpha):
        env = make_env("catch", tradeoff_alpha=alpha)
        env.reset(goal=(16.8, 18.2, 19.4, 16.0, 17.0, 16.5), seed=4)
        rs = [env.step_design(np.full(5, 0.2))]
        rng = np.random.default_rng(9)
        while not env.done:
            rs.append(env.step_control(rng.uniform(-2, 2, 1)))
        return np.asarray(rs)

    assert np.array_equal(episode(0.1), episode(0.9))


def test_c_used_is_clamped_norm():
    env = make_env("push")
    env.reset(seed=0)
    env.step_design(np.zeros(5))
    env.step_control((100.0, 0.0))
    assert env.c_used == 12.0
    env = make_env("scoop")
    env.reset(seed=0)
    env.step_design(np.zeros(5))
    env.step_control((10.0, 10.0, 10.0))
    assert env.c_used == 9.0


# -- push -------------------------------------------------------------------

def test_push_scripted_success_and_telescoping():
    env = make_env("push")
    goal = np.array([11.8, 10.0])
    env.reset(goal=goal, seed=1)
    env.step_design(np.zeros(5))
    total, steps = 0.0, 0
    d0 = env.world.pos[0][0] - goal[0]
    while not env.done:
        dist = env.world.pos[0][0] - goal[0]
        act = (-1.0, 0.0) if dist > 0.7 else (0.0, 0.0)
        total += env.step_control(act)
        steps += 1
    assert env.success == 1.0
    assert steps < env.cfg.max_episode_steps
    assert env._goal_dist() < 0.8
    expected = d0 - env._goal_dist() + 10.0 + steps * -0.001
    assert total == pytest.approx(expected, abs=1e-9)


def test_push_goal_validation():
    env = make_env("push")
    with pytest.raises(ValueError):
        env.reset(goal=(0.0, 10.0))
    with pytest.raises(ValueError):
        env.reset(goal=(5.0, 25.0))
    with pytest.raises(ValueError):
        env.reset(goal=(5.0,))
    with pytest.raises(ValueError):
        env.reset(goal=(np.nan, 10.0))


# -- catch ------------------------------------------------------------------

def test_catch_scripted_full_catch():
    env = make_env("catch")
    env.reset(goal=(16.8, 18.2, 19.4, 16.0, 17.0, 16.5), seed=0)
    env.step_design(np.zeros(5))
    total, steps = 0.0, 0
    while not env.done:
        total += env.step_control((0.0,))
        steps += 1
    assert env._caught.sum() == 3
    assert env.success == 1.0
    assert steps < env.cfg.max_episode_steps
    assert total == pytest.approx(3.0 + 10.0 + steps * -0.001, abs=1e-9)


def test_catch_missed_balls_lost():
    env = make_env("catch")
    env.reset(goal=(24.0, 25.0, 24.5, 16.0, 16.5, 17.0), seed=0)
    env.step_design(np.zeros(5))
    total, steps = 0.0, 0
    while not env.done:
        total += env.step_control((0.0,))
        steps += 1
    assert env._lost.sum() == 3 and env._caught.sum() == 0
    assert env.success == 0.0
    assert steps < env.cfg.max_episode_steps
    assert total == pytest.approx(steps * -0.001, abs=1e-9)


@pytest.mark.parametrize("substeps", [2, 5])
def test_catch_refuses_more_than_one_substep_per_control(substeps):
    """Catch scores the one substep of each control step after it, so any
    other substep count is refused rather than scored once per step."""
    with pytest.raises(ValueError, match="one per control step"):
        make_env("catch", control_steps_per_action=substeps)


def test_catch_goal_validation():
    env = make_env("catch")
    with pytest.raises(ValueError):
        env.reset(goal=np.zeros(5))
    with pytest.raises(ValueError):
        env.reset(goal=(5.0, 18.0, 19.0, 16.0, 17.0, 16.5))
    with pytest.raises(ValueError):
        env.reset(goal=(16.0, 18.0, 19.0, 30.0, 17.0, 16.5))


# -- scoop ------------------------------------------------------------------

def test_scoop_zero_policy_terminal_reward():
    env = make_env("scoop")
    env.reset(goal=(6.0,), seed=0)
    env.step_design(np.zeros(5))
    total, steps = 0.0, 0
    while not env.done:
        total += env.step_control((0.0, 0.0, 0.0))
        steps += 1
    assert steps == 30
    assert env._scooped_count() == 0
    assert env.success == 0.0
    assert total == pytest.approx((1.0 - 6.0 / 7.0) + 30 * -0.001, abs=1e-9)


def test_scoop_exact_match_bonus():
    env = make_env("scoop")
    env.reset(goal=(4.0,), seed=0)
    env.step_design(np.zeros(5))
    for _ in range(29):
        env.step_control((0.0, 0.0, 0.0))
    env._scooped_count = lambda: 4
    reward = env.step_control((0.0, 0.0, 0.0))
    assert env.done
    assert env.success == 1.0
    assert reward == pytest.approx(1.0 + 10.0 - 0.001, abs=1e-12)


def test_scoop_goal_validation():
    env = make_env("scoop")
    for bad in ((8.0,), (0.0,), (0.5,), (1.0, 2.0), (np.nan,)):
        with pytest.raises(ValueError):
            env.reset(goal=bad)
    for n in range(1, 8):
        env.reset(goal=(float(n),))


def test_supported_by_tool_is_transitive():
    w = World()
    tool = build_tool(np.array([2.0, 2.0, 2.0, 0.0, 0.0]), radius=0.1)
    w.set_tool(tool, (0.0, 8.0), angle=0.0)
    w.add_static_capsule((-10.0, 0.0), (10.0, 0.0))
    w.add_circle((3.0, 8.6), radius=0.5)       # on the tool
    w.add_circle((3.0, 9.6), radius=0.5)       # stacked on the first
    w.add_circle((-3.0, 0.6), radius=0.5)      # on the floor, away from tool
    for _ in range(120):
        w.step()
    held = supported_by_tool(w)
    assert held.tolist() == [True, True, False]


# -- determinism and goals ----------------------------------------------------

@pytest.mark.parametrize("task,act", [("push", (0.5, -0.3)), ("catch", (0.7,)),
                                      ("scoop", (0.5, -0.5, 0.2))])
def test_reset_seed_determinism(task, act):
    def rollout():
        env = make_env(task)
        env.reset(seed=42)
        env.step_design(np.full(5, 0.1))
        for _ in range(8):
            env.step_control(act)
        return env.value_input()

    assert np.array_equal(rollout(), rollout())


def test_different_seed_different_goal():
    env = make_env("push")
    env.reset(seed=1)
    g1 = env.goal
    env.reset(seed=2)
    g2 = env.goal
    assert not np.array_equal(g1, g2)


@pytest.mark.parametrize("task", TASKS)
def test_env_keeps_its_own_copy_of_the_goal(task):
    """Writing into the goal array passed to reset afterwards moves neither
    env.goal nor the goal columns of value_input."""
    env = make_env(task)
    goal = np.array(env.sample_goal(np.random.default_rng(0)), dtype=np.float64)
    env.reset(goal=goal, seed=0)
    kept, row = env.goal, env.value_input()
    goal += 1.0
    assert np.array_equal(env.goal, kept)
    assert np.array_equal(env.value_input(), row)


def test_reset_uses_provided_goal():
    env = make_env("push")
    env.reset(goal=(7.0, 9.0), seed=0)
    assert np.array_equal(env.goal, [7.0, 9.0])


def test_goal_sampling_ranges():
    rng = np.random.default_rng(0)
    push = make_env("push")
    for _ in range(200):
        g = push.sample_goal(rng)
        assert 4.0 <= g[0] <= 12.0 and 4.0 <= g[1] <= 16.0
    catch = make_env("catch")
    for _ in range(200):
        g = catch.sample_goal(rng)
        assert np.all(g[:3] >= 15.0) and np.all(g[:3] <= 25.0)
        assert np.all(g[3:] >= 16.0) and np.all(g[3:] <= 22.0)
    scoop = make_env("scoop")
    seen = set()
    for _ in range(200):
        g = scoop.sample_goal(rng)
        assert g.shape == (1,) and g[0] == int(g[0])
        seen.add(int(g[0]))
    assert seen == set(range(1, 8))


# -- featurization ------------------------------------------------------------

@pytest.mark.parametrize("task", TASKS)
def test_featurization_dims(task):
    env = make_env(task)
    env.reset(seed=0)
    assert env.design_input().shape == (env.design_input_dim,)
    assert env.control_input().shape == (env.control_input_dim,)
    assert env.value_input().shape == (env.value_input_dim,)
    assert env.value_input()[0] == 0.0
    env.step_design(np.zeros(5))
    assert env.value_input()[0] == 1.0


@pytest.mark.parametrize("task", TASKS)
def test_value_row_columns_are_the_per_phase_layouts(task):
    """design_columns pick [task, goal] at the design step and
    control_columns [task, echo ratio, goal] at every control step, bitwise,
    and both inputs are those columns of the value row."""
    env = make_env(task)
    env.reset(seed=3)
    rng = np.random.default_rng(3)

    def normalized():
        return ((env._task_obs() - env.task_center) / env.task_scale,
                (env.goal - env.goal_center) / env.goal_scale)

    row = env.value_input()
    expect = np.concatenate(normalized())
    assert np.array_equal(row[env.design_columns], expect)
    assert np.array_equal(env.design_input(), expect)
    env.step_design(rng.normal(scale=0.3, size=5))
    for _ in range(5):
        task_x, goal_x = normalized()
        expect = np.concatenate([task_x, env.space.ratio_of(env.design), goal_x])
        row = env.value_input()
        assert np.array_equal(row[env.control_columns], expect)
        assert np.array_equal(env.control_input(), expect)
        if env.done:
            break
        env.step_control(rng.normal(size=env.control_action_dim))


def test_control_input_echoes_design_in_ratio_space():
    env = make_env("push")
    env.reset(seed=0)
    u = np.array([0.2, -0.1, 0.3, 0.4, -0.25])
    env.step_design(u)
    feat = env.control_input()
    echo = feat[env.task_obs_dim:env.task_obs_dim + 5]
    assert np.allclose(echo, u, atol=1e-12)


# -- config files ---------------------------------------------------------------

@pytest.mark.parametrize("task", TASKS)
def test_config_round_trip(task):
    """The dumped text names every field once and reads back to its value."""
    cfg = default_config(task)
    lines = dump_task_config(cfg).splitlines()
    assert [line.split(" = ")[0] for line in lines] == \
        [f.name for f in dataclasses.fields(cfg)]
    for line in lines:
        key, text = line.split(" = ")
        value = getattr(cfg, key)
        if isinstance(value, tuple):
            assert tuple(float(x) for x in text.split(",")) == value
        else:
            assert type(value)(text) == value


def test_make_env_overrides_and_unknown_task():
    env = make_env("push", tradeoff_k=1.0)
    assert env.cfg.tradeoff_k == 1.0
    with pytest.raises(ValueError):
        default_config("juggle")


# -- batched stepping -----------------------------------------------------------

BATCH_GOALS = {
    "push": [(6.0, 8.0), (10.0, 14.0), (5.0, 5.0), (11.0, 6.0)],
    # balls over the tool, so streaks build up and balls get caught
    "catch": [(17.0, 18.0, 19.0, 16.0, 17.0, 18.0), (16.5, 18.5, 24.0, 17.0, 16.0, 20.0),
              (18.0, 18.4, 15.0, 16.0, 18.0, 22.0), (19.0, 17.0, 21.0, 21.0, 19.0, 17.0)],
    "scoop": [(3.0,), (1.0,), (7.0,), (4.0,)],
}


def batch_action(task, rng, t):
    if task == "scoop":  # dive into the tank, then lift
        base = (0.0, -6.0, 0.0) if t < 10 else (0.0, 5.0, 0.5)
        return np.asarray(base) + rng.normal(scale=0.5, size=3)
    scale = 0.3 if task == "catch" else 4.0
    return rng.normal(scale=scale, size=make_env(task).control_action_dim)


def assert_same_state(got, want):
    """Two envs read the same: value row and every public episode fact."""
    assert np.array_equal(got.value_input(), want.value_input())
    for name in ("phase", "done", "success", "d_used", "c_used"):
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("task", TASKS)
def test_step_controls_equals_stepping_each_env_alone(task):
    """step_controls over four envs gives each env what its own step_control
    gives: rewards and the state it leaves, with catch's per-substep
    catch streaks and the supported_by_tool masks scoop counts."""
    rng = np.random.default_rng(7)
    together = [make_env(task) for _ in range(4)]
    alone = [make_env(task) for _ in range(4)]
    for k, goal in enumerate(BATCH_GOALS[task]):
        design = rng.normal(scale=0.2, size=5)
        for env in (together[k], alone[k]):
            env.reset(goal=goal, seed=k)
            env.step_design(design)
    held = 0
    for t in range(200):
        live = [k for k in range(4) if not together[k].done]
        if not live:
            break
        actions = [batch_action(task, rng, t) for _ in live]
        got = step_controls([together[k] for k in live], actions)
        for k, a, reward in zip(live, actions, got):
            assert reward == alone[k].step_control(a)
            assert_same_state(together[k], alone[k])
            mask = supported_by_tool(together[k].world)
            assert np.array_equal(mask, supported_by_tool(alone[k].world))
            held += int(mask.sum())
            if task == "catch":
                assert np.array_equal(together[k]._streak, alone[k]._streak)
    assert all(env.done for env in together + alone)
    if task == "catch":
        assert any(e._caught.any() for e in alone)
    if task != "push":
        assert held > 0


def test_batched_reset_equals_one_env_resets():
    """reset_envs over four scoop envs settles every tank as four one-env
    resets do, bitwise, and leaves each env's rng where they leave it."""
    goals, seeds = [None, (3.0,), None, (6.0,)], [11, 12, None, 14]
    together = [make_env("scoop") for _ in range(4)]
    alone = [make_env("scoop") for _ in range(4)]
    together[2].reset(seed=13)
    alone[2].reset(seed=13)
    assert reset_envs(together, goals, seeds) is None
    for env, twin, goal, seed in zip(together, alone, goals, seeds):
        twin.reset(goal=goal, seed=seed)
        assert_same_state(env, twin)
        assert np.array_equal(env.world.pos, twin.world.pos)
        assert np.array_equal(env.world.vel, twin.world.vel)
        assert env._rng.bit_generator.state == twin._rng.bit_generator.state


def test_step_controls_refuses_envs_out_of_phase():
    a, b = make_env("push"), make_env("push")
    a.reset(seed=0)
    b.reset(seed=1)
    a.step_design(np.zeros(5))
    with pytest.raises(ProtocolError):
        step_controls([a, b], np.zeros((2, 2)))
    assert a.world.tool_velocity.tolist() == [0.0, 0.0]
