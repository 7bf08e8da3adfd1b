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
    tradeoff_reward,
)
from toolsmith.envs.base import supported_by_tool
from toolsmith.geometry import DesignVector, build_tool
from toolsmith.physics2d import World

TASKS = ("push", "catch", "scoop")


def run_out(env, action):
    while not env.done:
        res = env.step_control(action)
    return res


# -- protocol ---------------------------------------------------------------

@pytest.mark.parametrize("task", TASKS)
def test_reset_starts_design_phase(task):
    env = make_env(task)
    obs = env.reset(seed=0)
    assert obs.phase == DESIGN
    assert not obs.design_echo.any()
    assert obs.goal.shape == (env.goal_dim,)
    assert obs.task.shape == (env.task_obs_dim,)


@pytest.mark.parametrize("task", TASKS)
def test_design_step_switches_phase_and_echoes(task):
    env = make_env(task)
    env.reset(seed=0)
    u = np.full(5, 0.1)
    res = env.step_design(u)
    assert env.phase == CONTROL
    assert not res.done
    expected = env.space.realize(u).as_array()
    assert np.array_equal(res.observation.design_echo, expected)
    assert np.array_equal(env.design.as_array(), expected)


def test_design_echo_constant_through_episode():
    env = make_env("push")
    env.reset(seed=0)
    echo = env.step_design(np.full(5, 0.3)).observation.design_echo
    for _ in range(5):
        res = env.step_control((1.0, 0.5))
        assert np.array_equal(res.observation.design_echo, echo)


def test_design_clamped_to_bounds():
    env = make_env("push")
    env.reset(seed=0)
    res = env.step_design(np.full(5, 99.0))
    high = env.space.bounds.high()
    assert np.array_equal(res.observation.design_echo, high)
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
    res = run_out(env, (0.0, 0.0))
    assert res.done
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
        res = env.step_control((0.0, 0.0))
        steps += 1
    assert steps == env.cfg.max_episode_steps
    assert res.info["steps"] == 150


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
    res = env.step_design(np.zeros(5))
    # init lengths (2,2,2) at zero ratio, d_max 9, no control used yet
    assert res.info["d_used"] == 6.0
    assert res.reward == 2.0 * (1.0 - (0.4 * (6.0 / 9.0) + 0.6 * 0.0))


def test_design_reward_zero_when_k_zero():
    env = make_env("push")
    env.reset(seed=0)
    assert env.step_design(np.full(5, 0.5)).reward == 0.0


def test_control_reward_composition():
    env = make_env("push", tradeoff_k=3.0, tradeoff_alpha=0.25)
    env.reset(goal=(8.0, 10.0), seed=0)
    env.step_design(np.zeros(5))
    # zero action: puck static, shaping is exactly 0, c_used is 0
    res = env.step_control((0.0, 0.0))
    expected = 0.0 + -0.001 + 3.0 * (1.0 - (0.25 * (6.0 / 9.0) + 0.75 * 0.0))
    assert res.reward == expected


def test_slack_sum_exact():
    env = make_env("push")
    env.reset(goal=(8.0, 10.0), seed=0)
    env.step_design(np.zeros(5))
    rewards = []
    while not env.done:
        rewards.append(env.step_control((0.0, 0.0)).reward)
    assert all(r == -0.001 for r in rewards)
    assert math.fsum(rewards) == pytest.approx(-0.15, abs=1e-12)


def test_k_zero_rewards_bitwise_alpha_independent():
    def episode(alpha):
        env = make_env("catch", tradeoff_alpha=alpha)
        env.reset(goal=(16.8, 18.2, 19.4, 16.0, 17.0, 16.5), seed=4)
        rs = [env.step_design(np.full(5, 0.2)).reward]
        rng = np.random.default_rng(9)
        while not env.done:
            rs.append(env.step_control(rng.uniform(-2, 2, 1)).reward)
        return np.asarray(rs)

    assert np.array_equal(episode(0.1), episode(0.9))


def test_c_used_is_clamped_norm():
    env = make_env("push")
    env.reset(seed=0)
    env.step_design(np.zeros(5))
    assert env.step_control((100.0, 0.0)).info["c_used"] == 12.0
    env = make_env("scoop")
    env.reset(seed=0)
    env.step_design(np.zeros(5))
    assert env.step_control((10.0, 10.0, 10.0)).info["c_used"] == 9.0


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
        res = env.step_control(act)
        total += res.reward
        steps += 1
    assert res.info["success"] == 1.0
    assert steps < env.cfg.max_episode_steps
    assert res.info["goal_dist"] < 0.8
    expected = d0 - res.info["goal_dist"] + 10.0 + steps * -0.001
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
        res = env.step_control((0.0,))
        total += res.reward
        steps += 1
    assert res.info["caught"] == 3
    assert res.info["success"] == 1.0
    assert steps < env.cfg.max_episode_steps
    assert total == pytest.approx(3.0 + 10.0 + steps * -0.001, abs=1e-9)


def test_catch_missed_balls_lost():
    env = make_env("catch")
    env.reset(goal=(24.0, 25.0, 24.5, 16.0, 16.5, 17.0), seed=0)
    env.step_design(np.zeros(5))
    total, steps = 0.0, 0
    while not env.done:
        res = env.step_control((0.0,))
        total += res.reward
        steps += 1
    assert res.info["lost"] == 3 and res.info["caught"] == 0
    assert res.info["success"] == 0.0
    assert steps < env.cfg.max_episode_steps
    assert total == pytest.approx(steps * -0.001, abs=1e-9)


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
        res = env.step_control((0.0, 0.0, 0.0))
        total += res.reward
        steps += 1
    assert steps == 30
    assert res.info["scooped"] == 0
    assert res.info["success"] == 0.0
    assert total == pytest.approx((1.0 - 6.0 / 7.0) + 30 * -0.001, abs=1e-9)


def test_scoop_exact_match_bonus():
    env = make_env("scoop")
    env.reset(goal=(4.0,), seed=0)
    env.step_design(np.zeros(5))
    for _ in range(29):
        env.step_control((0.0, 0.0, 0.0))
    env._scooped_count = lambda: 4
    res = env.step_control((0.0, 0.0, 0.0))
    assert res.done
    assert res.info["success"] == 1.0
    assert res.reward == pytest.approx(1.0 + 10.0 - 0.001, abs=1e-12)


def test_scoop_goal_validation():
    env = make_env("scoop")
    for bad in ((8.0,), (0.0,), (0.5,), (1.0, 2.0), (np.nan,)):
        with pytest.raises(ValueError):
            env.reset(goal=bad)
    for n in range(1, 8):
        env.reset(goal=(float(n),))


def test_supported_by_tool_is_transitive():
    w = World()
    tool = build_tool(DesignVector(lengths=(2.0, 2.0, 2.0), angles=(0.0, 0.0)),
                      radius=0.1)
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
            res = env.step_control(act)
        return res.observation

    a, b = rollout(), rollout()
    assert np.array_equal(a.task, b.task)
    assert np.array_equal(a.goal, b.goal)


def test_different_seed_different_goal():
    env = make_env("push")
    g1 = env.reset(seed=1).goal
    g2 = env.reset(seed=2).goal
    assert not np.array_equal(g1, g2)


def test_reset_uses_provided_goal():
    env = make_env("push")
    obs = env.reset(goal=(7.0, 9.0), seed=0)
    assert np.array_equal(obs.goal, [7.0, 9.0])
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
    obs = env.reset(seed=0)
    assert env.design_input(obs).shape == (env.design_input_dim,)
    assert env.control_input(obs).shape == (env.control_input_dim,)
    assert env.value_input(obs).shape == (env.value_input_dim,)
    assert env.value_input(obs)[0] == 0.0
    obs2 = env.step_design(np.zeros(5)).observation
    assert env.value_input(obs2)[0] == 1.0


def test_control_input_echoes_design_in_ratio_space():
    env = make_env("push")
    env.reset(seed=0)
    u = np.array([0.2, -0.1, 0.3, 0.4, -0.25])
    obs = env.step_design(u).observation
    feat = env.control_input(obs)
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
