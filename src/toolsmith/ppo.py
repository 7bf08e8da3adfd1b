"""Joint PPO training of the designer and controller policies.

Each trajectory spans both phases: one design step, then control steps to
termination. Advantages come from GAE over the whole trajectory, so the
design step's advantage depends on downstream control rewards. Updates use
the clipped surrogate with an entropy bonus, mixed-phase minibatches, and
epoch-level early stopping on approximate KL.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .envs import DESIGN, TaskConfig, default_config, dump_task_config, make_env
from .neural import (
    Adam,
    PolicyParams,
    clone_params,
    forward,
    backward,
    gaussian_entropy,
    gaussian_logprob,
    gaussian_logprob_grads,
    init_policy,
    load_checkpoint,
    param_count,
    parameters,
    params_from_state,
    params_state,
    sample_action,
    save_checkpoint,
)

METRICS_HEADER = ["env_steps", "mean_return", "success_rate", "approx_kl",
                  "entropy", "mean_d_used", "mean_c_used"]
DESIGN_MEANS_HEADER = ["env_steps", "mean_length_1", "mean_length_2",
                       "mean_length_3", "mean_angle_1", "mean_angle_2"]
CHECKPOINT_EVERY = 10  # batches between mid-run checkpoints


@dataclass
class TrainConfig:
    policy_lr: float = 2e-5
    value_lr: float = 1e-4
    entropy_beta: float = 0.01
    kl_threshold: float = 0.005
    batch_size: int = 4096
    minibatch_size: int = 512
    ppo_epochs: int = 10
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2

    def __post_init__(self):
        if self.batch_size < self.minibatch_size:
            raise ValueError("batch_size must be >= minibatch_size")
        if self.kl_threshold <= 0.0:
            raise ValueError("kl_threshold must be positive")
        if not 0.0 < self.gamma <= 1.0 or not 0.0 < self.gae_lambda <= 1.0:
            raise ValueError("gamma and gae_lambda must lie in (0, 1]")


# per-task training defaults from the hyperparameter tables; "paper" restores
# the published batch shape, "desk" is the small-footprint default
TASK_TRAIN = {
    "push": dict(kl_threshold=0.005, value_lr=1e-4),
    "catch": dict(kl_threshold=0.002, value_lr=1e-4),
    "scoop": dict(kl_threshold=0.1, value_lr=3e-4),
}
TASK_POLICY = {
    "push": dict(design_log_std=-2.3, control_log_std=-1.0, fix_std=True),
    "catch": dict(design_log_std=0.0, control_log_std=0.0, fix_std=True),
    "scoop": dict(design_log_std=0.0, control_log_std=0.0, fix_std=True),
}


def default_train_config(task: str, scale: str = "desk", **overrides) -> TrainConfig:
    if task not in TASK_TRAIN:
        raise ValueError(f"unknown task {task!r}")
    kw = dict(TASK_TRAIN[task])
    if scale == "paper":
        kw.update(batch_size=50_000, minibatch_size=2_000, policy_lr=2e-5)
    elif scale != "desk":
        raise ValueError(f"unknown scale {scale!r}; expected 'desk' or 'paper'")
    kw.update(overrides)
    return TrainConfig(**kw)


def policy_for_env(env, rng: np.random.Generator, hidden=None, **overrides) -> PolicyParams:
    """Fresh designer/controller/value bundle sized for an environment."""
    kw = dict(TASK_POLICY[env.task_name])
    kw.update(overrides)
    if hidden is not None:
        kw["hidden"] = hidden
    return init_policy(
        design_in=env.design_input_dim, design_out=env.design_action_dim,
        control_in=env.control_input_dim, control_out=env.control_action_dim,
        value_in=env.value_input_dim, rng=rng, **kw)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """One episode: the design step at index 0, control steps after.

    design_logp is None when the design was imposed from outside the policy
    (a fixed candidate under evaluation); such steps still carry value and
    return rows but are excluded from the policy update.
    """

    design_input: np.ndarray
    design_action: np.ndarray
    design_logp: float | None
    control_inputs: np.ndarray
    control_actions: np.ndarray
    control_logps: np.ndarray
    value_inputs: np.ndarray       # one row per step, design row first
    rewards: np.ndarray
    values: np.ndarray
    dones: np.ndarray
    design_echo: np.ndarray
    success: float
    d_used: float
    mean_c_used: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.rewards)):
            raise ValueError("trajectory rewards must be finite")
        if self.rewards.size != 1 + self.control_actions.shape[0]:
            raise ValueError("trajectory must hold exactly one design step")

    @property
    def length(self) -> int:
        return self.rewards.size

    @property
    def episode_return(self) -> float:
        return float(self.rewards.sum())


def compute_gae(rewards, values, dones, gamma: float, lam: float):
    """delta_t = r_t + gamma*V_{t+1}*(1-done_t) - V_t, folded backwards.

    values carries one bootstrap entry beyond the last reward.
    """
    r = np.asarray(rewards, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    d = np.asarray(dones, dtype=np.float64)
    if v.size != r.size + 1:
        raise ValueError("values must have one bootstrap entry beyond rewards")
    if d.size != r.size:
        raise ValueError("dones must match rewards length")
    adv = np.zeros_like(r)
    acc = 0.0
    for t in range(r.size - 1, -1, -1):
        keep = 1.0 - d[t]
        delta = r[t] + gamma * v[t + 1] * keep - v[t]
        acc = delta + gamma * lam * keep * acc
        adv[t] = acc
    return adv, adv + v[:-1]


def default_features(env):
    """The standard per-phase policy featurizations of an environment."""
    return env.design_input, env.control_input


class _EpisodeBuilder:
    def __init__(self, env, goal_sampler, rng):
        self.env = env
        goal = goal_sampler(env, rng) if goal_sampler is not None else None
        self.obs = env.reset(goal=goal)
        self.design_row = None
        self.control_inputs = []
        self.control_actions = []
        self.control_logps = []
        self.value_inputs = []
        self.rewards = []
        self.values = []
        self.c_used = []

    def finish(self) -> Trajectory:
        env = self.env
        T = len(self.rewards)
        dones = np.zeros(T, dtype=np.float64)
        dones[-1] = 1.0
        di, da, dlp = self.design_row
        return Trajectory(
            design_input=di, design_action=da, design_logp=dlp,
            control_inputs=(np.asarray(self.control_inputs)
                            if self.control_inputs else
                            np.empty((0, env.control_input_dim))),
            control_actions=(np.asarray(self.control_actions)
                             if self.control_actions else
                             np.empty((0, env.control_action_dim))),
            control_logps=np.asarray(self.control_logps, dtype=np.float64),
            value_inputs=np.asarray(self.value_inputs),
            rewards=np.asarray(self.rewards, dtype=np.float64),
            values=np.asarray(self.values, dtype=np.float64),
            dones=dones,
            design_echo=env.design.as_array(),
            success=float(env._success),
            d_used=float(env._d_used),
            mean_c_used=float(np.mean(self.c_used)) if self.c_used else 0.0,
        )


def collect_batch(envs: list, params: PolicyParams, cfg: TrainConfig,
                  rng: np.random.Generator, goal_sampler=None,
                  fixed_design=None, features=default_features) -> list:
    """Roll complete episodes in lockstep until batch_size steps are gathered.

    All policy queries are batched across environments in a fixed order, so a
    seeded rng reproduces the batch exactly. With fixed_design set, every
    episode uses that design action instead of querying the designer.
    """
    trajs: list = []
    feats = [features(env) for env in envs]
    builders = {i: _EpisodeBuilder(env, goal_sampler, rng)
                for i, env in enumerate(envs)}
    steps = 0
    while builders:
        ids = sorted(builders)
        design_ids = [i for i in ids if builders[i].env.phase == DESIGN]
        control_ids = [i for i in ids if i not in set(design_ids)]

        val_in = np.stack([builders[i].env.value_input(builders[i].obs) for i in ids])
        vals = forward(params.value, val_in)[:, 0]
        for k, i in enumerate(ids):
            builders[i].value_inputs.append(val_in[k])
            builders[i].values.append(float(vals[k]))

        if design_ids and fixed_design is not None:
            action = np.asarray(fixed_design, dtype=np.float64)
            for i in design_ids:
                b = builders[i]
                res = b.env.step_design(action)
                b.design_row = (np.zeros(b.env.design_input_dim), action.copy(), None)
                b.rewards.append(res.reward)
                b.obs = res.observation
        elif design_ids:
            X = np.stack([feats[i][0](builders[i].obs) for i in design_ids])
            mu = forward(params.designer, X)
            acts, logps = sample_action(params.designer_head, mu, rng)
            for k, i in enumerate(design_ids):
                b = builders[i]
                res = b.env.step_design(acts[k])
                b.design_row = (X[k], acts[k].copy(), float(logps[k]))
                b.rewards.append(res.reward)
                b.obs = res.observation
        if control_ids:
            X = np.stack([feats[i][1](builders[i].obs) for i in control_ids])
            mu = forward(params.controller, X)
            acts, logps = sample_action(params.controller_head, mu, rng)
            for k, i in enumerate(control_ids):
                b = builders[i]
                res = b.env.step_control(acts[k])
                b.control_inputs.append(X[k])
                b.control_actions.append(acts[k].copy())
                b.control_logps.append(float(logps[k]))
                b.rewards.append(res.reward)
                b.c_used.append(res.info["c_used"])
                b.obs = res.observation
        steps += len(ids)

        for i in ids:
            if builders[i].env.done:
                trajs.append(builders[i].finish())
                if steps < cfg.batch_size:
                    builders[i] = _EpisodeBuilder(envs[i], goal_sampler, rng)
                else:
                    del builders[i]
    return trajs


@dataclass
class Batch:
    """Flattened rows: on-policy design rows first, then control rows, then
    value-only rows for any externally imposed design steps."""

    design_inputs: np.ndarray
    design_actions: np.ndarray
    design_logp_old: np.ndarray
    design_adv: np.ndarray
    control_inputs: np.ndarray
    control_actions: np.ndarray
    control_logp_old: np.ndarray
    control_adv: np.ndarray
    value_inputs: np.ndarray
    returns: np.ndarray
    mean_return: float = 0.0
    success_rate: float = 0.0
    mean_d_used: float = 0.0
    mean_c_used: float = 0.0
    design_echo_mean: np.ndarray = field(default_factory=lambda: np.zeros(5))
    env_steps: int = 0

    @property
    def num_design(self) -> int:
        return self.design_adv.size

    @property
    def num_control(self) -> int:
        return self.control_adv.size

    @property
    def num_policy_rows(self) -> int:
        return self.num_design + self.num_control

    @property
    def num_rows(self) -> int:
        return self.returns.size


def prepare_batch(trajs: list, cfg: TrainConfig) -> Batch:
    """GAE per trajectory, then flatten with advantages normalized jointly."""
    d_adv, d_ret, c_adv, c_ret, off_ret = [], [], [], [], []
    on_policy = []
    for t in trajs:
        values = np.append(t.values, 0.0)
        adv, ret = compute_gae(t.rewards, values, t.dones, cfg.gamma, cfg.gae_lambda)
        if t.design_logp is not None:
            on_policy.append(t)
            d_adv.append(adv[0])
            d_ret.append(ret[0])
        else:
            off_ret.append(ret[0])
        c_adv.append(adv[1:])
        c_ret.append(ret[1:])
    design_adv = np.asarray(d_adv, dtype=np.float64)
    control_adv = np.concatenate(c_adv) if c_adv else np.empty(0)
    all_adv = np.concatenate([design_adv, control_adv])
    mean, std = all_adv.mean(), all_adv.std()
    scale = std if std > 1e-8 else 1.0
    design_adv = (design_adv - mean) / scale
    control_adv = (control_adv - mean) / scale

    if on_policy:
        design_inputs = np.stack([t.design_input for t in on_policy])
        design_actions = np.stack([t.design_action for t in on_policy])
        design_logp_old = np.asarray([t.design_logp for t in on_policy])
        design_value_rows = [np.stack([t.value_inputs[0] for t in on_policy])]
    else:
        dim = trajs[0].design_input.shape[0]
        design_inputs = np.empty((0, dim))
        design_actions = np.empty((0, trajs[0].design_action.shape[0]))
        design_logp_old = np.empty(0)
        design_value_rows = []
    off_policy = [t for t in trajs if t.design_logp is None]
    tail_value_rows = [np.stack([t.value_inputs[0] for t in off_policy])] \
        if off_policy else []

    steps = sum(t.length for t in trajs)
    return Batch(
        design_inputs=design_inputs,
        design_actions=design_actions,
        design_logp_old=design_logp_old,
        design_adv=design_adv,
        control_inputs=np.concatenate([t.control_inputs for t in trajs]),
        control_actions=np.concatenate([t.control_actions for t in trajs]),
        control_logp_old=np.concatenate([t.control_logps for t in trajs]),
        control_adv=control_adv,
        value_inputs=np.concatenate(
            design_value_rows + [t.value_inputs[1:] for t in trajs]
            + tail_value_rows),
        returns=np.concatenate([np.asarray(d_ret)] + c_ret
                               + [np.asarray(off_ret)]),
        mean_return=float(np.mean([t.episode_return for t in trajs])),
        success_rate=float(np.mean([t.success for t in trajs])),
        mean_d_used=float(np.mean([t.d_used for t in trajs])),
        mean_c_used=float(np.mean([t.mean_c_used for t in trajs])),
        design_echo_mean=np.mean([t.design_echo for t in trajs], axis=0),
        env_steps=steps,
    )


# ---------------------------------------------------------------------------
# Updates
# ---------------------------------------------------------------------------

def _policy_loss_grads(net, head, X, actions, logp_old, adv, clip_eps, B):
    """Surrogate value and parameter gradients for one head's rows."""
    mu = forward(net, X)
    logp = gaussian_logprob(head, mu, actions)
    rho = np.exp(logp - logp_old)
    unclipped = rho * adv
    clipped = np.clip(rho, 1.0 - clip_eps, 1.0 + clip_eps) * adv
    obj = np.minimum(unclipped, clipped)
    g_logp = np.where(unclipped <= clipped, rho * adv, 0.0) / B
    dmu, dls = gaussian_logprob_grads(head, mu, actions)
    net_grads = backward(net, X, -(g_logp[:, None] * dmu))
    dlog_std = -(g_logp[:, None] * dls).sum(axis=0)
    return float(obj.sum() / B), net_grads, dlog_std, logp


def _mean_kl(params: PolicyParams, batch: Batch) -> float:
    total = 0.0
    if batch.num_design:
        mu = forward(params.designer, batch.design_inputs)
        lp = gaussian_logprob(params.designer_head, mu, batch.design_actions)
        total += float(np.sum(batch.design_logp_old - lp))
    if batch.control_adv.size:
        mu = forward(params.controller, batch.control_inputs)
        lp = gaussian_logprob(params.controller_head, mu, batch.control_actions)
        total += float(np.sum(batch.control_logp_old - lp))
    return total / batch.num_policy_rows


class Optimizers:
    """Persistent Adam state over the policy heads and the value net.

    Arrays listed in freeze keep their values: their policy gradients are
    zeroed before each step, which with Adam leaves them bitwise unchanged.
    """

    def __init__(self, params: PolicyParams, cfg: TrainConfig, freeze=()):
        self._policy_params = params.trainable()
        self._frozen = {id(a) for a in freeze}
        self.policy = Adam(self._policy_params, lr=cfg.policy_lr)
        self.value = Adam(parameters(params.value), lr=cfg.value_lr)

    def step_policy(self, grads: list) -> None:
        if self._frozen:
            grads = [np.zeros_like(g) if id(a) in self._frozen else g
                     for a, g in zip(self._policy_params, grads)]
        self.policy.step(grads)

    def step_value(self, grads: list) -> None:
        self.value.step(grads)

    def state(self) -> dict:
        return {"policy": self.policy.state(), "value": self.value.state()}

    def load_state(self, state: dict) -> None:
        self.policy.load_state(state["policy"])
        self.value.load_state(state["value"])


def ppo_update(params: PolicyParams, batch: Batch, cfg: TrainConfig,
               optimizers: Optimizers | None = None,
               rng: np.random.Generator | None = None) -> tuple:
    """Clipped-surrogate epochs with KL early stop; returns (params, stats).

    Parameters are updated in place; on a non-finite loss the previous
    parameters and optimizer state are restored and the update is marked
    aborted.
    """
    if optimizers is None:
        optimizers = Optimizers(params, cfg)
    if rng is None:
        rng = np.random.default_rng(0)

    snapshot = clone_params(params)
    opt_snapshot = optimizers.state()
    nd = batch.num_design
    nc = batch.num_control
    n = batch.num_rows
    eps = cfg.clip_epsilon
    beta = cfg.entropy_beta
    d_fixed = params.designer_head.fixed
    c_fixed = params.controller_head.fixed

    def mean_entropy() -> float:
        return 0.5 * (gaussian_entropy(params.designer_head)
                      + gaussian_entropy(params.controller_head))

    def restore():
        for net_name in ("designer", "controller", "value"):
            for a, b in zip(parameters(getattr(params, net_name)),
                            parameters(getattr(snapshot, net_name))):
                a[...] = b
        params.designer_head.log_std[...] = snapshot.designer_head.log_std
        params.controller_head.log_std[...] = snapshot.controller_head.log_std
        optimizers.load_state(opt_snapshot)

    stats = {"approx_kl": 0.0, "entropy": mean_entropy(), "epochs_run": 0,
             "policy_loss": 0.0, "value_loss": 0.0, "aborted": False}

    for _epoch in range(cfg.ppo_epochs):
        order = rng.permutation(n)
        pol_losses, val_losses = [], []
        for start in range(0, n, cfg.minibatch_size):
            mb = order[start:start + cfg.minibatch_size]
            B = mb.size
            d_rows = mb[mb < nd]
            c_rows = mb[(mb >= nd) & (mb < nd + nc)] - nd

            policy_grads = {id(a): np.zeros_like(a) for a in params.trainable()}
            surrogate = 0.0
            if d_rows.size:
                obj, net_g, dls, _ = _policy_loss_grads(
                    params.designer, params.designer_head,
                    batch.design_inputs[d_rows], batch.design_actions[d_rows],
                    batch.design_logp_old[d_rows], batch.design_adv[d_rows], eps, B)
                surrogate += obj
                for a, g in zip(parameters(params.designer), net_g):
                    policy_grads[id(a)] += g
                if not d_fixed:
                    policy_grads[id(params.designer_head.log_std)] += dls - beta
            if c_rows.size:
                obj, net_g, dls, _ = _policy_loss_grads(
                    params.controller, params.controller_head,
                    batch.control_inputs[c_rows], batch.control_actions[c_rows],
                    batch.control_logp_old[c_rows], batch.control_adv[c_rows], eps, B)
                surrogate += obj
                for a, g in zip(parameters(params.controller), net_g):
                    policy_grads[id(a)] += g
                if not c_fixed:
                    policy_grads[id(params.controller_head.log_std)] += dls - beta

            v_pred = forward(params.value, batch.value_inputs[mb])[:, 0]
            err = v_pred - batch.returns[mb]
            value_loss = 0.5 * float(err @ err) / B
            value_grads = backward(params.value, batch.value_inputs[mb],
                                   (err / B)[:, None])

            policy_loss = -surrogate - beta * mean_entropy()
            if not (math.isfinite(policy_loss) and math.isfinite(value_loss)):
                restore()
                stats["aborted"] = True
                return params, stats
            pol_losses.append(policy_loss)
            val_losses.append(value_loss)

            optimizers.step_policy([policy_grads[id(a)] for a in params.trainable()])
            optimizers.step_value(value_grads)

        stats["epochs_run"] += 1
        stats["policy_loss"] = float(np.mean(pol_losses))
        stats["value_loss"] = float(np.mean(val_losses))
        stats["approx_kl"] = _mean_kl(params, batch)
        if not math.isfinite(stats["approx_kl"]):
            restore()
            stats["aborted"] = True
            return params, stats
        if stats["approx_kl"] > cfg.kl_threshold:
            break
    stats["entropy"] = mean_entropy()
    return params, stats


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def config_fingerprint(task_cfg: TaskConfig, cfg: TrainConfig, seed: int,
                       n_envs: int, fixed_design=None,
                       policy_overrides=None) -> str:
    text = dump_task_config(task_cfg) + repr(sorted(asdict(cfg).items())) \
        + f"|seed={seed}|n_envs={n_envs}"
    if fixed_design is not None:
        text += "|fixed=" + ",".join(f"{x:.12g}" for x in fixed_design)
    if policy_overrides:
        text += "|policy=" + repr(sorted(policy_overrides.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _append_csv(path, header, row) -> None:
    new = not os.path.exists(path)
    with open(path, "a", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        if new:
            w.writerow(header)
        w.writerow(row)


def _drop_rows_after(path, env_steps: int) -> None:
    """Remove the rows of a curve CSV logged past env_steps."""
    if not os.path.exists(path):
        return
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(
            rows[:1] + [r for r in rows[1:] if int(r[0]) <= env_steps])


def seeded_envs(task_cfg: TaskConfig, n_envs: int, seed: int) -> list:
    """n_envs environments, each reset with its own child of SeedSequence(seed)."""
    envs = [make_env(task_cfg) for _ in range(n_envs)]
    for env, ss in zip(envs, np.random.SeedSequence(seed).spawn(n_envs)):
        env.reset(seed=ss)
    return envs


def checkpoint_record(params: PolicyParams, optimizers: Optimizers,
                      rng: np.random.Generator, envs: list, env_steps: int,
                      config_hash: str, task: str) -> dict:
    """The keys every checkpoint.json holds; train resumes from them."""
    return {
        "params": params_state(params),
        "optimizers": optimizers.state(),
        "rng_state": rng.bit_generator.state,
        "env_rng_states": [e._rng.bit_generator.state for e in envs],
        "env_steps": env_steps,
        "config_hash": config_hash,
        "task": task,
        "param_count": param_count(params),
    }


def train(task: str, cfg: TrainConfig, total_steps: int, out_dir,
          seed: int = 0, task_cfg: TaskConfig | None = None, n_envs: int = 16,
          goal_sampler=None, params: PolicyParams | None = None,
          resume: bool = False, freeze=(), features=default_features,
          policy_overrides=None) -> dict:
    """Alternate collect/update until total_steps env steps; log and checkpoint.

    Writes metrics.csv (fixed header) and design_means.csv under out_dir, plus
    a resumable checkpoint.json. A resume drops curve rows logged after the
    checkpoint, so they are not repeated. freeze lists parameter arrays
    excluded from policy updates; policy_overrides adjusts the freshly built
    policy when params is None.
    """
    os.makedirs(out_dir, exist_ok=True)
    task_cfg = task_cfg or default_config(task)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    means_path = os.path.join(out_dir, "design_means.csv")
    ck_path = os.path.join(out_dir, "checkpoint.json")
    fingerprint = config_fingerprint(task_cfg, cfg, seed, n_envs,
                                     policy_overrides=policy_overrides)

    rng = np.random.default_rng(seed)
    envs = seeded_envs(task_cfg, n_envs, seed)

    env_steps = 0
    if params is None:
        params = policy_for_env(envs[0], rng, **(policy_overrides or {}))

    resumed = False
    state = None
    if resume and os.path.exists(ck_path):
        state = load_checkpoint(ck_path)
        if state["config_hash"] != fingerprint:
            raise ValueError("checkpoint was produced by a different configuration")
        params = params_from_state(state["params"])
        rng.bit_generator.state = state["rng_state"]
        for env, st in zip(envs, state["env_rng_states"]):
            env._rng.bit_generator.state = st
        env_steps = int(state["env_steps"])
        resumed = True
    # freeze may be a callable so frozen arrays can be re-identified on the
    # freshly decoded parameters after a resume
    freeze_list = list(freeze(params)) if callable(freeze) else list(freeze)
    optimizers = Optimizers(params, cfg, freeze=freeze_list)
    for path in (metrics_path, means_path):
        if resumed:
            _drop_rows_after(path, env_steps)
        elif os.path.exists(path):
            os.remove(path)
    if resumed:
        optimizers.load_state(state["optimizers"])

    def save(env_steps: int) -> None:
        save_checkpoint(ck_path, checkpoint_record(
            params, optimizers, rng, envs, env_steps, fingerprint, task))

    batches = 0
    while env_steps < total_steps:
        trajs = collect_batch(envs, params, cfg, rng, goal_sampler,
                              features=features)
        batch = prepare_batch(trajs, cfg)
        env_steps += batch.env_steps
        params, stats = ppo_update(params, batch, cfg, optimizers, rng)
        batches += 1
        _append_csv(metrics_path, METRICS_HEADER, [
            env_steps,
            f"{batch.mean_return:.6f}",
            f"{batch.success_rate:.6f}",
            f"{stats['approx_kl']:.8f}",
            f"{stats['entropy']:.6f}",
            f"{batch.mean_d_used:.6f}",
            f"{batch.mean_c_used:.6f}",
        ])
        _append_csv(means_path, DESIGN_MEANS_HEADER,
                    [env_steps] + [f"{x:.6f}" for x in batch.design_echo_mean])
        if batches % CHECKPOINT_EVERY == 0:
            save(env_steps)
    save(env_steps)
    return {"env_steps": env_steps, "batches": batches, "params": params,
            "metrics_path": metrics_path, "checkpoint_path": ck_path,
            "param_count": param_count(params)}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def run_episode(env, params: PolicyParams | None, goal=None, seed=None,
                fixed_design=None, controls=None,
                features=default_features) -> dict:
    """One deterministic episode, the loop every method is scored by.

    The design is fixed_design when given, else the designer's mean; control
    t is controls[t] when an open-loop schedule is given, else the
    controller's mean. params may be None when both are given.
    """
    design_feat, control_feat = features(env)
    obs = env.reset(goal=goal, seed=seed)
    if fixed_design is not None:
        act = np.asarray(fixed_design, dtype=np.float64)
    else:
        act = forward(params.designer, design_feat(obs))
    res = env.step_design(act)
    total = res.reward
    obs = res.observation
    c_used = []
    while not env.done:
        if controls is not None:
            act = controls[len(c_used)]
        else:
            act = forward(params.controller, control_feat(obs))
        res = env.step_control(act)
        total += res.reward
        c_used.append(res.info["c_used"])
        obs = res.observation
    return {
        "return": float(total),
        "success": float(res.info["success"]),
        "steps": len(c_used),
        "design": env.design.as_array(),
        "d_used": float(res.info["d_used"]),
        "mean_c_used": float(np.mean(c_used)) if c_used else 0.0,
    }
