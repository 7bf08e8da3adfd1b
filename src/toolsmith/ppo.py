"""Joint PPO training of the designer and controller policies, taken from
one policy source, an Artifact: collect_batch samples it, run_episodes
scores it, and checkpoint_record and artifact_from_record write and read it.

train_round is the one PPO round every trainer runs: collect_batch, then
prepare_batch, then ppo_update. train and the CMA+RL inner controller loop
it to a step budget; each finetune arm runs it a set number of times.

Each trajectory is one complete episode: one design step, then control
steps to termination, each step recorded once as its value row. Advantages
come from GAE over the whole episode, so the design step's advantage
depends on downstream control rewards. Updates use the clipped surrogate
with mixed-phase minibatches and epoch-level early stopping on approximate
KL. The heads' log-stds are fixed, so the entropy term only offsets the
reported policy loss.

The value net shares no array with the policy networks, and ppo_update
checks that on every call. So each epoch's value minibatches (forward,
loss, backward, Adam step) run on a worker thread while the main thread
runs the same epoch's policy minibatches and its KL pass. The two halves
read the same row order and write disjoint arrays, and each BLAS call runs
on one thread; so every bit is the same whichever half finishes first, and
the same as running them one after the other.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .envs import (
    DESIGN,
    TaskConfig,
    dump_task_config,
    make_env,
    reset_envs,
    step_controls,
)
from .geometry import DESIGN_DIM
from .neural import (
    HIDDEN,
    Adam,
    GaussianHead,
    PolicyParams,
    clone_params,
    copy_params_into,
    forward,
    backward,
    gaussian_entropy,
    gaussian_logprob,
    gaussian_logprob_grads,
    init_network,
    load_checkpoint,
    param_count,
    parameters,
    params_from_state,
    params_state,
    sample_action,
    save_checkpoint,
    write_atomic,
)

# A run directory's files, each named only here; start_fresh removes them
CHECKPOINT_FILE = "checkpoint.json"
METRICS_FILE = "metrics.csv"
DESIGN_MEANS_FILE = "design_means.csv"
BEST_PLAN_FILE = "best_plan.json"
GENERATIONS_FILE = "generations.jsonl"
RUN_FILES = (CHECKPOINT_FILE, METRICS_FILE, DESIGN_MEANS_FILE, BEST_PLAN_FILE,
             GENERATIONS_FILE)
METRICS_FORMATS = {"env_steps": "d", "mean_return": ".6f",
                   "success_rate": ".6f", "approx_kl": ".8f", "entropy": ".6f",
                   "mean_d_used": ".6f", "mean_c_used": ".6f"}
METRICS_HEADER = list(METRICS_FORMATS)  # metrics.csv's columns, in order
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
        if self.minibatch_size < 1 or self.ppo_epochs < 1:
            raise ValueError(f"minibatch_size and ppo_epochs must be at least 1, "
                             f"got {self.minibatch_size} and {self.ppo_epochs}")
        if self.batch_size < self.minibatch_size:
            raise ValueError("batch_size must be >= minibatch_size")
        if self.kl_threshold <= 0.0 or self.clip_epsilon <= 0.0:
            raise ValueError("kl_threshold and clip_epsilon must be positive")
        if self.policy_lr < 0.0 or self.value_lr < 0.0:
            raise ValueError("policy_lr and value_lr must be >= 0")
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
    "push": dict(design_log_std=-2.3, control_log_std=-1.0),
    "catch": dict(design_log_std=0.0, control_log_std=0.0),
    "scoop": dict(design_log_std=0.0, control_log_std=0.0),
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


def policy_settings(task: str, overrides: dict) -> dict:
    """TASK_POLICY[task] updated by overrides; ValueError for a key it lacks."""
    if task not in TASK_POLICY:
        raise ValueError(f"unknown task {task!r}")
    kw = dict(TASK_POLICY[task])
    if not set(overrides) <= set(kw):
        raise ValueError(f"policy overrides {sorted(overrides)} not among {sorted(kw)}")
    kw.update(overrides)
    return kw


def policy_heads(env, **overrides) -> tuple:
    """(designer, controller) Gaussian heads at the env task's TASK_POLICY
    log-stds, updated by overrides; every policy builder takes its heads
    from here."""
    kw = policy_settings(env.task_name, overrides)
    return (GaussianHead(np.full(env.design_action_dim, float(kw["design_log_std"]))),
            GaussianHead(np.full(env.control_action_dim, float(kw["control_log_std"]))))


def policy_for_env(env, rng: np.random.Generator, **overrides) -> PolicyParams:
    """Fresh designer/controller/value bundle sized for an environment, drawn
    from rng in that order; the heads come from policy_heads(env, **overrides)."""
    designer_head, controller_head = policy_heads(env, **overrides)
    return PolicyParams(
        designer=init_network(
            (env.design_input_dim, *HIDDEN, env.design_action_dim), rng,
            output_gain=0.01),
        designer_head=designer_head,
        controller=init_network(
            (env.control_input_dim, *HIDDEN, env.control_action_dim), rng,
            output_gain=0.01),
        controller_head=controller_head,
        value=init_network((env.value_input_dim, *HIDDEN, 1), rng,
                           output_gain=1.0),
    )


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """One complete episode: the design step at index 0, control steps after.

    value_inputs is the only per-step input record. design_logp is None
    when the design was imposed from outside the policy (a fixed candidate
    under evaluation); such steps still carry value and return rows but are
    excluded from the policy update.
    """

    design_action: np.ndarray
    design_logp: float | None
    control_actions: np.ndarray
    control_logps: np.ndarray
    value_inputs: np.ndarray       # one row per step, design row first
    rewards: np.ndarray
    values: np.ndarray
    design: np.ndarray             # the realized design
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


def compute_gae(rewards, values, gamma: float, lam: float):
    """(advantages, returns) over one whole episode, one value per step.

    delta_t = r_t + gamma*V_{t+1} - V_t with V = 0 after the last step,
    folded backwards; episodes are never cut, so there is no done mask.
    """
    r = np.asarray(rewards, dtype=np.float64)
    v = np.append(np.asarray(values, dtype=np.float64), 0.0)
    if v.size != r.size + 1:
        raise ValueError("values must hold one entry per reward")
    adv = np.zeros_like(r)
    acc = 0.0
    for t in range(r.size - 1, -1, -1):
        delta = r[t] + gamma * v[t + 1] - v[t]
        acc = delta + gamma * lam * acc
        adv[t] = acc
    return adv, adv + v[:-1]


@dataclass
class Artifact:
    """One policy source, the form every rollout takes it in: the policy
    collect_batch trains, a method's saved result (harness._load_for_eval)
    or a candidate under evaluation.

    fixed_design, when given, replaces the designer, and controls (one
    open-loop action per control step) the controller; params drives the
    rest. A plan has both and no params.
    """

    task: str
    params: PolicyParams | None = None
    fixed_design: np.ndarray | None = None
    controls: np.ndarray | None = None

    def _shared_trunk(self) -> bool:
        """A designer as wide as its controller is a shared trunk."""
        return self.params.designer.sizes[0] == self.params.controller.sizes[0]

    @property
    def kind(self) -> str:
        if self.controls is not None:
            return "open-loop plan"
        if self.fixed_design is not None:
            return "fixed-design"
        return "shared" if self._shared_trunk() else "policy"

    def columns(self, env) -> tuple:
        """(designer, controller) columns of env.value_input: all of it for
        both halves of a shared trunk, none for a designer with no inputs,
        else env.design_columns and env.control_columns."""
        if self._shared_trunk():
            return np.arange(env.value_input_dim), np.arange(env.value_input_dim)
        if self.params.designer.sizes[0] == 0:
            return np.arange(0), env.control_columns
        return env.design_columns, env.control_columns

    def design_action(self, env) -> np.ndarray:
        """The design action for env as its last reset left it: the fixed
        design, else the designer's mean on its columns of the value row."""
        if self.fixed_design is not None:
            return np.asarray(self.fixed_design, dtype=np.float64)
        design_cols, _ = self.columns(env)
        return forward(self.params.designer, env.value_input()[design_cols])


class _EpisodeBuilder:
    def __init__(self, env):
        self.env = env
        self.design_action = None
        self.design_logp = None
        self.control_actions = []
        self.control_logps = []
        self.value_inputs = []
        self.rewards = []
        self.values = []
        self.c_used = []

    def finish(self) -> Trajectory:
        env = self.env
        return Trajectory(
            design_action=self.design_action, design_logp=self.design_logp,
            control_actions=np.asarray(self.control_actions),
            control_logps=np.asarray(self.control_logps, dtype=np.float64),
            value_inputs=np.asarray(self.value_inputs),
            rewards=np.asarray(self.rewards, dtype=np.float64),
            values=np.asarray(self.values, dtype=np.float64),
            design=env.design,
            success=env.success,
            d_used=env.d_used,
            mean_c_used=float(np.mean(self.c_used)) if self.c_used else 0.0,
        )


def _start_episodes(envs: list, goal_sampler, rng) -> list:
    """Reset envs together, goals drawn from rng in env order; one
    _EpisodeBuilder each."""
    goals = [goal_sampler(env, rng) if goal_sampler is not None else None
             for env in envs]
    reset_envs(envs, goals)
    return [_EpisodeBuilder(env) for env in envs]


def collect_batch(envs: list, art: Artifact, cfg: TrainConfig,
                  rng: np.random.Generator, goal_sampler=None) -> list:
    """Roll art's episodes in lockstep until batch_size steps are gathered.

    All policy queries are batched across environments in a fixed order, so a
    seeded rng reproduces the batch exactly. The control-phase envs step
    together through step_controls, and envs that finish together are reset
    together through reset_envs. Each env step is featurized once, by
    value_input; the policies read their columns of that row (art.columns).
    A fixed-design art takes its design action in place of the designer's.
    """
    trajs: list = []
    design_cols, control_cols = art.columns(envs[0])
    builders = dict(enumerate(_start_episodes(envs, goal_sampler, rng)))
    steps = 0
    while builders:
        ids = sorted(builders)
        in_design = np.array([builders[i].env.phase == DESIGN for i in ids])
        design_ids = [i for i, d in zip(ids, in_design) if d]
        control_ids = [i for i, d in zip(ids, in_design) if not d]

        val_in = np.stack([builders[i].env.value_input() for i in ids])
        vals = forward(art.params.value, val_in)[:, 0]
        for k, i in enumerate(ids):
            builders[i].value_inputs.append(val_in[k])
            builders[i].values.append(float(vals[k]))

        # np.ix_ takes rows and columns as one C-ordered copy; columns taken
        # from a row subset come out F-ordered, which changes matmul rounding
        if design_ids:
            if art.fixed_design is None:
                mu = forward(art.params.designer,
                             val_in[np.ix_(in_design, design_cols)])
                acts, logps = sample_action(art.params.designer_head, mu, rng)
                logps = [float(lp) for lp in logps]
            else:
                acts = np.tile(art.fixed_design, (len(design_ids), 1))
                logps = [None] * len(design_ids)
            for k, i in enumerate(design_ids):
                b = builders[i]
                b.rewards.append(b.env.step_design(acts[k]))
                b.design_action, b.design_logp = acts[k].copy(), logps[k]
        if control_ids:
            mu = forward(art.params.controller,
                         val_in[np.ix_(~in_design, control_cols)])
            acts, logps = sample_action(art.params.controller_head, mu, rng)
            rewards = step_controls([builders[i].env for i in control_ids], acts)
            for k, (i, reward) in enumerate(zip(control_ids, rewards)):
                b = builders[i]
                b.control_actions.append(acts[k].copy())
                b.control_logps.append(float(logps[k]))
                b.rewards.append(reward)
                b.c_used.append(b.env.c_used)
        steps += len(ids)

        done = [i for i in ids if builders[i].env.done]
        trajs.extend(builders.pop(i).finish() for i in done)
        if done and steps < cfg.batch_size:
            builders.update(zip(done, _start_episodes(
                [envs[i] for i in done], goal_sampler, rng)))
    return trajs


@dataclass
class Batch:
    """Flattened rows: on-policy design rows first, then control rows, then
    value-only rows for any externally imposed design steps. value_inputs is
    the only input record; columns (from Artifact.columns) names the columns
    of it that the designer and the controller read."""

    columns: tuple
    design_actions: np.ndarray
    design_logp_old: np.ndarray
    design_adv: np.ndarray
    control_actions: np.ndarray
    control_logp_old: np.ndarray
    control_adv: np.ndarray
    value_inputs: np.ndarray
    returns: np.ndarray
    mean_return: float = 0.0
    success_rate: float = 0.0
    mean_d_used: float = 0.0
    mean_c_used: float = 0.0
    design_mean: np.ndarray = field(default_factory=lambda: np.zeros(DESIGN_DIM))
    env_steps: int = 0

    @property
    def num_design(self) -> int:
        return self.design_adv.size

    @property
    def num_rows(self) -> int:
        return self.returns.size


def prepare_batch(trajs: list, cfg: TrainConfig, columns: tuple) -> Batch:
    """GAE per trajectory, then flatten with advantages normalized jointly;
    columns is Artifact.columns of the policy that collected trajs."""
    d_adv, d_ret, c_adv, c_ret, off_ret = [], [], [], [], []
    on_policy = []
    for t in trajs:
        adv, ret = compute_gae(t.rewards, t.values, cfg.gamma, cfg.gae_lambda)
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

    design_actions = np.array([t.design_action for t in on_policy]).reshape(
        len(on_policy), trajs[0].design_action.size)
    design_logp_old = np.array([t.design_logp for t in on_policy], dtype=np.float64)
    off_policy = [t for t in trajs if t.design_logp is None]

    steps = sum(t.length for t in trajs)
    return Batch(
        columns=columns,
        design_actions=design_actions,
        design_logp_old=design_logp_old,
        design_adv=design_adv,
        control_actions=np.concatenate([t.control_actions for t in trajs]),
        control_logp_old=np.concatenate([t.control_logps for t in trajs]),
        control_adv=control_adv,
        value_inputs=np.concatenate(
            [t.value_inputs[:1] for t in on_policy]
            + [t.value_inputs[1:] for t in trajs]
            + [t.value_inputs[:1] for t in off_policy]),
        returns=np.concatenate([np.asarray(d_ret)] + c_ret
                               + [np.asarray(off_ret)]),
        mean_return=float(np.mean([t.rewards.sum() for t in trajs])),
        success_rate=float(np.mean([t.success for t in trajs])),
        mean_d_used=float(np.mean([t.d_used for t in trajs])),
        mean_c_used=float(np.mean([t.mean_c_used for t in trajs])),
        design_mean=np.mean([t.design for t in trajs], axis=0),
        env_steps=steps,
    )


# ---------------------------------------------------------------------------
# Updates
# ---------------------------------------------------------------------------

def _policy_loss_grads(net, head, X, actions, logp_old, adv, clip_eps, B):
    """Surrogate value and parameter gradients for one head's rows."""
    acts = []
    mu = forward(net, X, acts)
    logp = gaussian_logprob(head, mu, actions)
    rho = np.exp(logp - logp_old)
    unclipped = rho * adv
    clipped = np.clip(rho, 1.0 - clip_eps, 1.0 + clip_eps) * adv
    obj = np.minimum(unclipped, clipped)
    g_logp = np.where(unclipped <= clipped, rho * adv, 0.0) / B
    dmu = gaussian_logprob_grads(head, mu, actions)
    return float(obj.sum() / B), backward(net, -(g_logp[:, None] * dmu), acts)


def _heads(params: PolicyParams, batch: Batch) -> tuple:
    """(net, head, inputs, actions, old logps, advantages), designer first.

    Each head's inputs are its rows and columns of batch.value_inputs,
    taken with np.ix_ as one C-ordered copy: columns taken after a row
    slice come out F-ordered, which changes matmul rounding."""
    nd, nc = batch.num_design, batch.control_adv.size
    design_cols, control_cols = batch.columns
    X = batch.value_inputs
    return ((params.designer, params.designer_head,
             X[np.ix_(np.arange(nd), design_cols)],
             batch.design_actions, batch.design_logp_old, batch.design_adv),
            (params.controller, params.controller_head,
             X[np.ix_(np.arange(nd, nd + nc), control_cols)],
             batch.control_actions, batch.control_logp_old, batch.control_adv))


def _mean_kl(heads: tuple) -> float:
    total = 0.0
    for net, head, X, actions, logp_old, adv in heads:
        if adv.size:
            lp = gaussian_logprob(head, forward(net, X), actions)
            total += float(np.sum(logp_old - lp))
    return total / sum(adv.size for *_, adv in heads)


class Optimizers:
    """Persistent Adam state over the policy networks and the value net."""

    def __init__(self, params: PolicyParams, cfg: TrainConfig):
        self.policy = Adam(params.trainable(), lr=cfg.policy_lr)
        self.value = Adam(parameters(params.value), lr=cfg.value_lr)

    def step_value(self, grads: list) -> None:
        self.value.step(grads)

    def state(self) -> dict:
        return {"policy": self.policy.state(), "value": self.value.state()}

    def load_state(self, state: dict) -> None:
        self.policy.load_state(state["policy"])
        self.value.load_state(state["value"])


def _policy_epoch(params: PolicyParams, heads: tuple,
                  optimizers: Optimizers, order: np.ndarray, cfg: TrainConfig,
                  entropy: float) -> tuple:
    """The policy networks' minibatches of one epoch, in order; returns
    (losses, finite), stopping at the first non-finite loss unstepped."""
    losses = []
    for start in range(0, order.size, cfg.minibatch_size):
        mb = order[start:start + cfg.minibatch_size]
        B = mb.size
        policy_grads = {id(a): np.zeros_like(a) for a in params.trainable()}
        surrogate, lo = 0.0, 0
        for net, head, X, actions, logp_old, adv in heads:
            rows = mb[(mb >= lo) & (mb < lo + adv.size)] - lo
            lo += adv.size
            if not rows.size:
                continue
            obj, net_g = _policy_loss_grads(
                net, head, X[rows], actions[rows], logp_old[rows],
                adv[rows], cfg.clip_epsilon, B)
            surrogate += obj
            for a, g in zip(parameters(net), net_g):
                policy_grads[id(a)] += g
        loss = -surrogate - cfg.entropy_beta * entropy
        if not math.isfinite(loss):
            return losses, False
        losses.append(loss)
        optimizers.policy.step([policy_grads[id(a)] for a in params.trainable()])
    return losses, True


def _value_epoch(net, optimizers: Optimizers, batch: Batch,
                 order: np.ndarray, minibatch_size: int) -> tuple:
    """The value net's minibatches of one epoch, in order; returns
    (losses, finite), stopping at the first non-finite loss unstepped."""
    losses = []
    for start in range(0, order.size, minibatch_size):
        mb = order[start:start + minibatch_size]
        B = mb.size
        acts = []
        err = forward(net, batch.value_inputs[mb], acts)[:, 0] \
            - batch.returns[mb]
        loss = 0.5 * float(err @ err) / B
        if not math.isfinite(loss):
            return losses, False
        losses.append(loss)
        optimizers.step_value(backward(net, (err / B)[:, None], acts))
    return losses, True


def ppo_update(params: PolicyParams, batch: Batch, cfg: TrainConfig,
               optimizers: Optimizers, rng: np.random.Generator) -> tuple:
    """Clipped-surrogate epochs with KL early stop; returns (params, stats).

    Parameters are updated in place; on a non-finite loss the previous
    parameters and optimizer state are restored and the update is marked
    aborted. Each minibatch runs each network forward once, and its
    backward works from that forward's activations.

    Each epoch draws one row order. A worker thread runs the value net's
    minibatches in it (_value_epoch) while this thread runs the policy
    minibatches (_policy_epoch) and then the KL pass, and only then waits
    for the worker. The halves may overlap because they write no common
    array (ValueError, before anything is written, if the value net shares
    one with a policy net) and each BLAS call runs on one thread, so the
    result does not depend on how the threads are scheduled. An exception
    in either half propagates.
    """
    value_ids = {id(a) for a in parameters(params.value)}
    if any(id(a) in value_ids for a in params.trainable()):
        raise ValueError("the value net shares an array with a policy net, "
                         "so its minibatches cannot run beside theirs")
    snapshot = clone_params(params)
    opt_snapshot = optimizers.state()
    heads = _heads(params, batch)
    # constant: the heads' log-stds are fixed
    entropy = 0.5 * (gaussian_entropy(params.designer_head)
                     + gaussian_entropy(params.controller_head))

    stats = {"approx_kl": 0.0, "entropy": entropy, "epochs_run": 0,
             "policy_loss": 0.0, "value_loss": 0.0, "aborted": False}

    def abort():
        copy_params_into(params, snapshot)
        optimizers.load_state(opt_snapshot)
        stats["aborted"] = True
        return params, stats

    with ThreadPoolExecutor(max_workers=1) as worker:
        for _epoch in range(cfg.ppo_epochs):
            order = rng.permutation(batch.num_rows)
            value_half = worker.submit(_value_epoch, params.value, optimizers,
                                       batch, order, cfg.minibatch_size)
            pol_losses, pol_finite = _policy_epoch(params, heads, optimizers,
                                                   order, cfg, entropy)
            approx_kl = _mean_kl(heads) if pol_finite else math.nan
            val_losses, val_finite = value_half.result()
            if not (pol_finite and val_finite):
                return abort()
            stats["epochs_run"] += 1
            stats["policy_loss"] = float(np.mean(pol_losses))
            stats["value_loss"] = float(np.mean(val_losses))
            stats["approx_kl"] = approx_kl
            if not math.isfinite(approx_kl):
                return abort()
            if approx_kl > cfg.kl_threshold:
                break
    return params, stats


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def train_round(envs: list, art: Artifact, optimizers: Optimizers,
                cfg: TrainConfig, rng: np.random.Generator,
                goal_sampler=None) -> tuple:
    """One PPO round of art: collect a batch, compute its advantages, update
    art.params in place; returns (batch, update stats)."""
    trajs = collect_batch(envs, art, cfg, rng, goal_sampler)
    batch = prepare_batch(trajs, cfg, art.columns(envs[0]))
    _, stats = ppo_update(art.params, batch, cfg, optimizers, rng)
    return batch, stats


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


def start_fresh(out_dir) -> None:
    """Create out_dir, or remove every RUN_FILES file it holds."""
    os.makedirs(out_dir, exist_ok=True)
    for path in (os.path.join(out_dir, name) for name in RUN_FILES):
        if os.path.exists(path):
            os.remove(path)


def _append_csv(path, header, row) -> None:
    new = not os.path.exists(path)
    with open(path, "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, row] if new else [row])


def append_metrics(path, **values) -> None:
    """Append one metrics.csv row: each named value in its column's format."""
    _append_csv(path, METRICS_HEADER, [
        format(values[name], spec) for name, spec in METRICS_FORMATS.items()])


def read_curve(path, header: list = METRICS_HEADER) -> list:
    """The _whole_row rows of a curve CSV (metrics.csv by default) as text
    fields, so a row torn by a kill is dropped; ValueError on another header."""
    with open(path, newline="", encoding="utf-8") as fh:
        found, *rows = list(csv.reader(fh)) or [[]]
    if found != header:
        raise ValueError(f"{path} has header {found}, not {header}")
    return [r for r in rows if _whole_row(r, len(header))]


def _whole_row(row: list, width: int) -> bool:
    """Whether a curve CSV row has all its fields and each parses."""
    try:
        return len([float(x) for x in row]) == width
    except ValueError:
        return False


def _drop_rows_after(path, header: list, env_steps: int) -> None:
    """Drop a curve CSV's rows logged past env_steps, and any torn row."""
    if os.path.exists(path):
        text = io.StringIO()
        csv.writer(text).writerows([header] + [
            r for r in read_curve(path, header) if int(r[0]) <= env_steps])
        write_atomic(path, text.getvalue())


def seeded_envs(task_cfg: TaskConfig, n_envs: int, seed: int) -> list:
    """n_envs environments, each seeded with its own child of
    SeedSequence(seed) and started on an episode, which draws its goal and
    scene from that rng. The settle steps are left out: collect_batch resets
    every env before its first step, so only the draws carry over."""
    envs = [make_env(task_cfg) for _ in range(n_envs)]
    for env, child in zip(envs, np.random.SeedSequence(seed).spawn(n_envs)):
        env._start_episode(None, child)
    return envs


def checkpoint_record(art: Artifact, optimizers: Optimizers,
                      rng: np.random.Generator, envs: list, env_steps: int,
                      config_hash: str) -> dict:
    """The keys a checkpoint.json holds for art, read back by train's resume
    and artifact_from_record; a fixed design goes in as plain JSON floats."""
    record = {
        "params": params_state(art.params),
        "optimizers": optimizers.state(),
        "rng_state": rng.bit_generator.state,
        "env_rng_states": [e._rng.bit_generator.state for e in envs],
        "env_steps": env_steps,
        "config_hash": config_hash,
        "task": art.task,
        "param_count": param_count(art.params),
    }
    if art.fixed_design is not None:
        record["fixed_design"] = [float(x) for x in art.fixed_design]
    return record


def artifact_from_record(state: dict) -> Artifact:
    """The Artifact of a loaded checkpoint_record, a shared trunk untied."""
    art = Artifact(state.get("task"), params_from_state(state["params"]))
    if "fixed_design" in state:
        art.fixed_design = np.asarray(state["fixed_design"], dtype=np.float64)
    return art


def train(task_cfg: TaskConfig, cfg: TrainConfig, total_steps: int, out_dir,
          seed: int = 0, n_envs: int = 16, goal_sampler=None,
          params: PolicyParams | None = None, resume: bool = False,
          policy_overrides=None) -> dict:
    """Alternate collect/update until total_steps env steps; log and checkpoint.

    Every PPO method runs here and differs only in the policy it starts from:
    params, or when None a policy_for_env bundle drawn from the training rng
    with the policy_heads overrides policy_overrides, which the config
    fingerprint records either way. Writes metrics.csv, design_means.csv and
    a resumable checkpoint.json for task_cfg.task under out_dir. A resume
    copies the checkpoint into params in place, so a tied trunk stays tied,
    and drops curve rows logged after it; any other run starts fresh, so no
    RUN_FILES file of an earlier run or method outlives it (start_fresh).
    """
    metrics_path = os.path.join(out_dir, METRICS_FILE)
    means_path = os.path.join(out_dir, DESIGN_MEANS_FILE)
    ck_path = os.path.join(out_dir, CHECKPOINT_FILE)
    fingerprint = config_fingerprint(task_cfg, cfg, seed, n_envs,
                                     policy_overrides=policy_overrides)

    rng = np.random.default_rng(seed)
    envs = seeded_envs(task_cfg, n_envs, seed)

    env_steps = 0
    if params is None:
        params = policy_for_env(envs[0], rng, **(policy_overrides or {}))
    art = Artifact(task_cfg.task, params)
    optimizers = Optimizers(params, cfg)

    if resume and os.path.exists(ck_path):
        state = load_checkpoint(ck_path)
        if state["config_hash"] != fingerprint:
            raise ValueError("checkpoint was produced by a different configuration")
        copy_params_into(params, params_from_state(state["params"]))
        optimizers.load_state(state["optimizers"])
        rng.bit_generator.state = state["rng_state"]
        for env, st in zip(envs, state["env_rng_states"]):
            env._rng.bit_generator.state = st
        env_steps = int(state["env_steps"])
        _drop_rows_after(metrics_path, METRICS_HEADER, env_steps)
        _drop_rows_after(means_path, DESIGN_MEANS_HEADER, env_steps)
    else:
        start_fresh(out_dir)

    def save(env_steps: int) -> None:
        save_checkpoint(ck_path, checkpoint_record(
            art, optimizers, rng, envs, env_steps, fingerprint))

    batches = 0
    while env_steps < total_steps:
        batch, stats = train_round(envs, art, optimizers, cfg, rng,
                                   goal_sampler)
        env_steps += batch.env_steps
        batches += 1
        append_metrics(metrics_path, env_steps=env_steps,
                       mean_return=batch.mean_return,
                       success_rate=batch.success_rate,
                       approx_kl=stats["approx_kl"], entropy=stats["entropy"],
                       mean_d_used=batch.mean_d_used,
                       mean_c_used=batch.mean_c_used)
        _append_csv(means_path, DESIGN_MEANS_HEADER,
                    [env_steps] + [f"{x:.6f}" for x in batch.design_mean])
        if batches % CHECKPOINT_EVERY == 0:
            save(env_steps)
    save(env_steps)
    return {"env_steps": env_steps, "batches": batches, "params": params,
            "metrics_path": metrics_path, "checkpoint_path": ck_path,
            "param_count": param_count(params)}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def run_episode(env, art: Artifact, goal=None, seed=None) -> dict:
    """One deterministic episode of art, the loop every method is scored by:
    run_episodes of the one env."""
    return run_episodes([env], art, [goal], [seed])[0]


def run_episodes(envs: list, art: Artifact, goals: list, seeds: list) -> list:
    """One deterministic episode of art per env, env i reset with goals[i]
    and seeds[i]; returns one episode dict per env.

    The envs are reset together by reset_envs, each takes art.design_action,
    and the envs still live step together by step_controls until all are
    done, so each episode is bitwise the one its env runs alone. Control t
    is art.controls[t] for an open-loop plan, else the controller's mean on
    a one-row forward of the env's own value row.
    """
    if not len(envs) == len(goals) == len(seeds):
        raise ValueError(f"{len(envs)} envs need as many goals and seeds, "
                         f"got {len(goals)} and {len(seeds)}")
    controls = art.controls
    if controls is None:
        _, control_cols = art.columns(envs[0])
    reset_envs(envs, goals, seeds)
    totals = [env.step_design(art.design_action(env)) for env in envs]
    c_used = [[] for _ in envs]
    live = [i for i, env in enumerate(envs) if not env.done]
    while live:
        if controls is not None:
            acts = [controls[len(c_used[i])] for i in live]
        else:
            acts = [forward(art.params.controller,
                            envs[i].value_input()[control_cols])
                    for i in live]
        rewards = step_controls([envs[i] for i in live], acts)
        for i, reward in zip(live, rewards):
            totals[i] += reward
            c_used[i].append(envs[i].c_used)
        live = [i for i in live if not envs[i].done]
    return [{
        "return": float(total),
        "success": env.success,
        "steps": len(used),
        "design": env.design,
        "d_used": env.d_used,
        "mean_c_used": float(np.mean(used)) if used else 0.0,
    } for env, total, used in zip(envs, totals, c_used)]
