"""Dense networks with hand-written reverse-mode gradients.

Everything is float64 numpy. A Network is a plain stack of affine layers with
tanh on hidden layers and a linear output; policies add a diagonal Gaussian
head whose log-stds are fixed constants set per task, so the networks'
weights and biases are the only trainable parameters.

Gradients reuse the forward pass: forward(net, x, acts) appends each layer's
input to acts, and backward(net, output_grad, acts) runs only the reverse
sweep over them. Each layer's elementwise math writes in place into arrays
the layer has just made; the ufuncs and GEMMs are those of the plain
expressions, in the same order, so the bits are too.
"""

from __future__ import annotations

import base64
import json
import math
import os
from dataclasses import dataclass

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class Network:
    sizes: tuple
    weights: list
    biases: list


def _orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float) -> np.ndarray:
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    # keep C order so freshly initialized and checkpoint-loaded weights take
    # identical BLAS paths (layout changes matmul rounding at the last ulp)
    return np.ascontiguousarray(gain * q[:rows, :cols])


def init_network(sizes, rng: np.random.Generator, output_gain: float = 1.0) -> Network:
    """Orthogonal weights (gain 1 hidden, output_gain last), zero biases."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2:
        raise ValueError("need at least an input and an output size")
    weights, biases = [], []
    last = len(sizes) - 2
    for i in range(len(sizes) - 1):
        gain = output_gain if i == last else 1.0
        weights.append(_orthogonal(rng, sizes[i + 1], sizes[i], gain))
        biases.append(np.zeros(sizes[i + 1]))
    return Network(sizes=sizes, weights=weights, biases=biases)


def parameters(net: Network) -> list:
    out = []
    for w, b in zip(net.weights, net.biases):
        out.extend([w, b])
    return out


def forward(net: Network, x, acts: list | None = None) -> np.ndarray:
    """Affine+tanh composition; accepts a single vector or a (batch, in) matrix.

    When acts is a list, forward appends each layer's input to it: the
    input as a (batch, in) matrix, then every hidden layer's tanh output.
    Those are the activations backward takes, so a forward whose gradient
    is wanted is never run twice.
    """
    X = np.asarray(x, dtype=np.float64)
    single = X.ndim == 1
    h = X[None, :] if single else X
    if h.shape[1] != net.sizes[0]:
        raise ValueError(f"input width {h.shape[1]} != layer size {net.sizes[0]}")
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        if acts is not None:
            acts.append(h)
        # in place on the matmul's fresh array, never on x or a kept activation
        h = h @ w.T
        h += b
        if i < last:
            np.tanh(h, out=h)
    return h[0] if single else h


def backward(net: Network, output_grad, acts: list) -> list:
    """Gradients of sum_b output_b . output_grad_b w.r.t. parameters(net).

    acts are the activations a forward(net, x, acts) call appended for the
    same x; output_grad has one row per row of x (a vector for one row).
    Nothing is recomputed and no argument is written to.
    """
    delta = np.asarray(output_grad, dtype=np.float64)
    if delta.ndim == 1:
        delta = delta[None, :]
    last = len(net.weights) - 1
    grads: list = [None] * (2 * len(net.weights))
    for i in range(last, -1, -1):
        a = acts[i]
        grads[2 * i] = delta.T @ a
        grads[2 * i + 1] = delta.sum(axis=0)
        if i > 0:
            # tanh'(z) = 1 - tanh(z)**2, written into one fresh array
            slope = a * a
            np.subtract(1.0, slope, out=slope)
            delta = delta @ net.weights[i]
            delta *= slope
    return grads


# ---------------------------------------------------------------------------
# Gaussian action head
# ---------------------------------------------------------------------------

@dataclass
class GaussianHead:
    """Diagonal Gaussian over actions; mean comes from a network's output
    and the log-stds are constants, never trained."""

    log_std: np.ndarray

    def std(self) -> np.ndarray:
        return np.exp(self.log_std)


def gaussian_logprob(head: GaussianHead, mean, action):
    mu = np.asarray(mean, dtype=np.float64)
    a = np.asarray(action, dtype=np.float64)
    z = (a - mu) / head.std()
    return -0.5 * np.sum(z * z, axis=-1) - np.sum(head.log_std) \
        - 0.5 * LOG_2PI * head.log_std.size


def gaussian_logprob_grads(head: GaussianHead, mean, action):
    """d logp / d mean, elementwise per row."""
    mu = np.asarray(mean, dtype=np.float64)
    a = np.asarray(action, dtype=np.float64)
    std = head.std()
    return (a - mu) / std / std


def sample_action(head: GaussianHead, mean, rng: np.random.Generator):
    mu = np.asarray(mean, dtype=np.float64)
    action = mu + head.std() * rng.standard_normal(mu.shape)
    return action, gaussian_logprob(head, mu, action)


def gaussian_entropy(head: GaussianHead) -> float:
    return float(np.sum(head.log_std + 0.5 * (1.0 + LOG_2PI)))


# ---------------------------------------------------------------------------
# Designer / controller / value bundle
# ---------------------------------------------------------------------------

HIDDEN = (128, 128, 128)


@dataclass
class PolicyParams:
    designer: Network
    designer_head: GaussianHead
    controller: Network
    controller_head: GaussianHead
    value: Network

    def trainable(self) -> list:
        """Flat list of the policy networks' arrays, stable order.

        Arrays shared between the designer and controller (a common trunk)
        are listed once so optimizers never double-step them.
        """
        out, seen = [], set()
        for a in parameters(self.designer) + parameters(self.controller):
            if id(a) not in seen:
                seen.add(id(a))
                out.append(a)
        return out


def param_count(params: PolicyParams) -> int:
    """Trainable scalar count across designer, controller and value."""
    total = sum(a.size for a in params.trainable())
    total += sum(a.size for a in parameters(params.value))
    return total


def clone_params(params: PolicyParams) -> PolicyParams:
    def copy_net(net: Network) -> Network:
        return Network(net.sizes, [w.copy() for w in net.weights],
                       [b.copy() for b in net.biases])

    return PolicyParams(
        designer=copy_net(params.designer),
        designer_head=GaussianHead(params.designer_head.log_std.copy()),
        controller=copy_net(params.controller),
        controller_head=GaussianHead(params.controller_head.log_std.copy()),
        value=copy_net(params.value),
    )


def copy_params_into(params: PolicyParams, source: PolicyParams) -> None:
    """Copy source's arrays into params in place, so arrays params shares (a
    tied trunk) stay shared; raises ValueError, copying nothing, when the
    shapes differ."""
    pairs = [(params.designer_head.log_std, source.designer_head.log_std),
             (params.controller_head.log_std, source.controller_head.log_std)]
    for name in ("designer", "controller", "value"):
        pairs += zip(parameters(getattr(params, name)),
                     parameters(getattr(source, name)), strict=True)
    if any(a.shape != b.shape for a, b in pairs):
        raise ValueError("parameter shapes differ from the source's")
    for a, b in pairs:
        a[...] = b


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Adaptive moment estimation over a fixed list of arrays, in place."""

    def __init__(self, arrays: list, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.arrays = arrays
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.t = 0

    def step(self, grads: list) -> None:
        if len(grads) != len(self.arrays):
            raise ValueError("gradient list does not match registered arrays")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        for a, g, m, v in zip(self.arrays, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            a -= self.lr * (m / corr1) / (np.sqrt(v / corr2) + self.eps)

    def state(self) -> dict:
        return {"m": [x.copy() for x in self.m], "v": [x.copy() for x in self.v],
                "t": self.t}

    def load_state(self, state: dict) -> None:
        self.m = [np.asarray(x, dtype=np.float64).reshape(a.shape)
                  for x, a in zip(state["m"], self.arrays)]
        self.v = [np.asarray(x, dtype=np.float64).reshape(a.shape)
                  for x, a in zip(state["v"], self.arrays)]
        self.t = int(state["t"])


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1


def _encode(obj):
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        return {"__array__": str(arr.dtype), "shape": list(arr.shape),
                "data": base64.b64encode(arr.tobytes()).decode("ascii")}
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


def _decode(obj):
    if isinstance(obj, dict):
        if "__array__" in obj:
            data = base64.b64decode(obj["data"])
            return np.frombuffer(data, dtype=obj["__array__"]).reshape(obj["shape"]).copy()
        return {k: _decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode(v) for v in obj]
    return obj


def _net_state(net: Network) -> dict:
    return {"sizes": list(net.sizes), "weights": net.weights, "biases": net.biases}


def _net_from_state(state: dict) -> Network:
    sizes = tuple(int(s) for s in state["sizes"])
    return Network(sizes=sizes,
                   weights=[np.asarray(w, dtype=np.float64) for w in state["weights"]],
                   biases=[np.asarray(b, dtype=np.float64) for b in state["biases"]])


def params_state(params: PolicyParams) -> dict:
    # the *_fixed keys stay, always true, so the checkpoint format holds
    return {
        "designer": _net_state(params.designer),
        "designer_log_std": params.designer_head.log_std,
        "designer_fixed": True,
        "controller": _net_state(params.controller),
        "controller_log_std": params.controller_head.log_std,
        "controller_fixed": True,
        "value": _net_state(params.value),
    }


def params_from_state(state: dict) -> PolicyParams:
    for head in ("designer", "controller"):
        if not state[f"{head}_fixed"]:
            raise ValueError(f"checkpoint's {head} head trains its log-stds; "
                             f"only fixed Gaussian heads are supported")
    return PolicyParams(
        designer=_net_from_state(state["designer"]),
        designer_head=GaussianHead(np.asarray(state["designer_log_std"], dtype=np.float64)),
        controller=_net_from_state(state["controller"]),
        controller_head=GaussianHead(np.asarray(state["controller_log_std"], dtype=np.float64)),
        value=_net_from_state(state["value"]),
    )


def save_checkpoint(path, payload: dict) -> None:
    """Write a versioned JSON container with arrays embedded as base64."""
    body = {"version": CHECKPOINT_VERSION}
    body.update(_encode(payload))
    write_atomic(path, json.dumps(body, sort_keys=True, separators=(",", ":")))


def write_atomic(path, text: str) -> None:
    """Replace path's contents with text through a temp file beside it, so
    a write that dies partway leaves the previous file whole."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        body = json.load(fh)
    if not isinstance(body, dict):
        raise ValueError(f"checkpoint {path} must hold a JSON object")
    if body.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {body.get('version')!r}")
    body.pop("version")
    return _decode(body)
