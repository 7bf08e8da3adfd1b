import math
import os

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toolsmith import neural
from toolsmith.neural import (
    Adam,
    GaussianHead,
    Network,
    PolicyParams,
    backward,
    clone_params,
    copy_params_into,
    forward,
    gaussian_entropy,
    gaussian_logprob,
    gaussian_logprob_grads,
    init_network,
    load_checkpoint,
    parameters,
    params_from_state,
    params_state,
    sample_action,
    save_checkpoint,
)


def slow_forward(net, x):
    """Independent re-implementation: explicit loops, no matrix ops."""
    h = [float(v) for v in x]
    last = len(net.weights) - 1
    for li, (w, b) in enumerate(zip(net.weights, net.biases)):
        out = []
        for i in range(w.shape[0]):
            s = float(b[i])
            for j in range(w.shape[1]):
                s += float(w[i, j]) * h[j]
            out.append(math.tanh(s) if li < last else s)
        h = out
    return np.array(h)


def random_net(rng, sizes=None):
    if sizes is None:
        depth = rng.integers(1, 4)
        sizes = [int(rng.integers(2, 7)) for _ in range(depth + 1)]
    net = init_network(sizes, rng)
    for w in net.weights:
        w += 0.3 * rng.standard_normal(w.shape)
    for b in net.biases:
        b += 0.3 * rng.standard_normal(b.shape)
    return net


# -- forward ------------------------------------------------------------------

def test_forward_zero_params_zero_output():
    net = Network((3, 4, 2), [np.zeros((4, 3)), np.zeros((2, 4))],
                  [np.zeros(4), np.zeros(2)])
    assert np.array_equal(forward(net, np.ones(3)), np.zeros(2))


def test_forward_identity_linear_layer():
    net = Network((3, 3), [np.eye(3)], [np.zeros(3)])
    x = np.array([0.3, -1.2, 4.0])
    assert np.array_equal(forward(net, x), x)


def test_forward_matches_loop_reimplementation():
    rng = np.random.default_rng(0)
    for _ in range(25):
        net = random_net(rng)
        x = rng.standard_normal(net.sizes[0])
        assert np.allclose(forward(net, x), slow_forward(net, x), atol=1e-12)


def test_forward_batch_consistent_with_rows():
    rng = np.random.default_rng(1)
    net = random_net(rng, sizes=(4, 8, 3))
    X = rng.standard_normal((6, 4))
    Y = forward(net, X)
    for i in range(6):
        assert np.allclose(Y[i], forward(net, X[i]), atol=1e-14)


def test_forward_is_pure():
    rng = np.random.default_rng(2)
    net = random_net(rng)
    x = rng.standard_normal(net.sizes[0])
    assert np.array_equal(forward(net, x), forward(net, x))


def test_forward_shape_mismatch_raises():
    net = init_network((3, 2), np.random.default_rng(0))
    with pytest.raises(ValueError):
        forward(net, np.zeros(4))


# -- backward -----------------------------------------------------------------

def grads_at(net, x, output_grad):
    """backward at x, from the activations of one forward."""
    acts = []
    forward(net, x, acts)
    return backward(net, output_grad, acts)


def test_backward_linear_layer_closed_form():
    net = Network((3, 2), [np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])],
                  [np.zeros(2)])
    x = np.array([0.5, -1.0, 2.0])
    g = np.array([1.0, -2.0])
    dw, db = grads_at(net, x, g)
    assert np.array_equal(dw, np.outer(g, x))
    assert np.array_equal(db, g)


def test_backward_zero_grad_gives_zero():
    rng = np.random.default_rng(3)
    net = random_net(rng)
    grads = grads_at(net, rng.standard_normal(net.sizes[0]),
                     np.zeros(net.sizes[-1]))
    assert all(np.all(g == 0.0) for g in grads)


def fd_gradients(net, x, v, h=1e-5):
    """Central finite differences of v . forward(net, x) per parameter."""
    out = []
    for arr in parameters(net):
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            old = arr[idx]
            arr[idx] = old + h
            hi = float(v @ forward(net, x))
            arr[idx] = old - h
            lo = float(v @ forward(net, x))
            arr[idx] = old
            g[idx] = (hi - lo) / (2.0 * h)
            it.iternext()
        out.append(g)
    return out


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(10):
        net = random_net(rng)
        x = rng.standard_normal(net.sizes[0])
        v = rng.standard_normal(net.sizes[-1])
        ana = grads_at(net, x, v)
        num = fd_gradients(net, x, v)
        for a, n in zip(ana, num):
            denom = np.maximum(np.abs(n), 1e-6)
            assert np.max(np.abs(a - n) / denom) < 1e-4


def test_backward_batch_sums_row_gradients():
    rng = np.random.default_rng(5)
    net = random_net(rng, sizes=(3, 5, 2))
    X = rng.standard_normal((4, 3))
    G = rng.standard_normal((4, 2))
    batched = grads_at(net, X, G)
    summed = [np.zeros_like(g) for g in batched]
    for i in range(4):
        for acc, g in zip(summed, grads_at(net, X[i], G[i])):
            acc += g
    for a, b in zip(batched, summed):
        assert np.allclose(a, b, atol=1e-12)


def recompute_backward(net, x, output_grad):
    """The backward that reran the forward itself, kept as the reference
    the cached-activation backward must match bit for bit."""
    X = np.asarray(x, dtype=np.float64)
    G = np.asarray(output_grad, dtype=np.float64)
    if X.ndim == 1:
        X, G = X[None, :], G[None, :]
    last = len(net.weights) - 1
    acts = [X]
    h = X
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w.T + b
        if i < last:
            h = np.tanh(h)
        acts.append(h)
    grads = [None] * (2 * len(net.weights))
    delta = G
    for i in range(last, -1, -1):
        grads[2 * i] = delta.T @ acts[i]
        grads[2 * i + 1] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i]) * (1.0 - acts[i] ** 2)
    return grads, h


layer_sizes = st.lists(st.integers(1, 9), min_size=2, max_size=5)
row_counts = st.integers(1, 7)
data_seeds = st.integers(0, 2 ** 32 - 1)


def net_and_rows(sizes, rows, seed, vector):
    """A perturbed network, inputs and output gradients; one row is given
    as plain vectors when vector is set."""
    rng = np.random.default_rng(seed)
    net = random_net(rng, sizes=sizes)
    x = rng.standard_normal((rows, sizes[0]))
    g = rng.standard_normal((rows, sizes[-1]))
    if vector and rows == 1:
        x, g = x[0], g[0]
    return net, x, g


@settings(max_examples=80)
@given(layer_sizes, row_counts, data_seeds, st.booleans())
def test_cached_backward_is_bitwise_the_recomputed_one(sizes, rows, seed,
                                                        vector):
    net, x, g = net_and_rows(sizes, rows, seed, vector)
    acts = []
    out = forward(net, x, acts)
    ref_grads, ref_out = recompute_backward(net, x, g)
    assert np.array_equal(out, ref_out[0] if x.ndim == 1 else ref_out)
    assert len(acts) == len(net.weights)
    for got, ref in zip(backward(net, g, acts), ref_grads, strict=True):
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


@settings(max_examples=80)
@given(layer_sizes, row_counts, data_seeds, st.booleans())
def test_forward_and_backward_write_into_no_argument(sizes, rows, seed,
                                                     vector):
    net, x, g = net_and_rows(sizes, rows, seed, vector)
    x_before, g_before = x.copy(), g.copy()
    params_before = [a.copy() for a in parameters(net)]
    acts = []
    forward(net, x, acts)
    assert np.array_equal(x, x_before)
    acts_before = [a.copy() for a in acts]
    backward(net, g, acts)
    assert np.array_equal(x, x_before)
    assert np.array_equal(g, g_before)
    for a, before in zip(acts, acts_before, strict=True):
        assert np.array_equal(a, before)
    for a, before in zip(parameters(net), params_before, strict=True):
        assert np.array_equal(a, before)


# -- gaussian head --------------------------------------------------------------

def test_logprob_at_mean_unit_std():
    head = GaussianHead(np.zeros(1))
    lp = gaussian_logprob(head, np.array([0.7]), np.array([0.7]))
    assert lp == pytest.approx(-0.5 * math.log(2.0 * math.pi), abs=1e-12)


def test_logprob_one_sigma_point():
    log_std = 0.7
    head = GaussianHead(np.array([log_std]))
    mu = np.array([1.3])
    a = mu + math.exp(log_std)
    lp = gaussian_logprob(head, mu, a)
    assert lp == pytest.approx(-0.5 - log_std - 0.5 * math.log(2.0 * math.pi),
                               abs=1e-12)


def test_logprob_matches_high_precision():
    mp.mp.dps = 40
    rng = np.random.default_rng(6)
    for _ in range(30):
        d = int(rng.integers(1, 6))
        head = GaussianHead(rng.uniform(-2, 1, d))
        mu = rng.standard_normal(d)
        a = rng.standard_normal(d)
        expected = mp.mpf(0)
        for k in range(d):
            s = mp.e ** mp.mpf(float(head.log_std[k]))
            z = (mp.mpf(float(a[k])) - mp.mpf(float(mu[k]))) / s
            expected += -mp.mpf("0.5") * z * z - mp.log(s) \
                - mp.mpf("0.5") * mp.log(2 * mp.pi)
        got = gaussian_logprob(head, mu, a)
        assert abs(float(expected) - float(got)) < 1e-10


def test_logprob_batched_rows():
    head = GaussianHead(np.array([0.1, -0.4]))
    mu = np.random.default_rng(7).standard_normal((5, 2))
    a = mu + 0.3
    lps = gaussian_logprob(head, mu, a)
    assert lps.shape == (5,)
    for i in range(5):
        assert lps[i] == pytest.approx(float(gaussian_logprob(head, mu[i], a[i])),
                                       abs=1e-14)


def test_logprob_maximized_at_mean():
    rng = np.random.default_rng(8)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        head = GaussianHead(rng.uniform(-1, 1, d))
        mu = rng.standard_normal(d)
        at_mean = gaussian_logprob(head, mu, mu)
        for _ in range(5):
            off = mu + rng.standard_normal(d) * 0.5
            if not np.allclose(off, mu):
                assert gaussian_logprob(head, mu, off) < at_mean


def test_logprob_grads_match_finite_differences():
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(10):
        d = int(rng.integers(1, 5))
        head = GaussianHead(rng.uniform(-1, 0.5, d))
        mu = rng.standard_normal(d)
        a = mu + rng.standard_normal(d)
        dmu = gaussian_logprob_grads(head, mu, a)
        for k in range(d):
            mu2 = mu.copy(); mu2[k] += h
            mu3 = mu.copy(); mu3[k] -= h
            fd = (gaussian_logprob(head, mu2, a) - gaussian_logprob(head, mu3, a)) / (2 * h)
            assert dmu[k] == pytest.approx(float(fd), rel=1e-4, abs=1e-7)


def test_sample_degenerate_std_returns_mean():
    head = GaussianHead(np.full(3, -20.0))
    mu = np.array([1.0, -2.0, 0.5])
    a, _ = sample_action(head, mu, np.random.default_rng(0))
    assert np.allclose(a, mu, atol=1e-8)


def test_sample_mean_statistics():
    head = GaussianHead(np.array([0.3]))
    mu = np.array([2.0])
    rng = np.random.default_rng(10)
    n = 100_000
    draws = np.array([sample_action(head, mu, rng)[0][0] for _ in range(n)])
    sigma = math.exp(0.3)
    assert abs(draws.mean() - 2.0) < 4.0 * sigma / math.sqrt(n)


def test_sample_deterministic_with_seed():
    head = GaussianHead(np.array([0.0, 0.0]))
    mu = np.zeros(2)
    a1 = [sample_action(head, mu, np.random.default_rng(5))[0] for _ in range(3)]
    a2 = [sample_action(head, mu, np.random.default_rng(5))[0] for _ in range(3)]
    for x, y in zip(a1, a2):
        assert np.array_equal(x, y)


def test_sample_logprob_consistent():
    head = GaussianHead(np.array([-0.5, 0.2]))
    mu = np.array([1.0, -1.0])
    a, lp = sample_action(head, mu, np.random.default_rng(11))
    assert lp == pytest.approx(float(gaussian_logprob(head, mu, a)), abs=1e-14)


def test_entropy_closed_form():
    head = GaussianHead(np.array([0.0, 0.5]))
    expected = sum(ls + 0.5 * (1.0 + math.log(2 * math.pi)) for ls in (0.0, 0.5))
    assert gaussian_entropy(head) == pytest.approx(expected, abs=1e-12)


# -- init / bundle ---------------------------------------------------------------

def test_orthogonal_init_rows_orthonormal():
    rng = np.random.default_rng(12)
    net = init_network((64, 32, 8), rng, output_gain=0.01)
    w0 = net.weights[0]
    assert np.allclose(w0 @ w0.T, np.eye(32), atol=1e-10)
    w1 = net.weights[1]
    assert np.allclose(w1 @ w1.T, 1e-4 * np.eye(8), atol=1e-10)
    assert all(np.all(b == 0.0) for b in net.biases)


def small_policy(rng, design_in=3, hidden=(4,), design_log_std=0.0,
                 control_log_std=0.0) -> PolicyParams:
    """A small bundle: 5 design and 2 control outputs, 8 control and 9
    value inputs."""
    return PolicyParams(
        designer=init_network((design_in, *hidden, 5), rng, output_gain=0.01),
        designer_head=GaussianHead(np.full(5, design_log_std)),
        controller=init_network((8, *hidden, 2), rng, output_gain=0.01),
        controller_head=GaussianHead(np.full(2, control_log_std)),
        value=init_network((9, *hidden, 1), rng),
    )


def test_trainable_excludes_fixed_log_std():
    rng = np.random.default_rng(14)
    p = small_policy(rng)
    assert all(a is not p.designer_head.log_std for a in p.trainable())
    assert all(a is not p.controller_head.log_std for a in p.trainable())


def test_clone_params_independent():
    rng = np.random.default_rng(15)
    p = small_policy(rng)
    q = clone_params(p)
    q.designer.weights[0][0, 0] += 1.0
    assert p.designer.weights[0][0, 0] != q.designer.weights[0][0, 0]


def test_copy_params_into_keeps_shared_arrays_and_checks_shapes():
    rng = np.random.default_rng(18)
    p, src = [small_policy(rng, design_in=8) for _ in range(2)]
    for bundle in (p, src):  # a first layer shared by designer and controller
        bundle.controller.weights[0] = bundle.designer.weights[0]
    copy_params_into(p, src)
    assert p.controller.weights[0] is p.designer.weights[0]
    for a, b in zip(p.trainable(), src.trainable()):
        assert np.array_equal(a, b)
    before = [a.copy() for a in p.trainable()]
    with pytest.raises(ValueError):
        copy_params_into(p, small_policy(rng, design_in=8, hidden=(6,)))
    with pytest.raises(ValueError):
        copy_params_into(p, small_policy(rng, design_in=8, hidden=(4, 4)))
    for a, b in zip(p.trainable(), before):
        assert np.array_equal(a, b)


# -- optimizer --------------------------------------------------------------------

def test_adam_descends_quadratic():
    x = np.array([5.0, -3.0])
    opt = Adam([x], lr=0.1)
    for _ in range(500):
        opt.step([2.0 * x])
    assert np.allclose(x, 0.0, atol=1e-3)


def test_adam_state_round_trip():
    x = np.array([1.0, 2.0])
    a = Adam([x], lr=0.01)
    for _ in range(5):
        a.step([x.copy()])
    saved = a.state()
    y = x.copy()
    b = Adam([y], lr=0.01)
    b.load_state(saved)
    ga, gb = x.copy(), y.copy()
    a.step([ga])
    b.step([gb])
    assert np.array_equal(x, y)


# -- checkpoints -------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    p = small_policy(rng, design_log_std=-2.3, control_log_std=-1.0)
    payload = {
        "params": params_state(p),
        "env_steps": 1234,
        "config_hash": "abc",
        "rng_state": np.random.default_rng(7).bit_generator.state,
    }
    path = tmp_path / "ck.json"
    save_checkpoint(path, payload)
    loaded = load_checkpoint(path)
    q = params_from_state(loaded["params"])
    for a, b in zip(parameters(p.designer), parameters(q.designer)):
        assert np.array_equal(a, b)
    assert np.array_equal(q.designer_head.log_std, p.designer_head.log_std)
    assert loaded["params"]["designer_fixed"] is True
    assert loaded["params"]["controller_fixed"] is True
    assert loaded["env_steps"] == 1234
    rng2 = np.random.default_rng(0)
    rng2.bit_generator.state = loaded["rng_state"]
    assert rng2.standard_normal() == np.random.default_rng(7).standard_normal()


def test_checkpoint_bytes_deterministic(tmp_path):
    rng = np.random.default_rng(17)
    p = small_policy(rng)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(p1, {"params": params_state(p)})
    save_checkpoint(p2, {"params": params_state(p)})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 99}')
    with pytest.raises(ValueError):
        load_checkpoint(path)


@pytest.mark.parametrize("head", ["designer", "controller"])
def test_params_from_state_rejects_a_trained_head(tmp_path, head):
    """Gaussian heads are always fixed: a checkpoint whose head trained its
    log-stds is refused, not loaded as if fixed."""
    p = small_policy(np.random.default_rng(19))
    path = tmp_path / "ck.json"
    save_checkpoint(path, {"params": {**params_state(p), f"{head}_fixed": False}})
    with pytest.raises(ValueError, match=head):
        params_from_state(load_checkpoint(path)["params"])

def test_checkpoint_write_that_dies_leaves_the_previous_file(tmp_path,
                                                           monkeypatch):
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, {"env_steps": 1, "a": np.arange(3.0)})
    before = path.read_bytes()

    class DiesHalfway:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            raise OSError("no space left on device")

    monkeypatch.setattr(neural, "open", lambda *a, **k: DiesHalfway(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError):
        save_checkpoint(path, {"env_steps": 2, "a": np.arange(5.0)})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_checkpoint(path)["env_steps"] == 1
    assert os.listdir(tmp_path) == ["checkpoint.json"]
