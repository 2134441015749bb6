"""Geometric neuron: forward sandwich, gradients, and training."""

import functools
import math

import numpy as np
import pytest

from confga import (
    DivergenceError,
    SingularWeightError,
    apply,
    embed_point,
    embed_points,
    extract_point,
    fd_gradient,
    forward,
    from_versor,
    generate_dataset,
    gradient,
    loss,
    motor,
    new_neuron,
    reflector_line,
    reflector_plane,
    reflector_sphere,
    rotor,
    scalor,
    train,
    translator,
    make_line,
    GeometricNeuron,
    TrainConfig,
)
from confga import neuron as nn
from confga import tolerance
from confga.conformal import ALG, e1, e2, e3
from confga.versor import _action_matrix

from conftest import assert_mv_close


def gather_reference_gradient(net, samples, penalty):
    """The weight/bias gradient by the per-sample XOR gather: every sample's
    residual is spread over a 32x32 table before the sums over samples."""
    rows = nn._stack(samples)
    X, T = rows.x, rows.t
    n = X.shape[0]
    odd = net.parity == "odd"
    sigma = -1.0 if odd and net.mode == "paper-literal" else 1.0
    q = nn._norm_scalar(net.w)
    Xeff = X * ALG.involute_signs if odd and net.mode == "twisted-adjoint" else X
    wt = ALG.reverse_signs * net.w
    kernel = ALG.left_matrix(wt) @ ALG.right_matrix(net.w)
    Y = (sigma / q) * (Xeff @ kernel.T) + net.theta
    R = Y - T
    U1 = Xeff @ ALG.right_matrix(net.w).T
    U2 = Xeff @ ALG.left_matrix(wt).T
    G = R[:, ALG.xor_table]  # G[n, i, j] = r_n[i xor j]
    t_right = np.einsum("nj,ij,nij->i", U1, ALG.sign_table, G)
    t_left = np.einsum("ni,ij,nij->j", U2, ALG.sign_table, G)
    B = (Y - net.theta) * (q / sigma)
    grad_w = (2.0 * sigma / (n * q)) * (ALG.reverse_signs * t_right + t_left)
    grad_w -= (4.0 * sigma * float(np.sum(R * B)) / (n * q * q)) * (ALG.rev_norm_signs * net.w)
    if penalty:
        m = ALG.left_matrix(net.w) @ wt
        m[0] = 0.0
        grad_w += (4.0 * penalty) * (ALG.right_matrix(wt).T @ m)
    return grad_w, 2.0 * R.mean(axis=0)


@functools.cache
def versor_samples(parity, mode, n, noise):
    """n samples of a versor of the given parity as an (X, T) pair (cached:
    many tests share the N = 20000 sets)."""
    v = motor(e1 ^ e2, 0.7, [0.4, -0.2, 0.3]) if parity == "even" else reflector_sphere([0.2, 0, 0], 1.3)
    return generate_dataset(v, n, seed=17, convention=mode, noise=noise)


def perturbed_fit(rng, parity, mode, n=200, noise=0.0):
    """A neuron moved off its start and n samples of a versor of its parity."""
    net = new_neuron(parity, seed=5, mode=mode)
    net.w = net.w + rng.normal(0, 0.3, 32) * nn.parity_mask(parity)
    net.theta = rng.normal(0, 0.2, 32)
    return net, versor_samples(parity, mode, n, noise)


def blockwise_gradient(net, samples, penalty, block=200):
    """The full-data gradient and loss as the size-weighted mean of the
    full-data results on blocks of `block` rows, added exactly across
    blocks (math.fsum). One float64 sum down 20000 rows is itself off by
    up to ~3e-14 relative, which would swamp the comparison; per block
    the rounding stays that of N = 200. For N <= block this is plain
    `gradient` on the samples."""
    rows = nn._stack(samples)
    parts = [(min(block, rows.n - i) / rows.n,
              gradient(net, (rows.x[i:i + block], rows.t[i:i + block]), penalty=penalty))
             for i in range(0, rows.n, block)]
    if len(parts) == 1:
        return parts[0][1]
    grad_w, grad_theta = (np.array([math.fsum(w * g[k][j] for w, g in parts) for j in range(32)])
                          for k in (0, 1))
    return grad_w, grad_theta, math.fsum(w * g[2] for w, g in parts)


def assert_loss_close(got, want):
    """Equal up to summation order: 1e-14 relative or 1e-18 absolute."""
    assert abs(got - want) <= max(1e-14 * abs(want), 1e-18), (got, want)


def all_operators():
    line = make_line(embed_point([0, 1.0, 0]), embed_point([1.0, 1.0, 0]))
    return {
        "plane": reflector_plane([0.0, 1.0, 0.5], 0.3),
        "sphere": reflector_sphere([0.5, -0.2, 0.0], 1.5),
        "line": reflector_line(line),
        "rotor": rotor(e1 ^ e2, 0.8),
        "translator": translator([0.7, -0.4, 0.1]),
        "motor": motor(e2 ^ e3, 0.6, [0.3, 0.2, -0.1]),
        "scalor": scalor(1.7, [0.5, 0.0, 0.0]),
    }


class TestForward:
    def test_identity_neuron_passes_through(self, rng):
        net = GeometricNeuron(
            w=np.eye(32)[0].copy(), theta=np.zeros(32), parity="even"
        )
        x = ALG.mv(rng.normal(size=32))
        assert_mv_close(forward(net, x), x, tol=1e-15)

    def test_bias_is_added(self):
        theta = np.zeros(32)
        theta[5] = 2.5
        net = GeometricNeuron(w=np.eye(32)[0].copy(), theta=theta, parity="even")
        y = forward(net, ALG.scalar(1.0))
        assert abs(y.coeff(5) - 2.5) <= 1e-15

    def test_versor_weights_reproduce_action(self, rng):
        for name, v in all_operators().items():
            net = from_versor(v)
            mode = "motion" if v.parity == "even" else "reflection"
            for _ in range(5):
                x = embed_point(rng.uniform(-2, 2, size=3))
                want = apply(v, x, mode)
                assert_mv_close(forward(net, x), want, tol=1e-12), name

    def test_versor_weights_zero_loss(self):
        for name, v in all_operators().items():
            net = from_versor(v)
            samples = generate_dataset(v, 50, seed=3)
            assert loss(net, samples) <= 1e-18, name

    def test_paper_literal_representability(self):
        v = reflector_plane([0, 0, 1.0], 0.25)
        net = from_versor(v, mode="paper-literal")
        samples = generate_dataset(v, 40, seed=5, convention="paper-literal")
        assert loss(net, samples) <= 1e-18

    def test_null_weight_is_singular(self):
        net = GeometricNeuron(
            w=embed_point([1.0, 0, 0]).coeffs.copy(), theta=np.zeros(32), parity="odd"
        )
        with pytest.raises(SingularWeightError):
            forward(net, embed_point([0.0, 0.0, 0.0]))

    def test_singular_weight_error_carries_its_numbers(self):
        # <W ~W>_0 = 1e-10 at max|W| = 2 is within 2^-511 + rel * 4 of zero
        w = np.zeros(32)
        w[0b00001] = 2.0
        w[0b10000] = math.sqrt(4.0 - 1e-10)
        net = GeometricNeuron(w=w, theta=np.zeros(32), parity="odd")
        q = float(ALG.rev_norm_signs @ (w * w))
        with pytest.raises(SingularWeightError) as info:
            forward(net, embed_point([0.0, 0.0, 0.0]))
        limit = tolerance.threshold(4.0)
        assert 0.0 < abs(q) <= limit
        assert str(info.value) == (f"<W ~W>_0 = {q} is too close to zero: "
                                   f"|<W ~W>_0| <= {limit}, the threshold at max|W| = 2.0")

    @pytest.mark.parametrize("mode", ["twisted-adjoint", "paper-literal"])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_block_is_the_weight_matrices_bit_for_bit(self, parity, mode):
        # every entry is +-w[i xor j], so one signed gather is exact, signs of zeros included
        rng = np.random.default_rng(23)
        w = rng.normal(size=32) * nn.parity_mask(parity)  # off-parity entries are +0 and -0
        inside = np.flatnonzero(nn.parity_mask(parity))
        w[inside[:2]] = 0.0, -0.0
        assert np.signbit(w[w == 0.0]).any() and not np.signbit(w[w == 0.0]).all()
        wt = ALG.reverse_signs * w
        want = np.concatenate((
            _action_matrix(ALG.right_matrix(w), parity, mode).T,
            _action_matrix(ALG.left_matrix(wt), parity, mode).T,
            ALG.left_matrix(wt),
            ALG.right_matrix(wt).T,
        ), axis=1)
        got = nn._block(w, parity, mode)
        assert got.shape == (32, 128)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_scaled_weight_same_action(self, rng):
        v = rotor(e1 ^ e2, 0.4)
        a, b = from_versor(v), from_versor(v)
        b.w = 3.0 * b.w  # normalization divides the scale back out
        x = embed_point(rng.uniform(-2, 2, size=3))
        assert_mv_close(forward(a, x), forward(b, x), tol=1e-13)


class TestGradient:
    def test_matches_finite_differences(self, rng):
        for trial in range(8):
            parity = "even" if trial % 2 == 0 else "odd"
            mode = "twisted-adjoint" if trial % 3 else "paper-literal"
            net = new_neuron(parity, seed=trial, mode=mode)
            net.w = net.w + rng.normal(0, 0.3, 32) * nn.parity_mask(parity)
            net.theta = rng.normal(0, 0.2, 32)
            v = rotor(e1 ^ e2, 0.7) if parity == "even" else reflector_sphere([0.2, 0, 0], 1.3)
            samples = generate_dataset(v, 10, seed=50 + trial, convention=mode)
            gw, gt, _ = gradient(net, samples, penalty=0.1)
            fw, ft, _ = fd_gradient(net, samples, penalty=0.1)
            assert np.max(np.abs(gw - fw)) <= 1e-5 * max(1.0, np.max(np.abs(fw)))
            assert np.max(np.abs(gt - ft)) <= 1e-5 * max(1.0, np.max(np.abs(ft)))

    @pytest.mark.parametrize("penalty", [0.0, 0.1])
    @pytest.mark.parametrize("mode", ["twisted-adjoint", "paper-literal"])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_matches_gather_reference(self, rng, parity, mode, penalty):
        net, samples = perturbed_fit(rng, parity, mode)
        for got, want in zip(gradient(net, samples, penalty=penalty)[:2],
                             gather_reference_gradient(net, samples, penalty)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("grad", [gradient, fd_gradient], ids=["analytic", "fd"])
    @pytest.mark.parametrize("penalty", [0.0, 0.1])
    @pytest.mark.parametrize("mode", ["twisted-adjoint", "paper-literal"])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_returns_data_loss(self, rng, parity, mode, penalty, grad):
        net, samples = perturbed_fit(rng, parity, mode)
        _, _, data = grad(net, samples, penalty=penalty)
        assert_loss_close(data, loss(net, samples))

    @pytest.mark.parametrize("mode", ["twisted-adjoint", "paper-literal"])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_loss_is_the_analytic_data_loss_exactly(self, rng, parity, mode):
        # one forward pass: loss is the mean squared residual gradient forms
        net, samples = perturbed_fit(rng, parity, mode, noise=0.01)
        for data in (samples, nn.compress(samples)):
            assert loss(net, data) == gradient(net, data)[2]

    @pytest.mark.parametrize("noise", [0.0, 0.01])
    @pytest.mark.parametrize("n", [1, 5, 200, 20000])
    @pytest.mark.parametrize("penalty", [0.0, 0.1])
    @pytest.mark.parametrize("mode", ["twisted-adjoint", "paper-literal"])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_compressed_matches_full_data(self, rng, parity, mode, penalty, n, noise):
        net, samples = perturbed_fit(rng, parity, mode, n=n, noise=noise)
        rows = nn.compress(samples)
        # Z's nonzero columns: 5 input blades, the ones column and the target
        # blades, of which noise fills all 32
        k = rows.x.shape[0]
        assert rows.n == n and k <= min(n, 38)
        if noise:
            assert k == min(n, 38)
        got = gradient(net, rows, penalty=penalty)
        want = blockwise_gradient(net, samples, penalty)
        for g, w in zip(got[:2], want[:2]):
            assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))
        assert abs(got[2] - want[2]) <= 1e-14 * want[2]
        assert abs(loss(net, rows) - want[2]) <= 1e-14 * want[2]

    def test_fd_on_compressed_matches_full_data(self, rng):
        # central differences with h = 1e-6 carry ~1e-8 relative rounding of
        # their own, so the two agree far inside the 1e-5 the analytic check uses
        for parity in ("even", "odd"):
            net, samples = perturbed_fit(rng, parity, "twisted-adjoint", n=200, noise=0.01)
            got = fd_gradient(net, nn.compress(samples), penalty=0.1)
            want = fd_gradient(net, samples, penalty=0.1)
            for g, w in zip(got[:2], want[:2]):
                assert np.max(np.abs(g - w)) <= 1e-6 * max(1.0, np.max(np.abs(w)))
            assert_loss_close(got[2], want[2])

    def test_stack_accepts_pairs_and_rows(self):
        X, T = generate_dataset(reflector_plane([0, 1.0, 0], 0.2), 7, seed=4)
        rows = nn._stack((X, T))
        assert rows.x is X and rows.t is T
        assert np.array_equal(rows.c, np.ones(7)) and rows.n == 7
        compressed = nn.compress((X, T))
        assert nn._stack(compressed) is compressed

    def test_fd_restores_weights_when_objective_raises(self):
        # <W ~W>_0 = 4e-6: stepping w[e1] down by h = 2e-6 makes it singular
        w = np.zeros(32)
        w[0b00001] = 1.0
        w[0b10000] = np.sqrt(1.0 - 4e-6)
        net = GeometricNeuron(w=w, theta=np.zeros(32), parity="odd")
        keep = net.w.copy()
        samples = generate_dataset(reflector_plane([0, 1.0, 0], 0.0), 5, seed=1)
        with pytest.raises(SingularWeightError):
            fd_gradient(net, samples)
        assert np.array_equal(net.w, keep)

    def test_zero_residual_leaves_penalty_only(self):
        v = translator([0.4, 0.0, 0.0])
        net = from_versor(v)
        samples = generate_dataset(v, 10, seed=1)
        gw, gt, _ = gradient(net, samples, penalty=0.0)
        assert np.max(np.abs(gw)) <= 1e-12
        assert np.max(np.abs(gt)) <= 1e-12

    def test_step_decreases_loss(self):
        net = new_neuron("even", seed=11)
        samples = generate_dataset(translator([0.5, 0.1, 0.0]), 30, seed=2)
        before = loss(net, samples)
        gw, gt, _ = gradient(net, samples, penalty=0.1)
        net.w = net.w - 0.01 * gw
        net.theta = net.theta - 0.01 * gt
        assert loss(net, samples) < before

    def test_rejects_empty_samples(self):
        net = new_neuron("even", seed=0)
        with pytest.raises(ValueError):
            loss(net, (np.zeros((0, 32)), np.zeros((0, 32))))

    @pytest.mark.parametrize("shapes", [
        ((5, 31), (5, 31)), ((5, 3), (5, 3)), ((5, 33), (5, 33)), ((0, 32), (0, 32)),
        ((5, 32), (4, 32)), ((5, 32), (5, 31)), ((32,), (32,)), ((1, 5, 32), (1, 5, 32)),
    ], ids=["width-31", "width-3", "width-33", "empty", "unequal-n", "unequal-width", "one-row-1d", "3d"])
    @pytest.mark.parametrize("call", ["loss", "gradient", "fd", "compress", "train"])
    def test_rejects_malformed_pairs(self, shapes, call):
        # refused before any arithmetic: compress would pad a narrow pair's
        # columns, and an empty pair divides by N = 0
        net = new_neuron("even", seed=0)
        pair = tuple(np.ones(shape) for shape in shapes)
        run = {
            "loss": lambda: loss(net, pair),
            "gradient": lambda: gradient(net, pair),
            "fd": lambda: fd_gradient(net, pair),
            "compress": lambda: nn.compress(pair),
            "train": lambda: train(net, pair, TrainConfig(epochs=2)),
        }[call]
        with pytest.raises(ValueError, match=r"need an \(X, T\) pair of \(N, 32\) arrays, N >= 1"):
            run()


class TestTrain:
    def test_learns_a_rotor(self):
        v = rotor(e1 ^ e2, 0.9)
        net = new_neuron("even", seed=42)
        samples = generate_dataset(v, 60, seed=7)
        history = train(net, samples, TrainConfig(tolerance=1e-9))
        assert history[-1] <= 1e-9
        assert history[-1] < history[0]
        p = np.array([1.0, 0.5, -0.3])
        got = forward(net, embed_point(p))
        want = apply(v, embed_point(p), "motion")
        assert (got - want).max_abs() <= 1e-3  # generalizes off the training set

    def test_parity_projection_holds(self):
        net = new_neuron("odd", seed=9)
        v = reflector_sphere([0, 0, 0], 1.0)
        samples = generate_dataset(v, 40, seed=4)
        train(net, samples, TrainConfig(epochs=50))
        assert np.max(np.abs(net.w * nn.parity_mask("even"))) == 0.0

    def test_training_is_deterministic(self):
        v = translator([0.3, -0.2, 0.5])
        runs = []
        for _ in range(2):
            net = new_neuron("even", seed=13)
            samples = generate_dataset(v, 40, seed=21)
            hist = train(net, samples, TrainConfig(epochs=200))
            runs.append((hist, net.w.copy(), net.theta.copy()))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])
        assert np.array_equal(runs[0][2], runs[1][2])

    def test_one_gradient_call_per_epoch(self, monkeypatch):
        # the benchmark's epoch clock wraps nn.gradient to stamp each epoch;
        # one call per step plus one at the weights where training stops
        calls = []
        inner = nn.gradient

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(nn, "gradient", counting)
        for cfg in (TrainConfig(epochs=40), TrainConfig(tolerance=1e-6)):
            calls.clear()
            net = new_neuron("even", seed=1)
            history = train(net, generate_dataset(translator([0.3, 0.0, 0.1]), 30, seed=8), cfg)
            assert len(calls) == len(history) > 1

    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_epochs_see_at_most_65_rows(self, monkeypatch, noise):
        # what makes an epoch's cost independent of N, checked without a clock
        seen = []
        inner = nn.gradient

        def recording(net, samples, *args, **kwargs):
            seen.append(nn._stack(samples).x.shape[0])
            return inner(net, samples, *args, **kwargs)

        monkeypatch.setattr(nn, "gradient", recording)
        samples = versor_samples("even", "twisted-adjoint", 20000, noise)
        history = train(new_neuron("even", seed=1), samples, TrainConfig(epochs=3))
        assert len(seen) == len(history) == 4 and max(seen) <= 65

    @pytest.mark.parametrize("epochs", [0, 1, 7, 5000])
    def test_history_ends_at_returned_weights(self, epochs):
        # 5000 epochs is a run to convergence (1689 steps here)
        net = new_neuron("even", seed=1)
        samples = generate_dataset(translator([0.3, 0.0, 0.1]), 30, seed=8)
        cfg = TrainConfig(epochs=epochs)
        history = train(net, samples, cfg)
        if epochs < 5000:
            assert len(history) == epochs + 1
        else:
            assert len(history) - 1 < epochs and history[-1] <= cfg.tolerance
        assert_loss_close(history[-1], loss(net, samples))

    def test_history_ends_at_the_loss_of_the_compressed_rows_exactly(self):
        net = new_neuron("even", seed=1)
        samples = generate_dataset(translator([0.3, 0.0, 0.1]), 30, seed=8)
        history = train(net, samples, TrainConfig(epochs=7))
        assert history[-1] == loss(net, nn.compress(samples))

    def test_divergence_carries_history(self):
        net = new_neuron("even", seed=3)
        samples = generate_dataset(rotor(e1 ^ e2, 1.2), 30, seed=3)
        with pytest.raises(DivergenceError) as info:
            train(net, samples, TrainConfig(lr=20.0))
        assert len(info.value.history) >= 1

    def test_loss_divergence_carries_history(self):
        # a tiny step keeps the weights in range; the loss starts above the limit
        X, T = generate_dataset(translator([1, 0, 0]), 20, 0)
        with pytest.raises(DivergenceError) as info:
            train(new_neuron("even", 0), (X, T * 1e7), TrainConfig(lr=1e-12, epochs=3))
        history = info.value.history
        assert len(history) == 2 and history[-1] > nn.DIVERGENCE_LIMIT
        assert str(info.value) == f"loss diverged to {history[-1]}"

    def test_already_converged_stops_immediately(self):
        v = rotor(e1 ^ e2, 0.5)
        net = from_versor(v)
        samples = generate_dataset(v, 20, seed=6)
        history = train(net, samples, TrainConfig())
        assert len(history) == 1 and history[0] <= 1e-18

    @pytest.mark.parametrize("args, message", [
        (("oddish", 0), "parity must be one of ('even', 'odd'), got 'oddish'"),
        (("even", 0, "literal"), "mode must be one of ('twisted-adjoint', 'paper-literal'), got 'literal'"),
    ], ids=["parity", "mode"])
    def test_new_neuron_refuses_a_bad_parity_or_mode(self, args, message):
        with pytest.raises(ValueError) as info:
            new_neuron(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("build, message", [
        (lambda v: from_versor(v, "bogus"), "mode must be one of ('twisted-adjoint', 'paper-literal'), got 'bogus'"),
        (lambda v: GeometricNeuron(w=v.mv.coeffs.copy(), theta=np.zeros(32), parity="bogus"),
         "parity must be one of ('even', 'odd'), got 'bogus'"),
        (lambda v: GeometricNeuron(w=v.mv.coeffs.copy(), theta=np.zeros(32), parity="odd", mode="literal"),
         "mode must be one of ('twisted-adjoint', 'paper-literal'), got 'literal'"),
    ], ids=["from-versor-mode", "direct-parity", "direct-mode"])
    def test_every_neuron_refuses_a_bad_parity_or_mode(self, build, message):
        with pytest.raises(ValueError) as info:
            build(reflector_plane([1.0, 0.0, 0.0], 0.5))
        assert str(info.value) == message


class TestDataset:
    def test_deterministic(self):
        v = translator([0.1, 0.2, 0.3])
        a = generate_dataset(v, 10, seed=5)
        b = generate_dataset(v, 10, seed=5)
        for xa, xb in zip(a, b):
            assert xa.shape == (10, 32) and np.array_equal(xa, xb)

    def test_points_in_range(self):
        X, _ = generate_dataset(scalor(2.0), 50, seed=8)
        for x in X:
            p = extract_point(ALG.mv(x))
            assert np.all(np.abs(p) <= 2.0)

    def test_noise_perturbs_targets(self):
        v = translator([0.1, 0.0, 0.0])
        X, T = generate_dataset(v, 5, seed=9, noise=0.01)
        diffs = [(ALG.mv(t) - apply(v, ALG.mv(x), "motion")).max_abs() for x, t in zip(X, T)]
        assert all(0 < d < 0.1 for d in diffs)

    def test_mirror_targets_use_reflection(self, rng):
        v = reflector_plane([0, 0, 1.0], 0.0)
        for x, t in zip(*generate_dataset(v, 5, seed=12)):
            p = extract_point(ALG.mv(x))
            q = extract_point(ALG.mv(t))
            assert np.max(np.abs(q - p * [1, 1, -1])) <= 1e-10

    @pytest.mark.parametrize("noise", [0.0, 0.01])
    @pytest.mark.parametrize("mode", ["twisted-adjoint", "paper-literal"])
    @pytest.mark.parametrize("versor", ["motor", "sphere"])
    def test_arrays_are_embedded_draws_and_their_images(self, versor, mode, noise):
        # X is embed_points of the seeded draws and T is apply on X, exactly;
        # the noise comes from the same generator, after all the points
        v = motor(e2 ^ e3, 0.6, [0.3, 0.2, -0.1]) if versor == "motor" else reflector_sphere([0.2, 0, 0], 1.3)
        X, T = generate_dataset(v, 40, seed=3, noise=noise, convention=mode)
        draws = np.random.default_rng(3)
        want_x = embed_points(draws.uniform(-2.0, 2.0, size=(40, 3)))
        want_t = apply(v, want_x, "motion" if v.parity == "even" else "reflection", convention=mode)
        if noise:
            want_t += draws.normal(0.0, noise, want_t.shape)
        assert np.array_equal(X, want_x) and np.array_equal(T, want_t)
