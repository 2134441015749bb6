"""A trainable geometric neuron: a normalized versor sandwich plus bias.

The neuron holds a weight multivector W of fixed parity, a bias Theta,
and computes

    y(x) = sigma * (~W x' W) / <W ~W>_0 + Theta

In twisted-adjoint mode x' is the grade involution of x when W is odd
(and sigma = 1), which makes an exact versor weight reproduce the versor
action on any multivector. In paper-literal mode x' = x and sigma is
the global sign (-1)^parity. The forward pass is the versor module's
action matrix K (built from L(~W) and R(W), convention folded in):
Y = X K^T / <W ~W>_0 + Theta. Training minimizes the mean squared error
over raw output coefficients plus a penalty that pushes W ~W toward a
pure scalar, under plain gradient descent with a parity projection of W
after every step. The normalization <W ~W>_0 must stay away from zero;
a null weight (the degenerate point mirror) raises SingularWeightError.

The analytic gradient takes its partial products U1 = x' W and
U2 = ~W x' from the same action matrix with a unit left or right
factor, and sums over samples before it touches the Cayley table: only
the 32x32 products C = U1^T R and D = U2^T R of those with the residuals
R go through the XOR gather. `train` stacks the samples into coefficient
arrays once and hands the stacked pair to `gradient` every epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerance
from .algebra import Multivector
from .conformal import ALG, embed_points
from .errors import DivergenceError, SingularWeightError
from .versor import CONVENTIONS, Versor, _action_matrix, apply

PARITIES = ("even", "odd")

_SIGN = ALG.sign_table
_XOR = ALG.xor_table
_REV = ALG.reverse_signs
_KAPPA = ALG.rev_norm_signs
_EVEN_MASK = (ALG.grades % 2 == 0).astype(float)
_ODD_MASK = 1.0 - _EVEN_MASK
_ONE = np.eye(ALG.dim)  # L(1) = R(1)

# Flat indices into a 32x32 matrix M: M.flat[_RIGHT_GATHER][i, j] is
# M[j, i xor j] and M.flat[_LEFT_GATHER][i, j] is M[i, i xor j].
_ROWS, _COLS = np.indices((ALG.dim, ALG.dim))
_RIGHT_GATHER = _COLS * ALG.dim + _XOR
_LEFT_GATHER = _ROWS * ALG.dim + _XOR


@dataclass
class GeometricNeuron:
    w: np.ndarray
    theta: np.ndarray
    parity: str
    mode: str = "twisted-adjoint"

    def weight(self) -> Multivector:
        return ALG.mv(self.w.copy())

    def bias(self) -> Multivector:
        return ALG.mv(self.theta.copy())


@dataclass(frozen=True)
class Sample:
    x: Multivector
    target: Multivector


@dataclass
class TrainConfig:
    lr: float = 0.015
    epochs: int = 5000
    tolerance: float = 1e-10
    penalty: float = 0.1
    divergence_limit: float = 1e12


def parity_mask(parity: str) -> np.ndarray:
    if parity not in PARITIES:
        raise ValueError(f"parity must be one of {PARITIES}, got {parity!r}")
    return _EVEN_MASK if parity == "even" else _ODD_MASK


def new_neuron(parity: str, seed: int, mode: str = "twisted-adjoint") -> GeometricNeuron:
    """Near-identity start: W = 1 (even) or e1 (odd) plus small parity noise."""
    mask = parity_mask(parity)
    if mode not in CONVENTIONS:
        raise ValueError(f"mode must be one of {CONVENTIONS}, got {mode!r}")
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 0.01, ALG.dim) * mask
    w[0 if parity == "even" else 0b00001] += 1.0
    return GeometricNeuron(w=w, theta=np.zeros(ALG.dim), parity=parity, mode=mode)


def _norm_scalar(w: np.ndarray) -> float:
    q = float(_KAPPA @ (w * w))
    scale = float(np.max(np.abs(w))) ** 2
    if abs(q) <= tolerance.threshold(max(1.0, scale)):
        raise SingularWeightError(f"<W ~W>_0 = {q} is too close to zero")
    return q


def _operators(neuron: GeometricNeuron) -> tuple[np.ndarray, np.ndarray, float]:
    """L(~W), R(W) and <W ~W>_0 for the current weight."""
    q = _norm_scalar(neuron.w)
    return ALG.left_matrix(_REV * neuron.w), ALG.right_matrix(neuron.w), q


def _outputs(neuron: GeometricNeuron, X: np.ndarray) -> np.ndarray:
    left, right, q = _operators(neuron)
    K = _action_matrix(left, right, neuron.parity, neuron.mode)
    return (1.0 / q) * (X @ K.T) + neuron.theta


def _stack(samples) -> tuple[np.ndarray, np.ndarray]:
    """(X, T) coefficient arrays, one row per sample, from a sequence of
    Samples; an already-stacked (X, T) pair of arrays passes through."""
    if isinstance(samples, tuple) and len(samples) == 2 and isinstance(samples[0], np.ndarray):
        return samples
    if not samples:
        raise ValueError("need at least one sample")
    X = np.stack([s.x.coeffs for s in samples])
    T = np.stack([s.target.coeffs for s in samples])
    return X, T


def forward(neuron: GeometricNeuron, x: Multivector) -> Multivector:
    return ALG.mv(_outputs(neuron, x.coeffs[None, :])[0])


def loss(neuron: GeometricNeuron, samples) -> float:
    """Mean over samples of the summed squared coefficient error; takes
    Samples or an already-stacked (X, T) pair, like `gradient`."""
    X, T = _stack(samples)
    Y = _outputs(neuron, X)
    return float(np.mean(np.sum((Y - T) ** 2, axis=1)))


def _weight_gram(w: np.ndarray) -> np.ndarray:
    # coefficients of W ~W; self-reverse, so only grades 0, 1, 4, 5 survive
    return ALG.left_matrix(w) @ (_REV * w)


def penalty_value(w: np.ndarray) -> float:
    m = _weight_gram(w)
    return float(np.sum(m[1:] ** 2))


def gradient(neuron, samples, penalty: float = 0.1, method: str = "analytic"):
    """Gradient of data loss + penalty with respect to (W, Theta).

    `samples` is a sequence of Samples or an already-stacked (X, T) pair
    of (N, 32) input and target coefficient arrays.

    The analytic path differentiates the sandwich through the left/right
    multiplication operators. With residuals R = Y - T and per-sample
    partial products U1 = x' W and U2 = ~W x', the weight gradient needs
    sum_n sum_j S[i,j] U1[n,j] R[n, i xor j] (and its mirror for U2).
    Summing over samples first turns that into the 32x32 products
    C = U1^T R and D = U2^T R followed by a fixed XOR gather of each.
    'fd' recomputes the same objective under central differences and is
    the independent check."""
    if method == "fd":
        return _fd_gradient(neuron, samples, penalty)
    if method != "analytic":
        raise ValueError(f"method must be 'analytic' or 'fd', got {method!r}")

    X, T = _stack(samples)
    n = X.shape[0]
    left, right, q = _operators(neuron)
    U1 = X @ _action_matrix(_ONE, right, neuron.parity, neuron.mode).T  # rows: x' W
    U2 = X @ _action_matrix(left, _ONE, neuron.parity, neuron.mode).T  # rows: ~W x'
    B = U1 @ left.T  # rows: numerator ~W x' W
    R = (1.0 / q) * B + neuron.theta - T

    grad_theta = 2.0 * R.mean(axis=0)

    C = U1.T @ R
    D = U2.T @ R
    t_right = np.sum(_SIGN * C.ravel()[_RIGHT_GATHER], axis=1)  # sum_j S[i,j] C[j, i^j]
    t_left = np.sum(_SIGN * D.ravel()[_LEFT_GATHER], axis=0)  # sum_i S[i,j] D[i, i^j]
    r_dot_b = float(np.einsum("nk,nk->", R, B))

    grad_w = (2.0 / (n * q)) * (_REV * t_right + t_left)
    grad_w -= (4.0 * r_dot_b / (n * q * q)) * (_KAPPA * neuron.w)

    if penalty:
        m = _weight_gram(neuron.w)
        m[0] = 0.0
        grad_w += (4.0 * penalty) * (ALG.right_matrix(_REV * neuron.w).T @ m)
    return grad_w, grad_theta


def _fd_gradient(neuron, samples, penalty: float):
    X, T = _stack(samples)

    def J() -> float:
        val = loss(neuron, (X, T))
        return val + penalty * penalty_value(neuron.w) if penalty else val

    grad_w = np.zeros(ALG.dim)
    grad_theta = np.zeros(ALG.dim)
    for vec, out in ((neuron.w, grad_w), (neuron.theta, grad_theta)):
        for i in range(ALG.dim):
            h = 1e-6 * (1.0 + abs(vec[i]))
            keep = vec[i]
            try:
                vec[i] = keep + h
                hi = J()
                vec[i] = keep - h
                lo = J()
            finally:
                vec[i] = keep
            out[i] = (hi - lo) / (2.0 * h)
    return grad_w, grad_theta


def train(neuron: GeometricNeuron, samples, cfg: TrainConfig) -> list[float]:
    """Plain gradient descent; returns the data-loss history (the first
    entry is the starting loss, then one entry per step).

    The samples are stacked once; each epoch makes exactly one call to
    the module-level `gradient` with the stacked (X, T) pair.

    W is projected back onto its parity after every step; Theta is free.
    Raises DivergenceError (carrying the history) if the loss blows up."""
    stacked = _stack(samples)
    mask = parity_mask(neuron.parity)

    with np.errstate(over="ignore", invalid="ignore"):
        data = loss(neuron, stacked)
        history = [data]
        for _ in range(cfg.epochs):
            if data <= cfg.tolerance:
                break
            grad_w, grad_theta = gradient(neuron, stacked, penalty=cfg.penalty)
            neuron.w = (neuron.w - cfg.lr * grad_w) * mask
            neuron.theta = neuron.theta - cfg.lr * grad_theta
            peak = float(np.max(np.abs(neuron.w)))
            if not np.isfinite(peak) or peak > cfg.divergence_limit:
                raise DivergenceError(f"weight norm diverged to {peak}", history=history)
            data = loss(neuron, stacked)
            history.append(data)
            if not np.isfinite(data) or data > cfg.divergence_limit:
                raise DivergenceError(f"loss diverged to {data}", history=history)
    return history


def from_versor(v: Versor, mode: str = "twisted-adjoint") -> GeometricNeuron:
    """Neuron whose weight is the versor itself; reproduces its action exactly."""
    return GeometricNeuron(w=v.mv.coeffs.copy(), theta=np.zeros(ALG.dim), parity=v.parity, mode=mode)


def generate_dataset(
    v: Versor,
    n: int,
    seed: int,
    noise: float = 0.0,
    convention: str = "twisted-adjoint",
    normalize_point_targets: bool = False,
):
    """Samples (P(p), v acting on P(p)) with p uniform in [-2, 2]^3.

    Targets keep the raw sandwich coefficients so that exact versor
    weights reach exactly zero loss; optional normalization rescales each
    target to unit e0 coefficient, and noise perturbs target coefficients."""
    rng = np.random.default_rng(seed)
    mode = "motion" if v.parity == "even" else "reflection"
    xs = [Multivector(ALG, x, copy=False) for x in embed_points(rng.uniform(-2.0, 2.0, size=(n, 3)))]
    Y = np.array([y.coeffs for y in apply(v, xs, mode, convention=convention)]).reshape(-1, ALG.dim)
    if normalize_point_targets:
        Y /= (Y[:, 0b10000] - Y[:, 0b01000])[:, None]
    if noise:
        Y += rng.normal(0.0, noise, Y.shape)
    return [Sample(x=x, target=ALG.mv(y)) for x, y in zip(xs, Y)]
