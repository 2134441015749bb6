"""A trainable geometric neuron: a normalized versor sandwich plus bias.

The neuron holds a weight multivector W of fixed parity, a bias Theta,
and computes

    y(x) = sigma * (~W x' W) / <W ~W>_0 + Theta

In twisted-adjoint mode x' is the grade involution of x when W is odd
(and sigma = 1), which makes an exact versor weight reproduce the versor
action on any multivector. In paper-literal mode x' = x and sigma is
the global sign (-1)^parity. Training minimizes the mean squared error
over raw output coefficients plus a penalty that pushes W ~W toward a
pure scalar, under plain gradient descent with a parity projection of W
after every step. The normalization <W ~W>_0 must stay away from zero;
a null weight (the degenerate point mirror) raises SingularWeightError.

The data are an (X, T) pair of (N, 32) input and target coefficient
arrays (`generate_dataset` draws one), the rows of Z = [X | c | T] with
c the all-ones column; the residuals R = Y - T of the outputs Y are
Z times a matrix that depends only on the weights. So the loss
|R|^2 / N, the bias gradient c^T R and the products X^T R the weight
gradient needs are the same for Z and for the triangular factor Rz of a
thin QR, Z = Q Rz. `train` takes that QR once (`compress`: at most 65
rows for any N) and runs every epoch on Rz, so an epoch costs the same
whatever the number of samples. A QR rather than the Gram matrix Z^T Z
keeps the loss a sum of squares, free of the cancellation a difference
of |T|^2 terms would suffer near convergence (Golub and Van Loan,
Matrix Computations, ch. 5).

There is one forward pass (`_forward`), and it is the one the gradient
differentiates. Every entry of every weight matrix an epoch needs is
+-w[i xor j], so it takes them all in one signed gather of W (`_block`,
32x128): the versor module's action matrices x' -> x' W and
x' -> ~W x' (convention folded in), L(~W) and R(~W)^T. The gather's
index and its four (parity, convention) sign tables are read at import
off those same matrices on constant weights, so the convention is still
decided in one place. Then the partial products U1 = x' W and
U2 = ~W x' are one (k, 32) @ (32, 64) product, the numerators
B = ~W x' W = U1 L(~W)^T and the outputs Y = B / <W ~W>_0 + c Theta^T.
`forward`, `loss` and `gradient` all read it. The gradient sums over
rows before it touches the Cayley table: the 32x32 products C = U1^T R
and D = U2^T R of the partial products with the residuals R (one
(64, k) @ (k, 32) product) meet the table through one (32, 64) gather
of signed entries. The penalty reads R(~W)^T from the same block:
W ~W = R(~W) w, and the penalty's gradient is 4 R(~W)^T times the
non-scalar part of W ~W. `gradient` also
returns the data loss, the mean squared residual of the R it formed,
which is exactly what `loss` returns. The module-level `gradient` is
called once per step, plus once at the weights where training stops,
and its loss is the history entry for the weights it was called at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tolerance
from .algebra import Multivector
from .conformal import ALG, embed_points
from .errors import DivergenceError, SingularWeightError
from .versor import CONVENTIONS, Versor, _action_matrix, apply

PARITIES = ("even", "odd")
# the weight of the penalty on the non-scalar part of W ~W, and the weight
# peak or data loss past which `train` stops with DivergenceError
PENALTY = 0.1
DIVERGENCE_LIMIT = 1e12

_SIGN = ALG.sign_table
_XOR = ALG.xor_table
_REV = ALG.reverse_signs
_KAPPA = ALG.rev_norm_signs
_EVEN_MASK = (ALG.grades % 2 == 0).astype(float)
_ODD_MASK = 1.0 - _EVEN_MASK

# The XOR gathers of C and D as one flat gather of [C; D]:
# sum_j (_GATHER_SIGN * [C; D].take(_GATHER_INDEX))[k, j]
#     = ~k * sum_j S[k,j] C[j, k xor j] + sum_i S[i,k] D[i, i xor k]
# where ~k is the reversion sign of blade k.
_C_INDEX = np.arange(ALG.dim) * ALG.dim + _XOR  # [k, j] -> C[j, k xor j]
_GATHER_INDEX = np.concatenate((_C_INDEX, _C_INDEX + ALG.dim * ALG.dim), axis=1)
_GATHER_SIGN = np.concatenate((_REV[:, None] * _SIGN, _SIGN.T), axis=1)


def _matrices(w: np.ndarray, parity: str, mode: str) -> np.ndarray:
    """An epoch's weight matrices side by side, (32, 128), from the multiplication
    matrices: [x' -> x' W | x' -> ~W x'] (convention folded in), L(~W) and R(~W)^T."""
    w_rev = _REV * w
    left = ALG.left_matrix(w_rev)
    return np.concatenate((
        _action_matrix(ALG.right_matrix(w), parity, mode).T,
        _action_matrix(left, parity, mode).T,
        left,
        ALG.right_matrix(w_rev).T,
    ), axis=1)


# Every entry of `_matrices` is +-w[i xor j]: the index is read off w = 1..32
# and the signs off w = 1, so `_block` gathers them all with one take.
_BLOCK_INDEX = np.abs(_matrices(np.arange(1.0, ALG.dim + 1), "even", "twisted-adjoint")).astype(np.intp) - 1
_BLOCK_SIGN = {(p, c): _matrices(np.ones(ALG.dim), p, c) for p in PARITIES for c in CONVENTIONS}


def _block(w: np.ndarray, parity: str, mode: str) -> np.ndarray:
    """`_matrices(w, parity, mode)` bit for bit, by one signed gather."""
    block = w.take(_BLOCK_INDEX)
    block *= _BLOCK_SIGN[parity, mode]
    return block


@dataclass
class GeometricNeuron:
    w: np.ndarray
    theta: np.ndarray
    parity: str
    mode: str = "twisted-adjoint"

    def __post_init__(self):
        if self.parity not in PARITIES:
            raise ValueError(f"parity must be one of {PARITIES}, got {self.parity!r}")
        if self.mode not in CONVENTIONS:
            raise ValueError(f"mode must be one of {CONVENTIONS}, got {self.mode!r}")

    def weight(self) -> Multivector:
        return ALG.mv(self.w.copy())

    def bias(self) -> Multivector:
        return ALG.mv(self.theta.copy())


class Rows(NamedTuple):
    """Training data as rows of Z = [X | c | T]: the residuals are R = Y - T,
    with Y the outputs of `_forward` on X and c, and the data loss is |R|^2 / n.
    An (X, T) pair has c all ones and n rows; `compress` keeps n and
    replaces the rows by at most 65 that give the same loss and gradient."""

    x: np.ndarray
    c: np.ndarray
    t: np.ndarray
    n: int


@dataclass
class TrainConfig:
    lr: float = 0.015
    epochs: int = 5000
    tolerance: float = 1e-10


def parity_mask(parity: str) -> np.ndarray:
    return _EVEN_MASK if parity == "even" else _ODD_MASK


def new_neuron(parity: str, seed: int, mode: str = "twisted-adjoint") -> GeometricNeuron:
    """Near-identity start: W = 1 (even) or e1 (odd) plus small parity noise."""
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 0.01, ALG.dim) * parity_mask(parity)
    w[0 if parity == "even" else 0b00001] += 1.0
    return GeometricNeuron(w=w, theta=np.zeros(ALG.dim), parity=parity, mode=mode)


def _norm_scalar(w: np.ndarray) -> float:
    q = float(_KAPPA @ (w * w))
    peak = float(np.abs(w).max())
    limit = tolerance.threshold(peak * peak)
    if abs(q) <= limit:
        raise SingularWeightError(
            f"<W ~W>_0 = {q} is too close to zero: |<W ~W>_0| <= {limit}, the threshold at max|W| = {peak}")
    return q


def _forward(neuron: GeometricNeuron, X: np.ndarray, c: np.ndarray):
    """The forward pass on rows X with bias weights c, as (U, B, Y, q, M): the
    weight matrices M = [x' -> x' W | x' -> ~W x' | L(~W) | R(~W)^T] (`_block`),
    the partial products U = [x' W | ~W x'], the numerators
    B = (x' W) L(~W)^T = ~W x' W, the outputs Y = B / q + c Theta^T, and q = <W ~W>_0."""
    q = _norm_scalar(neuron.w)
    M = _block(neuron.w, neuron.parity, neuron.mode)
    U = X @ M[:, :2 * ALG.dim]
    B = U[:, :ALG.dim] @ M[:, 2 * ALG.dim:3 * ALG.dim].T
    Y = B * (1.0 / q)
    Y += c[:, None] * neuron.theta  # outer(c, Theta)
    return U, B, Y, q, M


def _stack(samples) -> Rows:
    """Rows of an (X, T) pair of (N, 32) input and target arrays, N >= 1;
    Rows pass through."""
    if isinstance(samples, Rows):
        return samples
    X, T = samples
    if not (isinstance(X, np.ndarray) and isinstance(T, np.ndarray) and X.shape == T.shape
            and X.ndim == 2 and X.shape[0] and X.shape[1] == ALG.dim):
        raise ValueError(f"need an (X, T) pair of (N, {ALG.dim}) arrays, N >= 1; got {np.shape(X)} and {np.shape(T)}")
    return Rows(X, np.ones(X.shape[0]), T, X.shape[0])


def compress(samples) -> Rows:
    """The data on k <= 65 rows with the same loss and gradient for every
    weight: the triangular factor of a thin QR of Z = [X | c | T], taken
    over Z's nonzero columns and c (k is at most their count, and at most N)."""
    d = _stack(samples)
    xcols, tcols = (np.flatnonzero(a.any(axis=0)) for a in (d.x, d.t))
    Rz = np.linalg.qr(np.column_stack((d.x[:, xcols], d.c, d.t[:, tcols])), mode="r")
    x, t = np.zeros((2, Rz.shape[0], ALG.dim))
    x[:, xcols] = Rz[:, :xcols.size]
    t[:, tcols] = Rz[:, xcols.size + 1:]
    return Rows(x, Rz[:, xcols.size].copy(), t, d.n)


def forward(neuron: GeometricNeuron, x: Multivector) -> Multivector:
    return ALG.mv(_forward(neuron, x.coeffs[None, :], np.ones(1))[2][0])


def loss(neuron: GeometricNeuron, samples) -> float:
    """Mean over samples of the summed squared coefficient error; takes an
    (X, T) pair or Rows, like `gradient`, and equals its data loss exactly."""
    d = _stack(samples)
    R = _forward(neuron, d.x, d.c)[2] - d.t
    return float(np.vdot(R, R)) / d.n


def penalty_value(w: np.ndarray) -> float:
    # the coefficients of W ~W, self-reverse, so only grades 0, 1, 4, 5 survive
    m = ALG.left_matrix(w) @ (_REV * w)
    return float(np.sum(m[1:] ** 2))


def gradient(neuron, samples, penalty: float = PENALTY):
    """Gradient of data loss + penalty with respect to (W, Theta), and the
    data loss itself: returns (grad_w, grad_theta, data_loss).

    `samples` is an (X, T) pair of (N, 32) input and target coefficient
    arrays, or Rows (`compress` gives the same result on at most 65 rows).
    `data_loss` is what `loss` returns for the same weights, taken from the
    residuals the gradient forms anyway.

    It differentiates the sandwich through the left/right multiplication
    operators. With residuals R = Y - T and per-sample partial products
    U1 = x' W and U2 = ~W x', the weight gradient needs
    sum_n sum_j S[i,j] U1[n,j] R[n, i xor j] (and its mirror for U2).
    Summing over samples first turns that into the 32x32 products
    C = U1^T R and D = U2^T R followed by a fixed XOR gather of each.
    `fd_gradient` recomputes the same objective under central differences
    and is the independent check."""
    d = _stack(samples)
    n = d.n
    U, B, R, q, M = _forward(neuron, d.x, d.c)
    R -= d.t

    grad_theta = (2.0 / n) * (d.c @ R)

    CD = U.T @ R  # [C; D]
    r_dot_b = float(np.vdot(R, B))

    grad_w = (2.0 / (n * q)) * np.einsum("kj,kj->k", CD.take(_GATHER_INDEX), _GATHER_SIGN)
    grad_w -= (4.0 * r_dot_b / (n * q * q)) * (_KAPPA * neuron.w)

    if penalty:
        right_t = M[:, 3 * ALG.dim:]  # R(~W)^T
        m = neuron.w @ right_t  # W ~W
        m[0] = 0.0
        grad_w += (4.0 * penalty) * (right_t @ m)
    return grad_w, grad_theta, float(np.vdot(R, R)) / n


def fd_gradient(neuron, samples, penalty: float = PENALTY):
    """`gradient` by central differences of data loss + penalty, for checking it:
    the same arguments and the same (grad_w, grad_theta, data_loss)."""
    d = _stack(samples)

    def J() -> float:
        val = loss(neuron, d)
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
    return grad_w, grad_theta, loss(neuron, d)


def train(neuron: GeometricNeuron, samples, cfg: TrainConfig) -> list[float]:
    """Plain gradient descent; returns the data-loss history (the first
    entry is the starting loss, then one entry per step).

    The (X, T) pair is compressed to at most 65 rows once (`compress`),
    so each epoch costs the same for any number of samples and does one
    forward pass: the module-level `gradient` is called with the
    compressed Rows once per step and once at the weights where training
    stops, and the data loss it returns is the history entry for those
    weights.

    W is projected back onto its parity after every step; Theta is free.
    Raises DivergenceError (carrying the history) if the loss blows up."""
    rows = compress(samples)
    mask = parity_mask(neuron.parity)

    with np.errstate(over="ignore", invalid="ignore"):
        grad_w, grad_theta, data = gradient(neuron, rows, penalty=PENALTY)
        history = [data]
        for _ in range(cfg.epochs):
            if data <= cfg.tolerance:
                break
            neuron.w = (neuron.w - cfg.lr * grad_w) * mask
            neuron.theta = neuron.theta - cfg.lr * grad_theta
            peak = float(np.abs(neuron.w).max())
            if not math.isfinite(peak) or peak > DIVERGENCE_LIMIT:
                raise DivergenceError(f"weight norm diverged to {peak}", history=history)
            grad_w, grad_theta, data = gradient(neuron, rows, penalty=PENALTY)
            history.append(data)
            if not math.isfinite(data) or data > DIVERGENCE_LIMIT:
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
) -> tuple[np.ndarray, np.ndarray]:
    """The (X, T) pair of (n, 32) arrays: rows P(p) with p uniform in
    [-2, 2]^3, and v acting on each row.

    Targets are `apply`'s images, which keep only the action's grade
    blocks, so a point's target is a vector; the weights of the versor
    itself (`from_versor`) reach a loss at rounding level, not exactly 0.
    Noise perturbs every target coefficient."""
    rng = np.random.default_rng(seed)
    mode = "motion" if v.parity == "even" else "reflection"
    X = embed_points(rng.uniform(-2.0, 2.0, size=(n, 3)))
    T = apply(v, X, mode, convention=convention)
    if noise:
        T += rng.normal(0.0, noise, T.shape)
    return X, T
