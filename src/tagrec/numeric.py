"""Dense math shared by the trainers and rankers: weight
initialization, softmax, Adam, and a symmetric positive definite solve.

Everything here works on plain float64 numpy arrays; a weight matrix
has shape (out, in). adam_step, and so train_minibatch, update the
parameter arrays they are given in place; every other routine returns
new arrays. All routines are deterministic given their inputs (and the
RNG passed in), which the training code relies on for
reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError, NumericalError

# Adam's decay rates for the first and second moments, and the
# denominator's guard against division by zero
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# elements adam_step updates per block, so that its scratch blocks and
# the block's slices of params, grads and moments stay in cache (of
# 4,096 to 65,536, 16,384 was fastest at the grid cell's shapes)
ADAM_CHUNK = 16384


def xavier_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Weight matrix of shape (fan_out, fan_in), entries uniform in
    [-L, L] with L = sqrt(6 / (fan_in + fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fans must be >= 1, got ({fan_in}, {fan_out})")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, with the max logit subtracted first
    so large logits cannot overflow."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


@dataclass
class AdamState:
    """Moment estimates for a list of parameter arrays."""

    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    step_count: int = 0
    learning_rate: float = 0.001

    @classmethod
    def for_params(cls, params: list[np.ndarray], learning_rate: float = 0.001) -> "AdamState":
        return cls(
            first_moment=[np.zeros_like(p) for p in params],
            second_moment=[np.zeros_like(p) for p in params],
            learning_rate=learning_rate,
        )


def _check_updatable(kind: str, i: int, a: np.ndarray) -> None:
    flags = a.flags
    if a.dtype != np.float64 or not flags.c_contiguous or not flags.writeable:
        layout = "C-contiguous" if flags.c_contiguous else "not C-contiguous"
        raise ValueError(
            f"adam_step updates arrays in place and needs writeable C-contiguous float64 ones; "
            f"{kind} {i} is {a.dtype} of shape {a.shape}, {layout}"
            + ("" if flags.writeable else ", read-only")
        )


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, in place: writes the new values
    into each param array and into state.first_moment and
    state.second_moment, then advances state.step_count. grads are only
    read. Every check runs before the first write, so a rejected step
    (mismatched lengths or shapes, a non-finite gradient, a param or
    moment that is not a writeable C-contiguous float64 array) changes
    nothing.

    The arrays are walked in blocks of ADAM_CHUNK elements through two
    scratch blocks, so no temporary the size of a param is made. Each
    element goes through the same IEEE operations in the same order as
    p - lr * (m / c1) / (sqrt(v / c2) + eps), with c1 = 1 - b1**t and
    c2 = 1 - b2**t, so the result is bit-identical to that expression."""
    ms, vs = state.first_moment, state.second_moment
    if not len(params) == len(grads) == len(ms) == len(vs):
        raise ValueError("params, grads and both moments must have the same length")
    for i, (p, g, m, v) in enumerate(zip(params, grads, ms, vs)):
        _check_updatable("param", i, p)
        _check_updatable("first moment", i, m)
        _check_updatable("second moment", i, v)
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch: param {p.shape} vs grad {g.shape}")
        if p.shape != m.shape or p.shape != v.shape:
            raise ValueError(f"shape mismatch: param {p.shape} vs moments {m.shape}, {v.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericalError("non-finite gradient in adam_step")
    t = state.step_count + 1
    b1, b2, lr = ADAM_BETA1, ADAM_BETA2, state.learning_rate
    c1, c2 = 1 - b1**t, 1 - b2**t
    scratch, denom = np.empty(ADAM_CHUNK), np.empty(ADAM_CHUNK)
    for p, g, m, v in zip(params, grads, ms, vs):
        # the contiguity check makes every reshape of p, m and v a view
        p, g, m, v = (a.reshape(-1) for a in (p, g, m, v))
        for lo in range(0, p.size, ADAM_CHUNK):
            hi = min(lo + ADAM_CHUNK, p.size)
            pc, gc, mc, vc = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
            s, d = scratch[: hi - lo], denom[: hi - lo]
            mc *= b1
            np.multiply(gc, 1 - b1, out=s)
            mc += s
            vc *= b2
            np.multiply(gc, 1 - b2, out=s)
            s *= gc
            vc += s
            np.divide(vc, c2, out=d)
            np.sqrt(d, out=d)
            d += ADAM_EPSILON
            np.divide(mc, c1, out=s)
            s *= lr
            s /= d
            pc -= s
    state.step_count = t


def train_minibatch(
    params: list[np.ndarray],
    batch_loss_and_grads,
    m: int,
    spec,
    rng: np.random.Generator,
    name: str,
) -> tuple[list[np.ndarray], list[float]]:
    """Minibatch Adam over m examples: spec.epochs epochs, each visiting
    the examples in a fresh rng permutation in batches of
    spec.batch_size. batch_loss_and_grads(params, idx) returns the loss
    summed over the batch idx and the gradients of its mean. Trains the
    given arrays in place, one adam_step per batch, and returns them
    with each epoch's mean loss; an epoch whose mean loss is not finite
    raises NumericalError."""
    state = AdamState.for_params(params, learning_rate=spec.learning_rate)
    loss_history: list[float] = []
    for epoch in range(spec.epochs):
        order = rng.permutation(m)
        total = 0.0
        for start in range(0, m, spec.batch_size):
            loss, grads = batch_loss_and_grads(params, order[start : start + spec.batch_size])
            total += loss
            adam_step(params, grads, state)
        mean_loss = total / m
        if not np.isfinite(mean_loss):
            raise NumericalError(
                f"{name} loss diverged at epoch {epoch}; "
                f"last finite epoch losses: {loss_history[-3:]}"
            )
        loss_history.append(mean_loss)
    return params, loss_history


# rows of each diagonal block of the Cholesky factor that spd_solve's
# substitutions solve at once; the rest of each step is one GEMM
_SOLVE_BLOCK = 128


def spd_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A @ X = B for symmetric positive definite A and a vector or
    matrix B: one Cholesky factorization A = L L^T, then forward and
    back substitution through L in blocks of _SOLVE_BLOCK rows (never
    forms the explicit inverse)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got {A.shape}")
    if B.ndim not in (1, 2) or B.shape[0] != A.shape[0]:
        raise ValueError(f"B must have {A.shape[0]} rows, got {B.shape}")
    if not np.array_equal(A, A.T):
        scale = np.linalg.norm(A)
        if scale > 0 and np.linalg.norm(A - A.T) > 1e-9 * scale:
            raise ValueError("A is not symmetric within 1e-9 relative tolerance")
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix not positive definite") from exc
    X = B.copy()
    starts = range(0, len(A), _SOLVE_BLOCK)
    for a in starts:  # L Y = B
        b = a + _SOLVE_BLOCK
        X[a:b] -= L[a:b, :a] @ X[:a]
        X[a:b] = np.linalg.solve(L[a:b, a:b], X[a:b])
    for a in reversed(starts):  # L^T X = Y
        b = a + _SOLVE_BLOCK
        X[a:b] -= L[b:, a:b].T @ X[b:]
        X[a:b] = np.linalg.solve(L[a:b, a:b].T, X[a:b])
    return X
