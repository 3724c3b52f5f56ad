"""Dense math shared by the trainers and rankers: weight
initialization, softmax, Adam, and a symmetric positive definite solve.

Everything here works on plain float64 numpy arrays; a weight matrix
has shape (out, in). All routines are deterministic given their inputs
(and the RNG passed in), which the training code relies on for
reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NotPositiveDefiniteError, NumericalError

# Adam's decay rates for the first and second moments, and the
# denominator's guard against division by zero
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


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


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update. Returns new parameter arrays and
    the advanced state; inputs are not mutated."""
    if len(params) != len(grads):
        raise ValueError("params and grads must have the same length")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch: param {p.shape} vs grad {g.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericalError("non-finite gradient in adam_step")
    t = state.step_count + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    new_m, new_v, new_params = [], [], []
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        new_m.append(m)
        new_v.append(v)
        new_params.append(p - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON))
    return new_params, AdamState(new_m, new_v, step_count=t, learning_rate=state.learning_rate)


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
    summed over the batch idx and the gradients of its mean. Returns the
    trained params and each epoch's mean loss; an epoch whose mean loss
    is not finite raises NumericalError. Each step's params are dropped
    once the next exist; a caller that passes the initial params without
    keeping a reference lets them go after the first step."""
    state = AdamState.for_params(params, learning_rate=spec.learning_rate)
    loss_history: list[float] = []
    for epoch in range(spec.epochs):
        order = rng.permutation(m)
        total = 0.0
        for start in range(0, m, spec.batch_size):
            loss, grads = batch_loss_and_grads(params, order[start : start + spec.batch_size])
            total += loss
            params, state = adam_step(params, grads, state)
        mean_loss = total / m
        if not np.isfinite(mean_loss):
            raise NumericalError(
                f"{name} loss diverged at epoch {epoch}; "
                f"last finite epoch losses: {loss_history[-3:]}"
            )
        loss_history.append(mean_loss)
    return params, loss_history


def spd_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A @ X = B for symmetric positive definite A via Cholesky
    factorization (never forms the explicit inverse)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got {A.shape}")
    scale = np.linalg.norm(A)
    if scale > 0 and np.linalg.norm(A - A.T) > 1e-9 * scale:
        raise ValueError("A is not symmetric within 1e-9 relative tolerance")
    try:
        factor = cho_factor(A, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix not positive definite") from exc
    return cho_solve(factor, B, check_finite=False)
