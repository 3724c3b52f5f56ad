"""Reference math that only the tests use: a finite-difference
gradient checker, a floored single-example cross-entropy, and the ESZSL
objective with its analytic gradient, whose minimizer is the closed
form tagrec.zsl.eszsl_fit computes."""

from dataclasses import dataclass, field

import numpy as np

from tagrec.supervised import CROSS_ENTROPY_FLOOR


def cross_entropy(probs: np.ndarray, true_index: int) -> float:
    """-log of the probability assigned to the true class, floored at
    1e-12 so an exact zero stays finite."""
    probs = np.asarray(probs, dtype=float)
    if abs(float(np.sum(probs)) - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {np.sum(probs)}, expected 1")
    if not 0 <= true_index < probs.shape[-1]:
        raise IndexError(f"true_index {true_index} out of range for {probs.shape[-1]} classes")
    return float(-np.log(max(float(probs[true_index]), CROSS_ENTROPY_FLOOR)))


@dataclass
class GradCheckReport:
    """Outcome of comparing analytic gradients to central differences."""

    max_relative_error: float
    worst_param: int
    worst_coord: tuple
    n_checked: int
    tolerance: float
    errors: list[float] = field(repr=False, default_factory=list)

    @property
    def passed(self) -> bool:
        return self.max_relative_error <= self.tolerance


def _relative_error(a: float, n: float) -> float:
    denom = abs(a) + abs(n)
    if denom == 0.0:
        return 0.0
    return abs(a - n) / denom


def grad_check(
    loss_and_grad,
    params: list[np.ndarray],
    h: float = 1e-5,
    tolerance: float = 1e-4,
    sample: int | None = None,
    seed: int = 0,
) -> GradCheckReport:
    """Check analytic gradients against central differences.

    `loss_and_grad(params)` must return (loss, grads) with grads a list
    matching `params`. Each checked coordinate is perturbed by +-h and
    the analytic entry compared to (f(p+h) - f(p-h)) / (2h) using the
    symmetric relative error |a - n| / (|a| + |n|). With `sample` set,
    only that many randomly chosen coordinates are checked.
    """
    _, grads = loss_and_grad(params)
    coords = [
        (pi, idx) for pi, p in enumerate(params) for idx in np.ndindex(p.shape)
    ]
    if sample is not None and sample < len(coords):
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(coords), size=sample, replace=False)
        coords = [coords[int(i)] for i in chosen]
    errors = []
    worst = (0.0, -1, ())
    for pi, idx in coords:
        perturbed = [p.copy() for p in params]
        perturbed[pi][idx] += h
        up, _ = loss_and_grad(perturbed)
        perturbed[pi][idx] -= 2 * h
        down, _ = loss_and_grad(perturbed)
        numeric = (up - down) / (2 * h)
        analytic = float(grads[pi][idx])
        err = _relative_error(analytic, numeric)
        errors.append(err)
        if err > worst[0]:
            worst = (err, pi, idx)
    return GradCheckReport(
        max_relative_error=worst[0],
        worst_param=worst[1],
        worst_coord=worst[2],
        n_checked=len(coords),
        tolerance=tolerance,
        errors=errors,
    )


def eszsl_objective(W, X, Y, A, gamma) -> float:
    """The regularized least-squares objective whose exact minimizer is
    the closed form used by eszsl_fit."""
    fit = np.linalg.norm(X.T @ W @ A - Y) ** 2
    reg = (
        gamma * np.linalg.norm(W @ A) ** 2
        + gamma * np.linalg.norm(X.T @ W) ** 2
        + gamma**2 * np.linalg.norm(W) ** 2
    )
    return float(fit + reg)


def eszsl_objective_grad(W, X, Y, A, gamma) -> np.ndarray:
    """Analytic gradient of eszsl_objective with respect to W; zero at
    the closed-form solution."""
    return 2.0 * (
        X @ (X.T @ W @ A - Y) @ A.T
        + gamma * (W @ (A @ A.T))
        + gamma * ((X @ X.T) @ W)
        + gamma**2 * W
    )
