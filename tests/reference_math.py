"""Reference math that only the tests use: a finite-difference
gradient checker, a floored single-example cross-entropy, the ESZSL
objective with its analytic gradient, whose minimizer is the closed
form tagrec.zsl.eszsl_fit computes, a plain-loop skip-gram trainer
with the update rule of tagrec.embedding.train_sgns, plain-loop
scores of the three zero-shot rankers, one candidate column at a time,
DEM's grouping of identical candidate columns (distinct_columns_reference),
the baseline's label probabilities for one tweet (predict_proba), one
hashtag's attribute vector (label_embedding), the skip-gram pairs of
a sentence as a list (skipgram_pairs), a corpus with two
interchangeable tokens for embedding checks (make_synonym_corpus), and
a word2vec text reader that converts one value at a time with float()
(load_embeddings_reference), and the Adam step that allocates fresh
arrays, which tagrec.numeric.adam_step must match bit for bit in place
(adam_step_reference)."""

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from tagrec.embedding import Vocabulary, _pair_positions
from tagrec.errors import DataError, NumericalError, not_text
from tagrec.numeric import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, AdamState, softmax
from tagrec.supervised import CROSS_ENTROPY_FLOOR, BaselineClassifier, extract_features


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


def sgns_reference(sentences, vocab, config, max_update_pairs: int):
    """Skip-gram with negative sampling in plain loops, one update per
    sentence (per slice of max_update_pairs pairs of a longer one):
    each pair's gradient is taken at the vectors as they stood when the
    update began, scaled by that pair's decayed step, and added in pair
    order. Draws its random numbers in the order train_sgns does.

    Returns (word vectors, epoch losses, and one (context, negatives)
    entry per trained pair). The losses are computed from both the word
    and the context vectors, so they check the updates of both.
    """
    rng = np.random.default_rng(config.seed)
    V, d, k, w = len(vocab), config.dim, config.negatives, config.window
    inp = (rng.random((V, d)) - 0.5) / d
    out = np.zeros((V, d))
    counts = np.asarray(vocab.counts, dtype=float)
    noise_cdf = np.cumsum(counts**0.75 / (counts**0.75).sum())
    keep_prob = None
    if config.subsample_threshold is not None:
        keep_prob = np.minimum(1.0, np.sqrt(config.subsample_threshold / (counts / counts.sum())))

    def pairs(sent):
        return [
            (sent[i], sent[j])
            for i in range(len(sent))
            for j in range(max(0, i - w), min(len(sent), i + w + 1))
            if j != i
        ]

    def dot(a, b):
        return sum(float(x) * float(y) for x, y in zip(a, b))

    def log_sigmoid(x):
        return -float(np.logaddexp(0.0, -x))

    indexed = [[vocab.index[t] for t in s if t in vocab.index] for s in sentences]
    all_pairs = [p for sent in indexed for p in pairs(sent)]
    eval_rng = np.random.default_rng([config.seed, 1])
    eval_negatives = np.searchsorted(noise_cdf, eval_rng.random((len(all_pairs), k)))
    planned = config.epochs * len(all_pairs)
    processed = 0
    losses, trained = [], []
    for _ in range(config.epochs):
        for sent in indexed:
            if keep_prob is not None and sent:
                mask = rng.random(len(sent)) < keep_prob[sent]
                sent = [t for t, m in zip(sent, mask) if m]
            sent_pairs = pairs(sent)
            if not sent_pairs:
                continue
            negatives = np.searchsorted(noise_cdf, rng.random((len(sent_pairs), k)))
            for start in range(0, len(sent_pairs), max_update_pairs):
                inp0, out0 = inp.copy(), out.copy()
                stop = start + max_update_pairs
                for (center, context), negs in zip(sent_pairs[start:stop], negatives[start:stop]):
                    lr = config.learning_rate * max(1e-4, 1.0 - processed / planned)
                    processed += 1
                    trained.append((context, [int(n) for n in negs]))
                    targets = [(context, 1.0)] + [(int(n), 0.0) for n in negs]
                    g = [1.0 / (1.0 + math.exp(-dot(inp0[center], out0[t]))) - label for t, label in targets]
                    grad_v = sum(gj * out0[t] for gj, (t, _) in zip(g, targets))
                    inp[center] += -lr * grad_v
                    for gj, (t, _) in zip(g, targets):
                        out[t] += (-lr * gj) * inp0[center]
        total = 0.0
        for (center, context), negs in zip(all_pairs, eval_negatives):
            total -= log_sigmoid(dot(inp[center], out[context]))
            total -= sum(log_sigmoid(-dot(inp[center], out[n])) for n in negs)
        losses.append(total / len(all_pairs))
    return inp, losses, trained


def _column(A, j) -> list[float]:
    return [float(A[k, j]) for k in range(A.shape[0])]


def conse_scores_reference(f, A) -> list[float]:
    """Cosine of f to every column of A; a zero norm scores 0."""
    f = [float(v) for v in f]
    ff = sum(v * v for v in f)
    scores = []
    for j in range(A.shape[1]):
        a = _column(A, j)
        aa = sum(v * v for v in a)
        dot = sum(u * v for u, v in zip(a, f))
        scores.append(0.0 if aa == 0.0 or ff == 0.0 else dot / (math.sqrt(aa) * math.sqrt(ff)))
    return scores


def eszsl_scores_reference(W, x, A) -> list[float]:
    """x^T W a for every column a of A."""
    xw = [sum(float(x[i]) * float(W[i, k]) for i in range(W.shape[0])) for k in range(W.shape[1])]
    return [sum(u * v for u, v in zip(xw, _column(A, j))) for j in range(A.shape[1])]


def dem_scores_reference(W, b, x, A) -> list[float]:
    """-||relu(W a + b) - x|| for every column a of A."""
    scores = []
    for j in range(A.shape[1]):
        a = _column(A, j)
        mapped = [
            max(0.0, sum(float(W[i, k]) * a[k] for k in range(len(a))) + float(b[i]))
            for i in range(W.shape[0])
        ]
        scores.append(-math.sqrt(sum((m - float(xi)) ** 2 for m, xi in zip(mapped, x))))
    return scores


def distinct_columns_reference(A) -> tuple[list[int], list[int]]:
    """(firsts, inverse) of tagrec.zsl._distinct_columns by a dict of
    each column's bytes, -0.0 counted as 0.0."""
    slots: dict[bytes, int] = {}
    firsts, inverse = [], []
    for j, column in enumerate(np.add(A.T, 0.0, order="C")):
        slot = slots.setdefault(column.tobytes(), len(slots))
        if slot == len(firsts):
            firsts.append(j)
        inverse.append(slot)
    return firsts, inverse


def ranked_reference(labels, scores) -> list[str]:
    """Labels by descending score, ties in label order."""
    return [labels[i] for i in sorted(range(len(labels)), key=lambda i: (-scores[i], i))]


def predict_proba(model: BaselineClassifier, tokens) -> np.ndarray:
    """Probability vector over model.label_order; the exact softmax of
    the output layer applied to the extracted feature."""
    return softmax(model.output_weights @ extract_features(model, tokens) + model.output_bias)


def label_embedding(hashtag: str, vocab: Vocabulary, emb: np.ndarray) -> np.ndarray:
    """Attribute vector of one hashtag label: the embedding row of the
    token '#<hashtag>', or the DataError AttributeMatrix.from_labels
    raises for a label without one."""
    token = "#" + hashtag
    if token not in vocab.index:
        raise DataError(
            f"label {hashtag!r} has no embedding: token {token!r} not in vocabulary"
        )
    return emb[vocab.index[token]]


def skipgram_pairs(seq: Sequence[int], window: int) -> list[tuple[int, int]]:
    """All (center, context) pairs with |i - j| <= window, in scan order."""
    return [(seq[i], seq[j]) for i, j in zip(*_pair_positions(len(seq), window))]


def make_synonym_corpus(
    n_sentences: int = 600, n_context: int = 30, seed: int = 0
) -> tuple[list[list[str]], tuple[str, str], list[str]]:
    """Sentences where 'alpha' and 'beta' occur in identical context
    distributions while 'gamma' lives among disjoint context tokens.

    Returns (sentences, the synonym pair, the unrelated tokens). Every
    alpha sentence is mirrored by a beta sentence with the same
    contexts, so a context-predicting embedding must place the two
    tokens together.
    """
    rng = np.random.default_rng(seed)
    ctx_a = [f"ca{i}" for i in range(n_context)]
    ctx_b = [f"cb{i}" for i in range(n_context)]
    sentences: list[list[str]] = []
    for _ in range(n_sentences):
        picks = [ctx_a[int(i)] for i in rng.integers(0, n_context, size=3)]
        pos = int(rng.integers(0, 4))
        for word in ("alpha", "beta"):
            sentence = picks.copy()
            sentence.insert(pos, word)
            sentences.append(sentence)
        picks_b = [ctx_b[int(i)] for i in rng.integers(0, n_context, size=3)]
        sentence = picks_b.copy()
        sentence.insert(int(rng.integers(0, 4)), "gamma")
        sentences.append(sentence)
    return sentences, ("alpha", "beta"), ["gamma"] + ctx_b


def load_embeddings_reference(path) -> tuple[Vocabulary, np.ndarray]:
    """tagrec.embedding.load_embeddings with each value parsed by float(),
    row by row, into a table sized by the same bound: the same checks,
    messages and line numbers. float() also takes underscored numerals
    and non-ASCII digits, which load_embeddings rejects."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            parts = header.split()
            if len(parts) != 2:
                raise DataError(f"{path}:1: malformed header {header!r}")
            try:
                n_rows, dim = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise DataError(f"{path}:1: non-numeric header {header!r}") from exc
            if n_rows < 0 or dim < 1:
                raise DataError(
                    f"{path}:1: header {header!r} needs rows >= 0 and dimension >= 1"
                )
            body_bytes = os.fstat(fh.fileno()).st_size - len(header.encode("utf-8"))
            vectors = np.empty((min(n_rows, (body_bytes + 1) // (2 * dim + 2)), dim))
            tokens: list[str] = []
            index: dict[str, int] = {}
            for lineno, line in enumerate(fh, start=2):
                fields = line.rstrip("\n").split(" ")
                if len(tokens) >= n_rows:
                    raise DataError(f"{path}:{lineno}: more rows than header declares")
                if len(fields) != dim + 1:
                    raise DataError(
                        f"{path}:{lineno}: expected {dim} values, got {len(fields) - 1}"
                    )
                token = fields[0]
                if not token:
                    raise DataError(f"{path}:{lineno}: empty token")
                if token in index:
                    raise DataError(f"{path}:{lineno}: duplicate token {token!r}")
                try:
                    vectors[len(tokens)] = [float(f) for f in fields[1:]]
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: non-numeric field") from exc
                index[token] = len(tokens)
                tokens.append(token)
    except UnicodeDecodeError as exc:
        raise not_text(path, exc) from exc
    if len(tokens) != n_rows:
        raise DataError(f"{path}:1: header declares {n_rows} rows, found {len(tokens)}")
    return Vocabulary(tokens=tokens, counts=[1] * len(tokens), index=index), vectors


def adam_step_reference(
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
