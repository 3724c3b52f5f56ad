"""The feedforward baseline classifier: mean-pooled token embeddings
into a 1024-unit tanh hidden layer, then a softmax over the training
labels.

The hidden layer doubles as the tweet feature extractor for the
zero-shot rankers: its activations are the p-dimensional semantic
feature every ranking method consumes.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .embedding import Vocabulary, file_sha256, load_embeddings, mean_pool
from .errors import DataError, read_json, write_json
from .ingest import Dataset
# adam_step is not called here; the name stays because perfbench's tracer
# tests check that it is wrapped in every module that imports it
from .numeric import adam_step, softmax, train_minibatch, xavier_uniform  # noqa: F401

# probabilities are floored here before the log, so an exact zero for
# the true class gives a large finite loss instead of inf
CROSS_ENTROPY_FLOOR = 1e-12


@dataclass
class TrainSpec:
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0
    learning_rate: float = 0.001
    hidden_units: int = 1024

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")


@dataclass
class BaselineClassifier:
    hidden_weights: np.ndarray  # (hidden_units, d)
    hidden_bias: np.ndarray  # (hidden_units,)
    output_weights: np.ndarray  # (n_labels, hidden_units)
    output_bias: np.ndarray  # (n_labels,)
    label_order: list[str]
    vocab: Vocabulary
    emb: np.ndarray  # (V, d) word vectors
    loss_history: list[float] = field(default_factory=list)

    @property
    def feature_dim(self) -> int:
        return self.hidden_weights.shape[0]

    def features(self, pooled: np.ndarray) -> np.ndarray:
        """The hidden layer's tanh activations for one pooled embedding
        (d,) or a batch of them (m, d)."""
        return np.tanh(pooled @ self.hidden_weights.T + self.hidden_bias)

    def probs(self, features: np.ndarray) -> np.ndarray:
        """The softmax over label_order for one feature vector or a
        batch of them."""
        return softmax(features @ self.output_weights.T + self.output_bias)


def pooled_features(token_lists, vocab: Vocabulary, emb: np.ndarray) -> np.ndarray:
    """Mean-pooled embedding for each token list, stacked (m, d)."""
    return np.stack([mean_pool(tokens, vocab, emb) for tokens in token_lists])


def train_baseline(
    train: Dataset,
    vocab: Vocabulary,
    emb: np.ndarray,
    spec: TrainSpec,
) -> BaselineClassifier:
    """Minibatch Adam training on mean cross-entropy, shuffled each
    epoch by the seed. Xavier-uniform weights, zero biases."""
    label_order = list(train.label_set)
    if len(label_order) < 2:
        raise DataError("need at least 2 labels to train a classifier")
    label_index = {label: i for i, label in enumerate(label_order)}
    for tokens, label in train.examples:
        if label not in label_index:
            raise DataError(f"training example labeled {label!r} not in label set")

    X = pooled_features((t for t, _ in train.examples), vocab, emb)
    y = np.array([label_index[label] for _, label in train.examples])
    m, d = X.shape
    n_out = len(label_order)

    onehot = np.zeros((m, n_out))
    onehot[np.arange(m), y] = 1.0

    def batch_loss_and_grads(params, idx):
        Xb, Yb = X[idx], onehot[idx]
        B = len(idx)
        Wh, bh, Wo, bo = params
        H = np.tanh(Xb @ Wh.T + bh)
        P = softmax(H @ Wo.T + bo)
        loss = -float(np.log(np.maximum(P[np.arange(B), y[idx]], CROSS_ENTROPY_FLOOR)).sum())
        dlogits = (P - Yb) / B
        dWo = dlogits.T @ H
        dbo = dlogits.sum(axis=0)
        dH = dlogits @ Wo
        dZ = dH * (1.0 - H * H)
        dWh = dZ.T @ Xb
        dbh = dZ.sum(axis=0)
        return loss, [dWh, dbh, dWo, dbo]

    rng = np.random.default_rng(spec.seed)
    params, loss_history = train_minibatch(
        [
            xavier_uniform(d, spec.hidden_units, rng),
            np.zeros(spec.hidden_units),
            xavier_uniform(spec.hidden_units, n_out, rng),
            np.zeros(n_out),
        ],
        batch_loss_and_grads, m, spec, rng, "baseline",
    )
    return BaselineClassifier(
        *params,
        label_order=label_order,
        vocab=vocab,
        emb=emb,
        loss_history=loss_history,
    )


def extract_features(model: BaselineClassifier, tokens) -> np.ndarray:
    """The hidden layer's tanh activations for one tweet: the semantic
    feature vector used by every ranking method."""
    return model.features(mean_pool(tokens, model.vocab, model.emb))


def extract_features_batch(model: BaselineClassifier, token_lists) -> np.ndarray:
    return model.features(pooled_features(token_lists, model.vocab, model.emb))


def _layer_to_json(weights: np.ndarray, bias: np.ndarray, activation: str) -> dict:
    return {"weights": weights.tolist(), "bias": bias.tolist(), "activation": activation}


def _layer_from_json(name: str, obj: dict, activation: str) -> tuple[np.ndarray, np.ndarray]:
    """A layer's weights and bias; its activation must be the one the
    classifier applies there."""
    if obj["activation"] != activation:
        raise ValueError(f"{name} activation is {obj['activation']!r}, expected {activation!r}")
    return np.array(obj["weights"], dtype=float), np.array(obj["bias"], dtype=float)


def baseline_bundle_dict(
    model: BaselineClassifier,
    embedding_path: str,
    config: dict | None = None,
    sha256: str | None = None,
    base_dir: str = ".",
) -> dict:
    """JSON-serializable bundle: label order, layer weights, and a
    path-plus-hash reference to the embedding file. sha256 is the
    file's hash where the caller already has it. A relative
    embedding_path is recorded relative to base_dir, which
    baseline_from_bundle_dict resolves it against."""
    recorded = str(embedding_path)
    if not os.path.isabs(recorded):
        recorded = os.path.relpath(recorded, base_dir)
    return {
        "kind": "baseline",
        "label_order": model.label_order,
        "feature_dim": model.feature_dim,
        "embedding": {"path": recorded, "sha256": sha256 or file_sha256(embedding_path)},
        "hidden": _layer_to_json(model.hidden_weights, model.hidden_bias, "tanh"),
        "output": _layer_to_json(model.output_weights, model.output_bias, "softmax"),
        "loss_history": model.loss_history,
        "config": config or {},
    }


def save_baseline_bundle(
    model: BaselineClassifier,
    path,
    embedding_path: str,
    config: dict | None = None,
    sha256: str | None = None,
) -> None:
    base_dir = os.path.dirname(os.path.abspath(path))
    write_json(path, baseline_bundle_dict(model, embedding_path, config, sha256, base_dir))


def read_bundle(path) -> dict:
    """The JSON object of a model bundle file; a file that is not ASCII
    JSON holding an object raises a DataError naming it."""
    obj = read_json(path, "ascii")
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object")
    return obj


@contextmanager
def bundle_fields(path):
    """Turn a missing field, or a field of the wrong type or shape, met
    while building a model from a bundle into a DataError naming it."""
    try:
        yield
    except KeyError as exc:
        raise DataError(f"{path}: bundle has no {exc.args[0]!r} field") from exc
    except (IndexError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed bundle ({exc})") from exc


def expect_shape(name: str, array: np.ndarray, shape: tuple) -> None:
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
    if not np.isfinite(array).all():  # JSON's NaN, Infinity and 1e999 all parse
        raise ValueError(f"{name} has a non-finite entry")


def expect_int(name: str, value) -> int:
    """value, which must be a JSON integer: int() would take 1.7, "2" and true."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def baseline_from_bundle_dict(obj: dict, base_dir: str = ".") -> BaselineClassifier:
    Wh, bh = _layer_from_json("hidden", obj["hidden"], "tanh")
    Wo, bo = _layer_from_json("output", obj["output"], "softmax")
    label_order = list(obj["label_order"])
    emb_path = obj["embedding"]["path"]
    if not os.path.isabs(emb_path):
        emb_path = os.path.join(base_dir, emb_path)
    if not os.path.exists(emb_path):
        raise DataError(f"embedding file {emb_path!r} referenced by bundle is missing")
    actual = file_sha256(emb_path)
    if actual != obj["embedding"]["sha256"]:
        raise DataError(
            f"embedding file {emb_path!r} hash {actual} does not match bundle"
        )
    vocab, emb = load_embeddings(emb_path, actual)
    p, n = len(Wh), len(label_order)
    expect_shape("hidden weights", Wh, (p, emb.shape[1]))
    expect_shape("hidden bias", bh, (p,))
    expect_shape("output weights", Wo, (n, p))
    expect_shape("output bias", bo, (n,))
    return BaselineClassifier(
        Wh, bh, Wo, bo,
        label_order=label_order,
        vocab=vocab,
        emb=emb,
        loss_history=list(obj.get("loss_history", [])),
    )


def load_baseline_bundle(path) -> BaselineClassifier:
    obj = read_bundle(path)
    if obj.get("kind") != "baseline":
        raise DataError(f"{path}: not a baseline model bundle")
    with bundle_fields(path):
        return baseline_from_bundle_dict(obj, base_dir=os.path.dirname(os.path.abspath(path)))
