"""Zero-shot and few-shot hashtag ranking.

Three rankers share one ingredient set: a tweet feature vector x (the
baseline classifier's hidden activations), and per-label attribute
vectors (the word embedding of each '#label' token).

- ConSE embeds a tweet into attribute space as the probability-weighted
  convex combination of the training labels' attribute vectors, then
  ranks candidates by cosine.
- ESZSL fits a bilinear compatibility matrix W in closed form from two
  regularized Gram solves and ranks by x^T W a.
- DEM maps attribute vectors into feature space through one ReLU layer
  trained by least squares and ranks by distance to x.

Each ranker scores every candidate with a handful of array operations
per text. Ties everywhere break by candidate order, which makes every
ranking reproducible and testable. That rule needs identical attribute
columns to score bit-identically, which a BLAS product does not
promise: ConSE and ESZSL sum an elementwise product over the attribute
axis, where every column goes through the same IEEE operations, and
DEM maps each distinct column once and shares its score.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .embedding import NORM_MAX, NORM_MIN, Vocabulary, cosine
from .errors import DataError, NotPositiveDefiniteError, NumericalError, write_json
from .ingest import Dataset, is_str_list
# adam_step is not called here; the name stays because perfbench's tracer
# tests check that it is wrapped in every module that imports it
from .numeric import adam_step, relu, train_minibatch, xavier_uniform  # noqa: F401
from .supervised import (
    BaselineClassifier,
    TrainSpec,
    baseline_bundle_dict,
    baseline_from_bundle_dict,
    bundle_fields,
    expect_shape,
    extract_features,
    extract_features_batch,
    read_bundle,
)

logger = logging.getLogger(__name__)


@dataclass
class ZslSplit:
    seen: list[str]
    unseen: list[str]
    seed: int

    def __post_init__(self):
        if not self.seen or not self.unseen:
            raise ValueError("both seen and unseen label lists must be non-empty")
        if set(self.seen) & set(self.unseen):
            raise ValueError("seen and unseen labels overlap")


@dataclass
class AttributeMatrix:
    """Per-label attribute vectors as columns, in label order."""

    matrix: np.ndarray  # (s, n_labels)
    labels: list[str]

    @classmethod
    def from_labels(cls, labels, vocab: Vocabulary, emb: np.ndarray) -> "AttributeMatrix":
        """Each label's column is the embedding row of the token
        '#<label>'. A label whose token is not in the vocabulary raises
        a DataError; the caller must restrict the label set instead."""
        labels = list(labels)
        try:
            rows = [vocab.index["#" + label] for label in labels]
        except KeyError as exc:
            token = exc.args[0]
            raise DataError(
                f"label {token[1:]!r} has no embedding: token {token!r} not in vocabulary"
            ) from None
        return cls(matrix=emb[rows].T, labels=labels)


@dataclass
class ConseModel:
    seen_embeddings: AttributeMatrix
    T: int


@dataclass
class EszslModel:
    W: np.ndarray  # (p, s)
    gamma: float


@dataclass
class DemModel:
    """The attribute-to-feature mapper a -> relu(weights @ a + bias)."""

    weights: np.ndarray  # (p, s)
    bias: np.ndarray  # (p,)
    loss_history: list[float] = field(default_factory=list)


@dataclass
class Prediction:
    """Candidate labels with scores, best first."""

    ranked: list[tuple[str, float]]
    all_oov: bool = False

    def labels(self) -> list[str]:
        return [label for label, _ in self.ranked]

    def top(self, k: int) -> "Prediction":
        return Prediction(ranked=self.ranked[:k], all_oov=self.all_oov)


def _ranked(labels, scores: np.ndarray) -> Prediction:
    order = np.lexsort((np.arange(len(scores)), -scores))
    return Prediction(ranked=list(zip([labels[i] for i in order], scores[order].tolist())))


def _column_dots(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v . A[:, j] for every column j, as an elementwise product summed
    over the attribute axis: every column goes through the same IEEE
    operations, so identical columns give bit-identical dots."""
    return np.multiply(A, v[:, None]).sum(axis=0)


def make_split(labels, n_seen: int, n_unseen: int, seed: int) -> ZslSplit:
    """Seeded uniform shuffle of the label pool; the first n_seen labels
    are seen, the next n_unseen unseen."""
    labels = list(labels)
    if n_seen + n_unseen > len(labels):
        raise DataError(
            f"split {n_seen}/{n_unseen} needs {n_seen + n_unseen} labels, "
            f"pool has {len(labels)}"
        )
    perm = np.random.default_rng(seed).permutation(len(labels))
    shuffled = [labels[i] for i in perm]
    return ZslSplit(seen=shuffled[:n_seen], unseen=shuffled[n_seen : n_seen + n_unseen], seed=seed)


def subset_by_labels(dataset: Dataset, labels) -> Dataset:
    """Examples whose label is in `labels`, with that list as the new
    ordered label set."""
    labels = list(labels)
    keep = set(labels)
    return Dataset(
        examples=[(tokens, lab) for tokens, lab in dataset.examples if lab in keep],
        label_set=labels,
    )


def conse_embed(probs: np.ndarray, seen_embeddings: AttributeMatrix, T: int) -> np.ndarray:
    """Convex combination of the T most probable training labels'
    attribute vectors, normalized by their accumulated probability."""
    probs = np.asarray(probs, dtype=float)
    n = len(seen_embeddings.labels)
    if probs.shape != (n,):
        raise ValueError(f"probs shape {probs.shape} does not match {n} labels")
    if abs(float(probs.sum()) - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {probs.sum()}, expected 1")
    if not 1 <= T <= n:
        raise ValueError(f"T must be in [1, {n}], got {T}")
    top = sorted(range(n), key=lambda i: (-probs[i], i))[:T]
    z = float(probs[top].sum())
    if z == 0.0:
        raise NumericalError("all top-T probabilities are zero")
    return (seen_embeddings.matrix[:, top] @ probs[top]) / z


def conse_rank(f_x: np.ndarray, unseen_embeddings: AttributeMatrix) -> Prediction:
    """Candidates by descending cosine to the combined embedding, with
    `cosine`'s rules: a zero norm scores 0, and a column whose norm
    leaves the normal float range is scored by `cosine` itself."""
    A = unseen_embeddings.matrix
    f = np.asarray(f_x, dtype=float)
    nf = np.linalg.norm(f)
    if nf == 0.0:
        return _ranked(unseen_embeddings.labels, np.zeros(A.shape[1]))
    norms = np.sqrt((A * A).sum(axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = _column_dots(A, f) / (norms * nf)
    if NORM_MIN <= nf <= NORM_MAX:
        odd = np.flatnonzero(~((norms >= NORM_MIN) & (norms <= NORM_MAX)))
    else:
        odd = range(A.shape[1])
    for i in odd:
        scores[i] = cosine(f, A[:, i])
    return _ranked(unseen_embeddings.labels, scores)


def eszsl_fit(X: np.ndarray, Y: np.ndarray, A: np.ndarray, gamma: float) -> EszslModel:
    """Closed-form bilinear fit W = (X X^T + gI)^-1 X Y A^T (A A^T + gI)^-1,
    computed as two SPD solves.

    X is (p, m) features-as-columns, Y is (m, n) one-hot rows, A is
    (s, n) attributes-as-columns.
    """
    X, Y, A = np.asarray(X, float), np.asarray(Y, float), np.asarray(A, float)
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    p, m = X.shape
    if Y.shape[0] != m:
        raise ValueError(f"Y has {Y.shape[0]} rows for {m} examples")
    if A.shape[1] != Y.shape[1]:
        raise ValueError(f"A has {A.shape[1]} columns for {Y.shape[1]} labels")
    row_sums = Y.sum(axis=1)
    if not (np.all((Y == 0) | (Y == 1)) and np.all(row_sums == 1)):
        raise DataError("Y rows must be one-hot")

    from .numeric import spd_solve

    right = X @ Y @ A.T  # (p, s)
    try:
        half = spd_solve(X @ X.T + gamma * np.eye(p), right)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(
            "feature Gram X X^T + gamma I is not positive definite"
        ) from exc
    try:
        W = spd_solve(A @ A.T + gamma * np.eye(A.shape[0]), half.T).T
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(
            "attribute Gram A A^T + gamma I is not positive definite"
        ) from exc
    if not np.all(np.isfinite(W)):
        raise NumericalError("non-finite entries in fitted W")
    return EszslModel(W=W, gamma=gamma)


def eszsl_rank(model: EszslModel, x: np.ndarray, unseen_attrs: AttributeMatrix) -> Prediction:
    """Candidates by descending bilinear score x^T W a."""
    # x^T W once, then the elementwise dots of _column_dots rather than
    # one BLAS product: identical attribute columns score bit-identically,
    # so the label-order tie rule stays exact
    return _ranked(unseen_attrs.labels, _column_dots(unseen_attrs.matrix, x @ model.W))


def dem_loss_and_grad(
    weights: np.ndarray, bias: np.ndarray, features: np.ndarray, label_vectors: np.ndarray
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Mean squared reconstruction error (1/m) sum ||x - relu(W s + b)||^2
    and its gradients in (W, b)."""
    m = features.shape[0]
    Z = label_vectors @ weights.T + bias  # (m, p)
    R = relu(Z)
    E = R - features
    loss = float((E * E).sum() / m)
    dZ = (2.0 / m) * E * (Z > 0)
    dW = dZ.T @ label_vectors
    db = dZ.sum(axis=0)
    return loss, (dW, db)


def dem_fit(
    features: np.ndarray, label_vectors: np.ndarray, spec: TrainSpec
) -> DemModel:
    """Train the attribute-to-feature ReLU mapper by least squares with
    minibatch Adam; Xavier-uniform weights, zero bias, seeded shuffle."""
    X = np.asarray(features, dtype=float)
    S = np.asarray(label_vectors, dtype=float)
    if X.shape[0] != S.shape[0] or X.shape[0] < 1:
        raise ValueError(f"got {X.shape[0]} features for {S.shape[0]} label vectors")
    m, p = X.shape
    s_dim = S.shape[1]

    def batch_loss_and_grads(params, idx):
        loss, (dW, db) = dem_loss_and_grad(params[0], params[1], X[idx], S[idx])
        return loss * len(idx), [dW, db]

    rng = np.random.default_rng(spec.seed)
    params, loss_history = train_minibatch(
        [xavier_uniform(s_dim, p, rng), np.zeros(p)], batch_loss_and_grads, m, spec, rng, "DEM"
    )
    return DemModel(weights=params[0], bias=params[1], loss_history=loss_history)


def dem_rank(model: DemModel, x: np.ndarray, unseen_attrs: AttributeMatrix) -> Prediction:
    """Candidates by ascending Euclidean distance between x and each
    mapped attribute vector; score is the negated distance."""
    # BLAS does not promise equal rounding for equal columns of one
    # product, so identical columns are collapsed first (keyed by their
    # bytes; adding 0.0 turns -0.0 into 0.0) and every distinct column is
    # mapped once, in one GEMM: exact ties stay exact
    A = unseen_attrs.matrix
    slots: dict[bytes, int] = {}
    firsts, inverse = [], []
    for j, column in enumerate(np.add(A.T, 0.0, order="C")):
        slot = slots.setdefault(column.tobytes(), len(slots))
        if slot == len(firsts):
            firsts.append(j)
        inverse.append(slot)
    # one row per distinct column, updated in place: relu(W a + b) - x
    diff = A[:, firsts].T @ model.weights.T
    diff += model.bias
    np.maximum(diff, 0.0, out=diff)
    diff -= x
    scores = -np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return _ranked(unseen_attrs.labels, scores[inverse])


def make_conse(
    classifier: BaselineClassifier,
    vocab: Vocabulary,
    emb: np.ndarray,
    T: int | None = None,
) -> ConseModel:
    """ConSE head over the classifier's training labels; T defaults to
    every training label."""
    seen_embeddings = AttributeMatrix.from_labels(classifier.label_order, vocab, emb)
    return ConseModel(
        seen_embeddings=seen_embeddings,
        T=T if T is not None else len(classifier.label_order),
    )


def fsl_augment(
    train: Dataset,
    unseen_pool: Dataset,
    shots_min: int = 5,
    shots_max: int = 10,
    seed: int = 0,
) -> tuple[Dataset, list[int]]:
    """Append a few seeded examples of each previously unseen label.

    For every label of the pool, k ~ uniform{shots_min..shots_max}
    examples are drawn without replacement and appended after the
    (unchanged) seen examples. Returns the augmented dataset and the
    drawn pool indices, so evaluation can exclude them from the test
    pool. shots_max = 0 reduces to the zero-shot setting: the train set
    comes back unchanged.
    """
    if shots_min < 0 or shots_max < shots_min:
        raise ValueError(f"bad shot range [{shots_min}, {shots_max}]")
    if shots_max == 0:
        return Dataset(examples=list(train.examples), label_set=list(train.label_set)), []
    by_label: dict[str, list[int]] = {label: [] for label in unseen_pool.label_set}
    for i, (_, label) in enumerate(unseen_pool.examples):
        by_label[label].append(i)
    rng = np.random.default_rng(seed)
    examples = list(train.examples)
    used: list[int] = []
    for label in unseen_pool.label_set:
        pool = by_label[label]
        if len(pool) < shots_min:
            raise DataError(
                f"label {label!r} has only {len(pool)} pool examples, "
                f"fewer than shots_min={shots_min}"
            )
        k = int(rng.integers(shots_min, shots_max + 1))
        k = min(k, len(pool))
        chosen = sorted(int(c) for c in rng.choice(len(pool), size=k, replace=False))
        for c in chosen:
            idx = pool[c]
            used.append(idx)
            tokens, lab = unseen_pool.examples[idx]
            examples.append((list(tokens), lab))
    label_set = list(train.label_set) + [
        label for label in unseen_pool.label_set if label not in set(train.label_set)
    ]
    return Dataset(examples=examples, label_set=label_set), used


@dataclass
class ZslBundle:
    """A trained ranker ready for recommendation: the shared feature
    extractor plus one method-specific head."""

    method: str  # conse | eszsl | dem
    classifier: BaselineClassifier
    head: ConseModel | EszslModel | DemModel
    split: ZslSplit | None = None


def fit_bundles(
    classifier: BaselineClassifier,
    train: Dataset,
    split: ZslSplit | None,
    methods,
    gamma: float,
    conse_T: int | None,
    dem_spec: TrainSpec,
) -> Iterator[ZslBundle]:
    """Fit one head per method on the classifier's training set and
    yield each as a ZslBundle, in method order.

    ESZSL and DEM share one feature pass over the training examples,
    and one gather of their targets from the training labels (ESZSL's
    one-hot rows, DEM's attribute vectors), made when the first of them
    is fitted; ConSE needs neither.
    """
    vocab, emb = classifier.vocab, classifier.emb
    feats = None
    for method in methods:
        if method in ("eszsl", "dem") and feats is None:
            feats = extract_features_batch(
                classifier, [tokens for tokens, _ in train.examples]
            )
            A = AttributeMatrix.from_labels(train.label_set, vocab, emb)
            index = {label: i for i, label in enumerate(A.labels)}
            y = np.array([index[label] for _, label in train.examples])
        if method == "conse":
            head = make_conse(classifier, vocab, emb, T=conse_T)
        elif method == "eszsl":
            head = eszsl_fit(feats.T, np.eye(len(A.labels))[y], A.matrix, gamma)
        elif method == "dem":
            head = dem_fit(feats, A.matrix.T[y], dem_spec)
        else:
            raise ValueError(f"unknown method {method!r}")
        yield ZslBundle(method=method, classifier=classifier, head=head, split=split)


def rank_features(
    bundle: ZslBundle, x: np.ndarray, attrs: AttributeMatrix, probs: np.ndarray | None = None
) -> Prediction:
    """Run the bundle's ranker over `attrs`' candidates for one tweet
    with feature vector x. ConSE also needs the classifier's label
    probabilities, computed from x unless the caller has them."""
    if bundle.method == "conse":
        if probs is None:
            probs = bundle.classifier.probs(x)
        return conse_rank(conse_embed(probs, bundle.head.seen_embeddings, bundle.head.T), attrs)
    if bundle.method == "eszsl":
        return eszsl_rank(bundle.head, x, attrs)
    if bundle.method == "dem":
        return dem_rank(bundle.head, x, attrs)
    raise ValueError(f"unknown method {bundle.method!r}")


def rank_candidates(bundle: ZslBundle, tokens, candidates) -> Prediction:
    """Run the appropriate ranker over the candidate labels for one
    tokenized tweet."""
    attrs = AttributeMatrix.from_labels(candidates, bundle.classifier.vocab, bundle.classifier.emb)
    return rank_features(bundle, extract_features(bundle.classifier, tokens), attrs)


def recommend(bundle: ZslBundle, tokens, candidates, k: int) -> Prediction:
    """Top-k candidate hashtags for one tweet. A tweet with no
    in-vocabulary tokens still gets a ranking (from the zero feature)
    but the prediction is flagged."""
    if k < 1:
        raise ValueError("k must be >= 1")
    candidates = list(candidates)
    if not candidates:
        raise DataError("candidate label set is empty")
    prediction = rank_candidates(bundle, tokens, candidates)
    prediction.all_oov = all(t not in bundle.classifier.vocab.index for t in tokens)
    if prediction.all_oov:
        logger.warning("no in-vocabulary tokens; ranking from the zero feature")
    return prediction.top(k)


def _head_to_json(bundle: ZslBundle) -> dict:
    if bundle.method == "conse":
        return {
            "T": bundle.head.T,
            "labels": bundle.head.seen_embeddings.labels,
            "vectors": bundle.head.seen_embeddings.matrix.T.tolist(),
        }
    if bundle.method == "eszsl":
        return {"gamma": bundle.head.gamma, "W": bundle.head.W.tolist()}
    if bundle.method == "dem":
        return {
            "weights": bundle.head.weights.tolist(),
            "bias": bundle.head.bias.tolist(),
            "loss_history": bundle.head.loss_history,
        }
    raise ValueError(f"unknown method {bundle.method!r}")


def _head_from_json(method: str, obj: dict, classifier: BaselineClassifier):
    p, s, n = classifier.feature_dim, classifier.emb.shape[1], len(classifier.label_order)
    if method == "conse":
        labels = list(obj["labels"])
        vectors = np.array(obj["vectors"], dtype=float)
        expect_shape("ConSE vectors", vectors, (n, s))
        if len(labels) != n:
            raise ValueError(f"ConSE has {len(labels)} labels for {n} classifier outputs")
        T = int(obj["T"])
        if not 1 <= T <= n:
            raise ValueError(f"ConSE T must be in [1, {n}], got {T}")
        return ConseModel(
            seen_embeddings=AttributeMatrix(matrix=vectors.T, labels=labels),
            T=T,
        )
    if method == "eszsl":
        W = np.array(obj["W"], dtype=float)
        expect_shape("ESZSL W", W, (p, s))
        return EszslModel(W=W, gamma=float(obj["gamma"]))
    if method == "dem":
        weights = np.array(obj["weights"], dtype=float)
        bias = np.array(obj["bias"], dtype=float)
        expect_shape("DEM weights", weights, (p, s))
        expect_shape("DEM bias", bias, (p,))
        return DemModel(weights, bias, loss_history=list(obj.get("loss_history", [])))
    raise DataError(f"unknown method {method!r} in bundle")


def save_zsl_bundle(
    bundle: ZslBundle, path, embedding_path: str, config: dict | None = None
) -> None:
    """The bundle as one JSON object; the classifier entry names the
    embedding file by path and SHA-256, which the loader checks."""
    write_json(path, {
        "kind": "zsl",
        "method": bundle.method,
        "split": (
            {"seen": bundle.split.seen, "unseen": bundle.split.unseen, "seed": bundle.split.seed}
            if bundle.split
            else None
        ),
        "classifier": baseline_bundle_dict(bundle.classifier, embedding_path),
        "head": _head_to_json(bundle),
        "config": config or {},
    })


def load_zsl_bundle(path) -> ZslBundle:
    obj = read_bundle(path)
    if obj.get("kind") != "zsl":
        raise DataError(f"{path}: not a zero-shot model bundle")
    base_dir = os.path.dirname(os.path.abspath(path))
    with bundle_fields(path):
        classifier = baseline_from_bundle_dict(obj["classifier"], base_dir=base_dir)
        split = None
        if obj.get("split"):
            seen, unseen = obj["split"]["seen"], obj["split"]["unseen"]
            if not (is_str_list(seen) and is_str_list(unseen)):
                raise ValueError("split seen and unseen must be lists of labels")
            split = ZslSplit(seen=seen, unseen=unseen, seed=int(obj["split"]["seed"]))
        return ZslBundle(
            method=obj["method"],
            classifier=classifier,
            head=_head_from_json(obj["method"], obj["head"], classifier),
            split=split,
        )
