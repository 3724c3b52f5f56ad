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

What a ranker reads of a candidate set alone is prepared once per set:
each head's prepare(attrs) returns it and its rank takes it. The grid
prepares each cell's unseen labels once; recommend keeps the last set on
the bundle, and from_labels returns its AttributeMatrix for equal labels.
"""

from __future__ import annotations

import logging
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .embedding import NORM_MAX, NORM_MIN, Vocabulary, cosine
from .errors import DataError, NotPositiveDefiniteError, NumericalError, write_json
from .ingest import Dataset, first_repeat, is_str_list
# adam_step is not called here; the name stays because perfbench's tracer
# tests check that it is wrapped in every module that imports it
from .numeric import adam_step, relu, train_minibatch, xavier_uniform  # noqa: F401
from .supervised import (
    BaselineClassifier,
    TrainSpec,
    baseline_bundle_dict,
    baseline_from_bundle_dict,
    bundle_fields,
    expect_int,
    expect_shape,
    extract_features,
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
        for name, labels in (("seen", self.seen), ("unseen", self.unseen)):
            if (label := first_repeat(labels)) is not None:
                raise ValueError(f"{name} labels repeat {label!r}")


@dataclass
class AttributeMatrix:
    """Per-label attribute vectors as columns, in label order."""

    matrix: np.ndarray  # (s, n_labels)
    labels: list[str]

    @classmethod
    def from_labels(cls, labels, vocab: Vocabulary, emb: np.ndarray,
                    previous: AttributeMatrix | None = None) -> AttributeMatrix:
        """Each label's column is the embedding row of the token
        '#<label>'. A label whose token is not in the vocabulary raises
        a DataError; the caller must restrict the label set instead.

        The matrix is a read-only copy of the rows. previous, built by
        an earlier call over the same vocab and emb, is returned as it
        is when its labels are these."""
        labels = list(labels)
        if previous is not None and previous.labels == labels:
            return previous
        try:
            rows = [vocab.index["#" + label] for label in labels]
        except KeyError as exc:
            token = exc.args[0]
            raise DataError(
                f"label {token[1:]!r} has no embedding: token {token!r} not in vocabulary"
            ) from None
        attrs = cls(matrix=emb[rows].T, labels=labels)
        attrs.matrix.flags.writeable = False
        return attrs


@dataclass(frozen=True)
class ConseCandidates:
    """ConSE's side of a candidate set: its columns and their norms."""

    matrix: np.ndarray  # (s, n_labels)
    norms: np.ndarray  # (n_labels,)
    labels: list[str]


@dataclass(frozen=True)
class DemCandidates:
    """DEM's side of a candidate set: its distinct columns mapped, and each candidate's row."""

    mapped: np.ndarray  # (distinct columns, p)
    inverse: np.ndarray  # (n_labels,)
    labels: list[str]


# A head class is the one place its method lives: its name, its bundle
# entry, fit(seen_attrs, feats, y, config), which fits the head on a
# train set (the training labels' attribute matrix, one feature row per
# example, each example's label index, and the grid config whose gamma,
# conse_T and seeded dem_train it reads), prepare(attrs), what its ranker
# reads of a candidate set, labels included, and rank(classifier, x,
# prepared, probs=None), which ranks that set for one text with feature
# vector x (and, for ConSE, probabilities probs) through its ranker function.


@dataclass
class ConseModel:
    """ConSE's head: the training labels' attribute vectors, of which
    the T most probable for a text are combined."""

    method = "conse"
    seen_embeddings: AttributeMatrix
    T: int

    @classmethod
    def fit(cls, seen_attrs, feats, y, config) -> "ConseModel":
        if not np.isfinite(seen_attrs.matrix).all():  # as ESZSL and DEM fail on them
            raise NumericalError("non-finite entries in the training labels' attribute vectors")
        # T defaults to every training label
        return cls(seen_attrs, len(seen_attrs.labels) if config.conse_T is None else config.conse_T)

    @staticmethod
    def prepare(attrs: AttributeMatrix) -> ConseCandidates:
        A = attrs.matrix
        return ConseCandidates(A, np.sqrt((A * A).sum(axis=0)), attrs.labels)

    def rank(self, classifier, x, prepared: ConseCandidates, probs=None) -> Prediction:
        if probs is None:  # computed from x unless the caller has them
            probs = classifier.probs(x)
        return conse_rank(conse_embed(probs, self.seen_embeddings, self.T), prepared)

    def to_json(self) -> dict:
        attrs = self.seen_embeddings
        return {"T": self.T, "labels": attrs.labels, "vectors": attrs.matrix.T.tolist()}

    @classmethod
    def from_json(cls, obj: dict, classifier: BaselineClassifier) -> "ConseModel":
        n = len(classifier.label_order)
        labels = list(obj["labels"])
        vectors = np.array(obj["vectors"], dtype=float)
        expect_shape("ConSE vectors", vectors, (n, classifier.emb.shape[1]))
        if len(labels) != n:
            raise ValueError(f"ConSE has {len(labels)} labels for {n} classifier outputs")
        T = expect_int("ConSE T", obj["T"])
        if not 1 <= T <= n:
            raise ValueError(f"ConSE T must be in [1, {n}], got {T}")
        return cls(seen_embeddings=AttributeMatrix(matrix=vectors.T, labels=labels), T=T)


@dataclass
class EszslModel:
    method = "eszsl"
    W: np.ndarray  # (p, s)
    gamma: float

    @classmethod
    def fit(cls, seen_attrs, feats, y, config) -> "EszslModel":
        Y = np.eye(len(seen_attrs.labels))[y]  # one-hot rows
        return eszsl_fit(feats.T, Y, seen_attrs.matrix, config.gamma)

    @staticmethod
    def prepare(attrs: AttributeMatrix) -> AttributeMatrix:
        return attrs

    def rank(self, classifier, x, prepared: AttributeMatrix, probs=None) -> Prediction:
        return eszsl_rank(self, x, prepared)

    def to_json(self) -> dict:
        return {"gamma": self.gamma, "W": self.W.tolist()}

    @classmethod
    def from_json(cls, obj: dict, classifier: BaselineClassifier) -> "EszslModel":
        W = np.array(obj["W"], dtype=float)
        expect_shape("ESZSL W", W, (classifier.feature_dim, classifier.emb.shape[1]))
        return cls(W=W, gamma=float(obj["gamma"]))


@dataclass
class DemModel:
    """The attribute-to-feature mapper a -> relu(weights @ a + bias)."""

    method = "dem"
    weights: np.ndarray  # (p, s)
    bias: np.ndarray  # (p,)
    loss_history: list[float] = field(default_factory=list)

    @classmethod
    def fit(cls, seen_attrs, feats, y, config) -> "DemModel":
        return dem_fit(feats, seen_attrs.matrix.T[y], config.dem_train)

    def prepare(self, attrs: AttributeMatrix) -> DemCandidates:
        # BLAS does not promise equal rounding for equal columns of one product,
        # so each distinct column is mapped once, in one GEMM: exact ties stay exact
        firsts, inverse = _distinct_columns(attrs.matrix)
        M = attrs.matrix[:, firsts].T @ self.weights.T
        M += self.bias
        np.maximum(M, 0.0, out=M)
        return DemCandidates(M, inverse, attrs.labels)

    def rank(self, classifier, x, prepared: DemCandidates, probs=None) -> Prediction:
        return dem_rank(self, x, prepared)

    def to_json(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias.tolist(),
                "loss_history": self.loss_history}

    @classmethod
    def from_json(cls, obj: dict, classifier: BaselineClassifier) -> "DemModel":
        weights = np.array(obj["weights"], dtype=float)
        bias = np.array(obj["bias"], dtype=float)
        expect_shape("DEM weights", weights, (classifier.feature_dim, classifier.emb.shape[1]))
        expect_shape("DEM bias", bias, (classifier.feature_dim,))
        return cls(weights, bias, loss_history=list(obj.get("loss_history", [])))


# method name -> head class, in the order the grid runs them
HEADS = {head.method: head for head in (ConseModel, EszslModel, DemModel)}
METHODS = tuple(HEADS)


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
    return Prediction(ranked=list(zip([labels[i] for i in order.tolist()], scores[order].tolist())))


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


def conse_rank(f_x: np.ndarray, candidates: ConseCandidates) -> Prediction:
    """Candidates by descending cosine to the combined embedding, with
    `cosine`'s rules: a zero norm scores 0, and a column whose norm
    leaves the normal float range is scored by `cosine` itself."""
    A, norms = candidates.matrix, candidates.norms
    f = np.asarray(f_x, dtype=float)
    nf = np.linalg.norm(f)
    if nf == 0.0:
        return _ranked(candidates.labels, np.zeros(A.shape[1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = _column_dots(A, f) / (norms * nf)
    if NORM_MIN <= nf <= NORM_MAX:
        odd = np.flatnonzero(~((norms >= NORM_MIN) & (norms <= NORM_MAX)))
    else:
        odd = range(A.shape[1])
    for i in odd:
        scores[i] = cosine(f, A[:, i])
    return _ranked(candidates.labels, scores)


def eszsl_fit(X: np.ndarray, Y: np.ndarray, A: np.ndarray, gamma: float) -> EszslModel:
    """Closed-form bilinear fit W = (X X^T + gI)^-1 X Y A^T (A A^T + gI)^-1,
    computed as two SPD solves, the feature one in whichever of the
    Grams X X^T (p x p) and X^T X (m x m) is smaller.

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

    def regularized(gram: np.ndarray) -> np.ndarray:
        gram.flat[:: len(gram) + 1] += gamma  # gram + gamma I, in place
        return gram

    try:
        if m < p:
            # (X X^T + gI)^-1 X = X (X^T X + gI)^-1: solve in the m x m
            # Gram, and multiply by X after both solves, so that the
            # second takes m right-hand sides rather than p
            half = spd_solve(regularized(X.T @ X), Y @ A.T)
        else:
            half = spd_solve(regularized(X @ X.T), X @ Y @ A.T)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(
            "feature Gram X X^T + gamma I is not positive definite"
        ) from exc
    try:
        W = spd_solve(regularized(A @ A.T), half.T).T
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(
            "attribute Gram A A^T + gamma I is not positive definite"
        ) from exc
    if m < p:
        W = X @ W
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


def _distinct_columns(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(firsts, inverse): the index of the first of each distinct column
    of A in order of first occurrence, and each column's slot in firsts.
    Columns are equal when their bytes are, after adding 0.0 turns -0.0
    into 0.0."""
    columns = np.add(A.T, 0.0, order="C")
    bits = columns.view(np.uint64)
    n, row_bytes = bits.shape[0], bits.shape[1] * bits.itemsize
    # a stable sort of the columns' bytes puts equal columns next to each
    # other, the earliest first; equal columns have equal sums of their
    # bits, so only neighbours with equal sums are compared in full
    order = np.argsort(columns.view(np.dtype((np.void, row_bytes))).ravel(), kind="stable")
    sums = bits.sum(axis=1)[order]
    maybe = np.flatnonzero(sums[1:] == sums[:-1])
    starts = np.ones(n, dtype=bool)
    starts[maybe + 1] = (bits[order[maybe]] != bits[order[maybe + 1]]).any(axis=1)
    # each column's earliest equal column
    first = np.empty(n, dtype=np.intp)
    first[order] = order[starts][np.cumsum(starts) - 1]
    is_first = first == np.arange(n)
    return np.flatnonzero(is_first), (np.cumsum(is_first) - 1)[first]


def dem_rank(model: DemModel, x: np.ndarray, candidates: DemCandidates) -> Prediction:
    """Candidates by ascending Euclidean distance between x and each
    attribute vector model.prepare mapped; score is the negated distance."""
    diff = candidates.mapped - x
    scores = -np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return _ranked(candidates.labels, scores[candidates.inverse])


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
    extractor plus one method-specific head. recommend keeps the last
    set it prepared; a read-only embedding must not change under it."""

    classifier: BaselineClassifier
    head: ConseModel | EszslModel | DemModel
    split: ZslSplit | None = None
    # (vocab, embedding, head, AttributeMatrix, prepared set) recommend last ranked with
    prepared: tuple = field(default=(None,) * 5, init=False, repr=False, compare=False)

    @property
    def method(self) -> str:
        return self.head.method


def recommend(bundle: ZslBundle, tokens, candidates, k: int) -> Prediction:
    """Top-k candidate hashtags for one tweet. A tweet with no
    in-vocabulary tokens still gets a ranking (from the zero feature)
    but the prediction is flagged."""
    if k < 1:
        raise ValueError("k must be >= 1")
    candidates = list(candidates)
    if not candidates:
        raise DataError("candidate label set is empty")
    classifier, head = bundle.classifier, bundle.head
    vocab, emb = classifier.vocab, classifier.emb
    kept = bundle.prepared  # read once, so this call ranks with the set it checked
    # a set is reused only with the vocabulary, read-only embedding and head it came from
    fresh = emb.flags.writeable or any(a is not b for a, b in zip(kept, (vocab, emb, head)))
    attrs = AttributeMatrix.from_labels(candidates, vocab, emb, None if fresh else kept[3])
    if attrs is not kept[3]:
        bundle.prepared = kept = None  # the last set is let go before this one is prepared
        kept = bundle.prepared = (vocab, emb, head, attrs, head.prepare(attrs))
    prediction = head.rank(classifier, extract_features(classifier, tokens), kept[4])
    prediction.all_oov = all(t not in classifier.vocab.index for t in tokens)
    if prediction.all_oov:
        logger.warning("no in-vocabulary tokens; ranking from the zero feature")
    return prediction.top(k)


def save_zsl_bundle(
    bundle: ZslBundle,
    path,
    embedding_path: str,
    config: dict | None = None,
    sha256: str | None = None,
) -> None:
    """The bundle as one JSON object; the classifier entry names the
    embedding file by path and SHA-256 (sha256, where the caller already
    has it), which the loader checks. A relative embedding_path is
    recorded relative to the bundle's directory, where the loader looks
    for it."""
    base_dir = os.path.dirname(os.path.abspath(path))
    classifier = baseline_bundle_dict(bundle.classifier, embedding_path, None, sha256, base_dir)
    write_json(path, {
        "kind": "zsl",
        "method": bundle.method,
        "split": asdict(bundle.split) if bundle.split else None,
        "classifier": classifier,
        "head": bundle.head.to_json(),
        "config": config or {},
    })


def load_zsl_bundle(path) -> ZslBundle:
    obj = read_bundle(path)
    if obj.get("kind") != "zsl":
        raise DataError(f"{path}: not a zero-shot model bundle")
    base_dir = os.path.dirname(os.path.abspath(path))
    with bundle_fields(path):
        head = HEADS.get(obj["method"])
        if head is None:
            raise ValueError(f"unknown method {obj['method']!r}")
        classifier = baseline_from_bundle_dict(obj["classifier"], base_dir=base_dir)
        split = None
        if obj.get("split"):
            seen, unseen = obj["split"]["seen"], obj["split"]["unseen"]
            if not (is_str_list(seen) and is_str_list(unseen)):
                raise ValueError("split seen and unseen must be lists of labels")
            split = ZslSplit(seen, unseen, expect_int("split seed", obj["split"]["seed"]))
        return ZslBundle(classifier, head.from_json(obj["head"], classifier), split)
