"""Skip-gram word embeddings with negative sampling, plus the lookup
utilities built on top of them (mean pooling, cosine, per-hashtag
attribute vectors).

The trainer makes one vectorized SGD update per sentence: all of a
sentence's pairs are scored against the vectors as they stood when
the sentence began, and their steps are added in pair order. No BLAS
routine takes part in an update, so training is bit-deterministic
given the seed, whatever the BLAS thread count. Embeddings are
exchanged in the word2vec text format ("V d" header, then one
"token v1 ... vd" row per word).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.special import expit

from .errors import DataError, NumericalError, not_text


@dataclass
class Vocabulary:
    """Token table with dense indices, ordered by descending frequency
    then lexicographically."""

    tokens: list[str]
    counts: list[int]
    index: dict[str, int]

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index


@dataclass
class EmbeddingMatrix:
    """Input (word) and output (context) vector tables, one row per
    vocabulary entry."""

    input_vectors: np.ndarray  # (V, d)
    output_vectors: np.ndarray  # (V, d)

    @property
    def dim(self) -> int:
        return self.input_vectors.shape[1]


@dataclass
class SgnsConfig:
    dim: int = 150
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    min_count: int = 1
    seed: int = 0
    subsample_threshold: float | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


def build_vocab(sentences: Iterable[Sequence[str]], min_count: int = 1) -> Vocabulary:
    """Count tokens over the corpus and keep those with frequency >=
    min_count, indexed by (-frequency, token)."""
    freq = Counter()
    for sentence in sentences:
        freq.update(sentence)
    kept = sorted(
        ((t, c) for t, c in freq.items() if c >= min_count),
        key=lambda tc: (-tc[1], tc[0]),
    )
    if not kept:
        raise DataError("empty vocabulary: no token reached min_count")
    tokens = [t for t, _ in kept]
    counts = [c for _, c in kept]
    return Vocabulary(tokens=tokens, counts=counts, index={t: i for i, t in enumerate(tokens)})


def _pair_positions(n: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions (i, j) of every skip-gram pair of an n-token sentence,
    in scan order: i ascending, then j ascending, with 0 < |i - j| <= window."""
    if window < 1:
        raise ValueError("window must be >= 1")
    i = np.repeat(np.arange(n), 2 * window + 1)
    j = i + np.tile(np.arange(-window, window + 1), n)
    keep = (j >= 0) & (j < n) & (j != i)
    return i[keep], j[keep]


def noise_distribution(vocab: Vocabulary) -> np.ndarray:
    """Negative-sampling distribution: unigram counts raised to 0.75,
    normalized to sum to 1."""
    powered = np.asarray(vocab.counts, dtype=float) ** 0.75
    return powered / powered.sum()


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    # log sigma(x) = -log(1 + exp(-x)), computed stably for any sign
    return -np.logaddexp(0.0, -x)


# bytes of the loss evaluation's largest gather, out[negatives[block]]
_EVAL_BLOCK_BYTES = 4 << 20
# most pairs in one update: a longer sentence is trained in consecutive
# slices of this many. A frequent token collects one step per pair it
# occurs in, and their sum at stale vectors grows with the slice: lines
# of 1,000 Zipf-distributed tokens diverged at lr 0.1 with 512 pairs
# and trained with 128. Tweets at window 5 make up to about 110 pairs.
MAX_UPDATE_PAIRS = 128


def _eval_pair_loss(
    inp: np.ndarray,
    out: np.ndarray,
    centers: np.ndarray,
    contexts: np.ndarray,
    negatives: np.ndarray,
) -> float:
    """Mean per-pair loss over a fixed set of (center, context,
    negatives) triples; chunked so memory stays bounded."""
    block = max(1, _EVAL_BLOCK_BYTES // (negatives.shape[1] * inp.shape[1] * inp.itemsize))
    total = 0.0
    for start in range(0, len(centers), block):
        sl = slice(start, start + block)
        v = inp[centers[sl]]
        pos = np.einsum("nd,nd->n", v, out[contexts[sl]])
        neg = np.einsum("nd,nkd->nk", v, out[negatives[sl]])
        total -= float(_log_sigmoid(pos).sum() + _log_sigmoid(-neg).sum())
    return total / len(centers)


def _add_rows(table: np.ndarray, rows: np.ndarray, deltas: np.ndarray) -> None:
    """table[rows] += deltas, adding a repeated row's deltas in order.
    np.add.at on the flat table is several times faster than on rows."""
    d = table.shape[1]
    flat = table.reshape(-1)  # a view: train_sgns's tables are C-contiguous
    np.add.at(flat, (rows[:, None] * d + np.arange(d)).ravel(), deltas.ravel())


def _sgns_update(
    inp: np.ndarray,
    out: np.ndarray,
    centers: np.ndarray,
    contexts: np.ndarray,
    negatives: np.ndarray,
    steps: np.ndarray,
) -> None:
    """One SGD update for a run of pairs: every pair's gradient is taken
    at the tables as they stand on entry, scaled by its own step size,
    and the steps are added to the tables in pair order. einsum keeps
    the sums out of BLAS, so they do not depend on its thread count."""
    ids = np.concatenate((contexts[:, None], negatives), axis=1)
    v = inp[centers]
    u = out[ids]
    g = expit(np.einsum("pd,pkd->pk", v, u))
    g[:, 0] -= 1.0
    grad_v = np.einsum("pk,pkd->pd", g, u)
    _add_rows(inp, centers, -steps[:, None] * grad_v)
    _add_rows(out, ids.ravel(), (-steps[:, None] * g)[:, :, None] * v[:, None, :])


def train_sgns(
    sentences: Sequence[Sequence[str]],
    vocab: Vocabulary,
    config: SgnsConfig,
) -> tuple[EmbeddingMatrix, list[float]]:
    """Train skip-gram embeddings with negative sampling.

    Per (center, context) pair the loss is
    -log sigma(u_c . v_w) - sum_k log sigma(-u_nk . v_w) with the k
    negatives drawn from the unigram^0.75 distribution. One SGD update
    is applied per sentence, in corpus order: every pair of the
    sentence is scored against the vectors as they stood when the
    sentence began, takes its own step size, and the steps are added
    in pair order, so a row that occurs in several pairs receives all
    of them. A sentence of more than MAX_UPDATE_PAIRS pairs is updated
    in consecutive slices of that many. The step size decays per pair,
    linearly from the configured rate to 1e-4 of it over the run.
    Input vectors start uniform in [-0.5/d, 0.5/d], output vectors at
    zero.

    Returns the embedding and one loss value per epoch. The loss is
    measured after each epoch over the full pair set against a single
    fixed draw of negatives, so the curve tracks parameter movement
    rather than sampling noise.
    """
    rng = np.random.default_rng(config.seed)
    V, d = len(vocab), config.dim
    inp = (rng.random((V, d)) - 0.5) / d
    out = np.zeros((V, d))
    lr0 = config.learning_rate
    k = config.negatives

    positions: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def pairs_of(sent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if len(sent) not in positions:
            positions[len(sent)] = _pair_positions(len(sent), config.window)
        i, j = positions[len(sent)]
        return sent[i], sent[j]

    indexed = [
        np.array([vocab.index[t] for t in sentence if t in vocab.index], dtype=np.intp)
        for sentence in sentences
    ]
    sentence_pairs = [pairs_of(sent) for sent in indexed]
    noise_cdf = np.cumsum(noise_distribution(vocab))
    if config.subsample_threshold is not None:
        rel_freq = np.asarray(vocab.counts, dtype=float)
        rel_freq /= rel_freq.sum()
        keep_prob = np.minimum(1.0, np.sqrt(config.subsample_threshold / rel_freq))
    else:
        keep_prob = None

    n_pairs = sum(len(centers) for centers, _ in sentence_pairs)
    if not n_pairs:
        return EmbeddingMatrix(input_vectors=inp, output_vectors=out), []
    eval_centers = np.concatenate([centers for centers, _ in sentence_pairs])
    eval_contexts = np.concatenate([contexts for _, contexts in sentence_pairs])
    eval_rng = np.random.default_rng([config.seed, 1])
    eval_negatives = np.searchsorted(noise_cdf, eval_rng.random((n_pairs, k))).astype(np.intp)

    planned = config.epochs * n_pairs
    processed = 0
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        for sent, (centers, contexts) in zip(indexed, sentence_pairs):
            if keep_prob is not None and len(sent):
                centers, contexts = pairs_of(sent[rng.random(len(sent)) < keep_prob[sent]])
            if not len(centers):
                continue
            negatives = np.searchsorted(noise_cdf, rng.random((len(centers), k)))
            pair_no = processed + np.arange(len(centers))
            steps = lr0 * np.maximum(1e-4, 1.0 - pair_no / planned)
            processed += len(centers)
            for s in range(0, len(centers), MAX_UPDATE_PAIRS):
                sl = slice(s, s + MAX_UPDATE_PAIRS)
                _sgns_update(inp, out, centers[sl], contexts[sl], negatives[sl], steps[sl])
        mean_loss = _eval_pair_loss(inp, out, eval_centers, eval_contexts, eval_negatives)
        if not np.isfinite(mean_loss):
            raise NumericalError(
                f"non-finite skip-gram loss at epoch {epoch} "
                f"(last finite epoch means: {epoch_losses})"
            )
        epoch_losses.append(mean_loss)
    return EmbeddingMatrix(input_vectors=inp, output_vectors=out), epoch_losses


def save_embeddings(emb: EmbeddingMatrix, vocab: Vocabulary, path) -> None:
    """Write input vectors in word2vec text format with 17 significant
    digits per value (enough to round-trip float64 exactly)."""
    vecs = emb.input_vectors
    # utf-8: the minimally preprocessed training corpus keeps accented
    # tokens, so the vocabulary is not guaranteed to be ASCII
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(vocab)} {emb.dim}\n")
        for i, token in enumerate(vocab.tokens):
            fh.write(token + " " + " ".join(f"{x:.17g}" for x in vecs[i]) + "\n")


def load_embeddings(path) -> tuple[Vocabulary, EmbeddingMatrix]:
    """Stream a word2vec text file back into a vocabulary and embedding.

    Counts are not part of the format, so every loaded token gets
    frequency 1; context vectors likewise start at zero.
    """
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
            vectors = np.empty((n_rows, dim))
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
        raise DataError(f"{path}: header declares {n_rows} rows, found {len(tokens)}")
    vocab = Vocabulary(tokens=tokens, counts=[1] * len(tokens), index=index)
    emb = EmbeddingMatrix(input_vectors=vectors, output_vectors=np.zeros_like(vectors))
    return vocab, emb


def mean_pool(
    tokens: Sequence[str], vocab: Vocabulary, emb: EmbeddingMatrix
) -> tuple[np.ndarray, bool]:
    """Arithmetic mean of the input vectors of in-vocabulary tokens.

    Returns (vector, all_oov); an input with no known tokens pools to
    the zero vector with the flag set, so inference never aborts.
    """
    rows = [vocab.index[t] for t in tokens if t in vocab.index]
    if not rows:
        return np.zeros(emb.dim), True
    return emb.input_vectors[rows].mean(axis=0), False


# norms whose squares are normal floats, where np.linalg.norm is exact
# to rounding
NORM_MIN = float(np.sqrt(np.finfo(float).tiny))
NORM_MAX = float(np.sqrt(np.finfo(float).max))


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; defined as 0 when either vector is zero."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if not (NORM_MIN <= nu <= NORM_MAX and NORM_MIN <= nv <= NORM_MAX):
        # the squared norm left the normal range (or underflowed to 0) and
        # lost its precision; the cosine does not change when a vector is
        # scaled
        if not (u.any() and v.any()):
            return 0.0
        u, v = u / np.abs(u).max(), v / np.abs(v).max()
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    return float(u @ v / (nu * nv))


def label_embedding(hashtag: str, vocab: Vocabulary, emb: EmbeddingMatrix) -> np.ndarray:
    """Attribute vector of a hashtag label: the embedding row of the
    token '#<hashtag>'. Raises if that token never made it into the
    vocabulary; the caller must restrict the label set instead."""
    token = "#" + hashtag
    if token not in vocab.index:
        raise DataError(
            f"label {hashtag!r} has no embedding: token {token!r} not in vocabulary"
        )
    return emb.input_vectors[vocab.index[token]]
