"""Skip-gram word embeddings with negative sampling, plus the lookup
utilities built on top of them (mean pooling, cosine). An embedding is
a Vocabulary and one (V, d) array of word vectors, row i for token i;
the context vectors exist only while train_sgns runs.

The trainer makes one vectorized SGD update per sentence: all of a
sentence's pairs are scored against the vectors as they stood when
the sentence began, and their steps are added in pair order. No BLAS
routine takes part in an update, so training is bit-deterministic
given the seed, whatever the BLAS thread count. Embeddings are
exchanged in the word2vec text format ("V d" header, then one
"token v1 ... vd" row per word). The commands that write an artifact
naming an embedding file also keep its binary twin (TWIN_SUFFIX), which
load_embeddings reads instead of parsing the text while the twin
records the text's sha256. Every load of one twin shares one read-only
embedding for as long as any caller holds it.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import stat
import tempfile
import weakref
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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
class SgnsConfig:
    dim: int = 150
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-x) overflows to inf for x below about -709, and 1 / inf is
    # the sigmoid's limit 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


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
    g = _sigmoid(np.einsum("pd,pkd->pk", v, u))
    g[:, 0] -= 1.0
    grad_v = np.einsum("pk,pkd->pd", g, u)
    _add_rows(inp, centers, -steps[:, None] * grad_v)
    _add_rows(out, ids.ravel(), (-steps[:, None] * g)[:, :, None] * v[:, None, :])


def train_sgns(
    sentences: Sequence[Sequence[str]],
    vocab: Vocabulary,
    config: SgnsConfig,
) -> tuple[np.ndarray, list[float]]:
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
    Word vectors start uniform in [-0.5/d, 0.5/d], context vectors at
    zero.

    Returns the (V, d) word vectors and one loss value per epoch. The
    loss is measured after each epoch over the full pair set against a
    single fixed draw of negatives, so the curve tracks parameter
    movement rather than sampling noise.
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
        return inp, []
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
    return inp, epoch_losses


def save_embeddings(vectors: np.ndarray, vocab: Vocabulary, path) -> None:
    """Write the word vectors in word2vec text format with 17 significant
    digits per value (enough to round-trip float64 exactly)."""
    # utf-8: the minimally preprocessed training corpus keeps accented
    # tokens, so the vocabulary is not guaranteed to be ASCII
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(vocab)} {vectors.shape[1]}\n")
        for token, row in zip(vocab.tokens, vectors):
            fh.write(token + " " + " ".join(f"{x:.17g}" for x in row) + "\n")


def _parse_word2vec(path) -> tuple[Vocabulary, np.ndarray]:
    """Stream a word2vec text file into a vocabulary and its (V, d) word
    vectors. Values must be ASCII decimal numerals, inf
    or nan, as float() spells them; numpy's reader parses them all in
    one call, rounding as float() does.

    A row takes at least 2 * d + 2 bytes (a token, d one-character
    values, d spaces and a newline, less one for the last row), so the
    file's size bounds the rows it can hold, and no more are read
    whatever the header declares.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            info = os.fstat(fh.fileno())
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
            body_bytes = info.st_size - len(header.encode("utf-8"))
            max_rows = min(n_rows, (body_bytes + 1) // (2 * dim + 2))
            tokens: list[str] = []
            index: dict[str, int] = {}

            def values():
                # the value part of each row, after the row's checks;
                # row i is line i + 2, and loadtxt pulls one row at a time
                for lineno, line in enumerate(fh, start=2):
                    line = line.rstrip("\n")
                    if len(tokens) >= n_rows:
                        raise DataError(f"{path}:{lineno}: more rows than header declares")
                    if line.count(" ") != dim:
                        raise DataError(
                            f"{path}:{lineno}: expected {dim} values, got {line.count(' ')}"
                        )
                    token, _, rest = line.partition(" ")
                    if not token:
                        raise DataError(f"{path}:{lineno}: empty token")
                    if token in index:
                        raise DataError(f"{path}:{lineno}: duplicate token {token!r}")
                    # loadtxt would skip an empty line, and its float
                    # parser strips the separator controls float() rejects
                    if not rest or (
                        "\x1c" in rest or "\x1d" in rest or "\x1e" in rest or "\x1f" in rest
                    ):
                        raise DataError(f"{path}:{lineno}: non-numeric field")
                    index[token] = len(tokens)
                    tokens.append(token)
                    yield rest

            rows = values()
            vectors = np.empty((0, dim))
            if max_rows:  # loadtxt warns on input with no rows
                try:
                    vectors = np.loadtxt(
                        rows, dtype=np.float64, delimiter=" ", comments=None,
                        quotechar=None, ndmin=2, max_rows=max_rows,
                    )
                except UnicodeDecodeError:  # a ValueError, handled below
                    raise
                except ValueError as exc:
                    raise DataError(f"{path}:{len(tokens) + 1}: non-numeric field") from exc
            # a row past the size bound has an empty value
            if next(rows, None) is not None:
                raise DataError(f"{path}:{len(tokens) + 1}: non-numeric field")
    except UnicodeDecodeError as exc:
        raise not_text(path, exc) from exc
    if len(tokens) != n_rows:
        raise DataError(f"{path}:1: header declares {n_rows} rows, found {len(tokens)}")
    return Vocabulary(tokens=tokens, counts=[1] * len(tokens), index=index), vectors


# the twin of an embedding file E is E + TWIN_SUFFIX: three np.save
# arrays back to back, E's sha256 as 64 ASCII bytes, the tokens joined
# by newlines as UTF-8 bytes (a token holds no newline), and the (V, d)
# float64 matrix
TWIN_SUFFIX = ".twin.npy"


def _require_regular_file(path) -> None:
    # an embedding is hashed and sized before it is parsed; the path is
    # checked before any open, which on a pipe would wait for a writer
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise DataError(f"{path}: an embedding must be a regular file")


def file_sha256(path) -> str:
    _require_regular_file(path)
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _twin_digest(fh) -> str:
    """The sha256 at the start of an open twin."""
    stored = np.load(fh, allow_pickle=False)
    if stored.dtype != np.uint8 or stored.shape != (64,):
        raise ValueError("its first array is not a sha256")
    return stored.tobytes().decode("ascii")


def _read_twin(twin: str, digest: str) -> tuple[Vocabulary, np.ndarray] | None:
    """The embedding a twin holds, or None when it records another
    sha256 than digest; a twin that does not load or hold an embedding
    raises a DataError naming it."""
    try:
        with open(twin, "rb") as fh:
            if _twin_digest(fh) != digest:
                return None
            blob = np.load(fh, allow_pickle=False)
            vectors = np.load(fh, allow_pickle=False)
        if blob.dtype != np.uint8 or blob.ndim != 1:
            raise ValueError("its second array is not a byte string")
        tokens = blob.tobytes().decode("utf-8").split("\n") if blob.size else []
        if vectors.dtype != np.float64 or vectors.ndim != 2 or len(vectors) != len(tokens):
            raise ValueError(
                f"its {vectors.dtype} matrix of shape {vectors.shape} is not "
                f"{len(tokens)} rows of float64"
            )
        index = {token: i for i, token in enumerate(tokens)}
        if len(index) != len(tokens):
            raise ValueError("its tokens repeat")
    except (EOFError, ValueError) as exc:
        raise DataError(f"{twin}: damaged embedding twin ({exc}); delete it") from exc
    return Vocabulary(tokens=tokens, counts=[1] * len(tokens), index=index), vectors


# what a read twin holds, while any caller holds it, keyed by the text's
# sha256 and the twin's (st_dev, st_ino, st_size, st_mtime_ns): a twin
# that has been rewritten since is read again
_SHARED_VOCABS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_SHARED_VECTORS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def load_embeddings(path, digest: str | None = None) -> tuple[Vocabulary, np.ndarray]:
    """A word2vec text file's vocabulary and (V, d) word vectors, read
    from its twin when the twin records the file's sha256 and parsed
    from the text otherwise. digest is the file's sha256 where the
    caller has already checked it; the file is hashed only when a twin
    exists and no digest is given. A twin that records the sha256 but
    is damaged raises a DataError naming it. Counts are not part of
    either format, so every loaded token gets frequency 1.

    Loads of one unchanged twin return the same Vocabulary and the same
    read-only matrix, so bundles over one embedding hold one copy.
    """
    _require_regular_file(path)
    twin = f"{os.fspath(path)}{TWIN_SUFFIX}"
    try:
        info = os.stat(twin)
    except OSError:
        return _parse_word2vec(path)
    digest = digest or file_sha256(path)
    key = (digest, info.st_dev, info.st_ino, info.st_size, info.st_mtime_ns)
    vocab, vectors = _SHARED_VOCABS.get(key), _SHARED_VECTORS.get(key)
    if vocab is not None and vectors is not None:
        return vocab, vectors
    loaded = _read_twin(twin, digest)
    if loaded is None:
        return _parse_word2vec(path)
    vocab, vectors = loaded
    # np.load's matrix views the 1-D array it read into: freeze both
    array = vectors
    while isinstance(array, np.ndarray):
        array.flags.writeable = False
        array = array.base
    _SHARED_VOCABS[key], _SHARED_VECTORS[key] = vocab, vectors
    return vocab, vectors


def write_twin(path, vocab: Vocabulary, vectors: np.ndarray, digest: str) -> None:
    """Write the twin of embedding file path, whose sha256 is digest and
    which holds vocab and vectors, unless a twin recording digest exists.
    The twin is written to a temporary file beside it and moved over it,
    with the text's permissions; where that fails with an OSError no
    twin is written, and the text alone serves."""
    twin = f"{os.fspath(path)}{TWIN_SUFFIX}"
    try:
        with open(twin, "rb") as fh:
            if _twin_digest(fh) == digest:
                return
    except (OSError, EOFError, ValueError):
        pass
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(twin)), suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            for array in (
                np.frombuffer(digest.encode("ascii"), dtype=np.uint8),
                np.frombuffer("\n".join(vocab.tokens).encode("utf-8"), dtype=np.uint8),
                np.asarray(vectors, dtype=np.float64),
            ):
                np.save(fh, array, allow_pickle=False)
        shutil.copymode(path, tmp)
        os.replace(tmp, twin)
    except OSError:
        if tmp is not None:
            with suppress(OSError):
                os.remove(tmp)


def mean_pool(tokens: Sequence[str], vocab: Vocabulary, vectors: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the word vectors of in-vocabulary tokens; an
    input with no known tokens pools to the zero vector, so inference
    never aborts."""
    rows = [vocab.index[t] for t in tokens if t in vocab.index]
    if not rows:
        return np.zeros(vectors.shape[1])
    return vectors[rows].mean(axis=0)


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
