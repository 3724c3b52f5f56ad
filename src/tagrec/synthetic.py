"""Synthetic corpora with known structure.

Real hashtag corpora are private, so correctness checks run on built
corpora whose answers are known by construction:

- a clustered corpus for zero-shot runs: every label owns a cluster of
  content tokens around a centroid, centroids share a low-rank factor
  structure so unseen labels are mixtures of directions the seen labels
  already cover, and each '#label' token carries exactly its centroid;
- a strongly separable corpus where nearest-centroid is a perfect
  oracle, for supervised learnability checks.

All generators are pure functions of their arguments and a seed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .embedding import Vocabulary
from .ingest import Dataset


@dataclass
class SyntheticCorpus:
    dataset: Dataset
    vocab: Vocabulary
    emb: np.ndarray  # (V, d) word vectors
    centroids: dict[str, np.ndarray]


def _vocabulary_from(tokens_with_counts, vectors) -> tuple[Vocabulary, np.ndarray]:
    ordered = sorted(tokens_with_counts, key=lambda tc: (-tc[1], tc[0]))
    tokens = [t for t, _ in ordered]
    counts = [c for _, c in ordered]
    vocab = Vocabulary(
        tokens=tokens, counts=counts, index={t: i for i, t in enumerate(tokens)}
    )
    return vocab, np.stack([vectors[t] for t in tokens])


def _separated_mixtures(
    rng, factors: np.ndarray, n: int, min_separation: float, alpha: float = 0.5
) -> list[np.ndarray]:
    """Unit-norm mixtures of the factor columns, greedily accepted only
    when far enough from all previous ones."""
    centroids: list[np.ndarray] = []
    attempts = 0
    while len(centroids) < n:
        attempts += 1
        if attempts > 20000:
            raise ValueError(
                f"could not place {n} centroids with separation {min_separation}"
            )
        w = rng.dirichlet(np.full(factors.shape[1], alpha))
        c = factors @ w
        c = c / np.linalg.norm(c)
        if all(np.linalg.norm(c - other) >= min_separation for other in centroids):
            centroids.append(c)
    return centroids


def _token_world(
    rng,
    centroids: dict[str, np.ndarray],
    name_format: str,
    tokens_per_label: int,
    noise: float,
    tweets_per_label: int,
    tweet_len: tuple[int, int],
) -> SyntheticCorpus:
    """Each label's content tokens (its centroid plus isotropic noise,
    named by name_format from the label's index li and the token's j)
    and its '#label' token (exactly its centroid), then tweets of
    uniformly drawn content tokens, and the vocabulary of every token
    counted by its use in the tweets."""
    labels = list(centroids)
    vectors: dict[str, np.ndarray] = {}
    token_names: dict[str, list[str]] = {}
    for li, label in enumerate(labels):
        names = [name_format.format(li=li, j=j) for j in range(tokens_per_label)]
        token_names[label] = names
        for name in names:
            vectors[name] = centroids[label] + noise * rng.standard_normal(len(centroids[label]))
        vectors["#" + label] = centroids[label].copy()

    examples = []
    lo, hi = tweet_len
    for label in labels:
        pool = token_names[label]
        for _ in range(tweets_per_label):
            k = int(rng.integers(lo, hi + 1))
            picks = rng.integers(0, len(pool), size=k)
            examples.append(([pool[int(i)] for i in picks], label))
    usage = Counter(t for tokens, _ in examples for t in tokens)
    vocab, emb = _vocabulary_from([(t, usage.get(t, 1)) for t in vectors], vectors)
    return SyntheticCorpus(
        dataset=Dataset(examples=examples, label_set=labels),
        vocab=vocab,
        emb=emb,
        centroids=centroids,
    )


def make_clustered_corpus(
    n_labels: int = 12,
    tweets_per_label: int = 100,
    tokens_per_label: int = 30,
    dim: int = 150,
    n_factors: int = 5,
    noise: float = 0.05,
    min_separation: float = 0.6,
    tweet_len: tuple[int, int] = (6, 12),
    seed: int = 0,
) -> SyntheticCorpus:
    """Corpus of token clusters whose label centroids are mixtures of a
    few shared orthonormal factors.

    The low-rank structure is what makes zero-shot transfer possible: a
    held-out label's centroid lies in the span of the seen centroids,
    so a compatibility model fitted on seen labels can score it. Every
    '#label' token embeds to exactly its centroid; content tokens are
    the centroid plus isotropic noise and never include the hashtag
    itself, so a test tweet cannot give its label away.
    """
    if n_labels < 2 or n_factors < 1 or n_factors > dim:
        raise ValueError("need n_labels >= 2 and 1 <= n_factors <= dim")
    rng = np.random.default_rng(seed)
    factors, _ = np.linalg.qr(rng.standard_normal((dim, n_factors)))
    centroids = _separated_mixtures(rng, factors, n_labels, min_separation)
    labels = [f"tag{i:02d}" for i in range(n_labels)]
    return _token_world(
        rng, dict(zip(labels, centroids)), "w{li:02d}_{j:02d}",
        tokens_per_label, noise, tweets_per_label, tweet_len,
    )


def make_separable_dataset(
    n_labels: int = 4,
    tweets_per_label: int = 60,
    tokens_per_label: int = 20,
    dim: int = 150,
    noise: float = 0.02,
    tweet_len: tuple[int, int] = (6, 12),
    seed: int = 0,
) -> SyntheticCorpus:
    """Corpus with mutually orthogonal unit centroids and tiny token
    noise; nearest-centroid classification is perfect by construction."""
    if n_labels < 2 or n_labels > dim:
        raise ValueError("need 2 <= n_labels <= dim")
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, n_labels)))
    labels = [f"sep{i}" for i in range(n_labels)]
    return _token_world(
        rng, {label: basis[:, i].copy() for i, label in enumerate(labels)}, "s{li}_{j:02d}",
        tokens_per_label, noise, tweets_per_label, tweet_len,
    )
