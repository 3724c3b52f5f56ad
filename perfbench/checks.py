"""Correctness checks, computed apart from the program.

Each check returns a list of problems, empty when the output is right,
so a run can report every fault it saw. The serve oracle re-derives
rankings from a bundle's JSON with plain numpy.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from gen import RawCorpus

SCORE_RTOL = 1e-9


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def artifact_problems(reference: dict[str, str], paths) -> list[str]:
    """Every artifact must be byte-identical to its first repetition."""
    problems = []
    for path in paths:
        digest = file_digest(path)
        if reference.setdefault(path, digest) != digest:
            problems.append(f"{path}: bytes differ from the first repetition")
    return problems


def ingest_problems(report: dict, catalog: dict, corpus: RawCorpus, top_n: int, min_tweets: int) -> list[str]:
    """The drop report and label catalog against what the generator planted."""
    problems = []
    if report.get("n_input") != len(corpus.records):
        problems.append(f"n_input {report.get('n_input')} != {len(corpus.records)} records")
    if report.get("n_kept") != corpus.kept:
        problems.append(f"n_kept {report.get('n_kept')} != planted {corpus.kept}")
    drops = report.get("drops", {})
    for reason, planted in corpus.drops.items():
        if drops.get(reason) != planted:
            problems.append(f"drops[{reason}] {drops.get(reason)} != planted {planted}")
    extra = set(drops) - set(corpus.drops)
    if extra:
        problems.append(f"unexpected drop reasons {sorted(extra)}")
    expected = corpus.catalog(top_n, min_tweets)
    if catalog.get("labels") != expected:
        problems.append(f"label catalog {catalog.get('labels')} != {expected}")
    counts = {label: corpus.label_counts[label] for label in expected}
    if catalog.get("counts") != counts:
        problems.append(f"label counts {catalog.get('counts')} != {counts}")
    return problems


def vocabulary_problems(embedding_path, expected_tokens: set[str]) -> list[str]:
    """One embedding row per distinct token of the embedding corpus."""
    with open(embedding_path, encoding="utf-8") as fh:
        n_rows = int(fh.readline().split()[0])
        tokens = [line.split(" ", 1)[0] for line in fh]
    problems = []
    if n_rows != len(tokens):
        problems.append(f"header declares {n_rows} rows, file has {len(tokens)}")
    if len(set(tokens)) != len(tokens):
        problems.append("duplicate embedding rows")
    if set(tokens) != expected_tokens:
        missing = sorted(expected_tokens - set(tokens))[:5]
        extra = sorted(set(tokens) - expected_tokens)[:5]
        problems.append(f"embedding rows differ from corpus tokens: missing {missing}, extra {extra}")
    return problems


def loss_problems(name: str, losses, ceiling: float | None = None) -> list[str]:
    """Finite losses whose last epoch is below the first (and below
    `ceiling` when given)."""
    losses = list(losses)
    if len(losses) < 2:
        return [f"{name}: {len(losses)} epoch losses, need at least 2"]
    problems = []
    if not all(math.isfinite(x) for x in losses):
        problems.append(f"{name}: non-finite loss in {losses}")
    elif not losses[-1] < losses[0]:
        problems.append(f"{name}: last loss {losses[-1]} not below first {losses[0]}")
    if ceiling is not None and not losses[-1] < ceiling:
        problems.append(f"{name}: final loss {losses[-1]} not below {ceiling}")
    return problems


def hit_problems(hit_at: dict, full_k: int) -> list[str]:
    """hit@K must not fall as K grows and must be 100 once K reaches
    every candidate."""
    ks = sorted(int(k) for k in hit_at)
    values = [float(hit_at[str(k)]) for k in ks]
    problems = []
    for (k0, v0), (k1, v1) in zip(zip(ks, values), zip(ks[1:], values[1:])):
        if v1 < v0:
            problems.append(f"hit@{k1} = {v1} below hit@{k0} = {v0}")
    if full_k not in ks:
        problems.append(f"no hit@{full_k}")
    elif values[ks.index(full_k)] != 100.0:
        problems.append(f"hit@{full_k} = {values[ks.index(full_k)]}, expected 100 over {full_k} candidates")
    return problems


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


class RankOracle:
    """Rankings recomputed from a zsl bundle's JSON.

    `vectors` holds one embedding row per token of `index`, times
    `divisor`: a large embedding can stay an integer matrix, and only the
    rows a text or the candidates use are divided. Identical candidate
    columns are scored once, so exact ties break by candidate order as
    the program promises."""

    def __init__(self, bundle: dict, index: dict[str, int], vectors: np.ndarray, candidates,
                 divisor: float = 1.0):
        self.method = bundle["method"]
        hidden = bundle["classifier"]["hidden"]
        output = bundle["classifier"]["output"]
        self.Wh, self.bh = np.array(hidden["weights"]), np.array(hidden["bias"])
        self.Wo, self.bo = np.array(output["weights"]), np.array(output["bias"])
        self.head = bundle["head"]
        self.index = index
        self.vectors = vectors
        self.divisor = divisor
        self.candidates = list(candidates)
        columns = self._gather([index["#" + c] for c in self.candidates])
        self.unique, self.inverse = np.unique(columns, axis=0, return_inverse=True)
        self.inverse = self.inverse.reshape(-1)

    def _gather(self, rows) -> np.ndarray:
        return self.vectors[rows] / self.divisor

    def features(self, tokens) -> np.ndarray:
        rows = [self.index[t] for t in tokens if t in self.index]
        x = self._gather(rows).mean(axis=0) if rows else np.zeros(self.vectors.shape[1])
        return np.tanh(self.Wh @ x + self.bh)

    def _unique_scores(self, h: np.ndarray) -> np.ndarray:
        U = self.unique
        if self.method == "conse":
            probs = _softmax(self.Wo @ h + self.bo)
            top = sorted(range(len(probs)), key=lambda i: (-probs[i], i))[: int(self.head["T"])]
            seen = np.array(self.head["vectors"])
            f = probs[top] @ seen[top] / probs[top].sum()
            norms = np.linalg.norm(U, axis=1) * np.linalg.norm(f)
            return np.divide(U @ f, norms, out=np.zeros(len(U)), where=norms != 0)
        if self.method == "eszsl":
            return U @ (h @ np.array(self.head["W"]))
        if self.method == "dem":
            mapped = np.maximum(U @ np.array(self.head["weights"]).T + np.array(self.head["bias"]), 0.0)
            return -np.linalg.norm(mapped - h, axis=1)
        raise ValueError(f"unknown method {self.method!r}")

    def rank(self, tokens) -> list[tuple[str, float]]:
        scores = self._unique_scores(self.features(tokens))[self.inverse]
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        return [(self.candidates[i], float(scores[i])) for i in order]


def ranking_problems(got, expected, what: str) -> list[str]:
    """Same labels in the same order, scores within SCORE_RTOL."""
    got_labels = [label for label, _ in got]
    want_labels = [label for label, _ in expected]
    if got_labels != want_labels:
        first = next(
            (i for i, (a, b) in enumerate(zip(got_labels, want_labels)) if a != b),
            min(len(got_labels), len(want_labels)),
        )
        return [f"{what}: ranking differs from the oracle at position {first}"]
    for (label, a), (_, b) in zip(got, expected):
        if abs(a - b) > SCORE_RTOL * max(abs(a), abs(b), 1e-3):
            return [f"{what}: score of {label} {a!r} != oracle {b!r}"]
    return []
