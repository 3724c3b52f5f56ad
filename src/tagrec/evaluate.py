"""Metrics and experiment drivers.

Two table producers: a stratified k-fold run of the supervised
baseline (accuracy / precision / recall / F1), and a grid of
zero-shot or few-shot cells (split x method x seed) scored by
Flat-Hit@K. Both return plain dicts ready for json.dump; text
renderers produce aligned tables with percentages to one decimal.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .embedding import Vocabulary
from .errors import DataError
from .ingest import Dataset
from .supervised import (
    BaselineClassifier,
    TrainSpec,
    extract_features_batch,
    train_baseline,
)
from .zsl import (
    AttributeMatrix,
    ZslBundle,
    fit_bundles,
    fsl_augment,
    make_split,
    rank_features,
    subset_by_labels,
)

logger = logging.getLogger(__name__)

METHODS = ("conse", "eszsl", "dem")


@dataclass
class ConfusionCounts:
    labels: list
    tp: dict
    fp: dict
    fn: dict
    total: int


@dataclass
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    averaging: str  # micro | macro

    def as_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


@dataclass
class HitReport:
    hit_at: dict[int, float]  # K -> percentage in [0, 100]

    def as_dict(self) -> dict:
        return {str(k): v for k, v in sorted(self.hit_at.items())}


def confusion_counts(y_true, y_pred) -> ConfusionCounts:
    y_true, y_pred = list(y_true), list(y_pred)
    if len(y_true) != len(y_pred) or not y_true:
        raise ValueError(
            f"label sequences must have equal nonzero length, "
            f"got {len(y_true)} and {len(y_pred)}"
        )
    labels = sorted(set(y_true) | set(y_pred), key=str)
    tp = {label: 0 for label in labels}
    fp = {label: 0 for label in labels}
    fn = {label: 0 for label in labels}
    for t, p in zip(y_true, y_pred):
        if t == p:
            tp[t] += 1
        else:
            fp[p] += 1
            fn[t] += 1
    return ConfusionCounts(labels=labels, tp=tp, fp=fp, fn=fn, total=len(y_true))


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def classification_metrics(y_true, y_pred, averaging: str = "micro") -> MetricsReport:
    """Accuracy plus precision/recall/F1 under micro or macro pooling.

    Micro pools TP/FP/FN over labels, which in single-label
    classification makes precision = recall = accuracy. Macro averages
    per-label scores, with empty ratios defined as 0.
    """
    if averaging not in ("micro", "macro"):
        raise ValueError(f"averaging must be micro or macro, got {averaging!r}")
    counts = confusion_counts(y_true, y_pred)
    accuracy = sum(counts.tp.values()) / counts.total
    if averaging == "micro":
        tp = sum(counts.tp.values())
        precision = _safe_div(tp, tp + sum(counts.fp.values()))
        recall = _safe_div(tp, tp + sum(counts.fn.values()))
        f1 = _safe_div(2 * precision * recall, precision + recall)
    else:
        per_p, per_r, per_f = [], [], []
        for label in counts.labels:
            p = _safe_div(counts.tp[label], counts.tp[label] + counts.fp[label])
            r = _safe_div(counts.tp[label], counts.tp[label] + counts.fn[label])
            per_p.append(p)
            per_r.append(r)
            per_f.append(_safe_div(2 * p * r, p + r))
        precision = sum(per_p) / len(per_p)
        recall = sum(per_r) / len(per_r)
        f1 = sum(per_f) / len(per_f)
    return MetricsReport(
        accuracy=accuracy, precision=precision, recall=recall, f1=f1, averaging=averaging
    )


def flat_hit_at_k(rankings, y_true, ks=(1, 2, 5)) -> HitReport:
    """Percentage of examples whose true label sits within the top K of
    its ranking. Each ranking must cover the same candidate set with no
    duplicates; K beyond the candidate count is clamped."""
    rankings, y_true = [list(r) for r in rankings], list(y_true)
    if len(rankings) != len(y_true) or not y_true:
        raise ValueError(
            f"need equally many rankings and labels, got {len(rankings)} and {len(y_true)}"
        )
    n_candidates = len(rankings[0])
    for i, ranking in enumerate(rankings):
        if len(ranking) != n_candidates:
            raise ValueError(f"ranking {i} has {len(ranking)} entries, expected {n_candidates}")
        if len(set(ranking)) != len(ranking):
            raise ValueError(f"ranking {i} contains duplicate labels")
    hit_at = {}
    for k in ks:
        if k < 1:
            raise ValueError(f"K must be >= 1, got {k}")
        k_eff = k
        if k > n_candidates:
            logger.warning("hit@%d clamped to %d candidates", k, n_candidates)
            k_eff = n_candidates
        hits = sum(1 for ranking, t in zip(rankings, y_true) if t in ranking[:k_eff])
        hit_at[int(k)] = 100.0 * hits / len(y_true)
    return HitReport(hit_at=hit_at)


def stratified_kfold(dataset: Dataset, k: int = 5, seed: int = 0):
    """k (train, test) index partitions where each label's examples are
    spread as evenly as possible across the test folds; remainders land
    by seeded order."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    by_label: dict = {}
    for i, (_, label) in enumerate(dataset.examples):
        by_label.setdefault(label, []).append(i)
    order = [label for label in dataset.label_set if label in by_label]
    order += [label for label in by_label if label not in set(dataset.label_set)]
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for label in order:
        members = by_label[label]
        if len(members) < k:
            raise DataError(
                f"label {label!r} has {len(members)} examples, fewer than k={k}"
            )
        shuffled = [members[i] for i in rng.permutation(len(members))]
        fold_order = [int(f) for f in rng.permutation(k)]
        for pos, idx in enumerate(shuffled):
            folds[fold_order[pos % k]].append(idx)
    all_indices = set(range(len(dataset.examples)))
    result = []
    for fold in folds:
        test = sorted(fold)
        train = sorted(all_indices - set(fold))
        result.append((train, test))
    return result


@dataclass
class SupervisedExperimentConfig:
    folds: int = 5
    seed: int = 0
    averaging: str = "micro"
    train: TrainSpec = field(default_factory=TrainSpec)


def _dataset_subset(dataset: Dataset, indices) -> Dataset:
    return Dataset(
        examples=[dataset.examples[i] for i in indices],
        label_set=list(dataset.label_set),
    )


def _predict_labels(model: BaselineClassifier, token_lists) -> list:
    winners = np.argmax(model.probs(extract_features_batch(model, token_lists)), axis=1)
    return [model.label_order[int(w)] for w in winners]


def run_supervised_experiment(
    dataset: Dataset,
    vocab: Vocabulary,
    emb: np.ndarray,
    config: SupervisedExperimentConfig | None = None,
) -> dict:
    """Stratified k-fold run of the baseline classifier. Returns one
    cell per fold plus the mean row, each carrying accuracy, precision,
    recall, and F1."""
    config = config or SupervisedExperimentConfig()
    partitions = stratified_kfold(dataset, k=config.folds, seed=config.seed)
    cells = []
    for fold_index, (train_idx, test_idx) in enumerate(partitions):
        train_set = _dataset_subset(dataset, train_idx)
        model = train_baseline(train_set, vocab, emb, config.train)
        train_tokens = [tokens for tokens, _ in train_set.examples]
        train_true = [label for _, label in train_set.examples]
        train_acc = classification_metrics(
            train_true, _predict_labels(model, train_tokens)
        ).accuracy
        test_tokens = [dataset.examples[i][0] for i in test_idx]
        test_true = [dataset.examples[i][1] for i in test_idx]
        metrics = classification_metrics(
            test_true, _predict_labels(model, test_tokens), averaging=config.averaging
        )
        cells.append(
            {
                "fold": fold_index,
                "train_size": len(train_idx),
                "test_size": len(test_idx),
                "train_accuracy": train_acc,
                "metrics": metrics.as_dict(),
            }
        )
    mean = {
        key: sum(cell["metrics"][key] for cell in cells) / len(cells)
        for key in ("accuracy", "precision", "recall", "f1")
    }
    return {
        "experiment": "supervised",
        "config": asdict(config),
        "cells": cells,
        "mean": mean,
    }


@dataclass
class ZslExperimentConfig:
    splits: list[tuple[int, int]] = field(default_factory=lambda: [(40, 10), (30, 20), (25, 25)])
    methods: tuple[str, ...] = METHODS
    setting: str = "zsl"  # zsl | fsl
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    ks: tuple[int, ...] = (1, 2, 5)
    gamma: float = 1.0
    conse_T: int | None = None
    shots_min: int = 5
    shots_max: int = 10
    train: TrainSpec = field(default_factory=TrainSpec)
    dem_train: TrainSpec = field(default_factory=TrainSpec)

    def __post_init__(self):
        if self.setting not in ("zsl", "fsl"):
            raise ValueError(f"setting must be zsl or fsl, got {self.setting!r}")
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}")


def _config_json(config: ZslExperimentConfig) -> dict:
    return {**asdict(config), "splits": [f"{a}/{b}" for a, b in config.splits]}


def zsl_cells(
    dataset: Dataset,
    vocab: Vocabulary,
    emb: np.ndarray,
    config: ZslExperimentConfig,
) -> Iterator[tuple[dict, ZslBundle]]:
    """Yield (cell, bundle) for each (split x seed x method) cell of
    the grid, in that nesting order; the bundle is the cell's fitted
    ranker.

    Per (split, seed): the label pool is shuffled into seen/unseen, the
    feature extractor trains on the seen examples (plus the drawn shots
    when setting is fsl), each requested head is fitted on that train
    set, and every test example is ranked over the unseen labels. The
    few-shot examples are removed from the test pool.
    """
    for n_seen, n_unseen in config.splits:
        for seed in config.seeds:
            split = make_split(dataset.label_set, n_seen, n_unseen, seed)
            seen_set = subset_by_labels(dataset, split.seen)
            unseen_pool = subset_by_labels(dataset, split.unseen)
            shots = (config.shots_min, config.shots_max) if config.setting == "fsl" else (0, 0)
            train_set, used = fsl_augment(seen_set, unseen_pool, *shots, seed=seed)
            used_set = set(used)
            test_examples = [
                ex for i, ex in enumerate(unseen_pool.examples) if i not in used_set
            ]
            if not test_examples:
                raise DataError(
                    f"no test examples left for split {n_seen}/{n_unseen} seed {seed}"
                )
            test_tokens = [tokens for tokens, _ in test_examples]
            test_true = [label for _, label in test_examples]

            classifier = train_baseline(
                train_set, vocab, emb, replace(config.train, seed=seed)
            )
            unseen_attrs = AttributeMatrix.from_labels(split.unseen, vocab, emb)
            test_feats = extract_features_batch(classifier, test_tokens)

            for bundle in fit_bundles(
                classifier,
                train_set,
                split,
                config.methods,
                config.gamma,
                config.conse_T,
                replace(config.dem_train, seed=seed),
            ):
                rankings = _rank_test_set(bundle, test_feats, unseen_attrs)
                report = flat_hit_at_k(rankings, test_true, ks=config.ks)
                cell = {
                    "split": f"{n_seen}/{n_unseen}",
                    "method": bundle.method,
                    "setting": config.setting,
                    "seed": seed,
                    "n_test": len(test_examples),
                    "hit_at": report.as_dict(),
                }
                yield cell, bundle


def _rank_test_set(
    bundle: ZslBundle, test_feats: np.ndarray, unseen_attrs: AttributeMatrix
) -> list[list[str]]:
    if bundle.method == "conse":
        probs = bundle.classifier.probs(test_feats)
    else:
        probs = [None] * len(test_feats)
    return [
        rank_features(bundle, x, unseen_attrs, p).labels() for x, p in zip(test_feats, probs)
    ]


def zsl_result(config: ZslExperimentConfig, cells: list[dict]) -> dict:
    """The grid's result dict: the config, every cell, and the mean
    hit rates over seeds within each (split, method)."""
    means = []
    for n_seen, n_unseen in config.splits:
        name = f"{n_seen}/{n_unseen}"
        for method in config.methods:
            group = [c for c in cells if c["split"] == name and c["method"] == method]
            means.append(
                {
                    "split": name,
                    "method": method,
                    "setting": config.setting,
                    "hit_at": {
                        key: sum(c["hit_at"][key] for c in group) / len(group)
                        for key in group[0]["hit_at"]
                    },
                }
            )
    return {
        "experiment": config.setting,
        "config": _config_json(config),
        "cells": cells,
        "means": means,
    }


def run_zsl_experiment(
    dataset: Dataset,
    vocab: Vocabulary,
    emb: np.ndarray,
    config: ZslExperimentConfig,
) -> dict:
    """Grid of (split x method x seed) cells scored by Flat-Hit@K on
    examples of the unseen labels (see zsl_cells). Means are over
    seeds within each (split, method).
    """
    cells = [cell for cell, _ in zsl_cells(dataset, vocab, emb, config)]
    return zsl_result(config, cells)


def format_supervised_table(result: dict) -> str:
    """Aligned text table, one row per fold plus the mean, percentages
    to one decimal."""
    header = ["fold", "accuracy", "precision", "recall", "f1"]
    rows = []
    for cell in result["cells"]:
        m = cell["metrics"]
        rows.append(
            [str(cell["fold"])] + [f"{100 * m[k]:.1f}" for k in header[1:]]
        )
    rows.append(["mean"] + [f"{100 * result['mean'][k]:.1f}" for k in header[1:]])
    return _align(header, rows)


def format_zsl_table(result: dict) -> str:
    """Aligned text grid of mean hit rates, one row per (split, method)."""
    ks = sorted(int(k) for k in result["means"][0]["hit_at"])
    header = ["split", "method"] + [f"hit@{k}" for k in ks]
    rows = [
        [mean["split"], mean["method"]]
        + [f"{mean['hit_at'][str(k)]:.1f}" for k in ks]
        for mean in result["means"]
    ]
    return _align(header, rows)


def _align(header: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
