"""Confusion-based metrics, Flat-Hit@K, the stratified splitter, and
the two experiment drivers with their table renderers."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagrec.errors import DataError
from tagrec.evaluate import (
    SupervisedExperimentConfig,
    ZslExperimentConfig,
    classification_metrics,
    confusion_counts,
    flat_hit_at_k,
    format_supervised_table,
    format_zsl_table,
    run_supervised_experiment,
    run_zsl_experiment,
    stratified_kfold,
)
from tagrec.ingest import Dataset
from tagrec.supervised import TrainSpec
from tagrec.synthetic import make_clustered_corpus, make_separable_dataset

label_seqs = st.lists(st.sampled_from("abcd"), min_size=1, max_size=40)


class TestConfusionCounts:
    def test_frozen_example(self):
        tp, fp, fn = confusion_counts(
            ["a", "a", "b", "b", "c", "c"], ["a", "a", "b", "c", "c", "b"]
        )
        assert list(tp) == list(fp) == list(fn) == ["a", "b", "c"]
        assert tp == {"a": 2, "b": 1, "c": 1}
        assert fp == {"a": 0, "b": 1, "c": 1}
        assert fn == {"a": 0, "b": 1, "c": 1}

    def test_includes_labels_only_predicted(self):
        tp, fp, fn = confusion_counts(["a"], ["b"])
        assert list(tp) == ["a", "b"]
        assert fp["b"] == 1 and fn["a"] == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="equal nonzero length"):
            confusion_counts(["a"], ["a", "b"])
        with pytest.raises(ValueError, match="equal nonzero length"):
            confusion_counts([], [])


class TestClassificationMetrics:
    def test_micro_frozen_example(self):
        m = classification_metrics(
            ["a", "a", "b", "b", "c", "c"], ["a", "a", "b", "c", "c", "b"]
        )
        assert m["accuracy"] == pytest.approx(4 / 6)
        assert m["precision"] == pytest.approx(4 / 6)
        assert m["recall"] == pytest.approx(4 / 6)
        assert m["f1"] == pytest.approx(4 / 6)

    def test_macro_frozen_example(self):
        m = classification_metrics(
            ["a", "a", "b", "b", "c", "c"],
            ["a", "a", "b", "c", "c", "b"],
            averaging="macro",
        )
        # per label P=R=F1: a -> 1, b -> 1/2, c -> 1/2
        assert m["precision"] == pytest.approx(2 / 3)
        assert m["recall"] == pytest.approx(2 / 3)
        assert m["f1"] == pytest.approx(2 / 3)

    def test_macro_empty_ratios_are_zero(self):
        m = classification_metrics(["a", "a"], ["b", "b"], averaging="macro")
        assert m["accuracy"] == 0.0
        assert m["precision"] == 0.0 and m["recall"] == 0.0 and m["f1"] == 0.0

    def test_perfect_prediction(self):
        m = classification_metrics(["a", "b"], ["a", "b"], averaging="macro")
        assert (m["accuracy"], m["precision"], m["recall"], m["f1"]) == (1.0, 1.0, 1.0, 1.0)

    def test_bad_averaging(self):
        with pytest.raises(ValueError, match="averaging"):
            classification_metrics(["a"], ["a"], averaging="weighted")

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_micro_precision_recall_accuracy_identity(self, data):
        y_true = data.draw(label_seqs)
        y_pred = data.draw(
            st.lists(
                st.sampled_from("abcd"), min_size=len(y_true), max_size=len(y_true)
            )
        )
        m = classification_metrics(y_true, y_pred)
        assert m["precision"] == m["recall"] == m["accuracy"]
        assert m["f1"] == pytest.approx(m["accuracy"])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_counting(self, data):
        y_true = data.draw(label_seqs)
        y_pred = data.draw(
            st.lists(
                st.sampled_from("abcd"), min_size=len(y_true), max_size=len(y_true)
            )
        )
        m = classification_metrics(y_true, y_pred, averaging="macro")
        labels = sorted(set(y_true) | set(y_pred))
        ps, rs, fs = [], [], []
        for lab in labels:
            tp = sum(1 for t, p in zip(y_true, y_pred) if t == p == lab)
            fp = sum(1 for t, p in zip(y_true, y_pred) if p == lab != t)
            fn = sum(1 for t, p in zip(y_true, y_pred) if t == lab != p)
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            ps.append(p)
            rs.append(r)
            fs.append(2 * p * r / (p + r) if p + r else 0.0)
        assert m["precision"] == pytest.approx(sum(ps) / len(ps))
        assert m["recall"] == pytest.approx(sum(rs) / len(rs))
        assert m["f1"] == pytest.approx(sum(fs) / len(fs))


class TestFlatHitAtK:
    RANKINGS = [
        ["t", "a", "b", "c", "d", "e"],  # true at rank 1
        ["a", "b", "t", "c", "d", "e"],  # true at rank 3
        ["a", "b", "c", "d", "e", "t"],  # true at rank 6
    ]

    def test_frozen_example(self):
        report = flat_hit_at_k(self.RANKINGS, ["t", "t", "t"], ks=(1, 2, 5))
        assert report["1"] == pytest.approx(100 / 3)
        assert report["2"] == pytest.approx(100 / 3)
        assert report["5"] == pytest.approx(200 / 3)

    def test_k_equal_candidate_count_is_total_recall(self):
        report = flat_hit_at_k(self.RANKINGS, ["t", "t", "t"], ks=(6,))
        assert report["6"] == 100.0

    def test_clamps_large_k_with_warning(self, caplog):
        with caplog.at_level("WARNING", logger="tagrec.evaluate"):
            report = flat_hit_at_k(self.RANKINGS, ["t", "t", "t"], ks=(9,))
        assert report["9"] == 100.0
        assert any("clamped" in r.getMessage() for r in caplog.records)

    def test_uses_string_keys_sorted(self):
        report = flat_hit_at_k(self.RANKINGS, ["t", "t", "t"], ks=(5, 1))
        assert list(report) == ["1", "5"]

    def test_validation(self):
        with pytest.raises(ValueError, match="equally many"):
            flat_hit_at_k(self.RANKINGS, ["t"])
        with pytest.raises(ValueError, match="expected 6"):
            flat_hit_at_k([self.RANKINGS[0], ["a"]], ["t", "a"])
        with pytest.raises(ValueError, match="duplicate"):
            flat_hit_at_k([["a", "a", "b"]], ["b"])
        with pytest.raises(ValueError, match="K must be"):
            flat_hit_at_k(self.RANKINGS, ["t", "t", "t"], ks=(0,))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_k_and_full_coverage(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 30))
        candidates = [f"c{i}" for i in range(n)]
        rankings = [list(np.array(candidates)[rng.permutation(n)]) for _ in range(m)]
        y_true = [candidates[int(rng.integers(0, n))] for _ in range(m)]
        ks = tuple(range(1, n + 1))
        report = flat_hit_at_k(rankings, y_true, ks=ks)
        values = [report[str(k)] for k in ks]
        assert values == sorted(values)
        assert values[-1] == 100.0

    def test_order_of_examples_is_irrelevant(self):
        y = ["t", "t", "t"]
        a = flat_hit_at_k(self.RANKINGS, y, ks=(1, 2))
        b = flat_hit_at_k(self.RANKINGS[::-1], y, ks=(1, 2))
        assert a == b


def _toy_dataset(counts: dict[str, int]) -> Dataset:
    examples = [
        ([f"{label}{i}"], label) for label, n in counts.items() for i in range(n)
    ]
    return Dataset(examples=examples, label_set=list(counts))


class TestStratifiedKfold:
    def test_partitions_the_dataset(self):
        ds = _toy_dataset({"a": 10, "b": 15, "c": 5})
        result = stratified_kfold(ds, k=5, seed=0)
        assert len(result) == 5
        all_test = [i for _, test in result for i in test]
        assert sorted(all_test) == list(range(30))
        for train, test in result:
            assert sorted(train + test) == list(range(30))
            assert not set(train) & set(test)

    def test_stratification_within_one(self):
        ds = _toy_dataset({"a": 10, "b": 13, "c": 7})
        result = stratified_kfold(ds, k=5, seed=3)
        labels = [label for _, label in ds.examples]
        for label, n in (("a", 10), ("b", 13), ("c", 7)):
            per_fold = [
                sum(1 for i in test if labels[i] == label) for _, test in result
            ]
            assert max(per_fold) - min(per_fold) <= 1
            assert sum(per_fold) == n

    def test_eighty_twenty_shape_at_five_folds(self):
        ds = _toy_dataset({"a": 50, "b": 50})
        for train, test in stratified_kfold(ds, k=5, seed=0):
            assert len(test) == 20 and len(train) == 80

    def test_deterministic(self):
        ds = _toy_dataset({"a": 9, "b": 11})
        assert stratified_kfold(ds, k=4, seed=2) == stratified_kfold(ds, k=4, seed=2)

    def test_seed_changes_assignment(self):
        ds = _toy_dataset({"a": 20, "b": 20})
        assert stratified_kfold(ds, k=4, seed=0) != stratified_kfold(ds, k=4, seed=1)

    def test_label_too_small(self):
        ds = _toy_dataset({"a": 10, "b": 3})
        with pytest.raises(DataError, match="label 'b' has 3 examples, fewer than k=5"):
            stratified_kfold(ds, k=5, seed=0)

    def test_k_validation(self):
        ds = _toy_dataset({"a": 10})
        with pytest.raises(ValueError, match="k must be"):
            stratified_kfold(ds, k=1, seed=0)

    def test_handles_labels_missing_from_label_set(self):
        ds = Dataset(
            examples=[(["x"], "a")] * 6 + [(["y"], "rogue")] * 6, label_set=["a"]
        )
        result = stratified_kfold(ds, k=3, seed=0)
        all_test = sorted(i for _, test in result for i in test)
        assert all_test == list(range(12))


@pytest.fixture(scope="module")
def separable():
    return make_separable_dataset(seed=0)


@pytest.fixture(scope="module")
def clustered_small():
    return make_clustered_corpus(
        n_labels=6,
        tweets_per_label=12,
        tokens_per_label=8,
        dim=30,
        n_factors=3,
        noise=0.05,
        min_separation=0.5,
        tweet_len=(5, 8),
        seed=2,
    )


class TestSupervisedExperiment:
    def test_schema_and_learnability(self, separable):
        config = SupervisedExperimentConfig(
            folds=5, seed=0, train=TrainSpec(epochs=15, seed=0, hidden_units=32)
        )
        result = run_supervised_experiment(
            separable.dataset, separable.vocab, separable.emb, config
        )
        assert result["experiment"] == "supervised"
        assert result["config"]["folds"] == 5
        assert result["config"]["train"]["epochs"] == 15
        assert len(result["cells"]) == 5
        for fold, cell in enumerate(result["cells"]):
            assert cell["fold"] == fold
            assert cell["train_size"] + cell["test_size"] == 240
            assert set(cell["metrics"]) == {"accuracy", "precision", "recall", "f1"}
            assert cell["train_accuracy"] >= 0.95
            assert cell["metrics"]["accuracy"] >= 0.90
        for key in ("accuracy", "precision", "recall", "f1"):
            expected = sum(c["metrics"][key] for c in result["cells"]) / 5
            assert result["mean"][key] == pytest.approx(expected)

    def test_table_rendering(self, separable):
        config = SupervisedExperimentConfig(
            folds=3, seed=0, train=TrainSpec(epochs=3, seed=0, hidden_units=16)
        )
        result = run_supervised_experiment(
            separable.dataset, separable.vocab, separable.emb, config
        )
        table = format_supervised_table(result)
        lines = table.splitlines()
        assert lines[0].split() == ["fold", "accuracy", "precision", "recall", "f1"]
        assert len(lines) == 1 + 3 + 1
        assert lines[-1].startswith("mean")
        for token in lines[1].split()[1:]:
            float(token)  # every metric renders as a number


class TestZslExperiment:
    CONFIG = dict(
        splits=[(4, 2)],
        seeds=(0, 1),
        ks=(1, 2),
        gamma=1.0,
        train=TrainSpec(epochs=8, seed=0, hidden_units=32),
        dem_train=TrainSpec(epochs=10, seed=0),
    )

    def test_schema_and_grid_shape(self, clustered_small):
        config = ZslExperimentConfig(setting="zsl", **self.CONFIG)
        result = run_zsl_experiment(
            clustered_small.dataset, clustered_small.vocab, clustered_small.emb, config
        )
        assert result["experiment"] == "zsl"
        assert len(result["cells"]) == 1 * 2 * 3
        assert len(result["means"]) == 3
        for cell in result["cells"]:
            assert cell["split"] == "4/2"
            assert cell["setting"] == "zsl"
            assert cell["n_test"] == 24  # both unseen labels, 12 tweets each
            assert set(cell["hit_at"]) == {"1", "2"}
        methods = Counter(c["method"] for c in result["cells"])
        assert methods == {"conse": 2, "eszsl": 2, "dem": 2}

    def test_means_average_cells(self, clustered_small):
        config = ZslExperimentConfig(setting="zsl", **self.CONFIG)
        result = run_zsl_experiment(
            clustered_small.dataset, clustered_small.vocab, clustered_small.emb, config
        )
        for mean in result["means"]:
            group = [
                c
                for c in result["cells"]
                if c["method"] == mean["method"] and c["split"] == mean["split"]
            ]
            for key, value in mean["hit_at"].items():
                assert value == pytest.approx(
                    sum(c["hit_at"][key] for c in group) / len(group)
                )

    def test_fsl_removes_shots_from_test_pool(self, clustered_small):
        config = ZslExperimentConfig(
            setting="fsl", shots_min=3, shots_max=5, **self.CONFIG
        )
        result = run_zsl_experiment(
            clustered_small.dataset, clustered_small.vocab, clustered_small.emb, config
        )
        for cell in result["cells"]:
            assert cell["setting"] == "fsl"
            assert 24 - 2 * 5 <= cell["n_test"] <= 24 - 2 * 3

    def test_fsl_with_zero_shots_matches_zsl_metrics(self, clustered_small):
        zsl = run_zsl_experiment(
            clustered_small.dataset,
            clustered_small.vocab,
            clustered_small.emb,
            ZslExperimentConfig(setting="zsl", **self.CONFIG),
        )
        fsl = run_zsl_experiment(
            clustered_small.dataset,
            clustered_small.vocab,
            clustered_small.emb,
            ZslExperimentConfig(
                setting="fsl", shots_min=0, shots_max=0, **self.CONFIG
            ),
        )
        for a, b in zip(zsl["cells"], fsl["cells"]):
            assert a["hit_at"] == b["hit_at"]
            assert a["n_test"] == b["n_test"]

    def test_exhausted_test_pool_raises(self, clustered_small):
        config = ZslExperimentConfig(
            setting="fsl",
            shots_min=12,
            shots_max=12,
            **self.CONFIG,
        )
        with pytest.raises(DataError, match="no test examples left"):
            run_zsl_experiment(
                clustered_small.dataset,
                clustered_small.vocab,
                clustered_small.emb,
                config,
            )

    def test_config_validation(self):
        with pytest.raises(ValueError, match="setting"):
            ZslExperimentConfig(setting="transductive")
        with pytest.raises(ValueError, match="unknown method"):
            ZslExperimentConfig(methods=("conse", "sae"))

    @pytest.mark.parametrize(
        "field, value, message",
        [("gamma", 0.0, "gamma must be > 0"), ("gamma", -1.0, "gamma must be > 0"),
         ("gamma", float("nan"), "gamma must be > 0"), ("conse_T", 0, "conse_T must be >= 1"),
         ("ks", (1, 0), "K must be >= 1"), ("ks", (-2,), "K must be >= 1"),
         ("methods", ("conse", "dem", "conse"), "methods repeat 'conse'"),
         ("seeds", (0, 0), "seeds repeat 0"), ("ks", (1, 2, 1), "ks repeat 1"),
         ("splits", [(4, 2), [4, 2]], r"splits repeat \(4, 2\)")],
    )
    def test_out_of_range_value_is_rejected_on_construction(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ZslExperimentConfig(**{field: value})

    def test_table_rendering(self, clustered_small):
        config = ZslExperimentConfig(setting="zsl", **self.CONFIG)
        result = run_zsl_experiment(
            clustered_small.dataset, clustered_small.vocab, clustered_small.emb, config
        )
        table = format_zsl_table(result)
        lines = table.splitlines()
        assert lines[0].split() == ["split", "method", "hit@1", "hit@2"]
        assert len(lines) == 1 + 3
        assert {line.split()[1] for line in lines[1:]} == {"conse", "eszsl", "dem"}
        for line in lines[1:]:
            for token in line.split()[2:]:
                assert 0.0 <= float(token) <= 100.0
