"""The feedforward baseline: training dynamics, prediction identities,
feature extraction, and the JSON model bundle."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from tagrec.embedding import save_embeddings
from tagrec.errors import DataError
from tagrec.ingest import Dataset
from tagrec.supervised import (
    TrainSpec,
    extract_features,
    extract_features_batch,
    file_sha256,
    load_baseline_bundle,
    pooled_features,
    save_baseline_bundle,
    train_baseline,
)
from tagrec.synthetic import make_separable_dataset

from reference_math import predict_proba


@pytest.fixture(scope="module")
def separable():
    return make_separable_dataset(seed=0)


@pytest.fixture(scope="module")
def trained(separable):
    spec = TrainSpec(epochs=50, batch_size=32, seed=0, hidden_units=64)
    return train_baseline(separable.dataset, separable.vocab, separable.emb, spec)


def _accuracy(model, dataset):
    hits = 0
    for tokens, label in dataset.examples:
        probs = predict_proba(model, tokens)
        hits += model.label_order[int(np.argmax(probs))] == label
    return hits / len(dataset.examples)


class TestTrainSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainSpec(epochs=0)
        with pytest.raises(ValueError, match="batch_size"):
            TrainSpec(batch_size=0)


class TestTrainBaseline:
    def test_needs_two_labels(self, separable):
        one = Dataset(
            examples=[e for e in separable.dataset.examples if e[1] == "sep0"],
            label_set=["sep0"],
        )
        with pytest.raises(DataError, match="at least 2 labels"):
            train_baseline(one, separable.vocab, separable.emb, TrainSpec(epochs=1))

    def test_rejects_example_outside_label_set(self, separable):
        bad = Dataset(
            examples=separable.dataset.examples + [(["w"], "rogue")],
            label_set=separable.dataset.label_set,
        )
        with pytest.raises(DataError, match="'rogue'"):
            train_baseline(bad, separable.vocab, separable.emb, TrainSpec(epochs=1))

    def test_first_epoch_loss_near_uniform_prediction(self, separable):
        # one batch covering the whole set: the recorded loss is the
        # pre-update loss at initialization, which must sit near the
        # uniform-prediction value log(n_labels)
        m = len(separable.dataset.examples)
        spec = TrainSpec(epochs=1, batch_size=m, seed=0, hidden_units=64)
        model = train_baseline(separable.dataset, separable.vocab, separable.emb, spec)
        expected = math.log(len(separable.dataset.label_set))
        assert model.loss_history[0] == pytest.approx(expected, rel=0.10)

    def test_deterministic(self, separable):
        spec = TrainSpec(epochs=3, batch_size=32, seed=5, hidden_units=32)
        a = train_baseline(separable.dataset, separable.vocab, separable.emb, spec)
        b = train_baseline(separable.dataset, separable.vocab, separable.emb, spec)
        assert np.array_equal(a.hidden_weights, b.hidden_weights)
        assert np.array_equal(a.output_weights, b.output_weights)
        assert a.loss_history == b.loss_history

    def test_seed_matters(self, separable):
        spec_a = TrainSpec(epochs=2, seed=0, hidden_units=32)
        spec_b = TrainSpec(epochs=2, seed=1, hidden_units=32)
        a = train_baseline(separable.dataset, separable.vocab, separable.emb, spec_a)
        b = train_baseline(separable.dataset, separable.vocab, separable.emb, spec_b)
        assert not np.array_equal(a.hidden_weights, b.hidden_weights)

    def test_learns_separable_data(self, trained, separable):
        assert _accuracy(trained, separable.dataset) >= 0.95

    def test_loss_mostly_decreasing(self, trained):
        losses = trained.loss_history
        assert len(losses) == 50
        violations = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
        assert violations <= 3
        assert losses[-1] < losses[0]

    def test_feature_dim_property(self, trained):
        assert trained.feature_dim == 64
        assert trained.hidden_weights.shape[0] == 64


class TestPredictProba:
    def test_sums_to_one(self, trained):
        probs = predict_proba(trained, ["s0_00", "s1_01"])
        assert probs.shape == (4,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_recomposes_from_extract_features(self, trained):
        tokens = ["s2_03", "s2_04"]
        feats = extract_features(trained, tokens)
        assert np.array_equal(predict_proba(trained, tokens), trained.probs(feats))

    def test_matches_manual_forward_pass(self, trained, separable):
        tokens = separable.dataset.examples[0][0]
        x = pooled_features([tokens], separable.vocab, separable.emb)[0]
        h = np.tanh(trained.hidden_weights @ x + trained.hidden_bias)
        # one text's feature is the matrix-vector product, bit for bit:
        # recommend's scores depend on it
        assert np.array_equal(extract_features(trained, tokens), h)
        logits = trained.output_weights @ h + trained.output_bias
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        assert predict_proba(trained, tokens) == pytest.approx(expected, abs=1e-12)

    def test_zero_output_layer_is_uniform(self, trained):
        flat = replace(
            trained,
            output_weights=np.zeros_like(trained.output_weights),
            output_bias=np.zeros_like(trained.output_bias),
        )
        probs = predict_proba(flat, ["s0_00"])
        assert probs == pytest.approx([0.25] * 4, abs=1e-12)

    def test_all_oov_equals_zero_feature_prediction(self, trained):
        assert np.array_equal(
            predict_proba(trained, ["never_seen_token"]), predict_proba(trained, [])
        )

    def test_argmax_recovers_generating_cluster(self, trained, separable):
        assert _accuracy(trained, separable.dataset) >= 0.95

    def test_permuted_label_order_preserves_argmax_label(self, separable):
        ds = separable.dataset
        m = len(ds.examples)
        spec = TrainSpec(epochs=25, batch_size=m, seed=0, hidden_units=32)
        base = train_baseline(ds, separable.vocab, separable.emb, spec)
        permuted_labels = list(reversed(ds.label_set))
        permuted = train_baseline(
            Dataset(examples=ds.examples, label_set=permuted_labels),
            separable.vocab,
            separable.emb,
            spec,
        )
        for tokens, _ in ds.examples[::7]:
            a = base.label_order[int(np.argmax(predict_proba(base, tokens)))]
            b = permuted.label_order[int(np.argmax(predict_proba(permuted, tokens)))]
            assert a == b


class TestExtractFeatures:
    def test_range_is_open_unit_interval(self, trained):
        feats = extract_features(trained, ["s0_00", "s3_05"])
        assert np.all(feats > -1.0) and np.all(feats < 1.0)

    def test_zero_weights_give_zero_features(self, trained):
        flat = replace(
            trained,
            hidden_weights=np.zeros_like(trained.hidden_weights),
            hidden_bias=np.zeros_like(trained.hidden_bias),
        )
        assert np.all(extract_features(flat, ["s0_00"]) == 0.0)

    def test_pure_function(self, trained):
        a = extract_features(trained, ["s1_02", "s1_03"])
        b = extract_features(trained, ["s1_02", "s1_03"])
        assert np.array_equal(a, b)

    def test_batch_matches_single(self, trained, separable):
        lists = [tokens for tokens, _ in separable.dataset.examples[:6]]
        batch = extract_features_batch(trained, lists)
        for row, tokens in zip(batch, lists):
            assert row == pytest.approx(extract_features(trained, tokens), abs=1e-12)


class TestBaselineClassifier:
    def test_batch_matches_single(self, trained, rng):
        # a batch goes through one matrix product, a row through a
        # matrix-vector product: they agree up to the last bits
        pooled = rng.standard_normal((9, trained.hidden_weights.shape[1]))
        feats = trained.features(pooled)
        probs = trained.probs(feats)
        for i in range(9):
            np.testing.assert_allclose(feats[i], trained.features(pooled[i]))
            np.testing.assert_allclose(probs[i], trained.probs(feats[i]))


# each corruption of a saved bundle: (name, edit of its bytes or its JSON)
BAD_BUNDLES = [
    ("truncated", lambda raw: raw[: len(raw) // 3]),
    ("non-ascii", lambda raw: raw.replace(b'"kind"', b'"k\xe9nd"', 1)),
    ("no-hidden", lambda obj: {k: v for k, v in obj.items() if k != "hidden"}),
    ("hidden-columns", lambda obj: {**obj, "hidden": {
        **obj["hidden"], "weights": [row[:-1] for row in obj["hidden"]["weights"]]}}),
    ("output-rows", lambda obj: {**obj, "output": {
        **obj["output"], "weights": obj["output"]["weights"][:-1],
        "bias": obj["output"]["bias"][:-1]}}),
    ("ragged", lambda obj: {**obj, "hidden": {
        **obj["hidden"], "weights": [[1.0]] + obj["hidden"]["weights"][1:]}}),
    ("hidden-bias", lambda obj: {**obj, "hidden": {
        **obj["hidden"], "bias": obj["hidden"]["bias"][:-1]}}),
    ("output-bias", lambda obj: {**obj, "output": {
        **obj["output"], "bias": obj["output"]["bias"][:1]}}),
    ("hidden-activation", lambda obj: {**obj, "hidden": {**obj["hidden"], "activation": "softmax"}}),
    ("output-activation", lambda obj: {**obj, "output": {**obj["output"], "activation": "tanh"}}),
]


class TestBundle:
    def _save(self, model, vocab, emb, tmp_path, config=None):
        emb_path = tmp_path / "vectors.txt"
        save_embeddings(emb, vocab, emb_path)
        bundle_path = tmp_path / "model.json"
        save_baseline_bundle(model, bundle_path, str(emb_path), config)
        return bundle_path, emb_path

    def test_round_trip(self, trained, separable, tmp_path):
        bundle_path, _ = self._save(
            trained, separable.vocab, separable.emb, tmp_path, {"epochs": 50}
        )
        back = load_baseline_bundle(bundle_path)
        assert np.array_equal(back.hidden_weights, trained.hidden_weights)
        assert np.array_equal(back.hidden_bias, trained.hidden_bias)
        assert np.array_equal(back.output_weights, trained.output_weights)
        assert np.array_equal(back.output_bias, trained.output_bias)
        assert back.label_order == trained.label_order
        assert back.loss_history == trained.loss_history
        assert back.vocab.tokens == separable.vocab.tokens
        assert np.array_equal(back.emb, separable.emb)

    def test_predictions_survive_round_trip(self, trained, separable, tmp_path):
        bundle_path, _ = self._save(trained, separable.vocab, separable.emb, tmp_path)
        back = load_baseline_bundle(bundle_path)
        tokens = separable.dataset.examples[3][0]
        assert np.array_equal(predict_proba(back, tokens), predict_proba(trained, tokens))

    def test_schema_fields(self, trained, separable, tmp_path):
        bundle_path, emb_path = self._save(
            trained, separable.vocab, separable.emb, tmp_path, {"seed": 0}
        )
        obj = json.loads(bundle_path.read_text())
        assert obj["kind"] == "baseline"
        assert obj["feature_dim"] == 64
        assert obj["embedding"]["sha256"] == file_sha256(emb_path)
        assert obj["config"] == {"seed": 0}

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"kind": "zsl"}\n')
        with pytest.raises(DataError, match="not a baseline"):
            load_baseline_bundle(path)

    @pytest.mark.parametrize("name,edit", BAD_BUNDLES, ids=[name for name, _ in BAD_BUNDLES])
    def test_bad_bundle_names_the_file(self, trained, separable, tmp_path, name, edit):
        bundle_path, _ = self._save(trained, separable.vocab, separable.emb, tmp_path)
        raw = bundle_path.read_bytes()
        if name in ("truncated", "non-ascii"):
            bundle_path.write_bytes(edit(raw))
        else:
            bundle_path.write_text(json.dumps(edit(json.loads(raw))), encoding="ascii")
        with pytest.raises(DataError, match=f"^{bundle_path}"):
            load_baseline_bundle(bundle_path)

    def test_missing_embedding_file(self, trained, separable, tmp_path):
        bundle_path, emb_path = self._save(trained, separable.vocab, separable.emb, tmp_path)
        emb_path.unlink()
        with pytest.raises(DataError, match="missing"):
            load_baseline_bundle(bundle_path)

    def test_hash_mismatch(self, trained, separable, tmp_path):
        bundle_path, emb_path = self._save(trained, separable.vocab, separable.emb, tmp_path)
        emb_path.write_text(emb_path.read_text() + "\n")
        with pytest.raises(DataError, match="does not match"):
            load_baseline_bundle(bundle_path)

    def test_relative_embedding_path(self, trained, separable, tmp_path):
        emb_path = tmp_path / "vectors.txt"
        save_embeddings(separable.emb, separable.vocab, emb_path)
        bundle_path = tmp_path / "model.json"
        obj = json.loads(
            json.dumps(
                {
                    **json.loads(_bundle_json(trained, str(emb_path))),
                    "embedding": {
                        "path": "vectors.txt",
                        "sha256": file_sha256(emb_path),
                    },
                }
            )
        )
        bundle_path.write_text(json.dumps(obj))
        back = load_baseline_bundle(bundle_path)
        assert back.label_order == trained.label_order


def _bundle_json(model, emb_path):
    from tagrec.supervised import baseline_bundle_dict

    return json.dumps(baseline_bundle_dict(model, emb_path))
