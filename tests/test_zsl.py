"""Seen/unseen splits, the three ranking heads (probability-weighted
embedding, bilinear closed form, learned attribute mapper), few-shot
augmentation, and the recommendation bundle format."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tagrec import supervised, zsl
from tagrec.embedding import cosine, save_embeddings
from tagrec.errors import DataError, NotPositiveDefiniteError, NumericalError
from tagrec.ingest import Dataset
from tagrec.supervised import TrainSpec, extract_features, train_baseline
from tagrec.synthetic import make_clustered_corpus
from tagrec.zsl import (
    AttributeMatrix,
    DemModel,
    EszslModel,
    ZslBundle,
    ZslSplit,
    conse_embed,
    conse_rank,
    dem_fit,
    dem_loss_and_grad,
    dem_rank,
    eszsl_fit,
    eszsl_rank,
    fsl_augment,
    load_zsl_bundle,
    make_conse,
    make_split,
    rank_candidates,
    recommend,
    save_zsl_bundle,
    subset_by_labels,
)

from reference_math import (
    conse_scores_reference,
    dem_scores_reference,
    eszsl_objective,
    eszsl_objective_grad,
    eszsl_scores_reference,
    label_embedding,
    ranked_reference,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _attr(matrix, labels):
    return AttributeMatrix(
        matrix=np.asarray(matrix, dtype=float),
        labels=list(labels),
    )


def _brute_rank(labels, scores):
    order = sorted(range(len(labels)), key=lambda i: (-scores[i], i))
    return [labels[i] for i in order]


class TestMakeSplit:
    LABELS = [f"L{i:02d}" for i in range(50)]

    def test_shape_and_disjointness(self):
        split = make_split(self.LABELS, 40, 10, seed=0)
        assert len(split.seen) == 40 and len(split.unseen) == 10
        assert not set(split.seen) & set(split.unseen)
        assert set(split.seen) | set(split.unseen) == set(self.LABELS)

    def test_deterministic(self):
        a = make_split(self.LABELS, 30, 20, seed=7)
        b = make_split(self.LABELS, 30, 20, seed=7)
        assert a.seen == b.seen and a.unseen == b.unseen

    def test_seed_changes_split(self):
        a = make_split(self.LABELS, 25, 25, seed=0)
        b = make_split(self.LABELS, 25, 25, seed=1)
        assert a.seen != b.seen

    def test_pool_exhaustion(self):
        with pytest.raises(DataError, match="51 labels"):
            make_split(self.LABELS, 40, 11, seed=0)

    def test_split_validation(self):
        with pytest.raises(ValueError, match="overlap"):
            ZslSplit(seen=["a", "b"], unseen=["b"], seed=0)
        with pytest.raises(ValueError, match="non-empty"):
            ZslSplit(seen=[], unseen=["a"], seed=0)


class TestSubsetByLabels:
    def test_filters_and_reorders_label_set(self):
        ds = Dataset(
            examples=[(["x"], "a"), (["y"], "b"), (["z"], "a"), (["w"], "c")],
            label_set=["a", "b", "c"],
        )
        sub = subset_by_labels(ds, ["c", "a"])
        assert sub.label_set == ["c", "a"]
        assert sub.examples == [(["x"], "a"), (["z"], "a"), (["w"], "c")]


class TestConseEmbed:
    def test_degenerate_classifier_returns_top_label_vector(self):
        attrs = _attr([[1.0, 5.0], [2.0, 6.0]], ["p", "q"])
        out = conse_embed(np.array([1.0, 0.0]), attrs, T=2)
        assert out == pytest.approx([1.0, 2.0])

    def test_direct_two_label_arithmetic(self):
        attrs = _attr([[1.0, 0.0], [0.0, 1.0]], ["p", "q"])
        out = conse_embed(np.array([0.6, 0.4]), attrs, T=2)
        assert out == pytest.approx([0.6, 0.4])

    def test_t_equal_one_selects_argmax(self):
        attrs = _attr([[1.0, 5.0, 9.0], [2.0, 6.0, 10.0]], ["p", "q", "r"])
        out = conse_embed(np.array([0.2, 0.5, 0.3]), attrs, T=1)
        assert out == pytest.approx([5.0, 6.0])

    def test_probability_ties_broken_by_label_order(self):
        attrs = _attr([[1.0, 5.0], [2.0, 6.0]], ["p", "q"])
        out = conse_embed(np.array([0.5, 0.5]), attrs, T=1)
        assert out == pytest.approx([1.0, 2.0])

    def test_full_t_equals_probability_weighted_centroid(self, rng):
        M = rng.standard_normal((6, 5))
        attrs = _attr(M, [f"l{i}" for i in range(5)])
        probs = rng.random(5)
        probs /= probs.sum()
        out = conse_embed(probs, attrs, T=5)
        assert out == pytest.approx(M @ probs, abs=1e-12)

    def test_validation(self):
        attrs = _attr([[1.0, 0.0], [0.0, 1.0]], ["p", "q"])
        with pytest.raises(ValueError, match="shape"):
            conse_embed(np.array([1.0]), attrs, T=1)
        with pytest.raises(ValueError, match="sum to"):
            conse_embed(np.array([0.9, 0.3]), attrs, T=1)
        with pytest.raises(ValueError, match="T must be"):
            conse_embed(np.array([0.5, 0.5]), attrs, T=3)
        with pytest.raises(ValueError, match="T must be"):
            conse_embed(np.array([0.5, 0.5]), attrs, T=0)


class TestConseRank:
    def test_exact_match_ranks_first(self, rng):
        M = rng.standard_normal((4, 3))
        attrs = _attr(M, ["a", "b", "c"])
        pred = conse_rank(M[:, 1], attrs)
        assert pred.labels()[0] == "b"
        assert pred.ranked[0][1] == pytest.approx(1.0)

    def test_orthogonal_candidates_tie_in_label_order(self):
        attrs = _attr([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], ["b", "a"])
        pred = conse_rank(np.array([1.0, 0.0, 0.0]), attrs)
        assert pred.labels() == ["b", "a"]
        assert [s for _, s in pred.ranked] == pytest.approx([0.0, 0.0])

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(100):
            s, n = int(rng.integers(2, 8)), int(rng.integers(2, 9))
            M = rng.standard_normal((s, n))
            if rng.random() < 0.3 and n >= 2:
                M[:, 1] = M[:, 0]  # force a cosine tie
            labels = [f"l{i}" for i in range(n)]
            f_x = rng.standard_normal(s)
            scores = [
                float(f_x @ M[:, i] / (np.linalg.norm(f_x) * np.linalg.norm(M[:, i])))
                if np.linalg.norm(M[:, i]) > 0 and np.linalg.norm(f_x) > 0
                else 0.0
                for i in range(n)
            ]
            assert conse_rank(f_x, _attr(M, labels)).labels() == _brute_rank(labels, scores)


class TestEszsl:
    def _random_instance(self, rng, m=30, p=10, s=5, n=6):
        X = rng.standard_normal((p, m))
        y = rng.integers(0, n, size=m)
        Y = np.zeros((m, n))
        Y[np.arange(m), y] = 1.0
        A = rng.standard_normal((s, n))
        return X, Y, A

    def test_identity_collapse(self):
        m = 4
        X, Y, A = np.eye(m), np.eye(m), np.eye(m)
        model = eszsl_fit(X, Y, A, gamma=1e-12)
        assert model.W == pytest.approx(np.eye(m), abs=1e-6)

    def test_gradient_vanishes_at_closed_form(self, rng):
        X, Y, A = self._random_instance(rng)
        model = eszsl_fit(X, Y, A, gamma=1.0)
        grad = eszsl_objective_grad(model.W, X, Y, A, 1.0)
        scale = max(1.0, float(np.linalg.norm(X)), float(np.linalg.norm(A)))
        assert np.abs(grad).max() <= 1e-8 * scale

    def test_closed_form_beats_perturbations(self, rng):
        X, Y, A = self._random_instance(rng, m=20, p=6, s=4, n=5)
        model = eszsl_fit(X, Y, A, gamma=1.0)
        best = eszsl_objective(model.W, X, Y, A, 1.0)
        for _ in range(10):
            other = model.W + 0.1 * rng.standard_normal(model.W.shape)
            assert eszsl_objective(other, X, Y, A, 1.0) > best

    def test_regularization_dominance(self, rng):
        X, Y, A = self._random_instance(rng)
        norms = [
            float(np.linalg.norm(eszsl_fit(X, Y, A, gamma=g).W))
            for g in (1.0, 10.0, 100.0, 1000.0)
        ]
        assert norms == sorted(norms, reverse=True)
        assert np.linalg.norm(eszsl_fit(X, Y, A, gamma=1e9).W) < 1e-6

    def test_label_permutation_equivariance(self, rng):
        X, Y, A = self._random_instance(rng)
        perm = rng.permutation(Y.shape[1])
        base = eszsl_fit(X, Y, A, gamma=1.0).W
        permuted = eszsl_fit(X, Y[:, perm], A[:, perm], gamma=1.0).W
        assert permuted == pytest.approx(base, rel=1e-8, abs=1e-10)

    def test_input_validation(self, rng):
        X, Y, A = self._random_instance(rng)
        with pytest.raises(ValueError, match="gamma"):
            eszsl_fit(X, Y, A, gamma=0.0)
        with pytest.raises(ValueError, match="rows"):
            eszsl_fit(X, Y[:-1], A, gamma=1.0)
        with pytest.raises(ValueError, match="columns"):
            eszsl_fit(X, Y, A[:, :-1], gamma=1.0)
        bad = Y.copy()
        bad[0] = 0.5
        with pytest.raises(DataError, match="one-hot"):
            eszsl_fit(X, bad, A, gamma=1.0)

    def test_solver_failure_names_offending_gram(self, rng, monkeypatch):
        # the regularized Grams are always positive definite for sane
        # inputs, so exercise the error translation by failing the
        # solver directly
        import tagrec.numeric as numeric

        X, Y, A = self._random_instance(rng, m=6, p=3, s=2, n=4)
        real = numeric.spd_solve

        def always_fail(a, b):
            raise NotPositiveDefiniteError("matrix is not positive definite")

        monkeypatch.setattr(numeric, "spd_solve", always_fail)
        with pytest.raises(NotPositiveDefiniteError, match="feature Gram"):
            eszsl_fit(X, Y, A, gamma=1.0)

        calls = {"n": 0}

        def fail_second(a, b):
            calls["n"] += 1
            if calls["n"] == 2:
                raise NotPositiveDefiniteError("matrix is not positive definite")
            return real(a, b)

        monkeypatch.setattr(numeric, "spd_solve", fail_second)
        with pytest.raises(NotPositiveDefiniteError, match="attribute Gram"):
            eszsl_fit(X, Y, A, gamma=1.0)

    def test_rank_matches_brute_force(self, rng):
        for _ in range(100):
            p, s, n = int(rng.integers(2, 7)), int(rng.integers(2, 6)), int(rng.integers(2, 8))
            W = rng.standard_normal((p, s))
            M = rng.standard_normal((s, n))
            if rng.random() < 0.3 and n >= 2:
                M[:, -1] = M[:, 0]
            x = rng.standard_normal(p)
            labels = [f"u{i}" for i in range(n)]
            scores = [float(x @ W @ M[:, i]) for i in range(n)]
            from tagrec.zsl import EszslModel

            pred = eszsl_rank(EszslModel(W=W, gamma=1.0), x, _attr(M, labels))
            assert pred.labels() == _brute_rank(labels, scores)


class TestDem:
    def test_loss_and_grad_hand_example(self):
        W = np.array([[1.0]])
        b = np.array([0.0])
        loss, (dW, db) = dem_loss_and_grad(W, b, np.array([[2.0]]), np.array([[3.0]]))
        # z = 3, relu(z) = 3, error = 1 -> loss 1, dz = 2, dW = 6, db = 2
        assert loss == pytest.approx(1.0)
        assert dW == pytest.approx(np.array([[6.0]]))
        assert db == pytest.approx([2.0])

    def test_relu_gate_blocks_gradient(self):
        W = np.array([[-1.0]])
        b = np.array([0.0])
        loss, (dW, db) = dem_loss_and_grad(W, b, np.array([[2.0]]), np.array([[3.0]]))
        # z = -3 -> relu 0, error -2, gate closed: loss 4, zero gradients
        assert loss == pytest.approx(4.0)
        assert dW == pytest.approx(np.array([[0.0]])) and db == pytest.approx([0.0])

    def test_already_optimal_init_is_fixed_point(self):
        from tagrec.numeric import xavier_uniform

        rng = np.random.default_rng(9)
        W0 = xavier_uniform(3, 4, rng)
        s = np.abs(np.random.default_rng(1).standard_normal(3))
        x = np.maximum(W0 @ s, 0.0)
        spec = TrainSpec(epochs=5, batch_size=1, seed=9, learning_rate=0.001)
        model = dem_fit(x[None, :], s[None, :], spec)
        assert model.loss_history == pytest.approx([0.0] * 5, abs=1e-30)
        assert np.array_equal(model.weights, W0)
        assert np.all(model.bias == 0.0)

    def test_deterministic(self, rng):
        X = rng.standard_normal((20, 8))
        S = rng.standard_normal((20, 3))
        spec = TrainSpec(epochs=4, batch_size=4, seed=2)
        a = dem_fit(X, S, spec)
        b = dem_fit(X, S, spec)
        assert np.array_equal(a.weights, b.weights)
        assert a.loss_history == b.loss_history

    def test_divergence_names_the_last_finite_losses(self, rng):
        X = np.abs(rng.standard_normal((6, 4)))
        S = np.abs(rng.standard_normal((6, 3)))
        # one Adam step of this size sends the weights to ~1e160, whose
        # squared reconstruction error overflows in the next epoch
        spec = TrainSpec(epochs=3, batch_size=6, seed=0, learning_rate=1e160)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalError, match=r"DEM loss diverged at epoch 1; last finite epoch losses: \[\d"
        ):
            dem_fit(X, S, spec)

    def test_loss_mostly_decreasing_on_random_data(self, rng):
        X = np.abs(rng.standard_normal((40, 10)))
        S = rng.standard_normal((40, 4))
        spec = TrainSpec(epochs=30, batch_size=8, seed=0, learning_rate=0.001)
        model = dem_fit(X, S, spec)
        violations = sum(
            1 for a, b in zip(model.loss_history, model.loss_history[1:]) if b > a
        )
        assert violations <= 3

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError, match="features"):
            dem_fit(rng.standard_normal((5, 4)), rng.standard_normal((6, 3)), TrainSpec())

    def test_rank_matches_brute_force(self, rng):
        for _ in range(100):
            p, s, n = int(rng.integers(2, 7)), int(rng.integers(2, 6)), int(rng.integers(2, 8))
            W = rng.standard_normal((p, s))
            b = rng.standard_normal(p)
            M = rng.standard_normal((s, n))
            if rng.random() < 0.3 and n >= 2:
                M[:, -1] = M[:, 0]
            x = rng.standard_normal(p)
            labels = [f"u{i}" for i in range(n)]
            scores = [
                -float(np.linalg.norm(np.maximum(W @ M[:, i] + b, 0.0) - x))
                for i in range(n)
            ]
            model = DemModel(weights=W, bias=b)
            assert dem_rank(model, x, _attr(M, labels)).labels() == _brute_rank(labels, scores)

    def test_rank_scores_are_negated_distances(self, rng):
        W = rng.standard_normal((4, 3))
        M = rng.standard_normal((3, 5))
        model = DemModel(weights=W, bias=np.zeros(4))
        pred = dem_rank(model, rng.standard_normal(4), _attr(M, list("abcde")))
        scores = [s for _, s in pred.ranked]
        assert all(s <= 0.0 for s in scores)
        assert scores == sorted(scores, reverse=True)


def _tie_groups(n):
    """Disjoint groups of candidate positions to make identical: the
    first with the last, two in the body, two in the tail, and three
    spread over the whole range."""
    used, groups = set(), []
    for group in ([0, n - 1], [n // 3, n // 2], [n - 3, n - 2], [1, n // 2 + 1, n - 4]):
        group = [j for j in dict.fromkeys(group) if 0 <= j < n and j not in used]
        if len(group) >= 2:
            used.update(group)
            groups.append(group)
    return groups


def _rank_with(method, rng, A, s, p=16):
    """Rank the columns of A with one of the three rankers and random
    parameters."""
    attrs = _attr(A, [f"c{j}" for j in range(A.shape[1])])
    assert attrs.matrix is A  # in A's memory order
    if method == "conse":
        return conse_rank(rng.standard_normal(s), attrs)
    x = rng.standard_normal(p)
    if method == "eszsl":
        return eszsl_rank(EszslModel(W=rng.standard_normal((p, s)), gamma=1.0), x, attrs)
    model = DemModel(weights=rng.standard_normal((p, s)), bias=rng.standard_normal(p))
    return dem_rank(model, x, attrs)


@st.composite
def _dyadic_instance(draw):
    """Small-integer entries scaled by 1/8, so every sum the rankers form
    is exact and any two ways of computing a score agree bit for bit;
    some columns are copies of others."""
    s, n, p = draw(st.integers(1, 10)), draw(st.integers(1, 70)), draw(st.integers(1, 8))

    def ints(*shape):
        return draw(hnp.arrays(np.int64, shape, elements=st.integers(-8, 8))) / 8.0

    A = ints(s, n)
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)):
        A[:, dst] = A[:, src]
    if draw(st.booleans()):
        A = np.asfortranarray(A)
    return A, ints(s), ints(p, s), ints(p), ints(p)


_MAGNITUDES = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


class TestRankersAtScale:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 401])
    @pytest.mark.parametrize("method", ["conse", "eszsl", "dem"])
    def test_identical_columns_tie_exactly(self, method, n, order):
        rng = np.random.default_rng(n)
        s = 37
        A = rng.standard_normal((s, n)) * np.exp(2.0 * rng.standard_normal((s, 1)))
        groups = _tie_groups(n)
        for group in groups:
            A[:, group] = A[:, [group[0]]]
        A = np.asarray(A, order=order)
        pred = _rank_with(method, rng, A, s)
        position = {label: i for i, label in enumerate(pred.labels())}
        score = dict(pred.ranked)
        assert set(position) == {f"c{j}" for j in range(n)}
        for group in groups:
            labels = [f"c{j}" for j in group]
            assert len({score[label] for label in labels}) == 1
            places = [position[label] for label in labels]
            assert places == list(range(places[0], places[0] + len(group)))

    @settings(max_examples=150, deadline=None)
    @given(_dyadic_instance())
    def test_rankers_match_plain_loops_exactly(self, instance):
        A, f, W, b, x = instance
        labels = [f"c{j}" for j in range(A.shape[1])]
        attrs = _attr(A, labels)
        cases = [
            (conse_rank(f, attrs), conse_scores_reference(f, A)),
            (eszsl_rank(EszslModel(W=W, gamma=1.0), x, attrs), eszsl_scores_reference(W, x, A)),
            (dem_rank(DemModel(weights=W, bias=b), x, attrs), dem_scores_reference(W, b, x, A)),
        ]
        for pred, want in cases:
            assert pred.labels() == ranked_reference(labels, want)
            got = dict(pred.ranked)
            np.testing.assert_allclose([got[label] for label in labels], want, rtol=1e-12, atol=0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda s: st.tuples(
        hnp.arrays(float, (s, 12), elements=_MAGNITUDES),
        hnp.arrays(float, s, elements=_MAGNITUDES),
        hnp.arrays(float, (4, s), elements=_MAGNITUDES),
        hnp.arrays(float, 4, elements=_MAGNITUDES),
    )))
    def test_scores_match_plain_loops(self, instance):
        A, f, W, x = instance
        labels = [f"c{j}" for j in range(A.shape[1])]
        attrs = _attr(A, labels)
        b = np.zeros(len(x))
        # rounding error bounds: sums of absolute terms
        bilinear = (np.abs(x) @ np.abs(W)) @ np.abs(A)
        mapped = np.abs(W) @ np.abs(A)
        cases = [
            (conse_rank(f, attrs), conse_scores_reference(f, A), np.ones(A.shape[1])),
            (eszsl_rank(EszslModel(W=W, gamma=1.0), x, attrs), eszsl_scores_reference(W, x, A), bilinear),
            (dem_rank(DemModel(weights=W, bias=b), x, attrs), dem_scores_reference(W, b, x, A),
             np.sqrt(((mapped + np.abs(x)[:, None]) ** 2).sum(axis=0))),
        ]
        for pred, want, scale in cases:
            got = dict(pred.ranked)
            got = np.array([got[label] for label in labels])
            assert np.all(np.abs(got - want) <= 1e-12 * (np.abs(want) + scale))

    def test_conse_zero_and_tiny_columns_follow_cosine(self):
        f = np.array([1.0, 2.0, 0.0])
        A = np.array([[0.0, 1.05e-160, 1.0, 3e-170], [0.0, 2.1e-160, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        pred = conse_rank(f, _attr(A, list("abcd")))
        want = [cosine(f, A[:, j]) for j in range(4)]
        assert dict(pred.ranked) == dict(zip("abcd", want))
        score = dict(pred.ranked)
        assert score["a"] == 0.0
        assert score["b"] == pytest.approx(1.0) and score["d"] == pytest.approx(5**-0.5)
        assert pred.labels() == ranked_reference(list("abcd"), want)

    def test_conse_tiny_combined_embedding_follows_cosine(self):
        f = np.array([1e-160, 3e-160, -2e-160])
        A = np.array([[1.0, 0.0, 2.0, 0.0], [3.0, 1.0, 6.0, 0.0], [-2.0, 1.0, -4.0, 0.0]])
        pred = conse_rank(f, _attr(A, list("abcd")))
        want = [cosine(f, A[:, j]) for j in range(4)]
        assert dict(pred.ranked) == dict(zip("abcd", want))
        assert pred.labels()[:2] == ["a", "c"] and want[0] == want[2] == pytest.approx(1.0)

    def test_conse_zero_combined_embedding_ties_everything(self):
        A = np.arange(12.0).reshape(3, 4)
        pred = conse_rank(np.zeros(3), _attr(A, list("dcba")))
        assert pred.ranked == [(label, 0.0) for label in "dcba"]


class TestFslAugment:
    def _pools(self):
        train = Dataset(
            examples=[([f"s{i}"], "seen0") for i in range(4)]
            + [([f"t{i}"], "seen1") for i in range(4)],
            label_set=["seen0", "seen1"],
        )
        pool = Dataset(
            examples=[([f"u{i}"], "new0") for i in range(12)]
            + [([f"v{i}"], "new1") for i in range(12)],
            label_set=["new0", "new1"],
        )
        return train, pool

    def test_zero_shots_returns_unchanged_copy(self):
        train, pool = self._pools()
        out, used = fsl_augment(train, pool, shots_min=0, shots_max=0, seed=0)
        assert out.examples == train.examples and out.label_set == train.label_set
        assert out.examples is not train.examples
        assert used == []

    def test_shot_counts_within_range(self):
        train, pool = self._pools()
        out, used = fsl_augment(train, pool, shots_min=5, shots_max=10, seed=3)
        added = out.examples[len(train.examples) :]
        for label in ("new0", "new1"):
            n = sum(1 for _, lab in added if lab == label)
            assert 5 <= n <= 10
        assert len(used) == len(added)

    def test_preserves_seen_examples_verbatim(self):
        train, pool = self._pools()
        out, _ = fsl_augment(train, pool, seed=1)
        assert out.examples[: len(train.examples)] == train.examples
        assert all(lab in ("new0", "new1") for _, lab in out.examples[len(train.examples) :])
        assert out.label_set == ["seen0", "seen1", "new0", "new1"]

    def test_used_indices_match_appended_examples(self):
        train, pool = self._pools()
        out, used = fsl_augment(train, pool, seed=5)
        added = out.examples[len(train.examples) :]
        assert [pool.examples[i] for i in used] == added
        assert len(set(used)) == len(used)

    def test_deterministic(self):
        train, pool = self._pools()
        a = fsl_augment(train, pool, seed=11)
        b = fsl_augment(train, pool, seed=11)
        assert a[0].examples == b[0].examples and a[1] == b[1]

    def test_clamps_to_pool_size(self):
        train, pool = self._pools()
        small = Dataset(examples=pool.examples[:6], label_set=["new0"])
        out, used = fsl_augment(train, small, shots_min=5, shots_max=10, seed=0)
        n = sum(1 for _, lab in out.examples if lab == "new0")
        assert 5 <= n <= 6

    def test_insufficient_pool_names_label(self):
        train, pool = self._pools()
        tiny = Dataset(examples=pool.examples[:3], label_set=["new0"])
        with pytest.raises(DataError, match="'new0'.*shots_min"):
            fsl_augment(train, tiny, shots_min=5, shots_max=10, seed=0)

    def test_bad_shot_range(self):
        train, pool = self._pools()
        with pytest.raises(ValueError, match="shot range"):
            fsl_augment(train, pool, shots_min=5, shots_max=4, seed=0)


@pytest.fixture(scope="module")
def small_world():
    """A compact end-to-end fixture: clustered corpus, 4 seen + 2 unseen
    labels, trained feature extractor."""
    corpus = make_clustered_corpus(
        n_labels=6,
        tweets_per_label=15,
        tokens_per_label=8,
        dim=30,
        n_factors=3,
        noise=0.05,
        min_separation=0.5,
        tweet_len=(5, 8),
        seed=2,
    )
    split = make_split(corpus.dataset.label_set, 4, 2, seed=0)
    train = subset_by_labels(corpus.dataset, split.seen)
    clf = train_baseline(
        train, corpus.vocab, corpus.emb, TrainSpec(epochs=20, seed=0, hidden_units=32)
    )
    return corpus, split, train, clf


def _bundles(small_world):
    corpus, split, train, clf = small_world
    conse = ZslBundle(method="conse", classifier=clf, head=make_conse(clf, corpus.vocab, corpus.emb), split=split)

    from tagrec.supervised import extract_features_batch

    X = extract_features_batch(clf, [t for t, _ in train.examples]).T
    Y = np.zeros((len(train.examples), len(train.label_set)))
    for i, (_, lab) in enumerate(train.examples):
        Y[i, train.label_set.index(lab)] = 1.0
    A = AttributeMatrix.from_labels(train.label_set, corpus.vocab, corpus.emb)
    eszsl = ZslBundle(
        method="eszsl", classifier=clf, head=eszsl_fit(X, Y, A.matrix, gamma=1.0), split=split
    )

    S = np.stack(
        [label_embedding(lab, corpus.vocab, corpus.emb) for _, lab in train.examples]
    )
    dem = ZslBundle(
        method="dem",
        classifier=clf,
        head=dem_fit(X.T, S, TrainSpec(epochs=30, seed=0)),
        split=split,
    )
    return conse, eszsl, dem


class TestRecommend:
    def test_returns_top_k_of_full_ranking(self, small_world):
        corpus, split, train, clf = small_world
        for bundle in _bundles(small_world):
            tokens = corpus.dataset.examples[0][0]
            full = rank_candidates(bundle, tokens, split.unseen)
            top = recommend(bundle, tokens, split.unseen, k=1)
            assert top.ranked == full.ranked[:1]
            assert len(full.ranked) == len(split.unseen)

    def test_k_covering_all_candidates_is_permutation(self, small_world):
        corpus, split, _, _ = small_world
        bundle = _bundles(small_world)[0]
        pred = recommend(bundle, corpus.dataset.examples[5][0], split.unseen, k=len(split.unseen))
        assert sorted(pred.labels()) == sorted(split.unseen)

    def test_all_oov_flag_and_warning(self, small_world, caplog):
        _, split, _, _ = small_world
        bundle = _bundles(small_world)[0]
        with caplog.at_level("WARNING", logger="tagrec.zsl"):
            pred = recommend(bundle, ["nothing_known"], split.unseen, k=2)
        assert pred.all_oov is True
        assert any("zero feature" in r.getMessage() for r in caplog.records)

    def test_in_vocab_not_flagged(self, small_world):
        corpus, split, _, _ = small_world
        bundle = _bundles(small_world)[0]
        pred = recommend(bundle, corpus.dataset.examples[0][0], split.unseen, k=2)
        assert pred.all_oov is False

    def test_validation(self, small_world):
        _, split, _, _ = small_world
        bundle = _bundles(small_world)[0]
        with pytest.raises(ValueError, match="k must be"):
            recommend(bundle, ["x"], split.unseen, k=0)
        with pytest.raises(DataError, match="empty"):
            recommend(bundle, ["x"], [], k=1)

    def test_unknown_method_rejected(self, small_world):
        _, split, _, clf = small_world
        bad = ZslBundle(method="mystery", classifier=clf, head=None, split=split)
        with pytest.raises(ValueError, match="mystery"):
            rank_candidates(bad, ["x"], split.unseen)


@pytest.fixture(scope="module")
def saved_bundle(small_world, tmp_path_factory):
    """A saved ConSE bundle and its bytes."""
    corpus = small_world[0]
    root = tmp_path_factory.mktemp("saved")
    emb_path = root / "vectors.txt"
    save_embeddings(corpus.emb, corpus.vocab, emb_path)
    path = root / "conse.json"
    save_zsl_bundle(_bundles(small_world)[0], path, str(emb_path))
    return path, path.read_bytes()


class TestZslBundleIO:
    def test_round_trip_preserves_rankings(self, small_world, tmp_path):
        corpus, split, _, clf = small_world
        emb_path = tmp_path / "vectors.txt"
        save_embeddings(corpus.emb, corpus.vocab, emb_path)
        tokens = corpus.dataset.examples[7][0]
        for bundle in _bundles(small_world):
            path = tmp_path / f"{bundle.method}.json"
            save_zsl_bundle(bundle, path, str(emb_path), {"note": bundle.method})
            back = load_zsl_bundle(path)
            assert back.method == bundle.method
            assert back.split.seen == split.seen and back.split.unseen == split.unseen
            a = rank_candidates(bundle, tokens, split.unseen).ranked
            b = rank_candidates(back, tokens, split.unseen).ranked
            assert [lab for lab, _ in a] == [lab for lab, _ in b]
            assert [s for _, s in a] == pytest.approx([s for _, s in b], abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_damaged_bundle_loads_or_is_a_data_error(self, saved_bundle, data):
        path, raw = saved_bundle
        cut = data.draw(st.integers(0, len(raw) - 1), label="offset")
        if data.draw(st.booleans(), label="truncate"):
            damaged = raw[:cut]
        else:
            damaged = raw[:cut] + bytes([data.draw(st.integers(0, 255), label="byte")]) + raw[cut + 1:]
        bad = path.with_name("damaged.json")
        bad.write_bytes(damaged)
        try:
            load_zsl_bundle(bad)
        except DataError:
            pass

    def test_bundle_with_attribute_source_loads_unchanged(
        self, small_world, saved_bundle, tmp_path
    ):
        """Bundles once also named the embedding file in a top-level
        attribute_source entry, which no loader reads."""
        corpus, split, _, _ = small_world
        path, raw = saved_bundle
        obj = json.loads(raw)
        assert "attribute_source" not in obj
        obj["attribute_source"] = obj["classifier"]["embedding"]
        older = tmp_path / "older.json"
        older.write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="ascii")
        new, old = load_zsl_bundle(path), load_zsl_bundle(older)
        assert (old.method, old.split, old.head.T) == (new.method, new.split, new.head.T)
        assert np.array_equal(old.head.seen_embeddings.matrix, new.head.seen_embeddings.matrix)
        tokens = corpus.dataset.examples[3][0]
        assert rank_candidates(old, tokens, split.unseen) == rank_candidates(
            new, tokens, split.unseen
        )

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text('{"kind": "baseline"}\n')
        with pytest.raises(DataError, match="not a zero-shot"):
            load_zsl_bundle(path)

    def test_classifier_weights_survive(self, small_world, tmp_path):
        corpus, split, _, clf = small_world
        emb_path = tmp_path / "vectors.txt"
        save_embeddings(corpus.emb, corpus.vocab, emb_path)
        bundle = _bundles(small_world)[1]
        path = tmp_path / "eszsl.json"
        save_zsl_bundle(bundle, path, str(emb_path))
        back = load_zsl_bundle(path)
        assert np.array_equal(back.classifier.hidden_weights, clf.hidden_weights)
        assert np.array_equal(back.head.W, bundle.head.W)
        tokens = corpus.dataset.examples[2][0]
        assert np.array_equal(
            extract_features(back.classifier, tokens), extract_features(clf, tokens)
        )


def _perfbench_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestTraceContract:
    """perfbench's tracer reads the candidate count of each text's
    `AttributeMatrix.from_labels` and ranker calls; serving must keep
    making those calls once per text."""

    def test_recommend_makes_one_traced_gather_and_rank(self, small_world, monkeypatch):
        corpus, split, _, _ = small_world
        candidates = list(corpus.dataset.label_set)
        tokens = corpus.dataset.examples[5][0]
        bundles = _bundles(small_world)
        tracer = _perfbench_tracer(monkeypatch).Tracer()
        tracer.install()
        try:
            for bundle in bundles:
                # through the module, whose attribute the tracer replaced
                zsl.recommend(bundle, tokens, candidates, k=2)
        finally:
            tracer.uninstall()
        calls = [s for s in tracer.spans if s.name == "zsl.recommend"]
        assert len(calls) == len(bundles)
        for call, bundle in zip(calls, bundles):
            inner = [s for s in tracer.spans if s.parent is not None and s.start >= call.start
                     and s.end <= call.end]
            for name in ("zsl.attribute_matrix", f"zsl.{bundle.method}_rank"):
                spans = [s for s in inner if s.name == name]
                assert len(spans) == 1, (bundle.method, name)
                assert spans[0].counts["candidates"] == len(candidates)

    def test_training_takes_the_expected_traced_adam_steps(self, small_world, monkeypatch):
        """perfbench's Adam check: each training call makes exactly its
        expected_adam_steps numeric.adam_step calls."""
        corpus, _, train, _ = small_world
        rng = np.random.default_rng(4)
        X, S = rng.standard_normal((23, 5)), rng.standard_normal((23, 3))
        tracer = _perfbench_tracer(monkeypatch).Tracer()
        tracer.install()
        try:
            supervised.train_baseline(
                train, corpus.vocab, corpus.emb, TrainSpec(epochs=2, batch_size=16, hidden_units=8)
            )
            zsl.dem_fit(X, S, TrainSpec(epochs=3, batch_size=7))
        finally:
            tracer.uninstall()
        for name, expected in (
            ("supervised.train_baseline", 2 * -(-len(train.examples) // 16)),
            ("zsl.dem_fit", 3 * 4),
        ):
            [call] = [s for s in tracer.spans if s.name == name]
            steps = [
                s for s in tracer.spans if s.name == "numeric.adam_step" and s.parent == call.id
            ]
            assert call.counts["expected_adam_steps"] == expected
            assert len(steps) == expected, name
