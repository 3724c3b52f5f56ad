"""The benchmark's own checks must catch wrong outputs, and its
generators must plant what they claim.

    python3 -m pytest perfbench/tests
"""

import json
import math
import os

import numpy as np
import pytest

import checks
import gen
import steady
from tagrec import ingest, numeric, supervised, zsl
from tracer import SpanTable, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_ranking_check_catches_a_swapped_pair():
    expected = [("a", 3.0), ("b", 2.0), ("c", 1.0)]
    assert checks.ranking_problems(list(expected), expected, "t") == []
    swapped = [("a", 3.0), ("c", 1.0), ("b", 2.0)]
    assert checks.ranking_problems(swapped, expected, "t")


def test_ranking_check_catches_a_score_off_beyond_tolerance():
    expected = [("a", 3.0), ("b", 2.0)]
    assert checks.ranking_problems([("a", 3.0 * (1 + 1e-12)), ("b", 2.0)], expected, "t") == []
    assert checks.ranking_problems([("a", 3.0 * (1 + 1e-6)), ("b", 2.0)], expected, "t")


def _small_corpus(seed=0):
    return gen.make_raw_corpus(seed, n_kept=120, n_per_drop=6, minor_count=3)


def _report(corpus):
    return {"n_input": len(corpus.records), "n_kept": corpus.kept, "drops": dict(corpus.drops)}


def _catalog(corpus, top_n, min_tweets):
    labels = corpus.catalog(top_n, min_tweets)
    return {"labels": labels, "counts": {label: corpus.label_counts[label] for label in labels}}


def test_ingest_check_catches_a_drop_count_off_by_one():
    corpus = _small_corpus()
    catalog = _catalog(corpus, 17, 5)
    assert checks.ingest_problems(_report(corpus), catalog, corpus, 17, 5) == []
    for reason in gen.DROP_REASONS:
        report = _report(corpus)
        report["drops"][reason] += 1
        assert checks.ingest_problems(report, catalog, corpus, 17, 5)
    report = _report(corpus)
    report["n_kept"] -= 1
    assert checks.ingest_problems(report, catalog, corpus, 17, 5)


def test_ingest_check_catches_a_wrong_catalog():
    corpus = _small_corpus()
    catalog = _catalog(corpus, 17, 5)
    catalog["labels"] = catalog["labels"][::-1]
    assert checks.ingest_problems(_report(corpus), catalog, corpus, 17, 5)


def test_hit_check_catches_a_non_monotone_curve():
    assert checks.hit_problems({"1": 50.0, "2": 75.0, "4": 100.0}, 4) == []
    assert checks.hit_problems({"1": 50.0, "2": 40.0, "4": 100.0}, 4)
    assert checks.hit_problems({"1": 50.0, "2": 75.0, "4": 99.5}, 4)
    assert checks.hit_problems({"1": 50.0, "2": 75.0}, 4)


def test_artifact_check_catches_one_changed_byte(tmp_path):
    path = tmp_path / "artifact.json"
    path.write_bytes(b'{"w": [0.125, 0.5]}\n')
    reference = {}
    assert checks.artifact_problems(reference, [str(path)]) == []
    assert checks.artifact_problems(reference, [str(path)]) == []
    path.write_bytes(b'{"w": [0.125, 0.6]}\n')
    assert checks.artifact_problems(reference, [str(path)])


def test_loss_check():
    assert checks.loss_problems("l", [2.0, 1.5]) == []
    assert checks.loss_problems("l", [2.0, 2.5])
    assert checks.loss_problems("l", [2.0, float("nan")])
    assert checks.loss_problems("l", [2.0])
    assert checks.loss_problems("l", [3.0, 2.9], ceiling=math.log(17))


def test_vocabulary_check(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("2 2\n#a 0.1 0.2\nx 0.3 0.4\n")
    assert checks.vocabulary_problems(path, {"#a", "x"}) == []
    assert checks.vocabulary_problems(path, {"#a", "x", "y"})
    assert checks.vocabulary_problems(path, {"#a"})


def _tiny_bundle(method):
    # hidden layer: identity, so the feature of text "x" is tanh([1, 0])
    classifier = {
        "hidden": {"weights": [[1.0, 0.0], [0.0, 1.0]], "bias": [0.0, 0.0]},
        # softmax of [ln 3, 0]: the seen labels get probabilities 3/4, 1/4
        "output": {"weights": [[0.0, 0.0], [0.0, 0.0]], "bias": [math.log(3.0), 0.0]},
    }
    heads = {
        "conse": {"T": 2, "labels": ["s1", "s2"], "vectors": [[1.0, 0.0], [0.0, 1.0]]},
        "eszsl": {"gamma": 1.0, "W": [[1.0, 0.0], [0.0, 1.0]]},
        "dem": {"weights": [[1.0, 0.0], [0.0, 1.0]], "bias": [0.0, 0.0]},
    }
    return {"method": method, "classifier": classifier, "head": heads[method]}


TINY_TOKENS = ["#a", "#b", "#c", "x", "y"]
# '#c' is an exact copy of '#a': a tie the candidate order must break
TINY_VECTORS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
T1 = math.tanh(1.0)


@pytest.mark.parametrize(
    "method, scores",
    [
        # cosine of f = (3/4, 1/4) with [1, 0] and [0, 1]
        ("conse", {"a": 0.75 / math.hypot(0.75, 0.25), "b": 0.25 / math.hypot(0.75, 0.25)}),
        # x^T W a with W = I
        ("eszsl", {"a": T1, "b": 0.0}),
        # minus the distance from relu(a) to (tanh 1, 0)
        ("dem", {"a": -(1.0 - T1), "b": -math.hypot(T1, 1.0)}),
    ],
)
def test_oracle_matches_a_hand_worked_case_with_a_tie(method, scores):
    index = {t: i for i, t in enumerate(TINY_TOKENS)}
    scores = {**scores, "c": scores["a"]}
    for candidates, order in ((["a", "b", "c"], ["a", "c", "b"]), (["c", "b", "a"], ["c", "a", "b"])):
        oracle = checks.RankOracle(_tiny_bundle(method), index, TINY_VECTORS, candidates)
        ranked = oracle.rank(["x", "unknown"])
        assert [label for label, _ in ranked] == order
        for label, score in ranked:
            assert score == pytest.approx(scores[label], rel=1e-12, abs=1e-12)
        assert ranked[0][1] == ranked[1][1]


def test_raw_corpus_is_seeded():
    assert _small_corpus(3).records == _small_corpus(3).records
    assert _small_corpus(3).records != _small_corpus(4).records


def test_planted_counts_agree_with_ingest():
    corpus = _small_corpus(5)
    result = ingest.filter_corpus(corpus.records, ingest.default_stopwords())
    assert result.n_input == len(corpus.records)
    assert len(result.tweets) == corpus.kept
    assert result.drop_counts == corpus.drops
    assert all(count > 0 for count in corpus.drops.values())
    assert result.label_counts == {k: v for k, v in corpus.label_counts.items() if v}
    sentences = []
    for obj in corpus.records:
        try:
            record = ingest.parse_raw_record(obj)
            if record.lang == "en":
                sentences.append(ingest.minimal_tokens(ingest.normalize_raw(record)))
        except ingest.DataError:
            pass
    assert [s for s in sentences if s] == corpus.emb_sentences


def test_serve_world_plants_ties_and_topics():
    world = gen.make_serve_world(0, n_rows=2000, dim=8, n_candidates=40, n_tied_pairs=3, n_texts=10)
    index = {t: i for i, t in enumerate(world.tokens)}
    for a, b in world.tied_pairs:
        assert (world.ints[index["#" + a]] == world.ints[index["#" + b]]).all()
    assert len(world.tied_pairs) == 3 and len(world.texts) == 10
    assert set(world.train_labels) <= set(world.candidates)


def test_tracer_wraps_every_import_site_and_restores_them():
    original = numeric.adam_step
    tracer = Tracer()
    tracer.install()
    try:
        assert supervised.adam_step is not original and zsl.adam_step is not original
        assert supervised.adam_step is numeric.adam_step
        tracer.phase = "round000"
        params = [np.zeros(3)]
        state = numeric.AdamState.for_params(params)
        with tracer.span("outer"):
            zsl.adam_step(params, [np.ones(3)], state)
            zsl.adam_step(params, [np.ones(3)], state)
    finally:
        tracer.uninstall()
    assert numeric.adam_step is original and supervised.adam_step is original
    table = SpanTable(tracer)
    assert table.calls("numeric.adam_step") == 2
    inner = table.total_s("numeric.adam_step")
    assert table.self_s("outer") == pytest.approx(table.total_s("outer") - inner)


@pytest.mark.parametrize("method", ["conse", "eszsl", "dem"])
def test_oracle_on_an_integer_matrix_with_a_divisor_matches_floats(method):
    index = {t: i for i, t in enumerate(TINY_TOKENS)}
    ints = (TINY_VECTORS * 1000).astype(np.int16)
    floats = checks.RankOracle(_tiny_bundle(method), index, TINY_VECTORS, ["a", "b", "c"])
    scaled = checks.RankOracle(_tiny_bundle(method), index, ints, ["a", "b", "c"], divisor=1000.0)
    assert scaled.rank(["x", "y"]) == floats.rank(["x", "y"])


def test_compare_fails_a_set_whose_outputs_were_wrong():
    spec = {"cv_s": {"name": "cv_s", "better": "lower", "bound": 0.25}}

    def runs(correct):
        return {"runs": [{"seed": i, "correct": correct, "attempted": 10, "failed": 0,
                          "metrics": {"cv_s": 4.0 + 0.01 * i}} for i in range(10)]}

    assert steady.compare(runs(True), runs(True), spec)
    assert not steady.compare(runs(True), runs(False), spec)
    assert not steady.compare(runs(False), runs(True), spec)


def test_workloads_match_the_manifest():
    import journey
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS) == list(journey.SCALES)


def test_rank_figures_follow_the_calls_with_the_most_candidates():
    import run

    tracer = Tracer()
    tracer.phase = "round000"
    for candidates in (4, 4, 4, 4, 400, 4, 400):
        with tracer.span("zsl.conse_rank", candidates=candidates) as s:
            pass
        # the many-candidate calls are the slow ones
        s.end = s.start + (1e-3 if candidates == 400 else 1e-5)
    metrics = run.per_layer_metrics(SpanTable(tracer))
    assert metrics["zsl.candidates"] == (400, "count")
    assert metrics["zsl.conse_rank.us"][0] == pytest.approx(1e3)
