"""Acceptance gate: eleven end-to-end criteria, each printing exactly
one PASS/FAIL line. They exercise the closed-form bilinear solver, the
attribute mapper's gradients, every ranker against a brute-force
oracle, the metric implementations, both experiment grids, the
skip-gram trainer, and the command-line pipeline including artifact
determinism."""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from tagrec.cli import main as cli_main
from tagrec.embedding import SgnsConfig, build_vocab, cosine, train_sgns
from tagrec.evaluate import (
    SupervisedExperimentConfig,
    ZslExperimentConfig,
    classification_metrics,
    flat_hit_at_k,
    run_supervised_experiment,
    run_zsl_experiment,
)
from tagrec.numeric import DenseLayer
from tagrec.supervised import TrainSpec
from tagrec.synthetic import make_clustered_corpus, make_separable_dataset
from tagrec.zsl import (
    AttributeMatrix,
    DemModel,
    EszslModel,
    conse_embed,
    conse_rank,
    dem_loss_and_grad,
    dem_rank,
    eszsl_fit,
    eszsl_rank,
)

from reference_math import eszsl_objective_grad, make_synonym_corpus

FIXTURES = Path(__file__).parent / "fixtures"
RAW = str(FIXTURES / "raw_tweets.jsonl")
GOLDEN = FIXTURES / "clean_golden.jsonl"


@pytest.fixture()
def announce(capsys):
    def _announce(number, name, ok, detail=""):
        line = f"[acceptance {number:02d}] {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _announce


# --- 1: closed-form bilinear solver ---------------------------------------


def _cg_solve(X, Y, A, gamma, max_iters=500):
    """Independent oracle: conjugate gradients on the stationarity
    condition (X X^T + gI) W (A A^T + gI) = X Y A^T, using only the
    operator form; never touches a matrix inverse or factorization."""
    Gx = X @ X.T
    Ga = A @ A.T
    B = X @ Y @ A.T

    def apply(W):
        return Gx @ W @ Ga + gamma * (W @ Ga + Gx @ W) + gamma**2 * W

    W = np.zeros_like(B)
    R = B - apply(W)
    P = R.copy()
    rs = float((R * R).sum())
    b_norm = float(np.linalg.norm(B))
    for _ in range(max_iters):
        if math.sqrt(rs) <= 1e-14 * b_norm:
            break
        AP = apply(P)
        step = rs / float((P * AP).sum())
        W = W + step * P
        R = R - step * AP
        rs_next = float((R * R).sum())
        P = R + (rs_next / rs) * P
        rs = rs_next
    return W


def test_01_bilinear_closed_form(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    p, m, s, n = 12, 40, 6, 9
    X = rng.normal(size=(p, m))
    A = rng.normal(size=(s, n))
    Y = np.zeros((m, n))
    Y[np.arange(m), rng.integers(0, n, size=m)] = 1.0
    gamma = 0.7

    W = eszsl_fit(X, Y, A, gamma).W
    grad = eszsl_objective_grad(W, X, Y, A, gamma)
    scale = 2.0 * (
        np.linalg.norm(X @ (X.T @ W @ A) @ A.T)
        + np.linalg.norm(X @ Y @ A.T)
        + gamma * np.linalg.norm(W @ (A @ A.T))
        + gamma * np.linalg.norm((X @ X.T) @ W)
        + gamma**2 * np.linalg.norm(W)
    )
    grad_norm = float(np.linalg.norm(grad))
    grad_ok = grad_norm <= 1e-8 * scale

    W_oracle = _cg_solve(X, Y, A, gamma)
    rel = float(np.linalg.norm(W - W_oracle) / np.linalg.norm(W_oracle))
    oracle_ok = rel <= 1e-5

    elapsed = time.perf_counter() - start
    announce(
        1,
        "closed-form bilinear solver has zero gradient and matches an iterative oracle",
        grad_ok and oracle_ok and elapsed < 5.0,
        f"|grad|={grad_norm:.2e} vs scale {scale:.1e}, oracle rel diff {rel:.2e}, {elapsed:.2f}s",
    )


# --- 2: attribute-mapper gradient check ------------------------------------


def test_02_mapper_gradient_check(announce):
    rng = np.random.default_rng(3)
    m, p, s = 6, 5, 4
    W = rng.normal(size=(p, s))
    b = rng.normal(size=p)
    S = rng.normal(size=(m, s))
    Xf = rng.normal(size=(m, p))
    # central differences must not straddle the ReLU kink
    assert np.abs(S @ W.T + b).min() > 1e-3

    _, (dW, db) = dem_loss_and_grad(W, b, Xf, S)
    eps = 1e-6

    num_dW = np.zeros_like(W)
    for i in range(p):
        for j in range(s):
            up, down = W.copy(), W.copy()
            up[i, j] += eps
            down[i, j] -= eps
            num_dW[i, j] = (
                dem_loss_and_grad(up, b, Xf, S)[0]
                - dem_loss_and_grad(down, b, Xf, S)[0]
            ) / (2 * eps)
    num_db = np.zeros_like(b)
    for i in range(p):
        up, down = b.copy(), b.copy()
        up[i] += eps
        down[i] -= eps
        num_db[i] = (
            dem_loss_and_grad(W, up, Xf, S)[0]
            - dem_loss_and_grad(W, down, Xf, S)[0]
        ) / (2 * eps)

    err_w = float(np.abs(num_dW - dW).max() / max(1.0, np.abs(dW).max()))
    err_b = float(np.abs(num_db - db).max() / max(1.0, np.abs(db).max()))
    announce(
        2,
        "attribute-mapper analytic gradients match finite differences",
        err_w <= 1e-4 and err_b <= 1e-4,
        f"weight err {err_w:.2e}, bias err {err_b:.2e}",
    )


# --- 3: rankers against a brute-force oracle --------------------------------


def _py_dot(u, v):
    return sum(float(a) * float(b) for a, b in zip(u, v))


def _py_cosine(u, v):
    nu, nv = math.sqrt(_py_dot(u, u)), math.sqrt(_py_dot(v, v))
    return 0.0 if nu == 0.0 or nv == 0.0 else _py_dot(u, v) / (nu * nv)


def _oracle_order(labels, scores):
    order = sorted(range(len(labels)), key=lambda i: (-scores[i], i))
    return [labels[i] for i in order]


def _random_attrs(rng, s, n, force_tie, prefix="u"):
    M = rng.normal(size=(s, n))
    if force_tie:
        i, j = rng.choice(n, size=2, replace=False)
        M[:, j] = M[:, i]
    labels = [f"{prefix}{i}" for i in range(n)]
    return AttributeMatrix(
        matrix=M, labels=labels, label_index={lab: i for i, lab in enumerate(labels)}
    )


def test_03_ranker_oracle(announce):
    rng = np.random.default_rng(7)
    mismatches = 0
    total = 0

    for case in range(34):  # combined embedding + cosine ranking
        s, n_seen, n_unseen = 6, 8, 7
        seen = _random_attrs(rng, s, n_seen, force_tie=False, prefix="s")
        unseen = _random_attrs(rng, s, n_unseen, force_tie=case % 3 == 0)
        logits = rng.normal(size=n_seen)
        probs = np.exp(logits) / np.exp(logits).sum()
        T = int(rng.integers(1, n_seen + 1))
        f_x = conse_embed(probs, seen, T)
        got = conse_rank(f_x, unseen).labels()
        want = _oracle_order(
            unseen.labels,
            [_py_cosine(f_x, unseen.matrix[:, i]) for i in range(n_unseen)],
        )
        mismatches += got != want
        total += 1

    for case in range(33):  # bilinear compatibility ranking
        p, s, n = 9, 5, 8
        model = EszslModel(W=rng.normal(size=(p, s)), gamma=1.0)
        x = rng.normal(size=p)
        unseen = _random_attrs(rng, s, n, force_tie=case % 3 == 0)
        got = eszsl_rank(model, x, unseen).labels()
        scores = []
        for i in range(n):
            col = unseen.matrix[:, i]
            scores.append(
                sum(
                    float(x[k]) * _py_dot(model.W[k], col)
                    for k in range(p)
                )
            )
        want = _oracle_order(unseen.labels, scores)
        mismatches += got != want
        total += 1

    for case in range(33):  # nearest mapped attribute ranking
        p, s, n = 7, 5, 8
        W = rng.normal(size=(p, s))
        b = rng.normal(size=p)
        model = DemModel(
            mapper=DenseLayer(weights=W, bias=b, activation="relu"),
            loss_history=[],
        )
        x = rng.normal(size=p)
        unseen = _random_attrs(rng, s, n, force_tie=case % 3 == 0)
        got = dem_rank(model, x, unseen).labels()
        scores = []
        for i in range(n):
            col = unseen.matrix[:, i]
            mapped = [max(0.0, _py_dot(W[k], col) + float(b[k])) for k in range(p)]
            dist = math.sqrt(sum((mk - float(xk)) ** 2 for mk, xk in zip(mapped, x)))
            scores.append(-dist)
        want = _oracle_order(unseen.labels, scores)
        mismatches += got != want
        total += 1

    announce(
        3,
        "all three rankers agree exactly with a brute-force oracle",
        total == 100 and mismatches == 0,
        f"{total - mismatches}/{total} instances exact, ties included",
    )


# --- 4: metrics against brute-force counting --------------------------------


def _oracle_metrics(y_true, y_pred, averaging):
    labels = sorted({*y_true, *y_pred}, key=str)
    tp = {l: 0 for l in labels}
    fp = {l: 0 for l in labels}
    fn = {l: 0 for l in labels}
    for t, p in zip(y_true, y_pred):
        if t == p:
            tp[t] += 1
        else:
            fp[p] += 1
            fn[t] += 1

    def div(a, b):
        return a / b if b else 0.0

    accuracy = sum(tp.values()) / len(y_true)
    if averaging == "micro":
        hits = sum(tp.values())
        precision = div(hits, hits + sum(fp.values()))
        recall = div(hits, hits + sum(fn.values()))
        f1 = div(2 * precision * recall, precision + recall)
    else:
        per_p = [div(tp[l], tp[l] + fp[l]) for l in labels]
        per_r = [div(tp[l], tp[l] + fn[l]) for l in labels]
        per_f = [div(2 * p * r, p + r) for p, r in zip(per_p, per_r)]
        precision = sum(per_p) / len(per_p)
        recall = sum(per_r) / len(per_r)
        f1 = sum(per_f) / len(per_f)
    return accuracy, precision, recall, f1


def test_04_metrics_oracle(announce):
    rng = np.random.default_rng(4)
    bad = 0
    identity_bad = 0
    for _ in range(1000):
        size = int(rng.integers(1, 30))
        alphabet = [f"l{i}" for i in range(int(rng.integers(1, 6)))]
        y_true = [alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=size)]
        y_pred = [alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=size)]
        for averaging in ("micro", "macro"):
            m = classification_metrics(y_true, y_pred, averaging)
            want = _oracle_metrics(y_true, y_pred, averaging)
            if (m.accuracy, m.precision, m.recall, m.f1) != want:
                bad += 1
        micro = classification_metrics(y_true, y_pred, "micro")
        if not micro.precision == micro.recall == micro.accuracy:
            identity_bad += 1
    announce(
        4,
        "classification metrics equal brute-force counting on 1000 cases",
        bad == 0 and identity_bad == 0,
        f"{bad} metric mismatches, {identity_bad} micro-identity violations",
    )


# --- 5: hit@K shape ----------------------------------------------------------


def test_05_hit_at_k_shape(announce):
    rng = np.random.default_rng(5)
    candidates = [f"c{i}" for i in range(5)]
    rankings = [
        [candidates[j] for j in rng.permutation(5)] for _ in range(200)
    ]
    y_true = [candidates[int(i)] for i in rng.integers(0, 5, size=200)]
    report = flat_hit_at_k(rankings, y_true, ks=(1, 2, 5))
    monotone = report.hit_at[1] <= report.hit_at[2] <= report.hit_at[5]
    total_recall = report.hit_at[5] == 100.0
    announce(
        5,
        "hit@K is monotone in K and reaches 100% at the candidate count",
        monotone and total_recall,
        f"hit@1={report.hit_at[1]:.1f} hit@2={report.hit_at[2]:.1f} hit@5={report.hit_at[5]:.1f}",
    )


# --- 6 and 7: experiment grids on the clustered corpus -----------------------

GRID = dict(
    splits=[(8, 4)],
    seeds=(0, 1, 2, 3, 4),
    ks=(1, 2),
    gamma=1.0,
    train=TrainSpec(epochs=30),
    dem_train=TrainSpec(epochs=50),
)


@pytest.fixture(scope="module")
def clustered_world():
    return make_clustered_corpus()


@pytest.fixture(scope="module")
def zero_shot_grid(clustered_world):
    start = time.perf_counter()
    result = run_zsl_experiment(
        clustered_world.dataset,
        clustered_world.vocab,
        clustered_world.emb,
        ZslExperimentConfig(setting="zsl", **GRID),
    )
    return result, time.perf_counter() - start


def _mean_hit1(result):
    return {mean["method"]: mean["hit_at"]["1"] for mean in result["means"]}


def test_06_zero_shot_grid(zero_shot_grid, announce):
    result, elapsed = zero_shot_grid
    hit1 = _mean_hit1(result)
    floor_ok = all(value >= 50.0 for value in hit1.values())
    relative_ok = (
        hit1["eszsl"] >= hit1["conse"] - 5.0 and hit1["dem"] >= hit1["conse"] - 5.0
    )
    announce(
        6,
        "zero-shot grid clears 50% hit@1 on the clustered corpus in under 2 minutes",
        floor_ok and relative_ok and elapsed < 120.0,
        "hit@1 "
        + " ".join(f"{m}={hit1[m]:.1f}" for m in ("conse", "eszsl", "dem"))
        + f", {elapsed:.0f}s",
    )


def test_07_few_shot_grid(zero_shot_grid, clustered_world, announce):
    zsl_hit1 = _mean_hit1(zero_shot_grid[0])
    fsl_result = run_zsl_experiment(
        clustered_world.dataset,
        clustered_world.vocab,
        clustered_world.emb,
        ZslExperimentConfig(setting="fsl", shots_min=10, shots_max=10, **GRID),
    )
    fsl_hit1 = _mean_hit1(fsl_result)
    ok = all(fsl_hit1[m] >= zsl_hit1[m] - 2.0 for m in zsl_hit1)
    announce(
        7,
        "ten-shot augmentation never trails zero-shot hit@1 by more than 2 points",
        ok,
        " ".join(
            f"{m} {zsl_hit1[m]:.1f}->{fsl_hit1[m]:.1f}" for m in ("conse", "eszsl", "dem")
        ),
    )


# --- 8: supervised baseline ---------------------------------------------------


def test_08_supervised_baseline(announce):
    world = make_separable_dataset()
    result = run_supervised_experiment(
        world.dataset, world.vocab, world.emb, SupervisedExperimentConfig()
    )
    train_acc = sum(c["train_accuracy"] for c in result["cells"]) / len(result["cells"])
    test_acc = result["mean"]["accuracy"]
    announce(
        8,
        "supervised baseline reaches 95% train / 90% cross-validated accuracy",
        train_acc >= 0.95 and test_acc >= 0.90,
        f"train {train_acc * 100:.1f}%, 5-fold test {test_acc * 100:.1f}%",
    )


# --- 9: skip-gram synonym geometry ---------------------------------------------


def test_09_synonym_embeddings(announce):
    sentences, (first, second), unrelated = make_synonym_corpus()
    config = SgnsConfig(
        dim=20, window=2, negatives=5, epochs=20, learning_rate=0.015, seed=0
    )
    vocab = build_vocab(sentences, min_count=1)
    emb, losses = train_sgns(sentences, vocab, config)

    va = emb.input_vectors[vocab.index[first]]
    vb = emb.input_vectors[vocab.index[second]]
    synonym_cos = cosine(va, vb)
    rival_cos = max(
        max(cosine(va, emb.input_vectors[vocab.index[u]]),
            cosine(vb, emb.input_vectors[vocab.index[u]]))
        for u in unrelated
    )
    violations = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
    announce(
        9,
        "skip-gram places synonyms together within 30 epochs",
        config.epochs <= 30
        and synonym_cos >= 0.8
        and synonym_cos > rival_cos
        and violations <= 3,
        f"synonym cos {synonym_cos:.3f} vs best unrelated {rival_cos:.3f}, "
        f"{violations} loss increases over {len(losses)} epochs",
    )


# --- 10: golden cleaned corpus ---------------------------------------------------


def test_10_cleaning_pipeline_golden(tmp_path, capsys, announce):
    out = tmp_path / "clean.jsonl"
    code = cli_main(
        ["ingest", "--input", RAW, "--out", str(out), "--min-tweets", "3"]
    )
    capsys.readouterr()
    announce(
        10,
        "ingest reproduces the golden cleaned corpus byte-for-byte",
        code == 0 and out.read_bytes() == GOLDEN.read_bytes(),
        f"{out.stat().st_size} bytes",
    )


# --- 11: artifact determinism -----------------------------------------------------


def test_11_rerun_determinism(tmp_path, capsys, announce):
    import json

    from tagrec.embedding import save_embeddings

    world = make_clustered_corpus(
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
    synth_clean = tmp_path / "synth_clean.jsonl"
    with open(synth_clean, "w", encoding="ascii") as fh:
        for i, (tokens, label) in enumerate(world.dataset.examples):
            fh.write(
                json.dumps({"id": f"s{i:04d}", "tokens": tokens, "labels": [label]})
                + "\n"
            )
    synth_emb = tmp_path / "synth_emb.txt"
    save_embeddings(world.emb, world.vocab, str(synth_emb))
    data_flags = [
        "--clean", str(synth_clean), "--embeddings", str(synth_emb),
        "--top-n", "6", "--min-tweets", "1",
    ]

    artifacts = {
        "clean.jsonl": tmp_path / "clean.jsonl",
        "clean.labels.json": tmp_path / "clean.labels.json",
        "clean.report.json": tmp_path / "clean.report.json",
        "emb_corpus.txt": tmp_path / "emb_corpus.txt",
        "emb.txt": tmp_path / "emb.txt",
        "baseline.json": tmp_path / "baseline.json",
        "zsl_results.json": tmp_path / "zsl_results.json",
        "zsl_bundle.json": tmp_path / "zsl_bundle.json",
        "cv.json": tmp_path / "cv.json",
    }

    def run_everything():
        codes = [
            cli_main(
                ["ingest", "--input", RAW, "--out", str(artifacts["clean.jsonl"]),
                 "--min-tweets", "3",
                 "--emb-corpus", str(artifacts["emb_corpus.txt"])]
            ),
            cli_main(
                ["train-embeddings", "--corpus", str(artifacts["emb_corpus.txt"]),
                 "--out", str(artifacts["emb.txt"]),
                 "--dim", "16", "--window", "2", "--epochs", "3", "--seed", "0"]
            ),
            cli_main(
                ["train-baseline", *data_flags,
                 "--out", str(artifacts["baseline.json"]),
                 "--epochs", "3", "--hidden", "16"]
            ),
            cli_main(
                ["zsl", *data_flags, "--splits", "4/2", "--seeds", "0",
                 "--ks", "1,2", "--methods", "conse", "--epochs", "3",
                 "--hidden", "16", "--out", str(artifacts["zsl_results.json"]),
                 "--save-bundle", str(artifacts["zsl_bundle.json"])]
            ),
            cli_main(
                ["eval", *data_flags, "--folds", "3", "--epochs", "3",
                 "--hidden", "16", "--out", str(artifacts["cv.json"])]
            ),
        ]
        capsys.readouterr()
        return codes

    first_codes = run_everything()
    snapshots = {name: path.read_bytes() for name, path in artifacts.items()}
    second_codes = run_everything()

    stable = [
        name for name, path in artifacts.items()
        if path.read_bytes() == snapshots[name]
    ]
    ok = (
        all(code == 0 for code in first_codes + second_codes)
        and len(stable) == len(artifacts)
    )
    announce(
        11,
        "rerunning every artifact-writing command is bit-identical",
        ok,
        f"{len(stable)}/{len(artifacts)} artifacts stable across reruns",
    )
