"""End-to-end coverage of the command-line interface: argument and
config-file resolution, every subcommand on real files, artifact
determinism, and the exit-code contract (0 ok, 1 usage, 2 data,
3 numerical)."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tagrec import cli, evaluate, zsl
from tagrec.cli import main
from tagrec.embedding import load_embeddings, save_embeddings
from tagrec.errors import MalformedRecordError, NumericalError
from tagrec.ingest import normalize_raw, parse_raw_record, read_raw_jsonl
from tagrec.supervised import load_baseline_bundle
from tagrec.synthetic import make_clustered_corpus
from tagrec.zsl import load_zsl_bundle

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).parent.parent
RAW = str(FIXTURES / "raw_tweets.jsonl")
GOLDEN = FIXTURES / "clean_golden.jsonl"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ingest_argv(tmp_path, **extra):
    argv = ["ingest", "--input", RAW, "--out", str(tmp_path / "clean.jsonl")]
    for key, value in extra.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliworld")
    corpus = make_clustered_corpus(
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
    clean = root / "clean.jsonl"
    with open(clean, "w", encoding="ascii") as fh:
        for i, (tokens, label) in enumerate(corpus.dataset.examples):
            fh.write(
                json.dumps({"id": f"s{i:04d}", "tokens": tokens, "labels": [label]})
                + "\n"
            )
    emb = root / "emb.txt"
    save_embeddings(corpus.emb, corpus.vocab, str(emb))
    return SimpleNamespace(
        root=root,
        corpus=corpus,
        data_flags=[
            "--clean", str(clean), "--embeddings", str(emb),
            "--top-n", "6", "--min-tweets", "1",
        ],
        embeddings=str(emb),
    )


FAST_GRID = [
    "--splits", "4/2", "--seeds", "0", "--ks", "1,2",
    "--epochs", "6", "--hidden", "32", "--dem-epochs", "8",
]


class TestArgumentHandling:
    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 1
        assert "error:" in err and "command is required" in err

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(["frobnicate"], capsys)
        assert code == 1 and "error:" in err

    def test_missing_required_flag(self, capsys, tmp_path):
        code, _, err = run_cli(["ingest", "--input", RAW], capsys)
        assert code == 1
        assert "--out is required for ingest" in err

    def test_unknown_flag(self, capsys, tmp_path):
        code, _, err = run_cli(ingest_argv(tmp_path) + ["--bogus", "1"], capsys)
        assert code == 1 and "error:" in err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tagrec.cli"], capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr


class TestConfigResolution:
    def _config_file(self, tmp_path, section):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"ingest": section}), encoding="ascii")
        return str(path)

    def test_config_file_supplies_required_values(self, capsys, tmp_path):
        out = tmp_path / "clean.jsonl"
        cfg = self._config_file(
            tmp_path, {"input": RAW, "out": str(out), "top_n": 2, "min_tweets": 3}
        )
        code, _, _ = run_cli(["--config", cfg, "ingest"], capsys)
        assert code == 0 and out.exists()

    def test_environment_variable_selects_config(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "clean.jsonl"
        cfg = self._config_file(
            tmp_path, {"input": RAW, "out": str(out), "min_tweets": 3}
        )
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, cfg)
        code, _, _ = run_cli(["ingest"], capsys)
        assert code == 0 and out.exists()

    def test_flag_beats_config_file(self, capsys, tmp_path):
        out = tmp_path / "clean.jsonl"
        cfg = self._config_file(
            tmp_path, {"input": RAW, "out": str(out), "top_n": 1, "min_tweets": 3}
        )
        code, _, _ = run_cli(["--config", cfg, "ingest", "--top-n", "2"], capsys)
        assert code == 0
        catalog = json.loads((tmp_path / "clean.labels.json").read_text())
        assert catalog["labels"] == ["ai", "pets"]
        assert catalog["config"]["top_n"] == 2

    def test_invalid_config_json(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{broken", encoding="ascii")
        code, _, err = run_cli(
            ["--config", str(path)] + ingest_argv(tmp_path), capsys
        )
        assert code == 2 and "data error" in err and "invalid JSON" in err

    def test_invalid_config_json_names_the_line(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{\n  "ingest": {\n    "top_n": 2,,\n  }\n}\n', encoding="ascii")
        code, _, err = run_cli(
            ["--config", str(path)] + ingest_argv(tmp_path), capsys
        )
        assert code == 2 and f"data error: {path}:3: invalid JSON" in err

    def test_config_must_be_object(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="ascii")
        code, _, err = run_cli(
            ["--config", str(path)] + ingest_argv(tmp_path), capsys
        )
        assert code == 2 and "expected an object" in err

    def test_section_must_be_object(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"ingest": 5}), encoding="ascii")
        code, _, err = run_cli(
            ["--config", str(cfg)] + ingest_argv(tmp_path), capsys
        )
        assert code == 2 and "must be an object" in err


class TestIngestCommand:
    def test_exit_zero_and_progress_lines(self, capsys, tmp_path):
        code, out, _ = run_cli(ingest_argv(tmp_path, min_tweets=3, top_n=2), capsys)
        assert code == 0
        assert "kept 15 of 25 tweets" in out
        assert (
            "drops: duplicate=2 malformed=2 no_hashtags=1 non_english=2 too_short=3"
            in out
        )

    def test_clean_output_matches_golden_bytes(self, capsys, tmp_path):
        code, _, _ = run_cli(ingest_argv(tmp_path, min_tweets=3), capsys)
        assert code == 0
        assert (tmp_path / "clean.jsonl").read_bytes() == GOLDEN.read_bytes()

    def test_label_catalog_artifact(self, capsys, tmp_path):
        run_cli(ingest_argv(tmp_path, min_tweets=3, top_n=2), capsys)
        catalog = json.loads((tmp_path / "clean.labels.json").read_text())
        assert catalog["labels"] == ["ai", "pets"]
        assert catalog["counts"] == {"ai": 4, "pets": 3}
        assert catalog["config"]["min_tweets"] == 3

    def test_drop_report_artifact(self, capsys, tmp_path):
        run_cli(ingest_argv(tmp_path, min_tweets=3, top_n=2), capsys)
        report = json.loads((tmp_path / "clean.report.json").read_text())
        assert report["n_input"] == 25
        assert report["n_kept"] == 15
        assert report["n_labels"] == 2
        assert report["drops"] == {
            "non_english": 2,
            "malformed": 2,
            "no_hashtags": 1,
            "too_short": 3,
            "duplicate": 2,
        }

    def test_artifact_paths_can_be_overridden(self, capsys, tmp_path):
        labels = tmp_path / "cat.json"
        report = tmp_path / "rep.json"
        run_cli(
            ingest_argv(
                tmp_path, min_tweets=3, labels_out=str(labels), report_out=str(report)
            ),
            capsys,
        )
        assert labels.exists() and report.exists()
        assert not (tmp_path / "clean.labels.json").exists()

    def test_embedding_corpus_output(self, capsys, tmp_path):
        emb_corpus = tmp_path / "emb_corpus.txt"
        run_cli(
            ingest_argv(tmp_path, min_tweets=3, emb_corpus=str(emb_corpus)), capsys
        )
        lines = emb_corpus.read_text(encoding="utf-8").splitlines()
        # everything parseable and English survives, even tweets the
        # cleaning pipeline later drops as short or duplicate
        assert len(lines) == 21
        assert lines[0] == "My quick brown fox jumps over lazy dogs #pets"
        assert "Check user LOVES #ai today plus extra words" in lines
        assert all("https://" not in line for line in lines)
        assert all(line.strip() for line in lines)

    def test_embedding_corpus_spells_every_label(self, capsys, tmp_path):
        # the fixture plus a hashtag that a no-break space ends
        raw = tmp_path / "raw.jsonl"
        extra = {"id_str": "nbsp", "lang": "en",
                 "text": "one two three four five words #Coffee\u00a0time"}
        raw.write_text(Path(RAW).read_text(encoding="utf-8") + json.dumps(extra) + "\n",
                       encoding="utf-8")
        emb_corpus = tmp_path / "emb_corpus.txt"
        argv = ingest_argv(tmp_path, min_tweets=3, emb_corpus=str(emb_corpus))
        argv[argv.index(RAW)] = str(raw)
        run_cli(argv, capsys)
        # the corpus has one line per English, well-formed record
        ids = []
        for obj in read_raw_jsonl(raw):
            try:
                if obj.get("lang") == "en":
                    normalize_raw(parse_raw_record(obj))
                    ids.append(obj["id_str"])
            except MalformedRecordError:
                pass
        lines = emb_corpus.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(ids)
        line_of = dict(zip(ids, lines))
        kept = [json.loads(line) for line in (tmp_path / "clean.jsonl").read_text().splitlines()]
        assert kept[-1]["id"] == "nbsp" and kept[-1]["labels"] == ["coffee"]
        assert kept[-1]["tokens"][-1] == "time"
        for tweet in kept:
            for label in tweet["labels"]:
                assert "#" + label in line_of[tweet["id"]].split(), (tweet["id"], label)

    @pytest.mark.parametrize(
        "bad", [{"id_str": 7, "text": "a numeric id on an otherwise fine tweet #pets"},
                {"id_str": "n1", "text": 123}],
        ids=["numeric-id", "numeric-text"],
    )
    def test_wrongly_typed_record_is_a_malformed_drop(self, capsys, tmp_path, bad):
        raw = tmp_path / "raw.jsonl"
        raw.write_text(
            Path(RAW).read_text(encoding="utf-8") + json.dumps({**bad, "lang": "en"}) + "\n",
            encoding="utf-8",
        )
        code, _, err = run_cli(
            ["ingest", "--input", str(raw), "--out", str(tmp_path / "clean.jsonl"),
             "--min-tweets", "3", "--emb-corpus", str(tmp_path / "emb.txt")],
            capsys,
        )
        assert code == 0, err
        report = json.loads((tmp_path / "clean.report.json").read_text())
        assert report["n_input"] == 26 and report["n_kept"] == 15
        assert report["drops"]["malformed"] == 3
        clean = (tmp_path / "clean.jsonl").read_text().splitlines()
        assert all(isinstance(json.loads(line)["id"], str) for line in clean)

    def test_mixed_case_hashtags_reach_the_grid(self, capsys, tmp_path):
        # the only spellings of the coffee hashtag are #Coffee, #Coffee!
        # and (#coffee); its label is "coffee", which needs "#coffee" in
        # the embedding vocabulary
        coffee = ("#Coffee", "#Coffee!", "(#coffee)")
        pools = {
            "coffee": ["bean", "roast", "brew", "mug", "espresso", "latte"],
            "tea": ["leaf", "steep", "kettle", "green", "oolong", "cup"],
            "yoga": ["pose", "mat", "breath", "stretch", "calm", "flow"],
        }
        raw = tmp_path / "raw.jsonl"
        with open(raw, "w", encoding="utf-8") as fh:
            for i in range(12):
                for label, pool in pools.items():
                    tag = coffee[i % 3] if label == "coffee" else "#" + label
                    words = [pool[(i + j) % len(pool)] for j in range(5)] + [f"w{i}", tag]
                    fh.write(json.dumps(
                        {"id_str": f"{label}{i}", "text": " ".join(words), "lang": "en"}
                    ) + "\n")
        clean, corpus, vectors = (
            str(tmp_path / name) for name in ("clean.jsonl", "corpus.txt", "vec.txt")
        )
        code, _, err = run_cli(
            ["ingest", "--input", str(raw), "--out", clean, "--min-tweets", "1",
             "--top-n", "3", "--emb-corpus", corpus],
            capsys,
        )
        assert code == 0, err
        code, _, err = run_cli(
            ["train-embeddings", "--corpus", corpus, "--out", vectors, "--dim", "8",
             "--epochs", "1", "--window", "2"],
            capsys,
        )
        assert code == 0, err
        code, _, err = run_cli(
            ["zsl", "--clean", clean, "--embeddings", vectors,
             "--labels", str(tmp_path / "clean.labels.json"), "--splits", "2/1",
             "--seeds", "0", "--ks", "1", "--epochs", "2", "--hidden", "8",
             "--dem-epochs", "2"],
            capsys,
        )
        assert code == 0, err

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        argv = ingest_argv(tmp_path, min_tweets=3, top_n=2)
        run_cli(argv, capsys)
        first = {
            name: (tmp_path / name).read_bytes()
            for name in ("clean.jsonl", "clean.labels.json", "clean.report.json")
        }
        run_cli(argv, capsys)
        for name, payload in first.items():
            assert (tmp_path / name).read_bytes() == payload

    def test_empty_input_is_a_data_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="ascii")
        code, _, err = run_cli(
            ["ingest", "--input", str(empty), "--out", str(tmp_path / "c.jsonl")],
            capsys,
        )
        assert code == 2 and "no input records" in err

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["ingest", "--input", str(tmp_path / "nope.jsonl"), "--out",
             str(tmp_path / "c.jsonl")],
            capsys,
        )
        assert code == 2 and "data error" in err


class TestTrainEmbeddingsCommand:
    @pytest.fixture()
    def corpus_file(self, tmp_path):
        path = tmp_path / "corpus.txt"
        lines = []
        for i in range(12):
            lines.append(f"red apple sweet fruit{i % 3}")
            lines.append(f"green pear tart fruit{i % 3}")
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        return str(path)

    def _argv(self, corpus_file, out, **extra):
        argv = [
            "train-embeddings", "--corpus", corpus_file, "--out", out,
            "--dim", "8", "--window", "2", "--epochs", "2", "--seed", "0",
        ]
        for key, value in extra.items():
            argv += [f"--{key}", str(value)]
        return argv

    def test_trains_and_saves(self, capsys, tmp_path, corpus_file):
        out = str(tmp_path / "emb.txt")
        code, stdout, _ = run_cli(self._argv(corpus_file, out), capsys)
        assert code == 0
        vocab, vectors = load_embeddings(out)
        assert len(vocab) == 9  # red apple sweet green pear tart fruit0..2
        assert vectors.shape == (9, 8)
        payload = json.loads(stdout)
        assert payload["vocab_size"] == 9
        assert len(payload["epoch_losses"]) == 2

    def test_deterministic_reruns(self, capsys, tmp_path, corpus_file):
        out = str(tmp_path / "emb.txt")
        argv = self._argv(corpus_file, out)
        run_cli(argv, capsys)
        first = Path(out).read_bytes()
        run_cli(argv, capsys)
        assert Path(out).read_bytes() == first

    def test_seed_changes_the_model(self, capsys, tmp_path, corpus_file):
        out_a, out_b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        run_cli(self._argv(corpus_file, out_a), capsys)
        run_cli(self._argv(corpus_file, out_b)[:-2] + ["--seed", "7"], capsys)
        assert Path(out_a).read_bytes() != Path(out_b).read_bytes()

    def test_invalid_hyperparameter(self, capsys, tmp_path, corpus_file):
        code, _, err = run_cli(
            self._argv(corpus_file, str(tmp_path / "emb.txt"), lr=-0.5), capsys
        )
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("flag,value", [("dim", 0), ("dim", -3), ("epochs", 0)])
    def test_non_positive_size_is_usage_error(self, capsys, tmp_path, corpus_file, flag, value):
        out = tmp_path / "emb.txt"
        argv = self._argv(corpus_file, str(out))
        argv[argv.index(f"--{flag}") + 1] = str(value)
        code, _, err = run_cli(argv, capsys)
        assert code == 1 and f"error: {flag} must be >= 1" in err
        assert not out.exists()

    def test_non_utf8_corpus_is_a_data_error(self, capsys, tmp_path):
        corpus = tmp_path / "latin1.txt"
        corpus.write_bytes("red apple\ncaf\u00e9 noir\n".encode("latin-1"))
        code, _, err = run_cli(self._argv(str(corpus), str(tmp_path / "emb.txt")), capsys)
        assert code == 2 and f"data error: {corpus}:2: not UTF-8" in err

    def test_vectors_do_not_depend_on_blas_threads(self, tmp_path):
        # the trainer calls no BLAS routine, so how many threads BLAS
        # may use cannot change a byte of the vectors
        rng = np.random.default_rng(3)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "".join(" ".join(f"w{j}" for j in rng.integers(0, 300, size=60)) + "\n"
                    for _ in range(40)),
            encoding="ascii",
        )
        vectors = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
            )
            out = tmp_path / f"emb{threads}.txt"
            proc = subprocess.run(
                [sys.executable, "-m", "tagrec.cli", "train-embeddings", "--corpus", str(corpus),
                 "--out", str(out), "--dim", "64", "--epochs", "2", "--seed", "0"],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            vectors[threads] = out.read_bytes()
        assert vectors["1"] == vectors["2"]


class TestTrainBaselineCommand:
    def test_trains_and_saves_bundle(self, capsys, tmp_path, world):
        out = str(tmp_path / "baseline.json")
        code, stdout, _ = run_cli(
            ["train-baseline", *world.data_flags, "--out", out,
             "--epochs", "6", "--hidden", "32"],
            capsys,
        )
        assert code == 0
        model = load_baseline_bundle(out)
        assert sorted(model.label_order) == sorted(world.corpus.dataset.label_set)
        payload = json.loads(stdout)
        assert payload["n_labels"] == 6
        assert isinstance(payload["final_loss"], float)

    def test_non_utf8_embeddings_are_a_data_error(self, capsys, tmp_path, world):
        vectors = tmp_path / "latin1.txt"
        vectors.write_bytes("1 2\ncaf\u00e9 0.5 0.25\n".encode("latin-1"))
        flags = list(world.data_flags)
        flags[flags.index("--embeddings") + 1] = str(vectors)
        code, _, err = run_cli(
            ["train-baseline", *flags, "--out", str(tmp_path / "baseline.json")], capsys
        )
        assert code == 2 and f"data error: {vectors}:2: not UTF-8" in err

    @pytest.mark.parametrize(
        "header", ["-5 3", "100000000000000 3", "1 0"], ids=["negative", "huge", "zero-dim"]
    )
    def test_bad_embedding_header_is_a_data_error(self, capsys, tmp_path, world, header):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(f"{header}\ntok 0.5 0.25 0.125\n", encoding="ascii")
        flags = list(world.data_flags)
        flags[flags.index("--embeddings") + 1] = str(vectors)
        code, _, err = run_cli(
            ["train-baseline", *flags, "--out", str(tmp_path / "baseline.json")], capsys
        )
        assert code == 2 and f"data error: {vectors}:1: header" in err

    def test_label_catalog_restricts_and_orders(self, capsys, tmp_path, world):
        subset = sorted(world.corpus.dataset.label_set)[:3][::-1]
        catalog = tmp_path / "labels.json"
        catalog.write_text(json.dumps({"labels": subset}), encoding="ascii")
        out = str(tmp_path / "baseline.json")
        code, _, _ = run_cli(
            ["train-baseline", "--clean", world.data_flags[1],
             "--embeddings", world.embeddings, "--labels", str(catalog),
             "--out", out, "--epochs", "4", "--hidden", "16"],
            capsys,
        )
        assert code == 0
        assert load_baseline_bundle(out).label_order == subset

    def test_empty_label_catalog(self, capsys, tmp_path, world):
        catalog = tmp_path / "labels.json"
        catalog.write_text(json.dumps({"labels": []}), encoding="ascii")
        code, _, err = run_cli(
            ["train-baseline", "--clean", world.data_flags[1],
             "--embeddings", world.embeddings, "--labels", str(catalog),
             "--out", str(tmp_path / "b.json")],
            capsys,
        )
        assert code == 2 and "non-empty label list" in err

    def test_label_catalog_of_non_strings(self, capsys, tmp_path, world):
        catalog = tmp_path / "labels.json"
        catalog.write_text(json.dumps({"labels": ["tag00", "tag01", 3]}), encoding="ascii")
        code, _, err = run_cli(
            ["zsl", *world.data_flags, "--labels", str(catalog), *FAST_GRID], capsys
        )
        assert code == 2 and f"data error: {catalog}: expected a non-empty label list" in err

    def test_numeric_label_in_clean_jsonl(self, capsys, tmp_path, world):
        clean = tmp_path / "clean.jsonl"
        lines = Path(world.data_flags[1]).read_text(encoding="ascii").splitlines(keepends=True)
        record = json.loads(lines[1])
        record["labels"] = [7]
        clean.write_text(lines[0] + json.dumps(record) + "\n" + "".join(lines[2:]), "ascii")
        flags = list(world.data_flags)
        flags[1] = str(clean)
        code, _, err = run_cli(
            ["train-baseline", *flags, "--out", str(tmp_path / "b.json")], capsys
        )
        assert code == 2 and f"data error: {clean}:2: bad clean-tweet record" in err


class TestGridCommands:
    def test_zsl_grid(self, capsys, tmp_path, world):
        out = tmp_path / "results.json"
        code, stdout, _ = run_cli(
            ["zsl", *world.data_flags, *FAST_GRID, "--out", str(out)], capsys
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert result["experiment"] == "zsl"
        assert len(result["cells"]) == 3
        assert {c["method"] for c in result["cells"]} == {"conse", "eszsl", "dem"}
        assert result["invocation"]["gamma"] == 1.0
        lines = stdout.splitlines()
        assert json.loads(lines[0])["experiment"] == "zsl"
        assert any(line.split()[:2] == ["split", "method"] for line in lines)

    def test_fsl_grid_with_fixed_shots(self, capsys, tmp_path, world):
        out = tmp_path / "results.json"
        code, _, _ = run_cli(
            ["fsl", *world.data_flags, *FAST_GRID, "--methods", "conse",
             "--shots", "3", "--out", str(out)],
            capsys,
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert result["experiment"] == "fsl"
        for cell in result["cells"]:
            assert cell["setting"] == "fsl"
            assert cell["n_test"] == 24 - 2 * 3

    def test_save_bundle_then_recommend(self, capsys, tmp_path, world):
        bundle_path = str(tmp_path / "bundle.json")
        code, _, _ = run_cli(
            ["zsl", *world.data_flags, *FAST_GRID, "--methods", "eszsl",
             "--save-bundle", bundle_path],
            capsys,
        )
        assert code == 0
        bundle = load_zsl_bundle(bundle_path)
        assert bundle.method == "eszsl"
        assert len(bundle.split.unseen) == 2

        target = bundle.split.unseen[0]
        tokens = next(
            toks for toks, label in world.corpus.dataset.examples if label == target
        )
        code, stdout, _ = run_cli(
            ["recommend", "--bundle", bundle_path, "--text", " ".join(tokens),
             "--k", "2"],
            capsys,
        )
        assert code == 0
        lines = stdout.splitlines()
        ranked = json.loads(lines[0])
        assert len(ranked) == 2
        assert {r["label"] for r in ranked} == set(bundle.split.unseen)
        scores = [r["score"] for r in ranked]
        assert scores == sorted(scores, reverse=True)
        assert lines[1].startswith("1. ")
        assert lines[2].startswith("2. ")

    def test_recommend_candidates_override(self, capsys, tmp_path, world):
        bundle_path = str(tmp_path / "bundle.json")
        run_cli(
            ["zsl", *world.data_flags, *FAST_GRID, "--methods", "conse",
             "--save-bundle", bundle_path],
            capsys,
        )
        names = sorted(world.corpus.dataset.label_set)[:3]
        code, stdout, _ = run_cli(
            ["recommend", "--bundle", bundle_path, "--text", "whatever words",
             "--candidates", ",".join(names), "--k", "3"],
            capsys,
        )
        assert code == 0
        ranked = json.loads(stdout.splitlines()[0])
        assert {r["label"] for r in ranked} == set(names)

    def test_recommend_warns_when_text_is_out_of_vocabulary(
        self, capsys, tmp_path, world
    ):
        bundle_path = str(tmp_path / "bundle.json")
        run_cli(
            ["zsl", *world.data_flags, *FAST_GRID, "--methods", "conse",
             "--save-bundle", bundle_path],
            capsys,
        )
        code, _, err = run_cli(
            ["recommend", "--bundle", bundle_path, "--text", "zzzz qqqq", "--k", "1"],
            capsys,
        )
        assert code == 0
        assert "no token of the text is in the model vocabulary" in err

    def test_save_bundle_needs_single_cell(self, capsys, tmp_path, world):
        out = tmp_path / "results.json"
        code, _, err = run_cli(
            ["zsl", *world.data_flags, *FAST_GRID, "--methods", "conse",
             "--seeds", "0,1", "--save-bundle", str(tmp_path / "b.json"),
             "--out", str(out)],
            capsys,
        )
        assert code == 1 and "exactly one split, one method, and one seed" in err
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["zsl", "fsl"])
    def test_save_bundle_fits_once(self, capsys, tmp_path, world, monkeypatch, setting):
        # count calls through every tagrec module that holds the function,
        # so a second fitting path cannot hide behind its own import
        calls = {"train_baseline": 0, "dem_fit": 0}
        for original in (evaluate.train_baseline, zsl.dem_fit):
            def counted(*args, _original=original, **kwargs):
                calls[_original.__name__] += 1
                return _original(*args, **kwargs)

            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "tagrec":
                    for key, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, key, counted)
        bundle_path = tmp_path / "bundle.json"
        code, _, _ = run_cli(
            [setting, *world.data_flags, *FAST_GRID, "--methods", "dem",
             "--save-bundle", str(bundle_path)],
            capsys,
        )
        assert code == 0 and bundle_path.exists()
        assert calls == {"train_baseline": 1, "dem_fit": 1}

    def test_bad_split_syntax(self, capsys, world):
        code, _, err = run_cli(
            ["zsl", *world.data_flags, "--splits", "4-2"], capsys
        )
        assert code == 1 and "seen/unseen pair" in err

    def test_unknown_method(self, capsys, world):
        code, _, err = run_cli(
            ["zsl", *world.data_flags, *FAST_GRID, "--methods", "sae"], capsys
        )
        assert code == 1 and "unknown method" in err

    def test_recommend_missing_bundle(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["recommend", "--bundle", str(tmp_path / "nope.json"), "--text", "hi"],
            capsys,
        )
        assert code == 2 and "data error" in err


def _drop_last(rows):
    return [row[:-1] for row in rows]


def _head(obj, **fields):
    return {**obj, "head": {**obj["head"], **fields}}


def _classifier(obj, layer, **fields):
    classifier = obj["classifier"]
    return {**obj, "classifier": {**classifier, layer: {**classifier[layer], **fields}}}


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


# each corruption of a saved bundle: (method, name, edit of its bytes or its JSON)
BAD_BUNDLES = [
    ("eszsl", "truncated", lambda raw: raw[: len(raw) // 2]),
    ("eszsl", "not-json", lambda raw: b"model bundle\n"),
    ("eszsl", "non-ascii", lambda raw: raw.replace(b'"kind"', b'"k\xe9nd"', 1)),
    ("eszsl", "no-classifier", lambda obj: _without(obj, "classifier")),
    ("eszsl", "no-head", lambda obj: _without(obj, "head")),
    ("conse", "vectors-columns", lambda obj: _head(obj, vectors=_drop_last(obj["head"]["vectors"]))),
    ("conse", "vectors-rows", lambda obj: _head(obj, vectors=obj["head"]["vectors"][:-1])),
    ("eszsl", "W-rows", lambda obj: _head(obj, W=obj["head"]["W"][:-1])),
    ("eszsl", "W-columns", lambda obj: _head(obj, W=_drop_last(obj["head"]["W"]))),
    ("dem", "weights", lambda obj: _head(obj, weights=_drop_last(obj["head"]["weights"]))),
    ("dem", "bias", lambda obj: _head(obj, bias=obj["head"]["bias"][:-1])),
    ("dem", "classifier-output", lambda obj: _classifier(
        obj, "output", weights=_drop_last(obj["classifier"]["output"]["weights"]))),
    ("conse", "hidden-activation", lambda obj: _classifier(obj, "hidden", activation="softmax")),
    ("eszsl", "output-activation", lambda obj: _classifier(obj, "output", activation="tanh")),
    ("dem", "hidden-bias", lambda obj: _classifier(
        obj, "hidden", bias=obj["classifier"]["hidden"]["bias"][:-1])),
    ("eszsl", "split-ints", lambda obj: {
        **obj, "split": {**obj["split"], "unseen": list(range(len(obj["split"]["unseen"])))}}),
]


@pytest.fixture(scope="module")
def saved_bundles(world, tmp_path_factory):
    root = tmp_path_factory.mktemp("bundles")
    paths = {}
    for method in ("conse", "eszsl", "dem"):
        paths[method] = root / f"{method}.json"
        assert main(["zsl", *world.data_flags, *FAST_GRID, "--methods", method,
                     "--save-bundle", str(paths[method])]) == 0
    return paths


class TestBadBundles:
    @pytest.mark.parametrize("method,name,edit", BAD_BUNDLES, ids=[b[1] for b in BAD_BUNDLES])
    def test_bad_bundle_is_a_data_error_naming_the_file(
        self, capsys, tmp_path, saved_bundles, method, name, edit
    ):
        raw = saved_bundles[method].read_bytes()
        path = tmp_path / "bad.json"
        if name in ("truncated", "not-json", "non-ascii"):
            path.write_bytes(edit(raw))
        else:
            path.write_text(json.dumps(edit(json.loads(raw))), encoding="ascii")
        capsys.readouterr()
        code, _, err = run_cli(["recommend", "--bundle", str(path), "--text", "hi"], capsys)
        assert code == 2 and f"data error: {path}" in err

    def test_unchanged_bundle_loads(self, capsys, saved_bundles):
        capsys.readouterr()
        for path in saved_bundles.values():
            code, _, _ = run_cli(["recommend", "--bundle", str(path), "--text", "hi"], capsys)
            assert code == 0


class TestUndecodableInput:
    def test_clean_jsonl(self, capsys, tmp_path, world):
        clean = tmp_path / "clean.jsonl"
        lines = Path(world.data_flags[1]).read_bytes().splitlines(keepends=True)
        clean.write_bytes(lines[0] + lines[1].replace(b"tok", b"t\xe9k", 1) + b"".join(lines[2:]))
        flags = list(world.data_flags)
        flags[1] = str(clean)
        code, _, err = run_cli(
            ["train-baseline", *flags, "--out", str(tmp_path / "baseline.json")], capsys
        )
        assert code == 2 and f"data error: {clean}:2: not ASCII text" in err

    def test_label_catalog(self, capsys, tmp_path, world):
        catalog = tmp_path / "labels.json"
        catalog.write_bytes(b'{"labels":\n ["caf\xe9"]}\n')
        code, _, err = run_cli(
            ["train-baseline", *world.data_flags, "--labels", str(catalog),
             "--out", str(tmp_path / "baseline.json")],
            capsys,
        )
        assert code == 2 and f"data error: {catalog}:2: not ASCII text" in err

    def test_label_catalog_that_is_not_json(self, capsys, tmp_path, world):
        catalog = tmp_path / "labels.json"
        catalog.write_text('{"labels":\n ["a",', encoding="ascii")
        code, _, err = run_cli(
            ["train-baseline", *world.data_flags, "--labels", str(catalog),
             "--out", str(tmp_path / "baseline.json")],
            capsys,
        )
        assert code == 2 and f"data error: {catalog}:2: invalid JSON" in err

    def test_raw_jsonl(self, capsys, tmp_path):
        raw = tmp_path / "raw.jsonl"
        lines = Path(RAW).read_bytes().splitlines(keepends=True)
        raw.write_bytes(lines[0] + lines[1].replace(b'"text": "', b'"text": "caf\xe9 ', 1)
                        + b"".join(lines[2:]))
        argv = ["ingest", "--input", str(raw), "--out", str(tmp_path / "clean.jsonl")]
        code, _, err = run_cli(argv, capsys)
        assert code == 2 and f"data error: {raw}:2: not UTF-8 text" in err

    def test_config_file(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"ingest":\n {"top_n": "\xff"}}\n')
        code, _, err = run_cli(["--config", str(config)] + ingest_argv(tmp_path), capsys)
        assert code == 2 and f"data error: {config}:2: not UTF-8 text" in err


class TestEvalCommand:
    def test_cross_validates(self, capsys, tmp_path, world):
        out = tmp_path / "cv.json"
        code, stdout, _ = run_cli(
            ["eval", *world.data_flags, "--folds", "3", "--epochs", "6",
             "--hidden", "32", "--out", str(out)],
            capsys,
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert result["experiment"] == "supervised"
        assert len(result["cells"]) == 3
        assert set(result["mean"]) == {"accuracy", "precision", "recall", "f1"}
        assert result["invocation"]["folds"] == 3
        assert any(
            line.split() == ["fold", "accuracy", "precision", "recall", "f1"]
            for line in stdout.splitlines()
        )

    def test_invalid_averaging_choice(self, capsys, world):
        code, _, err = run_cli(
            ["eval", *world.data_flags, "--averaging", "weighted"], capsys
        )
        assert code == 1 and "error:" in err


class TestExitCodeMapping:
    def test_numerical_errors_exit_three(self, capsys, monkeypatch):
        def boom(cfg):
            raise NumericalError("loss diverged")

        monkeypatch.setitem(cli._COMMANDS, "eval", boom)
        code, _, err = run_cli(
            ["eval", "--clean", "x", "--embeddings", "y"], capsys
        )
        assert code == 3
        assert "numerical error: loss diverged" in err


@pytest.mark.parametrize(
    "script", sorted(p.name for p in (REPO / "scripts").glob("*.py"))
)
def test_script_help(script):
    proc = run_script(script, "--help")
    assert proc.returncode == 0, proc.stderr


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True, text=True, env=env,
    )


@pytest.mark.parametrize(
    "script, args, experiment, n_cells",
    [
        ("run_zero_shot_benchmark.py",
         ["--labels", "4", "--tweets-per-label", "10", "--splits", "3/1", "--seeds", "0",
          "--methods", "conse, eszsl,dem", "--ks", "1", "--epochs", "2", "--dem-epochs", "2"],
         "zsl", 3),
        ("run_supervised_cv.py",
         ["--labels", "3", "--tweets-per-label", "10", "--folds", "2", "--epochs", "2",
          "--hidden", "16"],
         "supervised", 2),
    ],
    ids=["zero-shot", "supervised-cv"],
)
def test_script_writes_its_results(tmp_path, script, args, experiment, n_cells):
    out = tmp_path / "result.json"
    proc = run_script(script, *args, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text(encoding="ascii"))
    assert result["experiment"] == experiment
    assert len(result["cells"]) == n_cells
