"""End-to-end coverage of the command-line interface: argument and
config-file resolution, every subcommand on real files, artifact
determinism, and the exit-code contract (0 ok, 1 usage, 2 data,
3 numerical)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tagrec import cli, embedding, evaluate, zsl
from tagrec.cli import main
from tagrec.embedding import TWIN_SUFFIX, file_sha256, load_embeddings, save_embeddings
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

    @pytest.mark.parametrize(
        "key, value",
        [("dim", "5"), ("dim", True), ("dim", 1.5), ("dim", [1]), ("lr", None)],
        ids=["dim-string", "dim-bool", "dim-float", "dim-list", "lr-null"],
    )
    def test_value_of_the_wrong_type_is_a_data_error(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"train-embeddings": {key: value}}), encoding="ascii")
        code, _, err = run_cli(
            ["--config", str(cfg), "train-embeddings",
             "--corpus", str(tmp_path / "corpus.txt"), "--out", str(tmp_path / "emb.txt")],
            capsys,
        )
        assert code == 2
        assert f"data error: {cfg}: train-embeddings.{key} must be" in err

    @pytest.mark.parametrize(
        "command, key, value",
        [("zsl", "splits", 5), ("zsl", "methods", 5), ("zsl", "ks", [1, "x"]),
         ("eval", "averaging", "bogus")],
        ids=["splits-int", "methods-int", "ks-string-item", "averaging-choice"],
    )
    def test_str_list_and_choice_values_are_checked(self, capsys, tmp_path, command, key, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({command: {key: value}}), encoding="ascii")
        code, _, err = run_cli(
            ["--config", str(cfg), command, "--clean", "c.jsonl", "--embeddings", "e.txt"], capsys
        )
        assert code == 2
        assert f"data error: {cfg}: {command}.{key} must be" in err

    @pytest.mark.parametrize(
        "key, value, flag",
        [("ks", "1,x", "1,x"), ("splits", ["4-2"], "4-2"), ("seeds", "", ""),
         ("methods", ["eszsl", "eszsl"], "eszsl,eszsl")],
        ids=["ks-bad-int", "splits-bad-pair", "seeds-empty", "methods-repeated"],
    )
    def test_malformed_list_content_is_a_data_error_from_the_file(
        self, capsys, tmp_path, key, value, flag
    ):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"zsl": {key: value}}), encoding="ascii")
        data = ["--clean", "c.jsonl", "--embeddings", "e.txt"]
        code, _, err = run_cli(["--config", str(cfg), "zsl", *data], capsys)
        assert code == 2
        assert f"data error: {cfg}: zsl.{key}" in err
        code, _, err = run_cli(["zsl", *data, f"--{key}", flag], capsys)
        assert code == 1 and err.startswith("error: ")

    def test_empty_split_items_are_skipped(self, tmp_path):
        args = cli.build_parser().parse_args(
            ["zsl", "--clean", "c.jsonl", "--embeddings", "e.txt", "--splits", "40/10,"]
        )
        assert cli._grid_config(cli.resolve_config(args), "zsl").splits == [(40, 10)]

    def test_lists_of_the_item_type_are_accepted(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"zsl": {
            "splits": ["4/2", "3/3"], "methods": ["conse", "dem"], "seeds": [0, 1], "ks": [1, 2],
        }}), encoding="ascii")
        args = cli.build_parser().parse_args(
            ["--config", str(cfg), "zsl", "--clean", "c.jsonl", "--embeddings", "e.txt"]
        )
        grid = cli._grid_config(cli.resolve_config(args), "zsl")
        assert (grid.splits, grid.methods, grid.seeds, grid.ks) == (
            [(4, 2), (3, 3)], ("conse", "dem"), (0, 1), (1, 2))

    def test_integer_for_a_float_and_null_for_an_unset_default_are_accepted(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps({"train-embeddings": {"lr": 1, "subsample": None, "dim": 7}}), encoding="ascii"
        )
        args = cli.build_parser().parse_args(
            ["--config", str(cfg), "train-embeddings", "--corpus", "c.txt", "--out", "e.txt"]
        )
        resolved = cli.resolve_config(args)
        assert (resolved["lr"], resolved["subsample"], resolved["dim"]) == (1, None, 7)

    def test_section_must_be_object(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"ingest": 5}), encoding="ascii")
        code, _, err = run_cli(
            ["--config", str(cfg)] + ingest_argv(tmp_path), capsys
        )
        assert code == 2 and f"{cfg}: config section 'ingest' must be an object" in err


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
class TestCommandTable:
    """Every command of the one table builds, and every option's default
    satisfies the type, choices and item converter the table declares."""

    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert f"usage: tagrec {command}" in capsys.readouterr().out

    def test_defaults_pass_as_config_file_values(self, tmp_path, command):
        options = cli.COMMANDS[command][1]
        required = [arg for o in options if o.required for arg in (o.flags[0], "x")]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {command: {o.dest: o.default for o in options if not o.required}}
        ), encoding="ascii")
        def resolve(*argv):
            return cli.resolve_config(cli.build_parser().parse_args(argv))

        assert resolve("--config", str(cfg), command, *required) == resolve(command, *required)


class TestIngestCommand:
    def test_exit_zero_and_progress_lines(self, capsys, tmp_path):
        code, out, _ = run_cli(ingest_argv(tmp_path, min_tweets=3, top_n=2), capsys)
        assert code == 0
        assert "kept 15 of 25 tweets" in out
        assert (
            "drops: duplicate=2 malformed=2 no_hashtags=1 non_english=2 too_short=3"
            in out
        )

    def test_zero_top_n_fails_before_writing_anything(self, capsys, tmp_path):
        emb_corpus = tmp_path / "emb_corpus.txt"
        code, _, err = run_cli(ingest_argv(tmp_path, top_n=0, emb_corpus=emb_corpus), capsys)
        assert code == 1
        assert "n must be >= 1" in err
        assert list(tmp_path.iterdir()) == []

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

    def test_underscored_embedding_value_is_a_data_error(self, capsys, tmp_path, world):
        # float() reads "1_0" as 10.0; the word2vec reader takes plain
        # ASCII decimals only
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("2 2\nok 0.5 0.25\ntok 1_0 0.25\n", encoding="ascii")
        flags = list(world.data_flags)
        flags[flags.index("--embeddings") + 1] = str(vectors)
        code, _, err = run_cli(
            ["train-baseline", *flags, "--out", str(tmp_path / "baseline.json")], capsys
        )
        assert code == 2 and f"data error: {vectors}:3: non-numeric field" in err

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

    def test_relative_embedding_path_is_recorded_from_the_bundle(
        self, capsys, tmp_path, world, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "models").mkdir()
        flags = [os.path.relpath(f) if f == world.embeddings else f for f in world.data_flags]
        code, _, _ = run_cli(
            ["train-baseline", *flags, "--out", "models/b.json", "--epochs", "2", "--hidden", "8"],
            capsys,
        )
        assert code == 0
        saved = json.loads((tmp_path / "models" / "b.json").read_text(encoding="ascii"))
        assert saved["embedding"]["path"] == os.path.relpath(world.embeddings, "models")
        assert load_baseline_bundle("models/b.json").vocab.tokens == world.corpus.vocab.tokens

    @pytest.mark.parametrize("command", ["train-baseline", "eval"])
    @pytest.mark.parametrize("lr", ["0", "-0.001"])
    def test_non_positive_learning_rate_is_a_usage_error(self, capsys, tmp_path, command, lr):
        """Refused before any input is read: the named files do not exist."""
        out = tmp_path / "b.json"
        code, _, err = run_cli(
            [command, "--clean", str(tmp_path / "no.jsonl"), "--embeddings",
             str(tmp_path / "no.txt"), "--out", str(out), "--lr", lr], capsys
        )
        assert code == 1 and "learning_rate must be > 0" in err
        assert not out.exists()

    def test_non_regular_embedding_file_is_a_data_error(self, capsys, tmp_path, world):
        flags = ["/dev/null" if f == world.embeddings else f for f in world.data_flags]
        code, _, err = run_cli(
            ["train-baseline", *flags, "--out", str(tmp_path / "b.json")], capsys
        )
        assert code == 2
        assert "data error: /dev/null: an embedding must be a regular file" in err

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

    @pytest.mark.parametrize("command", ["zsl", "eval"])
    def test_label_catalog_that_repeats_a_label(self, capsys, tmp_path, world, command):
        catalog = tmp_path / "labels.json"
        catalog.write_text(json.dumps(["tag00", "tag00", "tag01"]), encoding="ascii")
        code, _, err = run_cli([command, *world.data_flags, "--labels", str(catalog)], capsys)
        assert code == 2 and f"data error: {catalog}: label 'tag00' is repeated" in err

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

    @pytest.mark.parametrize("method", ["conse", "eszsl", "dem"])
    def test_non_finite_label_vectors_fail_the_fit(self, capsys, tmp_path, world, method):
        # every head refuses them, so no bundle is saved that loading refuses
        emb, flags = _own_embedding(tmp_path, world)
        lines = emb.read_text().splitlines(keepends=True)
        emb.write_text("".join(
            "{} nan {}".format(*line.split(" ", 2)[::2]) if line.startswith("#") else line
            for line in lines))
        bundle = tmp_path / "bundle.json"
        code, _, err = run_cli(
            ["zsl", *flags, *FAST_GRID, "--methods", method, "--save-bundle", str(bundle)],
            capsys,
        )
        assert code == 3 and "numerical error: non-finite" in err
        assert not bundle.exists()

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

    def test_methods_default_lists_every_head(self):
        [methods] = [o for o in cli.COMMANDS["zsl"][1] if o.dest == "methods"]
        assert methods.default == ",".join(zsl.METHODS) == "conse,eszsl,dem"
        assert evaluate.METHODS is zsl.METHODS

    @pytest.mark.parametrize(
        "flags, message",
        [(["--gamma", "0"], "gamma must be > 0"), (["--conse-t", "0"], "conse_T must be >= 1"),
         (["--ks", "1,0"], "K must be >= 1"), (["--lr", "0"], "learning_rate must be > 0"),
         (["--dem-lr", "-0.1"], "learning_rate must be > 0")],
        ids=["gamma", "conse-t", "ks", "lr", "dem-lr"],
    )
    def test_bad_value_is_rejected_before_training(
        self, capsys, world, monkeypatch, flags, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("trained before the bad value was rejected")

        monkeypatch.setattr(evaluate, "train_baseline", refuse)
        code, _, err = run_cli(["zsl", *world.data_flags, *FAST_GRID, *flags], capsys)
        assert code == 1 and message in err

    def test_relative_embedding_path_is_recorded_from_the_bundle(
        self, capsys, tmp_path, world, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data").mkdir()
        (tmp_path / "models").mkdir()
        (tmp_path / "data" / "v.txt").write_bytes(Path(world.embeddings).read_bytes())
        flags = ["data/v.txt" if f == world.embeddings else f for f in world.data_flags]
        code, _, _ = run_cli(
            ["zsl", *flags, *FAST_GRID, "--methods", "dem", "--save-bundle", "models/r.json"],
            capsys,
        )
        assert code == 0
        saved = json.loads((tmp_path / "models" / "r.json").read_text(encoding="ascii"))
        assert saved["classifier"]["embedding"]["path"] == os.path.join("..", "data", "v.txt")
        code, _, err = run_cli(["recommend", "--bundle", "models/r.json", "--text", "hi"], capsys)
        assert code == 0, err

    def test_recommend_missing_bundle(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["recommend", "--bundle", str(tmp_path / "nope.json"), "--text", "hi"],
            capsys,
        )
        assert code == 2 and "data error" in err


def _own_embedding(tmp_path, world):
    """The world's data flags with its embedding file copied alone into
    a directory of its own."""
    directory = tmp_path / "emb"
    directory.mkdir()
    path = directory / "emb.txt"
    path.write_bytes(Path(world.embeddings).read_bytes())
    flags = list(world.data_flags)
    flags[flags.index("--embeddings") + 1] = str(path)
    return path, flags


def _refuse_text_parse(monkeypatch):
    def refuse(path):
        raise AssertionError(f"parsed the text of {path}")

    monkeypatch.setattr(embedding, "_parse_word2vec", refuse)


class TestEmbeddingTwin:
    """A command that writes an artifact naming an embedding file keeps
    its binary twin; a twin never changes a result."""

    ARTIFACT_WRITERS = {
        "train-baseline": ["train-baseline", "--epochs", "2", "--hidden", "8"],
        "zsl": ["zsl", *FAST_GRID, "--methods", "dem"],
        "fsl": ["fsl", *FAST_GRID, "--methods", "eszsl", "--shots", "3"],
    }

    @pytest.mark.parametrize("command", sorted(ARTIFACT_WRITERS))
    def test_artifacts_are_the_same_with_the_twin(self, capsys, tmp_path, world, monkeypatch,
                                                  command):
        emb, flags = _own_embedding(tmp_path, world)
        name, *options = self.ARTIFACT_WRITERS[command]
        written = [tmp_path / "out.json"]
        argv = [name, *flags, *options, "--out", str(written[0])]
        if command != "train-baseline":
            written.append(tmp_path / "bundle.json")
            argv += ["--save-bundle", str(written[1])]
        assert run_cli(argv, capsys)[0] == 0
        twin_name = f"emb.txt{TWIN_SUFFIX}"
        assert sorted(p.name for p in emb.parent.iterdir()) == ["emb.txt", twin_name]
        first = [p.read_bytes() for p in written]
        _refuse_text_parse(monkeypatch)
        assert run_cli(argv, capsys)[0] == 0
        assert [p.read_bytes() for p in written] == first

    def test_train_embeddings_twin_holds_the_text(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("red apple sweet\ngreen pear caf\u00e9\n" * 4, encoding="utf-8")
        out = tmp_path / "emb" / "emb.txt"
        out.parent.mkdir()
        argv = ["train-embeddings", "--corpus", str(corpus), "--out", str(out),
                "--dim", "8", "--window", "2", "--epochs", "2"]
        assert run_cli(argv, capsys)[0] == 0
        twin = Path(f"{out}{TWIN_SUFFIX}")
        text_vocab, text_vectors = embedding._parse_word2vec(out)
        twin_vocab, twin_vectors = embedding._read_twin(str(twin), file_sha256(out))
        assert twin_vocab.tokens == text_vocab.tokens
        assert twin_vectors.tobytes() == text_vectors.tobytes()
        first = twin.read_bytes()
        assert run_cli(argv, capsys)[0] == 0
        assert twin.read_bytes() == first

    @pytest.mark.parametrize("with_twin", [False, True], ids=["no-twin", "twin"])
    def test_read_only_commands_write_nothing(self, capsys, tmp_path, world, with_twin):
        emb, flags = _own_embedding(tmp_path, world)
        bundle = tmp_path / "bundle.json"
        assert main(["zsl", *flags, *FAST_GRID, "--methods", "conse",
                     "--save-bundle", str(bundle)]) == 0
        twin = Path(f"{emb}{TWIN_SUFFIX}")
        if not with_twin:
            twin.unlink()
        listing = sorted((p.name, p.stat().st_mtime_ns) for p in emb.parent.iterdir())
        for argv in (
            ["recommend", "--bundle", str(bundle), "--text", "hello world", "--k", "2"],
            ["eval", *flags, "--folds", "2", "--epochs", "1", "--hidden", "8"],
            ["zsl", *flags, *FAST_GRID, "--methods", "conse"],
        ):
            assert main(argv) == 0
            assert sorted((p.name, p.stat().st_mtime_ns) for p in emb.parent.iterdir()) == listing
        capsys.readouterr()

    def test_rankings_are_the_same_with_the_twin(self, capsys, tmp_path, world):
        emb, flags = _own_embedding(tmp_path, world)
        bundle = tmp_path / "bundle.json"
        assert main(["zsl", *flags, *FAST_GRID, "--methods", "dem",
                     "--save-bundle", str(bundle)]) == 0
        capsys.readouterr()
        argv = ["recommend", "--bundle", str(bundle), "--text", " ".join(
            world.corpus.dataset.examples[0][0]), "--k", "6",
            "--candidates", ",".join(sorted(world.corpus.dataset.label_set))]
        with_twin = run_cli(argv, capsys)
        Path(f"{emb}{TWIN_SUFFIX}").unlink()
        assert run_cli(argv, capsys) == with_twin

    @pytest.mark.parametrize("damage", ["truncated", "float32", "rows"])
    def test_damaged_twin_exits_2_naming_it(self, capsys, tmp_path, world, damage):
        emb, flags = _own_embedding(tmp_path, world)
        train = ["train-baseline", *flags, "--out", str(tmp_path / "b.json"),
                 "--epochs", "1", "--hidden", "4"]
        assert run_cli(train, capsys)[0] == 0
        twin = Path(f"{emb}{TWIN_SUFFIX}")
        if damage == "truncated":
            twin.write_bytes(twin.read_bytes()[: twin.stat().st_size // 2])
        else:
            vocab, vectors = load_embeddings(emb)
            with open(twin, "wb") as fh:
                np.save(fh, np.frombuffer(file_sha256(emb).encode("ascii"), dtype=np.uint8))
                np.save(fh, np.frombuffer("\n".join(vocab.tokens).encode("utf-8"), dtype=np.uint8))
                np.save(fh, vectors.astype(np.float32) if damage == "float32" else vectors[1:])
        code, _, err = run_cli(train, capsys)
        assert code == 2
        assert f"data error: {twin}: damaged embedding twin" in err and "delete it" in err

    def test_failed_replace_still_succeeds_without_a_twin(self, capsys, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("red apple sweet fruit\ngreen pear tart fruit\n", encoding="ascii")
        out = tmp_path / "emb" / "emb.txt"
        out.parent.mkdir()

        def refuse(src, dst):
            raise PermissionError(dst)

        monkeypatch.setattr(os, "replace", refuse)
        code, _, _ = run_cli(["train-embeddings", "--corpus", str(corpus), "--out", str(out),
                              "--dim", "4", "--window", "2", "--epochs", "1"], capsys)
        assert code == 0
        assert [p.name for p in out.parent.iterdir()] == ["emb.txt"]


def _drop_last(rows):
    return [row[:-1] for row in rows]


def _head(obj, **fields):
    return {**obj, "head": {**obj["head"], **fields}}


def _classifier(obj, layer, **fields):
    classifier = obj["classifier"]
    return {**obj, "classifier": {**classifier, layer: {**classifier[layer], **fields}}}


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


def _first(values, value):
    """values, a list of numbers or of rows of them, with its first number replaced."""
    if isinstance(values[0], list):
        return [_first(values[0], value), *values[1:]]
    return [value, *values[1:]]


def _as_1e999(obj):
    """obj's JSON text with every infinity spelled 1e999, which parses to one."""
    return json.dumps(obj).replace("Infinity", "1e999").encode("ascii")


# each corruption of a saved bundle: (method, name, edit of its bytes or its JSON,
# which returns the bundle's new bytes or its new JSON value)
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
    ("dem", "split-repeats", lambda obj: {
        **obj, "split": {**obj["split"], "unseen": obj["split"]["unseen"][:1] * 2}}),
    ("conse", "unknown-method", lambda obj: {**obj, "method": "mystery"}),
    ("conse", "vectors-nan", lambda obj: _head(
        obj, vectors=_first(obj["head"]["vectors"], math.nan))),
    ("dem", "bias-1e999", lambda obj: _as_1e999(_head(
        obj, bias=_first(obj["head"]["bias"], math.inf)))),
    ("eszsl", "output-bias-nan", lambda obj: _classifier(
        obj, "output", bias=_first(obj["classifier"]["output"]["bias"], math.nan))),
    ("conse", "T-float", lambda obj: _head(obj, T=1.7)),
    ("conse", "T-string", lambda obj: _head(obj, T="2")),
    ("conse", "T-bool", lambda obj: _head(obj, T=True)),
    ("eszsl", "seed-float", lambda obj: {**obj, "split": {**obj["split"], "seed": 1.5}}),
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
        if name not in ("truncated", "not-json", "non-ascii"):
            raw = json.loads(raw)
        edited = edit(raw)
        path.write_bytes(edited if isinstance(edited, bytes) else json.dumps(edited).encode())
        capsys.readouterr()
        code, _, err = run_cli(["recommend", "--bundle", str(path), "--text", "hi"], capsys)
        assert code == 2 and f"data error: {path}" in err

    def test_repeated_candidate_is_a_usage_error(self, capsys, saved_bundles):
        code, out, err = run_cli(["recommend", "--bundle", str(saved_bundles["conse"]),
                                  "--text", "hi", "--candidates", "tag00,tag00,tag01"], capsys)
        assert (code, out) == (1, "")
        assert "error: repeated list item 'tag00'" in err

    def test_unchanged_bundle_loads(self, capsys, saved_bundles):
        capsys.readouterr()
        for path in saved_bundles.values():
            code, _, _ = run_cli(["recommend", "--bundle", str(path), "--text", "hi"], capsys)
            assert code == 0


def _scipy_modules_after(code, *args):
    """The scipy modules loaded once `code` has run in a fresh Python."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    report = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    proc = subprocess.run([sys.executable, "-c", f"import json, sys\n{code}\n{report}", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportPath:
    """tagrec runs on NumPy alone. SciPy would load a second BLAS library
    beside NumPy's and cost a fresh process about 0.3 s of imports, so
    no command may import it."""

    def test_import_loads_no_scipy(self):
        assert _scipy_modules_after("import tagrec.cli") == []

    def test_recommend_loads_no_scipy(self, saved_bundles):
        code = "from tagrec.cli import main\nassert main(sys.argv[1:]) == 0"
        argv = ["recommend", "--bundle", str(saved_bundles["dem"]), "--text", "hi", "--k", "2"]
        assert _scipy_modules_after(code, *argv) == []

    @pytest.mark.parametrize("command", ["train-embeddings", "zsl-eszsl-bundle", "fsl", "eval"])
    def test_command_loads_no_scipy(self, world, tmp_path, command):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("".join(" ".join(tokens) + "\n"
                                  for tokens, _ in world.corpus.dataset.examples),
                          encoding="ascii")
        argv = {
            "train-embeddings": ["train-embeddings", "--corpus", str(corpus),
                                 "--out", str(tmp_path / "v.txt"), "--dim", "8",
                                 "--epochs", "1"],
            "zsl-eszsl-bundle": ["zsl", *world.data_flags, *FAST_GRID, "--methods", "eszsl",
                                 "--save-bundle", str(tmp_path / "b.json")],
            "fsl": ["fsl", *world.data_flags, *FAST_GRID, "--shots", "3",
                    "--out", str(tmp_path / "r.json")],
            "eval": ["eval", *world.data_flags, "--folds", "2", "--epochs", "2",
                     "--hidden", "8", "--out", str(tmp_path / "cv.json")],
        }[command]
        code = "from tagrec.cli import main\nassert main(sys.argv[1:]) == 0"
        assert _scipy_modules_after(code, *argv) == []


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


def test_every_json_artifact_is_its_canonical_stdlib_encoding(capsys, tmp_path, world,
                                                             saved_bundles):
    """Each JSON file a command writes holds exactly what
    json.dumps(value, sort_keys=True) plus a newline spells."""
    written = [tmp_path / name for name in
               ("labels.json", "report.json", "baseline.json", "zsl.json", "cv.json")]
    commands = [
        ingest_argv(tmp_path, min_tweets=3, labels_out=written[0], report_out=written[1]),
        ["train-baseline", *world.data_flags, "--out", str(written[2]),
         "--epochs", "6", "--hidden", "32"],
        ["zsl", *world.data_flags, *FAST_GRID, "--out", str(written[3])],
        ["eval", *world.data_flags, "--folds", "3", "--epochs", "6", "--hidden", "32",
         "--out", str(written[4])],
    ]
    for argv in commands:
        assert run_cli(argv, capsys)[0] == 0, argv
    for path in [*written, *saved_bundles.values()]:
        data = path.read_bytes()
        assert data == (json.dumps(json.loads(data), sort_keys=True) + "\n").encode(), path


class TestExitCodeMapping:
    def test_numerical_errors_exit_three(self, capsys, monkeypatch):
        def boom(cfg):
            raise NumericalError("loss diverged")

        help_text, options, _ = cli.COMMANDS["eval"]
        monkeypatch.setitem(cli.COMMANDS, "eval", (help_text, options, boom))
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


def run_python(*args, **kwargs):
    """A fresh Python run with args, the package's sources importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, **kwargs
    )


def run_script(script, *args, **kwargs):
    return run_python(str(REPO / "scripts" / script), *args, **kwargs)


def test_pipeline_demo_runs_from_a_relative_workdir(tmp_path):
    """README's first command: every artifact path is relative to the
    current directory, and recommend still finds the embedding file its
    bundle names."""
    proc = run_script("run_pipeline_demo.py", "--workdir", "demo_artifacts", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    bundle = json.loads((tmp_path / "demo_artifacts" / "bundle.json").read_text("ascii"))
    assert bundle["classifier"]["embedding"]["path"] == "vectors.txt"


@pytest.mark.parametrize("command", ["eval", "train-baseline"])
def test_fifo_embeddings_are_a_data_error_without_waiting(tmp_path, world, command):
    """Opening a FIFO waits for a writer, so the embedding path must be
    refused before the first open or hash; the timeout turns a hang into
    a failure."""
    fifo = tmp_path / "fifo.txt"
    os.mkfifo(fifo)
    flags = [str(fifo) if f == world.embeddings else f for f in world.data_flags]
    proc = run_python("-m", "tagrec.cli", command, *flags, "--out", str(tmp_path / "o.json"),
                      timeout=30)
    assert proc.returncode == 2
    assert f"data error: {fifo}: an embedding must be a regular file" in proc.stderr


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
