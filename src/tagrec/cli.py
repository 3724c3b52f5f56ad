"""Command-line entry point.

Subcommands cover the whole pipeline: ingest raw tweets, train word
embeddings, train the supervised baseline, run the zero-shot and
few-shot grids, cross-validate the baseline, and recommend hashtags
for a single text.

Every option can come from three places, in priority order: the
command line, a JSON config file ({"zsl": {...}, "ingest": {...}},
selected by --config or the TAGREC_CONFIG environment variable), and
the built-in default. The fully resolved configuration is echoed into
every artifact a command writes.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NamedTuple

from .embedding import SgnsConfig, build_vocab, load_embeddings, save_embeddings, train_sgns
from .errors import DataError, NumericalError, UsageError, not_text, read_json, write_json
from .evaluate import (
    SupervisedExperimentConfig,
    ZslExperimentConfig,
    format_supervised_table,
    format_zsl_table,
    run_supervised_experiment,
    zsl_cells,
    zsl_result,
)
from .ingest import (
    clean_text,
    corpus_from_clean,
    default_stopwords,
    extract_hashtags,
    filter_corpus,
    is_str_list,
    load_stopwords,
    materialize_dataset,
    minimal_tokens,
    normalize_raw,
    parse_raw_record,
    read_clean_jsonl,
    read_raw_jsonl,
    select_top_labels,
    write_clean_jsonl,
)
from .supervised import TrainSpec, save_baseline_bundle, train_baseline
from .zsl import load_zsl_bundle, recommend, save_zsl_bundle

CONFIG_ENV_VAR = "TAGREC_CONFIG"


class Option(NamedTuple):
    """One option of a subcommand. `default` applies when neither the
    command line nor the config file gives a value; `required` options
    must end up with one from either."""

    flags: tuple[str, ...]
    dest: str
    type: type
    choices: tuple[str, ...] | None
    default: object
    required: bool
    help: str | None


def _opt(*flags, type=str, choices=None, default=None, required=False, help=None) -> Option:
    dest = flags[0].removeprefix("--").replace("-", "_")
    return Option(flags, dest, type, choices, default, required, help)


_CATALOG = [
    _opt("--top-n", type=int, default=50, help="label catalog size"),
    _opt("--min-tweets", type=int, default=200, help="minimum tweets per label"),
]
_DATASET = [
    _opt("--clean", required=True, help="cleaned JSONL from ingest"),
    _opt("--embeddings", required=True, help="word2vec-format embedding file"),
    _opt("--labels", help="label catalog JSON (default: derive with --top-n)"),
    *_CATALOG,
]
_TRAIN = [
    _opt("--epochs", type=int, default=50),
    _opt("--batch-size", type=int, default=32),
    _opt("--lr", type=float, default=0.001),
    _opt("--hidden", type=int, default=1024),
]
_GRID = [
    *_DATASET,
    _opt("--splits", default="40/10,30/20,25/25",
         help="comma-separated seen/unseen sizes, e.g. 40/10,30/20"),
    _opt("--methods", default="conse,eszsl,dem", help="comma-separated subset of conse,eszsl,dem"),
    _opt("--seeds", default="0,1,2,3,4", help="comma-separated seeds"),
    _opt("--ks", default="1,2,5", help="comma-separated hit@K cutoffs"),
    _opt("--gamma", type=float, default=1.0, help="bilinear-model regularization strength"),
    _opt("--conse-t", type=int, help="labels combined per prediction"),
    *_TRAIN,
    _opt("--dem-epochs", type=int, default=50),
    _opt("--dem-batch-size", type=int, default=32),
    _opt("--dem-lr", type=float, default=0.001),
    _opt("--out", help="also write results JSON here"),
    _opt("--save-bundle",
         help="save the grid's fitted ranker bundle (single split, method, seed)"),
]
_STOPWORDS = _opt("--stopwords", help="stopword file (default: bundled list)")

# subcommand -> (help, options); flags, config-file keys, and defaults
# all come from here
COMMANDS: dict[str, tuple[str, list[Option]]] = {
    "ingest": ("clean a raw tweet JSONL file", [
        _opt("--input", "--in", required=True, help="raw tweet JSONL"),
        _opt("--out", required=True, help="cleaned JSONL destination"),
        _STOPWORDS,
        *_CATALOG,
        _opt("--labels-out", help="label catalog destination"),
        _opt("--report-out", help="drop report destination"),
        _opt("--emb-corpus",
             help="also write a minimally cleaned text corpus for embedding training"),
    ]),
    "train-embeddings": ("train skip-gram embeddings", [
        _opt("--corpus", required=True, help="text file, one sentence per line"),
        _opt("--out", required=True, help="embedding destination (word2vec text format)"),
        _opt("--dim", type=int, default=150),
        _opt("--window", type=int, default=5),
        _opt("--negatives", type=int, default=5),
        _opt("--epochs", type=int, default=5),
        _opt("--lr", type=float, default=0.025),
        _opt("--min-count", type=int, default=1),
        _opt("--seed", type=int, default=0),
        _opt("--subsample", type=float, help="frequent-token subsampling threshold"),
    ]),
    "train-baseline": ("train the supervised classifier", [
        *_DATASET,
        _opt("--out", required=True, help="model bundle destination"),
        _opt("--seed", type=int, default=0),
        *_TRAIN,
    ]),
    "zsl": ("run the zsl evaluation grid", _GRID),
    "fsl": ("run the fsl evaluation grid", [
        *_GRID,
        _opt("--shots", type=int, help="fixed shots per unseen label"),
        _opt("--shots-min", type=int, default=5),
        _opt("--shots-max", type=int, default=10),
    ]),
    "eval": ("cross-validate the supervised baseline", [
        *_DATASET,
        _opt("--folds", type=int, default=5),
        _opt("--seed", type=int, default=0),
        _opt("--averaging", choices=("micro", "macro"), default="micro"),
        *_TRAIN,
        _opt("--out", help="also write results JSON here"),
    ]),
    "recommend": ("rank candidate hashtags for one text", [
        _opt("--bundle", required=True, help="ranker bundle from zsl/fsl --save-bundle"),
        _opt("--text", required=True, help="the text to tag"),
        _opt("--k", type=int, default=5),
        _opt("--candidates", help="comma-separated candidate labels"),
        _STOPWORDS,
    ]),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="tagrec", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--config",
        help=f"JSON config file keyed by command name (default: ${CONFIG_ENV_VAR})",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, (help_text, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for o in options:
            p.add_argument(*o.flags, dest=o.dest, type=o.type, choices=o.choices, help=o.help)
    return parser


def _load_config_file(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path is None:
        return {}
    obj = read_json(path, "utf-8")
    if not isinstance(obj, dict):
        raise DataError(f"config file {path}: expected an object keyed by command")
    return obj


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge CLI flags over config-file values over defaults."""
    command = args.command
    section = _load_config_file(args.config).get(command, {})
    if not isinstance(section, dict):
        raise DataError(f"config section {command!r} must be an object")
    resolved = {}
    for o in COMMANDS[command][1]:
        value = getattr(args, o.dest)
        if value is None:
            value = section.get(o.dest, o.default)
        if o.required and value is None:
            raise UsageError(f"{o.flags[0]} is required for {command}")
        resolved[o.dest] = value
    return resolved


def parse_pair_list(value) -> list[tuple[int, int]]:
    items = value.split(",") if isinstance(value, str) else list(value)
    pairs = []
    for item in items:
        if isinstance(item, str):
            parts = item.strip().split("/")
            if len(parts) != 2:
                raise UsageError(f"expected seen/unseen pair, got {item!r}")
            item = parts
        try:
            a, b = int(item[0]), int(item[1])
        except (ValueError, IndexError) as exc:
            raise UsageError(f"expected seen/unseen pair, got {item!r}") from exc
        pairs.append((a, b))
    if not pairs:
        raise UsageError("at least one split is required")
    return pairs


def parse_int_list(value) -> list[int]:
    items = value.split(",") if isinstance(value, str) else list(value)
    try:
        result = [int(str(item).strip()) for item in items if str(item).strip()]
    except ValueError as exc:
        raise UsageError(f"expected integers, got {value!r}") from exc
    if not result:
        raise UsageError("empty integer list")
    return result


def parse_str_list(value) -> list[str]:
    items = value.split(",") if isinstance(value, str) else list(value)
    result = [str(item).strip() for item in items if str(item).strip()]
    if not result:
        raise UsageError("empty list")
    return result


def _derived_path(out: str, suffix: str) -> str:
    root, _ = os.path.splitext(out)
    return f"{root}.{suffix}"


def _load_dataset(cfg):
    corpus = corpus_from_clean(read_clean_jsonl(cfg["clean"]))
    if cfg["labels"]:
        catalog = read_json(cfg["labels"], "ascii")
        labels = catalog.get("labels") if isinstance(catalog, dict) else catalog
        if not (labels and is_str_list(labels)):
            raise DataError(f"{cfg['labels']}: expected a non-empty label list")
    else:
        labels = select_top_labels(corpus, cfg["top_n"], cfg["min_tweets"])
        if not labels:
            raise DataError(
                f"no labels with >= {cfg['min_tweets']} tweets; lower --min-tweets"
            )
    return materialize_dataset(corpus, labels)


def _stopword_set(path: str | None) -> set[str]:
    return load_stopwords(path) if path else default_stopwords()


def cmd_ingest(cfg: dict) -> int:
    records = read_raw_jsonl(cfg["input"])
    if not records:
        raise DataError(f"{cfg['input']}: no input records")
    stopwords = _stopword_set(cfg["stopwords"])
    corpus = filter_corpus(records, stopwords)
    write_clean_jsonl(corpus.tweets, cfg["out"])
    labels = select_top_labels(corpus, cfg["top_n"], cfg["min_tweets"])
    labels_path = cfg["labels_out"] or _derived_path(cfg["out"], "labels.json")
    report_path = cfg["report_out"] or _derived_path(cfg["out"], "report.json")
    write_json(
        labels_path,
        {
            "config": cfg,
            "labels": labels,
            "counts": {label: corpus.label_counts[label] for label in labels},
        },
    )
    write_json(
        report_path,
        {
            "config": cfg,
            "n_input": corpus.n_input,
            "n_kept": len(corpus.tweets),
            "drops": corpus.drop_counts,
            "n_labels": len(labels),
        },
    )
    if cfg["emb_corpus"]:
        with open(cfg["emb_corpus"], "w", encoding="utf-8") as fh:
            for obj in records:
                try:
                    record = parse_raw_record(obj)
                    if record.lang != "en":
                        continue
                    tokens = minimal_tokens(normalize_raw(record))
                except DataError:
                    continue
                if tokens:
                    fh.write(" ".join(tokens) + "\n")
    drops = " ".join(f"{k}={v}" for k, v in sorted(corpus.drop_counts.items()))
    print(f"kept {len(corpus.tweets)} of {corpus.n_input} tweets -> {cfg['out']}")
    print(f"drops: {drops}")
    print(f"labels: {len(labels)} -> {labels_path}")
    return 0


def cmd_train_embeddings(cfg: dict) -> int:
    try:
        with open(cfg["corpus"], "r", encoding="utf-8") as fh:
            sentences = [line.split() for line in fh if line.split()]
    except UnicodeDecodeError as exc:
        raise not_text(cfg["corpus"], exc) from exc
    vocab = build_vocab(sentences, min_count=cfg["min_count"])
    config = SgnsConfig(
        dim=cfg["dim"],
        window=cfg["window"],
        negatives=cfg["negatives"],
        epochs=cfg["epochs"],
        learning_rate=cfg["lr"],
        min_count=cfg["min_count"],
        seed=cfg["seed"],
        subsample_threshold=cfg["subsample"],
    )
    emb, losses = train_sgns(sentences, vocab, config)
    save_embeddings(emb, vocab, cfg["out"])
    print(
        json.dumps(
            {
                "command": "train-embeddings",
                "config": cfg,
                "vocab_size": len(vocab),
                "epoch_losses": losses,
            },
            sort_keys=True,
        )
    )
    return 0


def _train_spec(cfg: dict, seed: int = 0) -> TrainSpec:
    return TrainSpec(
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        seed=seed,
        learning_rate=cfg["lr"],
        hidden_units=cfg["hidden"],
    )


def cmd_train_baseline(cfg: dict) -> int:
    dataset = _load_dataset(cfg)
    vocab, emb = load_embeddings(cfg["embeddings"])
    model = train_baseline(dataset, vocab, emb, _train_spec(cfg, seed=cfg["seed"]))
    save_baseline_bundle(model, cfg["out"], cfg["embeddings"], config=cfg)
    print(
        json.dumps(
            {
                "command": "train-baseline",
                "config": cfg,
                "n_examples": len(dataset.examples),
                "n_labels": len(dataset.label_set),
                "final_loss": model.loss_history[-1],
            },
            sort_keys=True,
        )
    )
    return 0


def _grid_config(cfg: dict, setting: str) -> ZslExperimentConfig:
    if setting == "fsl":
        if cfg["shots"] is not None:
            shots_min = shots_max = cfg["shots"]
        else:
            shots_min, shots_max = cfg["shots_min"], cfg["shots_max"]
    else:
        shots_min, shots_max = 0, 0
    return ZslExperimentConfig(
        splits=parse_pair_list(cfg["splits"]),
        methods=tuple(parse_str_list(cfg["methods"])),
        setting=setting,
        seeds=tuple(parse_int_list(cfg["seeds"])),
        ks=tuple(parse_int_list(cfg["ks"])),
        gamma=cfg["gamma"],
        conse_T=cfg["conse_t"],
        shots_min=shots_min,
        shots_max=shots_max,
        train=_train_spec(cfg),
        dem_train=TrainSpec(
            epochs=cfg["dem_epochs"],
            batch_size=cfg["dem_batch_size"],
            learning_rate=cfg["dem_lr"],
        ),
    )


def _cmd_grid(cfg: dict, setting: str) -> int:
    zconfig = _grid_config(cfg, setting)
    if cfg["save_bundle"] and (
        len(zconfig.splits) != 1 or len(zconfig.methods) != 1 or len(zconfig.seeds) != 1
    ):
        raise UsageError("--save-bundle needs exactly one split, one method, and one seed")
    dataset = _load_dataset(cfg)
    vocab, emb = load_embeddings(cfg["embeddings"])
    cells = []
    for cell, bundle in zsl_cells(dataset, vocab, emb, zconfig):
        cells.append(cell)
    result = zsl_result(zconfig, cells)
    result["invocation"] = cfg
    print(json.dumps(result, sort_keys=True))
    print()
    print(format_zsl_table(result))
    if cfg["out"]:
        write_json(cfg["out"], result)
    if cfg["save_bundle"]:
        save_zsl_bundle(bundle, cfg["save_bundle"], cfg["embeddings"], config=cfg)
    return 0


def cmd_eval(cfg: dict) -> int:
    dataset = _load_dataset(cfg)
    vocab, emb = load_embeddings(cfg["embeddings"])
    config = SupervisedExperimentConfig(
        folds=cfg["folds"],
        seed=cfg["seed"],
        averaging=cfg["averaging"],
        train=_train_spec(cfg, seed=cfg["seed"]),
    )
    result = run_supervised_experiment(dataset, vocab, emb, config)
    result["invocation"] = cfg
    print(json.dumps(result, sort_keys=True))
    print()
    print(format_supervised_table(result))
    if cfg["out"]:
        write_json(cfg["out"], result)
    return 0


def cmd_recommend(cfg: dict) -> int:
    bundle = load_zsl_bundle(cfg["bundle"])
    if cfg["candidates"]:
        candidates = parse_str_list(cfg["candidates"])
    elif bundle.split is not None:
        candidates = bundle.split.unseen
    else:
        raise UsageError(
            "no candidates: pass --candidates or use a bundle with a recorded split"
        )
    body, _ = extract_hashtags(clean_text(cfg["text"], _stopword_set(cfg["stopwords"])))
    prediction = recommend(bundle, body, candidates, cfg["k"])
    print(
        json.dumps(
            [{"label": label, "score": score} for label, score in prediction.ranked],
            sort_keys=True,
        )
    )
    for rank, (label, score) in enumerate(prediction.ranked, start=1):
        print(f"{rank}. {label}  {score:.6f}")
    if prediction.all_oov:
        print("note: no token of the text is in the model vocabulary", file=sys.stderr)
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "train-embeddings": cmd_train_embeddings,
    "train-baseline": cmd_train_baseline,
    "zsl": lambda cfg: _cmd_grid(cfg, "zsl"),
    "fsl": lambda cfg: _cmd_grid(cfg, "fsl"),
    "eval": cmd_eval,
    "recommend": cmd_recommend,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (see --help)")
        return _COMMANDS[args.command](resolve_config(args))
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
