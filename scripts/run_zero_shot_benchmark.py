#!/usr/bin/env python3
"""Zero-shot / few-shot hashtag-ranking benchmark on a synthetic corpus.

Builds a clustered-topic corpus with known geometry, trains the
supervised feature extractor on the seen labels, then scores the three
rankers (probability-weighted label combination, closed-form bilinear
compatibility, learned attribute-to-feature mapper) on held-out labels.

The defaults reproduce the repository's headline configuration:
12 labels, 100 tweets each, an 8/4 seen/unseen split averaged over
five label draws. Expect roughly a minute of wall time.

    python3 scripts/run_zero_shot_benchmark.py
    python3 scripts/run_zero_shot_benchmark.py --setting fsl --shots 10
    python3 scripts/run_zero_shot_benchmark.py --splits 8/4,6/6 --out results.json
"""

import argparse
import time

from tagrec.cli import parse_list, parse_pair
from tagrec.errors import write_json
from tagrec.evaluate import ZslExperimentConfig, format_zsl_table, run_zsl_experiment
from tagrec.supervised import TrainSpec
from tagrec.synthetic import make_clustered_corpus
from tagrec.zsl import METHODS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--labels", type=int, default=12, help="number of hashtags")
    ap.add_argument("--tweets-per-label", type=int, default=100)
    ap.add_argument("--corpus-seed", type=int, default=0)
    ap.add_argument("--splits", default="8/4", help="seen/unseen sizes, e.g. 8/4,6/6")
    ap.add_argument("--seeds", default="0,1,2,3,4", help="label-draw seeds")
    ap.add_argument("--methods", default=",".join(METHODS))
    ap.add_argument("--setting", choices=("zsl", "fsl"), default="zsl")
    ap.add_argument("--shots", type=int, default=10,
                    help="labeled examples revealed per unseen label (fsl only)")
    ap.add_argument("--ks", default="1,2", help="hit@K cutoffs")
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--epochs", type=int, default=30, help="classifier epochs")
    ap.add_argument("--dem-epochs", type=int, default=50, help="mapper epochs")
    ap.add_argument("--out", help="write the full result JSON here")
    args = ap.parse_args()

    start = time.perf_counter()
    corpus = make_clustered_corpus(
        n_labels=args.labels,
        tweets_per_label=args.tweets_per_label,
        seed=args.corpus_seed,
    )
    built = time.perf_counter()
    print(
        f"corpus: {len(corpus.dataset.examples)} tweets over "
        f"{len(corpus.dataset.label_set)} labels ({built - start:.1f}s)"
    )

    shots = args.shots if args.setting == "fsl" else 0
    config = ZslExperimentConfig(
        splits=parse_list(args.splits, parse_pair),
        methods=tuple(parse_list(args.methods)),
        setting=args.setting,
        seeds=tuple(parse_list(args.seeds, int)),
        ks=tuple(parse_list(args.ks, int)),
        gamma=args.gamma,
        shots_min=shots,
        shots_max=shots,
        train=TrainSpec(epochs=args.epochs),
        dem_train=TrainSpec(epochs=args.dem_epochs),
    )
    result = run_zsl_experiment(corpus.dataset, corpus.vocab, corpus.emb, config)
    print(f"grid: {len(result['cells'])} cells ({time.perf_counter() - built:.1f}s)")
    print()
    print(format_zsl_table(result))

    if args.out:
        write_json(args.out, result)
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
