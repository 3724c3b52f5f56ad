#!/usr/bin/env python3
"""Cross-validated supervised baseline on a linearly separable corpus.

Trains the mean-pool -> tanh -> softmax classifier under stratified
k-fold cross validation and prints per-fold accuracy, precision,
recall, and F1. With the defaults (4 well-separated labels, 60 tweets
each, 50 epochs) every fold should land at or near 100%.

    python3 scripts/run_supervised_cv.py
    python3 scripts/run_supervised_cv.py --labels 8 --noise 0.2 --averaging macro
"""

import argparse
import time

from tagrec.errors import write_json
from tagrec.evaluate import (
    SupervisedExperimentConfig,
    format_supervised_table,
    run_supervised_experiment,
)
from tagrec.supervised import TrainSpec
from tagrec.synthetic import make_separable_dataset


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--labels", type=int, default=4)
    ap.add_argument("--tweets-per-label", type=int, default=60)
    ap.add_argument("--noise", type=float, default=0.02,
                    help="token-vector noise inside each label cluster")
    ap.add_argument("--corpus-seed", type=int, default=0)
    ap.add_argument("--folds", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0, help="fold-assignment seed")
    ap.add_argument("--averaging", choices=("micro", "macro"), default="micro")
    ap.add_argument("--epochs", type=int, default=50)
    ap.add_argument("--hidden", type=int, default=1024)
    ap.add_argument("--lr", type=float, default=0.001)
    ap.add_argument("--out", help="write the full result JSON here")
    args = ap.parse_args()

    corpus = make_separable_dataset(
        n_labels=args.labels,
        tweets_per_label=args.tweets_per_label,
        noise=args.noise,
        seed=args.corpus_seed,
    )
    config = SupervisedExperimentConfig(
        folds=args.folds,
        seed=args.seed,
        averaging=args.averaging,
        train=TrainSpec(
            epochs=args.epochs, hidden_units=args.hidden, learning_rate=args.lr
        ),
    )
    start = time.perf_counter()
    result = run_supervised_experiment(corpus.dataset, corpus.vocab, corpus.emb, config)
    print(
        f"{args.folds}-fold cross validation over "
        f"{len(corpus.dataset.examples)} tweets ({time.perf_counter() - start:.1f}s)"
    )
    print()
    print(format_supervised_table(result))

    if args.out:
        write_json(args.out, result)
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
