"""The paper's evaluation, called through `tagrec.evaluate`.

One zero-shot cell (8/4 split, one seed, all three methods, acceptance
06's epochs) on the clustered corpus, and a 5-fold cross validation of
the baseline on the separable corpus, per round. Both corpora are the
generators' shapes with fewer tweets per label (CLUSTERED_TWEETS,
SEPARABLE_TWEETS), so that a round fits beside the other parts of a
run; the run's seed picks the folds. The cells of a run cycle through
the fixed SPLIT_SEEDS, so `hit1_pct` is the same figure on every run
and guards quality: it moves only when the program's results move."""

from __future__ import annotations

import statistics

import checks
from tagrec import evaluate, synthetic
from tagrec.supervised import TrainSpec

SPLIT_SEEDS = (0, 1, 2)  # the first three of acceptance 06's seeds
CANDIDATES = 4
CLUSTERED_TWEETS, SEPARABLE_TWEETS = 25, 20  # per label; the defaults are 100 and 60
CV_EPOCHS = 20  # TrainSpec's default is 50


def zsl_config(split_seed: int, epochs: int = 30, dem_epochs: int = 50):
    return evaluate.ZslExperimentConfig(
        splits=[(8, CANDIDATES)],
        methods=evaluate.METHODS,
        seeds=(split_seed,),
        ks=tuple(range(1, CANDIDATES + 1)),
        train=TrainSpec(epochs=epochs),
        dem_train=TrainSpec(epochs=dem_epochs),
    )


class Grid:
    # every split seed runs once; the splits train on equally many examples
    min_rounds = len(SPLIT_SEEDS)

    def __init__(self, run):
        self.run = run
        self.cells: dict[int, list] = {}
        self.cv_result = None

    def setup(self) -> None:
        self.clustered = synthetic.make_clustered_corpus(tweets_per_label=CLUSTERED_TWEETS)
        self.separable = synthetic.make_separable_dataset(tweets_per_label=SEPARABLE_TWEETS)
        self.cv_config = evaluate.SupervisedExperimentConfig(seed=self.run.seed, train=TrainSpec(epochs=CV_EPOCHS))

    def _args(self, world):
        return world.dataset, world.vocab, world.emb

    def warm_up(self) -> None:
        """One epoch of each training: it loads every code path, and
        only the hit@K checks hold for so short a training."""
        result = self.run.call(None, evaluate.run_zsl_experiment, *self._args(self.clustered),
                               zsl_config(SPLIT_SEEDS[0], epochs=1, dem_epochs=1))
        if result is not None:
            for cell in result["cells"]:
                self.run.check(checks.hit_problems(cell["hit_at"], CANDIDATES))
        self.run.call(None, evaluate.run_supervised_experiment, *self._args(self.separable),
                      evaluate.SupervisedExperimentConfig(seed=self.run.seed, train=TrainSpec(epochs=1)))

    def round(self, index: int) -> None:
        split_seed = SPLIT_SEEDS[index % len(SPLIT_SEEDS)]
        result = self.run.call("zsl_cell_s", evaluate.run_zsl_experiment, *self._args(self.clustered),
                               zsl_config(split_seed))
        if result is not None:
            cells = result["cells"]
            for cell in cells:
                self.run.check(checks.hit_problems(cell["hit_at"], CANDIDATES))
            first = self.cells.setdefault(split_seed, cells)
            if first != cells:
                self.run.check([f"split seed {split_seed}: cells differ between repetitions"])
        cv = self.run.call("cv_s", evaluate.run_supervised_experiment, *self._args(self.separable),
                           self.cv_config)
        if cv is not None:
            if cv["mean"]["accuracy"] < 0.9:
                self.run.check([f"cross-validated accuracy {cv['mean']['accuracy']} below 0.9"])
            if self.cv_result is not None and cv != self.cv_result:
                self.run.check(["cross validation differs between repetitions"])
            self.cv_result = self.cv_result or cv

    def hit1_by_method(self) -> dict[str, float]:
        cells = [c for seed in SPLIT_SEEDS for c in self.cells.get(seed, [])]
        return {m: statistics.mean(c["hit_at"]["1"] for c in cells if c["method"] == m)
                for m in evaluate.METHODS}

    def end_to_end(self) -> dict:
        if len(self.cells) < len(SPLIT_SEEDS):
            self.run.check([f"only {len(self.cells)} of {len(SPLIT_SEEDS)} splits ran"])
            return {}
        hit1 = self.hit1_by_method()
        for method, value in hit1.items():
            if value < 50.0:
                self.run.check([f"{method} mean hit@1 {value:.1f}% below 50%"])
        return {
            "zsl_cell_s": (self.run.median("zsl_cell_s"), "s"),
            "cv_s": (self.run.median("cv_s"), "s"),
            "hit1_pct": (statistics.mean(hit1.values()), "%"),
        }

    def per_layer(self, table) -> dict:
        return {}
