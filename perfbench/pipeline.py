"""The offline path on raw tweets, in process through `tagrec.cli.main`:
ingest -> train-embeddings -> train-baseline -> zsl --save-bundle (one
split, one seed, DEM head)."""

from __future__ import annotations

import json
import math
import os

import checks
import gen
from tagrec import cli

# 800 kept tweets: the 17 major hashtags get about 45 each, the 3 minor
# ones 12 each, below --min-tweets
N_KEPT, N_PER_DROP = 800, 40
TOP_N, MIN_TWEETS = len(gen.HASHTAGS) - len(gen.MINOR_HASHTAGS), 25
# 50 dimensions: on so small a corpus the baseline learns more from them
# in 3 epochs (final loss about 2.0, against 2.2-2.4 with 150 dimensions
# and ln 17 = 2.83), and SGNS and the baseline take about half the time
WINDOW, SGNS_EPOCHS, SGNS_LR, SGNS_DIM = 2, 2, "0.1", 50
EPOCHS, DEM_EPOCHS = 3, 3
N_UNSEEN = 5
# cheap stages run more often per round than expensive ones
REPEATS = {"ingest_s": 4, "embed_s": 1, "baseline_s": 2, "bundle_s": 1}


class Pipeline:
    def __init__(self, run):
        self.run = run
        self.path = lambda name: os.path.join(run.workdir, name)
        self.reference: dict[str, str] = {}

    def setup(self) -> None:
        seed = str(self.run.seed)
        self.corpus = gen.make_raw_corpus(self.run.seed, n_kept=N_KEPT, n_per_drop=N_PER_DROP)
        gen.write_jsonl(self.corpus.records, self.path("raw.jsonl"))
        self.labels = self.corpus.catalog(TOP_N, MIN_TWEETS)
        self.pairs_per_epoch = sum(gen.skipgram_pair_count(len(s), WINDOW) for s in self.corpus.emb_sentences)
        p = self.path
        clean, labels, vectors = p("clean.jsonl"), p("clean.labels.json"), p("vectors.txt")
        self.stages = {
            "ingest_s": (
                ["ingest", "--input", p("raw.jsonl"), "--out", clean, "--top-n", str(TOP_N),
                 "--min-tweets", str(MIN_TWEETS), "--emb-corpus", p("emb_corpus.txt")],
                [clean, labels, p("clean.report.json"), p("emb_corpus.txt")],
            ),
            "embed_s": (
                ["train-embeddings", "--corpus", p("emb_corpus.txt"), "--out", vectors,
                 "--window", str(WINDOW), "--epochs", str(SGNS_EPOCHS), "--lr", SGNS_LR, "--dim", str(SGNS_DIM),
                 "--seed", seed],
                [vectors],
            ),
            "baseline_s": (
                ["train-baseline", "--clean", clean, "--embeddings", vectors, "--labels", labels,
                 "--out", p("baseline.json"), "--epochs", str(EPOCHS), "--seed", seed],
                [p("baseline.json")],
            ),
            "bundle_s": (
                ["zsl", "--clean", clean, "--embeddings", vectors, "--labels", labels,
                 "--splits", f"{len(self.labels) - N_UNSEEN}/{N_UNSEEN}", "--methods", "dem",
                 "--seeds", seed, "--ks", f"1,2,{N_UNSEEN}", "--epochs", str(EPOCHS),
                 "--dem-epochs", str(DEM_EPOCHS), "--out", p("results.json"),
                 "--save-bundle", p("bundle.json")],
                [p("results.json"), p("bundle.json")],
            ),
        }

    def _stage(self, metric: str, full_check: bool) -> None:
        argv, artifacts = self.stages[metric]
        out = self.run.cli(None if full_check else metric, cli.main, argv)
        if out is None:
            return
        self.run.check(checks.artifact_problems(self.reference, artifacts))
        if metric == "embed_s":
            losses = json.loads(out.splitlines()[0])["epoch_losses"]
            self.run.check(checks.loss_problems("sgns", losses))
        elif metric == "baseline_s":
            n_examples = json.loads(out.splitlines()[0])["n_examples"]
            if n_examples != self.corpus.n_examples(self.labels):
                self.run.check([f"baseline trained on {n_examples} examples, "
                                f"expected {self.corpus.n_examples(self.labels)}"])
        if not full_check:
            return
        # the first repetition's artifacts are read in full; later ones
        # must match them byte for byte
        if metric == "ingest_s":
            with open(artifacts[2]) as fh:
                report = json.load(fh)
            with open(artifacts[1]) as fh:
                catalog = json.load(fh)
            self.run.check(checks.ingest_problems(report, catalog, self.corpus, TOP_N, MIN_TWEETS))
        elif metric == "embed_s":
            self.run.check(checks.vocabulary_problems(artifacts[0], self.corpus.emb_tokens()))
        elif metric == "baseline_s":
            with open(artifacts[0]) as fh:
                losses = json.load(fh)["loss_history"]
            self.run.check(checks.loss_problems("baseline", losses, ceiling=math.log(len(self.labels))))
        elif metric == "bundle_s":
            with open(artifacts[0]) as fh:
                (cell,) = json.load(fh)["cells"]
            self.run.check(checks.hit_problems(cell["hit_at"], N_UNSEEN))

    def warm_up(self) -> None:
        for metric in self.stages:
            self._stage(metric, full_check=True)

    def round(self, index: int) -> None:
        for metric, repeats in REPEATS.items():
            for _ in range(repeats):
                self._stage(metric, full_check=False)

    def end_to_end(self) -> dict:
        return {metric: (self.run.median(metric), "s") for metric in self.stages}

    def per_layer(self, table) -> dict:
        seconds = table.total_s("embedding.train_sgns")
        calls = table.calls("embedding.train_sgns")
        if not seconds:
            return {}
        return {"embedding.sgns.pairs_per_s": (calls * SGNS_EPOCHS * self.pairs_per_epoch / seconds, "pairs/s")}
