"""Load once, rank many.

Set-up writes an embedding file of `n_rows` x 150 with `n_candidates`
candidate hashtags and fits one bundle per method with `tagrec zsl
--save-bundle`, then loads each bundle once in process. A round ranks
TEXTS_PER_ROUND texts with every method through `clean_text` ->
`extract_hashtags` -> `zsl.recommend`, interleaved, and starts one
`python -m tagrec.cli recommend` process with the DEM bundle, waited
for. The warm-up starts one process per method. Every ranking is
compared with `checks.RankOracle`."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import checks
import gen
from tagrec import cli, ingest, zsl

METHODS = ("conse", "eszsl", "dem")
TEXTS_PER_ROUND = 15
PROCESS_TIMEOUT_S = 120


class Serve:
    def __init__(self, run, n_rows: int, n_candidates: int, n_tied_pairs: int):
        self.run = run
        self.path = lambda name: os.path.join(run.workdir, name)
        self.shape = {"n_rows": n_rows, "n_candidates": n_candidates, "n_tied_pairs": n_tied_pairs}

    def setup(self) -> None:
        seed = self.run.seed
        world = gen.make_serve_world(seed, **self.shape)
        self.world = world
        gen.write_embedding_file(world, self.path("embeddings.txt"))
        with open(self.path("clean.jsonl"), "w", encoding="ascii") as fh:
            for i, (tokens, label) in enumerate(world.train_tweets):
                fh.write(json.dumps({"id": str(i), "tokens": tokens, "labels": [label]}) + "\n")
        with open(self.path("labels.json"), "w", encoding="ascii") as fh:
            json.dump({"labels": world.train_labels}, fh)
        os.mkdir(self.path("bundles"))
        self.bundle_paths = {m: self.path(os.path.join("bundles", f"{m}.json")) for m in METHODS}
        for method, bundle_path in self.bundle_paths.items():
            self.run.cli(None, cli.main, [
                "zsl", "--clean", self.path("clean.jsonl"), "--embeddings", self.path("embeddings.txt"),
                "--labels", self.path("labels.json"), "--splits", "8/4", "--methods", method,
                "--seeds", str(seed), "--ks", "1,2,4", "--epochs", "3", "--dem-epochs", "3",
                "--save-bundle", bundle_path,
            ])
        self.bundle_bytes = sum(
            os.path.getsize(os.path.join(self.path("bundles"), name))
            for name in os.listdir(self.path("bundles"))
        )
        self.bundles = {m: self.run.call(None, zsl.load_zsl_bundle, p) for m, p in self.bundle_paths.items()}
        self.stopwords = ingest.default_stopwords()
        index = {token: i for i, token in enumerate(world.tokens)}
        self.oracles = {}
        for method, bundle_path in self.bundle_paths.items():
            with open(bundle_path, encoding="ascii") as fh:
                self.oracles[method] = checks.RankOracle(json.load(fh), index, world.ints, world.candidates,
                                                         divisor=gen.VALUE_DIVISOR)
        self.candidates = world.candidates
        self.env = dict(os.environ)
        self.cold_argv = [sys.executable, "-m", "tagrec.cli", "recommend", "--k", str(len(self.candidates)),
                          "--candidates", ",".join(self.candidates)]

    def _rank(self, method: str, text: str):
        body, _ = ingest.extract_hashtags(ingest.clean_text(text, self.stopwords))
        return zsl.recommend(self.bundles[method], body, self.candidates, len(self.candidates))

    def _cold_start(self, method: str, text: str):
        done = subprocess.run(
            self.cold_argv + ["--bundle", self.bundle_paths[method], "--text", text],
            env=self.env, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S, cwd=self.run.workdir,
        )
        if done.returncode != 0:
            raise RuntimeError(f"recommend exited {done.returncode}: {done.stderr[-500:]}")
        return [(item["label"], item["score"]) for item in json.loads(done.stdout.splitlines()[0])]

    def _expected(self, method, text):
        return self.oracles[method].rank(text.split())

    def _rank_and_check(self, metric, method, text):
        prediction = self.run.call(metric, self._rank, method, text)
        if prediction is not None:
            self.run.check(checks.ranking_problems(prediction.ranked, self._expected(method, text),
                                                   f"{method} in process"))

    def _cold_and_check(self, metric, method, text):
        ranked = self.run.call(metric, self._cold_start, method, text)
        if ranked is not None:
            self.run.check(checks.ranking_problems(ranked, self._expected(method, text), f"{method} process"))

    def warm_up(self) -> None:
        for text in self.world.texts[:3]:
            for method in METHODS:
                self._rank_and_check(None, method, text)
        for k, method in enumerate(METHODS):
            self._cold_and_check(None, method, self.world.texts[k])

    def round(self, index: int) -> None:
        texts = self.world.texts
        for j in range(TEXTS_PER_ROUND):
            text = texts[(index * TEXTS_PER_ROUND + j) % len(texts)]
            for method in METHODS:
                self._rank_and_check(f"rank_{method}_ms", method, text)
        self._cold_and_check("cold_start_s", "dem", texts[index % len(texts)])
        if self.run.tracer is not None:
            self.run.call(None, self._import_time)

    def _import_time(self) -> bool:
        """Time a bare `import tagrec.cli` inside a fresh process."""
        code = "import time; t = time.perf_counter(); import tagrec.cli; print(time.perf_counter() - t)"
        done = subprocess.run([sys.executable, "-c", code], env=self.env, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S, check=True)
        self.run.samples["cli.import_s"].append(float(done.stdout))
        return True

    def end_to_end(self) -> dict:
        # DEM ranking multiplies its 1024 x 150 mapper by every candidate;
        # its median moves by up to a fifth between processes with the
        # memory layout, so it is reported per layer only
        metrics = {f"rank_{m}_ms": (1e3 * self.run.median(f"rank_{m}_ms"), "ms") for m in ("conse", "eszsl")}
        metrics["cold_start_s"] = (self.run.median("cold_start_s"), "s")
        metrics["bundle_bytes"] = (self.bundle_bytes, "bytes")
        return metrics

    def per_layer(self, table) -> dict:
        if not self.run.samples.get("cli.import_s"):
            return {}
        return {"cli.import_s": (self.run.median("cli.import_s"), "s")}
