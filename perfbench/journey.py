"""One workload: the whole life of tagrec's models, at one serving scale.

Every workload runs the same three parts, round-robin within a round,
so that every end-to-end metric is measured on every workload:

- `pipeline.Pipeline`: ingest -> train-embeddings -> train-baseline ->
  zsl --save-bundle on a seeded raw corpus, through `tagrec.cli.main`;
- `grid.Grid`: one zero-shot cell and one 5-fold cross validation
  through `tagrec.evaluate`;
- `serve.Serve`: bundles loaded once, texts ranked in process, and a
  fresh `python -m tagrec.cli recommend` process.

The workloads differ in what serving faces (SCALES): `few` ranks 40
candidates held in a 5,000-row embedding, `many` 400 candidates in a
20,000-row one. The pipeline and grid inputs are the same on both.
"""

from __future__ import annotations

from grid import Grid
from pipeline import Pipeline
from serve import Serve

SCALES = {
    "few": {"n_rows": 5_000, "n_candidates": 40, "n_tied_pairs": 4},
    "many": {"n_rows": 20_000, "n_candidates": 400, "n_tied_pairs": 8},
}


class Journey:
    min_rounds = Grid.min_rounds

    def __init__(self, run, scale: str):
        self.parts = [Pipeline(run), Grid(run), Serve(run, **SCALES[scale])]

    def setup(self) -> None:
        for part in self.parts:
            part.setup()

    def warm_up(self) -> None:
        for part in self.parts:
            part.warm_up()

    def round(self, index: int) -> None:
        for part in self.parts:
            part.round(index)

    def end_to_end(self) -> dict:
        return {name: value for part in self.parts for name, value in part.end_to_end().items()}

    def per_layer(self, table) -> dict:
        return {name: value for part in self.parts for name, value in part.per_layer(table).items()}
