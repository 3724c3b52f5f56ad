"""Run one benchmark workload against the tagrec sources in ../src.

    python3 perfbench/run.py --workload few|many --seed N --seconds S --trace 0|1

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics; with --trace 1 the run wraps tagrec's public
functions and reports per-layer metrics instead. Lines before it
record the BLAS thread setting, nproc and the BLAS build.
"""

from __future__ import annotations

import os
import sys
import time

START = time.perf_counter()
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# pinned before numpy loads, here and in every process the run starts
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("few", "many")  # the keys of journey.SCALES
# The machine's speed drifts by up to half in spells that outlast a run.
# Every reported time is therefore scaled by PROBE_REF_S over the median
# time of a fixed benchmark-owned probe timed between the rounds and
# between timed calls (harness.PROBE_EVERY_S): it
# reads in seconds at the speed where the probe takes PROBE_REF_S, its
# median on a quiet 2-core Xeon.
PROBE_REF_S = 0.0037
TIME_UNITS = ("s", "ms", "us")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="also write the trace's spans to this JSONL file")
    return parser.parse_args(argv)


def blas_build() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def per_layer_metrics(table) -> dict:
    """Per-layer figures; every workload does work in every layer, and
    one that did none would be left out."""
    from gen import DROP_REASONS

    rank_spans = ("zsl.conse_rank", "zsl.eszsl_rank", "zsl.dem_rank")

    def rows_per_s(t):
        spans = t.spans("embedding.load_embeddings")
        return sum(s.counts["rows"] for s in spans) / sum(s.duration for s in spans) if spans else None

    def candidates(t):
        """The most candidates one ranking call faced: serving's count,
        not the 4 or 5 of the zero-shot cells."""
        counts = [s.counts.get("candidates", 0) for name in rank_spans for s in t.spans(name) or []]
        return max(counts) if counts else None

    def serving_rank_us(t, name):
        """Median time of the calls that faced `candidates(t)`
        candidates: the serving side's, which moves `rank_*_ms`."""
        most = candidates(t)
        durations = [s.duration for s in t.spans(name) or [] if s.counts.get("candidates") == most]
        return 1e6 * statistics.median(durations) if durations else None

    spec = [
        ("ingest.read_raw_jsonl.s", "s", lambda t: t.total_s("ingest.read_raw_jsonl")),
        ("ingest.filter_corpus.s", "s", lambda t: t.total_s("ingest.filter_corpus")),
        ("ingest.records", "count", lambda t: t.per_call_count("ingest.filter_corpus", "records")),
        ("ingest.kept", "count", lambda t: t.per_call_count("ingest.filter_corpus", "kept")),
        *[
            (f"ingest.drops.{r}", "count", lambda t, r=r: t.per_call_count("ingest.filter_corpus", f"drops.{r}"))
            for r in DROP_REASONS
        ],
        ("ingest.clean_text.us", "us", lambda t: t.per_call_us("ingest.clean_text")),
        ("embedding.train_sgns.s", "s", lambda t: t.total_s("embedding.train_sgns")),
        ("embedding.save_embeddings.s", "s", lambda t: t.total_s("embedding.save_embeddings")),
        ("embedding.load_embeddings.s", "s", lambda t: t.total_s("embedding.load_embeddings")),
        ("embedding.load_embeddings.rows_per_s", "rows/s", rows_per_s),
        ("numeric.adam_step.calls", "count", lambda t: t.calls("numeric.adam_step")),
        ("numeric.adam_step.us", "us", lambda t: t.per_call_us("numeric.adam_step")),
        ("numeric.adam_step.s", "s", lambda t: t.total_s("numeric.adam_step")),
        ("numeric.spd_solve.s", "s", lambda t: t.total_s("numeric.spd_solve")),
        ("supervised.train_baseline.calls", "count", lambda t: t.calls("supervised.train_baseline")),
        ("supervised.train_baseline.self_s", "s", lambda t: t.self_s("supervised.train_baseline")),
        ("supervised.extract_features.us", "us", lambda t: t.per_call_us("supervised.extract_features")),
        ("supervised.extract_features_batch.s", "s", lambda t: t.total_s("supervised.extract_features_batch")),
        ("zsl.eszsl_fit.s", "s", lambda t: t.total_s("zsl.eszsl_fit")),
        ("zsl.dem_fit.self_s", "s", lambda t: t.self_s("zsl.dem_fit")),
        ("zsl.conse_rank.us", "us", lambda t: serving_rank_us(t, "zsl.conse_rank")),
        ("zsl.eszsl_rank.us", "us", lambda t: serving_rank_us(t, "zsl.eszsl_rank")),
        ("zsl.dem_rank.us", "us", lambda t: serving_rank_us(t, "zsl.dem_rank")),
        ("zsl.candidates", "count", candidates),
        ("zsl.attribute_matrix.us", "us", lambda t: serving_rank_us(t, "zsl.attribute_matrix")),
        ("zsl.recommend.p99_ms", "ms", lambda t: t.percentile_ms("zsl.recommend", 99)),
        ("zsl.load_zsl_bundle.self_s", "s", lambda t: t.self_s("zsl.load_zsl_bundle")),
        ("zsl.save_zsl_bundle.s", "s", lambda t: t.total_s("zsl.save_zsl_bundle")),
        ("evaluate.flat_hit_at_k.s", "s", lambda t: t.total_s("evaluate.flat_hit_at_k")),
        ("evaluate.run_zsl_experiment.self_s", "s", lambda t: t.self_s("evaluate.run_zsl_experiment")),
        ("evaluate.run_supervised_experiment.self_s", "s",
         lambda t: t.self_s("evaluate.run_supervised_experiment")),
        *[
            (f"cli.{stage}.self_s", "s", lambda t, stage=stage: t.self_s(f"cli.{stage}"))
            for stage in ("ingest", "train-embeddings", "train-baseline", "zsl")
        ],
    ]
    metrics = {}
    for name, unit, compute in spec:
        value = compute(table)
        if value is not None:
            metrics[name] = (value, unit)
    return metrics


def adam_problems(tracer) -> list[str]:
    """Adam steps taken must equal epochs x ceil(examples / batch size),
    summed over the training calls, in every phase of the run."""
    problems = []
    for phase in sorted({s.phase for s in tracer.spans}):
        spans = [s for s in tracer.spans if s.phase == phase]
        expected = sum(s.counts.get("expected_adam_steps", 0) for s in spans)
        taken = sum(1 for s in spans if s.name == "numeric.adam_step")
        if expected != taken:
            problems.append(f"{phase}: {taken} adam steps, expected {expected}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tagrec", "cli.py")):
        print(f"error: no tagrec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

    import harness
    from journey import Journey
    from tracer import SpanTable, Tracer

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    # a terminated run still removes its work directory and child process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = harness.Run(args.seed, workdir, tracer)
        workload = Journey(run, args.workload)
        workload.setup()
        setup_s = time.perf_counter() - START
        if tracer:
            tracer.phase = "warmup"
        workload.warm_up()
        rounds = 0
        measure_start = time.perf_counter()
        while rounds < workload.min_rounds or time.perf_counter() - measure_start < args.seconds:
            if tracer:
                tracer.phase = f"round{rounds:03d}"
            run.probe()
            workload.round(rounds)
            rounds += 1
        run.probe()
        end_to_end = workload.end_to_end()
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB"), **end_to_end}
    scale = PROBE_REF_S / run.median("probe")

    def scaled(raw: dict) -> dict:
        """Times multiplied by the speed scale, rates divided by it."""
        return {
            name: (value * scale if unit in TIME_UNITS else value / scale if unit.endswith("/s") else value, unit)
            for name, (value, unit) in raw.items()
        }

    if tracer:
        run.check(adam_problems(tracer))
        table = SpanTable(tracer)
        metrics = scaled({**per_layer_metrics(table), **workload.per_layer(table)})
        if args.spans:
            tracer.write(args.spans)
    else:
        metrics = scaled(end_to_end)
    env = " ".join(f"{k}={os.environ[k]}" for k in THREAD_ENV)
    print(f"# {env} nproc={len(os.sched_getaffinity(0))} blas={blas_build()}")
    print(f"# rounds={rounds} probe_ms={1e3 * run.median('probe'):.3f} scale={scale:.4f} samples="
          + json.dumps({k: len(v) for k, v in sorted(run.samples.items())}))
    print(f"# end-to-end{', traced' if tracer else ''}, unscaled: "
          + json.dumps({k: v for k, (v, _) in end_to_end.items()}))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
