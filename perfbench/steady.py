"""Run-to-run steadiness of the benchmark.

    python3 perfbench/steady.py run --workload grid --runs 10 [--seed0 0] [--out grid_a.json]
    python3 perfbench/steady.py compare grid_a.json grid_b.json

`run` starts `run.py --trace 0` once per seed (seed0, seed0 + 1, ...),
one process at a time, and prints each metric's median, quartiles, range and
spread: the distance between the quartiles as a share of the median,
with the quartiles taken as `statistics.quantiles(values, n=4)` gives
them. `compare` checks two such sets against the bounds in
BENCHMARK.json: every run's outputs correct, each spread (set-up time
excepted) within its bound, the second median no worse than the first
by more than the bound, and the same share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]} | {"_seconds": spec["run_seconds"]}


def quartiles(values) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def one_run(workload: str, seed: int, seconds) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"seed {seed}: run.py exited {done.returncode}\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    probe = [float(word.split("=")[1]) for line in lines for word in line.split() if word.startswith("probe_ms=")]
    unscaled = [json.loads(line.split("unscaled: ", 1)[1]) for line in lines if "unscaled: " in line]
    samples = [json.loads(line.split("samples=", 1)[1]) for line in lines if "samples=" in line]
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "probe_ms": probe[0] if probe else None,
            "unscaled": unscaled[0] if unscaled else {}, "samples": samples[0] if samples else {},
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(runs: list[dict], spec: dict) -> None:
    names = sorted({name for r in runs for name in r["metrics"]})
    print(f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'min':>12s} {'max':>12s} {'spread':>7s} {'bound':>6s}")
    for name in names:
        values = [r["metrics"][name] for r in runs if name in r["metrics"]]
        if len(values) < 2:
            continue
        q1, median, q3 = quartiles(values)
        share = (q3 - q1) / median if median else float("nan")
        bound = spec.get(name, {}).get("bound")
        print(f"{name:42s} {median:12.6g} {q1:12.6g} {q3:12.6g} {min(values):12.6g} {max(values):12.6g} "
              f"{share:7.3f} {bound if bound is not None else '-':>6}")
    counts = {name: sorted({r["samples"].get(name) for r in runs}) for name in sorted(runs[0]["samples"])}
    print(f"timed calls per run: {counts}")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"runs {len(runs)}, all correct: {all(r['correct'] for r in runs)}, failed shares: {shares}")


def compare(first: dict, second: dict, spec: dict) -> bool:
    ok = True
    for label, runs in (("first", first["runs"]), ("second", second["runs"])):
        wrong = [r["seed"] for r in runs if not r["correct"]]
        if wrong:
            print(f"FAIL {label} set: outputs wrong in the runs with seeds {wrong}")
            ok = False
    for name, metric in spec.items():
        if name.startswith("_") or "bound" not in metric:
            continue
        a = [r["metrics"][name] for r in first["runs"] if name in r["metrics"]]
        b = [r["metrics"][name] for r in second["runs"] if name in r["metrics"]]
        if len(a) < 2 or len(b) < 2:
            continue
        (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a), quartiles(b)
        worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
        spreads = ((qa3 - qa1) / ma, (qb3 - qb1) / mb)
        bad = worse > metric["bound"] or (name != "setup_s" and max(spreads) > metric["bound"])
        ok = ok and not bad
        print(f"{'FAIL' if bad else 'ok  '} {name:20s} medians {ma:.6g} -> {mb:.6g} (worse by {worse:+.3f}), "
              f"spreads {spreads[0]:.3f} / {spreads[1]:.3f}, bound {metric['bound']}")
    shares = [{r["failed"] / r["attempted"] for r in s["runs"]} for s in (first, second)]
    if shares[0] != shares[1]:
        print(f"FAIL failed shares differ: {shares}")
        ok = False
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=0)
    p.add_argument("--seconds", type=float, help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--out", help="write the runs to this JSON file")
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.command == "compare":
        with open(args.first) as fa, open(args.second) as fb:
            return 0 if compare(json.load(fa), json.load(fb), spec) else 1
    seconds = args.seconds if args.seconds is not None else spec["_seconds"]
    runs = []
    for i in range(args.runs):
        runs.append(one_run(args.workload, args.seed0 + i, seconds))
        print(f"seed {args.seed0 + i}: probe_ms={runs[-1]['probe_ms']} " + json.dumps(runs[-1]["metrics"]),
              flush=True)
    summarize(runs, spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
