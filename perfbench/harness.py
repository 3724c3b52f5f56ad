"""The measuring loop shared by the workloads.

A workload runs whole rounds of the same operations until the run's
seconds are spent (and at least `min_rounds` times). Every timed call
is preceded by `gc.collect()`, and each end-to-end figure is the median
of its calls, so a slow spell of the machine falls on every operation
of a round alike and never decides a figure alone.
"""

from __future__ import annotations

import gc
import io
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext, redirect_stdout

import numpy as np


# The probe also runs once after a timed call when this long has passed
# since it last ran, so that its samples spread evenly over the run's
# time, as the program's own time does.
PROBE_EVERY_S = 0.25


class ProgramFailed(Exception):
    """A program entry point reported failure (e.g. a non-zero exit code)."""


class Run:
    """State of one benchmark run: samples, operation counts and the
    problems the checks found."""

    def __init__(self, seed: int, workdir: str, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._probe_buffer = np.ones(16_384)
        self._next_probe = 0.0

    def call(self, metric, fn, *args, span=None):
        """Call the program once; time it into `metric` unless that is
        None. Returns the result, or None when the call failed."""
        self.attempted += 1
        context = self.tracer.span(span) if self.tracer and span else nullcontext()
        gc.collect()
        start = time.perf_counter()
        try:
            with context:
                result = fn(*args)
        except Exception:  # the run goes on; the failure is counted and shown
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        elapsed = time.perf_counter() - start
        if metric is not None:
            self.samples[metric].append(elapsed)
            if time.perf_counter() >= self._next_probe:
                self.probe(1)
                self._next_probe = time.perf_counter() + PROBE_EVERY_S
        return result

    def cli(self, metric, main, argv):
        """`tagrec.cli.main(argv)` with its printing captured; the
        capture is set up and read outside the timed region."""
        buffer = io.StringIO()

        def invoke():
            code = main(argv)
            if code != 0:
                raise ProgramFailed(f"tagrec {' '.join(argv)} exited {code}")
            return True

        with redirect_stdout(buffer):
            ok = self.call(metric, invoke, span=f"cli.{argv[0]}")
        return buffer.getvalue() if ok else None

    def probe(self, repeats: int = 5) -> None:
        """Time a fixed piece of benchmark-owned work, an interpreter
        loop and in-place arithmetic on a cache-sized array, allocating
        nothing, to track the machine's speed over the run."""
        for _ in range(repeats):
            start = time.perf_counter()
            total = 0
            for i in range(60_000):
                total += i * i
            for _ in range(40):
                np.multiply(self._probe_buffer, 0.5, out=self._probe_buffer)
                np.add(self._probe_buffer, 1.0, out=self._probe_buffer)
            self.samples["probe"].append(time.perf_counter() - start)

    def check(self, problems) -> None:
        for problem in problems:
            if len(self.problems) < 20:
                print(f"check failed: {problem}", file=sys.stderr)
            self.problems.append(problem)

    def median(self, metric) -> float:
        return statistics.median(self.samples[metric])
