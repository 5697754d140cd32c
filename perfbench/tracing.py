"""Spans and counters for the traced benchmark run.

The traced run wraps public lyapstab functions at the module attributes the
pipeline looks them up through (``lyapstab.simulator.rk4_swing``,
``lyapstab.cli.parse_traces``, ...) and records one span per call: name,
start, end, parent span and item id.  Counters are bumped at the same
boundaries.  Calls made once per sample (``PairAssessor.push`` and each
``next()`` of ``iter_mle``) are folded into one span per parent whose busy
time is the sum of the calls, so a run keeps a few dozen spans per item.

A span's self time is its busy time minus the busy time of its children.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()

# span record fields
NAME, START, END, PARENT, ITEM, BUSY, CALLS = range(7)


class NullTracer:
    """Stand-in for untraced runs: records no spans."""

    def __init__(self):
        self.counts = defaultdict(int)

    def span(self, name: str):
        return _NULL


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts = defaultdict(int)  # counters of the current item
        self._stack: list[int] = []
        self._folded: dict[tuple, int] = {}
        self._item = None

    def begin_item(self, item) -> None:
        self._item = item
        self.counts = defaultdict(int)
        self._folded.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else None, self._item, 0.0, 1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[END] = time.perf_counter()
            rec[BUSY] = rec[END] - rec[START]

    def fold(self, name: str, start: float, end: float) -> None:
        """Add one short call to the single ``name`` span under the open span."""
        parent = self._stack[-1] if self._stack else None
        idx = self._folded.get((parent, name))
        if idx is None:
            self._folded[(parent, name)] = len(self.spans)
            self.spans.append([name, start, end, parent, self._item,
                               end - start, 1])
        else:
            rec = self.spans[idx]
            rec[END] = end
            rec[BUSY] += end - start
            rec[CALLS] += 1

    def self_times(self) -> dict[str, float]:
        """Summed self time (s) per span name."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] is not None:
                child[rec[PARENT]] += rec[BUSY]
        out: dict[str, float] = defaultdict(float)
        for i, rec in enumerate(self.spans):
            out[rec[NAME]] += rec[BUSY] - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "start": rec[START],
                    "end": rec[END], "parent": rec[PARENT], "item": rec[ITEM],
                    "busy": rec[BUSY], "calls": rec[CALLS]}) + "\n")

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name: str, count=None):
        """One span per call; ``count(counts, args, outcome)`` after it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if count is not None:
                        count(self.counts, args, exc)
                    raise
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def wrap_folded(self, fn, name: str, counter: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.fold(name, start, time.perf_counter())
                self.counts[counter] += 1
        return traced

    def wrap_generator(self, fn, name: str, counter: str):
        """Time every ``next()`` of the generator ``fn`` returns."""
        tracer = self

        class _Timed:
            def __init__(self, it):
                self._it = it

            def __iter__(self):
                return self

            def __next__(self):
                start = time.perf_counter()
                try:
                    value = next(self._it)
                finally:
                    tracer.fold(name, start, time.perf_counter())
                tracer.counts[counter] += 1
                return value

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _Timed(fn(*args, **kwargs))
        return traced


# -- counters at the wrapped boundaries -------------------------------------

def _count_rk4(counts, args, outcome):
    # rk4_swing(delta, omega, minv, damp, pm, emf, G, B, h, n_blocks, substeps, ...)
    steps = args[9] * args[10]
    counts["core.rk4_steps"] += steps
    counts["core.machine_steps"] += steps * len(args[0])


def _count_rows(counts, args, outcome):
    if not isinstance(outcome, Exception):
        counts["ingest.rows"] += sum(len(tr) for tr in outcome)


def _count_pairs(counts, args, outcome):
    if not isinstance(outcome, Exception):
        counts["pairs.pairs"] += len(outcome)


def _count_classify(counts, args, outcome):
    from lyapstab.errors import ClassificationRefused
    if isinstance(outcome, ClassificationRefused):
        samples = 1
    elif isinstance(outcome, Exception):
        samples = len(args[1])  # timed out: the whole (t_max-capped) series
    else:
        samples = outcome.decided_at + 1
    counts["swings.classify_samples"] += samples


def _count_crest(counts, args, outcome):
    from lyapstab.swings import MONOTONE_PATTERNS, ClassifierConfig
    pattern, w, d = args[:3]
    if pattern in MONOTONE_PATTERNS:
        return  # no smoothing done
    cfg = args[3] if len(args) > 3 else ClassifierConfig()
    smoothed = len(d.d)
    if isinstance(outcome, Exception):
        needed = smoothed
    else:
        needed = (outcome - w) + cfg.n_peak + cfg.smooth_width // 2 + 1
    counts["swings.crest_needed"] += needed
    counts["swings.crest_smoothed"] += smoothed


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the pipeline's calls into each layer for the duration of the block."""
    import lyapstab.assess as assess
    import lyapstab.cli as cli
    import lyapstab.simulator as simulator

    patches = [
        (simulator, "reduce_network", tracer.wrap(
            simulator.reduce_network, "network.reduce")),
        (simulator, "solve_equilibrium", tracer.wrap(
            simulator.solve_equilibrium, "simulator.equilibrium")),
        (simulator, "rk4_swing", tracer.wrap(
            simulator.rk4_swing, "_core.rk4_swing", _count_rk4)),
        (cli, "parse_traces", tracer.wrap(
            cli.parse_traces, "ingest.parse", _count_rows)),
        (cli, "align", tracer.wrap(cli.align, "ingest.align")),
        (cli, "run_assessment", tracer.wrap(cli.run_assessment, "assess.run")),
        (assess, "identify_sdgp", tracer.wrap(
            assess.identify_sdgp, "pairs.identify", _count_pairs)),
        (assess, "build_pair_trace", tracer.wrap(
            assess.build_pair_trace, "pairs.build")),
        (assess.SwingClassifier, "run", tracer.wrap(
            assess.SwingClassifier.run, "swings.classify", _count_classify)),
        (assess, "distance_series", tracer.wrap(
            assess.distance_series, "swings.distance")),
        (assess, "find_mle_start", tracer.wrap(
            assess.find_mle_start, "swings.crest", _count_crest)),
        (assess, "iter_mle", tracer.wrap_generator(
            assess.iter_mle, "mle.fit", "mle.updates")),
        (assess.PairAssessor, "push", tracer.wrap_folded(
            assess.PairAssessor.push, "assess.push", "assess.pushes")),
        (assess, "aggregate", tracer.wrap(assess.aggregate, "assess.aggregate")),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapped in patches:
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
