"""offline-1m: index a 1 Mbp reference, then search → window → replay.

20 000 reads of 48 bp in 8 batches of 2 500 go through the serial
``exma-mtl`` engine (k=6), a ``CoalescingWindow(4)`` and a serial
``run_stream`` on the Table-I accelerator.  The run sets up twice; after
each set-up it repeats that pass until half the run's seconds are spent.  A batch's latency runs from the
start of its search to the end of the replay of the flush it joined.
"""

from __future__ import annotations

import statistics

import numpy as np

from repro.accel.config import ExmaAcceleratorConfig
from repro.accel.exma_accelerator import ExmaAccelerator
from repro.engine.engine import QueryEngine
from repro.engine.window import CoalescingWindow
from repro.experiments.common import sample_queries
from repro.index.fmindex import Interval

import common
from spans import SpanRecorder, TracedWindow, clock

GENOME_LENGTH = 1_000_000
READS = 20_000
BATCHES = 8
WINDOW = 4
#: Set-up takes ~10 s, so two set-ups keep a run within its time budget;
#: each is followed by half of the timed passes.
SETUP_REPEATS = 2


class Pass:
    """One search → window → replay pass and what it measured."""

    def __init__(self, engine, window, accel, batches) -> None:
        self.starts: list[float] = []
        self.flush_ends: list[float] = []
        self.flush_sizes: list[int] = []
        self._stats = []
        self._bounds = []
        begin = clock()
        self.result = accel.run_stream(
            self._marked(window.stream(self._searched(engine, batches))),
            replay_workers=1,
        )
        self.seconds = clock() - begin
        self.queries = sum(len(batch) for batch in batches)
        # Keep counters and (low, high) columns, not the batch objects, so
        # memory does not grow with the number of passes that fit.
        self.engine_counts = common.merge_batch_stats(self._stats)
        self.intervals = np.concatenate(self._bounds)
        del self._stats, self._bounds

    def _searched(self, engine, batches):
        for batch in batches:
            self.starts.append(clock())
            result = engine.search_batch(batch)
            self._stats.append(result.stats)
            self._bounds.append(
                np.array([(i.low, i.high) for i in result.intervals], dtype=np.int64)
            )
            yield result.stats.requests

    def _marked(self, flushes):
        # run_stream asks for the next flush only once it has replayed the
        # previous one, so the clock read on resuming ends that replay.
        for flushed in flushes:
            self.flush_sizes.append(flushed.batches)
            yield flushed
            self.flush_ends.append(clock())

    def batch_latencies(self) -> list[float]:
        latencies = []
        batch = 0
        for size, end in zip(self.flush_sizes, self.flush_ends):
            for start in self.starts[batch : batch + size]:
                latencies.append(end - start)
            batch += size
        return latencies

    def counts(self) -> dict[str, float]:
        return {**self.engine_counts, **common.hw_layers(self.result)}


def run(seed: int, seconds: float, recorder: SpanRecorder | None) -> common.Result:
    out = common.Result()
    reference = common.reference_genome(GENOME_LENGTH)
    reads = sample_queries(reference, count=READS, length=common.QUERY_LENGTH, seed=seed)
    size = READS // BATCHES
    batches = [reads[i * size : (i + 1) * size] for i in range(BATCHES)]
    common.reset_peak_rss()

    # Traced runs alternate untraced and traced passes: the traced ones
    # give the layer split, the pair gives the tracing overhead.
    plain: list[Pass] = []
    traced: list[Pass] = []
    setup_seconds = []
    for _ in range(SETUP_REPEATS):
        stack = plain_engine = plain_accel = None  # free the previous index first
        stack, _, seconds_taken = common.timed_setup(reference, recorder)
        setup_seconds.append(seconds_taken)
        plain_engine, plain_accel = stack.engine, stack.accel
        if recorder is not None:
            plain_engine = QueryEngine(stack.engine.backend, shards=1)
            plain_accel = ExmaAccelerator(stack.table, stack.index, ExmaAcceleratorConfig())
        begin, passes = clock(), []
        while clock() - begin < seconds / SETUP_REPEATS or (
            recorder is not None and len(passes) < 2
        ):
            if recorder is not None and len(passes) % 2:
                with recorder.span("offline.pass", request_id=len(traced)) as parent:
                    for layer in (stack.engine, stack.accel):
                        layer.parent = parent
                    window = TracedWindow(WINDOW, recorder)
                    window.parent = parent
                    passes.append(Pass(stack.engine, window, stack.accel, batches))
                traced.append(passes[-1])
            else:
                passes.append(
                    Pass(plain_engine, CoalescingWindow(WINDOW), plain_accel, batches)
                )
                plain.append(passes[-1])

    first = plain[0]
    for i, other in enumerate(plain[1:] + traced, start=1):
        # Later passes run on rebuilt indexes too: the build is pinned.
        out.check(other.counts() == first.counts(), f"pass {i}: engine/hw counts differ")
        out.check(
            np.array_equal(other.intervals, first.intervals), f"pass {i}: intervals differ"
        )
    intervals = [Interval(int(low), int(high)) for low, high in first.intervals]
    wrong = common.oracle_mismatches(reference, stack.engine.backend, reads, intervals, seed)
    out.check(wrong == 0, f"{wrong} of {common.ORACLE_SAMPLE} sampled intervals "
              "differ from the brute-force scan", weight=wrong)
    out.attempted = sum(p.queries for p in plain + traced)
    out.counts = first.counts()

    qps = statistics.median(p.queries / p.seconds for p in plain)
    latencies = [t for p in plain for t in p.batch_latencies()]
    sim = common.sim_metrics(first.result)
    out.metrics = {
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": common.peak_rss_mb(),
        "throughput": qps,
        **sim,
    }
    out.report = {
        "setup_s": (out.metrics["setup_s"], "s"),
        "peak_rss_mb": (out.metrics["peak_rss_mb"], "MB"),
        "offline_qps": (qps, "1/s"),
        "batch_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "sim_mbase_per_s": (sim["sim_mbase_per_s"], "Mbase/s"),
        "sim_nj_per_base": (sim["sim_nj_per_base"], "nJ/base"),
        "passes": (len(plain), "count"),
    }

    if recorder is not None:
        out.layers = _layers(recorder, stack, reference, traced, plain)
    return out


def _layers(recorder, stack, reference, traced, plain) -> dict[str, float]:
    layers = common.setup_layers(recorder, reference, stack)

    def per_pass(name):
        totals = {}
        for span in recorder.named(name):
            totals[span.parent] = totals.get(span.parent, 0.0) + span.seconds
        return statistics.median(totals.values())

    first = traced[0]
    search_s = per_pass("engine.search")
    replay_s = per_pass("accel.replay")
    layers["engine.search_s"] = search_s
    layers["engine.search_us_per_query"] = search_s / first.queries * 1e6
    layers["engine.window_s"] = per_pass("engine.window")
    layers.update(
        common.engine_layers(
            first.engine_counts, first.result.issued, first.result.requests
        )
    )
    layers["accel.replay_s"] = replay_s
    layers["accel.replay_ns_per_request"] = replay_s / max(1, first.result.requests) * 1e9
    layers.update(common.hw_layers(first.result))
    untraced = statistics.median(p.seconds for p in plain)
    layers["trace.overhead_pct"] = (
        statistics.median(p.seconds for p in traced) / untraced - 1.0
    ) * 100.0
    return layers
