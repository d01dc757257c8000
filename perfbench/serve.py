"""serve-zipf: an open-loop Poisson client against ``QueryService``.

Set-up indexes a 200 kbp reference.  Clients draw 48 bp queries from a
4 096-query pool with Zipf skew s=1.1, four queries per arrival, four
tenants, at two fixed offered rates: light (1 000 q/s) and heavy
(2 000 q/s), both below the knee (once measured between 3 000 and
4 000 q/s; on a slow host heavy gets close to it).  The service runs one
batcher worker, ``max_batch=64``, a W=2 coalescing window and inline
replay.

The client is this module's own open-loop generator, not
``repro.serving.loadgen.run_open_loop``: a query is timed from the
moment it was *due*, not from admission, so a late generator (the GIL
is shared with the batcher thread) shows up as latency
(``serving.gen_late_*``) instead of vanishing.
"""

from __future__ import annotations

import statistics
import time

from repro.accel.config import ExmaAcceleratorConfig
from repro.accel.exma_accelerator import ExmaAccelerator, WindowedRunResult
from repro.engine.engine import QueryEngine
from repro.serving.loadgen import make_schedule, poisson_schedule, sample_query_pool
from repro.serving.service import (
    AdmissionRejected,
    QueryService,
    ServingConfig,
    percentile,
)

import common
from spans import SpanRecorder, TracedAccelerator, TracedEngine, TracedWindow, clock

GENOME_LENGTH = 200_000
POOL = 4096
TENANTS = 4
PER_ARRIVAL = 4
ZIPF_S = 1.1
RATES = {"light": 1000.0, "heavy": 2000.0}
SLO_MS = 50.0
CONFIG = ServingConfig(max_batch=64, window=2, workers=1, replay_workers=1)
#: How long to wait for the last tickets after the final arrival.
DRAIN_TIMEOUT = 60.0
SETUP_REPEATS = 3
STAGES = ("gen_late", "queue", "search", "window_wait", "replay", "resolve")


class Phase:
    """One open-loop run at a fixed rate against a fresh service."""

    def __init__(self, name, stack, pool, seconds, seed, recorder=None) -> None:
        self.name = name
        self.traced = recorder is not None
        rate = RATES[name]
        offsets = poisson_schedule(rate / PER_ARRIVAL, seconds, seed=seed)
        arrivals = make_schedule(
            offsets, pool, tenants=TENANTS, queries_per_arrival=PER_ARRIVAL,
            zipf_s=ZIPF_S, seed=seed,
        )
        table, index = stack.table, stack.index
        if recorder is None:
            engine = QueryEngine(stack.engine.backend, shards=1)
            accel = ExmaAccelerator(table, index, ExmaAcceleratorConfig())
        else:
            engine = TracedEngine(stack.engine.backend, recorder, shards=1)
            accel = TracedAccelerator(table, index, ExmaAcceleratorConfig(), recorder)
        self.engine = engine
        service = QueryService(engine, accel, CONFIG, clock=clock)
        if recorder is not None:
            for worker in service.workers:
                worker.window = TracedWindow(CONFIG.window, recorder)
        first_span = recorder.mark() if recorder is not None else 0
        cpu = time.process_time()
        service.start()
        try:
            self.begin, self.sent = self._drive(service, arrivals)
        finally:
            service.stop()
        #: Host CPU seconds of the client and the batcher over the phase.
        self.cpu_seconds = time.process_time() - cpu
        #: The phase's spans, as bounds for ``SpanRecorder.named``.
        self.marks = (first_span, recorder.mark() if recorder is not None else 0)
        self.stats = service.stats
        self.result = service.result()
        #: (due, outcome) per offered query; outcome None if rejected/unresolved.
        self.queries = []
        for due, _, ticket, count in self.sent:
            resolved = ticket is not None and ticket.done()
            outcomes = ticket.result(timeout=0) if resolved else [None] * count
            self.queries.extend((due, outcome) for outcome in outcomes)
        self.end = max(
            (o.completion for _, o in self.queries if o is not None), default=clock()
        )

    @staticmethod
    def _drive(service, arrivals):
        """Submit every arrival at its due time; never wait on completions."""
        begin = clock() + 0.02
        sent = []
        for arrival in arrivals:
            due = begin + arrival.offset
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            submitted = clock()
            try:
                ticket = service.submit(arrival.queries, tenant=arrival.tenant)
            except AdmissionRejected:
                ticket = None
            sent.append((due, submitted, ticket, len(arrival.queries)))
        deadline = clock() + DRAIN_TIMEOUT
        for _, _, ticket, _ in sent:
            if ticket is not None:
                ticket.wait(max(0.0, deadline - clock()))
        return begin, sent

    def latencies_ms(self) -> list[float]:
        return [(o.completion - due) * 1e3 for due, o in self.queries if o is not None and o.ok]

    def gen_late_ms(self) -> list[float]:
        """How late the client submitted each query, in ms."""
        return [
            (submitted - due) * 1e3 for due, submitted, _, count in self.sent for _ in range(count)
        ]

    def failed(self) -> int:
        return sum(1 for _, o in self.queries if o is None or not o.ok)

    def within_slo(self) -> float:
        ok = sum(1 for t in self.latencies_ms() if t <= SLO_MS)
        return ok / len(self.queries)


def run(seed: int, seconds: float, recorder: SpanRecorder | None) -> common.Result:
    out = common.Result()
    reference = common.reference_genome(GENOME_LENGTH)
    pool = sample_query_pool(reference, POOL, common.QUERY_LENGTH, seed=seed)
    common.reset_peak_rss()
    setup_seconds = []
    for _ in range(SETUP_REPEATS):
        stack = None  # free the previous index before rebuilding
        stack, _, seconds_taken = common.timed_setup(reference, recorder)
        setup_seconds.append(seconds_taken)

    light_seed, heavy_seed = seed * 2 + 1, seed * 2 + 2
    if recorder is None:
        phases = [
            Phase("light", stack, pool, seconds / 2, light_seed),
            Phase("heavy", stack, pool, seconds / 2, heavy_seed),
        ]
    else:
        # The two heavy phases share one schedule: untraced, then traced.
        phases = [
            Phase("light", stack, pool, seconds / 3, light_seed, recorder),
            Phase("heavy", stack, pool, seconds / 3, heavy_seed),
            Phase("heavy", stack, pool, seconds / 3, heavy_seed, recorder),
        ]

    # Every served interval must equal the offline engine's for that query.
    offline = QueryEngine(stack.engine.backend, shards=1).search_batch(pool).intervals
    expected = dict(zip(pool, offline))
    for phase in phases:
        out.attempted += len(phase.queries)
        out.check(phase.failed() == 0, f"{phase.name}: {phase.failed()} queries rejected "
                  "or failed", weight=phase.failed())
        wrong = sum(
            1 for _, o in phase.queries
            if o is not None and o.ok and o.interval != expected[o.query]
        )
        out.check(wrong == 0, f"{phase.name}: {wrong} served intervals differ from offline",
                  weight=wrong)
    wrong = common.oracle_mismatches(reference, stack.engine.backend, pool, offline, seed)
    out.check(wrong == 0, f"{wrong} of {common.ORACLE_SAMPLE} sampled intervals "
              "differ from the brute-force scan", weight=wrong)

    light, heavy = phases[0], phases[1]
    light_ms, heavy_ms = light.latencies_ms(), heavy.latencies_ms()
    completed = len(light_ms) + len(heavy_ms)
    qps = completed / sum(p.end - p.begin for p in (light, heavy))
    # The open loop fixes the wall-clock rate, so capacity is what moves:
    # queries served per host CPU second of the client and the batcher.
    per_cpu_s = completed / (light.cpu_seconds + heavy.cpu_seconds)
    sim = common.sim_metrics(_merged(light, heavy))
    out.metrics = {
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": common.peak_rss_mb(),
        "throughput": per_cpu_s,
        **sim,
    }
    out.report = {
        "setup_s": (out.metrics["setup_s"], "s"),
        "peak_rss_mb": (out.metrics["peak_rss_mb"], "MB"),
        "served_per_cpu_s": (per_cpu_s, "1/s"),
        "served_qps": (qps, "1/s"),
        "serve.light.p50_ms": (statistics.median(light_ms), "ms"),
        "serve.light.p99_ms": (percentile(light_ms, 99), "ms"),
        "serve.heavy.p50_ms": (statistics.median(heavy_ms), "ms"),
        "serve.heavy.p99_ms": (percentile(heavy_ms, 99), "ms"),
        "serve.heavy.slo_frac": (heavy.within_slo(), "fraction"),
        "serve.light.gen_late_p99_ms": (percentile(light.gen_late_ms(), 99), "ms"),
        "serve.heavy.gen_late_p99_ms": (percentile(heavy.gen_late_ms(), 99), "ms"),
        "serve.light.queries": (len(light.queries), "count"),
        "serve.heavy.queries": (len(heavy.queries), "count"),
        "sim_mbase_per_s": (sim["sim_mbase_per_s"], "Mbase/s"),
        "sim_nj_per_base": (sim["sim_nj_per_base"], "nJ/base"),
    }

    if recorder is not None:
        traced = [p for p in phases if p.traced]
        stages = _stage_spans(recorder, traced, out)
        out.layers = _layers(recorder, stack, reference, traced, stages)
        out.layers["trace.overhead_pct"] = (
            statistics.median(phases[2].latencies_ms()) / statistics.median(heavy_ms) - 1.0
        ) * 100.0
    return out


def _merged(*phases) -> WindowedRunResult:
    return WindowedRunResult(
        name=CONFIG.name,
        flushes=[f for p in phases for f in p.result.flushes],
        capacity=CONFIG.window,
        batches=sum(p.result.batches for p in phases),
        issued=sum(p.result.issued for p in phases),
    )


def _stage_spans(recorder, traced, out) -> dict[str, list[float]]:
    """Split each traced query's due-to-completion time into its stages.

    The n-th search (replay) span of a phase is its dynamic batch (flush)
    n, because one batcher worker forms, searches and replays in order.
    Each query gets a ``serving.query`` span and one child per stage; the
    stages sum to its latency by construction, and a negative stage
    means the mapping is wrong, which fails the run.
    """
    stages = {stage: [] for stage in STAGES}
    query_id = 0
    for phase in traced:
        searches = {s.request_id: s for s in recorder.named("engine.search", *phase.marks)}
        replays = {s.request_id: s for s in recorder.named("accel.replay", *phase.marks)}
        negative = 0
        for due, _, ticket, _ in phase.sent:
            if ticket is None or not ticket.done():
                continue
            for outcome in ticket.result(timeout=0):
                if not outcome.ok:
                    continue
                search = searches[outcome.batch_index]
                replay = replays[outcome.flush_index]
                bounds = (
                    due, outcome.arrival, search.start, search.end,
                    replay.start, replay.end, outcome.completion,
                )
                parent = recorder.record(
                    "serving.query", due, outcome.completion, request_id=query_id
                )
                for stage, start, end in zip(STAGES, bounds, bounds[1:]):
                    recorder.record(f"serving.{stage}", start, end, parent, query_id)
                    stages[stage].append((end - start) * 1e3)
                    negative += end - start < -1e-6
                query_id += 1
        out.check(negative == 0, f"{phase.name}: {negative} query stages are negative")
    return stages


def _layers(recorder, stack, reference, traced, stages) -> dict[str, float]:
    layers = common.setup_layers(recorder, reference, stack)
    searched = sum(p.stats.searched for p in traced)
    search_s = sum(
        s.seconds for p in traced for s in recorder.named("engine.search", *p.marks)
    )
    replay_s = sum(
        s.seconds for p in traced for s in recorder.named("accel.replay", *p.marks)
    )
    issued = sum(p.stats.issued_requests for p in traced)
    scheduled = sum(p.stats.scheduled_requests for p in traced)
    batches = sum(p.stats.batches for p in traced)
    layers["engine.search_s"] = search_s
    layers["engine.search_us_per_query"] = search_s / max(1, searched) * 1e6
    layers["engine.window_s"] = sum(
        s.seconds for p in traced for s in recorder.named("engine.window", *p.marks)
    )
    stats = [s for p in traced for s in p.engine.batch_stats]
    layers.update(common.engine_layers(common.merge_batch_stats(stats), issued, scheduled))
    layers["accel.replay_s"] = replay_s
    layers["accel.replay_ns_per_request"] = replay_s / max(1, scheduled) * 1e9
    layers.update(common.hw_layers(_merged(*traced)))
    for stage, values in stages.items():
        layers[f"serving.{stage}_p50_ms"] = percentile(values, 50)
        layers[f"serving.{stage}_p99_ms"] = percentile(values, 99)
    layers["serving.batches"] = batches
    layers["serving.mean_batch_size"] = searched / max(1, batches)
    layers["serving.flushes"] = sum(p.stats.flushes for p in traced)
    layers["serving.idle_timeouts"] = sum(p.stats.idle_timeouts for p in traced)
    layers["serving.merge_ratio"] = common.ratio(scheduled, issued)
    return layers
