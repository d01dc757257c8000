"""dse-replay: replay fixed request streams at 12 accelerator design points.

Set-up indexes a 200 kbp reference and searches 40 000 reads of 48 bp
in 16 batches once; the timed phase only replays.  Each design point —
page policy {open, close, dynamic} × window W {1, 4} × CAM {128, 512} —
builds its accelerator and runs ``run_windowed`` over the same batch
streams.  The run sets up twice; after each set-up whole sweeps repeat
until half the run's seconds are spent, so every point weighs the same,
and every repeat of a point — on either index — must give the same
result.
"""

from __future__ import annotations

import statistics

from repro.accel.configspace import ConfigPoint
from repro.engine.window import CoalescingWindow
from repro.experiments.common import sample_queries
from repro.hw.dram import PagePolicy

import common
from spans import SpanRecorder, TracedAccelerator, TracedWindow, clock

GENOME_LENGTH = 200_000
READS = 40_000
BATCHES = 16
#: Set-up (index plus the one-time search) takes ~10 s, so it runs twice,
#: each time followed by half of the timed sweeps.
SETUP_REPEATS = 2
POINTS = [
    ConfigPoint(page_policy=policy, window=window, cam_entries=cam)
    for policy in (PagePolicy.OPEN, PagePolicy.CLOSE, PagePolicy.DYNAMIC)
    for window in (1, 4)
    for cam in (128, 512)
]
#: The Table-I design (dynamic page policy, W=1, 512-entry CAM).
TABLE_I = ConfigPoint()
#: The same design with the W=4 window, whose merge ratio is reported.
WINDOWED = ConfigPoint(window=4)


def _search(stack, batches):
    """The one-time search of set-up: each batch's stream, stats, intervals."""
    results = [stack.engine.search_batch(batch) for batch in batches]
    return (
        [r.stats.requests for r in results],
        [r.stats for r in results],
        [interval for r in results for interval in r.intervals],
    )


def _replay(point, stack, streams, recorder=None):
    """Build the point's accelerator and replay every stream through it."""
    if recorder is None:
        accel = point.build_accelerator(stack.table, stack.index)
        return accel.run_windowed(streams, window=point.window, replay_workers=1)
    with recorder.span("dse.point") as parent:
        with recorder.span("accel.build", parent):
            accel = TracedAccelerator(
                stack.table, stack.index, point.accelerator_config(), recorder
            )
        accel.parent = parent
        window = TracedWindow(point.window, recorder)
        window.parent = parent
        return accel.run_windowed(streams, window=window, replay_workers=1)


def run(seed: int, seconds: float, recorder: SpanRecorder | None) -> common.Result:
    out = common.Result()
    reference = common.reference_genome(GENOME_LENGTH)
    reads = sample_queries(reference, count=READS, length=common.QUERY_LENGTH, seed=seed)
    size = READS // BATCHES
    batches = [reads[i * size : (i + 1) * size] for i in range(BATCHES)]
    common.reset_peak_rss()

    # One entry per replay: (point, seconds, result); traced runs replay
    # every point untraced and then traced, back to back.
    plain, traced, setup_seconds = [], [], []
    for _ in range(SETUP_REPEATS):
        stack = searched = None  # free the previous index before rebuilding
        stack, searched, seconds_taken = common.timed_setup(
            reference, recorder, extra=lambda built: _search(built, batches)
        )
        setup_seconds.append(seconds_taken)
        streams = searched[0]
        begin = clock()
        while clock() - begin < seconds / SETUP_REPEATS:
            for point in POINTS:
                start = clock()
                result = _replay(point, stack, streams)
                plain.append((point, clock() - start, result))
                if recorder is not None:
                    start = clock()
                    result = _replay(point, stack, streams, recorder)
                    traced.append((point, clock() - start, result))
    streams, stats, intervals = searched

    first = {point: result for point, _, result in plain[: len(POINTS)]}
    for i, (point, _, result) in enumerate(plain[len(POINTS) :] + traced):
        out.check(result == first[point], f"replay {i} at {point.label} differs")

    # The columnar replay of the first Table-I flush against the
    # request-at-a-time object model.
    flushed = CoalescingWindow(1).push(streams[0])
    accel = TABLE_I.build_accelerator(stack.table, stack.index)
    run_result = accel.replay_flush(flushed)
    reference_result = accel.run_reference(
        list(flushed.requests), bases_processed=run_result.bases_processed
    )
    out.check(run_result == reference_result, "Table-I flush: run != run_reference")
    wrong = common.oracle_mismatches(reference, stack.engine.backend, reads, intervals, seed)
    out.check(wrong == 0, f"{wrong} of {common.ORACLE_SAMPLE} sampled intervals "
              "differ from the brute-force scan", weight=wrong)
    out.attempted = len(plain) + len(traced) + 1 + common.ORACLE_SAMPLE
    table_i = first[TABLE_I]
    out.counts = {**common.merge_batch_stats(stats), **common.hw_layers(table_i)}

    replayed = sum(result.requests for _, _, result in plain)
    req_per_s = replayed / sum(t for _, t, _ in plain)
    sim = common.sim_metrics(table_i)
    out.metrics = {
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": common.peak_rss_mb(),
        "throughput": req_per_s,
        **sim,
    }
    out.report = {
        "setup_s": (out.metrics["setup_s"], "s"),
        "peak_rss_mb": (out.metrics["peak_rss_mb"], "MB"),
        "replay_req_per_s": (req_per_s, "1/s"),
        "point_p50_ms": (statistics.median(t for _, t, _ in plain) * 1e3, "ms"),
        "sim_mbase_per_s": (sim["sim_mbase_per_s"], "Mbase/s"),
        "sim_nj_per_base": (sim["sim_nj_per_base"], "nJ/base"),
        "sweeps": (len(plain) // len(POINTS), "count"),
    }
    for point in POINTS:
        out.report[f"sim_mbase_per_s[{point.label}]"] = (
            common.sim_metrics(first[point])["sim_mbase_per_s"],
            "Mbase/s",
        )

    if recorder is not None:
        out.layers = _layers(recorder, stack, reference, stats, first, traced, plain)
    return out


def _layers(recorder, stack, reference, stats, first, traced, plain) -> dict[str, float]:
    layers = common.setup_layers(recorder, reference, stack)
    # The search ran during set-up; its spans are the set-up searches.
    searches = recorder.named("engine.search")
    search_s = sum(s.seconds for s in searches) / SETUP_REPEATS
    layers["engine.search_s"] = search_s
    layers["engine.search_us_per_query"] = search_s / READS * 1e6
    layers["engine.window_s"] = sum(
        s.seconds for s in recorder.named("engine.window")
    ) / len(traced)
    windowed = first[WINDOWED]
    layers.update(
        common.engine_layers(common.merge_batch_stats(stats), windowed.issued, windowed.requests)
    )
    replays = recorder.named("accel.replay")
    replay_s = sum(s.seconds for s in replays)
    requests = sum(result.requests for _, _, result in traced)
    points = {s.span_id for s in recorder.named("dse.point")}
    layers["accel.build_s"] = statistics.median(
        s.seconds for s in recorder.named("accel.build") if s.parent in points
    )
    layers["accel.replay_s"] = replay_s / len(traced)
    layers["accel.replay_ns_per_request"] = replay_s / requests * 1e9
    layers.update(common.hw_layers(first[TABLE_I]))
    layers["trace.overhead_pct"] = (
        sum(t for _, t, _ in traced) / sum(t for _, t, _ in plain) - 1.0
    ) * 100.0
    return layers
