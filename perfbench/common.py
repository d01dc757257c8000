"""What the three workloads share: set-up, counters, checks and the result.

Set-up is "from reference in hand to ready to query": the EXMA table
(which builds its own suffix array), the MTL index, the serial query
engine with its lazily built lookup columns, and the Table-I accelerator.
Generating the reference and the reads is the benchmark's own work
(layer ``genome``) and never counts.

Each workload has one fixed reference, and its index is trained with a
fixed seed; the run's seed picks the reads, the traffic and the oracle
sample — one genome, many read sets, as a user has.  A seed that moved
the genome would also move the search cost of every read, which is a
property of the genome, not of the program.
"""

from __future__ import annotations

import gc
import random
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.accel.config import ExmaAcceleratorConfig
from repro.accel.exma_accelerator import ExmaAccelerator, WindowedRunResult
from repro.engine.backends import ExmaBackend
from repro.engine.coalesce import BatchStats
from repro.engine.engine import QueryEngine
from repro.exma.mtl_index import MTLIndex
from repro.exma.table import ExmaTable
from repro.genome.datasets import build_dataset
from repro.index.suffix_array import suffix_array
from repro.testing import brute_force_find

from spans import SpanRecorder, TracedAccelerator, TracedEngine, clock

#: Seed of every workload's reference genome and of its MTL training.
REFERENCE_SEED = 0
#: The index every workload builds: k=6 EXMA table, MTL split at 16
#: increments, trained as the repo's megabase profile row trains it.
K = 6
MODEL_THRESHOLD = 16
MTL_SAMPLES_PER_KMER = 64
MTL_EPOCHS = 60
QUERY_LENGTH = 48

#: Reads checked against the brute-force oracle per run.
ORACLE_SAMPLE = 8

NOTES = [
    "Each flush is an independent scheduling epoch: the scheduler queue, "
    "both caches and DRAM start empty at every flush.",
    "sim_* and hw.* figures are modelled accelerator time and energy; the "
    "model has not been checked against real hardware.",
]


@dataclass
class Stack:
    """One built index plus the engine and accelerator over it."""

    table: ExmaTable
    index: MTLIndex
    engine: QueryEngine
    accel: ExmaAccelerator


def reference_genome(length: int) -> str:
    """The workload's fixed stand-in human reference of *length* bases."""
    return build_dataset("human", simulated_length=length, seed=REFERENCE_SEED).sequence


def build_stack(reference: str, recorder: SpanRecorder | None = None) -> Stack:
    """Build the index, the serial engine and the Table-I accelerator.

    With a *recorder* the engine and accelerator are the traced
    subclasses and each build step is recorded as a span under ``setup``.
    """
    with _maybe_span(recorder, "setup") as parent:
        with _maybe_span(recorder, "exma.table_build", parent):
            table = ExmaTable(reference, k=K)
        with _maybe_span(recorder, "exma.mtl_train", parent):
            index = MTLIndex(
                table,
                model_threshold=MODEL_THRESHOLD,
                samples_per_kmer=MTL_SAMPLES_PER_KMER,
                epochs=MTL_EPOCHS,
                seed=REFERENCE_SEED,
            )
        backend = ExmaBackend(table=table, index=index)
        with _maybe_span(recorder, "engine.warmup", parent):
            # The backend builds its lookup columns on the first search;
            # one query builds them all, so being ready to query includes it.
            QueryEngine(backend, shards=1).search_batch([reference[:QUERY_LENGTH]])
        with _maybe_span(recorder, "accel.build", parent):
            if recorder is None:
                engine = QueryEngine(backend, shards=1)
                accel = ExmaAccelerator(table, index, ExmaAcceleratorConfig())
            else:
                engine = TracedEngine(backend, recorder, shards=1)
                accel = TracedAccelerator(table, index, ExmaAcceleratorConfig(), recorder)
    return Stack(table, index, engine, accel)


def _maybe_span(recorder: SpanRecorder | None, name: str, parent: int | None = None):
    return nullcontext() if recorder is None else recorder.span(name, parent)


def timed_setup(reference: str, recorder: SpanRecorder | None, extra=None):
    """Build the stack once; return it, whatever *extra* (called on the
    fresh stack, inside the timing) returned, and the set-up seconds.

    Workloads set up several times and report the median (``setup_s``).
    Each set-up is followed by its share of the timed phase, so the
    measurements of one run are spread over the whole run rather than
    bunched into one stretch of a host whose speed drifts.
    """
    start = clock()
    stack = build_stack(reference, recorder)
    extra_value = extra(stack) if extra is not None else None
    return stack, extra_value, clock() - start


def setup_layers(recorder: SpanRecorder, reference: str, stack: Stack) -> dict[str, float]:
    """Per-layer set-up figures from the traced set-ups, plus the size
    of the built index.

    The table builds its own suffix array, so the suffix array is timed
    once more on its own and subtracted to give the table's own share.
    """
    with recorder.span("index.suffix_array"):
        suffix_array(reference + "$")
    sa = recorder.named("index.suffix_array")[-1].seconds
    table = statistics.median(s.seconds for s in recorder.named("exma.table_build"))
    return {
        "index.suffix_array_s": sa,
        "exma.table_build_s": max(0.0, table - sa),
        "exma.mtl_train_s": statistics.median(
            s.seconds for s in recorder.named("exma.mtl_train")
        ),
        "accel.build_s": statistics.median(s.seconds for s in recorder.named("accel.build")),
        "exma.modelled_kmers": len(stack.index.modelled_kmers),
        "exma.table_mb": stack.table.storage_bytes() / 1e6,
    }


def merge_batch_stats(stats: list[BatchStats]) -> dict[str, int]:
    """Exact engine counters summed over batches."""
    return {
        "engine.occ_issued": sum(s.occ_requests_issued for s in stats),
        "engine.occ_unique": sum(s.occ_requests_unique for s in stats),
        "engine.index_predictions": sum(s.index_predictions for s in stats),
        "engine.increment_entries_read": sum(s.increment_entries_read for s in stats),
        "engine.lockstep_iterations": sum(s.lockstep_iterations for s in stats),
    }


def engine_layers(counts: dict[str, int], window_issued: int, window_unique: int) -> dict:
    """Engine counters plus the two merge ratios (unique / issued)."""
    layers = dict(counts)
    layers["engine.coalescing_factor"] = ratio(
        counts["engine.occ_unique"], counts["engine.occ_issued"]
    )
    layers["engine.window_merge_ratio"] = ratio(window_unique, window_issued)
    return layers


def hw_layers(result: WindowedRunResult) -> dict[str, float]:
    """Modelled hardware counters of a replayed stream."""
    flushes = result.flushes
    base_hits = sum(f.base_cache.hits for f in flushes)
    base_all = sum(f.base_cache.accesses for f in flushes)
    index_hits = sum(f.index_cache.hits for f in flushes)
    index_all = sum(f.index_cache.accesses for f in flushes)
    return {
        "hw.sim_cycles": result.total_cycles,
        "hw.dram_cycles": result.dram_cycles,
        "hw.inference_cycles": result.inference_cycles,
        "hw.dram_requests": result.dram_requests,
        "hw.row_hit_rate": result.row_hit_rate,
        "hw.base_cache_hit_rate": ratio(base_hits, base_all),
        "hw.index_cache_hit_rate": ratio(index_hits, index_all),
        "hw.bandwidth_utilization": result.bandwidth_utilization,
    }


def sim_metrics(result: WindowedRunResult) -> dict[str, float]:
    """Modelled Mbase/s and (accelerator + DRAM) nJ per base."""
    joules = result.accelerator_energy_j + result.dram_energy_j
    return {
        "sim_mbase_per_s": result.throughput.mbase_per_second,
        "sim_nj_per_base": joules / max(1, result.bases_processed) * 1e9,
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def oracle_mismatches(reference: str, backend, queries, intervals, seed: int) -> int:
    """Compare a seeded sample of searched intervals with a brute-force scan."""
    rng = random.Random(seed)
    picks = rng.sample(range(len(queries)), min(ORACLE_SAMPLE, len(queries)))
    wrong = 0
    for i in picks:
        if backend.locate(intervals[i]) != brute_force_find(reference, queries[i]):
            wrong += 1
    return wrong


def reset_peak_rss() -> None:
    """Restart the process's peak-RSS mark, so ``peak_rss_mb`` covers the
    program from here on and not the generation of the inputs (a 1 Mbp
    reference and its reads peak higher than the index built on them)."""
    gc.collect()
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Peak resident set since :func:`reset_peak_rss` (``VmHWM``, in KiB)."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


@dataclass
class Result:
    """What a workload hands back to the runner."""

    #: Gated end-to-end metrics (untraced run), name -> value.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics (traced run), name -> value.
    layers: dict[str, float] = field(default_factory=dict)
    #: The workload's own named figures, name -> (value, unit), printed
    #: in the report.
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Counters that must repeat exactly between traced and untraced runs
    #: of one seed (empty where batching depends on timing).
    counts: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: One line per failed correctness check.
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str, weight: int = 1) -> None:
        """Record a correctness check; a failure counts *weight* failures."""
        if not ok:
            self.failed += weight
            self.problems.append(message)
