"""Columnar-replay oracle suite: arrays must equal the object pipeline.

PR 5 made the accelerator replay columnar from the flush to the cycle
counts; the original request-at-a-time object pipeline survives as
:meth:`repro.accel.exma_accelerator.ExmaAccelerator.run_reference`, the
executable specification.  This suite pins the cutover down at every
layer:

* property-based (hypothesis) equivalence of the vectorized primitives —
  :func:`~repro.hw.scheduler.scheduled_orders` /
  :func:`~repro.hw.scheduler.keep_open_flags` against the
  :class:`~repro.hw.cam.SchedulingQueue` CAM model,
  :func:`~repro.hw.cache.simulate_lru_hits` against per-access
  :meth:`~repro.hw.cache.SetAssociativeCache.access`,
  :meth:`~repro.hw.dram.DRAMModel.process_columns` against the object
  :meth:`~repro.hw.dram.DRAMModel.process`, and the batched table/index
  queries against their scalar forms;
* end-to-end: :meth:`~repro.accel.exma_accelerator.ExmaAccelerator.run`
  and :meth:`~repro.accel.exma_accelerator.ExmaAccelerator.run_stream`
  field-for-field equal to the reference for the request streams of all
  six engine backends, under both schedulers and every page policy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import ExmaAccelerator, ExmaAcceleratorConfig
from repro.engine import CoalescingWindow, QueryEngine, create_backend
from repro.engine.backends import ExmaBackend, FMIndexBackend, LisaBackend
from repro.exma.learned_index import NaiveLearnedIndex
from repro.exma.mtl_index import MTLIndex
from repro.exma.search import OccRequest
from repro.exma.table import ExmaTable
from repro.hw.cache import SetAssociativeCache, simulate_lru_hits
from repro.hw.cam import CamConfig
from repro.hw.dram import DDR4Config, DRAMModel, MemoryRequest, MemoryTrace, PagePolicy
from repro.hw.scheduler import (
    FrFcfsScheduler,
    TwoStageScheduler,
    keep_open_flags,
    pair_requests_by_kmer,
    scheduled_orders,
)
from repro.lisa.search import LisaIndex
from repro.testing import random_queries, reference_and_queries

BACKEND_NAMES = ("fmindex", "exma", "exma-learned", "exma-mtl", "lisa", "lisa-learned")

request_lists = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 60)), min_size=0, max_size=120
)


def _requests(pairs: list[tuple[int, int]]) -> list[OccRequest]:
    return [OccRequest(packed_kmer=kmer, pos=pos) for kmer, pos in pairs]


# --------------------------------------------------------------------- #
# Vectorized schedulers vs the SchedulingQueue CAM model
# --------------------------------------------------------------------- #


class TestSchedulerOrders:
    @given(request_lists, st.integers(1, 17), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_orders_match_queue_scheduling(self, pairs, cam_entries, two_stage):
        requests = _requests(pairs)
        kmers = np.array([r.packed_kmer for r in requests], dtype=np.int64)
        positions = np.array([r.pos for r in requests], dtype=np.int64)
        scheduler = (
            TwoStageScheduler(CamConfig(entries=cam_entries))
            if two_stage
            else FrFcfsScheduler(CamConfig(entries=cam_entries))
        )
        stage1_ref, stage2_ref = [], []
        for batch in scheduler.schedule(requests):
            stage1_ref.extend(batch.stage1)
            stage2_ref.extend(batch.stage2)
        stage1, stage2 = scheduled_orders(kmers, positions, cam_entries, two_stage)
        assert [requests[i] for i in stage1] == stage1_ref
        assert [requests[i] for i in stage2] == stage2_ref

    @given(request_lists, st.integers(1, 17))
    @settings(max_examples=80, deadline=None)
    def test_keep_open_matches_pair_annotation(self, pairs, cam_entries):
        requests = _requests(pairs)
        kmers = np.array([r.packed_kmer for r in requests], dtype=np.int64)
        positions = np.array([r.pos for r in requests], dtype=np.int64)
        scheduler = TwoStageScheduler(CamConfig(entries=cam_entries))
        hints_ref = []
        for batch in scheduler.schedule(requests):
            hints_ref.extend(hint for _, hint in pair_requests_by_kmer(batch.stage2))
        _, stage2 = scheduled_orders(kmers, positions, cam_entries, True)
        hints = keep_open_flags(kmers[stage2], cam_entries)
        assert hints.tolist() == hints_ref


# --------------------------------------------------------------------- #
# Set-grouped cache simulation vs per-access LRU
# --------------------------------------------------------------------- #


class TestCacheSimulation:
    @given(
        st.lists(st.integers(0, 5000), min_size=0, max_size=300),
        st.sampled_from([1, 2, 4, 8, 16]),
        st.sampled_from([1, 2, 16]),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_hit_mask_matches_reference_cache(self, addresses, ways, sets, sort):
        if sort:  # run-heavy sequences exercise the collapse fast path
            addresses = sorted(addresses)
        line_bytes = 32
        capacity = line_bytes * ways * sets
        cache = SetAssociativeCache(capacity, line_bytes, ways)
        reference = [cache.access(address) for address in addresses]
        hits = simulate_lru_hits(np.array(addresses), capacity, line_bytes, ways)
        assert hits.tolist() == reference

    def test_skew_fallback_matches_reference_cache(self):
        # One set, many accesses: the rounds path degenerates and the
        # flat sequential pass must take over with identical results.
        rng = np.random.default_rng(0)
        addresses = rng.integers(0, 50, size=2000) * 64
        capacity, line_bytes, ways = 64 * 16, 64, 16  # a single 16-way set
        cache = SetAssociativeCache(capacity, line_bytes, ways)
        reference = [cache.access(int(address)) for address in addresses]
        hits = simulate_lru_hits(addresses, capacity, line_bytes, ways)
        assert hits.tolist() == reference

    def test_rejects_invalid_geometry_and_addresses(self):
        with pytest.raises(ValueError):
            simulate_lru_hits(np.array([0]), 100, 64, 8)
        with pytest.raises(ValueError):
            simulate_lru_hits(np.array([-1]), 1024, 64, 8)


# --------------------------------------------------------------------- #
# Columnar DRAM replay vs the object model
# --------------------------------------------------------------------- #


memory_requests = st.lists(
    st.tuples(
        st.integers(0, 70),  # row
        st.integers(1, 700),  # nbytes
        st.booleans(),  # keep_open_hint
        st.integers(0, 6),  # stream
    ),
    min_size=0,
    max_size=150,
)


class TestDRAMColumns:
    @given(memory_requests, st.sampled_from(list(PagePolicy)))
    @settings(max_examples=80, deadline=None)
    def test_process_columns_matches_process(self, rows, policy):
        requests = [
            MemoryRequest(row=row, nbytes=nbytes, keep_open_hint=keep, stream=stream)
            for row, nbytes, keep, stream in rows
        ]
        model = DRAMModel(DDR4Config(), page_policy=policy)
        assert model.process_columns(MemoryTrace.from_requests(requests)) == model.process(
            list(requests)
        )

    def test_rejects_nonpositive_bytes(self):
        model = DRAMModel()
        trace = MemoryTrace.from_requests([MemoryRequest(row=0, nbytes=0)])
        with pytest.raises(ValueError):
            model.process_columns(trace)

    def test_channel_split_preserves_order(self):
        requests = [MemoryRequest(row=row) for row in (0, 4, 1, 8, 5, 2, 12)]
        trace = MemoryTrace.from_requests(requests)
        channels = trace.split_channels(4)
        assert [shard.rows.tolist() for shard in channels] == [
            [0, 4, 8, 12],
            [1, 5],
            [2],
            [],
        ]


# --------------------------------------------------------------------- #
# Batched table/index queries vs their scalar forms
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def small_table():
    reference, _ = reference_and_queries(genome_length=700, seed=5)
    return ExmaTable(reference, k=4)


@pytest.fixture(scope="module")
def small_index(small_table):
    return MTLIndex(
        small_table, model_threshold=6, samples_per_kmer=24, epochs=25, seed=1
    )


@pytest.fixture(scope="module")
def small_naive_index(small_table):
    index = NaiveLearnedIndex(small_table, model_threshold=4, increments_per_leaf=2)
    # Some modelled k-mer must route through more than one leaf.
    assert max(small_table.frequency(p) for p in index.modelled_kmers) >= 4
    return index


class TestBatchedQueries:
    def test_occ_batch_matches_occ(self, small_table):
        rng = np.random.default_rng(2)
        kmers = rng.integers(0, small_table.kmer_count, size=600)
        positions = rng.integers(0, small_table.reference_length + 1, size=600)
        expected = [
            small_table.occ(int(kmer), int(pos))
            for kmer, pos in zip(kmers, positions)
        ]
        assert small_table.occ_batch(kmers, positions).tolist() == expected

    def test_occ_batch_validates_ranges(self, small_table):
        with pytest.raises(ValueError):
            small_table.occ_batch(np.array([0]), np.array([-1]))
        with pytest.raises(ValueError):
            small_table.occ_batch(np.array([small_table.kmer_count]), np.array([0]))

    @pytest.mark.parametrize("index_fixture", ["small_index", "small_naive_index"])
    def test_predict_many_matches_predict(self, small_table, index_fixture, request):
        index = request.getfixturevalue(index_fixture)
        rng = np.random.default_rng(3)
        modelled = np.array(index.modelled_kmers)
        assert modelled.size > 0
        n = small_table.reference_length
        kmers = modelled[rng.integers(0, modelled.size, size=400)]
        positions = rng.integers(0, n + 1, size=400)
        # Both list ends: before every increment and past the last one.
        kmers = np.concatenate([modelled, modelled, kmers])
        positions = np.concatenate(
            [np.zeros(modelled.size, np.int64), np.full(modelled.size, n), positions]
        )
        expected = [
            index.predict(int(kmer), int(pos)) for kmer, pos in zip(kmers, positions)
        ]
        assert index.predict_many(kmers, positions).tolist() == expected
        lookup = index.modelled_lookup(small_table.kmer_count)
        assert lookup.tolist() == [
            index.has_model(packed) for packed in range(small_table.kmer_count)
        ]

    def test_lookup_arrays_match_scalar_queries(self, small_table, small_index):
        modelled = small_index.modelled_lookup(small_table.kmer_count)
        buckets = small_index.bucket_lookup(small_table.kmer_count)
        for packed in range(small_table.kmer_count):
            assert modelled[packed] == small_index.has_model(packed)
            node_ids = small_index.node_ids_for(packed)
            if node_ids:
                assert buckets[packed] == node_ids[0]
            else:
                assert buckets[packed] == -1
        frequencies = small_table.frequency_batch(np.arange(small_table.kmer_count))
        assert frequencies.tolist() == [
            small_table.frequency(packed) for packed in range(small_table.kmer_count)
        ]


# --------------------------------------------------------------------- #
# End to end: columnar run/run_stream vs the object reference
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def workload():
    reference, _ = reference_and_queries(genome_length=900, seed=3)
    batches = [
        random_queries(reference, count=8, length=18, seed=40 + i) for i in range(3)
    ]
    return reference, batches


@pytest.fixture(scope="module")
def backends(workload):
    reference, _ = workload
    table = ExmaTable(reference, k=4)
    mtl = MTLIndex(table, model_threshold=8, samples_per_kmer=32, epochs=30, seed=0)
    return table, mtl, {
        "fmindex": FMIndexBackend(reference),
        "exma": ExmaBackend(table=table),
        "exma-learned": create_backend("exma-learned", reference, k=4, model_threshold=8),
        "exma-mtl": ExmaBackend(table=table, index=mtl),
        "lisa": LisaBackend(reference, k=3),
        "lisa-learned": LisaBackend(
            lisa_index=LisaIndex(reference, k=3, use_learned_index=True)
        ),
    }


def _config(two_stage: bool, policy: PagePolicy) -> ExmaAcceleratorConfig:
    return ExmaAcceleratorConfig().with_overrides(
        base_cache_bytes=2048,
        index_cache_bytes=1024,
        cam_entries=32,
        two_stage_scheduling=two_stage,
        page_policy=policy,
    )


@pytest.mark.parametrize("name", BACKEND_NAMES)
@pytest.mark.parametrize("two_stage", (True, False))
@pytest.mark.parametrize("policy", (PagePolicy.DYNAMIC, PagePolicy.CLOSE))
class TestRunEqualsReference:
    def test_run_field_for_field_equal(self, name, two_stage, policy, workload, backends):
        _, batches = workload
        table, mtl, backend_map = backends
        stream, _ = QueryEngine(backend_map[name]).request_stream(
            [query for batch in batches for query in batch]
        )
        accelerator = ExmaAccelerator(table, mtl, _config(two_stage, policy))
        columnar = accelerator.run(stream)
        reference = accelerator.run_reference(list(stream))
        assert columnar == reference

    def test_run_stream_flushes_equal_reference(
        self, name, two_stage, policy, workload, backends
    ):
        _, batches = workload
        table, mtl, backend_map = backends
        engine = QueryEngine(backend_map[name])
        streams = [engine.request_stream(batch)[0] for batch in batches]
        accelerator = ExmaAccelerator(table, mtl, _config(two_stage, policy))
        result = accelerator.run_windowed(streams, window=2)
        flushes = list(CoalescingWindow(2).stream(streams))
        expected = [
            accelerator.run_reference(
                list(flushed.requests),
                bases_processed=accelerator._bases_processed(flushed.issued),
            )
            for flushed in flushes
        ]
        assert result.flushes == expected


class TestRunWithoutIndex:
    def test_no_index_replay_matches_reference(self, workload, backends):
        _, batches = workload
        table, _, backend_map = backends
        stream, _ = QueryEngine(backend_map["exma"]).request_stream(batches[0])
        accelerator = ExmaAccelerator(
            table, None, _config(True, PagePolicy.DYNAMIC)
        )
        assert accelerator.run(stream) == accelerator.run_reference(list(stream))

    def test_empty_stream_matches_reference(self, backends):
        table, mtl, _ = backends
        accelerator = ExmaAccelerator(table, mtl, _config(True, PagePolicy.DYNAMIC))
        assert accelerator.run([]) == accelerator.run_reference([])

    def test_object_sequences_match_columnar_containers(self, workload, backends):
        # A plain OccRequest list replays identically to the columnar
        # stream carrying the same requests.
        _, batches = workload
        table, mtl, backend_map = backends
        stream, _ = QueryEngine(backend_map["exma-mtl"]).request_stream(batches[0])
        accelerator = ExmaAccelerator(table, mtl, _config(True, PagePolicy.DYNAMIC))
        assert accelerator.run(stream) == accelerator.run(list(stream))
