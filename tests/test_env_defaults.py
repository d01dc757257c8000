"""Defensive parsing of the engine's environment toggles.

A long-lived serving process must never crash (or spam its log) because
an operator exported ``REPRO_DEFAULT_SHARDS=auto`` or typo'd the executor
name: malformed values warn exactly once per process and fall back to the
safe serial/thread defaults.
"""

from __future__ import annotations

import warnings

import pytest

import repro.engine.pool as pool
import repro.engine.sharded as sharded
from repro.engine.backends import FMIndexBackend
from repro.engine.engine import QueryEngine
from repro.engine.pool import default_executor
from repro.engine.sharded import default_shards


@pytest.fixture(autouse=True)
def fresh_warn_state():
    """Each test sees virgin warn-once state (it is per-process otherwise)."""
    saved = set(pool._WARNED_ENV_VALUES)
    pool._WARNED_ENV_VALUES.clear()
    yield
    pool._WARNED_ENV_VALUES.clear()
    pool._WARNED_ENV_VALUES.update(saved)


class TestDefaultShards:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv(sharded.SHARDS_ENV, raising=False)
        assert default_shards() == 1

    def test_blank_means_serial(self, monkeypatch):
        monkeypatch.setenv(sharded.SHARDS_ENV, "   ")
        assert default_shards() == 1

    def test_valid_value_parses_with_whitespace(self, monkeypatch):
        monkeypatch.setenv(sharded.SHARDS_ENV, " 8 ")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning is a failure
            assert default_shards() == 8

    @pytest.mark.parametrize("raw", ["abc", "3.5", "4 shards", ""])
    def test_malformed_value_warns_and_falls_back(self, monkeypatch, raw):
        monkeypatch.setenv(sharded.SHARDS_ENV, raw)
        if not raw.strip():
            assert default_shards() == 1
            return
        with pytest.warns(RuntimeWarning, match="malformed"):
            assert default_shards() == 1

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_non_positive_value_warns_and_falls_back(self, monkeypatch, raw):
        monkeypatch.setenv(sharded.SHARDS_ENV, raw)
        with pytest.warns(RuntimeWarning, match="non-positive"):
            assert default_shards() == 1

    def test_warns_once_per_value(self, monkeypatch):
        monkeypatch.setenv(sharded.SHARDS_ENV, "bogus")
        with pytest.warns(RuntimeWarning):
            default_shards()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_shards() == 1  # second read: silent fallback
        # A *different* bad value still gets its own warning.
        monkeypatch.setenv(sharded.SHARDS_ENV, "also-bogus")
        with pytest.warns(RuntimeWarning):
            default_shards()


class TestDefaultExecutor:
    def test_unset_means_thread(self, monkeypatch):
        monkeypatch.delenv(pool.EXECUTOR_ENV, raising=False)
        assert default_executor() == "thread"

    def test_known_values_normalise(self, monkeypatch):
        for raw, expected in [("thread", "thread"), (" Process ", "process"), ("THREAD", "thread")]:
            monkeypatch.setenv(pool.EXECUTOR_ENV, raw)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert default_executor() == expected

    def test_unknown_value_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(pool.EXECUTOR_ENV, "greenlet")
        with pytest.warns(RuntimeWarning, match="thread, process"):
            assert default_executor() == "thread"

    def test_warns_once_per_value(self, monkeypatch):
        monkeypatch.setenv(pool.EXECUTOR_ENV, "fiber")
        with pytest.warns(RuntimeWarning):
            default_executor()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_executor() == "thread"


class TestEngineUnderBadEnv:
    def test_engine_construction_survives_malformed_env(self, monkeypatch):
        """The regression this PR fixes: a bad toggle pair must yield a
        working serial engine, not an exception at construction."""
        monkeypatch.setenv(sharded.SHARDS_ENV, "not-a-number")
        monkeypatch.setenv(pool.EXECUTOR_ENV, "greenlet")
        with pytest.warns(RuntimeWarning):
            engine = QueryEngine(FMIndexBackend("ACGTACGTACGT"))
            result = engine.search_batch(["ACGT", "TTTT"])
            assert engine.shards == 1 and engine.executor == "thread"
        assert len(result.intervals) == 2
