"""Result cache: hits are bit-identical, corruption is self-healing."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.core.timing import TimingParams
from repro.eval import workloads
from repro.serve import (
    CACHE_SCHEMA,
    ConvPointJob,
    ResultCache,
    ScalingJob,
    SelfTestJob,
    SimulationService,
    cache_key,
    cache_key_parts,
    open_cache,
)

PARTS = {"schema": CACHE_SCHEMA, "kind": "test", "spec": "s",
         "program": "p", "config": "c"}
PAYLOAD = {"cycles": 1234, "nested": {"list": [1, 2, 3]}}


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestStoreLoad:
    def test_round_trip_bit_identical(self, cache):
        key = cache_key(PARTS)
        cache.put(key, PARTS, PAYLOAD)
        loaded = cache.get(key)
        assert loaded == PAYLOAD
        assert json.dumps(loaded, sort_keys=True) == \
            json.dumps(PAYLOAD, sort_keys=True)
        assert cache.stats() == {"hits": 1, "misses": 0, "evictions": 0,
                                 "pruned": 0}

    def test_cold_miss(self, cache):
        assert cache.get("0" * 64) is None
        assert cache.stats()["misses"] == 1

    def test_entry_is_sharded_by_prefix(self, cache):
        key = cache_key(PARTS)
        path = cache.put(key, PARTS, PAYLOAD)
        assert path.parent.name == key[:2]

    def test_distinct_parts_distinct_keys(self):
        keys = {cache_key({**PARTS, field: "changed"}) for field in PARTS}
        keys.add(cache_key(PARTS))
        assert len(keys) == len(PARTS) + 1


class TestCorruption:
    def _stored(self, cache):
        key = cache_key(PARTS)
        path = cache.put(key, PARTS, PAYLOAD)
        return key, path

    def test_unreadable_json_evicted(self, cache):
        key, path = self._stored(cache)
        path.write_text("{ not json")
        assert cache.get(key) is None
        assert not path.exists()
        assert cache.stats()["evictions"] == 1

    def test_payload_tamper_evicted(self, cache):
        key, path = self._stored(cache)
        entry = json.loads(path.read_text())
        entry["payload"]["cycles"] = 9999  # checksum now stale
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None
        assert not path.exists()

    def test_schema_drift_evicted(self, cache):
        key, path = self._stored(cache)
        entry = json.loads(path.read_text())
        entry["schema"] = "repro-cache/0"
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None

    def test_key_mismatch_evicted(self, cache):
        key, path = self._stored(cache)
        other = "f" * 64
        target = cache.entry_path(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        path.rename(target)
        assert cache.get(other) is None

    def test_eviction_removes_artifacts(self, cache):
        key, path = self._stored(cache)
        artifact = cache.write_artifact(key, "trace.json", {"ev": []})
        path.write_text("broken")
        cache.get(key)
        assert not artifact.exists()

    def test_recompute_after_eviction(self, cache):
        key, path = self._stored(cache)
        path.write_text("broken")
        assert cache.get(key) is None
        cache.put(key, PARTS, PAYLOAD)
        assert cache.get(key) == PAYLOAD


class TestArtifacts:
    def test_named_artifacts_round_trip(self, cache):
        key = cache_key(PARTS)
        cache.write_artifact(key, "trace.json", {"traceEvents": []})
        cache.write_artifact(key, "notes.txt", "hello")
        found = cache.artifacts_for(key)
        assert sorted(found) == ["notes.txt", "trace.json"]
        assert json.loads(open(found["trace.json"]).read()) == {
            "traceEvents": []}

    def test_path_escape_rejected(self, cache):
        from repro.serve import ServeError

        with pytest.raises(ServeError):
            cache.write_artifact("k" * 64, "../escape", {})
        with pytest.raises(ServeError):
            cache.write_artifact("k" * 64, ".hidden", {})


class TestBounding:
    """LRU pruning: hits refresh the access clock, cold entries age out."""

    def _populate(self, cache, count=3):
        keys = []
        for i in range(count):
            parts = {**PARTS, "config": f"c{i}"}
            key = cache_key(parts)
            path = cache.put(key, parts, {"value": i})
            # Stamp distinct, strictly increasing access times so LRU
            # order is deterministic regardless of filesystem clock
            # resolution.
            os.utime(path, (1000 + i, 1000 + i))
            keys.append(key)
        return keys

    def test_entries_sorted_oldest_access_first(self, cache):
        keys = self._populate(cache)
        assert [p.stem for p in cache.entries()] == keys

    def test_disk_stats_counts_entries_and_artifacts(self, cache):
        keys = self._populate(cache, count=2)
        before = cache.disk_stats()
        cache.write_artifact(keys[0], "trace.json", {"traceEvents": []})
        after = cache.disk_stats()
        assert before["entries"] == after["entries"] == 2
        assert after["bytes"] > before["bytes"]

    def test_prune_evicts_oldest_first(self, cache):
        keys = self._populate(cache)
        budget = cache._entry_bytes(cache.entry_path(keys[2]))
        outcome = cache.prune(budget)
        assert outcome["removed"] == 2
        assert outcome["bytes_kept"] <= budget
        assert cache.get(keys[2]) == {"value": 2}
        assert cache.get(keys[0]) is None
        assert cache.get(keys[1]) is None

    def test_hit_refreshes_access_clock(self, cache):
        keys = self._populate(cache)
        assert cache.get(keys[0]) == {"value": 0}   # warm the oldest
        budget = cache._entry_bytes(cache.entry_path(keys[0]))
        cache.prune(budget)
        # The just-hit entry survived; the unrefreshed ones aged out.
        assert cache.get(keys[0]) == {"value": 0}
        assert cache.get(keys[1]) is None
        assert cache.get(keys[2]) is None

    def test_prune_removes_artifacts_with_entry(self, cache):
        keys = self._populate(cache, count=1)
        artifact = cache.write_artifact(keys[0], "trace.json", {"ev": 1})
        cache.prune(0)
        assert not artifact.exists()
        assert not cache.artifact_dir(keys[0]).exists()

    def test_prune_bookkeeping(self, cache):
        self._populate(cache)
        outcome = cache.prune(0)
        assert outcome["removed"] == 3
        assert outcome["bytes_kept"] == 0
        assert cache.stats()["pruned"] == 3
        assert cache.stats()["evictions"] == 3
        # Pruning under budget is a no-op.
        assert cache.prune(10**9)["removed"] == 0

    def test_negative_budget_rejected(self, cache):
        from repro.serve import ServeError

        with pytest.raises(ServeError):
            cache.prune(-1)

    def test_empty_store_prunes_cleanly(self, cache):
        assert cache.prune(0) == {"removed": 0, "bytes_freed": 0,
                                  "bytes_kept": 0}
        assert cache.disk_stats() == {"entries": 0, "bytes": 0}


class TestOpenCache:
    def test_disabled_returns_none(self):
        assert open_cache(enabled=False) is None

    def test_env_override(self, tmp_path, monkeypatch):
        from repro.serve import CACHE_ENV

        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "elsewhere"))
        cache = open_cache()
        assert cache.root == tmp_path / "elsewhere"

    def test_explicit_path_wins(self, tmp_path, monkeypatch):
        from repro.serve import CACHE_ENV

        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "env"))
        cache = open_cache(str(tmp_path / "explicit"))
        assert cache.root == tmp_path / "explicit"


class TestServiceIntegration:
    """The acceptance criteria: identical sweep twice = 100% hits."""

    JOBS = [ScalingJob(bits=bits, cores=cores, out_ch=32, reduction=64)
            for bits in (8, 4) for cores in (1, 2)]

    def test_identical_rerun_all_hits_bit_identical(self, tmp_path):
        service = SimulationService(cache=ResultCache(tmp_path / "c"))
        first = service.run(self.JOBS, label="one")
        second = service.run(self.JOBS, label="two")
        assert first.ok and second.ok
        assert first.cached_count == 0
        assert second.cached_count == len(self.JOBS)
        assert second.stats["cache"]["hits"] == len(self.JOBS)
        for a, b in zip(first.results, second.results):
            assert a.payload == b.payload  # bit-identical via JSON ints

    def test_spec_or_config_change_misses(self, tmp_path):
        service = SimulationService(cache=ResultCache(tmp_path / "c"))
        job = ScalingJob(bits=4, cores=2, out_ch=32, reduction=64)
        service.run([job])
        report = service.run([ScalingJob(bits=4, cores=2, out_ch=32,
                                         reduction=128)])
        assert report.cached_count == 0

    def test_timing_change_misses(self, tmp_path, monkeypatch):
        service = SimulationService(cache=ResultCache(tmp_path / "c"))
        job = ConvPointJob(bits=4)
        cached = service.run([job]).results[0].payload["cycles"]

        default_init = TimingParams.__init__

        def slower_load_use(self, *args, **kwargs):
            kwargs.setdefault("load_use_penalty", 3)
            default_init(self, *args, **kwargs)

        monkeypatch.setattr(TimingParams, "__init__", slower_load_use)
        workloads._point_for.cache_clear()     # the in-process memo
        report = service.run([job])
        workloads._point_for.cache_clear()
        assert report.ok
        assert report.cached_count == 0
        assert report.results[0].payload["cycles"] > cached

    def test_corrupt_entry_recomputed_through_service(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        service = SimulationService(cache=cache)
        job = ScalingJob(bits=4, cores=1, out_ch=32, reduction=64)
        first = service.run([job])
        key = cache_key(cache_key_parts(job))
        cache.entry_path(key).write_text("garbage")
        second = service.run([job])
        assert second.ok
        assert second.cached_count == 0          # recomputed...
        assert cache.stats()["evictions"] == 1   # ...after self-healing
        assert second.results[0].payload == first.results[0].payload
        third = service.run([job])
        assert third.cached_count == 1           # and cached again

    def test_uncacheable_jobs_bypass_cache(self, tmp_path):
        service = SimulationService(cache=ResultCache(tmp_path / "c"))
        job = SelfTestJob(mode="ok", value=3)
        service.run([job])
        report = service.run([job])
        assert report.cached_count == 0
        assert report.stats["cache"] == {"hits": 0, "misses": 0,
                                         "evictions": 0, "pruned": 0}


#: One tiny ConvPointJob into the cache dir given as argv[1]; prints the
#: served instruction count and whether it came from the cache.
_CONVPOINT_SCRIPT = """
import json, sys
from repro.serve import ConvPointJob, ResultCache, SimulationService
service = SimulationService(cache=ResultCache(sys.argv[1]))
report = service.run([ConvPointJob(bits=4, geometry=(6, 6, 16, 8, 3, 3, 1, 1))])
assert report.ok, report
print(json.dumps({"cached": report.cached_count,
                  "instructions": report.results[0].payload["instructions"]}))
"""


def test_simulator_source_edit_misses(tmp_path):
    """A result cached by one simulator build is never served to a
    build whose source differs, even when no program, spec or timing
    parameter changed."""
    src = tmp_path / "src"
    shutil.copytree(Path(repro.__file__).parent, src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(src), "REPRO_ENGINE": "interp"}
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_FULL", None)

    def serve():
        done = subprocess.run(
            [sys.executable, "-c", _CONVPOINT_SCRIPT, str(tmp_path / "c")],
            env=env, cwd=tmp_path, capture_output=True, text=True,
            check=True)
        return json.loads(done.stdout.splitlines()[-1])

    first = serve()
    assert first["cached"] == 0
    assert serve() == {**first, "cached": 1}

    # Retire every interpreted instruction twice: a semantic edit that
    # touches no key part other than the simulator source.
    cpu_py = src / "repro" / "core" / "cpu.py"
    text = cpu_py.read_text()
    assert "perf.instructions += 1" in text
    cpu_py.write_text(text.replace("perf.instructions += 1",
                                   "perf.instructions += 2", 1))
    edited = serve()
    assert edited["cached"] == 0
    assert edited["instructions"] == 2 * first["instructions"]
