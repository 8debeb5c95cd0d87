"""ResultCache eviction/GC and the ``repro cache`` CLI subcommand."""

import os
import time

import pytest

from repro.cli import main
from repro.experiments.config import tiny_scenario
from repro.experiments.runner import run_scenario
from repro.sweep import ResultCache, SweepTask


@pytest.fixture(scope="module")
def result():
    return run_scenario(tiny_scenario(num_apps=2, seed=5), "fifo")


def task_for(seed: int) -> SweepTask:
    return SweepTask(scenario=tiny_scenario(num_apps=2, seed=seed), scheduler="fifo")


def fill(cache: ResultCache, result, count: int) -> list[SweepTask]:
    tasks = [task_for(seed) for seed in range(count)]
    for index, task in enumerate(tasks):
        path = cache.store(task, result)
        # Space the mtimes out so age ordering is unambiguous.
        stamp = time.time() - (count - index) * 1000.0
        os.utime(path, (stamp, stamp))
    return tasks


def test_entries_oldest_first(tmp_path, result):
    cache = ResultCache(tmp_path)
    fill(cache, result, 3)
    entries = cache.entries()
    assert len(entries) == 3
    assert [e.modified for e in entries] == sorted(e.modified for e in entries)
    header = entries[0].describe()
    assert header["schema_version"] == cache.schema_version
    assert header["scheduler"] == "fifo"
    assert header["task_id"].endswith("/fifo")


def test_prune_by_age(tmp_path, result):
    cache = ResultCache(tmp_path)
    fill(cache, result, 4)
    # Entries are 1000s apart ending ~1000s ago; cut at 2500s keeps 2.
    stats = cache.prune(max_age_seconds=2500.0)
    assert stats.removed == 2
    assert stats.kept == 2
    assert len(cache) == 2


def test_prune_by_entry_count_evicts_oldest(tmp_path, result):
    cache = ResultCache(tmp_path)
    tasks = fill(cache, result, 4)
    stats = cache.prune(max_entries=1)
    assert stats.removed == 3
    assert len(cache) == 1
    # The newest entry survives and still loads.
    assert cache.load(tasks[-1]) is not None
    assert cache.load(tasks[0]) is None


def test_prune_by_size(tmp_path, result):
    cache = ResultCache(tmp_path)
    fill(cache, result, 3)
    def total_bytes():
        return sum(entry.size_bytes for entry in cache.entries())

    per_entry = total_bytes() // 3
    stats = cache.prune(max_total_bytes=per_entry * 2)
    assert stats.removed == 1
    assert total_bytes() <= per_entry * 2


def test_prune_sweeps_orphaned_tmp_files(tmp_path, result):
    cache = ResultCache(tmp_path)
    orphan = tmp_path / ".tmp-orphan.json"
    orphan.write_text("{}")
    old = time.time() - 7200.0
    os.utime(orphan, (old, old))
    fresh = tmp_path / ".tmp-fresh.json"
    fresh.write_text("{}")
    stats = cache.prune()
    assert stats.tmp_removed == 1
    assert not orphan.exists()
    assert fresh.exists()  # a live writer's file is left alone


def test_prune_without_bounds_keeps_everything(tmp_path, result):
    cache = ResultCache(tmp_path)
    fill(cache, result, 2)
    stats = cache.prune()
    assert stats.removed == 0
    assert len(cache) == 2


def test_cache_cli_stats_list_prune(tmp_path, result, capsys):
    cache = ResultCache(tmp_path)
    fill(cache, result, 3)
    assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "3 entries" in out
    assert f"schema version: {cache.schema_version}" in out

    assert main(["cache", "list", "--dir", str(tmp_path), "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "task_id" in out
    assert out.count("/fifo") == 2

    assert main(["cache", "prune", "--dir", str(tmp_path), "--max-entries", "1"]) == 0
    out = capsys.readouterr().out
    assert "pruned 2 entries" in out
    assert len(cache) == 1


def test_prune_rejects_negative_bounds(tmp_path, result):
    cache = ResultCache(tmp_path)
    fill(cache, result, 2)
    for kwargs in (
        {"max_entries": -1},
        {"max_age_seconds": -5.0},
        {"max_total_bytes": -1},
    ):
        with pytest.raises(ValueError):
            cache.prune(**kwargs)
    assert len(cache) == 2  # nothing was deleted on the error path


def test_cache_cli_negative_prune_bound(tmp_path, result, capsys):
    cache = ResultCache(tmp_path)
    fill(cache, result, 2)
    code = main(["cache", "prune", "--dir", str(tmp_path), "--max-entries", "-1"])
    assert code == 2
    assert "must be >= 0" in capsys.readouterr().err
    assert len(cache) == 2


def test_cache_cli_missing_directory(tmp_path, capsys):
    assert main(["cache", "stats", "--dir", str(tmp_path / "nope")]) == 2
    assert "no cache directory" in capsys.readouterr().err
