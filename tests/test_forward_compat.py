"""Forward-compatible deserialisation: schema growth must not raise.

Before this suite existed, ``SimulationConfig.from_json`` /
``AppStats.from_json`` raised ``TypeError``/``KeyError`` on any unknown
or missing key, so every schema addition loudly invalidated old caches
*and* made old builds crash on new payloads.  The contract now: unknown
keys are ignored, missing new fields take their dataclass defaults.
"""

import pytest

from repro.experiments.config import tiny_scenario
from repro.experiments.runner import run_scenario
from repro.simulation.simulator import (
    AppStats,
    SimulationConfig,
    SimulationResult,
)


@pytest.fixture(scope="module")
def result():
    return run_scenario(tiny_scenario(num_apps=2, seed=9), "fifo")


def test_config_ignores_unknown_keys():
    payload = SimulationConfig().to_json()
    payload["knob_from_the_future"] = 42
    restored = SimulationConfig.from_json(payload)
    assert restored == SimulationConfig()


def test_config_defaults_missing_new_keys():
    payload = SimulationConfig(lease_minutes=7.0).to_json()
    # An old payload written before ``downsample`` existed.
    del payload["downsample"]
    restored = SimulationConfig.from_json(payload)
    assert restored.lease_minutes == 7.0
    assert restored.downsample is None


def test_app_stats_ignore_unknown_and_default_missing(result):
    stats = result.app_stats[0]
    payload = stats.to_json()
    payload["metric_from_the_future"] = {"nested": True}
    assert AppStats.from_json(payload) == stats
    # Old payloads predate gpu_time_by_type: it must default, not raise.
    old_payload = stats.to_json()
    del old_payload["gpu_time_by_type"]
    restored = AppStats.from_json(old_payload)
    assert restored.gpu_time_by_type == {}
    assert restored.rho == stats.rho


def test_simulation_result_tolerates_old_and_new_payloads(result):
    payload = result.to_json()
    # Old payload: no per-type fields anywhere.
    del payload["cluster_gpus_by_type"]
    del payload["gpu_time_by_type"]
    for stats in payload["app_stats"]:
        del stats["gpu_time_by_type"]
    restored = SimulationResult.from_json(payload)
    assert restored.cluster_gpus_by_type == {}
    assert restored.gpu_time_by_type == {}
    assert restored.rhos() == result.rhos()

    # New payload with extra keys a future build might add.
    future = result.to_json()
    future["config"]["future_knob"] = 1
    for stats in future["app_stats"]:
        stats["future_metric"] = 0.0
    restored = SimulationResult.from_json(future)
    assert restored.config == result.config
    assert restored.stats_by_app().keys() == result.stats_by_app().keys()


def test_parent_payloads_carrying_the_incremental_flag_still_load(result, tmp_path):
    """``SimulationConfig.incremental`` is gone; what was written with it loads.

    The field was never part of ``ScenarioConfig``, so cache keys did
    not move and the sweep cache schema version did not need a bump:
    a warm cache written by the previous build stays warm.
    """
    import json

    from repro.sweep import ResultCache, SweepTask
    from repro.sweep.cache import SCHEMA_VERSION

    payload = result.to_json()
    payload["config"]["incremental"] = True  # as written at e0dc2ec
    restored = SimulationResult.from_json(payload)
    assert restored.config == result.config
    assert "incremental" not in restored.to_json()["config"]

    task = SweepTask(
        tiny_scenario(num_apps=2, seed=9), "themis", (("fairness_knob", 0.5),)
    )
    # fingerprint() of this very task, computed at e0dc2ec.
    assert task.fingerprint() == (
        "1c40e9370ca7ce16644d9372992003b1c658265739e727715750607cca2f5c2a"
    )
    assert SCHEMA_VERSION == 4
    cache = ResultCache(tmp_path)
    path = cache.store(task, result)
    entry = json.loads(path.read_text())
    entry["result"]["config"]["incremental"] = True
    path.write_text(json.dumps(entry))
    loaded = cache.load(task)
    assert loaded is not None and cache.hits == 1
    assert loaded.to_json() == result.to_json()
