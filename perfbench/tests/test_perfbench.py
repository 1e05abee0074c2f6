"""The benchmark's own tests, at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import served
import sims
from common import BENCH_DIR, ROOT, WORK_DIR, comparable, tail
from layers import PER_LAYER, per_layer_values
from served_child import recover
from tracing import TARGETS, Recorder, Target

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER_DECLARED = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

TINY_SIMS = [
    replace(sims.MODERATION_DENSE, n_workers=60, ticks=3),
    replace(sims.MULTILINGUAL_CHURN, n_workers=120, ticks=3, skill_floor=0.5),
]
TINY_SERVED = replace(served.SERVED_SQLITE, n_workers=30, setups=2, rate_rps=20.0)

SIM_DETAIL = {
    "setup_s": "s",
    "round_p50_ms": "ms",
    "round_tail_ms": "ms",
    "rounds_per_s": "1/s",
    "tick_p50_ms": "ms",
    "tick_tail_ms": "ms",
    "results_per_s": "1/s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}
SERVED_DETAIL = {
    "setup_s": "s",
    "write_p50_ms": "ms",
    "write_tail_ms": "ms",
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
    "all_p50_ms": "ms",
    "all_tail_ms": "ms",
    "saturated_rps": "1/s",
    "recover_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


def _units(metrics: dict) -> dict[str, str]:
    return {name: entry["unit"] for name, entry in metrics.items()}


def test_benchmark_file_lists_the_emitted_per_layer_metrics():
    assert PER_LAYER_DECLARED == dict(PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        "moderation-dense",
        "multilingual-churn",
        "served-sqlite",
    ]


# -- every named metric, with its unit, for each workload -------------------------
@pytest.mark.parametrize("workload", TINY_SIMS, ids=lambda w: w.name)
def test_sim_workload_emits_every_metric(workload):
    outcome = sims.run(workload, seed=3, seconds=0.0)
    assert outcome["failed"] == 0, outcome["failures"]
    assert _units(outcome["contract"]) == END_TO_END
    assert _units(outcome["detail"]) == SIM_DETAIL
    assert all(entry["value"] > 0 for entry in outcome["contract"].values())

    traced = sims.run_traced(workload, seed=3, seconds=0.0)
    assert traced["failed"] == 0, traced["failures"]
    assert _units(traced["layers"]) == PER_LAYER_DECLARED
    assert traced["layers"]["layer.sim.s"]["value"] > 0
    assert traced["layers"]["storage.backend.mutations"]["value"] == 0


def test_served_workload_emits_every_metric():
    outcome = served.run(TINY_SERVED, seed=3, seconds=2.0)
    assert outcome["failed"] == 0, outcome["failures"]
    assert _units(outcome["contract"]) == END_TO_END
    assert _units(outcome["detail"]) == SERVED_DETAIL
    assert all(entry["value"] > 0 for entry in outcome["contract"].values())

    traced = served.run_traced(replace(TINY_SERVED, setups=1), seed=3, seconds=2.0)
    assert traced["failed"] == 0, traced["failures"]
    layers = traced["layers"]
    assert _units(layers) == PER_LAYER_DECLARED
    assert layers["storage.backend.mutations"]["value"] > 0
    assert layers["serving.apply_ops.calls"]["value"] > 0
    assert layers["sim.behavior.calls"]["value"] == 0
    assert list(WORK_DIR.glob(f"served-{os.getpid()}-*")) == []


def test_closed_loop_keeps_the_step_and_probe_cadence():
    info = {"project_id": "p", "workers": ["w1"], "eligible": {"t1": ["w1"]}}
    requests = served.Traffic(TINY_SERVED, 1, info).closed_requests(60)
    assert requests.count(served.STEP) == requests.count(served.HEALTHZ) == 3
    assert {r.path for r in requests} >= {"/tasks/t1/interest", "/workers/w1/page"}


# -- tampered outputs fail the checks -----------------------------------------------
def test_tampered_digest_fails_the_sim_check():
    episode = sims.play_episode(TINY_SIMS[0], seed=5)
    assert sims.play_episode(TINY_SIMS[0], seed=5).digest == episode.digest
    other = replace(episode, seed=6, digest="1" * 64)
    assert sims.check_episodes([episode, other, replace(episode)]) == []
    tampered = replace(episode, digest="0" * 64)
    failures = sims.check_episodes([episode, other, tampered])
    assert len(failures) == 1 and "digest" in failures[0]


def test_rounds_cover_the_ticks_and_the_injection_between_them():
    workload = TINY_SIMS[1]
    episode = sims.play_episode(workload, seed=5)
    assert len(episode.round_seconds) == len(episode.tick_seconds) == workload.ticks
    assert all(r >= t for r, t in zip(episode.round_seconds, episode.tick_seconds))
    assert episode.round_seconds[-1] == episode.tick_seconds[-1]


def test_episode_seeds_repeat_only_the_first():
    assert sims.episode_seeds(7, 4) == [7000, 7001, 7002, 7000]
    assert sims.episode_seeds(7, 1) == [7000]


def test_tampered_dump_fails_the_recovery_check(tmp_path):
    from repro.config import RuntimeConfig
    from repro.storage import dump_canonical

    from served_child import build_platform

    config = RuntimeConfig(backend="sqlite", path=tmp_path / "p.sqlite")
    platform, _, _ = build_platform(config, seed=2, n_workers=12, n_items=2)
    before = dump_canonical(platform.db)
    platform.close()
    times, equal = recover(config, 2, before)
    assert equal and len(times) == 3
    _, equal = recover(config, 2, before.replace(b"worker", b"w0rker", 1))
    assert not equal


def test_shutdown_checks_catch_each_mismatch():
    good = {
        "applied_equals_admitted": True,
        "serving": {"applied": 10, "op_errors": 1},
        "recovered_equal": True,
    }
    assert served.shutdown_checks(good, writes_ok=9) == []
    assert len(served.shutdown_checks(good, writes_ok=8)) == 1
    assert len(served.shutdown_checks({**good, "recovered_equal": False}, 9)) == 1
    assert len(served.shutdown_checks({**good, "applied_equals_admitted": False}, 9)) == 1


# -- span arithmetic ------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_on_a_synthetic_nest():
    clock = FakeClock()
    recorder = Recorder(clock)

    def leaf():
        clock.now += 1.0

    def inner():
        clock.now += 2.0
        hot()
        hot()
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        inner_span()
        clock.now += 4.0
        hot()

    hot = recorder.wrap(leaf, Target("m", "leaf", "storage.insert"))
    inner_span = recorder.wrap(inner, Target("m", "inner", "core.step", span=True))
    outer_span = recorder.wrap(outer, Target("m", "outer", "sim.tick", span=True))
    outer_span()

    spans = {span["name"]: span for span in recorder.spans}
    # outer: 3 + (inner 4.5) + 4 + hot 1 = 12.5 total, self 7
    assert spans["sim.tick"]["end"] - spans["sim.tick"]["start"] == 12.5
    assert spans["sim.tick"]["self_s"] == 7.0
    # inner: 2 + 1 + 1 + 0.5 = 4.5 total, self 2.5
    assert spans["core.step"]["self_s"] == 2.5
    assert spans["core.step"]["parent"] == spans["sim.tick"]["id"]
    assert spans["core.step"]["root"] == spans["sim.tick"]["id"]
    assert recorder.aggregates[("core.step", "storage.insert")] == [2, 2.0, 2.0, 0]
    assert recorder.aggregates[("sim.tick", "storage.insert")] == [1, 1.0, 1.0, 0]
    by_name = recorder.by_name()
    total_self = sum(entry["self_s"] for entry in by_name.values())
    assert total_self == 12.5  # self times partition the root span exactly

    values = per_layer_values(by_name, basis_s=12.5, overhead_s=0.0)
    assert values["layer.sim.s"] == 7.0
    assert values["layer.core.s"] == 2.5
    assert values["storage.insert.s"] == 3.0
    assert values["trace.attributed_share"] == 1.0


# -- wrappers are temporary -------------------------------------------------------------
def _originals():
    return {t: t.resolve().__dict__[t.attr] for t in TARGETS}


def test_wrappers_restore_the_original_functions():
    before = _originals()
    recorder = Recorder()
    with recorder.installed():
        during = _originals()
        assert all(during[t] is not before[t] for t in TARGETS)
    assert _originals() == before

    with pytest.raises(RuntimeError):
        with recorder.installed():
            raise RuntimeError("boom")
    assert _originals() == before


def test_tick_start_hook_is_removed():
    from repro.sim.driver import SimulationDriver

    original = SimulationDriver.__dict__["tick"]
    with sims.tick_starts():
        assert SimulationDriver.__dict__["tick"] is not original
    assert SimulationDriver.__dict__["tick"] is original
    assert sims.time_setup(TINY_SIMS[0], seed=1) > 0  # stopped at its first tick
    assert SimulationDriver.__dict__["tick"] is original


# -- statistics and fingerprints -----------------------------------------------------------
def test_tail_leaves_ten_samples_above():
    samples = [float(i) for i in range(100)]
    value, pct, count = tail(samples)
    assert value == 89.0 and count == 100
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(100 * 89 / 99, abs=0.01)
    assert tail([3.0, 1.0, 2.0])[0] == 1.0


def test_fingerprints_differing_in_cores_are_not_comparable():
    base = {"nproc": 2, "python": "3.11.7", "platform": "x", "workload": "w",
            "params": {"n": 1}, "seed": 1, "git_commit": "a"}
    assert comparable(base, {**base, "seed": 2, "git_commit": "b"}) == []
    assert comparable(base, {**base, "nproc": 1}) == ["nproc"]


# -- the command fails cleanly where the program is missing --------------------------------
def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / BENCH_DIR.name,
        ignore=shutil.ignore_patterns("__pycache__", ".work", "results"),
    )
    result = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "moderation-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout.strip() == ""
