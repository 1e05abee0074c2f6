"""The two simulation workloads: the E15 scenario packs, timed from outside.

One *episode* is one complete pack run from an empty platform: build the
population, register the project, bootstrap the driver, then play the
ticks.  A run plays a fixed number of episodes.  Each episode gets its own
pack seed derived from ``--seed`` (:func:`episode_seeds`), because the
work in a pack tick depends on its seed as much as on the code; the last
episode repeats the first one's seed, and the two output digests must
agree.

A *round* is what one pack tick costs end to end: the pack's injection
(streamed facts, churn arrivals and departures, revocations, each of which
may run the CyLog engine eagerly) and then ``SimulationDriver.tick``.  Its
time is the interval between consecutive tick starts; the last round is
the last tick alone, and tick 0's injection counts in the set-up.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import time
from dataclasses import asdict, dataclass
from typing import Any, Iterator

from common import median, metric, peak_rss_mb, tail
from layers import as_metrics, engine_counters, per_layer_values
from tracing import Recorder, Target


@dataclass(frozen=True)
class SimWorkload:
    """One pack at one size.  ``episode_s`` is the budget one episode is
    given when ``--seconds`` is turned into an episode count, so the count
    (and the sample count behind every percentile) depends on the
    arguments only, never on how fast the program ran."""

    name: str
    pack: str
    n_workers: int
    ticks: int
    skill_floor: float
    episode_s: float
    #: Extra set-ups per run, each stopped at the first tick, so that
    #: ``setup_s`` is a median over more samples than there are episodes.
    extra_setups: int

    def params(self) -> dict[str, Any]:
        params = asdict(self)
        del params["name"]
        params["delta"] = True
        params["backend"] = "memory"
        return params

    def episodes(self, seconds: float) -> int:
        return max(3, int(seconds // self.episode_s))

    def pack_function(self):
        from repro.apps import run_moderation_pack, run_multilingual_pack

        return {
            "moderation": run_moderation_pack,
            "multilingual": run_multilingual_pack,
        }[self.pack]


MODERATION_DENSE = SimWorkload(
    name="moderation-dense",
    pack="moderation",
    n_workers=2000,
    # 14 ticks: the storm at tick 12 and one more batch, so root tasks are
    # still pending when the final cross-checked round runs.
    ticks=14,
    skill_floor=0.05,
    episode_s=4.0,
    extra_setups=5,
)

MULTILINGUAL_CHURN = SimWorkload(
    name="multilingual-churn",
    pack="multilingual",
    n_workers=10000,
    ticks=40,
    skill_floor=0.93,
    episode_s=5.0,
    extra_setups=1,
)


class SetupDone(Exception):
    """Stops a set-up-only pack run at its first tick."""


@contextlib.contextmanager
def tick_starts(stop: bool = False) -> Iterator[list[float]]:
    """Note the start time of every ``SimulationDriver.tick`` call (the
    driver itself records only durations); with ``stop`` the first tick
    raises :class:`SetupDone` instead of running.  Restores the method."""
    from repro.sim.driver import SimulationDriver

    original = SimulationDriver.__dict__["tick"]
    starts: list[float] = []

    def tick(self, *args, **kwargs):
        starts.append(time.perf_counter())
        if stop:
            raise SetupDone
        return original(self, *args, **kwargs)

    SimulationDriver.tick = tick
    try:
        yield starts
    finally:
        SimulationDriver.tick = original


def episode_seeds(seed: int, count: int) -> list[int]:
    """Pack seeds for ``count`` episodes: distinct ones, then the first
    again so that one pair of episodes must produce identical outputs."""
    seeds = [seed * 1000 + k for k in range(max(1, count - 1))]
    return seeds + seeds[:1] if count > 1 else seeds


@dataclass
class Episode:
    seed: int
    setup_s: float
    wall_s: float
    tick_seconds: list[float]
    round_seconds: list[float]
    results: int
    interest_declared: int
    digest: str
    check_error: str | None
    layer_extra: dict[str, float]


def pack_kwargs(workload: SimWorkload, seed: int) -> dict[str, Any]:
    return dict(
        n_workers=workload.n_workers,
        ticks=workload.ticks,
        seed=seed,
        delta=True,
        skill_floor=workload.skill_floor,
    )


def time_setup(workload: SimWorkload, seed: int) -> float:
    """Seconds from calling the pack to its first tick, which is not run."""
    pack = workload.pack_function()
    gc.collect()
    with tick_starts(stop=True) as starts:
        started = time.perf_counter()
        try:
            pack(**pack_kwargs(workload, seed))
        except SetupDone:
            pass
    return starts[0] - started


def play_episode(
    workload: SimWorkload, seed: int, recorder: Recorder | None = None
) -> Episode:
    """One pack run; timing and stats are read before the output checks
    (a cross-checked platform round, then the storage digest) run."""
    from repro.errors import PlatformError
    from repro.storage import dump_canonical

    pack = workload.pack_function()
    # Start every episode from the same heap: garbage left by the previous
    # one would otherwise make the cyclic collector's passes slower.
    gc.collect()
    kwargs = pack_kwargs(workload, seed)
    with tick_starts() as starts:
        if recorder is None:
            started = time.perf_counter()
            result = pack(**kwargs)
            wall = time.perf_counter() - started
        else:
            with recorder.installed():
                root = recorder.wrap(
                    pack, Target("repro.apps", pack.__name__, "apps.pack", span=True)
                )
                started = time.perf_counter()
                result = root(**kwargs)
                wall = time.perf_counter() - started
    platform = result.platform
    driver = result.extras["driver"]
    report = result.report
    layer_extra = {
        "interest_declared": report.interest_declared,
        "assignment_attempts": platform.stats.assignment_attempts,
        "assignments_skipped": platform.stats.assignments_skipped,
        **engine_counters([platform.processor(result.project_id)]),
    }
    check_error = None
    try:
        platform.step(cross_check=True)
    except PlatformError as exc:
        check_error = f"cross-check: {exc}"[:300]
    digest = hashlib.sha256(dump_canonical(platform.db)).hexdigest()
    digest = hashlib.sha256(
        (digest + repr(sorted(result.summary().items()))).encode()
    ).hexdigest()
    platform.close()
    ticks = list(driver.tick_seconds)
    return Episode(
        seed=seed,
        setup_s=starts[0] - started,
        wall_s=wall,
        tick_seconds=ticks,
        round_seconds=[b - a for a, b in zip(starts, starts[1:])] + ticks[-1:],
        results=report.team_results + report.micro_completed,
        interest_declared=report.interest_declared,
        digest=digest,
        check_error=check_error,
        layer_extra=layer_extra,
    )


def check_episodes(episodes: list[Episode]) -> list[str]:
    """Failed output checks: a cross-check error, or a digest that differs
    from an earlier episode's with the same seed (it must be identical)."""
    failures = [ep.check_error for ep in episodes if ep.check_error]
    first: dict[int, Episode] = {}
    for i, ep in enumerate(episodes):
        reference = first.setdefault(ep.seed, ep)
        if ep.digest != reference.digest:
            failures.append(
                f"episode {i} (seed {ep.seed}) digest {ep.digest[:12]} "
                f"!= {reference.digest[:12]}"
            )
    return failures


def run(workload: SimWorkload, seed: int, seconds: float) -> dict[str, Any]:
    """Untraced run: every end-to-end metric of the workload."""
    seeds = episode_seeds(seed, workload.episodes(seconds))
    episodes = [play_episode(workload, s) for s in seeds]
    setups = [ep.setup_s for ep in episodes]
    setups += [
        time_setup(workload, seeds[k % len(seeds)]) for k in range(workload.extra_setups)
    ]
    failures = check_episodes(episodes)
    ticks = [s for ep in episodes for s in ep.tick_seconds]
    rounds = [s for ep in episodes for s in ep.round_seconds]
    round_tail_s, round_tail_pct, samples = tail(rounds)
    tick_tail_s, tick_tail_pct, _ = tail(ticks)
    attempted = len(ticks) + 2 * len(episodes)  # ticks plus two checks each
    results = sum(ep.results for ep in episodes)
    detail = {
        "setup_s": metric(median(setups), "s"),
        "round_p50_ms": metric(1000.0 * median(rounds), "ms"),
        "round_tail_ms": metric(1000.0 * round_tail_s, "ms"),
        "rounds_per_s": metric(len(rounds) / sum(rounds), "1/s"),
        "tick_p50_ms": metric(1000.0 * median(ticks), "ms"),
        "tick_tail_ms": metric(1000.0 * tick_tail_s, "ms"),
        "results_per_s": metric(results / sum(ticks), "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "error_rate": metric(len(failures) / attempted, "ratio"),
    }
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "detail": detail,
        "notes": {
            "episodes": len(episodes),
            "setup_samples": len(setups),
            "samples": samples,
            "round_tail_percentile": round_tail_pct,
            "tick_tail_percentile": tick_tail_pct,
            # share of the round spent in the pack's injection, not the tick
            "inject_share": round(1.0 - sum(ticks) / sum(rounds), 4),
            "results": results,
            "interest_declared": sum(ep.interest_declared for ep in episodes),
        },
        "contract": {
            "setup_s": detail["setup_s"],
            "latency_p50_ms": detail["round_p50_ms"],
            "throughput_per_s": detail["rounds_per_s"],
            "peak_rss_mb": detail["peak_rss_mb"],
        },
    }


def run_traced(workload: SimWorkload, seed: int, seconds: float) -> dict[str, Any]:
    """One untraced and one traced episode of the same pack seed: per-layer
    metrics from the traced one, tracing overhead from the pair."""
    (pack_seed,) = episode_seeds(seed, 1)
    plain = play_episode(workload, pack_seed)
    recorder = Recorder()
    traced = play_episode(workload, pack_seed, recorder)
    failures = check_episodes([plain, traced])
    trace = recorder.export()
    values = per_layer_values(
        trace["by_name"],
        basis_s=traced.wall_s,
        overhead_s=traced.wall_s - plain.wall_s,
        **traced.layer_extra,
    )
    return {
        "attempted": len(plain.tick_seconds) + len(traced.tick_seconds) + 4,
        "failed": len(failures),
        "failures": failures,
        "layers": as_metrics(values),
        "trace": trace,
    }
