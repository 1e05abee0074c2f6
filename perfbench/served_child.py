"""The process under test of the served workload: one PlatformServer on SQLite.

    python3 perfbench/served_child.py --db DB --ready READY --out OUT \
        --seed N --workers N --items N [--trace]

Builds a moderation-style platform on the SQLite backend, starts the
server, writes the ids the traffic generator needs to ``READY`` and
prints ``READY <port>``.  It then waits for one line on stdin:

* ``abort`` — close and exit (a set-up that was only timed);
* ``finish`` — drain the admission queue, take the canonical dump, close
  the server and the platform, reopen the platform from the SQLite file
  (timed, several times) and check each reopened dump equals the one
  taken before close; the outcome goes to ``OUT`` as JSON.

With ``--trace`` the layer wrappers are installed before the platform and
server are built (the storage backend binds its mutation hook when the
database opens), and the record is cleared once the server is ready, so
it covers the traffic only.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import json
import sys
import time
from pathlib import Path

from common import peak_rss_mb, use_source

#: Reopen-and-verify repetitions behind ``recover_s`` (its median).
RECOVERIES = 3


def db_bytes(path: Path) -> int:
    """SQLite file plus its write-ahead log."""
    return sum(
        p.stat().st_size
        for p in (path, path.with_name(path.name + "-wal"))
        if p.exists()
    )


def build_platform(config, seed: int, n_workers: int, n_items: int):
    """Project first, then workers joining it (each registration feeds the
    project's CyLog processor), then one round to derive Eligible."""
    from repro.apps.moderation import build_moderation_project
    from repro.core import AffinityWeights, Crowd4U
    from repro.sim import PopulationConfig, generate_factors

    platform = Crowd4U(
        seed=seed, config=config, affinity_weights=AffinityWeights(max_neighbors=8)
    )
    items = [f"item-{seed}-{i:02d}" for i in range(n_items)]
    project = build_moderation_project(platform, items, skill_floor=0.05)
    population = PopulationConfig()
    worker_ids = [
        platform.register_worker(f"worker{i:05d}", generate_factors(seed, i, population)).id
        for i in range(n_workers)
    ]
    platform.step()
    return platform, project.id, worker_ids


async def serve(args: argparse.Namespace) -> dict:
    from repro.config import RuntimeConfig
    from repro.storage import dump_canonical

    from layers import engine_counters
    from tracing import Recorder

    db_path = Path(args.db)
    config = RuntimeConfig(backend="sqlite", path=db_path)
    recorder = Recorder() if args.trace else None
    wrappers = recorder.installed() if recorder else contextlib.nullcontext()
    with wrappers:
        platform, project_id, worker_ids = build_platform(
            config, args.seed, args.workers, args.items
        )
        server = config.build_server(platform)
        await server.start()
        eligible = {
            task.id: platform.ledger.eligible_workers(task.id)
            for task in platform.pool.pending_root_tasks(project_id)
        }
        Path(args.ready).write_text(
            json.dumps(
                {"project_id": project_id, "workers": worker_ids, "eligible": eligible}
            )
        )
        bytes_before = db_bytes(db_path)
        if recorder:
            recorder.clear()
        cpu_before = time.process_time()
        print(f"READY {server.address[1]}", flush=True)

        loop = asyncio.get_running_loop()
        command = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
        if command != "finish":
            await server.close()
            platform.close()
            return {"aborted": True}
        await server.drain()
        cpu_s = time.process_time() - cpu_before
        rss = peak_rss_mb()
        before = dump_canonical(platform.db)
        outcome = {
            "serving": server.stats.as_dict(),
            "applied_equals_admitted": server.stats.applied == server.stats.admitted,
            "read_cache": server.stats.read_cache.as_dict(),
            "query_cache": platform.db.query_cache.stats.as_dict(),
            "platform": platform.stats.as_dict(),
            "engine": engine_counters([platform.processor(project_id)]),
            "backend_bytes": db_bytes(db_path) - bytes_before,
            "cpu_s": cpu_s,
            "peak_rss_mb": rss,
            "digest": hashlib.sha256(before).hexdigest(),
        }
        await server.close()
        platform.close()
    if recorder:
        outcome["trace"] = recorder.export()
    outcome["recover_s"], outcome["recovered_equal"] = recover(config, args.seed, before)
    return outcome


def recover(config, seed: int, before: bytes) -> tuple[list[float], bool]:
    """Reopen the platform from the file until it is constructed over the
    restored database; every reopened dump must equal ``before``."""
    from repro.core import AffinityWeights, Crowd4U
    from repro.storage import dump_canonical

    times = []
    equal = True
    for _ in range(RECOVERIES):
        started = time.perf_counter()
        platform = Crowd4U(
            seed=seed, config=config, affinity_weights=AffinityWeights(max_neighbors=8)
        )
        times.append(time.perf_counter() - started)
        equal = equal and dump_canonical(platform.db) == before
        platform.close()
    return times, equal


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--db", required=True)
    parser.add_argument("--ready", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--items", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    use_source()
    outcome = asyncio.run(serve(args))
    Path(args.out).write_text(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
