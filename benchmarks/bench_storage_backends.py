"""E11 — durable storage backends: throughput and crash recovery (PR 6).

One churn-heavy mutation stream (bulk load, then repeated update /
delete / reinsert passes) is applied to all three backends — in-memory,
WAL and SQLite — and every backend must land on the byte-identical
canonical dump.  The record then captures:

* **Mutation throughput** per backend: what durability costs on the
  write path (the WAL appends one JSONL record per mutation; SQLite runs
  one ``BEGIN IMMEDIATE`` transaction per mutation).
* **Query throughput** per backend: point lookups served by the
  authoritative in-memory table, demonstrating the read path is
  backend-independent; plus the SQLite materialized-listing lookup rate
  for the worker-page-style keyed query.
* **Recovery**: reopening each durable database after the churn history,
  each reopen repeated until at least 50 ms have accumulated and the
  median recorded.  The headline — and the gated metric — is
  ``speedup_snapshot_vs_replay``: recovering a *compacted* WAL (snapshot
  + empty tail) versus replaying the full mutation history.  The churn
  stream writes ~20 log records per surviving row, so compaction must
  win by roughly that factor; the ratio is intra-backend and
  hardware-insensitive, unlike cross-backend time ratios.
"""

from __future__ import annotations

import statistics
import time

from repro.metrics import format_table
from repro.storage import (
    Column,
    ColumnType,
    Database,
    TableSchema,
    dump_canonical,
    open_database,
)
from repro.storage.backends import ListingSpec

from fastmode import pick

LIVE_ROWS = pick(1500, 80)
CHURN_PASSES = pick(12, 3)
N_QUERIES = pick(30000, 1500)
N_LISTING_QUERIES = pick(4000, 200)
N_KINDS = 7

#: Each timed reopen repeats until this much wall time has accumulated.
MIN_TIMED_S = 0.05

#: Large enough that the replay-side WAL never auto-compacts: its whole
#: history stays in the log, which is the point of the comparison.
NO_COMPACT = 10**9

EVENTS = TableSchema(
    "events",
    [
        Column("id", ColumnType.INT),
        Column("kind", ColumnType.TEXT),
        Column("n", ColumnType.INT),
    ],
    primary_key=("id",),
)

#: Worker-page-shaped keyed lookup over the churn table.
LISTING = ListingSpec(
    name="events_by_kind",
    source="events",
    key="kind",
    columns=("kind", "id", "n"),
)


def _apply_stream(db) -> int:
    """The shared churn-heavy history; returns the mutation count."""
    ops = 0
    db.create_table(EVENTS)
    ops += 1
    for i in range(LIVE_ROWS):
        db.insert("events", {"id": i, "kind": f"e{i % N_KINDS}", "n": 0})
        ops += 1
    for round_index in range(CHURN_PASSES):
        for i in range(LIVE_ROWS):
            db.update("events", (i,), {"n": round_index * LIVE_ROWS + i})
            ops += 1
        for i in range(round_index % 3, LIVE_ROWS, 3):
            db.delete("events", (i,))
            db.insert(
                "events", {"id": i, "kind": f"e{i % N_KINDS}", "n": -round_index}
            )
            ops += 2
    return ops


def _bench_queries(db) -> float:
    table = db.table("events")
    start = time.perf_counter()
    for i in range(N_QUERIES):
        table.get((i % LIVE_ROWS,))
    return N_QUERIES / (time.perf_counter() - start)


def _timed_open(target, backend, **options):
    """Reopen ``target`` repeatedly until at least ``MIN_TIMED_S`` has
    accumulated; returns the last opened database, the median reopen time
    and the number of reopens.  One reopen takes a few milliseconds, so a
    single-shot ratio of two of them would be timer noise."""
    samples = []
    while True:
        start = time.perf_counter()
        db = open_database(target, backend=backend, **options)
        samples.append(time.perf_counter() - start)
        if sum(samples) >= MIN_TIMED_S:
            return db, statistics.median(samples), len(samples)
        db.close()


def test_e11_storage_backends(tmp_path_factory, emit, emit_bench_json):
    tmp = tmp_path_factory.mktemp("e11")
    targets = {
        "memory": None,
        "wal": tmp / "wal-replay",
        "sqlite": tmp / "db.sqlite",
    }
    records = []
    dumps = {}
    for name, target in targets.items():
        if name == "memory":
            db = Database()
        elif name == "sqlite":
            db = open_database(target, backend=name, listings=(LISTING,))
        else:
            db = open_database(target, backend=name, compact_every=NO_COMPACT)
        start = time.perf_counter()
        ops = _apply_stream(db)
        mutate_s = time.perf_counter() - start
        query_ops_per_s = _bench_queries(db)
        dumps[name] = dump_canonical(db)
        record = {
            "backend": name,
            "mutations": ops,
            "mutation_ops_per_s": round(ops / mutate_s, 1),
            "query_ops_per_s": round(query_ops_per_s, 1),
        }
        if name == "sqlite":
            start = time.perf_counter()
            for i in range(N_LISTING_QUERIES):
                db.backend.query_listing("events_by_kind", f"e{i % N_KINDS}")
            listing_s = time.perf_counter() - start
            record["listing_query_ops_per_s"] = round(
                N_LISTING_QUERIES / listing_s, 1
            )
        db.close()
        records.append(record)

    # Every backend must have observed the identical state.
    assert dumps["wal"] == dumps["memory"]
    assert dumps["sqlite"] == dumps["memory"]

    # Recovery: replaying the full churn history ...
    db, replay_s, replay_n = _timed_open(
        targets["wal"], "wal", compact_every=NO_COMPACT
    )
    assert dump_canonical(db) == dumps["memory"]
    # ... versus recovering from a compacted snapshot of the same state.
    db.backend.compact()
    db.close()
    db, snapshot_s, snapshot_n = _timed_open(
        targets["wal"], "wal", compact_every=NO_COMPACT
    )
    assert dump_canonical(db) == dumps["memory"]
    db.close()
    db, sqlite_recover_s, sqlite_n = _timed_open(
        targets["sqlite"], "sqlite", listings=(LISTING,)
    )
    assert dump_canonical(db) == dumps["memory"]
    db.close()

    speedup = replay_s / snapshot_s if snapshot_s else 0.0
    by_backend = {r["backend"]: r for r in records}
    emit_bench_json(
        "E11",
        {
            "workload": {
                "live_rows": LIVE_ROWS,
                "churn_passes": CHURN_PASSES,
                "mutations": by_backend["memory"]["mutations"],
                "queries": N_QUERIES,
                "listing_queries": N_LISTING_QUERIES,
            },
            "recovery": {
                "wal_replay_s": round(replay_s, 6),
                "wal_snapshot_s": round(snapshot_s, 6),
                "sqlite_s": round(sqlite_recover_s, 6),
                "reopens": {
                    "wal_replay": replay_n,
                    "wal_snapshot": snapshot_n,
                    "sqlite": sqlite_n,
                },
            },
            "speedup_snapshot_vs_replay": round(speedup, 2),
            "backends": records,
        },
    )
    rows = [
        (
            r["backend"],
            r["mutations"],
            r["mutation_ops_per_s"],
            r["query_ops_per_s"],
            r.get("listing_query_ops_per_s", "-"),
        )
        for r in records
    ]
    emit(format_table(
        ("backend", "mutations", "mutate ops/s", "query ops/s", "listing ops/s"),
        rows,
        title=(
            f"E11 — storage backends ({LIVE_ROWS} live rows, "
            f"{CHURN_PASSES} churn passes; recovery: replay "
            f"{replay_s * 1000:.0f} ms vs snapshot {snapshot_s * 1000:.0f} ms "
            f"= {speedup:.1f}x, sqlite {sqlite_recover_s * 1000:.0f} ms)"
        ),
    ))
    if not pick(False, True):  # full-size runs must show the headline shape
        # ~20 log records per surviving row: compaction must clearly win.
        assert speedup > 2.0
