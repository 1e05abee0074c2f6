"""E12 — shard-pruned worker replicas (PR 7).

A process pool that broadcast every engine mutation to every worker would
ship each canonical change set once per worker and keep the whole store
on every replica.  Process workers instead hold shard-pruned replicas:
each subscribes only to the (relation, shard) partitions its task classes
probe.  This bench measures what that saves, on a skew-free two-relation
join churned from the ``left`` side:

* **Sync bytes.**  ``joined`` deltas dominate the engine's change sets;
  no rule probes ``joined``, so it is never shipped at all, and the
  base-relation slices go only to the workers whose task classes probe
  those partitions.  The headline gate — ``speedup_pruned_vs_full_sync``
  — divides the broadcast volume, ``WORKERS x`` the engine's canonical
  sync bytes (exactly what a broadcast writes: the same payload to every
  pipe), by the bytes actually written to worker pipes for syncs.  A
  pure byte count, independent of the hardware the bench runs on.  The
  acceptance target at 8 shards x 8 workers is >= 5x.

* **Per-worker replica residency.**  A full replica holds every row of
  the engine store; pruned replicas hold only the subscribed partitions
  (reported as the max resident rows across workers, from the
  executor's exact ledger-derived counts).

* **Churn throughput.**  Same adds/retracts as a serial reference; the
  shard-diff oracle gates bit-identity in CI, and the bench re-checks
  the store fingerprint against the serial engine.
"""

import time

from repro.cylog import SemiNaiveEngine, ShardConfig, parse_program
from repro.metrics import format_table

from fastmode import pick

N_KEYS = pick(2000, 60)
RIGHT_FANOUT = pick(6, 3)
N_LEFT = pick(8000, 150)
CHURN_ROUNDS = pick(30, 4)
CHURN_BATCH = pick(400, 30)
SHARDS = 8
WORKERS = 8

RULES = """
    joined(L, R) :- left(L, K), right(K, R).
    heavy(L) :- joined(L, R), R >= 0.
"""


def _build_engine(config: ShardConfig | None) -> SemiNaiveEngine:
    engine = SemiNaiveEngine(
        parse_program(RULES),
        shard_config=config or ShardConfig(),
    )
    engine.add_facts("left", [(i, i % N_KEYS) for i in range(N_LEFT)])
    engine.add_facts(
        "right",
        [(k, k * RIGHT_FANOUT + f) for k in range(N_KEYS) for f in range(RIGHT_FANOUT)],
    )
    return engine


def _churn_rows(round_index: int) -> list[tuple[int, int]]:
    base = 1_000_000 + round_index * CHURN_BATCH
    return [(base + j, (base + j) % N_KEYS) for j in range(CHURN_BATCH)]


def _run_process() -> dict:
    engine = _build_engine(
        ShardConfig(
            shards=SHARDS,
            executor="process",
            max_workers=WORKERS,
            min_parallel_rows=0,  # every round dispatches: sync traffic is the point
        )
    )
    try:
        start = time.perf_counter()
        engine.run()
        initial_s = time.perf_counter() - start

        churn_ops = 0
        start = time.perf_counter()
        for round_index in range(CHURN_ROUNDS):
            rows = _churn_rows(round_index)
            engine.add_facts("left", rows)
            engine.run()
            engine.retract_facts("left", rows)
            engine.run()
            churn_ops += 2 * len(rows)
        churn_s = time.perf_counter() - start

        assert engine.runs == 1  # every churn round stayed incremental
        telemetry = engine._executor.telemetry()
        rounds = 2 * CHURN_ROUNDS
        return {
            "initial_run_ms": round(initial_s * 1000, 2),
            "churn_ops_per_s": round(churn_ops / churn_s, 1) if churn_s else 0.0,
            # Engine-side canonical change-set volume (what the engine
            # mutated, not what was shipped).
            "sync_rows_canonical": engine.stats.sync_rows,
            "sync_bytes_canonical": engine.stats.sync_bytes,
            # Executor-side shipped volume: what actually crossed pipes.
            "sync_bytes_shipped": telemetry["sync_bytes_shipped"],
            "sync_rows_shipped": telemetry["sync_rows_shipped"],
            "sync_bytes_per_round": round(telemetry["sync_bytes_shipped"] / rounds, 1),
            "replica_backfills": telemetry["replica_backfills"],
            "backfill_rows": telemetry["backfill_rows"],
            "bytes_to_workers": telemetry["bytes_to_workers"],
            "max_replica_rows": max(telemetry["replica_rows"]),
            "engine_store_rows": sum(
                len(rows) for rows in engine.store.snapshot().values()
            ),
            "derived_joined": len(engine.facts("joined")),
            "fingerprint": engine.store.fingerprint(),
        }
    finally:
        engine.close()


def test_e12_pruned_replicas(emit, emit_bench_json):
    serial = _build_engine(None)
    try:
        serial.run()
        for round_index in range(CHURN_ROUNDS):
            rows = _churn_rows(round_index)
            serial.add_facts("left", rows)
            serial.run()
            serial.retract_facts("left", rows)
            serial.run()
        reference_fp = serial.store.fingerprint()
    finally:
        serial.close()

    record = _run_process()
    # Bit-identity: the pruned replicas land on the serial fixpoint.
    assert record.pop("fingerprint") == reference_fp
    # A broadcast writes the canonical payload to every worker pipe.
    broadcast_bytes = WORKERS * record["sync_bytes_canonical"]
    speedup_pruned = (
        broadcast_bytes / record["sync_bytes_shipped"]
        if record["sync_bytes_shipped"]
        else float("inf")
    )

    # Pruned workers hold strictly less than a full replica (the whole
    # engine store), and partitions really arrived by backfill.
    assert record["max_replica_rows"] < record["engine_store_rows"]
    assert record["replica_backfills"] > 0

    emit_bench_json(
        "E12",
        {
            "workload": {
                "keys": N_KEYS,
                "right_fanout": RIGHT_FANOUT,
                "left_rows": N_LEFT,
                "churn_rounds": CHURN_ROUNDS,
                "churn_batch": CHURN_BATCH,
                "shards": SHARDS,
                "workers": WORKERS,
            },
            "speedup_pruned_vs_full_sync": round(speedup_pruned, 2),
            "broadcast_sync_bytes": broadcast_bytes,
            "pruned": record,
        },
    )
    emit(format_table(
        ("churn ops/s", "sync B/round", "shipped sync B", "broadcast sync B",
         "backfills", "max replica rows", "engine store rows"),
        [(
            record["churn_ops_per_s"], record["sync_bytes_per_round"],
            record["sync_bytes_shipped"], broadcast_bytes,
            record["replica_backfills"], record["max_replica_rows"],
            record["engine_store_rows"],
        )],
        title=(
            f"E12 — shard-pruned replicas at {SHARDS} shards x {WORKERS} "
            f"workers (churn {CHURN_ROUNDS}x{2 * CHURN_BATCH} ops): "
            f"{speedup_pruned:.2f}x fewer sync bytes than a broadcast"
        ),
    ))
    # The headline gate: pruned sync traffic is a byte count, so the
    # >=5x reduction holds on any hardware, smoke mode included.
    assert speedup_pruned >= 5.0, record
