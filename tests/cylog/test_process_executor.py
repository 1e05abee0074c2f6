"""Process executor: replica sync protocol, lockstep equivalence, lifecycle.

The shard-diff hypothesis oracle (test_sharding.py) covers randomized
programs; these tests pin the deterministic corners — the reset/sync
replica protocol across full and incremental runs, retraction cascades
reaching the replicas, error propagation out of a worker, and executor
lifecycle (lazy spawn, close, re-dispatch after close).
"""

from __future__ import annotations

import pytest

from repro.config import RuntimeConfig
from repro.cylog import (
    CyLogProcessor,
    SemiNaiveEngine,
    ShardConfig,
    compile_program,
    parse_program,
)
from repro.cylog.procpool import ProcessExecutor, ProcessPoolBrokenError

SOURCE = """
reach(S, Y) :- source(S), link(S, Y).
reach(S, Y) :- link(X, Y), reach(S, X).
joined(L, R) :- left(L, K), right(R, K).
quiet(X, Y) :- link(X, Y), not reach(X, Y).
fanout(X, count<Y>) :- link(X, Y).
"""


def _process_config(workers: int = 2) -> ShardConfig:
    return ShardConfig(
        shards=4, executor="process", max_workers=workers, min_parallel_rows=0
    )


def _load(engine: SemiNaiveEngine) -> None:
    engine.add_facts("link", [(i, i + 1) for i in range(40)])
    engine.add_facts("source", [(0,), (10,)])
    engine.add_facts("left", [(i, i % 6) for i in range(30)])
    engine.add_facts("right", [(i + 500, i % 6) for i in range(30)])


class TestEngineLockstep:
    def test_full_and_incremental_runs_match_serial(self):
        program = parse_program(SOURCE)
        serial = SemiNaiveEngine(program)
        process = SemiNaiveEngine(program, shard_config=_process_config())
        try:
            _load(serial), _load(process)
            assert process.run().relations == serial.run().relations
            # Retraction: the deletion cascade happens in the engine; the
            # replicas must see its outcome through the sync stream.
            for engine in (serial, process):
                engine.retract_facts("link", [(3, 4), (20, 21)])
                engine.retract_facts("right", [(505, 5)])
                engine.add_facts("link", [(3, 100), (100, 4)])
            expected = serial.run()
            result = process.run()
            assert result.relations == expected.relations
            assert result.added_rows == expected.added_rows
            assert result.removed_rows == expected.removed_rows
            assert process.store.fingerprint() == serial.store.fingerprint()
            assert process.runs == 1  # updates stayed incremental
            assert (
                process.stats.derivation_counters()
                == serial.stats.derivation_counters()
            )
        finally:
            serial.close()
            process.close()

    def test_second_full_run_resets_replicas(self):
        program = parse_program(SOURCE)
        serial = SemiNaiveEngine(program)
        process = SemiNaiveEngine(program, shard_config=_process_config())
        try:
            _load(serial), _load(process)
            serial.run(), process.run()
            for engine in (serial, process):
                engine.add_facts("link", [(200, 201)])
                engine.run(full=True)  # new store + replan: replicas reset
                engine.retract_facts("link", [(200, 201)])
            assert process.run().relations == serial.run().relations
            assert process.store.fingerprint() == serial.store.fingerprint()
        finally:
            serial.close()
            process.close()

    def test_killed_workers_demote_engine_to_serial(self):
        """Satellite gate: kill every child mid-stream — the next run must
        not hang or corrupt state.  The engine catches the broken pool,
        demotes itself to inline serial evaluation (its own store was
        authoritative all along) and keeps answering correctly."""
        program = parse_program(SOURCE)
        serial = SemiNaiveEngine(program)
        process = SemiNaiveEngine(program, shard_config=_process_config())
        try:
            _load(serial), _load(process)
            assert process.run().relations == serial.run().relations
            for proc in process._executor._procs:
                proc.terminate()
                proc.join(timeout=5)
            for engine in (serial, process):
                engine.retract_facts("link", [(3, 4)])
                engine.add_facts("link", [(3, 100), (100, 4)])
            expected = serial.run()
            result = process.run()  # survives the dead pool
            assert result.relations == expected.relations
            assert result.added_rows == expected.added_rows
            assert result.removed_rows == expected.removed_rows
            assert process.store.fingerprint() == serial.store.fingerprint()
            # The engine is durably usable after the fallback.
            for engine in (serial, process):
                engine.add_facts("link", [(200, 201), (201, 202)])
            assert process.run().relations == serial.run().relations
        finally:
            serial.close()
            process.close()

    def test_processor_plumbs_process_config(self):
        source = """
        open translate(seg: text, out: text) key (seg) asking "t {seg}".
        segment("a"). segment("b").
        translated(S, T) :- segment(S), translate(S, T).
        """
        processor = CyLogProcessor(
            source,
            config=RuntimeConfig(shards=2, executor="process", max_workers=2),
        )
        try:
            assert processor.engine.shard_config.executor == "process"
            assert processor.engine.shard_config.shards == 2
            requests = processor.pending_requests()
            assert sorted(r.key_values for r in requests) == [("a",), ("b",)]
            processor.supply_answer(
                processor.request_for("translate", ("a",)), {"out": "A"}
            )
            assert processor.facts("translated") == frozenset({("a", "A")})
        finally:
            processor.close()

    def test_processor_shard_config_kwarg_removed(self):
        with pytest.raises(TypeError):
            CyLogProcessor("p(1).", shard_config=_process_config())


class _Partitions:
    """An engine-store stand-in for the executor protocol tests: holds the
    authoritative rows (one shard), serves them as the reset's partition
    provider and mirrors every change into a (predicate, shard)-keyed
    sync, exactly as the engine's PartitionedLedger flush does."""

    def __init__(self, **rows) -> None:
        self.rows = {pred: set(values) for pred, values in rows.items()}

    def provider(self, predicate, shard):
        rows = self.rows.get(predicate)
        if rows is None:
            return None
        return len(next(iter(rows))), tuple(sorted(rows)) if shard == 0 else ()

    def reset(self, executor, compiled) -> None:
        arities = {pred: len(next(iter(rows))) for pred, rows in self.rows.items()}
        executor.reset(compiled, arities, self.provider)

    def sync(self, executor, adds=None, removes=None) -> int:
        adds, removes = adds or {}, removes or {}
        for pred, values in removes.items():
            self.rows[pred].difference_update(values)
        for pred, values in adds.items():
            self.rows.setdefault(pred, set()).update(values)
        return executor.sync(
            {(pred, 0): frozenset(values) for pred, values in adds.items()},
            {(pred, 0): frozenset(values) for pred, values in removes.items()},
        )


def _full(rule_index: int):
    """A round-0 task descriptor: the rule's whole join plan."""
    return (rule_index, None, None, None)


#: A delta task for rule 0 that lacks its delta rows: the parent routes
#: and backfills it normally, the worker fails evaluating it.
_BROKEN = (0, 0, None, None)


def _rows(result) -> set:
    return {row for row, _ in result[0]}


class TestProtocol:
    def test_dispatch_before_reset_raises(self):
        executor = ProcessExecutor(max_workers=1)
        try:
            with pytest.raises(RuntimeError, match="before reset"):
                executor.run_rule_tasks([_full(0)])
        finally:
            executor.close()

    def test_worker_error_propagates(self):
        compiled = compile_program(parse_program("d(X) :- e(X)."))
        executor = ProcessExecutor(max_workers=1)
        try:
            _Partitions(e={(1,)}).reset(executor, compiled)
            with pytest.raises(RuntimeError, match="process worker failed"):
                executor.run_rule_tasks([_BROKEN])
        finally:
            executor.close()

    def test_error_path_drains_other_workers(self):
        """One failing task must not desync the pipe protocol: the other
        workers' replies are drained, and the next dispatch returns fresh
        (not stale) results."""
        compiled = compile_program(
            parse_program("d(X) :- e(X).\nf(X) :- g(X).\nh(X) :- e(X).")
        )
        executor = ProcessExecutor(max_workers=2)
        try:
            _Partitions(e={(1,)}, g={(9,)}).reset(executor, compiled)
            with pytest.raises(RuntimeError, match="process worker failed"):
                executor.run_rule_tasks([_BROKEN, _full(2)])
            # Tasks route by a hash of their class: the failing and the
            # healthy task ran on different workers, so both pipes
            # carried a batch.
            assert executor._assign(_BROKEN) != executor._assign(_full(2))
            first, second = executor.run_rule_tasks([_full(0), _full(2)])
            assert _rows(first) == {(1,)}
            assert _rows(second) == {(1,)}
        finally:
            executor.close()

    def test_results_come_back_in_submission_order(self):
        compiled = compile_program(
            parse_program("d(X) :- e(X).\nf(X) :- e(X).\nh(X) :- g(X).")
        )
        executor = ProcessExecutor(max_workers=3)
        try:
            _Partitions(e={(1,), (2,)}, g={(9,)}).reset(executor, compiled)
            results = executor.run_rule_tasks([_full(0), _full(2), _full(0)])
            # The middle task ran on another worker than its neighbours.
            assert executor._assign(_full(2)) != executor._assign(_full(0))
            assert len(results) == 3
            first, second, third = results
            assert _rows(first) == {(1,), (2,)}
            assert _rows(second) == {(9,)}
            assert _rows(third) == {(1,), (2,)}
        finally:
            executor.close()

    def test_sync_reaches_replicas_spawned_later(self):
        """Syncs queued before the pool spawns are reflected on first
        dispatch (the lazy-spawn path: the fresh worker's partitions are
        backfilled from the authoritative store), and syncs after it
        stream to the subscribed replica without another backfill."""
        compiled = compile_program(parse_program("d(X) :- e(X)."))
        executor = ProcessExecutor(max_workers=2)
        source = _Partitions(e={(1,)})
        try:
            source.reset(executor, compiled)
            assert source.sync(executor, adds={"e": {(2,), (3,)}}) > 0
            source.sync(executor, removes={"e": {(1,)}})
            (result,) = executor.run_rule_tasks([_full(0)])
            assert _rows(result) == {(2,), (3,)}
            backfills = executor.telemetry()["replica_backfills"]
            source.sync(executor, adds={"e": {(4,)}}, removes={"e": {(2,)}})
            (result,) = executor.run_rule_tasks([_full(0)])
            assert _rows(result) == {(3,), (4,)}
            telemetry = executor.telemetry()
            assert telemetry["replica_backfills"] == backfills
            assert telemetry["sync_rows_shipped"] == 2
        finally:
            executor.close()

    def test_killed_worker_raises_broken_pool(self):
        """A worker death mid-dispatch surfaces as ProcessPoolBrokenError
        (not a hang, not a pickle error) and closes the pool."""
        compiled = compile_program(parse_program("d(X) :- e(X)."))
        executor = ProcessExecutor(max_workers=2)
        try:
            _Partitions(e={(1,)}).reset(executor, compiled)
            executor.run_rule_tasks([_full(0)])  # spawn the pool
            for proc in executor._procs:
                proc.terminate()
                proc.join(timeout=5)
            with pytest.raises(ProcessPoolBrokenError, match="worker died"):
                executor.run_rule_tasks([_full(0)])
            with pytest.raises(RuntimeError, match="closed"):
                executor.run_rule_tasks([_full(0)])
        finally:
            executor.close()

    def test_close_is_idempotent_and_terminal_until_reset(self):
        """Dispatching after close() must raise — respawning from the old
        baseline would silently drop every already-streamed sync — while a
        fresh reset() (what an engine full run issues) re-opens the pool."""
        executor = ProcessExecutor(max_workers=1)
        compiled = compile_program(parse_program("d(X) :- e(X)."))
        source = _Partitions(e={(1,)})
        source.reset(executor, compiled)
        executor.run_rule_tasks([_full(0)])
        source.sync(executor, adds={"e": {(2,)}})
        executor.run_rule_tasks([_full(0)])
        executor.close()
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.run_rule_tasks([_full(0)])
        try:
            source.sync(executor, adds={"e": {(3,)}})
            source.reset(executor, compiled)
            (result,) = executor.run_rule_tasks([_full(0)])
            assert _rows(result) == {(1,), (2,), (3,)}
        finally:
            executor.close()
