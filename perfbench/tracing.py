"""Outside-in layer tracing: wrap public functions, attribute self time.

The recorder never edits the program.  It replaces chosen public
functions (class methods or module attributes) with timing wrappers for
the duration of a ``with recorder.installed(targets):`` block and puts
the originals back afterwards.

Two kinds of target:

* **spans** — coarse calls (a simulation tick, a platform round, a CyLog
  run, a serving drainer burst).  Each call becomes one record with name,
  start, end, its parent span and the root span it belongs to, so every
  span of one tick or one request shares a root id.
* **aggregates** — hot calls (``Table.insert`` runs hundreds of thousands
  of times).  They are folded per (enclosing span name, name) into call
  count, total seconds and self seconds.

Calls nest synchronously (the platform and the server's drainer are
single-threaded), so a frame's *self time* is its duration minus the time
covered by the frames directly beneath it.  Everything stays in memory;
:meth:`Recorder.export` hands it over once at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator


@dataclass(frozen=True)
class Target:
    """One public function to wrap.

    ``owner`` is ``module`` or ``module:Class``; ``attr`` the attribute on
    it.  ``counts_result`` adds the (integer) return value to the
    aggregate's ``units`` — e.g. rows actually added by ``add_facts``.
    """

    owner: str
    attr: str
    name: str
    span: bool = False
    counts_result: bool = False

    def resolve(self) -> Any:
        module_name, _, class_name = self.owner.partition(":")
        holder: Any = importlib.import_module(module_name)
        if class_name:
            holder = getattr(holder, class_name)
        return holder


def _span(owner: str, attr: str, name: str) -> Target:
    return Target(owner, attr, name, span=True)


def _agg(owner: str, attr: str, name: str, counts_result: bool = False) -> Target:
    return Target(owner, attr, name, counts_result=counts_result)


#: Every layer boundary the benchmark measures.  ``apply_ops`` is wrapped
#: where the server imported it by name; ``render_worker_page`` where the
#: server's lazy import resolves it at call time.
TARGETS: tuple[Target, ...] = (
    _span("repro.sim.driver:SimulationDriver", "tick", "sim.tick"),
    _agg("repro.sim.behavior:BehaviorModel", "wants_task", "sim.behavior.wants_task"),
    _agg(
        "repro.sim.behavior:BehaviorModel",
        "accepts_membership",
        "sim.behavior.accepts_membership",
    ),
    _agg(
        "repro.sim.behavior:BehaviorModel",
        "produce_result",
        "sim.behavior.produce_result",
    ),
    _agg(
        "repro.sim.population",
        "generate_factors",
        "sim.population.generate_factors",
    ),
    _span("repro.core.platform:Crowd4U", "step", "core.step"),
    _agg("repro.core.platform:Crowd4U", "register_worker", "core.register_worker"),
    _agg("repro.core.workers:WorkerManager", "all", "core.workers.all"),
    _agg(
        "repro.core.relationships:RelationshipLedger",
        "mark_eligible",
        "core.ledger.mark_eligible",
    ),
    _agg(
        "repro.core.relationships:RelationshipLedger",
        "revoke_eligibility",
        "core.ledger.revoke",
    ),
    _agg(
        "repro.core.assignment.controller:TaskAssignmentController",
        "try_assign",
        "core.assignment.try_assign",
    ),
    _span("repro.cylog.processor:CyLogProcessor", "run", "cylog.run"),
    _agg(
        "repro.cylog.processor:CyLogProcessor",
        "add_facts",
        "cylog.add_facts",
        counts_result=True,
    ),
    _agg("repro.cylog.processor:CyLogProcessor", "retract_facts", "cylog.retract.facts"),
    _agg("repro.cylog.processor:CyLogProcessor", "revoke_answer", "cylog.retract.answer"),
    _agg("repro.storage.table:Table", "insert", "storage.insert"),
    _agg("repro.storage.table:Table", "update", "storage.update"),
    _agg("repro.storage.table:Table", "delete", "storage.delete"),
    _agg("repro.storage.backends.sqlite:SqliteBackend", "on_mutation", "storage.backend"),
    _agg("repro.forms.worker_page", "render_worker_page", "forms.render_worker_page"),
    _span("repro.serving.server", "apply_ops", "serving.apply_ops"),
)


class Recorder:
    """In-memory span and aggregate store fed by the wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Finished spans: id, name, start, end, parent, root, self_s.
        self.spans: list[dict[str, Any]] = []
        #: (enclosing span name or "", name) -> [calls, total_s, self_s, units]
        self.aggregates: dict[tuple[str, str], list[float]] = {}
        # Open frames: [name, start, child_s, span_id or None]
        self._stack: list[list[Any]] = []
        # Open spans: (span_id, name, root_id)
        self._open_spans: list[tuple[int, str, int]] = []
        self._next_id = 1

    def clear(self) -> None:
        """Drop everything recorded so far (wrappers stay installed); only
        valid between calls, when no wrapped frame is open."""
        if self._stack:
            raise RuntimeError("cannot clear inside a wrapped call")
        self.spans.clear()
        self.aggregates.clear()

    # -- the wrapper ----------------------------------------------------------
    def wrap(self, fn: Callable, target: Target) -> Callable:
        clock = self.clock
        stack = self._stack
        open_spans = self._open_spans
        name = target.name

        if target.span:

            @functools.wraps(fn)
            def span_wrapper(*args, **kwargs):
                span_id = self._next_id
                self._next_id += 1
                parent = open_spans[-1] if open_spans else None
                root = parent[2] if parent else span_id
                open_spans.append((span_id, name, root))
                frame = [name, clock(), 0.0]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    open_spans.pop()
                    duration = end - frame[1]
                    if stack:
                        stack[-1][2] += duration
                    self.spans.append(
                        {
                            "id": span_id,
                            "name": name,
                            "start": frame[1],
                            "end": end,
                            "parent": parent[0] if parent else None,
                            "root": root,
                            "self_s": duration - frame[2],
                        }
                    )

            return span_wrapper

        counts_result = target.counts_result

        @functools.wraps(fn)
        def agg_wrapper(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                key = (open_spans[-1][1] if open_spans else "", name)
                slot = self.aggregates.get(key)
                if slot is None:
                    slot = self.aggregates[key] = [0, 0.0, 0.0, 0]
                slot[0] += 1
                slot[1] += duration
                slot[2] += duration - frame[2]
                if counts_result and isinstance(result, int):
                    slot[3] += result

        return agg_wrapper

    @contextlib.contextmanager
    def installed(self, targets: Iterable[Target] = TARGETS) -> Iterator["Recorder"]:
        """Wrap every target; restore the originals on exit, even on error."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for target in targets:
                holder = target.resolve()
                original = holder.__dict__[target.attr]
                saved.append((holder, target.attr, original))
                setattr(holder, target.attr, self.wrap(original, target))
            yield self
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)

    # -- roll-ups -------------------------------------------------------------
    def by_name(self) -> dict[str, dict[str, float]]:
        """name -> calls, total_s, self_s, units over spans and aggregates."""
        out: dict[str, dict[str, float]] = {}

        def slot(name: str) -> dict[str, float]:
            return out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "units": 0}
            )

        for span in self.spans:
            entry = slot(span["name"])
            entry["calls"] += 1
            entry["total_s"] += span["end"] - span["start"]
            entry["self_s"] += span["self_s"]
        for (_, name), (calls, total, self_s, units) in self.aggregates.items():
            entry = slot(name)
            entry["calls"] += calls
            entry["total_s"] += total
            entry["self_s"] += self_s
            entry["units"] += units
        return out

    def export(self) -> dict[str, Any]:
        """Everything recorded, JSON-ready."""
        return {
            "spans": self.spans,
            "aggregates": [
                {
                    "parent": parent,
                    "name": name,
                    "calls": calls,
                    "total_s": total,
                    "self_s": self_s,
                    "units": units,
                }
                for (parent, name), (calls, total, self_s, units) in sorted(
                    self.aggregates.items()
                )
            ],
            "by_name": self.by_name(),
        }

