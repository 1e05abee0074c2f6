"""The three explicit worker↔task relationships (paper §2.2).

    (1) *Eligible* — computed by the CyLog processor from the project
        description and worker human factors.
    (2) *InterestedIn* — declared by the worker on her user page.
    (3) *Undertakes* — the worker confirms she performs the task; legal
        **only when the worker is Eligible for that task** (the paper's
        stated invariant, enforced here).

We additionally track *Declined* (a proposed worker refused or timed out)
and *Completed* for bookkeeping.

Eligible is derived state: the ledger keeps a pair that is *only* Eligible
in a per-task in-memory set with a worker→tasks inverted index, and the
``relationship`` table stores only the worker-driven states (InterestedIn,
Undertakes, Declined, Completed).  A pair leaves the derived set when its
first row is written, so a stored row always wins.  Derived eligibility is
not persisted: a reopened platform re-derives it on its first round.
"""

from __future__ import annotations

import enum

from repro.errors import RelationshipError
from repro.storage import Column, ColumnType, Database, TableSchema


class RelationshipStatus(enum.Enum):
    ELIGIBLE = "eligible"
    INTERESTED = "interested"
    UNDERTAKES = "undertakes"
    DECLINED = "declined"
    COMPLETED = "completed"


#: Statuses that imply the worker is currently eligible for the task
#: (Eligible-rooted): the deeper worker-declared states all require — and
#: preserve — eligibility.
ELIGIBLE_ROOTED = (
    RelationshipStatus.ELIGIBLE,
    RelationshipStatus.INTERESTED,
    RelationshipStatus.UNDERTAKES,
)

#: Legal transitions; ``None`` is the initial (absent) state.
_LEGAL_TRANSITIONS: dict[RelationshipStatus | None, set[RelationshipStatus]] = {
    None: {RelationshipStatus.ELIGIBLE},
    RelationshipStatus.ELIGIBLE: {
        RelationshipStatus.INTERESTED,
        RelationshipStatus.UNDERTAKES,  # direct undertake is allowed: still Eligible
        RelationshipStatus.DECLINED,
    },
    RelationshipStatus.INTERESTED: {
        RelationshipStatus.UNDERTAKES,
        RelationshipStatus.DECLINED,
    },
    RelationshipStatus.UNDERTAKES: {
        RelationshipStatus.COMPLETED,
        # A confirmed member whose team dissolved (another member declined or
        # timed out) drops back to Interested and remains a candidate when
        # assignment re-executes (§2.2.1).
        RelationshipStatus.INTERESTED,
        RelationshipStatus.DECLINED,
    },
    RelationshipStatus.DECLINED: {RelationshipStatus.INTERESTED},  # change of mind
    RelationshipStatus.COMPLETED: set(),
}

_SCHEMA = TableSchema(
    "relationship",
    [
        Column("worker_id", ColumnType.TEXT),
        Column("task_id", ColumnType.TEXT),
        Column("status", ColumnType.TEXT),
        Column("updated_at", ColumnType.FLOAT),
    ],
    primary_key=("worker_id", "task_id"),
)


class RelationshipLedger:
    """Every (worker, task) relationship: derived Eligible pairs in memory,
    worker-driven states persisted in the storage engine."""

    def __init__(self, db: Database) -> None:
        self.db = db
        if not db.has_table(_SCHEMA.name):
            db.create_table(_SCHEMA)
            db.table(_SCHEMA.name).create_index(("task_id", "status"))
            db.table(_SCHEMA.name).create_index(("worker_id", "status"))
        #: Stored (worker-driven) status per pair.
        self._cache: dict[tuple[str, str], RelationshipStatus] = {}
        #: task -> workers that are only Eligible (no stored row).
        self._eligible: dict[str, set[str]] = {}
        #: worker -> tasks, the inverted index of ``_eligible``.
        self._eligible_tasks: dict[str, set[str]] = {}
        derived_rows: list[tuple[str, str]] = []
        for row in db.table(_SCHEMA.name).rows():
            key = (row["worker_id"], row["task_id"])
            status = RelationshipStatus(row["status"])
            if status is RelationshipStatus.ELIGIBLE:
                derived_rows.append(key)
            else:
                self._cache[key] = status
        # Stores written before Eligible became derived state hold it as
        # rows.  Drop them: the platform's first round after a reopen
        # re-derives every pending task's eligible set in full.
        for key in derived_rows:
            db.delete(_SCHEMA.name, key)

    # -- state machine ---------------------------------------------------------
    def status(self, worker_id: str, task_id: str) -> RelationshipStatus | None:
        status = self._cache.get((worker_id, task_id))
        if status is None and worker_id in self._eligible.get(task_id, ()):
            return RelationshipStatus.ELIGIBLE
        return status

    def _transition(
        self,
        worker_id: str,
        task_id: str,
        target: RelationshipStatus,
        now: float,
    ) -> None:
        """Move a pair into a worker-driven state (never Eligible)."""
        current = self.status(worker_id, task_id)
        if target is current:
            return  # idempotent
        legal = _LEGAL_TRANSITIONS[current]
        if target not in legal:
            origin = current.value if current else "absent"
            raise RelationshipError(
                f"illegal transition {origin} -> {target.value} for "
                f"(worker {worker_id}, task {task_id})"
            )
        if current is RelationshipStatus.ELIGIBLE:
            # Leaving derived Eligible: the pair's first row.
            self.db.insert(
                _SCHEMA.name,
                {
                    "worker_id": worker_id,
                    "task_id": task_id,
                    "status": target.value,
                    "updated_at": now,
                },
            )
            self._forget_derived(worker_id, task_id)
        else:
            self.db.update(
                _SCHEMA.name,
                (worker_id, task_id),
                {"status": target.value, "updated_at": now},
            )
        self._cache[(worker_id, task_id)] = target

    def _forget_derived(self, worker_id: str, task_id: str) -> None:
        workers = self._eligible[task_id]
        workers.discard(worker_id)
        if not workers:
            del self._eligible[task_id]
        tasks = self._eligible_tasks[worker_id]
        tasks.discard(task_id)
        if not tasks:
            del self._eligible_tasks[worker_id]

    # -- the three paper relationships ------------------------------------------
    def mark_eligible(self, worker_id: str, task_id: str, now: float = 0.0) -> bool:
        """Record that the CyLog processor judged the worker eligible.

        Returns True when the pair had no relationship before and is now
        (derived) Eligible; a worker already in any state is left untouched
        and False is returned — the signal the platform's round-delta
        recording uses to report genuinely new eligibility.  Derived state
        carries no timestamp, so ``now`` is unused.
        """
        if (worker_id, task_id) in self._cache:
            return False
        workers = self._eligible.get(task_id)
        if workers is None:
            workers = self._eligible[task_id] = set()
        elif worker_id in workers:
            return False
        workers.add(worker_id)
        tasks = self._eligible_tasks.get(worker_id)
        if tasks is None:
            self._eligible_tasks[worker_id] = {task_id}
        else:
            tasks.add(task_id)
        return True

    def revoke_eligibility(self, worker_id: str, task_id: str) -> bool:
        """Forget a *pure* Eligible relationship whose inputs no longer hold.

        Eligibility is system-derived, so when the deriving facts change
        (worker factors edited, constraints tightened) the platform retracts
        it.  Worker-declared states — Interested and deeper — survive factor
        changes and are never revoked here.  Returns True when the pair was
        only Eligible.
        """
        if worker_id not in self._eligible.get(task_id, ()):
            return False
        self._forget_derived(worker_id, task_id)
        return True

    def declare_interest(self, worker_id: str, task_id: str, now: float = 0.0) -> None:
        """Worker declares interest; requires prior eligibility."""
        current = self.status(worker_id, task_id)
        if current is None:
            raise RelationshipError(
                f"worker {worker_id} is not eligible for task {task_id}; "
                "cannot declare interest"
            )
        self._transition(worker_id, task_id, RelationshipStatus.INTERESTED, now)

    def undertake(self, worker_id: str, task_id: str, now: float = 0.0) -> None:
        """Worker confirms performing the task.

        Enforces the paper's invariant: the pair may enter *Undertakes*
        only from an Eligible-rooted state.
        """
        current = self.status(worker_id, task_id)
        if current is None or current is RelationshipStatus.DECLINED:
            raise RelationshipError(
                f"worker {worker_id} cannot undertake task {task_id}: "
                f"not eligible (status: {current.value if current else 'absent'})"
            )
        self._transition(worker_id, task_id, RelationshipStatus.UNDERTAKES, now)

    def decline(self, worker_id: str, task_id: str, now: float = 0.0) -> None:
        self._transition(worker_id, task_id, RelationshipStatus.DECLINED, now)

    def complete(self, worker_id: str, task_id: str, now: float = 0.0) -> None:
        self._transition(worker_id, task_id, RelationshipStatus.COMPLETED, now)

    # -- queries --------------------------------------------------------------
    def _stored(self, column: str, value: str, status: RelationshipStatus) -> list[str]:
        """One column of the stored rows matching ``column == value``."""
        other = "task_id" if column == "worker_id" else "worker_id"
        rows = self.db.table(_SCHEMA.name).lookup(
            (column, "status"), (value, status.value)
        )
        return [row[other] for row in rows]

    def workers_with_status(
        self, task_id: str, status: RelationshipStatus
    ) -> list[str]:
        if status is RelationshipStatus.ELIGIBLE:
            return sorted(self._eligible.get(task_id, ()))
        return sorted(self._stored("task_id", task_id, status))

    def eligible_workers(self, task_id: str) -> list[str]:
        """Workers currently in any Eligible-rooted state for the task."""
        eligible: list[str] = []
        for status in ELIGIBLE_ROOTED:
            eligible.extend(self.workers_with_status(task_id, status))
        return sorted(eligible)

    def interested_workers(self, task_id: str) -> list[str]:
        return self.workers_with_status(task_id, RelationshipStatus.INTERESTED)

    def undertaking_workers(self, task_id: str) -> list[str]:
        return self.workers_with_status(task_id, RelationshipStatus.UNDERTAKES)

    def tasks_with_status(
        self, worker_id: str, status: RelationshipStatus
    ) -> list[str]:
        if status is RelationshipStatus.ELIGIBLE:
            return sorted(self._eligible_tasks.get(worker_id, ()))
        return sorted(self._stored("worker_id", worker_id, status))

    def counts_for_task(self, task_id: str) -> dict[str, int]:
        return {
            status.value: len(self.workers_with_status(task_id, status))
            for status in RelationshipStatus
        }

    def __len__(self) -> int:
        return len(self._cache) + sum(len(w) for w in self._eligible.values())
