"""Eligible as derived ledger state on a running platform.

The ``relationship`` table holds only worker-driven states; Eligible lives
in the ledger's per-task sets and worker→tasks index, and a store written
when Eligible was row-backed reopens without those rows and re-derives
them on its first round.
"""

from __future__ import annotations

import json

import pytest

from repro.config import RuntimeConfig
from repro.core import Crowd4U, HumanFactors, TeamConstraints
from repro.core.relationships import RelationshipStatus
from repro.storage import dump_canonical

CYLOG_SOURCE = """
    open translate(seg: text, out: text) key (seg) asking "Translate {seg}".
    segment("s1"). segment("s2").
    eligible(W) :- worker_language(W, "fr", P), P >= 0.5.
    translated(S, T) :- segment(S), translate(S, T).
"""

#: No ``eligible`` rule: the persisted constraints screen the workers, so
#: a reopened platform derives the same eligible sets.
SCREEN_SOURCE = """
    open caption(img: text, out: text) key (img) asking "Caption {img}".
    image("i1"). image("i2"). image("i3").
    captioned(I, C) :- image(I), caption(I, C).
"""


def _factors(fr: float) -> HumanFactors:
    return HumanFactors(
        languages={"fr": fr}, region="paris", skills={"translation": 0.8}
    )


def _relationship_rows(platform: Crowd4U) -> list[tuple[str, str, str]]:
    return sorted(
        (row["worker_id"], row["task_id"], row["status"])
        for row in platform.db.table("relationship").rows()
    )


def _recomputed_eligible_tasks(platform: Crowd4U) -> dict[str, list[str]]:
    """Each worker's user-page task list, rebuilt from scratch: the full
    eligibility recompute plus the worker's own Eligible-rooted rows."""
    listed: dict[str, list[str]] = {w: [] for w in platform.workers.ids()}
    for task in platform.pool.pending_root_tasks():
        project = platform.projects.get(task.project_id)
        processor = platform._processors.get(task.project_id)
        expected = set(platform._eligible_worker_ids(project, processor, task))
        for worker_id in listed:
            status = platform.ledger.status(worker_id, task.id)
            stored = status not in (None, RelationshipStatus.ELIGIBLE)
            if stored:
                rooted = status in (
                    RelationshipStatus.INTERESTED, RelationshipStatus.UNDERTAKES
                )
            else:
                rooted = worker_id in expected
            if rooted:
                listed[worker_id].append(task.id)
    return listed


def _listed(platform: Crowd4U) -> dict[str, list[str]]:
    return {
        worker_id: [t.id for t in platform.eligible_tasks(worker_id)]
        for worker_id in platform.workers.ids()
    }


class TestDerivedOnPlatform:
    def test_rounds_store_no_eligible_rows(self):
        platform = Crowd4U(seed=1)
        for i in range(4):
            platform.register_worker(f"w{i}", _factors(0.9 if i % 2 else 0.2))
        platform.register_project("p", "r", CYLOG_SOURCE)
        platform.step(cross_check=True)
        task = platform.pool.pending_root_tasks()[0]
        assert platform.ledger.eligible_workers(task.id) == ["w00001", "w00003"]
        assert _relationship_rows(platform) == []
        version = platform.db.table("relationship").version
        platform.step(full=True)
        assert platform.db.table("relationship").version == version

    def test_declined_but_still_derived_eligible_is_not_listed(self):
        platform = Crowd4U(seed=1)
        fluent = platform.register_worker("fluent", _factors(0.9)).id
        platform.register_project("p", "r", CYLOG_SOURCE)
        platform.step()
        first, second = (t.id for t in platform.eligible_tasks(fluent))
        platform.ledger.decline(fluent, first, platform.now)
        platform.step(cross_check=True)
        platform.step(full=True)
        # The CyLog processor still derives the worker as eligible...
        project = platform.projects.get(platform.pool.get(first).project_id)
        processor = platform.processor(project.id)
        assert fluent in platform._eligible_worker_ids(
            project, processor, platform.pool.get(first)
        )
        # ...but the stored Declined row wins.
        assert platform.ledger.status(fluent, first) is RelationshipStatus.DECLINED
        assert [t.id for t in platform.eligible_tasks(fluent)] == [second]
        assert _relationship_rows(platform) == [(fluent, first, "declined")]

    def test_declare_interest_writes_the_first_row(self):
        platform = Crowd4U(seed=1)
        fluent = platform.register_worker("fluent", _factors(0.9)).id
        platform.register_project("p", "r", CYLOG_SOURCE)
        platform.step()
        task = platform.eligible_tasks(fluent)[0]
        inserts = platform.db.table("relationship").version
        platform.declare_interest(fluent, task.id)
        assert platform.db.table("relationship").version == inserts + 1
        assert _relationship_rows(platform) == [(fluent, task.id, "interested")]
        assert task.id in [t.id for t in platform.eligible_tasks(fluent)]


@pytest.mark.parametrize("backend", ("wal", "sqlite"))
def test_store_with_row_backed_eligible_reopens(tmp_path, backend):
    """A store written when Eligible was stored as rows reopens without
    them, and the first round re-derives every worker's task list."""
    config = RuntimeConfig(backend=backend, path=tmp_path / f"store-{backend}")
    platform = Crowd4U(seed=4, config=config)
    for i in range(5):
        platform.register_worker(f"w{i}", _factors(0.9 if i % 2 else 0.2))
    platform.register_project(
        "captions", "req", SCREEN_SOURCE,
        constraints=TeamConstraints(
            min_size=2, required_languages=frozenset({"fr"}),
            language_proficiency=0.5,
        ),
    )
    platform.step()
    interested = platform.eligible_tasks("w00001")[0].id
    platform.declare_interest("w00001", interested)
    before = _listed(platform)
    assert before["w00003"] and not before["w00000"]
    # What the row-backed ledger persisted: one row per derived pair.
    for task in platform.pool.pending_root_tasks():
        for worker_id in platform.ledger.workers_with_status(
            task.id, RelationshipStatus.ELIGIBLE
        ):
            platform.db.insert(
                "relationship",
                {"worker_id": worker_id, "task_id": task.id,
                 "status": "eligible", "updated_at": platform.now},
            )
    platform.close()

    reopened = Crowd4U(seed=4, config=config)
    tables = json.loads(dump_canonical(reopened.db))["tables"]
    (relationship,) = [t for t in tables if t["name"] == "relationship"]
    assert [row["status"] for row in relationship["rows"]] == ["interested"]
    reopened.step(cross_check=True)
    assert _listed(reopened) == _recomputed_eligible_tasks(reopened) == before
    reopened.close()
