"""The Eligible/InterestedIn/Undertakes ledger and its invariants."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.relationships import (
    _LEGAL_TRANSITIONS,
    ELIGIBLE_ROOTED,
    RelationshipLedger,
    RelationshipStatus,
)
from repro.errors import RelationshipError
from repro.storage import Database


@pytest.fixture
def ledger(db):
    return RelationshipLedger(db)


class TestPaperInvariant:
    """'A (worker,task) pair can go into [Undertakes] only when the worker
    is Eligible for that task.'"""

    def test_undertake_requires_eligibility(self, ledger):
        with pytest.raises(RelationshipError, match="not eligible"):
            ledger.undertake("w", "t")

    def test_undertake_after_eligible(self, ledger):
        ledger.mark_eligible("w", "t")
        ledger.undertake("w", "t")
        assert ledger.status("w", "t") is RelationshipStatus.UNDERTAKES

    def test_undertake_after_interest(self, ledger):
        ledger.mark_eligible("w", "t")
        ledger.declare_interest("w", "t")
        ledger.undertake("w", "t")
        assert ledger.status("w", "t") is RelationshipStatus.UNDERTAKES

    def test_undertake_from_declined_rejected(self, ledger):
        ledger.mark_eligible("w", "t")
        ledger.decline("w", "t")
        with pytest.raises(RelationshipError):
            ledger.undertake("w", "t")

    def test_interest_requires_eligibility(self, ledger):
        with pytest.raises(RelationshipError, match="not eligible"):
            ledger.declare_interest("w", "t")


class TestTransitions:
    def test_eligible_idempotent(self, ledger):
        ledger.mark_eligible("w", "t")
        ledger.mark_eligible("w", "t")
        assert ledger.status("w", "t") is RelationshipStatus.ELIGIBLE

    def test_mark_eligible_does_not_demote(self, ledger):
        ledger.mark_eligible("w", "t")
        ledger.declare_interest("w", "t")
        ledger.mark_eligible("w", "t")  # no-op
        assert ledger.status("w", "t") is RelationshipStatus.INTERESTED

    def test_declined_can_reconsider(self, ledger):
        ledger.mark_eligible("w", "t")
        ledger.decline("w", "t")
        ledger.declare_interest("w", "t")
        assert ledger.status("w", "t") is RelationshipStatus.INTERESTED

    def test_undertakes_can_revert_to_interested(self, ledger):
        # team dissolution path (§2.2.1 re-execution)
        ledger.mark_eligible("w", "t")
        ledger.undertake("w", "t")
        ledger.declare_interest("w", "t")
        assert ledger.status("w", "t") is RelationshipStatus.INTERESTED

    def test_complete_requires_undertakes(self, ledger):
        ledger.mark_eligible("w", "t")
        with pytest.raises(RelationshipError):
            ledger.complete("w", "t")

    def test_completed_is_terminal(self, ledger):
        ledger.mark_eligible("w", "t")
        ledger.undertake("w", "t")
        ledger.complete("w", "t")
        with pytest.raises(RelationshipError):
            ledger.decline("w", "t")


class TestQueries:
    def test_workers_by_status(self, ledger):
        for worker in ("a", "b", "c"):
            ledger.mark_eligible(worker, "t1")
        ledger.declare_interest("a", "t1")
        assert ledger.interested_workers("t1") == ["a"]
        assert ledger.workers_with_status("t1", RelationshipStatus.ELIGIBLE) == [
            "b", "c",
        ]

    def test_eligible_workers_includes_rooted_states(self, ledger):
        ledger.mark_eligible("a", "t")
        ledger.mark_eligible("b", "t")
        ledger.declare_interest("b", "t")
        ledger.mark_eligible("c", "t")
        ledger.undertake("c", "t")
        assert ledger.eligible_workers("t") == ["a", "b", "c"]

    def test_tasks_for_worker(self, ledger):
        ledger.mark_eligible("w", "t1")
        ledger.mark_eligible("w", "t2")
        ledger.declare_interest("w", "t2")
        assert ledger.tasks_with_status("w", RelationshipStatus.INTERESTED) == ["t2"]

    def test_counts_for_task(self, ledger):
        ledger.mark_eligible("a", "t")
        ledger.mark_eligible("b", "t")
        ledger.declare_interest("a", "t")
        counts = ledger.counts_for_task("t")
        assert counts["eligible"] == 1 and counts["interested"] == 1

    def test_persistence_across_instances(self, db):
        first = RelationshipLedger(db)
        first.mark_eligible("w", "t")
        first.declare_interest("w", "t")
        second = RelationshipLedger(db)
        assert second.status("w", "t") is RelationshipStatus.INTERESTED


# -- property: arbitrary action sequences never break the paper invariant ----

actions = st.lists(
    st.tuples(
        st.sampled_from(["eligible", "interest", "undertake", "decline",
                         "complete"]),
        st.sampled_from(["w1", "w2"]),
        st.sampled_from(["t1", "t2"]),
    ),
    max_size=40,
)


@given(actions)
@settings(max_examples=60, deadline=None)
def test_ledger_never_reaches_undertakes_without_eligibility(sequence):
    """Fuzz the ledger: Undertakes is only reachable through Eligible."""
    ledger = RelationshipLedger(Database())
    ever_eligible: set[tuple[str, str]] = set()
    for action, worker, task in sequence:
        try:
            if action == "eligible":
                ledger.mark_eligible(worker, task)
                ever_eligible.add((worker, task))
            elif action == "interest":
                ledger.declare_interest(worker, task)
            elif action == "undertake":
                ledger.undertake(worker, task)
            elif action == "decline":
                ledger.decline(worker, task)
            else:
                ledger.complete(worker, task)
        except RelationshipError:
            continue
        if ledger.status(worker, task) is RelationshipStatus.UNDERTAKES:
            assert (worker, task) in ever_eligible


class TestDerivedEligible:
    """Eligible is derived state: only worker-driven states become rows."""

    def test_mark_eligible_writes_no_row(self, ledger, db):
        assert ledger.mark_eligible("w", "t") is True
        assert ledger.mark_eligible("w", "t") is False
        assert ledger.status("w", "t") is RelationshipStatus.ELIGIBLE
        assert len(db.table("relationship")) == 0
        assert ledger.workers_with_status("t", RelationshipStatus.ELIGIBLE) == ["w"]
        assert ledger.tasks_with_status("w", RelationshipStatus.ELIGIBLE) == ["t"]

    def test_declare_interest_on_derived_pair_inserts_one_row(self, ledger, db):
        ledger.mark_eligible("w", "t")
        version = db.table("relationship").version
        ledger.declare_interest("w", "t", now=3.0)
        rows = list(db.table("relationship").rows())
        assert [(r["worker_id"], r["task_id"], r["status"]) for r in rows] == [
            ("w", "t", "interested")
        ]
        assert db.table("relationship").version == version + 1
        assert ledger.workers_with_status("t", RelationshipStatus.ELIGIBLE) == []
        assert ledger.tasks_with_status("w", RelationshipStatus.ELIGIBLE) == []
        assert ledger.mark_eligible("w", "t") is False  # the row wins

    def test_undertake_without_row_or_derived_membership_raises(self, ledger, db):
        ledger.mark_eligible("w", "t")
        assert ledger.revoke_eligibility("w", "t") is True
        with pytest.raises(RelationshipError, match="not eligible"):
            ledger.undertake("w", "t")
        assert ledger.status("w", "t") is None
        assert len(db.table("relationship")) == 0

    def test_revoke_only_touches_pure_eligible(self, ledger):
        ledger.mark_eligible("a", "t")
        ledger.mark_eligible("b", "t")
        ledger.declare_interest("b", "t")
        assert ledger.revoke_eligibility("b", "t") is False
        assert ledger.revoke_eligibility("c", "t") is False
        assert ledger.revoke_eligibility("a", "t") is True
        assert ledger.revoke_eligibility("a", "t") is False
        assert ledger.status("b", "t") is RelationshipStatus.INTERESTED

    def test_task_queries_read_index_and_own_rows(self, ledger):
        for task in ("t1", "t2", "t3", "t4"):
            ledger.mark_eligible("w", task)
        ledger.declare_interest("w", "t2")
        ledger.undertake("w", "t3")
        ledger.decline("w", "t4")
        ledger.mark_eligible("other", "t5")
        by_status = {
            status: ledger.tasks_with_status("w", status)
            for status in RelationshipStatus
        }
        assert by_status == {
            RelationshipStatus.ELIGIBLE: ["t1"],
            RelationshipStatus.INTERESTED: ["t2"],
            RelationshipStatus.UNDERTAKES: ["t3"],
            RelationshipStatus.DECLINED: ["t4"],
            RelationshipStatus.COMPLETED: [],
        }
        assert len(ledger) == 5

    def test_open_drops_stored_eligible_rows(self, db):
        """A store written when Eligible was row-backed reopens without
        those rows; worker-driven rows survive."""
        RelationshipLedger(db)
        for worker, status in (("a", "eligible"), ("b", "interested")):
            db.insert(
                "relationship",
                {"worker_id": worker, "task_id": "t", "status": status,
                 "updated_at": 0.0},
            )
        reopened = RelationshipLedger(db)
        assert [r["worker_id"] for r in db.table("relationship").rows()] == ["b"]
        assert reopened.status("a", "t") is None
        assert reopened.status("b", "t") is RelationshipStatus.INTERESTED


class _ReferenceLedger:
    """The row-backed state machine, one status per pair, as a model."""

    def __init__(self) -> None:
        self.status: dict[tuple[str, str], RelationshipStatus] = {}

    def apply(self, action: str, worker: str, task: str) -> None:
        current = self.status.get((worker, task))
        if action == "eligible":
            if current is None:
                self.status[(worker, task)] = RelationshipStatus.ELIGIBLE
            return
        if action == "revoke":
            if current is RelationshipStatus.ELIGIBLE:
                del self.status[(worker, task)]
            return
        target = {
            "interest": RelationshipStatus.INTERESTED,
            "undertake": RelationshipStatus.UNDERTAKES,
            "decline": RelationshipStatus.DECLINED,
            "complete": RelationshipStatus.COMPLETED,
        }[action]
        if current is None or (
            action == "undertake" and current is RelationshipStatus.DECLINED
        ):
            raise RelationshipError("not eligible")
        if target is not current and target not in _LEGAL_TRANSITIONS[current]:
            raise RelationshipError("illegal")
        self.status[(worker, task)] = target


ledger_actions = st.lists(
    st.tuples(
        st.sampled_from(["eligible", "revoke", "interest", "undertake",
                         "decline", "complete"]),
        st.sampled_from(["w1", "w2", "w3"]),
        st.sampled_from(["t1", "t2"]),
    ),
    max_size=50,
)


@given(ledger_actions)
@settings(max_examples=60, deadline=None)
def test_ledger_matches_row_backed_reference(sequence):
    """Derived Eligible answers every query exactly as the row-backed
    model does, and only worker-driven states are stored."""
    db = Database()
    ledger = RelationshipLedger(db)
    model = _ReferenceLedger()
    calls = {
        "eligible": ledger.mark_eligible,
        "revoke": ledger.revoke_eligibility,
        "interest": ledger.declare_interest,
        "undertake": ledger.undertake,
        "decline": ledger.decline,
        "complete": ledger.complete,
    }
    for action, worker, task in sequence:
        before = model.status.get((worker, task))
        try:
            model.apply(action, worker, task)
        except RelationshipError:
            with pytest.raises(RelationshipError):
                calls[action](worker, task)
            continue
        result = calls[action](worker, task)
        if action == "eligible":
            assert result is (before is None)
        elif action == "revoke":
            assert result is (before is RelationshipStatus.ELIGIBLE)
    for worker in ("w1", "w2", "w3"):
        for task in ("t1", "t2"):
            assert ledger.status(worker, task) is model.status.get((worker, task))
    for task in ("t1", "t2"):
        for status in RelationshipStatus:
            assert ledger.workers_with_status(task, status) == sorted(
                w for (w, t), s in model.status.items() if t == task and s is status
            )
        assert ledger.eligible_workers(task) == sorted(
            w for (w, t), s in model.status.items()
            if t == task and s in ELIGIBLE_ROOTED
        )
    for worker in ("w1", "w2", "w3"):
        for status in RelationshipStatus:
            assert ledger.tasks_with_status(worker, status) == sorted(
                t for (w, t), s in model.status.items()
                if w == worker and s is status
            )
    assert len(ledger) == len(model.status)
    stored = {
        (row["worker_id"], row["task_id"]): row["status"]
        for row in db.table("relationship").rows()
    }
    assert stored == {
        key: s.value for key, s in model.status.items()
        if s is not RelationshipStatus.ELIGIBLE
    }
