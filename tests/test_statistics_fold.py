"""One statistics fold: live statistics always equal a fresh scan.

A database's statistics are built by one scan and advanced by each
commit's delta (:class:`~repro.estimation.estimator.Statistics`).  The
write path is driven here as a state machine — inserts under random
elements, appends, deletes, aborts, checkpoints, close-and-recover,
crashes that cut the log at a record boundary, snapshots held across
later commits — and after every step the live statistics must equal a
fresh scan of the live document, tag by tag and label path by label
path, the optimizer must choose what a database freshly loaded with
the same nodes chooses, and every held snapshot must still plan and
answer exactly as when it was taken.  No statistic reads the label
space, so a commit that moves the root's end is a delta like any
other; it once doubled the histograms' position space, so that a live
database planned differently from its own recovered copy.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule,
                                 run_state_machine_as_test)

from benchmarks.histogram import PositionalEstimator
from repro.api import Database, Snapshot
from repro.core.optimizer import get_optimizer
from repro.document.parser import parse_xml
from repro.engine.context import EngineContext
from repro.engine.executor import Executor
from repro.estimation.estimator import Statistics
from repro.txn import WriteAheadLog, create_database, open_database
from repro.txn.db import WAL_FILE
from repro.workloads import (PAPER_QUERIES, personnel_document,
                             random_pattern)

PERS_TAGS = ("company", "department", "email", "employee", "manager",
             "name", "phone")
#: the four Pers paper queries and two seeded random patterns with
#: value predicates (the distinct counts are what they read)
PATTERNS = ([query.pattern for query in PAPER_QUERIES.values()
             if query.dataset == "pers"]
            + [random_pattern(rng, tags=PERS_TAGS, min_nodes=3,
                              max_nodes=6, predicate_chance=0.5)
               for rng in [random.Random(7)] for _ in range(2)])

NAMES = st.sampled_from(["Ada", "Bob", "Cy", "Dee"])
IDS = st.sampled_from(["x1", "x2", "x3"])
#: small Pers-shaped fragments; few distinct values, so value
#: multiplicities rise and fall across inserts and deletes
FRAGMENTS = st.one_of(
    st.builds('<employee id="{1}"><name>{0}</name></employee>'.format,
              NAMES, IDS),
    st.builds(('<manager id="{1}"><name>{0}</name><department>'
               '<name>{0} dept</name><employee><name>{0}</name>'
               '<phone>+1-555</phone></employee></department>'
               '</manager>').format, NAMES, IDS),
    st.builds("<name>{0}</name>".format, NAMES),
)


def assert_statistics_equal_fresh_scan(database: Database) -> None:
    live = database.tag_statistics
    fresh = Statistics(database.document)
    assert live.entries == fresh.entries
    assert live.summary.labels() == fresh.summary.labels()


def assert_plans_like_a_fresh_load(database: Database) -> None:
    """DPP on the live database chooses the plan, at the cost, that it
    chooses on a database freshly loaded with the same nodes."""
    fresh = Database.from_document(database.document)
    for pattern in PATTERNS:
        live = database.optimize(pattern, "DPP")
        expected = fresh.optimize(pattern, "DPP")
        assert live.plan.signature() == expected.plan.signature(), pattern
        assert live.estimated_cost == expected.estimated_cost, pattern


#: held snapshots re-checked after every step (the oldest is let go)
MAX_HELD = 3


def snapshot_answers(snapshot: Snapshot) -> list[tuple]:
    """What *snapshot* answers, pattern by pattern: the DPP plan
    signature and cost under its estimator, and the canonical result
    set of running that plan over its index, store and document."""
    answers = []
    for pattern in PATTERNS:
        chosen = get_optimizer("DPP").optimize(pattern, snapshot.estimator)
        context = EngineContext(snapshot.index, snapshot.store,
                                snapshot.document)
        run = Executor(context, pattern).execute(chosen.plan)
        answers.append((chosen.plan.signature(), chosen.estimated_cost,
                        run.canonical()))
    return answers


class WritePathMachine(RuleBasedStateMachine):
    """A file-backed database under random write-path steps.

    The model is the committed history since the last checkpoint: the
    log size after each commit and the document it published.  A crash
    cuts the log at a record boundary, and recovery must come back
    with exactly the last commit the cut kept.  Held snapshots are
    kept with what they answered when taken and the epoch their
    document was published under; closing the database lets them go."""

    def __init__(self) -> None:
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="repro-fold-"))
        self.path = self.directory / "db"
        self.database = create_database(
            self.path, document=personnel_document(target_nodes=120,
                                                   seed=3))
        self.checkpointed = self.database.document.nodes
        #: (log size after the commit, the nodes it published)
        self.committed: list[tuple[int, tuple]] = []
        #: (snapshot, its answers when taken)
        self.held: list[tuple[Snapshot, list[tuple]]] = []
        #: id of each published document -> the epoch reported then
        self.published: dict[int, int] = {}
        self._published()

    def _published(self) -> None:
        self.published[id(self.database.document)] = (
            self.database.statistics_epoch)

    def teardown(self) -> None:
        self.database.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _pick(self, data, root: bool) -> int:
        nodes = self.database.document.nodes[0 if root else 1:]
        return nodes[data.draw(st.integers(0, len(nodes) - 1))].node_id

    def _write(self, mutate) -> None:
        with self.database.transaction() as txn:
            mutate(txn)
        self.committed.append((self.database.transactions.wal.size,
                               self.database.document.nodes))
        self._published()

    @rule(data=st.data(), fragment=FRAGMENTS)
    def insert_subtree(self, data, fragment: str) -> None:
        parent = self._pick(data, root=True)
        self._write(lambda txn: txn.insert_subtree(parent,
                                                   parse_xml(fragment)))

    @rule(fragment=FRAGMENTS)
    def append_document(self, fragment: str) -> None:
        self._write(lambda txn: txn.append_document(parse_xml(fragment)))

    @precondition(lambda self: len(self.database.document) > 1)
    @rule(data=st.data())
    def delete_subtree(self, data) -> None:
        victim = self._pick(data, root=False)
        self._write(lambda txn: txn.delete_subtree(victim))

    @rule(data=st.data(), fragment=FRAGMENTS)
    def abort(self, data, fragment: str) -> None:
        epoch = self.database.statistics_epoch
        txn = self.database.transactions.begin()
        txn.insert_subtree(self._pick(data, root=True),
                           parse_xml(fragment))
        txn.abort()
        assert self.database.statistics_epoch == epoch

    @rule()
    def checkpoint(self) -> None:
        self.database.checkpoint()
        self.checkpointed = self.database.document.nodes
        self.committed = []

    @rule()
    def hold_snapshot(self) -> None:
        snapshot = self.database.read_snapshot()
        self.held.append((snapshot, snapshot_answers(snapshot)))
        del self.held[:-MAX_HELD]

    def _reopen(self) -> None:
        self.database = open_database(self.path)
        self.held = []
        self.published = {}
        self._published()

    @rule()
    def reopen(self) -> None:
        self.database.close()
        self._reopen()

    @rule(data=st.data())
    def crash(self, data) -> None:
        """Cut the log at a random record boundary and recover: the
        recovered document is the last commit the cut kept (the
        invariants then hold its statistics to a fresh scan)."""
        self.database.close()
        log = self.path / WAL_FILE
        image = log.read_bytes()
        reader = WriteAheadLog(None)
        reader.restore_bytes(image)
        cut = data.draw(st.sampled_from(reader.record_boundaries()))
        log.write_bytes(image[:cut])
        self._reopen()
        self.committed = [(size, nodes) for size, nodes in self.committed
                          if size <= cut]
        expected = (self.committed[-1][1] if self.committed
                    else self.checkpointed)
        assert self.database.document.nodes == expected

    @invariant()
    def statistics_equal_a_fresh_scan(self) -> None:
        assert_statistics_equal_fresh_scan(self.database)

    @invariant()
    def plans_equal_a_fresh_load(self) -> None:
        assert_plans_like_a_fresh_load(self.database)

    @invariant()
    def held_snapshots_answer_as_when_taken(self) -> None:
        for snapshot, answers in self.held:
            assert snapshot.statistics_epoch == self.published[
                id(snapshot.document)]
            assert snapshot_answers(snapshot) == answers


def _run(max_examples: int, steps: int) -> None:
    run_state_machine_as_test(WritePathMachine, settings=settings(
        max_examples=max_examples, stateful_step_count=steps,
        deadline=None, suppress_health_check=[HealthCheck.too_slow]))


def test_write_path_keeps_statistics_equal_to_a_fresh_scan():
    _run(max_examples=10, steps=8)


@pytest.mark.slow
def test_write_path_keeps_statistics_equal_to_a_fresh_scan_wide():
    _run(max_examples=150, steps=30)


def test_held_estimator_keeps_its_summary_across_commits():
    """A snapshot's estimator plans on the label paths of its own
    document: later commits advance the database's summary into a new
    one and leave the held one as it was.  A path a commit adds is
    counted, and one a later commit empties is dropped.  The first
    commit relabels from the root (the labels are dense), so its delta
    re-adds every node under a new label; it is a delta all the
    same."""
    database = Database.from_document(
        personnel_document(target_nodes=300, seed=5))
    manager = next(node for node in database.document
                   if node.tag == "manager").node_id
    entries = database.tag_statistics.entries
    end = database.document.root.end
    snapshot = database.read_snapshot()
    held = snapshot.estimator.summary
    before = held.labels()
    with database.transaction() as txn:
        pager = txn.insert_subtree(manager, parse_xml(
            '<employee><name>Ada</name><pager>1</pager></employee>'))
    added = database.estimator.summary.labels()
    assert sum(count for path, count in added.items()
               if path[-1] == "pager") == 1
    untouched = entries["company"]
    with database.transaction() as txn:
        txn.delete_subtree(pager)
        txn.delete_subtree(next(node for node in database.document
                                if node.tag == "department").node_id)
    # both commits were deltas, not rescans: the fold advanced in
    # place, and the second left the root's tag alone
    assert database.document.root.end != end
    assert database.tag_statistics.entries is entries
    assert entries["company"] is untouched
    assert snapshot.estimator.summary is held
    assert held.labels() == before
    now = database.estimator.summary.labels()
    assert now == Statistics(database.document).summary.labels()
    assert not any(path[-1] == "pager" for path in now)
    assert now != before


def test_root_moving_insert_plans_like_a_fresh_load():
    """Pers 5000, one 4-node employee inserted under a manager: the
    dense labels leave no gap, so the insert relabels from the root and
    ``root.end`` goes 5 000 -> 40 032.  The commit is a delta all the
    same: it re-adds every node under its new label, so it touches
    every tag, but the fold advances its entries in place, where the
    rescan this used to take replaced them; and the statistics equal a
    fresh scan.  The pin was found under the paper's
    histograms, whose position space once doubled to 80 016 here
    instead of following ``root.end + 1``: Q.Pers.2.c then chose a
    plan simulating 148 136 instead of 49 992.  Built from the live
    document, they choose the plan a fresh load chooses."""
    database = Database.from_document(
        personnel_document(target_nodes=5000, seed=42))
    manager = next(node for node in database.document
                   if node.tag == "manager")
    entries = database.tag_statistics.entries
    with database.transaction() as txn:
        txn.insert_subtree(manager.node_id, parse_xml(
            '<employee id="w1"><name>Perf 1</name>'
            '<phone>+1-555-0001</phone>'
            '<email>w1@example.com</email></employee>'))
    assert database.document.root.end == 40032
    assert database.tag_statistics.entries is entries
    assert_statistics_equal_fresh_scan(database)
    pattern = PAPER_QUERIES["Q.Pers.2.c"].pattern

    def histogram_plan(database):
        return get_optimizer("DPP").optimize(
            pattern, PositionalEstimator.from_document(database.document))

    live = histogram_plan(database)
    fresh = histogram_plan(Database.from_document(database.document))
    assert live.plan.signature() == fresh.plan.signature()
    assert live.estimated_cost == fresh.estimated_cost
    run = database.execute(live.plan, pattern)
    assert round(run.metrics.simulated_cost()) == 49992
