"""Public facade: a small native XML database.

:class:`Database` wires the substrates together the way Timber does —
storage manager, buffer pool, element store, tag index, statistics —
and exposes the three operations a user of this library needs:

* :meth:`Database.load` / :meth:`Database.from_xml` — ingest a document
* :meth:`Database.optimize` — run one of the five paper algorithms on a
  pattern (or an XPath string)
* :meth:`Database.execute` / :meth:`Database.query` — run a plan and
  return matches with full execution metrics
* :meth:`Database.query_many` / :meth:`Database.stats` — serve query
  batches concurrently with plan caching, and observe the service
  (latency percentiles, cache hit rate, aggregate engine counters)

Example::

    from repro import Database

    db = Database.from_xml(open("pers.xml").read())
    result = db.query("//manager[.//employee/name]//department/name")
    for binding in result.execution.bindings():
        ...
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import ReproError, StorageError
from repro.core.cost import CostFactors
from repro.core.pattern import QueryPattern
from repro.core.plans import PhysicalPlan
from repro.core.random_plans import worst_random_plan
from repro.document.document import XmlDocument
from repro.document.parser import parse_xml
from repro.engine.context import EngineContext
from repro.engine.executor import (ExecutionResult, Executor,
                                   StreamingExecution)
from repro.estimation.estimator import SummaryEstimator
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import TraceContext, assign_span_ids
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager, InMemoryDisk
from repro.storage.store import ElementStore
from repro.storage.tagindex import TagIndex
from repro.target import QueryResult, QueryTarget

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.txn.mutate import Transaction, TransactionManager

__all__ = ["Database", "QueryResult", "Snapshot"]


@dataclass(frozen=True)
class Snapshot:
    """A consistent read view captured under the publish lock.

    Commits publish a fresh index/document/estimator triple atomically
    (:mod:`repro.txn.mutate`); a snapshot pins one such triple, so a
    query planned and executed against it never sees a half-published
    database.  The objects themselves are never mutated after
    publication (copy-on-write), so holding a snapshot costs nothing
    and blocks nobody.  No query reads the element store, so a
    snapshot does not hold it.
    """

    document: XmlDocument
    index: TagIndex
    estimator: SummaryEstimator
    statistics_epoch: int


class Database(QueryTarget):
    """A single-document native XML database instance.

    The planning and serving surface is :class:`~repro.target.
    QueryTarget`'s; this class adds storage, snapshots, transactions
    and single-node execution.
    """

    def __init__(self, name: str = "db",
                 disk: DiskManager | None = None,
                 buffer_capacity: int = 256,
                 cost_factors: CostFactors | None = None,
                 service_options: dict | None = None) -> None:
        super().__init__(cost_factors, service_options)
        self.name = name
        self.disk = disk or InMemoryDisk()
        self.pool = BufferPool(self.disk, capacity=buffer_capacity)
        if self.disk.page_count == 0:
            # page 0 anchors the catalog so the database can be
            # reopened from its pages alone (see Database.open)
            from repro.storage.catalog import reserve_catalog_page

            reserve_catalog_page(self.pool)
        self.store = ElementStore(self.pool)
        self.index = TagIndex(self.pool)
        self.document: XmlDocument | None = None
        #: guards the atomic swap of store/index/document/estimator at
        #: commit publication; readers take it only for the instant of
        #: :meth:`read_snapshot`.
        self._publish_lock = threading.RLock()
        self._txn_manager: "TransactionManager | None" = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_xml(cls, text: str, name: str = "db",
                 **kwargs: object) -> "Database":
        """Parse XML text and load it into a fresh database."""
        database = cls(name=name, **kwargs)  # type: ignore[arg-type]
        database.load(parse_xml(text, name=name))
        return database

    @classmethod
    def from_document(cls, document: XmlDocument,
                      **kwargs: object) -> "Database":
        """Load an already-built document into a fresh database."""
        database = cls(name=document.name, **kwargs)  # type: ignore[arg-type]
        database.load(document)
        return database

    def load(self, document: XmlDocument) -> None:
        """Ingest *document*: store records, build the tag index and
        the statistics (:attr:`tag_statistics`)."""
        if self.document is not None:
            raise ReproError(
                "database already holds a document; create a new "
                "Database to load different data")
        self.store.store_document(document)
        self.index.index_document(document)
        self.document = document
        if self.name == "db":  # adopt the document's name by default
            self.name = document.name
        self._publish_planning_inputs(self._load_statistics(document))

    def reload(self, document: XmlDocument) -> None:
        """Replace the loaded document.

        Rebuilds the element store, tag index and statistics from
        *document*, bumps the statistics epoch and invalidates every
        cached plan — plans costed against the old statistics must
        never serve the new data.
        """
        self._require_document()
        self.pool.clear()
        self.store = ElementStore(self.pool)
        self.index = TagIndex(self.pool)
        self.document = None
        self.load(document)

    # -- persistence -----------------------------------------------------------

    def persist(self) -> None:
        """Flush all pages and write the catalog, making the disk
        self-describing: :meth:`Database.open` can rebuild this
        database from the disk alone.

        Ends with a durability barrier: every dirty page is written
        back and the disk is fsync'd, so a crash immediately after
        ``persist()`` returns loses nothing.
        """
        from repro.storage.catalog import catalog_payload, write_catalog

        self._require_document()
        write_catalog(self.pool, catalog_payload(self.name, self.store,
                                                 self.index))
        self.pool.flush()
        self.disk.sync()

    def close(self) -> None:
        """Close the write-ahead log, write dirty pages back and close
        the disk (idempotent)."""
        if self._txn_manager is not None:
            self._txn_manager.wal.close()
        self.pool.flush()
        self.disk.close()

    @classmethod
    def open(cls, disk: DiskManager, catalog: dict | None = None,
             **kwargs: object) -> "Database":
        """Reopen a persisted database from its pages.

        The catalog on page 0 locates the element-store chain and the
        tag-index chains.  The index holds exactly the live node ids, so
        the node table is, per id the index holds, the last record the
        store's chain has (a later record of an id supersedes the
        earlier ones); the statistics are rebuilt with one scan — no
        XML source required.  Crash recovery passes an explicit
        *catalog* payload (recovered from the write-ahead log) that
        supersedes the — possibly stale — page-0 copy.
        """
        from repro.storage.catalog import read_catalog

        database = cls(disk=disk, **kwargs)  # type: ignore[arg-type]
        pool = database.pool
        payload = catalog if catalog is not None else read_catalog(pool)
        database.name = payload["name"]
        database.store = ElementStore.attach(pool, payload["store_pages"])
        database.index = TagIndex.attach(
            pool, payload["index_chains"], payload["index_counts"])
        live = database.index.node_ids()
        # the store's chain is in write order: the last record wins
        records = {node.node_id: node for node in database.store.scan()
                   if node.node_id in live}
        if len(records) != len(live):
            missing = sorted(live.difference(records))
            raise StorageError(
                f"the tag index holds {len(missing)} node id(s) no "
                f"stored record has, first {missing[0]}")
        if len(records) != payload["node_count"]:
            raise ReproError(
                f"catalog expected {payload['node_count']} nodes, "
                f"the tag index holds {len(records)}")
        database.document = XmlDocument(sorted(records.values(),
                                               key=attrgetter("start")),
                                        name=database.name)
        # nothing was planned yet: plan against the reopened statistics
        # without publishing (a reopened database is at epoch 0)
        database._estimator = database._load_statistics(database.document)
        return database

    # -- snapshot isolation ---------------------------------------------------

    def read_snapshot(self) -> Snapshot:
        """Pin a consistent view of the database for one query.

        Taken under the publish lock, so it can never observe a commit
        half-way through its swap; because published objects are
        immutable (commits are copy-on-write), the snapshot stays
        valid for as long as the caller keeps it.
        """
        with self._publish_lock:
            self._require_document()
            assert self.document is not None
            assert self._estimator is not None
            return Snapshot(self.document, self.index, self._estimator,
                            self.statistics_epoch)

    def publish(self, store: ElementStore, index: TagIndex,
                document: XmlDocument,
                estimator: SummaryEstimator) -> None:
        """A commit's publish step: swap in its store, index and
        document and publish *estimator* as the planning inputs, as one
        atomic step under the publish lock — a reader sees the old
        quadruple or the new one, never a mix."""
        with self._publish_lock:
            self.store = store
            self.index = index
            self.document = document
            self._publish_planning_inputs(estimator)

    # -- transactions ---------------------------------------------------------

    @property
    def transactions(self) -> "TransactionManager":
        """The (lazily created) transaction manager.

        Databases opened with :func:`repro.txn.db.open_database` get a
        manager whose write-ahead log lives next to the pages file;
        this default one logs to memory — mutations are atomic and
        snapshot-isolated, durable only until process exit.
        """
        if self._txn_manager is None:
            from repro.txn.mutate import TransactionManager

            self._require_document()
            self._txn_manager = TransactionManager(self)
        return self._txn_manager

    @contextmanager
    def transaction(self) -> "Iterator[Transaction]":
        """Run a transaction: commits on clean exit, aborts on error.

        ::

            with db.transaction() as txn:
                txn.append_document(parse_xml(more))
        """
        txn = self.transactions.begin()
        try:
            yield txn
        except BaseException:
            if txn.status == "open":
                self.transactions.abort(txn)
            raise
        if txn.status == "open":
            txn.commit()

    def checkpoint(self) -> int:
        """Make all committed work durable in the pages file and reset
        the write-ahead log; returns the log bytes dropped."""
        return self.transactions.checkpoint()

    # -- execution -------------------------------------------------------------

    def _engine_context(self) -> tuple[Snapshot, EngineContext]:
        """Pin a snapshot and build the engine context one run reads
        through (every execution path starts here)."""
        snapshot = self.read_snapshot()
        return snapshot, EngineContext(snapshot.index, snapshot.document,
                                       factors=self.cost_factors)

    def stream_execute(self, plan: PhysicalPlan, pattern: QueryPattern,
                       engine: str = "block",
                       cancel: "Callable[[], bool] | None" = None,
                       spans: bool = False,
                       trace_context: TraceContext | None = None,
                       algorithm: str = "") -> StreamingExecution:
        """Run a plan on this node — :meth:`QueryTarget.stream_execute`.

        The block engine's root operator hands out its first row, then
        bounded blocks, before it finishes; with ``engine="tuple"`` the
        reference iterators pipeline from the leaves up, so the first
        results of a sort-free (FP) plan leave before any input is
        drained — the paper's Sec. 3.4 online-querying property.

        The finish hook below stamps a traced run's span tree with its
        trace id, then runs the shared finish step
        (:meth:`~repro.target.QueryTarget._finish_run`) under the
        snapshot's statistics epoch.
        """
        snapshot, context = self._engine_context()
        trace = self._trace_for(spans, trace_context)

        def finish(stream: StreamingExecution) -> None:
            if trace is not None:
                # one trace id on the retained tree and the log record
                assign_span_ids(stream.span, trace.trace_id)
            self._finish_run(stream, pattern, plan, algorithm,
                             snapshot.statistics_epoch)

        return Executor(context, pattern).stream(
            plan, engine=engine, cancel=cancel,
            spans=trace is not None, on_finish=finish)

    # -- cost-model control ------------------------------------------------

    def set_cost_factors(self, factors: CostFactors) -> None:
        """Swap the cost-model weight factors at runtime.

        Installs *factors* (typically learned by
        :mod:`repro.obs.calibrate`) on the shared :class:`CostModel`,
        so every subsequent optimization prices plans with them, and
        publishes the change like a document reload: plans cached under
        the old factors were costed in a different currency and must
        never be reused.  The service's aggregate engine counters are
        re-expressed so merging runs priced with the new factors keeps
        working.
        """
        if factors == self.cost_factors:
            return
        self.cost_factors = factors
        self.cost_model.set_factors(factors)
        if self._service is not None:
            self._service.on_cost_factors_changed(factors)
        self._publish_planning_inputs(self._estimator)

    # -- observability -------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """The service snapshot plus ``buffer_pool`` and, when a
        document is loaded, ``storage``; ``write_path`` once a
        transaction manager exists."""
        snapshot = super().stats()
        snapshot["buffer_pool"] = {
            "hits": self.pool.stats.hits,
            "misses": self.pool.stats.misses,
            "evictions": self.pool.stats.evictions,
            "hit_rate": self.pool.stats.hit_rate,
            "resident_pages": len(self.pool),
            "pinned_pages": len(self.pool.pinned_pages()),
        }
        if self.document is not None:
            snapshot["storage"] = self.statistics()
        if self._txn_manager is not None:
            write_path = self._txn_manager.metrics.snapshot()
            write_path["wal_bytes_current"] = self._txn_manager.wal.size
            snapshot["write_path"] = write_path
        return snapshot

    def collect_gauges(self, registry: MetricsRegistry) -> None:
        """Buffer-pool, posting-storage and write-path series, each set
        by the component that owns the numbers."""
        self.pool.collect_gauges(registry)
        self.index.collect_gauges(registry)
        if self._txn_manager is not None:
            self._txn_manager.collect_gauges(registry)

    def holistic_query(self,
                       query: str | QueryPattern) -> ExecutionResult:
        """Evaluate a pattern with one holistic twig join (TwigStack).

        No join-order optimization is involved: the whole pattern is
        matched by a single multi-way operator — the paper's
        future-work comparison point (Sec. 6, reference [5]).
        """
        from repro.engine.twigstack import holistic_matches

        pattern = self.compile(query)
        _, context = self._engine_context()
        return holistic_matches(pattern, context)

    def value_join(self, left_query: str | QueryPattern,
                   right_query: str | QueryPattern,
                   left_node: int, right_node: int,
                   left_attribute: str = "", right_attribute: str = "",
                   algorithm: str = "DPP"):
        """Join two pattern queries on equal node values (Sec. 6).

        Each side is optimized and executed as a structural-join plan;
        the results are then hash-joined on the text (or *attribute*)
        of the named pattern nodes.  Returns a
        :class:`~repro.engine.valuejoin.ValueJoinResult`.
        """
        from repro.engine.valuejoin import ValueJoin

        document = self._require_document()
        left = self.query(left_query, algorithm=algorithm)
        right = self.query(right_query, algorithm=algorithm)
        join = ValueJoin(document, left_node, right_node,
                         left_attribute=left_attribute,
                         right_attribute=right_attribute)
        return join.join(left.execution, right.execution)

    def bad_plan(self, query: str | QueryPattern, samples: int = 30,
                 seed: int = 0) -> tuple[PhysicalPlan, float]:
        """The worst of *samples* random plans (Table 1's last column)."""
        pattern = self.compile(query)
        return worst_random_plan(pattern, self.estimator, samples=samples,
                                 seed=seed, cost_model=self.cost_model)

    # -- introspection ---------------------------------------------------------

    def statistics(self) -> dict[str, object]:
        """Storage and data statistics for diagnostics.

        Beyond the page counts, ``index`` carries the compressed
        posting accounting: frame bytes on disk and decoded-block
        resident bytes, totals plus per tag (see
        :meth:`~repro.storage.tagindex.TagIndex.storage_stats`).
        """
        document = self._require_document()
        return {
            "nodes": len(document),
            "depth": document.depth(),
            "tags": len(document.tags()),
            "store_pages": self.store.page_count,
            "index_pages": self.index.page_count(),
            "disk_pages": self.disk.page_count,
            "buffer_capacity": self.pool.capacity,
            "index": self.index.storage_stats(),
        }
