"""Mutation API: WAL-backed transactions with snapshot-isolated commits.

A :class:`Transaction` records its edits (``insert_subtree`` /
``delete_subtree`` / ``append_document``) over the published document
as two dicts, the records it added and the base records it removed;
no shared state is touched until :meth:`TransactionManager.commit`.
The commit pipeline then

1. **validates** — derives the new :class:`XmlDocument` from the
   published one and the delta
   (:meth:`~repro.document.document.XmlDocument.derive`, which checks
   every region-nesting invariant the delta can break) before anything
   reaches storage;
2. **prepares copy-on-write storage** — clones of the element store
   and tag index absorb the node delta into *freshly allocated* pages
   (the store appends the added records; the index's splice removes
   and adds postings, and so decides which stored records are live),
   never mutating a page the published database references, so every
   in-flight reader keeps a consistent view;
3. **logs** — BEGIN, one PAGE record per freshly written page, a
   CATALOG record holding the commit's catalog *delta* (the touched
   tags' chains and counts, the appended store pages, the node count
   — :func:`~repro.storage.catalog.catalog_delta`), and COMMIT are
   appended to the write-ahead log, which is fsync'd: the commit is
   durable before publication.  The record is as large as the change,
   not as the catalog;
4. **publishes** — the database's statistics absorb the delta
   (:meth:`~repro.estimation.estimator.Statistics.apply_delta`), then
   :meth:`~repro.api.Database.publish` swaps in the new store, index,
   document and a freshly derived estimator under the publish lock —
   the one publication of new planning inputs, which bumps the
   statistics epoch and drops every cached plan.

Readers therefore see either the old or the new database, never a mix
— snapshot isolation at document granularity — and a crash at any
point either replays the commit from the log or discards it wholesale
(:mod:`repro.txn.recovery`).

Labels: an insert takes the parent's tail gap when the subtree fits,
else the nearest enclosing subtree with room is rebuilt (its live
descendants, the incoming document spliced in as the parent's last
child) and relabelled; every gapped label, in every case, comes from
:func:`repro.txn.labels.relabel`.

Writers are serialized: :meth:`TransactionManager.begin` blocks until
the previous transaction commits or aborts (a single-writer /
many-readers system, like the paper's Timber base).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import TransactionError
from repro.document.builder import DocumentBuilder
from repro.document.document import XmlDocument
from repro.document.node import NodeRecord, Region
from repro.obs.registry import BucketRecorder
from repro.obs.spans import Span, TraceContext, assign_span_ids
from repro.storage.catalog import catalog_delta
from repro.txn.labels import DEFAULT_GAP, pick_gap, relabel
from repro.txn.wal import FSYNC_BUCKETS, WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api import Database

#: commit-size bucket bounds (bytes): one catalog-only commit through
#: multi-megabyte bulk loads.
COMMIT_BYTE_BUCKETS = (512.0, 4096.0, 16384.0, 65536.0, 262144.0,
                       1048576.0, 4194304.0, 16777216.0)

_start = attrgetter("start")


def write_path_histograms(registry) -> tuple:
    """The write path's (fsync, commit, commit-bytes) histogram
    families on *registry*, created on first use.

    The query service calls this at construction so the families' ``#
    TYPE`` lines appear in every scrape;
    :meth:`TransactionManager.collect_gauges` mirrors the storage-side
    recorders into them.
    """
    return (
        registry.histogram(
            "repro_wal_fsync_seconds",
            "WAL fsync latency (the commit durability point)",
            buckets=FSYNC_BUCKETS),
        registry.histogram("repro_txn_commit_seconds",
                           "End-to-end commit latency"),
        registry.histogram("repro_txn_commit_wal_bytes",
                           "WAL bytes appended per commit",
                           buckets=COMMIT_BYTE_BUCKETS))


@dataclass
class TxnMetrics:
    """Lifetime write-path counters (surfaced via ``Database.stats``).

    The ``*_seconds`` fields are cumulative per-stage wall time of the
    commit pipeline (validate → copy-on-write → WAL append+fsync →
    publish); every field here is exported as one
    ``repro_txn_counter_total{counter=...}`` series by the service
    collector, so the stage split is scrape-visible without bespoke
    wiring.
    """

    begun: int = 0
    committed: int = 0
    aborted: int = 0
    empty_commits: int = 0
    nodes_added: int = 0
    nodes_removed: int = 0
    pages_logged: int = 0
    wal_bytes: int = 0
    relabels: int = 0
    checkpoints: int = 0
    validate_seconds: float = 0.0
    cow_seconds: float = 0.0
    wal_seconds: float = 0.0
    fsync_seconds: float = 0.0
    publish_seconds: float = 0.0
    commit_seconds: float = 0.0
    checkpoint_seconds: float = 0.0
    recovery_seconds: float = 0.0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


@dataclass
class CommitResult:
    """What one commit did (returned by :meth:`TransactionManager.commit`)."""

    txn_id: int
    added: int = 0
    removed: int = 0
    pages_logged: int = 0
    wal_bytes: int = 0
    statistics_epoch: int = 0
    relabels: int = 0
    seconds: float = 0.0

    @property
    def empty(self) -> bool:
        return not self.added and not self.removed


class Transaction:
    """One writer's private edits, recorded over the published document.

    The transaction reads through an overlay: ``_added`` first, then
    the base document unless the id is in ``_removed``.  Storage, the
    log, and the published database are only touched at commit, and
    nothing is copied at begin, so aborting a transaction is free.
    """

    def __init__(self, manager: "TransactionManager", txn_id: int,
                 document: XmlDocument) -> None:
        self._manager = manager
        self.txn_id = txn_id
        #: the published document this transaction's edits apply to
        self._base = document
        self._root_id = document.root.node_id
        # edit sets relative to the base snapshot: a changed node is
        # its base record in _removed plus its new record in _added.
        self._added: dict[int, NodeRecord] = {}
        self._removed: dict[int, NodeRecord] = {}
        self.status = "open"
        self.relabels = 0

    # -- bookkeeping primitives ---------------------------------------------

    def _check_open(self) -> None:
        if self.status != "open":
            raise TransactionError(
                f"transaction {self.txn_id} is {self.status}")

    def _get(self, node_id: int) -> NodeRecord | None:
        """The live record of *node_id* through the overlay, if any."""
        node = self._added.get(node_id)
        if node is None and node_id not in self._removed:
            node = self._base.get(node_id)
        return node

    def _node(self, node_id: int) -> NodeRecord:
        node = self._get(node_id)
        if node is None:
            raise TransactionError(f"no node with id {node_id}")
        return node

    def _take(self, node_id: int) -> NodeRecord:
        node = self._added.pop(node_id, None)
        if node is None:
            # untouched so far, hence still the base snapshot's record
            node = self._removed[node_id] = self._node(node_id)
        return node

    def _put(self, node: NodeRecord) -> None:
        if self._get(node.node_id) is not None:
            raise TransactionError(
                f"label collision on node id {node.node_id}")
        base = self._removed.get(node.node_id)
        if base is not None and base == node:
            del self._removed[node.node_id]  # change cancelled out
        else:
            self._added[node.node_id] = node

    def _subtree(self, node: NodeRecord) -> list[NodeRecord]:
        """*node* plus its current descendants, in document order."""
        removed = self._removed
        start, end = node.start, node.end
        nodes = [base for base in self._base.subtree(node)
                 if base.node_id not in removed]
        nodes.extend(added for added in self._added.values()
                     if start <= added.start <= end)
        nodes.sort(key=_start)
        return nodes

    # -- mutation API ---------------------------------------------------------

    def append_document(self, document: XmlDocument,
                        gap: int = DEFAULT_GAP) -> int:
        """Splice *document* under the root as its new last child.

        The root's span always has room past its current end — growing
        ``root.end`` renumbers nobody — so appends never relabel:
        exactly ``len(document) + 1`` records change.  Returns the new
        subtree root's node id.
        """
        return self.insert_subtree(self._root_id, document, gap=gap)

    def insert_subtree(self, parent_id: int, document: XmlDocument,
                       gap: int = DEFAULT_GAP) -> int:
        """Insert *document* as the last child of node *parent_id*.

        The subtree is placed in the parent's tail label gap when it
        fits; otherwise the smallest enclosing subtree with room is
        relabelled locally (escalating to the root only when every
        intermediate span is exhausted).  Returns the new subtree
        root's node id.
        """
        self._check_open()
        parent = self._node(parent_id)
        if parent.node_id == self._root_id:
            return self._place(document.nodes, parent, parent.end + 1,
                               gap)[0].node_id
        free_low = max((node.end for node in self._subtree(parent)[1:]),
                       default=parent.start) + 1
        fitted_gap = pick_gap(parent.end - free_low + 1, len(document))
        if fitted_gap is not None:
            return self._place(document.nodes, parent, free_low,
                               fitted_gap)[0].node_id
        return self._relabel_and_insert(parent, document)

    def delete_subtree(self, node_id: int) -> int:
        """Remove the node and its whole subtree; returns nodes removed.

        No other label changes: region encodings stay valid when a
        subrange empties (ancestors' ends simply over-cover, which the
        containment predicates never notice), so a delete touches
        exactly the deleted records.
        """
        self._check_open()
        node = self._node(node_id)
        if node.node_id == self._root_id:
            raise TransactionError("cannot delete the document root")
        doomed = self._subtree(node)
        for victim in doomed:
            self._take(victim.node_id)
        return len(doomed)

    # -- placement -------------------------------------------------------------

    def _place(self, nodes: Sequence[NodeRecord], parent: NodeRecord,
               base: int, gap: int) -> list[NodeRecord]:
        """Label *nodes* (complete subtrees in document order) from
        *base* with *gap* under *parent* and add them; under the root,
        the root's end first grows to cover them (the root's span can
        always grow — extending it renumbers nobody)."""
        placed = relabel(nodes, base, gap, parent.level + 1,
                         parent.node_id)
        if parent.node_id == self._root_id and placed[-1].end > parent.end:
            root = self._take(parent.node_id)
            self._put(replace(root, region=Region(
                root.start, placed[-1].end, root.level)))
        for node in placed:
            self._put(node)
        return placed

    def _relabel_and_insert(self, parent: NodeRecord,
                            document: XmlDocument) -> int:
        """Relabel the nearest enclosing subtree with room, then insert.

        Walks up from *parent* to the smallest ancestor whose span can
        hold its current descendants plus the incoming subtree, rebuilds
        that anchor's subtree — its live descendants, with *document*
        spliced in as *parent*'s last child — and places the rebuilt
        descendants with fresh gapped labels (the anchor's own span is
        untouched unless it is the root, whose end may grow).
        """
        count = len(document)
        anchor = parent
        while anchor.node_id != self._root_id:
            existing = len(self._subtree(anchor)) - 1
            if pick_gap(anchor.end - anchor.start,
                        existing + count) is not None:
                break
            anchor = self._node(anchor.parent_id)
        self.relabels += 1
        if document.nodes[-1].start != count - 1:
            # splicing reads labels as positions: make them dense
            document = XmlDocument(relabel(document.nodes, 0, 1, 0, -1))
        subtree = self._subtree(anchor)
        builder = DocumentBuilder()
        open_nodes: list[NodeRecord] = []
        grafted = 0
        for node in [*subtree, None]:
            while open_nodes and (node is None
                                  or open_nodes[-1].end < node.start):
                if open_nodes.pop().node_id == parent.node_id:
                    grafted = builder.size
                    builder.splice(document)
                builder.end_element()
            if node is not None:
                builder.start_element(node.tag, node.attributes)
                builder.text(node.text)
                open_nodes.append(node)
        descendants = builder.finish().nodes[1:]
        gap = pick_gap(anchor.end - anchor.start, len(descendants))
        if anchor.node_id == self._root_id:
            gap = max(gap or 0, DEFAULT_GAP)
        for victim in subtree[1:]:
            self._take(victim.node_id)
        return self._place(descendants, anchor, anchor.start + 1,
                           gap)[grafted - 1].node_id

    # -- terminal states ------------------------------------------------------

    def commit(self) -> CommitResult:
        """Shorthand for ``manager.commit(self)``."""
        return self._manager.commit(self)

    def abort(self) -> None:
        """Shorthand for ``manager.abort(self)``."""
        self._manager.abort(self)


class TransactionManager:
    """Single-writer transaction scope over one :class:`Database`.

    Owns the write-ahead log and the writer mutex (the statistics a
    commit advances are the database's own); created via :meth:`repro.api.Database.transactions`
    (in-memory log) or :func:`repro.txn.db.open_database` (durable
    log next to the pages file).
    """

    def __init__(self, db: "Database", wal: WriteAheadLog | None = None,
                 next_txn_id: int = 1) -> None:
        self.db = db
        self.wal = wal if wal is not None else WriteAheadLog(None)
        self.metrics = TxnMetrics()
        #: per-commit distributions, mirrored into registry histograms
        #: by :meth:`collect_gauges` (guarded by the writer mutex, like
        #: everything else commit-side)
        self.commit_latency = BucketRecorder()
        self.commit_bytes = BucketRecorder(COMMIT_BYTE_BUCKETS)
        self._writer = threading.Lock()
        self._next_txn_id = next_txn_id
        #: set by :func:`repro.txn.db.open_database` after a redo pass.
        self.last_recovery = None
        if db.document is None:
            raise TransactionError(
                "cannot manage transactions before a document is loaded")

    def collect_gauges(self, registry) -> None:
        """Set the write-path counters, WAL size, commit/fsync
        histograms and last-recovery gauges on a metrics registry."""
        txn_gauge = registry.gauge(
            "repro_txn_counter_total",
            "Write-path counters (commits, WAL bytes, relabels, ...)")
        for name, value in self.metrics.snapshot().items():
            txn_gauge.set(value, counter=name)
        registry.gauge("repro_wal_size_bytes",
                       "Current write-ahead log size").set(self.wal.size)
        # copied verbatim, never re-observed — the recorders are the
        # truth
        fsync, commit, commit_bytes = write_path_histograms(registry)
        self.wal.stats.fsync_latency.mirror_into(fsync)
        self.commit_latency.mirror_into(commit)
        self.commit_bytes.mirror_into(commit_bytes)
        recovery = self.last_recovery
        if recovery is not None:
            registry.gauge(
                "repro_recovery_replayed_pages",
                "Page images written back by the last WAL redo pass"
            ).set(recovery.replayed_pages)
            registry.gauge(
                "repro_recovery_seconds",
                "Wall time of the last WAL redo pass"
            ).set(recovery.seconds)
            registry.gauge(
                "repro_recovery_clean",
                "1 when the last recovery found an intact log with "
                "no dangling transaction"
            ).set(1.0 if recovery.clean else 0.0)

    # -- lifecycle ------------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a transaction; blocks while another writer is open."""
        self._writer.acquire()
        try:
            document = self.db.document
            if document is None:
                raise TransactionError("no document loaded")
            txn = Transaction(self, self._next_txn_id, document)
            self._next_txn_id += 1
            self.metrics.begun += 1
            return txn
        except BaseException:
            self._writer.release()
            raise

    def abort(self, txn: Transaction) -> None:
        """Discard the transaction; free because nothing was shared."""
        txn._check_open()
        txn.status = "aborted"
        self.metrics.aborted += 1
        self._writer.release()

    def commit(self, txn: Transaction) -> CommitResult:
        """Validate, prepare copy-on-write storage, log, publish."""
        txn._check_open()
        started = time.perf_counter()
        try:
            result = self._commit_locked(txn, started)
            txn.status = "committed"
            return result
        except BaseException:
            txn.status = "failed"
            self.metrics.aborted += 1
            raise
        finally:
            self._writer.release()

    def _commit_locked(self, txn: Transaction,
                       started: float) -> CommitResult:
        db = self.db
        added = txn._added
        removed = txn._removed
        if not added and not removed:
            self.metrics.empty_commits += 1
            return CommitResult(txn_id=txn.txn_id,
                                statistics_epoch=db.statistics_epoch,
                                seconds=time.perf_counter() - started)
        span = Span("commit", detail=f"txn {txn.txn_id}")
        # 1. validate: the derived document checks every labelling
        # invariant the delta can break before a single byte reaches
        # storage or the log.
        validate_span = Span(
            "validate", detail=f"+{len(added)} -{len(removed)} nodes")
        validate_started = time.perf_counter()
        new_document = txn._base.derive(added, removed, name=db.name)
        validate_span.seconds = (time.perf_counter()
                                 - validate_started)
        # 2. copy-on-write storage: the delta lands in fresh pages only.
        cow_span = Span("cow")
        cow_started = time.perf_counter()
        pages_before = db.disk.page_count
        store = db.store.clone_for_write()
        for node in sorted(added.values(), key=_start):
            store.store_node(node)
        index = db.index.clone_for_write()
        edits = _index_edits(added.values(), removed.values())
        index.apply_edits(edits)
        delta = catalog_delta(index, edits,
                              store.page_ids[db.store.page_count:])
        cow_span.seconds = time.perf_counter() - cow_started
        cow_span.detail = (f"{db.disk.page_count - pages_before} "
                           f"fresh pages")
        # 3. log + fsync: after append_commit returns, the transaction
        # survives any crash; before it, recovery discards it wholesale.
        wal_span = Span("wal")
        wal_started = time.perf_counter()
        wal_before = self.wal.size
        sync_before = self.wal.stats.sync_seconds
        self.wal.append_begin(txn.txn_id)
        pages_logged = 0
        for page_id in range(pages_before, db.disk.page_count):
            page = db.pool.fetch(page_id)
            try:
                image = page.to_bytes()
            finally:
                db.pool.unpin(page_id)
            self.wal.append_page(txn.txn_id, page_id, image)
            pages_logged += 1
        self.wal.append_catalog(txn.txn_id, delta)
        self.wal.append_commit(txn.txn_id)
        wal_bytes = self.wal.size - wal_before
        fsync_seconds = self.wal.stats.sync_seconds - sync_before
        wal_span.seconds = time.perf_counter() - wal_started
        wal_span.detail = f"{pages_logged} pages, {wal_bytes} bytes"
        fsync_span = Span("fsync")
        fsync_span.seconds = fsync_seconds
        wal_span.children = [fsync_span]
        # 4. publish atomically: readers see old or new, never a mix.
        publish_span = Span("publish")
        publish_started = time.perf_counter()
        # readers plan with the published estimator, never with
        # tag_statistics itself, so the delta is folded in before the
        # lock is taken
        db.tag_statistics.apply_delta(added.values(), removed.values(),
                                      new_document)
        db.publish(store, index, new_document,
                   db.tag_statistics.estimator())
        publish_span.seconds = time.perf_counter() - publish_started
        publish_span.detail = f"epoch {db.statistics_epoch}"
        seconds = time.perf_counter() - started
        span.children = [validate_span, cow_span, wal_span,
                         publish_span]
        span.seconds = seconds
        span.output_rows = len(added) + len(removed)
        # the write path is its own (single-process) trace; stamping
        # gives commits joinable trace ids in /traces and the audit log
        assign_span_ids(span, TraceContext.new().trace_id,
                        prefix=f"t{txn.txn_id}-")
        db._retain_trace(span)
        self.metrics.committed += 1
        self.metrics.nodes_added += len(added)
        self.metrics.nodes_removed += len(removed)
        self.metrics.pages_logged += pages_logged
        self.metrics.wal_bytes += wal_bytes
        self.metrics.relabels += txn.relabels
        self.metrics.validate_seconds += validate_span.seconds
        self.metrics.cow_seconds += cow_span.seconds
        self.metrics.wal_seconds += wal_span.seconds
        self.metrics.fsync_seconds += fsync_seconds
        self.metrics.publish_seconds += publish_span.seconds
        self.metrics.commit_seconds += seconds
        self.commit_latency.observe(seconds)
        self.commit_bytes.observe(wal_bytes)
        return CommitResult(
            txn_id=txn.txn_id, added=len(added), removed=len(removed),
            pages_logged=pages_logged, wal_bytes=wal_bytes,
            statistics_epoch=db.statistics_epoch,
            relabels=txn.relabels, seconds=seconds)

    # -- checkpoint ------------------------------------------------------------

    def checkpoint(self) -> int:
        """Flush pages, anchor the catalog, reset the log.

        Ordering is the recovery contract: data pages and the page-0
        catalog become durable (``persist`` ends in an fsync) *before*
        the log resets, so a crash at any point leaves either the old
        log (fully replayable over the new pages — redo is idempotent)
        or the new, empty one.  Returns the bytes dropped from the log.
        """
        with self._writer:
            started = time.perf_counter()
            dropped = self.wal.size
            self.db.persist()
            self.wal.truncate(0)
            self.wal.append_checkpoint({
                "pages": self.db.disk.page_count,
                "node_count": len(self.db.document),
                "statistics_epoch": self.db.statistics_epoch,
            })
            seconds = time.perf_counter() - started
            self.metrics.checkpoints += 1
            self.metrics.checkpoint_seconds += seconds
            span = Span("checkpoint",
                        detail=f"dropped {dropped} WAL bytes")
            span.seconds = seconds
            assign_span_ids(span, TraceContext.new().trace_id,
                            prefix="ckpt-")
            self.db._retain_trace(span)
            return dropped

    def close(self) -> None:
        """Close the log (the database's pages stay open)."""
        self.wal.close()


def _index_edits(
        added: Iterable[NodeRecord], removed: Iterable[NodeRecord],
) -> dict[str, tuple[set[int], list[tuple[int, int, int]]]]:
    """Group a node delta into per-tag posting edits."""
    edits: dict[str, tuple[set[int], list[tuple[int, int, int]]]] = {}
    for node in removed:
        edits.setdefault(node.tag, (set(), []))[0].add(node.start)
    for node in added:
        edits.setdefault(node.tag, (set(), []))[1].append(
            (node.start, node.end, node.level))
    return edits
