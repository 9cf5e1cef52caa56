"""Shard subsystem tests: partitioner properties, fault injection,
pool lifecycle, and the statistics-epoch plan-cache contract.

The partitioner tests are property-style over randomized documents
and shard counts — the invariants (structurally related pairs stay
co-located, shard node sets are disjoint, their union is the corpus)
must hold for *any* tree shape, including degenerate ones.  The
process-backed tests keep documents small and reuse one worker fleet
per module where possible: spawning a worker costs real fork/exec
time, and these tests are tier-1.
"""

from __future__ import annotations

import gc
import os
import random
import re
import signal
import socket
import sys
import threading
import time
import weakref
from array import array
from itertools import chain

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.api import Database
from repro.core.pattern import Axis, QueryPattern
from repro.core.plans import IndexScanPlan, JoinAlgorithm, StructuralJoinPlan
from repro.document.parser import parse_xml
from repro.errors import PlanError, QueryCancelled, ShardError
from repro.obs.registry import MetricsRegistry
from repro.shard import (ShardedDatabase, coordinator,
                         partition_document)
from repro.engine import blocks
from repro.engine.tuples import PackedRows
from repro.shard.coordinator import merge_packed_runs
from repro.shard.worker import pack_run
from repro.storage.frames import LABEL_TYPECODE
from repro.workloads import PAPER_QUERIES, dblp_document, random_pattern
from repro.workloads.personnel import personnel_document

from tests.conftest import (branches_at_root, canonical_bindings,
                            random_document)

SHARD_COUNTS = (1, 2, 3, 5, 9)


def _property_documents():
    for seed, size in ((11, 30), (23, 90), (37, 200)):
        yield random_document(seed, size=size)
    yield personnel_document(target_nodes=250)


# -- partitioner properties (pure, no worker processes) ------------------


def structural_pairs_local(partition) -> bool:
    """The partitioning invariant, checked pair by pair (O(n^2) worst):
    True iff every (ancestor, descendant) pair not involving the root
    lives in one shard."""
    document = partition.document
    root_id = document.root.node_id
    for node in document:
        if node.node_id == root_id:
            continue
        shard = partition.shard_of(node.node_id)
        for descendant in document.descendants(node):
            if partition.shard_of(descendant.node_id) != shard:
                return False
    return True


def test_partition_disjoint_union_and_colocation():
    for document in _property_documents():
        corpus = ({node.node_id for node in document}
                  - {document.root.node_id})
        for shards in SHARD_COUNTS:
            partition = partition_document(document, shards)
            assert partition.shards == shards
            owner: dict[int, int] = {}
            for shard_id in range(shards):
                assignment = partition.assignments[shard_id]
                ids = {node.node_id
                       for node in partition.shard_nodes(shard_id)}
                assert len(ids) == assignment.node_count
                for node_id in ids:
                    assert node_id not in owner, (
                        f"node {node_id} assigned to shards "
                        f"{owner[node_id]} and {shard_id}")
                    owner[node_id] = shard_id
                if assignment.is_empty:
                    assert assignment.label_lo == -1
                    assert assignment.label_hi == -1
                else:
                    assert all(assignment.label_lo <= node_id
                               <= assignment.label_hi
                               for node_id in ids)
            assert set(owner) == corpus
            assert structural_pairs_local(partition)


def test_partition_shard_documents_are_valid_with_replicated_root():
    for document in _property_documents():
        for shards in (2, 4):
            partition = partition_document(document, shards)
            for shard_id in range(shards):
                # XmlDocument's constructor validates structure, so
                # building the shard document IS the structural check
                shard_doc = partition.shard_document(shard_id)
                assert shard_doc.root.region == document.root.region
                assert (len(shard_doc) == 1 + partition
                        .assignments[shard_id].node_count)


def test_partition_more_shards_than_subtrees_leaves_empty_shards():
    document = random_document(5, size=12)
    children = len(document.children(document.root))
    shards = children + 4
    partition = partition_document(document, shards)
    empty = [assignment for assignment in partition.assignments
             if assignment.is_empty]
    assert len(empty) == shards - children
    # an empty shard still yields a queryable one-node document
    empty_doc = partition.shard_document(empty[0].shard_id)
    assert len(empty_doc) == 1


def test_partition_shard_of_contract():
    document = personnel_document(target_nodes=120)
    partition = partition_document(document, 3)
    with pytest.raises(ShardError):
        partition.shard_of(document.root.node_id)
    with pytest.raises(ShardError):
        partition.shard_of(document.root.end + 10)
    for node in document:
        if node.node_id != document.root.node_id:
            shard_id = partition.shard_of(node.node_id)
            assert node.node_id in {
                owned.node_id
                for owned in partition.shard_nodes(shard_id)}


def test_partition_rejects_bad_shard_count():
    document = random_document(1, size=10)
    with pytest.raises(ShardError):
        partition_document(document, 0)


# -- the worker fleet (process-backed) -----------------------------------


FLEET_ALGORITHMS = ("DP", "DPP", "DPP'", "DPAP-EB", "DPAP-LD", "FP")
FLEET_DOCUMENTS = {
    "pers": lambda: personnel_document(target_nodes=2000, seed=42),
    "dblp": lambda: dblp_document(entries=400, seed=42),
}


def _assert_fleet_plans_like_a_single_node(dataset: str, shards: int,
                                           draws: int) -> None:
    document = FLEET_DOCUMENTS[dataset]()
    rng = random.Random(7)
    tags = tuple(sorted(document.tags()))
    patterns = [query.pattern for query in PAPER_QUERIES.values()] + [
        random_pattern(rng, tags=tags, min_nodes=3, max_nodes=6,
                       predicate_chance=0.5) for _ in range(draws)]
    single = Database.from_document(document)
    with ShardedDatabase(document, shards=shards) as fleet:
        # both plan on the whole document's label paths
        assert (fleet.estimator.summary.labels()
                == single.estimator.summary.labels())
        for pattern in patterns:
            for algorithm in FLEET_ALGORITHMS:
                expected = single.optimize(pattern, algorithm)
                chosen = fleet.optimize(pattern, algorithm)
                assert (chosen.plan.signature()
                        == expected.plan.signature()), (pattern, algorithm)
                assert (chosen.estimated_cost
                        == expected.estimated_cost), (pattern, algorithm)


@pytest.mark.parametrize("shards", [2, 3])
@pytest.mark.parametrize("dataset", ["pers", "dblp"])
def test_fleet_plans_like_a_single_node(dataset, shards):
    """A fleet plans against the statistics of the whole document, built
    by the scan a single node runs, so every algorithm chooses the
    single node's plan at its estimated cost, value predicates
    included.  Summed per-shard statistics counted a value shared by two
    shards twice (dblp ``year``: 10 distinct on a node, 20 on two
    shards), and 2-shard dblp planned draw 30 at 6 422 instead of
    9 491."""
    _assert_fleet_plans_like_a_single_node(dataset, shards, draws=60)


@pytest.mark.slow
@pytest.mark.parametrize("shards", [2, 3])
@pytest.mark.parametrize("dataset", ["pers", "dblp"])
def test_fleet_plans_like_a_single_node_wide(dataset, shards):
    _assert_fleet_plans_like_a_single_node(dataset, shards, draws=300)



@pytest.fixture(scope="module")
def corpus_document():
    return personnel_document(target_nodes=300, seed=7)


@pytest.fixture(scope="module")
def sharded(corpus_document):
    with ShardedDatabase(corpus_document, shards=2) as database:
        yield database


def test_sharded_bindings_match_single_node(sharded, corpus_document,
                                            chain_pattern):
    """A fleet returns a single node's rows for the same plan, in the
    single node's order — whatever order the plan produces — and in
    the single node's form: the pipe carries the engine's own label
    arrays, so the packed labels are equal, typecode included."""
    single = Database.from_document(corpus_document)
    for algorithm in FLEET_ALGORITHMS:
        plan = sharded.optimize(chain_pattern, algorithm=algorithm).plan
        for engine in ("block", "tuple"):
            merged = sharded.execute(plan, chain_pattern, engine=engine)
            reference = single.execute(plan, chain_pattern, engine=engine)
            assert len(reference) > 20
            assert list(merged.rows) == list(reference.rows), (
                algorithm, engine)
            labels = merged.rows.labels
            assert labels.typecode == reference.rows.labels.typecode
            assert labels.typecode == LABEL_TYPECODE
            assert labels == reference.rows.labels, (algorithm, engine)


def test_sharded_root_only_bindings_deduplicate(sharded):
    # every shard replicates the root, so a root-only pattern is the
    # one case where shards emit duplicate rows; the merge collapses
    # them to exactly one
    result = sharded.query("//company")
    assert len(result.execution) == 1


# -- the columnar reply: pack, concatenate-or-merge, rebuild -------------

#: the four queries of the ``shard_gather`` benchmark workload
GATHER_QUERIES = ("Q.Pers.1.a", "Q.Pers.2.c", "Q.Pers.3.d", "Q.Pers.4.d")


def _flat(keys) -> array:
    return array(LABEL_TYPECODE, chain.from_iterable(keys))


@pytest.fixture
def general_merges(monkeypatch):
    """Counts the calls that reach the general ``heapq.merge`` path."""
    calls = []
    merge = coordinator.merge

    def counting(*runs, key=None):
        calls.append(1)
        return merge(*runs, key=key)

    monkeypatch.setattr(coordinator, "merge", counting)
    return calls


def test_columnar_path_equals_the_per_row_formula(
        sharded, corpus_document, general_merges):
    """The packed reply, concatenated and kept packed, must be exactly
    what the per-row formula computes from the reference iterators'
    ``Region`` rows: reduce each shard's rows to start labels in the
    plan's order — no sort — and the merged result is the single
    node's rows; for the ``Region`` view, one region lookup per
    label."""
    regions = {node.region.start: node.region
               for node in corpus_document}
    single = Database.from_document(corpus_document)
    shard_databases = [
        Database.from_document(sharded.partition.shard_document(shard))
        for shard in range(sharded.shards)]
    for name in GATHER_QUERIES:
        pattern = PAPER_QUERIES[name].pattern
        plan = sharded.optimize(pattern, algorithm="DPP").plan
        for database in shard_databases:
            result = database.execute(plan, pattern)
            key = result.schema.position(plan.ordered_by)
            keys = [tuple(region.start for region in row) for row in
                    database.execute(plan, pattern, engine="tuple").tuples]
            assert pack_run(result.rows, key) == _flat(keys), name
        merged = single.execute(plan, pattern).rows
        expected = [tuple(regions[s] for s in row) for row in merged]
        assert expected, name
        result = sharded.execute(plan, pattern)
        assert list(result.rows) == merged, name
        assert result.tuples == expected, name
        assert list(sharded.stream_execute(plan, pattern)) == expected
    # label-range partitioning keeps these runs range-disjoint: every
    # merge above was a concatenation
    assert not general_merges


def test_merge_packed_runs_concatenates_or_merges(general_merges):
    def merged(runs, width, key=0):
        run = merge_packed_runs([_flat(run) for run in runs], width, key)
        assert run.typecode == LABEL_TYPECODE and run.itemsize == 4
        return list(run)

    # ordered boundaries, an empty run in the middle
    assert merged([[(1, 2), (1, 3)], [], [(4, 5)]], 2) == [
        1, 2, 1, 3, 4, 5]
    # the key column ties across the boundary (a root-bound column):
    # shard order stands, whatever the other columns hold
    assert merged([[(0, 7), (0, 3)], [(0, 2)]], 2) == [0, 7, 0, 3, 0, 2]
    # equal boundary rows: root-only rows collapse to one
    assert merged([[(0,)], [(0,)], [(0,)]], 1) == [0]
    # ordered on the second column, not the first
    assert merged([[(5, 2), (1, 3)], [(0, 4)]], 2, key=1) == [
        5, 2, 1, 3, 0, 4]
    # width 1, nothing at all, one run only
    assert merged([[(3,), (5,)], [(8,)]], 1) == [3, 5, 8]
    assert merged([[], []], 3) == []
    assert merged([[], [(6, 7, 8)]], 3) == [6, 7, 8]
    # both ends of the label range, kept exactly
    assert merged([[(0, 2**32 - 1)], [(2**32 - 1, 0)]], 2) == [
        0, 2**32 - 1, 2**32 - 1, 0]
    assert not general_merges
    # a later shard's run starts below an earlier one's end: merged on
    # the key, ties in shard order, the root-only duplicate collapsed
    assert merged([[(0, 2), (0, 3), (1, 2)], [(0, 4)]], 2) == [
        0, 2, 0, 3, 0, 4, 1, 2]
    assert merged([[(0,), (1,)], [(0,)], [(0,)]], 1) == [0, 1]
    assert merged([[(4, 1), (2, 3)], [(7, 2)]], 2, key=1) == [
        4, 1, 7, 2, 2, 3]
    assert merged([[(0, 2**32 - 1)], [(2**32 - 1, 0)]], 2, key=1) == [
        2**32 - 1, 0, 0, 2**32 - 1]
    assert len(general_merges) == 4


@pytest.fixture(scope="module")
def nested_root_tag():
    """Two subtrees under a root whose tag recurs below it, on more
    shards than subtrees: shards 2 and 3 own nothing."""
    document = parse_xml(
        "<a><a><b/><b/></a><c><b/></c></a>", name="nested-root-tag")
    with ShardedDatabase(document, shards=4) as database:
        yield database


def _totals(fleet: ShardedDatabase, name: str) -> list:
    """One column of the fleet's cumulative per-shard totals."""
    return [entry[name] for entry in fleet.stats()["shards"]["totals"]]


def test_concatenation_when_runs_are_range_disjoint(
        sharded, nested_root_tag, general_merges):
    assert len(sharded.query("//manager//employee").execution) > 0
    # width-1 schema, rows from two shards, empty runs from two more
    before = _totals(nested_root_tag, "rows")
    result = nested_root_tag.query("//b").execution
    assert list(result.rows) == [(2,), (3,), (5,)]
    after = _totals(nested_root_tag, "rows")
    assert [b - a for a, b in zip(before, after)] == [2, 1, 0, 0]
    assert not general_merges


def test_general_merge_is_taken_for_root_bound_rows(
        sharded, nested_root_tag, general_merges):
    # every shard answers a root-only pattern with the same one row,
    # which the concatenation keeps once
    assert len(sharded.query("//company").execution) == 1
    assert not general_merges
    single = Database.from_document(nested_root_tag.document)
    # ``//a//b`` ordered by ``a``: shard 0 binds ``a`` to the root and
    # to the node it owns, shard 1 only to the root — whose label sorts
    # below shard 0's last key, so the runs interleave
    pattern = nested_root_tag.compile("//a//b")
    plan = StructuralJoinPlan(IndexScanPlan(0), IndexScanPlan(1), 0, 1,
                              Axis.DESCENDANT,
                              JoinAlgorithm.STACK_TREE_ANC)
    result = nested_root_tag.execute(plan, pattern)
    assert list(result.rows) == [
        (0, 2), (0, 3), (0, 5), (1, 2), (1, 3)]
    assert len(general_merges) == 1
    assert result.rows == single.execute(plan, pattern).rows
    # the optimizer's plan orders by ``b``: the single node's order,
    # and a concatenation
    plan = nested_root_tag.optimize(pattern).plan
    result = nested_root_tag.execute(plan, pattern)
    assert list(result.rows) == [
        (0, 2), (1, 2), (0, 3), (1, 3), (0, 5)]
    assert result.rows == single.execute(plan, pattern).rows
    assert len(general_merges) == 1
    # ``//a``: the root from every shard, the nested ``a`` from shard 0
    # only — merged, the root kept once
    assert list(nested_root_tag.query("//a").execution.rows) == [
        (0,), (1,)]
    assert len(general_merges) == 2


# -- the packed fleet result ---------------------------------------------


def test_packed_rows_is_a_read_only_sequence_cut_on_read():
    rows = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 2**32 - 1)]
    packed = PackedRows(_flat(rows), 3)
    assert packed.labels.typecode == LABEL_TYPECODE
    assert packed.labels.itemsize == 4
    assert len(packed) == 4 and list(packed) == rows
    assert packed == rows and packed != rows[:3]
    assert packed[1] == packed[-3] == rows[1]
    assert packed[1:3] == rows[1:3] and packed[::-2] == rows[::-2]
    assert packed[3:1] == [] and packed[:99] == rows
    with pytest.raises(IndexError):
        packed[4]
    empty = PackedRows(array(LABEL_TYPECODE), 3)
    assert len(empty) == 0
    assert not hasattr(packed, "append")


def test_fleet_result_stays_packed_until_regions_are_asked_for(
        sharded, chain_pattern, monkeypatch):
    """``execute`` + ``len`` builds no region table and no row;
    ``blocks()`` cuts label rows — one, then at most ``BLOCK_ROWS`` —
    and only the ``Region`` view reaches ``_regions_by_start``."""
    plan = sharded.optimize(chain_pattern).plan
    sharded._region_table = None
    result = sharded.execute(plan, chain_pattern)
    assert isinstance(result.rows, PackedRows)
    total = len(result)
    assert total > 20 and sharded._region_table is None
    assert len(result.canonical()) == total
    monkeypatch.setattr(blocks, "BLOCK_ROWS", 8)
    stream = sharded.stream_execute(plan, chain_pattern)
    read = list(stream.blocks())
    assert [len(block) for block in read[:3]] == [1, 8, 8]
    assert all(0 < len(block) <= 8 for block in read)
    assert [row for block in read for row in block] == result.rows
    assert stream.exhausted and stream.produced == total
    assert sharded.stream_execute(plan, chain_pattern).fetchall() \
        == result.rows
    assert sharded._region_table is None
    # the view: built on demand, equal to a single node's regions
    single = Database.from_document(sharded.document)
    assert result.tuples == single.execute(plan, chain_pattern).tuples
    assert sharded._region_table is not None


def test_fleet_stream_counts_rows_however_it_is_read(
        sharded, chain_pattern, monkeypatch):
    """``produced`` is the rows handed out: by block, by row, by a
    ``limit`` that ends inside a block, or up to a cancel — which is
    consulted once per block pulled."""
    monkeypatch.setattr(blocks, "BLOCK_ROWS", 8)
    plan = sharded.optimize(chain_pattern).plan
    expected = sharded.execute(plan, chain_pattern)
    # a limit of 12 ends inside the third block (1 + 8 + 8)
    stream = sharded.stream_execute(plan, chain_pattern)
    taken = []
    for block in stream.blocks():
        over = stream.produced - 12
        taken += block[:len(block) - max(over, 0)]
        if over >= 0:
            stream.close()
            break
    assert taken == expected.rows[:12] and stream.produced == 17
    assert stream.finished and not stream.exhausted
    # by row: the Region view, counted row by row
    stream = sharded.stream_execute(plan, chain_pattern)
    rows = iter(stream)
    head = [next(rows) for _ in range(5)]
    assert head == expected.tuples[:5] and stream.produced == 5
    assert stream.fetchall() == expected.rows[5:]
    assert stream.produced == len(expected)
    # cancel: consulted once per block, before it is handed out
    consulted = []

    def cancel():
        consulted.append(stream.produced)
        return len(consulted) > 2

    stream = sharded.stream_execute(plan, chain_pattern, cancel=cancel)
    with pytest.raises(QueryCancelled):
        for _ in stream.blocks():
            pass
    assert consulted == [0, 1, 9] and stream.produced == 9


# -- twigs that branch at the replicated root ----------------------------

CROSS_SHARD_TWIGS = ("<r><a><x/></a><a><y/></a>"
                     "<b><x/></b><b><y/></b></r>")


@pytest.fixture(scope="module")
def twig_targets():
    document = parse_xml(CROSS_SHARD_TWIGS, name="cross-shard-twigs")
    with ShardedDatabase(document, shards=2) as fleet:
        yield Database.from_document(document), fleet


def test_root_branching_twig_is_refused_not_answered_wrongly(
        twig_targets):
    """``/r[a][b]``: every ``a`` lives in shard 0, every ``b`` in
    shard 1 — a single node finds 4 matches, no shard finds any.  The
    fleet must say so (typed, before the scatter), not return 0."""
    single, fleet = twig_targets
    assert [assignment.is_empty for assignment
            in fleet.partition.assignments] == [False, False]
    queries_before = fleet.stats()["shards"]["totals"][0]["queries"]
    for xpath, matches in (("/r[a][b]", 4), ("//r[.//x][.//y]", 4),
                           ("//*[a][b]", 4)):
        assert len(single.query(xpath)) == matches
        with pytest.raises(ShardError, match="document root"):
            fleet.query(xpath)
    assert fleet.stats()["shards"]["totals"][0]["queries"] \
        == queries_before, "refused after the scatter"
    # one branch at the root, or branches below it, stay answerable
    for xpath in ("/r/a", "//r//x", "//a[x]", "/r/a[x]", "//b[x]"):
        assert sorted(fleet.query(xpath).execution.rows) == sorted(
            single.query(xpath).execution.rows), xpath
    # a single shard holds every branch: nothing to refuse
    with ShardedDatabase(single.document, shards=1) as one:
        assert len(one.query("/r[a][b]")) == 4


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("r", "a", "b", "x", "y", "*")),
                          st.integers(0, 9),
                          st.sampled_from(("/", "//"))),
                min_size=1, max_size=4))
def test_fleet_equals_single_node_or_refuses_for_root_tag_patterns(
        twig_targets, grown):
    """Random patterns whose root carries the corpus root's tag: the
    fleet's rows are the single node's rows in the single node's
    order, or the typed refusal — never a different answer."""
    single, fleet = twig_targets
    pattern = QueryPattern.build({
        "nodes": ["r"] + [tag for tag, _, _ in grown],
        "edges": [(parent % index, index, axis) for index,
                  (_, parent, axis) in enumerate(grown, start=1)]})
    plan = single.optimize(pattern).plan
    expected = single.execute(plan, pattern).rows
    try:
        rows = list(fleet.execute(plan, pattern).rows)
    except ShardError as refusal:
        assert "document root" in str(refusal)
        assert branches_at_root(pattern, fleet.document)
    else:
        assert rows == expected, pattern.describe()


def test_empty_result_from_every_shard(nested_root_tag):
    pattern = nested_root_tag.compile("//c//a")
    plan = nested_root_tag.optimize(pattern).plan
    result = nested_root_tag.execute(plan, pattern, spans=True)
    assert result.tuples == []
    assert result.span.output_rows == 0
    assert nested_root_tag.stream_execute(plan, pattern).drain() == 0


def test_reply_accounting_reads_row_count_not_array_length(sharded,
                                                           monkeypatch):
    pattern = PAPER_QUERIES["Q.Pers.1.a"].pattern
    width = len(pattern.nodes)
    plan = sharded.optimize(pattern).plan
    before = _totals(sharded, "rows")
    _, oks = _recording(sharded.workers, monkeypatch)
    result = sharded.execute(plan, pattern, spans=True)
    # the raw payloads: every worker packs at least its head
    assert len(oks) == sharded.shards
    assert all(ok["pack_seconds"] > 0.0 for ok in oks)
    # the traced run's per-shard record: its ``Shard`` wrappers
    wrappers = [span for span in result.span.walk()
                if span.name == "Shard"]
    shipped = [wrapper.output_rows for wrapper in wrappers]
    assert sum(shipped) == len(result)
    after = _totals(sharded, "rows")
    assert [b - a for a, b in zip(before, after)] == shipped
    for shard_id, wrapper in enumerate(wrappers):
        # coordinator spans carry the worker's clocks as text, never
        # as counters: counter shares must keep summing exactly
        assert wrapper.metrics is None
        fields = re.fullmatch(
            rf"shard\[{shard_id}\] head (\S+) ms pack (\S+) ms "
            rf"cpu (\S+) ms (\d+) B", wrapper.detail)
        assert fields is not None, wrapper.detail
        head, pack, cpu, size = fields.groups()
        # the engine's labels, 4 bytes each, as the pipe carries them
        assert int(size) == wrapper.output_rows * width * 4
        assert 0.0 < float(head) < 60e3 and float(pack) >= 0.0
        assert float(cpu) > 0.0


def test_stream_closed_after_one_row_still_stitches(sharded,
                                                    chain_pattern):
    plan = sharded.optimize(chain_pattern).plan
    recorded = sharded.tracer.recorded
    stream = sharded.stream_execute(plan, chain_pattern, spans=True)
    first = next(iter(stream))
    assert first == sharded.execute(plan, chain_pattern).tuples[0]
    stream.close()
    assert stream.finished and not stream.cancelled
    assert stream.produced == 1
    assert stream.span is not None
    assert stream.span.output_rows == 1
    assert sharded.tracer.recorded == recorded + 1
    assert sharded.tracer.traces()[-1] is stream.span


def test_stream_cancelled_mid_stream_still_stitches(sharded,
                                                    chain_pattern):
    plan = sharded.optimize(chain_pattern).plan
    total = len(sharded.execute(plan, chain_pattern))
    stream = None

    def cancel() -> bool:  # consulted per block: true after the first
        return stream.produced >= 1

    recorded = sharded.tracer.recorded
    stream = sharded.stream_execute(plan, chain_pattern,
                                    cancel=cancel, spans=True)
    delivered = []
    with pytest.raises(QueryCancelled):
        for row in stream:
            delivered.append(row)
    assert len(delivered) == stream.produced == 1 < total
    assert stream.finished and stream.cancelled
    assert stream.span is not None and stream.span.output_rows == 1
    assert sharded.tracer.recorded == recorded + 1


def test_concurrent_traced_queries_keep_their_own_phase_timings(
        sharded, chain_pattern):
    """Two threads trace through one fleet.  The fast query's stitch
    is held back until the slow query's gather has finished — the
    window in which a pool-level "last phase timings" attribute would
    already describe the other query.  The slow query scatters once
    the fast one has gathered, so the pool's first receive after that
    is the slow query's: it waits at a gate the test holds for twice
    the fast query's whole gather, so the slow query's gather seconds
    hold a wait longer than the fast query's; each trace must carry
    its own ticket's timings."""
    plan = sharded.optimize(chain_pattern).plan
    pool = sharded.workers
    local = threading.local()
    fast_gathered = threading.Event()
    slow_at_gate = threading.Event()
    gate = threading.Event()
    slow_done = threading.Event()
    slow_scattered = threading.Event()
    gated: list[float] = []
    tickets = {}
    original_recv = pool._recv
    original_scatter = pool.scatter

    def gated_recv(shard_id):
        if slow_scattered.is_set() and not gated:
            slow_at_gate.set()
            entered = time.perf_counter()
            assert gate.wait(timeout=10)
            gated.append(time.perf_counter() - entered)
        return original_recv(shard_id)

    def ordered_scatter(*args, **kwargs):
        name = local.name
        if name == "slow":
            assert fast_gathered.wait(timeout=10)
            slow_scattered.set()
        ticket = tickets[name] = original_scatter(*args, **kwargs)
        payloads = ticket.payloads

        def ordered_payloads():
            gathered = payloads()
            if name == "slow":
                slow_done.set()
            else:
                fast_gathered.set()
                assert slow_done.wait(timeout=10)
            return gathered

        ticket.payloads = ordered_payloads
        return ticket

    spans = {}

    def run(name):
        local.name = name
        spans[name] = sharded.execute(plan, chain_pattern,
                                      spans=True).span

    pool._recv = gated_recv
    pool.scatter = ordered_scatter
    try:
        threads = [threading.Thread(target=run, args=(name,))
                   for name in ("fast", "slow")]
        for thread in threads:
            thread.start()
        assert slow_at_gate.wait(timeout=10)
        # the fast query's gather is final: the slow one scattered
        # after it; the gate's wait is sized by it, not guessed
        threading.Event().wait(2 * tickets["fast"].phases["gather"])
        gate.set()
        for thread in threads:
            thread.join(timeout=20)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        del pool._recv, pool.scatter
    gather = {name: next(child.seconds for child in span.children
                         if child.name == "ShardGather")
              for name, span in spans.items()}
    assert gather == {name: ticket.phases["gather"]
                      for name, ticket in tickets.items()}
    assert gather["fast"] < gated[0] <= gather["slow"]


def test_worker_query_error_keeps_fleet_alive(sharded, chain_pattern):
    plan = sharded.optimize(chain_pattern).plan
    # a repro-typed worker failure re-raises under its original class
    # (the coordinator validates engines, so go through the pool to
    # reach the worker-side validation)
    with pytest.raises(PlanError):
        sharded.workers.scatter(plan, chain_pattern,
                                "warp-drive").payloads()
    # a non-repro worker exception (here: a plan referencing a
    # pattern node that does not exist) surfaces as ShardError
    with pytest.raises(ShardError):
        sharded.execute(IndexScanPlan(99), chain_pattern)
    # neither error kills the fleet: workers keep serving
    assert not sharded.workers.closed
    assert all(sharded.workers.alive())
    assert len(sharded.query("//manager//employee").execution) > 0


def test_misordered_reply_is_a_typed_error_and_the_fleet_serves_on(
        sharded, corpus_document):
    """A worker ships its rows in plan order and checks, while it
    packs, that they are in order on the plan's ``ordered_by`` column;
    a plan whose root claims the wrong one is a ``PlanError`` from the
    worker, and the next request is answered."""
    plan = StructuralJoinPlan(IndexScanPlan(0), IndexScanPlan(1), 0, 1,
                              Axis.DESCENDANT,
                              JoinAlgorithm.STACK_TREE_DESC)
    pattern = QueryPattern.build({"nodes": ["manager", "employee"],
                                  "edges": [(0, 1, "//")]})
    managers = [row[0] for row in Database.from_document(
        corpus_document).execute(plan, pattern).rows]
    assert managers != sorted(managers), "nested managers needed"
    plan.ordered_by = 0  # ordered by the employee, claims the manager
    with pytest.raises(PlanError, match="out of order on its key "
                                        "column 0"):
        sharded.execute(plan, pattern)
    assert not sharded.workers.closed and all(sharded.workers.alive())
    assert len(sharded.query("//manager//employee").execution) > 0
    # streamed, the head is one row and in order; the worker checks
    # the rest block by block, and across the head/rest boundary
    stream = sharded.stream_execute(plan, pattern)
    with pytest.raises(PlanError, match="out of order"):
        for _ in stream.blocks():
            pass
    assert len(sharded.query("//manager//employee").execution) > 0


def test_pack_run_checks_the_order_across_block_boundaries():
    def packed(*rows):
        return PackedRows.of_tuples(rows, 2)

    assert list(pack_run(packed((3, 1), (4, 1)), 0, after=3)) == [
        3, 1, 4, 1]
    assert list(pack_run(packed(), 0, after=9)) == []
    with pytest.raises(PlanError, match="key column 0"):
        pack_run(packed((3, 1), (4, 1)), 0, after=4)
    with pytest.raises(PlanError, match="key column 1"):
        pack_run(packed((0, 5), (1, 7)), 1, after=6)
    # the pipe's form is the engine's: 4 bytes a label, whatever the
    # label, the block's own array handed on
    block = packed((0, 2**32 - 1), (2**32 - 1, 0))
    run = pack_run(block, 0)
    assert run.typecode == LABEL_TYPECODE and run.itemsize == 4
    assert run is block.labels
    assert list(run) == [0, 2**32 - 1, 2**32 - 1, 0]


# -- lockstep drills: a stream's head and rest share the pipes ----------


def _within(seconds: float, drill) -> None:
    """Run *drill* in a thread of its own: a lockstep bug fails the
    test after *seconds* instead of hanging it."""
    raised = []

    def run():
        try:
            drill()
        except BaseException as error:  # re-raised in the test thread
            raised.append(error)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), (
        f"drill still running after {seconds:.0f} s: the pool lost "
        f"lockstep with its workers")
    if raised:
        raise raised[0]


@pytest.fixture
def two_queries(sharded, chain_pattern):
    """(plan, pattern, rows) of two different queries on the fleet."""
    other = sharded.compile("//department/name")
    queries = []
    for pattern in (chain_pattern, other):
        plan = sharded.optimize(pattern).plan
        queries.append((plan, pattern,
                        list(sharded.execute(plan, pattern).rows)))
    assert queries[0][2] != queries[1][2]
    return queries


def test_drill_stream_dropped_after_one_row(sharded, two_queries,
                                           monkeypatch):
    """A stream read for one row and dropped without ``close()``: the
    next, different query settles its replies first and is answered
    right — also when the dropped stream is collected inside the
    pool's own receive, where its finish hook must not wait on the
    pool."""
    (plan, pattern, rows), (other_plan, other, other_rows) = two_queries
    pool = sharded.workers
    receive = pool._recv
    before = _totals(sharded, "queries")

    def collecting_recv(shard_id):
        gc.collect()
        return receive(shard_id)

    def drill():
        stream = sharded.stream_execute(plan, pattern)
        assert next(stream.blocks()) == rows[:1]
        del stream
        assert list(sharded.execute(other_plan, other).rows) \
            == other_rows
        stream = sharded.stream_execute(plan, pattern)
        assert next(stream.blocks()) == rows[:1]
        del stream
        monkeypatch.setattr(pool, "_recv", collecting_recv)
        assert list(sharded.execute(other_plan, other).rows) \
            == other_rows
        monkeypatch.undo()
        shipped = _totals(sharded, "rows")
        assert list(sharded.execute(plan, pattern).rows) == rows
        shipped = [b - a for a, b in zip(shipped, _totals(sharded, "rows"))]
        assert sum(shipped) == len(rows)

    _within(30, drill)
    assert all(sharded.workers.alive())
    # five runs reached every shard, the two dropped streams included
    # (the second's payloads landed after its hook, in the next
    # query's receive): each is booked once
    after = _totals(sharded, "queries")
    assert [b - a for a, b in zip(before, after)] == [5] * sharded.shards


@pytest.mark.parametrize("read", ["stats", "collect_gauges"])
def test_drill_stream_collected_while_the_totals_are_read(
        sharded, two_queries, monkeypatch, read):
    """A dropped stream's finish hook books its payloads; when the
    cyclic collector runs it inside a reader of the per-shard totals,
    which holds their mutex, the booking waits for the next reader
    instead of for that mutex — and the fleet serves on."""
    (plan, pattern, rows), (other_plan, other, other_rows) = two_queries
    readers = {"stats": sharded.stats,
               "collect_gauges": lambda: sharded.collect_gauges(
                   MetricsRegistry())}

    class CollectingTotals(list):
        def __iter__(self):
            gc.collect()
            return super().__iter__()

    def queries() -> list[int]:
        return [entry["queries"]
                for entry in sharded.stats()["shards"]["totals"]]

    def drill():
        before = queries()
        stream = sharded.stream_execute(plan, pattern)
        assert next(stream.blocks()) == rows[:1]
        dropped = weakref.ref(stream)
        del stream
        gc.disable()  # the collection must come inside the reader
        try:
            assert dropped() is not None
            monkeypatch.setattr(sharded, "_shard_totals",
                                CollectingTotals(sharded._shard_totals))
            readers[read]()
            assert dropped() is None
        finally:
            monkeypatch.undo()
            gc.enable()
        assert queries() == [count + 1 for count in before]
        assert list(sharded.execute(other_plan, other).rows) \
            == other_rows

    _within(30, drill)


def test_drill_stream_held_while_another_thread_executes(sharded,
                                                        two_queries):
    """Thread A holds a stream after its first row while thread B runs
    ``execute``: B's scatter stores A's rest on A's ticket, and both
    answers are right."""
    (plan, pattern, rows), (other_plan, other, other_rows) = two_queries

    def drill():
        stream = sharded.stream_execute(plan, pattern, spans=True)
        first = next(stream.blocks())
        answered = {}
        thread = threading.Thread(target=lambda: answered.update(
            rows=list(sharded.execute(other_plan, other).rows)))
        thread.start()
        thread.join(timeout=20)
        assert not thread.is_alive()
        assert answered["rows"] == other_rows
        assert [*first, *stream.fetchall()] == rows
        assert stream.exhausted
        assert stream.span.output_rows == len(rows)

    _within(30, drill)


def test_drill_threads_share_the_pool_under_a_short_switch_interval(
        sharded, two_queries):
    """Four threads — more than the cores — run executes and streams,
    read for a block or to the end, through one pool while the
    interpreter switches threads every few microseconds: every answer
    is right, and every run is booked exactly once."""
    before = _totals(sharded, "queries")
    raised = []

    def client(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(6):
                plan, pattern, rows = rng.choice(two_queries)
                if rng.random() < 0.5:
                    assert list(sharded.execute(plan, pattern).rows) \
                        == rows
                    continue
                stream = sharded.stream_execute(plan, pattern)
                read = list(next(stream.blocks(), []))
                if rng.random() < 0.5:
                    read += stream.fetchall()
                    assert stream.exhausted
                stream.close()
                assert read == rows[:len(read)] and read
        except BaseException as error:  # re-raised in the test thread
            raised.append(error)

    def drill():
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(seed,))
                       for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        if raised:
            raise raised[0]

    _within(90, drill)
    after = _totals(sharded, "queries")
    assert [b - a for a, b in zip(before, after)] == [24] * sharded.shards


def test_drill_worker_error_before_the_head(sharded, two_queries):
    """A streamed plan the workers cannot run fails in place of its
    heads: the typed error surfaces at the first pull, and the fleet
    serves on."""
    (plan, pattern, rows), _ = two_queries

    def drill():
        stream = sharded.stream_execute(IndexScanPlan(99), pattern)
        with pytest.raises(ShardError, match="failed"):
            next(stream.blocks())
        assert stream.finished and not stream.exhausted
        assert list(sharded.execute(plan, pattern).rows) == rows
        streamed = sharded.stream_execute(plan, pattern)
        assert [row for block in streamed.blocks() for row in block] \
            == rows

    _within(30, drill)
    assert not sharded.workers.closed and all(sharded.workers.alive())


def _recording(pool, monkeypatch) -> tuple[dict, list]:
    """Wrap *pool*'s ``_recv``: per shard, the tag of every reply it
    receives; and a copy of every ``ok`` payload as it arrived."""
    receive = pool._recv
    tags: dict = {shard_id: [] for shard_id in range(pool.shards)}
    oks: list = []

    def recording_recv(shard_id):
        reply = receive(shard_id)
        tags[shard_id].append(reply[0])
        if reply[0] == "ok":
            oks.append(dict(reply[1]))  # before its rows are taken
        return reply

    monkeypatch.setattr(pool, "_recv", recording_recv)
    return tags, oks


def test_every_fleet_query_gets_a_head_then_its_rest(
        sharded, two_queries, monkeypatch):
    """One reply shape: ``execute`` and a stream read to its end both
    get a head, then an ``ok``, from every worker; ``execute``'s heads
    are the whole runs, so its ``ok`` carries no row, and the ticket
    hands its heads over instead of keeping them."""
    (plan, pattern, rows), _ = two_queries
    pool = sharded.workers
    tickets = []
    scatter = pool.scatter

    def keeping_scatter(*args, **kwargs):
        tickets.append(scatter(*args, **kwargs))
        return tickets[-1]

    monkeypatch.setattr(pool, "scatter", keeping_scatter)
    tags, oks = _recording(pool, monkeypatch)
    assert list(sharded.execute(plan, pattern).rows) == rows
    assert list(tags.values()) == [["head", "ok"]] * pool.shards
    assert [len(ok["rows"]) for ok in oks] == [0] * pool.shards
    assert tickets[-1]._heads is None
    tags, oks = _recording(pool, monkeypatch)
    stream = sharded.stream_execute(plan, pattern)
    assert [row for block in stream.blocks() for row in block] == rows
    assert list(tags.values()) == [["head", "ok"]] * pool.shards
    rests = [len(ok["rows"]) // ok["width"] for ok in oks]
    assert sum(rests) == len(rows) - pool.shards  # one row per head
    assert stream.exhausted and tickets[-1]._heads is None


@pytest.mark.parametrize("order, error", [
    (["ok", "head"], ShardError),  # an ok before its head
    (["head", "head"], ShardError),  # a second head
    (["error"], PlanError),  # an error in place of the head
    (["head", "error"], PlanError),  # an error in place of the ok
], ids=["ok-first", "two-heads", "error-for-head", "error-for-ok"])
def test_drill_reply_order_is_checked(corpus_document, monkeypatch,
                                      order, error):
    """Shard 0's replies, received in a forged order: a head then an
    ``ok`` is the one shape, and an ``error`` may stand in for either.
    Anything out of turn is a ``ShardError`` that tears the pool down
    (the pipes can no longer be trusted); a stand-in error re-raises
    under its own type, and the fleet serves on."""
    pattern = PAPER_QUERIES["Q.Pers.1.a"].pattern
    with ShardedDatabase(corpus_document, shards=2) as fleet:
        plan = fleet.optimize(pattern).plan
        rows = list(fleet.execute(plan, pattern).rows)
        pool = fleet.workers
        receive = pool._recv
        real: dict = {}
        forged: list = []

        def forging_recv(shard_id):
            # the pool receives when a pipe is ready, one reply per
            # call: each call takes one real reply — both, by the call
            # that forges the last reply or needs the ``ok`` first —
            # and returns the next forgery
            if shard_id != 0:
                return receive(shard_id)
            assert len(forged) < len(order), \
                "asked for more than was forged"
            kind = order[len(forged)]
            last = len(forged) == len(order) - 1
            while len(real) < 2 and (not real or last or (
                    kind != "error" and kind not in real)):
                reply = receive(0)
                real[reply[0]] = reply
            forged.append(("error", "PlanError", "forged")
                          if kind == "error" else real[kind])
            return forged[-1]

        def drill():
            monkeypatch.setattr(pool, "_recv", forging_recv)
            with pytest.raises(error):
                fleet.execute(plan, pattern)
            monkeypatch.undo()
            if error is ShardError:
                assert pool.closed
                with pytest.raises(ShardError, match="closed"):
                    fleet.execute(plan, pattern)
            else:
                assert not pool.closed and all(pool.alive())
                assert list(fleet.execute(plan, pattern).rows) == rows

        _within(30, drill)


def test_drill_stream_cancelled_after_its_first_block():
    """A stream cancelled once its first block is in — its predicate
    holds when that block is pulled, or it is closed after handing the
    block out — tells the workers to stop: their payloads ship fewer
    rows than the run holds, and the next query is right.

    While a stream is drilled, each worker is held (``SIGSTOP``) as its
    head is filed and let go (``SIGCONT``) once the coordinator's next
    message — the cancel — is on its pipe, so the cancel arrives
    mid-run however fast the workers are."""
    document = personnel_document(target_nodes=2000, seed=42)
    pattern = PAPER_QUERIES["Q.Pers.3.d"].pattern
    with ShardedDatabase(document, shards=2) as fleet:
        plan = fleet.optimize(pattern).plan
        rows = list(fleet.execute(plan, pattern).rows)
        pool = fleet.workers
        receive, send = pool._recv, pool._send
        holding = threading.Event()
        held: set[int] = set()

        def signal_worker(shard_id: int, number: int) -> None:
            os.kill(pool._processes[shard_id].pid, number)

        def holding_recv(shard_id):
            reply = receive(shard_id)
            if reply[0] == "head" and holding.is_set():
                signal_worker(shard_id, signal.SIGSTOP)
                held.add(shard_id)
            return reply

        def releasing_send(shard_id, message):
            send(shard_id, message)
            if shard_id in held:
                held.discard(shard_id)
                signal_worker(shard_id, signal.SIGCONT)

        def shipped() -> int:
            return sum(_totals(fleet, "rows"))

        def drill():
            before = shipped()
            holding.set()
            stream = fleet.stream_execute(plan, pattern,
                                          cancel=lambda: True)
            with pytest.raises(QueryCancelled):
                next(stream.blocks())
            assert stream.produced == 0 and stream.cancelled
            assert 1 <= shipped() - before < len(rows)
            before = shipped()
            stream = fleet.stream_execute(plan, pattern)
            assert next(stream.blocks()) == rows[:1]
            stream.close()
            assert 1 <= shipped() - before < len(rows)
            holding.clear()
            assert list(fleet.execute(plan, pattern).rows) == rows

        pool._recv, pool._send = holding_recv, releasing_send
        try:
            _within(60, drill)
        finally:
            holding.clear()
            for shard_id in list(held):
                signal_worker(shard_id, signal.SIGCONT)


def test_drill_worker_killed_while_a_stream_waits_for_its_rest():
    """``SIGKILL`` a worker while it sends its rest — more than a pipe
    holds — and the stream's reader waits in ``payloads()``: the reader
    gets a ``ShardError`` well inside the pool's timeout, the pool is
    closed, and no worker process is left."""
    document = personnel_document(target_nodes=4000, seed=42)
    pattern = PAPER_QUERIES["Q.Pers.3.d"].pattern
    with ShardedDatabase(document, shards=2) as fleet:
        plan = fleet.optimize(pattern).plan
        pool = fleet.workers
        # the premise: every shard's rest is well over what its pipe
        # buffers, so the victim is still sending it when it is killed
        fleet.execute(plan, pattern)
        with socket.socket(fileno=os.dup(
                pool._connections[0].fileno())) as end:
            buffered = end.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        rest_bytes = (min(_totals(fleet, "rows")) * len(pattern.nodes)
                      * array(LABEL_TYPECODE).itemsize)
        assert rest_bytes > 2 * buffered
        receive, scatter = pool._recv, pool.scatter
        received = [0] * pool.shards
        victim: list[int] = []
        sending, waiting = threading.Event(), threading.Event()
        killed = threading.Event()

        def killing_recv(shard_id):
            received[shard_id] += 1
            if received[shard_id] == 2 and all(received) and not victim:
                # every head is in, and this shard's rest is arriving
                victim.append(shard_id)
                sending.set()
                assert killed.wait(timeout=10)
            return receive(shard_id)

        def watched_scatter(*args, **kwargs):
            ticket = scatter(*args, **kwargs)
            payloads = ticket.payloads

            def waited_payloads():
                waiting.set()
                return payloads()

            ticket.payloads = waited_payloads
            return ticket

        def kill() -> None:
            assert sending.wait(timeout=10) and waiting.wait(timeout=10)
            os.kill(pool._processes[victim[0]].pid, signal.SIGKILL)
            killed.set()

        def drill():
            killer = threading.Thread(target=kill)
            killer.start()
            stream = fleet.stream_execute(plan, pattern)
            assert len(next(stream.blocks())) == 1
            with pytest.raises(ShardError):
                stream.fetchall()
            killer.join(timeout=10)
            assert killed.is_set()
            assert time.monotonic() - started < pool.timeout / 6

        pool._recv, pool.scatter = killing_recv, watched_scatter
        started = time.monotonic()
        _within(pool.timeout / 4, drill)
        assert pool.closed and not any(pool.alive())
        assert pool._processes[victim[0]].exitcode == -signal.SIGKILL


def test_sharded_explain_analyze_renders_scatter_gather(sharded):
    report = sharded.explain("//manager//employee/name", analyze=True)
    text = report.render()
    assert "ShardScatterGather" in text
    assert "shard[0]" in text and "shard[1]" in text


def test_sharded_service_exports_per_shard_gauges(sharded):
    sharded.query("//manager//employee")
    exported = sharded.service.export_metrics("prometheus")
    assert "repro_shard_nodes" in exported
    assert 'shard="1"' in exported
    assert "repro_shard_alive" in exported


def test_crashed_worker_raises_shard_error_and_tears_down():
    document = personnel_document(target_nodes=120)
    with ShardedDatabase(document, shards=2) as database:
        pattern = database.compile("//manager//employee")
        plan = database.optimize(pattern).plan
        assert len(database.execute(plan, pattern)) > 0
        database.workers.crash_worker(1)
        with pytest.raises(ShardError):
            database.execute(plan, pattern)
        # the pool tears itself down: no hung gather, no leaked
        # processes, and further queries fail fast instead of hanging
        assert database.workers.closed
        assert not any(database.workers.alive())
        with pytest.raises(ShardError):
            database.execute(plan, pattern)
        # teardown is idempotent
        database.workers.close()
        database.workers.close()


def test_closed_sharded_database_fails_fast():
    document = personnel_document(target_nodes=80)
    database = ShardedDatabase(document, shards=1)
    assert len(database.query("//manager").execution) > 0
    database.close()
    database.close()  # idempotent
    with pytest.raises(ShardError):
        database.query("//manager")
    assert not any(database.workers.alive())
    # a closed fleet reports one dead worker per shard, as its gauges do
    assert database.stats()["shards"]["alive"] == [False] * database.shards


# -- statistics epoch vs. the plan cache ---------------------------------


def test_sharded_reload_bumps_every_epoch_and_serves_new_corpus():
    small = personnel_document(target_nodes=120, seed=3)
    big = personnel_document(target_nodes=400, seed=4)
    with ShardedDatabase(small, shards=2) as database:
        # one epoch for the fleet, as on a single node: load 1, reload 2
        assert database.stats()["statistics_epoch"] == 1
        before = len(database.query("//manager//employee").execution)
        database.reload(big)
        snapshot = database.stats()
        assert snapshot["statistics_epoch"] == 2
        assert "epochs" not in snapshot["shards"]
        after = len(database.query("//manager//employee").execution)
        reference = canonical_bindings(
            Database.from_document(big)
            .query("//manager//employee").execution.bindings())
        assert after == len(reference)
        assert after != before


def test_database_stats_reports_statistics_epoch():
    """Regression: ``Database.stats()`` must expose the statistics
    epoch the plan cache is keyed on, and a reload must move it —
    otherwise a caller watching stats() cannot tell cached plans were
    invalidated."""
    database = Database.from_document(
        personnel_document(target_nodes=120))
    snapshot = database.stats()
    assert snapshot["statistics_epoch"] == database.statistics_epoch
    before = snapshot["statistics_epoch"]
    database.reload(personnel_document(target_nodes=160))
    assert database.stats()["statistics_epoch"] > before
