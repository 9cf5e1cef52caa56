"""Unit tests for the block-at-a-time engine and the decode cache.

The randomized cross-check of whole plans lives in
``test_differential.py``; here the block operators are pinned down on
hand-written edge cases (empty inputs, fully nested runs, disjoint
runs — the shapes the skip-ahead logic jumps over), both Stack-Tree
joins' pair finders and their one emission loop by a property over
nesting and non-nesting trees, Stack-Tree-Desc's CHILD-axis parent
lookup on every input it tells apart (and on a document that is not
the index's, and across a relabelling commit), and the storage
additions backing the engine (posting decode cache, batched index
build) get direct coverage.
"""

import gc
from array import array

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.api import Database
from repro.document.builder import DocumentBuilder
from repro.document.node import Region
from repro.engine import blocks
from repro.engine.blocks import _group_rows
from repro.engine.context import EngineContext
from repro.engine.nestedloop import naive_pattern_matches
from repro.engine.tuples import PackedRows, row_shift
from repro.engine.executor import Executor
from repro.engine.metrics import COST_COUNTERS
from repro.core.pattern import Axis, QueryPattern
from repro.core.plans import (IndexScanPlan, JoinAlgorithm,
                              SortPlan, StructuralJoinPlan)
from repro.document.parser import parse_xml
from repro.errors import PlanError, PostingMismatchError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDisk
from repro.storage.frames import LABEL_TYPECODE
from repro.storage.postings import RegionBlock
from repro.storage.tagindex import TagIndex
from repro.workloads import (dblp_document, fold_document,
                             mbench_document, personnel_document)
from repro.workloads.queries import PAPER_QUERIES, dataset_document
from repro.xpath.parser import compile_xpath

from tests.conftest import canonical_bindings
from tests.test_executor import blocking_plan, fully_pipelined_plan


def counters(execution):
    return {name: getattr(execution.metrics, name)
            for name in COST_COUNTERS}


def assert_engines_agree(database, plan, pattern):
    """Both engines: identical rows, as labels and as regions, and
    identical cost-model counters."""
    tuple_run = database.execute(plan, pattern, engine="tuple")
    block_run = database.execute(plan, pattern, engine="block")
    assert tuple_run.rows == block_run.rows
    assert tuple_run.tuples == block_run.tuples
    assert counters(tuple_run) == counters(block_run)
    return block_run


def pair_pattern(axis: str) -> QueryPattern:
    return QueryPattern.build({"nodes": ["a", "b"],
                               "edges": [(0, 1, axis)]})


def pair_plan(algorithm: JoinAlgorithm, axis: Axis):
    return StructuralJoinPlan(IndexScanPlan(0), IndexScanPlan(1),
                              0, 1, axis, algorithm)


#: edge-case document shapes for the skip-ahead paths: runs the join
#: must jump over (disjoint, before, after), fully nested chains (the
#: windows every enclosing ancestor joins through, and a CHILD-axis
#: parent several closed groups back), and repeated starts.
EDGE_DOCUMENTS = {
    "absent-desc": "<r><a/><a><a/></a></r>",
    "absent-anc": "<r><b/><b><b/></b></r>",
    "both-absent": "<r><c/></r>",
    "no-overlap": "<r><a/><a/><b/><b/></r>",
    "desc-first": "<r><b/><b/><a/><a/></r>",
    "fully-nested": "<r><a><a><a><b/></a></a></a><b/></r>",
    "nested-mixed": ("<r><a><b/><a><b/><b/></a></a><b/>"
                     "<a><a/><b><a><b/></a></b></a></r>"),
    "interleaved": "<r><a><b/></a><c/><a><c/><b/></a><b/></r>",
}


@pytest.mark.parametrize("shape", sorted(EDGE_DOCUMENTS))
@pytest.mark.parametrize("axis_name,axis",
                         [("//", Axis.DESCENDANT), ("/", Axis.CHILD)])
@pytest.mark.parametrize("algorithm", [JoinAlgorithm.STACK_TREE_DESC,
                                       JoinAlgorithm.STACK_TREE_ANC])
def test_skip_ahead_edge_cases(shape, axis_name, axis, algorithm):
    database = Database.from_document(
        parse_xml(EDGE_DOCUMENTS[shape], name=shape))
    pattern = pair_pattern(axis_name)
    assert_engines_agree(database, pair_plan(algorithm, axis), pattern)


@pytest.mark.parametrize("plan_builder", [fully_pipelined_plan,
                                          blocking_plan])
def test_running_example_plans_agree(small_database,
                                     running_example_pattern,
                                     plan_builder):
    execution = assert_engines_agree(small_database, plan_builder(),
                                     running_example_pattern)
    assert len(execution) > 0


def test_block_sort_counters(small_database, running_example_pattern):
    """A plan with an explicit sort charges identical sort counters."""
    execution = assert_engines_agree(small_database, blocking_plan(),
                                     running_example_pattern)
    assert execution.metrics.sort_count > 0


def test_wildcard_and_predicate_parity(small_database):
    for xpath in ("//manager/*", "//*", '//manager[@id="m2"]//name',
                  '//employee[@id="e3"]'):
        pattern = small_database.compile(xpath)
        plan = small_database.optimize(pattern).plan
        assert_engines_agree(small_database, plan, pattern)


@pytest.mark.parametrize("xpath", [
    "//manager[department/name]//manager[department/name]//employee/name",
    "//*[name]//manager[department/name]//employee[name][*]",
    "//*[name]//manager[name][department/name]//employee[name][*]"])
def test_wide_rows_parity(xpath):
    """Eight and nine columns: row ints of 256 bits and more, whose
    middle columns are read by a shift and a mask."""
    database = Database.from_document(
        personnel_document(target_nodes=600, seed=42))
    pattern = database.compile(xpath)
    assert len(pattern.nodes) >= 8
    for algorithm in ("DPP", "FP"):
        plan = database.optimize(pattern, algorithm).plan
        assert len(assert_engines_agree(database, plan, pattern)) > 0


# -- Stack-Tree joins: pair finders and the one emission loop -------------

#: the property's tag alphabet; which of them may recur under
#: themselves is drawn per document
TAGS = ("a", "b", "c", "d")


@st.composite
def nesting_documents(draw, max_nodes):
    """A random tree over :data:`TAGS` in which a drawn subset of the
    tags recurs under itself (nesting ancestor groups) and the rest
    never does (non-nesting ones)."""
    nesting = draw(st.sets(st.sampled_from(TAGS), min_size=1,
                           max_size=len(TAGS) - 1))
    size = draw(st.integers(min_value=2, max_value=max_nodes))
    parents, tags = [-1], ["r"]
    for node in range(1, size):
        parent = draw(st.integers(min_value=0, max_value=node - 1))
        above, climb = set(), parent
        while climb >= 0:
            above.add(tags[climb])
            climb = parents[climb]
        allowed = [tag for tag in TAGS
                   if tag in nesting or tag not in above] or ["z"]
        parents.append(parent)
        tags.append(draw(st.sampled_from(allowed)))
    children = [[] for _ in tags]
    for node, parent in enumerate(parents[1:], 1):
        children[parent].append(node)
    builder = DocumentBuilder(name="nesting")

    def emit(node):
        builder.start_element(tags[node])
        for child in children[node]:
            emit(child)
        builder.end_element()

    emit(0)
    return builder.finish()


@st.composite
def stack_tree_plans(draw):
    """A 2–4 node pattern over :data:`TAGS` with ``/`` and ``//``
    edges — or an 8-node path, row ints of 256 bits, ``/`` but for
    one drawn ``//`` edge (so its output stays near linear in the
    document) — and a plan of Stack-Tree joins — each drawn Desc or
    Anc — in a drawn edge order, with a sort wherever an input is not
    ordered by its join node — so inner results reach later joins as
    multi-row groups."""
    size = draw(st.sampled_from((2, 3, 4, 8)))
    nodes = [draw(st.sampled_from(TAGS)) for _ in range(size)]
    if size == 8:
        loose = draw(st.integers(min_value=1, max_value=size - 1))
        edges = [(child - 1, child, "//" if child == loose else "/")
                 for child in range(1, size)]
    else:
        edges = [(draw(st.integers(min_value=0, max_value=child - 1)),
                  child, draw(st.sampled_from(("/", "//"))))
                 for child in range(1, size)]
    pattern = QueryPattern.build({"nodes": nodes, "edges": edges})
    fragments = {frozenset((node,)): (IndexScanPlan(node), node)
                 for node in range(size)}
    for edge in draw(st.permutations(pattern.edges)):
        anc_key = next(key for key in fragments if edge.parent in key)
        anc_plan, anc_order = fragments.pop(anc_key)
        desc_key = next(key for key in fragments if edge.child in key)
        desc_plan, desc_order = fragments.pop(desc_key)
        if anc_order != edge.parent:
            anc_plan = SortPlan(anc_plan, edge.parent)
        if desc_order != edge.child:
            desc_plan = SortPlan(desc_plan, edge.child)
        algorithm = draw(st.sampled_from((JoinAlgorithm.STACK_TREE_DESC,
                                          JoinAlgorithm.STACK_TREE_ANC)))
        fragments[anc_key | desc_key] = (
            StructuralJoinPlan(anc_plan, desc_plan, edge.parent,
                               edge.child, edge.axis, algorithm),
            edge.parent if algorithm is JoinAlgorithm.STACK_TREE_ANC
            else edge.child)
    (plan, _), = fragments.values()
    return pattern, plan


def block_sizes(total, first, cap):
    """The emission contract: *first* rows, then *cap* at a time."""
    sizes, size = [], first
    while total > 0:
        sizes.append(min(size, total))
        total -= sizes[-1]
        size = cap
    return sizes


def check_join_parity(document, pattern_and_plan):
    """Block engine == tuple engine in rows, row order and counters,
    and every bounded read is the same rows in exactly the contract's
    block sizes — at the real cap and at a cap of 3, which cuts
    inside groups and across slices."""
    pattern, plan = pattern_and_plan
    database = Database.from_document(document)
    reference = assert_engines_agree(database, plan, pattern).rows
    for cap in (blocks.BLOCK_ROWS, 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(blocks, "BLOCK_ROWS", cap)
            for first in (1, 7, 256):
                read = list(database.stream_execute(
                    plan, pattern).blocks(first))
                assert [row for block in read for row in block] == \
                    reference
                assert list(map(len, read)) == block_sizes(
                    len(reference), first, cap)


@given(nesting_documents(max_nodes=40), stack_tree_plans())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_join_parity_property(document, pattern_and_plan):
    check_join_parity(document, pattern_and_plan)


@pytest.mark.slow
@given(nesting_documents(max_nodes=160), stack_tree_plans())
@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_join_parity_property_wide(document, pattern_and_plan):
    check_join_parity(document, pattern_and_plan)


def test_first_block_leaves_before_the_rest_is_joined(monkeypatch):
    """Four roots of over 20 k rows each: a Stack-Tree-Desc over
    non-nesting ancestors (one partner per descendant group), one over
    nesting ancestors (windows, put in descendant order), one on the
    CHILD axis (the parent-label lookup) and a Stack-Tree-Anc.
    Pulling the first row joins one slice of one pair, and the rest is
    joined slice by slice as blocks are read."""
    dblp = Database.from_document(
        fold_document(dblp_document(entries=400, seed=7), 12))
    mbench = Database.from_document(
        fold_document(mbench_document(target_nodes=3000, seed=42), 8))
    slices = []
    pair_rows = blocks._pair_rows

    def counted(*args):
        slices.append(len(args[2]))  # pairs joined
        return pair_rows(*args)

    monkeypatch.setattr(blocks, "_pair_rows", counted)
    for database, query, algorithm in (
            (dblp, "//article//*", JoinAlgorithm.STACK_TREE_DESC),
            (mbench, "//eNest//eNest", JoinAlgorithm.STACK_TREE_DESC),
            (dblp, "//*/*", JoinAlgorithm.STACK_TREE_DESC),
            (mbench, "//eNest//eNest", JoinAlgorithm.STACK_TREE_ANC)):
        pattern = database.compile(query)
        plan = StructuralJoinPlan(IndexScanPlan(0), IndexScanPlan(1), 0,
                                  1, pattern.edges[0].axis, algorithm)
        slices.clear()
        read = database.stream_execute(plan, pattern).blocks()
        assert len(next(read)) == 1
        assert slices == [1]
        rest = list(map(len, read))
        assert 1 + sum(rest) >= 20_000
        # one row per pair here, so each slice is exactly one block
        assert slices == [1, *rest]


# -- Stack-Tree-Desc on the CHILD axis: the parent-label lookup ---------

#: nesting managers: m3 closes inside m2, and m1's own ``name`` comes
#: after both closed, so the manager that starts last before it is not
#: its parent
CHILD_XML = """
<company>
  <manager id="m1">
    <manager id="m2"><name>Inner</name>
      <employee id="e1"><name>Bo</name></employee>
      <manager id="m3"><employee id="e2"><name>Cy</name></employee></manager>
    </manager>
    <name>Outer</name>
    <employee id="e3"><name>Di</name><phone>1</phone></employee>
    <department id="d1"><name>Sales</name>
      <employee id="e4"><name>Ed</name></employee>
    </department>
  </manager>
  <employee id="e5"><name>Flo</name></employee>
  <manager id="m4"><name>Gus</name></manager>
</company>
"""

CHILD_DOCUMENTS = {
    "small": lambda: parse_xml(CHILD_XML, name="child"),
    "pers": lambda: personnel_document(target_nodes=600, seed=42),
    "mbench": lambda: fold_document(
        mbench_document(target_nodes=600, seed=42), 2),
}


def child_join(ancestor, descendant, parent, child,
               algorithm=JoinAlgorithm.STACK_TREE_DESC):
    return StructuralJoinPlan(ancestor, descendant, parent, child,
                              Axis.CHILD, algorithm)


SCANS = child_join(IndexScanPlan(0), IndexScanPlan(1), 0, 1)
#: a join's output as the descendant input (ordered by employee) and
#: as the ancestor input (ordered by manager)
JOIN_FED = child_join(IndexScanPlan(0), child_join(
    IndexScanPlan(1), IndexScanPlan(2), 1, 2,
    JoinAlgorithm.STACK_TREE_ANC), 0, 1)
JOIN_FED_ANCESTORS = child_join(child_join(
    IndexScanPlan(0), IndexScanPlan(1), 0, 1,
    JoinAlgorithm.STACK_TREE_ANC), IndexScanPlan(2), 0, 2)

#: (document, xpath, plan): every descendant input the CHILD join
#: tells apart (a full scan, a predicated scan, a join's output, a
#: wildcard scan) over nesting and non-nesting ancestors
CHILD_CASES = [
    ("small", "//manager/manager", SCANS),
    ("small", "//manager/name", SCANS),
    ("small", "//employee/name", SCANS),
    ("pers", "//manager/name", SCANS),
    ("pers", "//employee/name", SCANS),
    ("mbench", "//eNest/eNest", SCANS),
    ("small", "//manager/employee[@id != 'e2']", SCANS),
    ("pers", "//manager/employee[@id != 'e2']", SCANS),
    ("mbench", "//eNest/eNest[@aFour = '1']", SCANS),
    ("small", "//manager/*", SCANS),
    ("pers", "//manager/*", SCANS),
    ("small", "//*/name", SCANS),
    ("small", "//manager/employee/name", JOIN_FED),
    ("pers", "//manager/employee/name", JOIN_FED),
    ("mbench", "//eNest/eNest/eNest", JOIN_FED),
    ("small", "//manager[name]/employee", JOIN_FED_ANCESTORS),
    ("pers", "//manager[name]/employee", JOIN_FED_ANCESTORS),
]


@pytest.mark.parametrize("dataset,xpath,plan", CHILD_CASES,
                         ids=[f"{dataset}:{xpath}"
                              for dataset, xpath, _ in CHILD_CASES])
def test_child_axis_parity(dataset, xpath, plan):
    """Rows, row order, counters and every bounded read's block sizes
    are the tuple engine's, and the rows are the brute-force
    matches."""
    document = CHILD_DOCUMENTS[dataset]()
    pattern = compile_xpath(xpath)
    check_join_parity(document, (pattern, plan))
    result = Database.from_document(document).execute(plan, pattern)
    assert canonical_bindings(result.bindings()) == canonical_bindings(
        naive_pattern_matches(document, pattern))


@pytest.mark.parametrize("other", [
    # an employee and a name short
    CHILD_XML.replace('<employee id="e5"><name>Flo</name></employee>', ""),
    CHILD_XML.replace("<company>", "<company><x/>"),  # every label + 1
], ids=["shorter", "shifted"])
def test_a_document_that_is_not_the_index_raises(other):
    """A context whose document does not list a tag's nodes as the
    index posts them raises the typed error from the CHILD join and
    from a predicated scan, and yields no row."""
    database = Database.from_document(parse_xml(CHILD_XML))
    context = EngineContext(database.index, parse_xml(other))
    for xpath, plan in (("//manager/name", SCANS),
                        ("//manager/employee[@id != 'e2']", SCANS)):
        pattern = compile_xpath(xpath)
        stream = Executor(context, pattern).stream(plan)
        with pytest.raises(PostingMismatchError):
            next(stream.blocks())


def test_a_relabelling_commit_pairs_by_the_new_documents_parents():
    """An insert under a manager relabels the manager's subtree; the
    CHILD join on the new snapshot reads the new document's parent
    labels, not the list the old document cached."""
    database = Database.from_document(parse_xml(CHILD_XML, name="child"))
    pattern = compile_xpath("//manager/name")
    database.execute(SCANS, pattern)
    old = database.document
    old_names = database.index.scan_blocks("name")
    _, old_parents = old.tag_column("name", old_names.starts)
    m2 = next(node.node_id for node in old.nodes
              if node.attributes.get("id") == "m2")
    with database.transaction() as txn:
        txn.insert_subtree(m2, parse_xml("<name>New</name>"))
    new = database.document
    names = database.index.scan_blocks("name")
    assert new is not old
    assert not set(old_names.starts) <= set(names.starts)  # relabelled
    result = assert_engines_agree(database, SCANS, pattern)
    assert canonical_bindings(result.bindings()) == canonical_bindings(
        naive_pattern_matches(new, pattern))
    _, parents = new.tag_column("name", names.starts)
    assert parents is not old_parents and parents != old_parents


def region_rows(bindings):
    """Bindings as their ``Region`` rows (ends and levels included),
    in one order."""
    return sorted(tuple(binding[key] for key in sorted(binding))
                  for binding in bindings)


def test_a_kept_result_resolves_in_its_own_snapshot():
    """A relabelling commit (gapped labels) publishes a new document.
    A result kept from before it resolves its labels in the old
    document, a run after it in the new one: each view is its own
    document's matches, with that document's own ``Region`` objects."""
    database = Database.from_document(parse_xml(CHILD_XML, name="child"))
    pattern = compile_xpath("//manager/name")
    before = database.execute(SCANS, pattern)
    old = database.document
    old.regions([old.root.start])  # the old document's table is built
    m2 = next(node.node_id for node in old.nodes
              if node.attributes.get("id") == "m2")
    with database.transaction() as txn:
        txn.insert_subtree(m2, parse_xml("<name>New</name>"))
    new = database.document
    after = database.execute(SCANS, pattern)
    assert new.root.end + 1 > len(new)  # gapped
    assert not set(before.rows) & set(after.rows)  # relabelled
    assert new._region_table is None  # derive() starts its own
    for result, document in ((after, new), (before, old)):
        assert region_rows(result.bindings()) == region_rows(
            naive_pattern_matches(document, pattern))
        assert all(region is document.node(region.start).region
                   for row in result.tuples for region in row)


def test_a_view_over_a_document_that_is_not_the_index_raises():
    """A label the view's document holds no node at raises the typed
    error and never puts ``None`` into a row: past the document's
    last label (a shorter document), and in a gap of its labels (the
    index before a relabelling commit, the document after it).  The
    join is DESCENDANT-only, so the run itself reads no document."""
    pattern = compile_xpath("//manager//name")
    database = Database.from_document(parse_xml(CHILD_XML, name="child"))
    shorter = parse_xml(CHILD_XML.replace(
        '<employee id="e5"><name>Flo</name></employee>', ""))
    old_index = database.index
    m2 = next(node.node_id for node in database.document.nodes
              if node.attributes.get("id") == "m2")
    with database.transaction() as txn:
        txn.insert_subtree(m2, parse_xml("<name>New</name>"))
    plan = StructuralJoinPlan(IndexScanPlan(0), IndexScanPlan(1), 0, 1,
                              Axis.DESCENDANT,
                              JoinAlgorithm.STACK_TREE_DESC)
    for index, document in ((old_index, shorter),
                            (old_index, database.document)):
        context = EngineContext(index, document)
        result = Executor(context, pattern).stream(plan).result()
        assert len(result) > 0
        with pytest.raises(PostingMismatchError, match="no node at label"):
            result.tuples
        with pytest.raises(PostingMismatchError):
            list(Executor(context, pattern).stream(plan))


# -- row ints -------------------------------------------------------------


def row_ints(rows):
    """Label tuples as the block engine's row ints."""
    return [sum(label << row_shift(len(row), position)
                for position, label in enumerate(row)) for row in rows]


def test_group_rows_groups_by_label_and_reads_the_packed_column():
    column = RegionBlock("a", array("I", [1, 4, 9]),
                         array("I", [8, 6, 9]), array("H", [1, 2, 1]))
    rows = row_ints([(7, 1), (8, 1), (5, 4), (3, 9), (2, 9)])
    groups = _group_rows(rows, 2, 1, "input", column)
    assert groups.starts == [1, 4, 9] and groups.bounds == [0, 2, 3, 5]
    assert groups.ends == [8, 6, 9] and groups.levels == [1, 2, 1]
    # the first column of the same rows is out of order
    with pytest.raises(PlanError, match="saw start 5 after 8"):
        _group_rows(rows, 2, 0, "input", column)
    # a middle column, read by a shift and a mask
    middle = row_ints([(2**32 - 1, 1, 0), (0, 4, 2**32 - 1)])
    assert _group_rows(middle, 3, 1, "input", column).starts == [1, 4]
    # a subset of the column (a predicate kept 4 only), and no rows
    kept = _group_rows([4], 1, 0, "input", column)
    assert (kept.starts, kept.ends, kept.levels, kept.bounds) == (
        [4], [6], [2], [0, 1])
    none = _group_rows([], 1, 0, "input", column)
    assert len(none) == 0 and none.bounds == [0]


def test_packed_rows_stay_row_ints_until_read():
    """``len`` and slices of the engine's packed output read no label;
    the first read flattens once, and both forms — row ints, and the
    label array a node and a fleet alike hand out — are equal row for
    row."""
    rows = [(0, 2**32 - 1, 7), (1, 2, 3), (2**32 - 1, 0, 5), (4, 4, 4)]
    lazy = PackedRows.of_ints(row_ints(rows), 3)
    assert len(lazy) == 4 and lazy._labels is None
    head = lazy[:2]
    assert isinstance(head, PackedRows) and head._labels is None
    assert list(head) == rows[:2] and head._labels is not None
    assert lazy._labels is None
    fleet = PackedRows(array(LABEL_TYPECODE, [label for row in rows
                                              for label in row]), 3)
    assert lazy == fleet == rows and lazy != rows[:3]
    assert lazy.labels.typecode == LABEL_TYPECODE and lazy._ints is None
    assert lazy[1] == lazy[-3] == rows[1]
    assert lazy[1:3] == rows[1:3] and lazy[::-2] == rows[::-2]
    assert lazy[3:1] == [] and lazy[:99] == rows
    assert PackedRows.join((lazy[:1], (), lazy[1:]), 3) == rows
    assert PackedRows.join((fleet[:3], fleet[3:]), 3) == rows
    with pytest.raises(IndexError):
        lazy[4]
    empty = PackedRows.join((), 3)
    assert len(empty) == 0 and list(empty) == []
    assert not hasattr(lazy, "append")


def test_group_rows_rejects_a_decreasing_join_column():
    column = RegionBlock("a", array("I", [1, 4, 9]),
                         array("I", [8, 6, 9]), array("H", [1, 2, 1]))
    with pytest.raises(PlanError,
                       match="ancestor input is not ordered by its "
                             r"declared column \(saw start 4 after 9\)"):
        _group_rows([1, 9, 4], 1, 0, "ancestor input", column)
    # and through a plan: the inner join's output is ordered by the
    # manager, the outer one joins it on the employee, unsorted —
    # (m1, e1), (m1, e2), (m2, e1) has employee labels 3, 5, 3
    database = Database.from_document(parse_xml(
        "<r><m><m><e><n/></e></m><e><n/></e></m></r>", name="nested"))
    pattern = database.compile("//m//e/n")
    inner = StructuralJoinPlan(IndexScanPlan(0), IndexScanPlan(1), 0, 1,
                               Axis.DESCENDANT,
                               JoinAlgorithm.STACK_TREE_ANC)
    unsorted = StructuralJoinPlan(inner, IndexScanPlan(2), 1, 2,
                                  Axis.CHILD,
                                  JoinAlgorithm.STACK_TREE_DESC)
    for engine in ("block", "tuple"):
        with pytest.raises(PlanError,
                           match="saw start 3 after 5"):
            database.execute(unsorted, pattern, engine=engine)


def test_big_result_rows_leave_the_cyclic_collector():
    """Why packed rows are fast, pinned: a big result is row ints,
    then one label array once read, never an object per row the
    collector tracks — a result of label tuples made one per row, and
    each counted towards the next generation-0 collection.  Wrap a
    row in any container and this fails."""
    database = Database.from_document(
        dataset_document("dblp", seed=42, entries=120))
    pattern = PAPER_QUERIES["Q.DBLP.2.c"].pattern
    database.query(pattern)  # statistics, postings and plan warm
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()  # every object made stays tracked until counted
    try:
        before = len(gc.get_objects())
        result = database.query(pattern)
        assert len(result) > 1000
        assert len(gc.get_objects()) - before < 200
        assert len(result.execution.rows.labels) == 6 * len(result)
        assert len(gc.get_objects()) - before < 200
    finally:
        if enabled:
            gc.enable()


def test_a_count_only_reader_builds_no_row_object():
    """``len`` of a 131 068-row result reads nothing: the rows stay
    row ints, so the run leaves the collector nothing to count.
    Measured on this query: 168-169 generation-0 collections a run
    when each row was a tuple of labels, 0 with row ints."""
    database = Database.from_document(fold_document(
        dblp_document(entries=400, seed=42), 2))
    pattern = PAPER_QUERIES["Q.DBLP.1.b"].pattern
    database.query(pattern)  # statistics, postings and plan warm
    before = gc.get_stats()[0]["collections"]
    assert len(database.query(pattern)) == 131_068
    assert gc.get_stats()[0]["collections"] - before <= 10


@pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
def test_default_path_allocates_no_region(name):
    """A paper query through ``Database.query`` leaves the document's
    label table unbuilt, and no posting block it touched holds a
    ``Region``: a block's accounting is its packed columns and its
    label-to-position map.  Asking for ``tuples`` afterwards builds
    the table on the run's document and hands out that document's own
    ``Region`` objects, exactly the iterator engine's rows."""
    query = PAPER_QUERIES[name]
    size = ({"entries": 60} if query.dataset == "dblp"
            else {"target_nodes": 600})
    database = Database.from_document(
        dataset_document(query.dataset, seed=42, **size))
    pattern = query.pattern
    document = database.document
    result = database.query(pattern)
    touched = list(database.index._blocks.values())
    assert touched and len(result) > 0
    assert document._region_table is None
    for block in touched:
        assert not any(isinstance(held, (list, Region))
                       for held in gc.get_referents(block))
        positions = len(block) if block._positions is not None else 0
        assert block.resident_bytes() == (
            block.packed_bytes() + positions * 112)
    assert "materialized" not in next(iter(
        database.index.storage_stats()["per_tag"].values()))
    reference = database.execute(result.plan, pattern, engine="tuple")
    _, context = database._engine_context()
    assert result.execution.tuples == reference.tuples == list(
        Executor(context, pattern).build(result.plan,
                                         engine="tuple").run())
    assert document._region_table is not None
    first = result.execution.tuples[0]
    assert all(region is document.node(region.start).region
               for region in first)
    for block in touched:
        assert not any(isinstance(held, (list, Region))
                       for held in gc.get_referents(block))


# -- decode cache ---------------------------------------------------------


@pytest.fixture
def index():
    return TagIndex(BufferPool(InMemoryDisk(), capacity=16))


class TestDecodeCache:
    def test_scan_blocks_cached_identity(self, index, small_document):
        index.index_document(small_document)
        first = index.scan_blocks("manager")
        assert index.scan_blocks("manager") is first
        assert index.scan_blocks_all() is index.scan_blocks_all()
        assert list(first.starts) == [
            r.start for r in index.scan("manager")]
        assert not hasattr(first, "regions")

    def test_merged_block_is_document_ordered(self, index,
                                              small_document):
        index.index_document(small_document)
        merged = index.scan_blocks_all()
        assert len(merged) == len(small_document)
        assert list(merged.starts) == sorted(merged.starts)

    def test_mutation_invalidates(self, index, small_document):
        """A splice drops the touched tag's decoded block and the
        merged block, and only those."""
        index.index_document(small_document)
        stale = index.scan_blocks("manager")
        untouched = index.scan_blocks("employee")
        merged = index.scan_blocks_all()
        epoch = index.decode_epoch
        last = max(node.start for node in small_document)
        index.apply_edits({"manager": (set(), [(last + 1, last + 2, 1)])})
        assert index.decode_epoch == epoch + 1
        fresh = index.scan_blocks("manager")
        assert fresh is not stale
        assert len(fresh) == len(stale) + 1
        assert index.scan_blocks("employee") is untouched
        assert index.scan_blocks_all() is not merged
        assert len(index.scan_blocks_all()) == len(merged) + 1

    def test_reload_discards_cache(self, small_document):
        database = Database.from_document(small_document)
        pattern = database.compile("//manager//employee")
        before = database.query(pattern).execution
        database.reload(parse_xml(
            "<company><manager><employee/></manager></company>",
            name="tiny"))
        after = database.query(pattern).execution
        assert len(before) > len(after) == 1

    def test_tuple_engine_leaves_cache_cold(self, small_document):
        database = Database.from_document(small_document)
        pattern = database.compile("//manager//employee")
        plan = database.optimize(pattern).plan
        database.execute(plan, pattern, engine="tuple")
        assert not database.index._blocks
        database.execute(plan, pattern)
        assert database.index._blocks


# -- batched index build --------------------------------------------------


class TestAddMany:
    """Postings added after the build: an index is packed once, then
    only spliced."""

    def test_matches_add_loop(self, small_document):
        """One splice per posting, in any order, reads back exactly as
        the one-shot build."""
        built = TagIndex(BufferPool(InMemoryDisk(), capacity=16))
        spliced = TagIndex(BufferPool(InMemoryDisk(), capacity=16))
        built.index_document(small_document)
        for node in reversed(small_document.nodes):
            spliced.apply_edits({node.tag: (set(), [
                (node.start, node.end, node.level)])})
        assert built.counts() == spliced.counts()
        assert built.tags() == spliced.tags()
        for tag in built.tags():
            assert built.regions(tag) == spliced.regions(tag)

    def test_duplicate_start_rejected(self, index, small_document):
        index.index_document(small_document)
        manager = small_document.nodes_with_tag("manager")[0]
        with pytest.raises(StorageError, match="duplicate posting"):
            index.apply_edits({"manager": (set(), [
                (manager.start, manager.end, manager.level)])})

    def test_tags_stay_sorted_after_new_tag(self, index,
                                            small_document):
        index.index_document(small_document)
        listed = index.tags()
        assert listed == sorted(listed)
        last = max(node.start for node in small_document)
        index.apply_edits({"aaa": (set(), [(last + 1, last + 2, 1)])})
        assert "aaa" in index.tags()
        assert index.tags() == sorted(index.tags())


# -- engine selection -----------------------------------------------------


def run_on(database, query, engine):
    """*query*'s chosen plan run on *engine* — the one place an engine
    is named: a plan-level call."""
    pattern = database.compile(query)
    return database.execute(database.optimize(pattern).plan, pattern,
                            engine=engine)


class TestEngineSelection:
    def test_invalid_engine_rejected(self, small_database):
        with pytest.raises(PlanError, match="unknown engine"):
            run_on(small_database, "//manager", "vector")

    def test_per_call_override(self, small_database):
        base = small_database.query("//manager//employee")
        for engine in ("tuple", "block"):
            result = run_on(small_database, "//manager//employee",
                            engine)
            assert result.tuples == base.execution.tuples

    def test_query_many_engine(self, small_database):
        queries = ["//manager//employee", "//department/name"]
        batch = small_database.query_many(queries, workers=2)
        for engine in ("tuple", "block"):
            for query, result in zip(queries, batch):
                solo = run_on(small_database, query, engine)
                assert result.execution.tuples == solo.tuples
