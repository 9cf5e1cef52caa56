"""Differential-testing harness: optimizers and engines cross-check.

Two oracles over a corpus of generated patterns:

* **Cost oracle** — DP and DPP both claim the global optimum, so
  their reported plan costs must agree exactly on every pattern; FP
  claims the optimum of the fully-pipelined subspace, so its cost must
  match DP whenever DP's optimum is itself fully pipelined (and never
  beat DP).

* **Binding oracle** — every evaluation strategy must produce the
  identical binding set: the optimized structural-join plan (DP and
  DPP), a nested-loop-join plan, the brute-force matcher, and the
  holistic TwigStack operator.  This is the binary-vs-holistic
  cross-check the "Demythization" line of work motivates: structural
  join plans and holistic twig joins are independent implementations
  of the same semantics, so any disagreement is a bug in one of them.

Quick mode runs ``QUICK_CORPUS`` (>= 200) patterns; the ``slow``-marked
case widens the corpus and documents.
"""

from __future__ import annotations

import pytest

from repro.api import Database
from repro.errors import ReproError, ShardError
from repro.core.pattern import QueryPattern
from repro.core.plans import (IndexScanPlan, JoinAlgorithm, PhysicalPlan,
                              StructuralJoinPlan)
from repro.document.parser import parse_xml
from repro.engine import blocks
from repro.engine.executor import Executor
from repro.engine.metrics import COST_COUNTERS
from repro.engine.nestedloop import naive_pattern_matches
from repro.workloads import make_rng, random_pattern
from repro.workloads.personnel import personnel_document
from repro.workloads.queries import PAPER_QUERIES, dataset_document

from tests.conftest import branches_at_root, random_document

QUICK_CORPUS = 220
SLOW_CORPUS = 600

#: document tags match the random-pattern tag alphabet plus noise
DOCUMENT_SEEDS = (1, 2, 3)


def _documents(size: int):
    documents = [random_document(seed, size=size)
                 for seed in DOCUMENT_SEEDS]
    documents.append(personnel_document(target_nodes=200))
    return documents


def _pattern_for(document, rng):
    """A random pattern whose tag alphabet matches *document*."""
    tags = tuple(sorted(document.tags()))
    return random_pattern(rng, tags=tags, min_nodes=2, max_nodes=5,
                          wildcard_chance=0.1, order_by_chance=0.5)


def nested_loop_plan(pattern) -> PhysicalPlan:
    """A left-deep all-nested-loop plan — the engine baseline."""
    plan: PhysicalPlan = IndexScanPlan(pattern.root)
    covered = {pattern.root}
    frontier = [pattern.root]
    while frontier:
        node_id = frontier.pop()
        for edge in pattern.child_edges(node_id):
            plan = StructuralJoinPlan(
                plan, IndexScanPlan(edge.child),
                edge.parent, edge.child, edge.axis,
                JoinAlgorithm.NESTED_LOOP)
            covered.add(edge.child)
            frontier.append(edge.child)
    assert covered == set(range(len(pattern)))
    return plan


def _check_pattern(database, pattern):
    """Run both oracles on one (document, pattern) case.

    Returns a list of disagreement descriptions (empty = pass).
    """
    problems: list[str] = []

    dp = database.optimize(pattern, algorithm="DP")
    dpp = database.optimize(pattern, algorithm="DPP")
    tolerance = 1e-6 * max(1.0, abs(dp.estimated_cost))
    if abs(dp.estimated_cost - dpp.estimated_cost) > tolerance:
        problems.append(
            f"DP cost {dp.estimated_cost} != DPP cost "
            f"{dpp.estimated_cost}")

    fp = database.optimize(pattern, algorithm="FP")
    if fp.estimated_cost < dp.estimated_cost - tolerance:
        problems.append(
            f"FP cost {fp.estimated_cost} beats the DP optimum "
            f"{dp.estimated_cost}")
    if dp.plan.is_fully_pipelined and abs(
            fp.estimated_cost - dp.estimated_cost) > tolerance:
        problems.append(
            f"DP optimum is fully pipelined but FP found "
            f"{fp.estimated_cost} != {dp.estimated_cost}")

    reference = database.execute(dpp.plan, pattern).canonical()
    for name, plan in (("DP", dp.plan), ("FP", fp.plan),
                       ("nested-loop", nested_loop_plan(pattern))):
        bindings = database.execute(plan, pattern).canonical()
        if bindings != reference:
            problems.append(
                f"{name} plan produced {len(bindings)} bindings, "
                f"DPP produced {len(reference)}")

    holistic = database.holistic_query(pattern).canonical()
    if holistic != reference:
        problems.append(
            f"TwigStack produced {len(holistic)} bindings, "
            f"structural joins produced {len(reference)}")

    naive = {
        tuple(binding[key].start for key in sorted(binding))
        for binding in naive_pattern_matches(database.document, pattern)}
    if naive != reference:
        problems.append(
            f"brute force produced {len(naive)} bindings, "
            f"structural joins produced {len(reference)}")
    return problems


def _run_corpus(corpus: int, document_size: int) -> tuple[int, list]:
    rng = make_rng(20030305)
    disagreements: list[str] = []
    databases = [Database.from_document(document)
                 for document in _documents(document_size)]
    checked = 0
    while checked < corpus:
        database = databases[checked % len(databases)]
        pattern = _pattern_for(database.document, rng)
        for problem in _check_pattern(database, pattern):
            disagreements.append(
                f"[doc={database.name} pattern="
                f"{pattern.describe()!r}] {problem}")
        checked += 1
    return checked, disagreements


def test_differential_quick_corpus():
    checked, disagreements = _run_corpus(QUICK_CORPUS, document_size=48)
    assert checked >= 200
    assert not disagreements, "\n".join(disagreements)


@pytest.mark.slow
def test_differential_slow_corpus():
    checked, disagreements = _run_corpus(SLOW_CORPUS, document_size=90)
    assert checked >= SLOW_CORPUS
    assert not disagreements, "\n".join(disagreements)


def test_nested_loop_plan_covers_pattern(running_example_pattern):
    plan = nested_loop_plan(running_example_pattern)
    assert plan.pattern_nodes() == frozenset(
        range(len(running_example_pattern)))
    assert plan.join_count() == len(running_example_pattern.edges)


# -- engine oracle: block vs tuple ---------------------------------------


def _iterator_rows(database, plan, pattern) -> list:
    """The reference: the iterator operators' own ``Region`` rows,
    pulled straight off the operator tree — no stream, no label
    reduction, no view in between."""
    _, context = database._engine_context()
    return list(Executor(context, pattern).build(
        plan, engine="tuple").run())


def _labels(region_rows) -> list:
    return [tuple(region.start for region in row)
            for row in region_rows]


def _check_blocks(database, plan, pattern, engine,
                  expected) -> list[str]:
    """One traced run read block by block against *expected*, the
    tuple engine's buffered run: the blocks concatenate to its label
    rows in order — as do ``fetchall()`` and ``result().rows`` of a
    fresh stream each — have the engine's sizes (one row, then at most
    ``BLOCK_ROWS``), leave identical counters, and the traced
    per-operator shares still sum exactly to the run totals."""
    problems: list[str] = []
    stream = database.stream_execute(plan, pattern, engine, spans=True)
    read = list(stream.blocks())
    if [row for block in read for row in block] != expected.rows:
        problems.append("blocks() concatenated != the tuple engine's "
                        "rows in order")
    if any(not isinstance(label, int)
           for block in read for row in block for label in row):
        problems.append("blocks() handed out something other than "
                        "label rows")
    if not (database.stream_execute(plan, pattern, engine).fetchall()
            == database.stream_execute(plan, pattern, engine)
            .result().rows == expected.rows):
        problems.append("fetchall() / result().rows != blocks() "
                        "concatenated")
    sizes = [len(block) for block in read]
    if sizes and (sizes[0] != 1 or not all(
            0 < size <= blocks.BLOCK_ROWS for size in sizes)):
        problems.append(f"block sizes {sizes[:5]}...")
    if not (stream.exhausted and stream.produced == len(expected)
            and stream.span.output_rows == len(expected)):
        problems.append(
            f"exhausted={stream.exhausted} produced={stream.produced} "
            f"root span rows={stream.span.output_rows}")
    totals = stream.metrics.counters()
    if totals != expected.metrics.counters():
        problems.append(f"counters {totals} != "
                        f"{expected.metrics.counters()}")
    for counter, total in totals.items():
        if sum(span.metrics.counters()[counter]
               for span in stream.span.walk_post_order()) != total:
            problems.append(f"span shares of {counter} do not sum to "
                            f"{total}")
    return [f"{engine} engine, block by block: {problem}"
            for problem in problems]


def _check_engines(database, pattern) -> list[str]:
    """Exact-sequence cross-check of the two execution engines.

    Stricter than the binding oracle above: the block engine promises
    the *identical row list* (same order, same duplicates) — its label
    rows are the iterator operators' ``Region`` rows reduced to start
    labels, and its ``Region`` view is those rows themselves — and the
    identical cost-model counters as the iterator engine, for any
    plan — see the invariants in :mod:`repro.engine.blocks` — whether
    it is drained at once or read block by block.
    """
    problems: list[str] = []
    plans = [("nested-loop", nested_loop_plan(pattern))]
    try:
        plans.append(
            ("DPP", database.optimize(pattern, algorithm="DPP").plan))
    except ReproError:
        # engine parity must hold for any *executable* plan; a pattern
        # the optimizer rejects still exercises the nested-loop pair
        pass
    for name, plan in plans:
        reference = _iterator_rows(database, plan, pattern)
        tuple_run = database.execute(plan, pattern, engine="tuple")
        block_run = database.execute(plan, pattern, engine="block")
        if not (block_run.rows == tuple_run.rows
                == _labels(reference)):
            problems.append(
                f"{name}: block engine emitted {len(block_run)} "
                f"rows, tuple engine {len(reference)} (or ordering "
                f"differs)")
        if not (block_run.tuples == tuple_run.tuples == reference):
            problems.append(
                f"{name}: the Region view is not the iterator "
                f"operators' rows")
        for counter in COST_COUNTERS:
            expected = getattr(tuple_run.metrics, counter)
            actual = getattr(block_run.metrics, counter)
            if expected != actual:
                problems.append(
                    f"{name}: counter {counter} diverged "
                    f"(tuple {expected}, block {actual})")
        for engine in ("block", "tuple"):
            problems += [f"{name}: {problem}" for problem in
                         _check_blocks(database, plan, pattern, engine,
                                       tuple_run)]
    return problems


def _run_engine_corpus(corpus: int,
                       document_size: int) -> tuple[int, list]:
    rng = make_rng(20030306)
    disagreements: list[str] = []
    databases = [Database.from_document(document)
                 for document in _documents(document_size)]
    checked = 0
    while checked < corpus:
        database = databases[checked % len(databases)]
        pattern = _pattern_for(database.document, rng)
        for problem in _check_engines(database, pattern):
            disagreements.append(
                f"[doc={database.name} pattern="
                f"{pattern.describe()!r}] {problem}")
        checked += 1
    return checked, disagreements


def test_engine_differential_quick_corpus(monkeypatch):
    # results here are small: a cap of 3 puts block boundaries — and
    # groups that straddle them — into nearly every run
    monkeypatch.setattr(blocks, "BLOCK_ROWS", 3)
    checked, disagreements = _run_engine_corpus(QUICK_CORPUS,
                                                document_size=48)
    assert checked >= 200
    assert not disagreements, "\n".join(disagreements)


@pytest.mark.parametrize("dataset", ("pers", "dblp", "mbench"))
def test_paper_queries_block_by_block(dataset):
    """The eight Table-1 queries at the real ``BLOCK_ROWS``."""
    size = ({"entries": 60} if dataset == "dblp"
            else {"target_nodes": 600})
    database = Database.from_document(
        dataset_document(dataset, seed=42, **size))
    queries = [query for query in PAPER_QUERIES.values()
               if query.dataset == dataset]
    assert queries
    for query in queries:
        plan = database.optimize(query.pattern).plan
        expected = database.execute(plan, query.pattern, engine="tuple")
        reference = _iterator_rows(database, plan, query.pattern)
        block_run = database.execute(plan, query.pattern)
        assert block_run.rows == expected.rows == _labels(reference)
        assert block_run.tuples == expected.tuples == reference
        assert (block_run.metrics.counters()
                == expected.metrics.counters())
        for engine in ("block", "tuple"):
            assert not _check_blocks(database, plan, query.pattern,
                                     engine, expected), query.name


def test_closing_after_the_first_block_stops_the_root_join():
    """The count-based TTFR guard: when the first row is handed out
    the root join has not finished — its traced span has counted fewer
    rows than the result holds — and closing there finishes the stream
    once (the finish hook records the traced run), unexhausted."""
    database = Database.from_document(
        personnel_document(target_nodes=2000, seed=42))
    pattern = database.compile("//employee//name")
    plan = database.optimize(pattern).plan
    total = len(database.execute(plan, pattern))
    recorded = database.tracer.recorded
    stream = database.stream_execute(plan, pattern, spans=True)
    first = next(stream.blocks())
    assert stream.engine == "block" and len(first) == 1
    assert stream.span.name == "BlockStackTreeDescJoin"
    assert stream.span.output_rows == stream.produced == 1 < total
    stream.close()
    stream.close()
    assert database.tracer.recorded == recorded + 1
    assert stream.finished and not stream.exhausted
    assert stream.span.output_rows < total
    assert list(stream.blocks()) == []


def test_traced_run_sums_sort_terms_in_the_untraced_order():
    """Regression from the slow corpus: three sorts whose float
    ``sort_units`` shares, folded into a traced run's totals pre-order,
    read 389.42483375047664 against the untraced run's
    389.4248337504767.  The fold — and any check that sums span
    shares — goes post-order, the order operators finish in."""
    from repro.core.pattern import QueryPattern

    database = Database.from_document(random_document(3, size=90))
    pattern = QueryPattern.build({
        "nodes": ["a", "d", "b", "*"],
        "edges": [(0, 1, "//"), (0, 2, "/"), (0, 3, "//")],
        "order_by": 0})
    plan = database.optimize(pattern, algorithm="DPP").plan
    assert plan.sort_count() >= 3
    for engine in ("block", "tuple"):
        untraced = database.execute(plan, pattern, engine=engine)
        traced = database.execute(plan, pattern, engine=engine,
                                  spans=True)
        assert traced.metrics.counters() == untraced.metrics.counters()
        assert sum(span.metrics.sort_units
                   for span in traced.span.walk_post_order()
                   ) == untraced.metrics.sort_units


@pytest.mark.slow
def test_engine_differential_slow_corpus():
    checked, disagreements = _run_engine_corpus(SLOW_CORPUS,
                                                document_size=90)
    assert checked >= SLOW_CORPUS
    assert not disagreements, "\n".join(disagreements)


# -- shard oracle: scatter-gather vs single node --------------------------


SHARDED_COUNTS = (1, 2, 3, 4)


def _dominant_document():
    """Root with one giant child subtree and two tiny siblings — the
    worst case for the greedy partitioner (one shard overfills)."""
    from repro.document.builder import DocumentBuilder

    builder = DocumentBuilder(name="dominant")
    builder.start_element("root")
    builder.start_element("a")
    for _ in range(25):
        builder.start_element("b")
        builder.start_element("c")
        builder.end_element()
    for _ in range(25):
        builder.end_element()
    builder.end_element()  # the giant <a>
    for _ in range(2):
        builder.start_element("a")
        builder.end_element()
    builder.end_element()
    return builder.finish()


def _sparse_document():
    """Two small subtrees — fewer than the widest shard count, so some
    shards end up empty and must still answer queries."""
    from repro.document.builder import DocumentBuilder

    builder = DocumentBuilder(name="sparse")
    builder.start_element("root")
    for _ in range(2):
        builder.start_element("a")
        builder.start_element("b")
        builder.start_element("c")
        builder.end_element()
        builder.end_element()
        builder.end_element()
    builder.end_element()
    return builder.finish()


def _nested_root_tag_documents():
    """A root whose tag recurs below it, on more shards than subtrees:
    a key column bound to the root in one shard's rows and to an owned
    node in another's interleaves the runs, so the merge is the
    general k-way one.  In the second tree the root's last child is a
    ``b`` of its own, so ``a/b`` ordered by ``a`` starts with a row of
    the last shard."""
    return [parse_xml("<a><a><b/><b/></a><c><b/></c></a>",
                      name="nested-root-tag"),
            parse_xml("<a><a><b/><b/></a><c><b/></c><b/></a>",
                      name="nested-root-tag-child")]


def _sharded_documents():
    return [personnel_document(target_nodes=240),
            random_document(7, size=60),
            _dominant_document(),
            _sparse_document(),
            *_nested_root_tag_documents()]


def _root_tag_patterns(document):
    """Patterns rooted at the document root's tag: the root alone —
    every shard binds the replicated root, so the fleet must collapse
    the duplicates, a row that binds only the root — and the root over
    its last child's tag, ordered by the root node, whose key column
    binds the root in some shards' rows only."""
    root = document.root
    last_child = document.children(root)[-1]
    return [QueryPattern.build({"nodes": [root.tag], "edges": []}),
            QueryPattern.build({"nodes": [root.tag, last_child.tag],
                                "edges": [(0, 1, "/")], "order_by": 0})]


def test_sharded_differential_binding_and_order_oracle(monkeypatch):
    """Scatter-gather must be observationally equivalent to one node.

    For every document (including the empty-shard, the
    single-subtree-dominant and the nested-root-tag edge cases), shard
    count in ``SHARDED_COUNTS`` and both execution engines, the same
    physical plan runs sharded and single-node: the merged rows must be
    the single node's rows, row for row in the single node's order — or
    the fleet refuses, typed, a pattern that branches at the
    replicated document root; it never answers with different rows.
    Each case is also read as a stream, block by block: its first
    block is exactly one row (none for an empty result), and its
    blocks, concatenated, are those same rows in that same order —
    through the concatenation and through the general merge, root-only
    duplicates included.
    """
    from repro.shard import ShardedDatabase, coordinator

    general_merges = []
    merge = coordinator.merge

    def counting(*runs, key=None):
        general_merges.append(1)
        return merge(*runs, key=key)

    monkeypatch.setattr(coordinator, "merge", counting)
    rng = make_rng(20030307)
    disagreements: list[str] = []
    for document in _sharded_documents():
        single = Database.from_document(document)
        # the Pers paper queries are the ones whose single-node order
        # is not the lexicographic order of their label rows
        patterns = [_pattern_for(document, rng) for _ in range(5)] + [
            query.pattern for name, query in PAPER_QUERIES.items()
            if name.startswith("Q.Pers")] + _root_tag_patterns(document)
        for shards in SHARDED_COUNTS:
            with ShardedDatabase(document, shards=shards) as sharded:
                for pattern in patterns:
                    plan = sharded.optimize(pattern,
                                            algorithm="DPP").plan
                    for engine in ("block", "tuple"):
                        case = (f"[doc={document.name} shards={shards}"
                                f" engine={engine} pattern="
                                f"{pattern.describe()!r}]")
                        try:
                            merged = sharded.execute(plan, pattern,
                                                     engine=engine)
                        except ShardError:
                            if not branches_at_root(pattern, document):
                                disagreements.append(
                                    f"{case} refused, but does not "
                                    f"branch at the document root")
                            continue
                        reference = single.execute(plan, pattern,
                                                   engine=engine).rows
                        if list(merged.rows) != list(reference):
                            disagreements.append(
                                f"{case} sharded produced "
                                f"{len(merged)} rows, single node "
                                f"{len(reference)}, or another order")
                        streamed = list(sharded.stream_execute(
                            plan, pattern, engine=engine).blocks())
                        if ([len(block) for block in streamed[:1]]
                                != [1] * bool(reference)):
                            disagreements.append(
                                f"{case} streamed a first block of "
                                f"{len(streamed[0]) if streamed else 0}"
                                f" rows")
                        if ([row for block in streamed for row in block]
                                != list(reference)):
                            disagreements.append(
                                f"{case} streamed other rows than the "
                                f"single node, or in another order")
    assert not disagreements, "\n".join(disagreements)
    assert general_merges, "no case reached the general merge"
