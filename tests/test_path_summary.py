"""The label-path summary held to true counts.

:class:`~repro.estimation.estimator.ExactEstimator` counts the matches
of every connected sub-pattern exactly; it is checked against
:func:`naive_pattern_matches`, with and without predicates.  Then the
summary the database plans with is held to it: equal on every
connected cluster of a predicate-free chain, 0 only where the true
count is 0, its q-error on a seeded random corpus pinned, and the DPP
plans it picks for the paper's eight queries within 5 % of the
simulated cost of the plans DPP picks under true counts.
"""

from __future__ import annotations

import random

import pytest

from benchmarks.histogram import PositionalEstimator
from repro.api import Database
from repro.core.optimizer import get_optimizer
from repro.core.pattern import (Axis, PatternEdge, PatternNode,
                                QueryPattern, mask_nodes)
from repro.engine.nestedloop import naive_pattern_matches
from repro.estimation.estimator import (ExactEstimator,
                                        PatternCardinalities,
                                        ScaledEstimator, Statistics)
from repro.workloads import (PAPER_QUERIES, dblp_document, fold_document,
                             mbench_document, personnel_document,
                             random_pattern)
from tests.conftest import random_document
from tests.test_search_space import random_pool


def true_counts(pattern: QueryPattern, document) -> PatternCardinalities:
    return PatternCardinalities(pattern, ExactEstimator(document))


def sub_pattern(pattern: QueryPattern, mask: int) -> QueryPattern:
    """The cluster *mask* of *pattern* as a pattern of its own."""
    ids = {old: new for new, old in enumerate(mask_nodes(mask))}
    return QueryPattern(
        [PatternNode(ids[node.node_id], node.tag, node.predicates)
         for node in pattern.nodes if node.node_id in ids],
        [PatternEdge(ids[edge.parent], ids[edge.child], edge.axis)
         for edge in pattern.edges
         if edge.parent in ids and edge.child in ids])


def connected_masks(pattern: QueryPattern) -> list[int]:
    return [mask for mask in range(1, 1 << len(pattern))
            if pattern.is_connected_mask(mask)]


# -- the oracle ---------------------------------------------------------------


@pytest.mark.parametrize("predicate_chance", [0.0, 0.5])
def test_true_counts_equal_naive_matches(predicate_chance):
    """Every connected cluster of seeded random patterns, counted
    against the brute-force matcher: random trees for structure (no
    values), small Pers documents for predicates that hold."""
    documents = [random_document(seed, size=60) for seed in (1, 2)] + [
        personnel_document(target_nodes=120, seed=seed)
        for seed in (1, 2)]
    checked = nonzero = 0
    for index, document in enumerate(documents):
        tags = tuple(sorted(document.tags()))
        rng = random.Random(100 + index)
        for _ in range(12):
            pattern = random_pattern(rng, tags=tags, min_nodes=2,
                                     max_nodes=4, wildcard_chance=0.1,
                                     predicate_chance=predicate_chance)
            cards = true_counts(pattern, document)
            for mask in connected_masks(pattern):
                expected = len(naive_pattern_matches(
                    document, sub_pattern(pattern, mask)))
                assert cards.cluster_cardinality(mask) == expected
                checked += 1
                nonzero += expected > 0
    assert nonzero > checked // 4


# -- the summary against the oracle -----------------------------------------


def chain(rng: random.Random, length: int) -> QueryPattern:
    tags = ("a", "b", "c", "d", "*")
    return QueryPattern(
        [PatternNode(node_id, rng.choice(tags))
         for node_id in range(length)],
        [PatternEdge(node_id, node_id + 1,
                     rng.choice((Axis.CHILD, Axis.DESCENDANT)))
         for node_id in range(length - 1)])


def test_summary_is_exact_on_predicate_free_chains():
    """A chain's matches are its path embeddings: each node on a path
    has one ancestor on each prefix of it.  So the summary is the true
    count on every connected cluster of every predicate-free chain (a
    sub-chain), up to the rounding of its ``count(t) / count(s)``
    steps."""
    rng = random.Random(11)
    clusters = 0
    for seed in range(4):
        document = random_document(seed, size=300)
        estimator = Statistics(document).estimator()
        for length in (2, 3, 4, 5):
            for _ in range(4):
                pattern = chain(rng, length)
                estimate = PatternCardinalities(pattern, estimator)
                truth = true_counts(pattern, document)
                for mask in connected_masks(pattern):
                    assert estimate.cluster_cardinality(mask) == \
                        pytest.approx(truth.cluster_cardinality(mask),
                                      rel=1e-9, abs=1e-9), (pattern, mask)
                    clusters += 1
    assert clusters > 300


@pytest.mark.parametrize("predicate_chance", [0.0, 0.3])
def test_summary_zero_means_no_match(random_database, predicate_chance):
    """Every match maps to a path embedding, so a cluster the summary
    prices at 0 has no match — on every connected cluster of the
    random pools the search-space tests plan."""
    document = random_database.document
    zeros = 0
    for pattern in random_pool(predicate_chance):
        estimate = PatternCardinalities(pattern, random_database.estimator)
        truth = true_counts(pattern, document)
        for mask in connected_masks(pattern):
            if estimate.cluster_cardinality(mask) == 0.0:
                zeros += 1
                assert truth.cluster_cardinality(mask) == 0.0, (pattern,
                                                                 mask)
    assert zeros


def test_what_if_scales_a_cluster_by_each_nodes_factor():
    """``ScaledEstimator`` on the summary, on the true counts and on
    the paper's estimator (whose independence product reads the scaled
    node and edge estimates): every cluster is the base's estimate
    times the factor of each of its nodes."""
    document = personnel_document(target_nodes=300, seed=3)
    factors = {"employee": 3.0, "name": 0.5, "manager": 0.0}
    for base in (Statistics(document).estimator(),
                 ExactEstimator(document),
                 PositionalEstimator.from_document(document)):
        scaled = ScaledEstimator(base, factors)
        for query in PAPER_QUERIES.values():
            if query.dataset != "pers":
                continue
            plain = PatternCardinalities(query.pattern, base)
            what_if = PatternCardinalities(query.pattern, scaled)
            for mask in connected_masks(query.pattern):
                scale = 1.0
                for node_id in mask_nodes(mask):
                    scale *= factors.get(
                        query.pattern.node(node_id).tag, 1.0)
                assert what_if.cluster_cardinality(mask) == \
                    pytest.approx(plain.cluster_cardinality(mask) * scale,
                                  rel=1e-12), (base, mask)


#: 48 random patterns of 4-6 nodes over the Pers tags (seed 42) on Pers
#: 2000 (seed 42): connected clusters of two or more nodes, those with
#: a match, and the summary's q-error over them, p50 and p99
QERROR_CORPUS = {"clusters": 620, "matched": 87, "p50": 1.0, "p99": 1.377}


def test_summary_q_error_on_a_seeded_corpus():
    document = personnel_document(target_nodes=2000, seed=42)
    estimator = Statistics(document).estimator()
    tags = tuple(sorted(document.tags()))
    rng = random.Random(42)
    clusters = 0
    errors = []
    for _ in range(48):
        pattern = random_pattern(rng, tags=tags, min_nodes=4, max_nodes=6)
        estimate = PatternCardinalities(pattern, estimator)
        truth = true_counts(pattern, document)
        for mask in connected_masks(pattern):
            if not mask & (mask - 1):
                continue
            clusters += 1
            actual = truth.cluster_cardinality(mask)
            estimated = estimate.cluster_cardinality(mask)
            if actual == 0.0:
                assert estimated == 0.0
                continue
            errors.append(max(estimated / actual, actual / estimated))
    errors.sort()

    def rank(quantile):  # nearest rank
        return errors[max(0, -(-len(errors) * quantile // 100) - 1)]

    assert {"clusters": clusters, "matched": len(errors),
            "p50": round(rank(50), 3),
            "p99": round(rank(99), 3)} == QERROR_CORPUS


# -- plan quality: the gate ---------------------------------------------------


@pytest.mark.parametrize("folding", [1, 2])
def test_dpp_plans_cost_within_five_percent_of_true_count_plans(folding):
    """The eight paper queries on ``inproc_twig``'s corpora (seed 42),
    folded: the measured ``simulated_cost()`` of the plans DPP picks on
    the summary, summed, is at most 1.05x that of the plans DPP picks
    on :class:`ExactEstimator`, which prices every cluster at its true
    count.  (x1: 174 030.91 against 172 251.82; x2: 373 435.82 against
    372 383.70 — and 251 584.48 and 737 597.04 on the paper's
    histograms.)"""
    corpora = {
        "pers": personnel_document(target_nodes=2000, seed=42),
        "dblp": dblp_document(entries=400, seed=42),
        "mbench": mbench_document(target_nodes=3000, seed=42)}
    databases = {
        dataset: Database.from_document(fold_document(document, folding))
        for dataset, document in corpora.items()}
    exact = {dataset: ExactEstimator(database.document)
             for dataset, database in databases.items()}

    def measured(database, pattern, plan):
        return database.execute(plan, pattern).metrics.simulated_cost()

    summary = floor = 0.0
    for query in PAPER_QUERIES.values():
        database = databases[query.dataset]
        summary += measured(database, query.pattern,
                            database.optimize(query.pattern, "DPP").plan)
        floor += measured(database, query.pattern, get_optimizer(
            "DPP", cost_model=database.cost_model).optimize(
                query.pattern, exact[query.dataset]).plan)
    assert summary <= 1.05 * floor, (summary, floor)
