"""One search space: moves, Lookahead test and ubCost agree.

Sec. 3 defines one search and restrictions of it.  Which moves exist
(``possible_moves``), which statuses are dead (``is_doomed``) and what
a feasible completion costs (``upper_bound_completion``) are read from
the per-optimize :class:`EnumerationContext`; a search whose bound
comes from a different space than its moves prunes plans it could have
built — DPAP-LD used to prune *every* left-deep status against a bushy
bound on the patterns in ``REPRODUCERS`` below, and silently returned
a dearer plan on ``SILENTLY_DEARER``.

The oracle is the one DPP has always had: exhaustive DP over the same
move set.  ``LeftDeepDP`` is DP with the left-deep switch on, i.e. the
exhaustive left-deep optimum.
"""

import asyncio
import hashlib
import io
import random
from collections import deque
from urllib.parse import quote

import pytest

from benchmarks.histogram import PositionalEstimator
from repro.core.dp import DPOptimizer
from repro.core.dpap import DPAPLDOptimizer
from repro.core.dpp import DPPOptimizer
from repro.core.enumeration import (EnumerationContext, _greedy_completion,
                                    _growing, _is_doomed, _open_edges,
                                    completed_cost, is_doomed,
                                    possible_moves, upper_bound_completion)
from repro.core.optimizer import get_optimizer
from repro.core.plans import canonical_plan_digest
from repro.core.planspace import PRUNE_DOMINATED, PlanSpaceRecorder
from repro.core.status import Status, decode
from repro.estimation.estimator import ExactEstimator
from repro.server import QueryServer, ServerConfig, fetch
from repro.workloads.generators import random_pattern
from repro.workloads.queries import PAPER_QUERIES
from repro.xpath.render import pattern_to_xpath
from tests.test_enumeration import left_deep_allows


class LeftDeepDP(DPOptimizer):
    """Exhaustive DP over the left-deep space (not registered)."""

    name = "DP-LD"
    left_deep = True


#: (size, seed, exact statistics?) of ``pattern_of`` patterns on which
#: DPAP-LD raised "search reached no final status" before its bound
#: was a left-deep one — found under the paper's histograms, which the
#: inexact ones keep planning with (:func:`reproducer_estimator`), and
#: under exact pairwise counts; the exact ones are replayed on true
#: counts
REPRODUCERS = [(6, 262, False), (7, 197, False), (8, 103, False),
               (6, 102, True), (6, 262, True), (7, 102, True),
               (8, 102, True), (9, 102, True)]
#: patterns whose left-deep statuses, completed with bushy joins,
#: promise less than the left-deep optimum: the reproducers up to
#: 8 nodes but 6-262 on true counts, whose least promise is the
#: left-deep optimum (1497.29), and 6-148 on true counts (11225.39 <
#: 14438.18)
UNDERCUTS = [(6, 262, False), (7, 197, False), (8, 103, False),
             (6, 102, True), (6, 148, True), (7, 102, True),
             (8, 102, True)]
#: ... and one where it answered, with a plan 18 % dearer than the
#: left-deep optimum (2116.3 against 1791.2)
SILENTLY_DEARER = [(6, 184, False)]

#: full DP enumerates every status; 9 nodes costs seconds
DP_MAX_NODES = 8


def pattern_of(size, seed, predicate_chance=0.3):
    return random_pattern(random.Random(seed), min_nodes=size,
                          max_nodes=size,
                          predicate_chance=predicate_chance)


def estimator_of(database, exact):
    return (ExactEstimator(database.document) if exact
            else database.estimator)


def reproducer_estimator(database, exact):
    """What a reproducer is replayed under: true counts, or the
    paper's per-tag histograms without the label-path summary."""
    if exact:
        return ExactEstimator(database.document)
    return PositionalEstimator.from_document(database.document)


def cost(database, pattern, optimizer, estimator):
    return optimizer(database.cost_model).optimize(pattern, estimator)


def check_against_oracles(database, pattern, estimator):
    result = cost(database, pattern, DPAPLDOptimizer, estimator)
    assert result.plan.is_left_deep
    oracle = cost(database, pattern, LeftDeepDP, estimator)
    assert oracle.plan.is_left_deep
    assert result.estimated_cost == oracle.estimated_cost
    if len(pattern) <= DP_MAX_NODES:
        dp, dpp = (cost(database, pattern, optimizer,
                        estimator).estimated_cost
                   for optimizer in (DPOptimizer, DPPOptimizer))
        assert dpp == dp <= result.estimated_cost


# -- (a) DPAP-LD == exhaustive left-deep optimum, DPP == DP ----------------


@pytest.mark.parametrize("size, seed, exact",
                         REPRODUCERS + SILENTLY_DEARER)
def test_reproducers_return_the_left_deep_optimum(random_database, size,
                                                  seed, exact):
    check_against_oracles(random_database, pattern_of(size, seed),
                          reproducer_estimator(random_database, exact))


@pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
def test_paper_queries(paper_databases, name):
    query = PAPER_QUERIES[name]
    database = paper_databases[query.dataset]
    check_against_oracles(database, query.pattern, database.estimator)


def random_pool(predicate_chance):
    return [pattern_of(size, 1000 * size + seed, predicate_chance)
            for size in (3, 4, 5, 6, 7) for seed in range(16)]


@pytest.mark.parametrize("predicate_chance", [0.0, 0.3])
@pytest.mark.parametrize("exact", [False, True])
def test_random_pools(random_database, predicate_chance, exact):
    for pattern in random_pool(predicate_chance):
        check_against_oracles(random_database, pattern,
                              estimator_of(random_database, exact))


#: a pool pattern, ``//d[d][.//a[@aFour = 'Ada']]/a[@id >= 'beta']/a``,
#: on which DPP, DPP', DPAP-EB and DPAP-LD raised "search reached no
#: final status" under the label-path summary: the Pruning Rule's
#: threshold was a bound summed as ``677.0 + 14.666666666666666``
#: (691.6666666666666), every route's last status cost
#: ``690.3333333333334 + 1.3333333333333333`` (691.6666666666667) and
#: was pruned, and the whole pattern estimates 0, so its last join
#: costs 0
ULP_REPRODUCER = (5, 5013)


def test_threshold_is_summed_as_the_search_sums(random_database):
    pattern = pattern_of(*ULP_REPRODUCER)
    estimator = random_database.estimator
    assert estimator.summary is not None
    dp = cost(random_database, pattern, DPOptimizer, estimator)
    assert dp.estimated_cost == 691.6666666666666
    left_deep = cost(random_database, pattern, LeftDeepDP, estimator)
    for name in ("DPP", "DPP'", "DPAP-EB", "DPAP-LD"):
        result = get_optimizer(
            name, cost_model=random_database.cost_model).optimize(
                pattern, estimator)
        optimum = left_deep if name == "DPAP-LD" else dp
        assert result.estimated_cost == optimum.estimated_cost, name


# -- (b) every bound is a plan of the space being searched -----------------


def contexts(database, pattern, estimator):
    return {left_deep: EnumerationContext(
                pattern, database.cost_model, estimator,
                left_deep=left_deep)
            for left_deep in (False, True)}


def reachable(context):
    """Every status some move sequence of *context*'s space reaches,
    level by level: ``(status code, cheapest cost to reach it, its
    moves)``."""
    start = context.start_code
    cheapest = {start: context.start_cost()}
    queue = deque([start])
    while queue:
        status = queue.popleft()
        moves = possible_moves(status, context)
        yield status, cheapest[status], moves
        for move in moves:
            reached = cheapest[status] + move[3]
            result = move[4]
            if result not in cheapest:
                queue.append(result)
            elif reached >= cheapest[result]:
                continue
            cheapest[result] = reached


@pytest.mark.parametrize("size, seed, exact", UNDERCUTS + SILENTLY_DEARER)
def test_cost_plus_ubcost_is_achievable_in_its_own_space(
        random_database, size, seed, exact):
    pattern = pattern_of(size, seed)
    estimator = reproducer_estimator(random_database, exact)
    spaces = contexts(random_database, pattern, estimator)
    optimum = {
        False: cost(random_database, pattern, DPOptimizer, estimator),
        True: cost(random_database, pattern, LeftDeepDP, estimator)}
    for left_deep, context in spaces.items():
        start_bound = context.start_cost() + upper_bound_completion(
            context.start_code, context)
        assert start_bound >= optimum[left_deep].estimated_cost
        # the Pruning Rule takes the least Cost + ubCost it has seen
        # for a full-plan cost: no status may promise less than the
        # space's optimum (up to the order the floats were summed in)
        for status, reached, _ in reachable(context):
            assert (reached + upper_bound_completion(status, context)
                    >= optimum[left_deep].estimated_cost * (1 - 1e-9))
    # what went wrong: completed with bushy joins, some left-deep
    # status promises a plan cheaper than any left-deep plan
    assert min(reached + upper_bound_completion(status, spaces[False])
               for status, reached, _ in reachable(spaces[True])
               ) < optimum[True].estimated_cost * (1 - 1e-9)


@pytest.mark.parametrize("predicate_chance", [0.0, 0.3])
def test_every_threshold_is_reachable_in_the_search_arithmetic(
        random_database, predicate_chance):
    """Under the label-path summary, on the random pools: from every
    reachable status, at its cheapest cost, the greedy completion
    summed the way the search sums (``completed_cost``) is no cheaper
    than the space's optimum in the same arithmetic — the cheapest
    final status :func:`reachable` reaches — with no tolerance, so a
    Pruning Rule threshold read from it never prunes the optimum;
    ``Cost + ubCost`` keeps its bound up to summation order."""
    for pattern in random_pool(predicate_chance):
        for context in contexts(random_database, pattern,
                                random_database.estimator).values():
            statuses = list(reachable(context))
            optimum = min(reached for status, reached, _ in statuses
                          if status in context.final_codes)
            for status, reached, _ in statuses:
                assert completed_cost(status, reached, context) >= optimum
                assert (reached + upper_bound_completion(status, context)
                        >= optimum * (1 - 1e-9))


# -- (c) the three definitions agree on every reachable status --------------


@pytest.mark.parametrize("left_deep", [False, True])
def test_moves_doom_test_and_bound_agree(random_database, left_deep):
    patterns = [PAPER_QUERIES["Q.Pers.3.d"].pattern] + [
        pattern_of(size, seed) for size, seed in
        ((4, 1), (5, 2), (6, 3), (6, 262), (7, 197))]
    for pattern in patterns:
        context = contexts(random_database, pattern,
                           random_database.estimator)[left_deep]
        for code, _, moves in reachable(context):
            status = Status.from_code(code, pattern)
            if left_deep:
                assert all(left_deep_allows(status, move[0])
                           for move in moves)
                assert len(status.growing_nodes()) <= 1
            if status.is_final():
                assert not moves and not is_doomed(code, context)
                continue
            doomed = is_doomed(code, context)
            # a live status has a move, and a feasible completion
            assert doomed or moves
            assert doomed == (upper_bound_completion(code, context)
                              == float("inf"))
            if left_deep:
                assert doomed == (not moves)


# -- (d) one record per status: what DPP judged once is what a fresh --------
# -- context decodes, tests and bounds from scratch ---------------------------


class TabledRecorder(PlanSpaceRecorder):
    """Keeps the codes of DPP's memo and of its memo hits."""

    def _reset(self):
        super()._reset()
        self.tabled = {}
        self.hits = []

    def record_prune(self, code, reason, cost, generated=False):
        if reason == PRUNE_DOMINATED:
            self.hits.append(code)
        super().record_prune(code, reason, cost, generated)

    def record_event(self, kind, code, cost, detail=""):
        if kind == "improve":
            self.hits.append(code)
        super().record_event(kind, code, cost, detail)

    def record_memo(self, memo):
        self.tabled = dict(memo)
        super().record_memo(memo)


def from_scratch(code, context):
    """*code*'s record as a fresh context of the same space builds it:
    decoded, tested and bounded with no parent to derive from."""
    fresh = EnumerationContext(context.pattern, context.cost_model,
                               context.cards.estimator,
                               left_deep=context.left_deep)
    clusters = decode(code, fresh.size)
    ordered = 0
    for value in clusters:
        if value != fresh.size:
            ordered |= 1 << value
    edges = _open_edges(ordered, _growing(clusters.values())
                        if fresh.left_deep else 0, fresh)
    return (clusters, ordered, edges, _is_doomed(clusters, edges, fresh),
            repr(_greedy_completion(clusters, ordered, fresh)))


@pytest.mark.parametrize("lookahead", [True, False])
@pytest.mark.parametrize("optimizer", [DPPOptimizer, DPAPLDOptimizer])
def test_every_tabled_status_was_judged_as_from_scratch(
        random_database, optimizer, lookahead):
    doomed_tabled = 0
    for size in (4, 5, 6, 7, 8):
        for seed in range(6):
            recorder = TabledRecorder()
            optimizer(random_database.cost_model, lookahead=lookahead,
                      planspace=recorder).optimize(
                pattern_of(size, 500 * size + seed),
                random_database.estimator)
            context = recorder.context
            assert recorder.tabled
            for code in recorder.tabled:
                *record, bound = context.record(code)
                assert (*record, repr(bound)) == from_scratch(code,
                                                              context)
                doomed_tabled += record[3]
            if lookahead:
                assert not any(context.record(code)[3]
                               for code in recorder.hits)
    # without the Lookahead Rule doomed statuses are tabled, and their
    # ubCost is the greedy completion's ``inf``
    assert (doomed_tabled > 0) == (not lookahead)


# -- (e) DP and DPP record what they recorded before sharing a memo ---------

#: per paper query and algorithm: alternatives recorded, memo size, and
#: a fingerprint of each list — taken at the commit before DP's
#: per-level tables and DPP's dict became one memo with one
#: reconstruction walk and one recorder epilogue
RECORDED = {
    ("Q.Mbench.1.a", "DP"): (7, 18, "bf6cab7e0d37686e", "cea6ffe31294177a"),
    ("Q.Mbench.1.a", "DPP"): (3, 8, "28bdee05b2c8698d", "308e7407db941011"),
    ("Q.Mbench.2.b", "DP"): (9, 51, "ad56e99caa203ead", "1cec0afc7ea3cee7"),
    ("Q.Mbench.2.b", "DPP"): (9, 21, "6b97f4fdc300504d", "28d644c84bad6d28"),
    ("Q.DBLP.1.b", "DP"): (9, 51, "f500270d285ae3dc", "3aa992817fe8aaf0"),
    ("Q.DBLP.1.b", "DPP"): (9, 21, "a8736381ba635fc2", "dd298bbb6323b2d8"),
    ("Q.DBLP.2.c", "DP"): (11, 139, "8b125f096655b179", "ee08a7bb2a1ee7a1"),
    ("Q.DBLP.2.c", "DPP"): (9, 49, "8ffdc7a070536d33", "ed72e1d912feec97"),
    ("Q.Pers.1.a", "DP"): (7, 18, "26010f81e0e3a936", "b2bbf5b7bfaa3136"),
    ("Q.Pers.1.a", "DPP"): (3, 8, "05e2c17daf62800c", "0926b1348d9a676b"),
    ("Q.Pers.2.c", "DP"): (11, 139, "8dccef1acbb73cfa", "caff2cc144433af1"),
    ("Q.Pers.2.c", "DPP"): (13, 44, "98468a3165565150", "52170949d468f95f"),
    ("Q.Pers.3.d", "DP"): (13, 344, "5a7cff25e9c9759c", "109be1be2b5c2d6e"),
    ("Q.Pers.3.d", "DPP"): (9, 99, "5f41e69d8328f1fb", "0750ec8786daf1ec"),
    ("Q.Pers.4.d", "DP"): (13, 344, "2a41b8fd98d5e603", "2a1fb0728a545f76"),
    ("Q.Pers.4.d", "DPP"): (7, 98, "1e0390120934d079", "e6073f74df0a52dd"),
}


def fingerprint(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def recorded(database, query, algorithm):
    """What the recorder kept of a search under the paper's histograms,
    which the fingerprints were taken under."""
    recorder = PlanSpaceRecorder()
    get_optimizer(algorithm, cost_model=database.cost_model,
                  planspace=recorder).optimize(
        query.pattern, PositionalEstimator.from_document(database.document))
    finals = [f"{canonical_plan_digest(plan, query.pattern)} "
              f"{plan_cost:.1f} {note}"
              for plan, plan_cost, note in recorder.finals]
    memo = [f"{entry['status']} {entry['cost']:.1f} {entry['level']}"
            for entry in recorder.memo_entries]
    return (len(finals), recorder.memo_size, fingerprint(finals),
            fingerprint(memo))


@pytest.mark.parametrize("name, algorithm", sorted(RECORDED))
def test_recorder_sees_the_same_memo_and_finals(paper_databases, name,
                                                algorithm):
    query = PAPER_QUERIES[name]
    assert recorded(paper_databases[query.dataset], query,
                    algorithm) == RECORDED[name, algorithm]


# -- over HTTP: no plan is a server bug, and there is none now --------------


def test_left_deep_request_is_answered_not_blamed_on_the_client(
        random_database):
    pattern = pattern_of(8, 103)
    xpath = pattern_to_xpath(pattern)
    assert xpath == ("//b[a[c]]//a[.//a[text() >= '2']"
                     "[.//d[b[text() > '42'][d]]]]")
    instance = QueryServer(
        random_database, ServerConfig(port=0, tenant_rate=0.0),
        out=io.StringIO())
    host, port = instance.start()
    try:
        response = asyncio.run(fetch(
            host, port, "GET",
            f"/query?algorithm=DPAP-LD&xpath={quote(xpath)}"))
    finally:
        instance.stop()
    assert response.status == 200, response.json()
