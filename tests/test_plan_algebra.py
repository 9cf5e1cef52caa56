"""The plan algebra: one price, one identity, one comparison.

``core/`` holds three decisions once each — the Sec. 2.2.2 price
(:class:`~repro.core.cost.CostModel` and the one pricing walk), the
plan identity (``PhysicalPlan.signature`` and the digest parser beside
it) and, above them, the old-vs-new comparison ``whatif``, ``audit
--why`` and the plan-space report share.  These tests pin that the
pieces agree with each other exactly, and that everything arriving
through the digest seam from outside the program fails typed.
"""

import json
import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.api import Database
from repro.core.cost import COST_FACTOR_NAMES, CostFactors, CostModel
from repro.core.enumeration import (EnumerationContext, estimate_plan_cost,
                                    plan_cost_by_family)
from repro.core.pattern import canonical_ranks
from repro.core.plans import (JoinAlgorithm, canonical_plan_digest,
                              parse_plan_digest, plan_digest_diff,
                              plan_from_digest, remap_plan)
from repro.core.planspace import PlanSpaceRecorder
from repro.errors import PlanError
from repro.obs.audit import audit_records
from repro.workloads.generators import random_pattern
from repro.workloads.queries import PAPER_QUERIES

from tests.test_cli import run_cli

ALGORITHMS = ("DP", "DPP", "DPP'", "DPAP-EB", "DPAP-LD", "FP")

BOGUS = "bogus[1//0](scan(1),scan(0))"
NESTED_LOOP = "nested-loop[1//0](scan(1),scan(0))"


def check_algebra(database, pattern, algorithm):
    recorder = PlanSpaceRecorder()
    result = database.optimize(pattern, algorithm=algorithm,
                               planspace=recorder)
    context = EnumerationContext(pattern, database.cost_model,
                                 database.estimator)

    # price: the walk re-derives the optimizer's own figure exactly
    copy = remap_plan(result.plan, {node_id: node_id
                                    for node_id in range(len(pattern))})
    assert estimate_plan_cost(copy, context) == result.estimated_cost
    total, families = plan_cost_by_family(copy, context)
    assert total == result.estimated_cost
    assert tuple(families) == COST_FACTOR_NAMES
    assert sum(families.values()) == pytest.approx(total, rel=1e-9)
    for candidate in recorder.candidates:
        if candidate["breakdown"] is not None:
            assert sum(candidate["breakdown"].values()) == pytest.approx(
                candidate["move_cost"], rel=1e-9, abs=1e-12)

    # identity: one writer, and the parser reads back what it wrote
    digest = canonical_plan_digest(result.plan, pattern)
    assert digest == result.plan.signature(canonical_ranks(pattern))
    rebuilt = plan_from_digest(digest, pattern)
    assert canonical_plan_digest(rebuilt, pattern) == digest
    assert estimate_plan_cost(rebuilt, context) == result.estimated_cost


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
def test_paper_queries(paper_databases, name, algorithm):
    query = PAPER_QUERIES[name]
    check_algebra(paper_databases[query.dataset], query.pattern, algorithm)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("seed", range(100, 130))
def test_random_patterns(random_database, seed, algorithm):
    pattern = random_pattern(random.Random(seed), min_nodes=2, max_nodes=7)
    check_algebra(random_database, pattern, algorithm)


def test_family_views_are_the_formulae_term_by_term():
    """Each single-factor view prices exactly its own term, so the
    views of an operation sum to its scalar price in formula order."""
    model = CostModel(CostFactors(0.5, 3.0, 7.0, 1.25))
    views = model.by_family()
    assert tuple(views) == COST_FACTOR_NAMES
    anc = [views[name].stack_tree_anc(31.0, 977.0)
           for name in COST_FACTOR_NAMES]
    assert anc == [0.0, 0.0, 2.0 * 977.0 * 7.0, 2.0 * 31.0 * 1.25]
    assert anc[2] + anc[3] == model.stack_tree_anc(31.0, 977.0)
    assert views["f_sort"].sort(1000) == model.sort(1000)
    assert views["f_index"].index_access(12) == model.index_access(12)
    for name in ("f_index", "f_io", "f_stack"):
        assert views[name].sort(1000) == 0.0


# -- the digest seam fails typed --------------------------------------------

@pytest.fixture(scope="module")
def seam(random_database):
    pattern = random_database.compile("//a[b]//c/d")
    plans = [random_database.optimize(pattern, algorithm=algorithm).plan
             for algorithm in ("DPP", "FP", "DPAP-LD")]
    context = EnumerationContext(pattern, random_database.cost_model,
                                 random_database.estimator)
    return pattern, context, sorted({
        canonical_plan_digest(plan, pattern) for plan in plans})


INJECTED = st.sampled_from(
    list("()[],/") + ["9", "12", "sort[", "scan(", "bogus", "nested-loop",
                      "stack-tree-anc", "٣", "\x00", " "])


@st.composite
def mutated_digests(draw, digests):
    digest = draw(st.sampled_from(digests))
    for _ in range(draw(st.integers(1, 4))):
        position = draw(st.integers(0, max(0, len(digest) - 1)))
        kind = draw(st.sampled_from(("drop", "swap", "inject", "rank",
                                     "algorithm")))
        if kind == "drop":
            digest = digest[:position] + digest[position + 1:]
        elif kind == "swap" and position + 1 < len(digest):
            digest = (digest[:position] + digest[position + 1]
                      + digest[position] + digest[position + 2:])
        elif kind == "inject":
            digest = digest[:position] + draw(INJECTED) + digest[position:]
        elif kind == "rank":
            digits = [i for i, char in enumerate(digest) if char.isdigit()]
            if digits:
                at = digits[position % len(digits)]
                digest = (digest[:at] + str(draw(st.integers(0, 99)))
                          + digest[at + 1:])
        elif kind == "algorithm":
            digest = digest.replace(
                "stack-tree-desc",
                draw(st.sampled_from(("bogus", "nested-loop", "",
                                      "stack-tree-anc"))), 1)
    return digest


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_digests_raise_plan_error_and_nothing_else(seam, data):
    pattern, context, digests = seam
    digest = data.draw(mutated_digests(digests))
    try:
        plan_digest_diff(digests[0], digest)
        plan = plan_from_digest(digest, pattern)
        cost = estimate_plan_cost(plan, context)
    except PlanError:
        return
    # a mutation may land on another valid plan of the same pattern
    assert canonical_plan_digest(plan, pattern) == digest
    assert cost > 0


def test_hostile_digests_fail_typed():
    deep = "sort[0](" * 5000 + "scan(0)" + ")" * 5000
    for digest in (BOGUS, "", "scan(", "scan(" + "9" * 5000 + ")",
                   deep, "scan(٣)", "sort[0](scan(0)"):
        with pytest.raises(PlanError):
            parse_plan_digest(digest)


def test_unknown_algorithm_is_a_plan_error_not_a_value_error(
        random_database):
    """``JoinAlgorithm('bogus')`` used to escape as a bare ValueError."""
    pattern = random_database.compile("//a//b")
    with pytest.raises(PlanError, match="unknown join algorithm 'bogus'"):
        plan_from_digest(BOGUS, pattern)


def test_nested_loop_has_no_price(random_database):
    """The model has no formula for it; it used to be priced silently
    as Stack-Tree-Desc."""
    pattern = random_database.compile("//a//b")
    context = EnumerationContext(pattern, random_database.cost_model,
                                 random_database.estimator)
    chosen = random_database.optimize(pattern).plan
    digest = canonical_plan_digest(chosen, pattern).replace(
        str(chosen.algorithm), "nested-loop")
    plan = plan_from_digest(digest, pattern)
    assert plan.algorithm is JoinAlgorithm.NESTED_LOOP
    with pytest.raises(PlanError, match="no Sec. 2.2.2 formula"):
        estimate_plan_cost(plan, context)
    with pytest.raises(PlanError, match="no Sec. 2.2.2 formula"):
        random_database.whatif("//a//b", force_plan=digest)


# -- one comparison ---------------------------------------------------------

FLIP_QUERY = "//b[d]/c"
FLIP_FACTORS = CostFactors(1.0, 500.0, 0.01, 1.0)
FLIP_XML = ("<a>" + "".join("<b>" + "<c/>" * 3 + "<d/>" * 2 + "</b>"
                            for _ in range(5))
            + "<c><d/><a><b/></a></c></a>")


def test_whatif_and_audit_why_return_the_same_comparison():
    database = Database.from_xml(FLIP_XML)
    whatif = database.whatif(FLIP_QUERY, factors=FLIP_FACTORS)
    assert whatif.flipped

    # the baseline winner as a logged plan, audited after the factors
    # really change: the same old plan, new plan and pricing context
    record = {"query": FLIP_QUERY, "algorithm": "DPP", "plan": "logged",
              "plan_digest": whatif.baseline_digest,
              "estimated_cost": whatif.baseline_cost}
    database.set_cost_factors(FLIP_FACTORS)
    entry, = audit_records(database, [record], why=True).entries
    assert entry.flipped
    assert entry.comparison.to_dict() == whatif.comparison.to_dict()
    assert entry.comparison.render() == whatif.comparison.render()
    assert entry.comparison.render() in whatif.render()

    # the key names CI and earlier logs' consumers read
    why = entry.to_dict()["why"]
    assert why["logged_cost_now"] == whatif.baseline_cost_under_hypothesis
    assert why["regret"] == why["margin"] > 0
    assert why["diff"] == whatif.to_dict()["diff"]
    assert why["crossover"] == whatif.to_dict()["crossover"]
    assert set(why["crossover"]) == set(COST_FACTOR_NAMES)
    payload = whatif.to_dict()
    assert payload["baseline"]["digest"] and payload["flipped"] is True
    assert payload["hypothetical"]["digest"] == why["new_digest"]


def test_report_why_is_the_runner_up_compared_with_the_winner():
    from repro.obs.planspace import (build_plan_space_report,
                                     compare_plans)

    database = Database.from_xml(FLIP_XML)
    pattern = database.compile("//a//b/c")
    recorder = PlanSpaceRecorder()
    database.optimize(pattern, algorithm="DP", planspace=recorder)
    report = build_plan_space_report(recorder, top_k=1)
    runner_up = report.alternatives[0]
    versus = compare_plans(runner_up.digest, recorder.winner,
                           recorder.context)
    assert versus.margin == pytest.approx(runner_up.delta)
    assert versus.driver in report.why
    assert versus.crossover == pytest.approx({
        name: runner_up.breakdown[name] - report.winner_breakdown[name]
        for name in COST_FACTOR_NAMES})


# -- the three fixes, end to end --------------------------------------------

PERS = ("--dataset", "pers", "--nodes", "400")


@pytest.fixture(scope="module")
def flip_log(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("algebra") / "log.jsonl")
    assert run_cli("log", *PERS, "--serve", "1", "--output", path)[0] == 0
    return path


def test_one_damaged_record_does_not_stop_audit_why(flip_log, tmp_path):
    damaged = tmp_path / "damaged.jsonl"
    with open(flip_log) as handle:
        lines = handle.read()
    damaged.write_text(lines + "".join(
        json.dumps({"query": query, "algorithm": "DPP", "plan": "x",
                    "plan_digest": digest, "estimated_cost": 1.0}) + "\n"
        for query, digest in (("//manager//name", BOGUS),
                              ("//manager//employee", NESTED_LOOP))))
    report_path = tmp_path / "why.json"
    code, output = run_cli(
        "audit", *PERS, "--log", str(damaged), "--why",
        "--factor", "f_sort=50", "--factor", "f_io=0.05",
        "--json", str(report_path))
    assert code == 3
    flips = [entry for entry in json.loads(report_path.read_text())["entries"]
             if entry["flipped"]]
    by_query = {entry["query"]: entry["why"] for entry in flips}
    assert "unknown join algorithm 'bogus'" in \
        by_query.pop("//manager//name")["note"]
    nested = by_query.pop("//manager//employee")
    assert "no Sec. 2.2.2 formula for nested-loop" in nested["note"]
    assert "crossover" not in nested and "regret" not in nested
    assert by_query, "the genuine flips must still be reported"
    for why in by_query.values():
        assert why["diff"]["removed"] or why["diff"]["added"]
        assert any(abs(delta) > 0 for delta in why["crossover"].values())
    assert "note:" in output and "crossover:" in output


@pytest.mark.parametrize("digest, reason", [
    (BOGUS, "unknown join algorithm 'bogus'"),
    (NESTED_LOOP, "no Sec. 2.2.2 formula for nested-loop"),
    ("scan(", "bad plan digest"),
    ("scan(0)", "digest binds 1 scans, pattern has 2 nodes"),
])
def test_whatif_force_of_a_bad_digest_is_an_error(capsys, digest, reason):
    code, output = run_cli("whatif", *PERS, "--force", digest,
                           "//manager//employee")
    assert code == 1 and output == ""
    error = capsys.readouterr().err
    assert error.startswith("error:") and reason in error
    assert "Traceback" not in error


def test_whatif_log_replay_skips_and_says_why(flip_log, tmp_path):
    stale = tmp_path / "stale.jsonl"
    with open(flip_log) as handle:
        stale.write_text(handle.read()
                         + json.dumps({"query": "//manager[["}) + "\n")
    code, output = run_cli("whatif", *PERS, "--log", str(stale),
                           "--factor", "f_io=64")
    assert code == 0
    summary = output.splitlines()[-1]
    assert summary.startswith("what-if:")
    assert "1 skipped (first: //manager[[: " in summary
