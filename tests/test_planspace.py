"""Optimizer introspection: plan-space traces, what-if, forensics.

The keystone property test uses the plan-space trace as an oracle:
for every random pattern of <= 4 nodes, the DP winner's cost must
equal the minimum over a brute-force DFS of the *entire* move space
(no memoization, no pruning), and the trace must contain every memo
entry plus a winner digest that round-trips to the executed plan.
"""

import io
import random

import pytest

from repro.api import Database
from repro.core.cost import COST_FACTOR_NAMES as FAMILIES
from repro.core.cost import CostFactors, CostModel
from repro.core.enumeration import (EnumerationContext,
                                    estimate_plan_cost,
                                    plan_cost_by_family, possible_moves)
from repro.core.plans import (canonical_plan_digest, parse_plan_digest,
                              plan_digest_diff, plan_from_digest)
from repro.core.planspace import PlanSpaceRecorder
from repro.errors import PlanError
from repro.obs.planspace import build_plan_space_report
from repro.workloads.generators import random_pattern

SMALL_XML = (
    "<a>"
    + "".join("<b>" + "<c/>" * 3 + "<d/>" * 2 + "</b>"
              for _ in range(5))
    + "<c><d/><a><b/></a></c>"
    + "</a>"
)

ALGORITHMS = ("DP", "DPP", "DPP'", "DPAP-EB", "DPAP-LD", "FP")


@pytest.fixture(scope="module")
def database():
    return Database.from_xml(SMALL_XML)


def exhaustive_minimum(context: EnumerationContext) -> float:
    """Min final cost by brute-force DFS over every move sequence."""
    best = [float("inf")]

    def dfs(code: int, cost: float) -> None:
        if code in context.final_codes:
            best[0] = min(best[0], cost)
            return
        for move in possible_moves(code, context):
            dfs(move[4], cost + move[3])

    dfs(context.start_code, context.start_cost())
    return best[0]


class TestDPOptimalityOracle:
    """DP winner == exhaustive minimum, witnessed by the trace."""

    @pytest.mark.parametrize("seed", range(30))
    def test_dp_matches_exhaustive_enumeration(self, database, seed):
        rng = random.Random(seed)
        pattern = random_pattern(rng, min_nodes=2, max_nodes=4)
        recorder = PlanSpaceRecorder()
        result = database.optimize(pattern, algorithm="DP",
                                   planspace=recorder)
        context = EnumerationContext(pattern, database.cost_model,
                                     database.estimator)
        floor = exhaustive_minimum(context)
        assert result.estimated_cost == pytest.approx(floor, rel=1e-9)

        # the trace holds every memo entry DP materialized ...
        assert recorder.memo_size == result.report.statuses_generated
        assert recorder.memo_dropped == 0
        # ... and the winner digest matches the executed plan's
        report = build_plan_space_report(recorder)
        assert report.winner_digest == canonical_plan_digest(
            result.plan, pattern)
        assert report.winner_cost == pytest.approx(
            result.estimated_cost)
        # every ranked alternative is costed at or above the winner
        for alternative in report.alternatives:
            assert alternative.cost >= report.winner_cost - 1e-9
            assert alternative.delta == pytest.approx(
                alternative.cost - report.winner_cost)

    @pytest.mark.parametrize("seed", range(10))
    def test_final_moves_all_reach_exhaustive_floor(self, database,
                                                    seed):
        """No recorded full plan undercuts the proven optimum."""
        rng = random.Random(1000 + seed)
        pattern = random_pattern(rng, min_nodes=2, max_nodes=4)
        recorder = PlanSpaceRecorder()
        result = database.optimize(pattern, algorithm="DP",
                                   planspace=recorder)
        assert recorder.finals
        costs = [cost for _, cost, _ in recorder.finals]
        assert min(costs) == pytest.approx(result.estimated_cost)


class TestRecorderAcrossAlgorithms:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_recorder_populates_and_winner_digest_matches(
            self, database, algorithm):
        pattern = database.compile("//a//b/c")
        recorder = PlanSpaceRecorder()
        result = database.optimize(pattern, algorithm=algorithm,
                                   planspace=recorder)
        assert recorder.winner is result.plan
        assert recorder.candidates_enumerated > 0
        assert recorder.memo_size > 0
        report = build_plan_space_report(recorder, query="//a//b/c")
        # DPP' runs through the DPP class and reports its class name
        assert report.algorithm == algorithm.rstrip("'")
        assert report.winner_digest == canonical_plan_digest(
            result.plan, pattern)
        rendered = report.render()
        assert "winner:" in rendered
        assert "memo:" in rendered

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_recorder_off_is_default_and_identical(self, database,
                                                   algorithm):
        pattern = database.compile("//a//b/c")
        plain = database.optimize(pattern, algorithm=algorithm)
        recorder = PlanSpaceRecorder()
        traced = database.optimize(pattern, algorithm=algorithm,
                                   planspace=recorder)
        assert plain.estimated_cost == pytest.approx(
            traced.estimated_cost)
        assert canonical_plan_digest(plain.plan, pattern) == \
            canonical_plan_digest(traced.plan, pattern)

    def test_candidate_breakdowns_sum_to_move_cost(self, database):
        pattern = database.compile("//a/b[d]/c")
        recorder = PlanSpaceRecorder()
        database.optimize(pattern, algorithm="DPP",
                          planspace=recorder)
        checked = 0
        for candidate in recorder.candidates:
            breakdown = candidate.get("breakdown")
            if breakdown is None:
                continue
            checked += 1
            assert sum(breakdown.values()) == pytest.approx(
                candidate["move_cost"], abs=1e-6)
            assert set(breakdown) == set(FAMILIES)
        assert checked > 0


class TestDigestForensics:
    @pytest.mark.parametrize("seed", range(20))
    def test_digest_round_trip(self, database, seed):
        rng = random.Random(2000 + seed)
        pattern = random_pattern(rng, min_nodes=2, max_nodes=5)
        result = database.optimize(pattern, algorithm="DPP")
        digest = canonical_plan_digest(result.plan, pattern)
        rebuilt = plan_from_digest(digest, pattern)
        assert canonical_plan_digest(rebuilt, pattern) == digest
        context = EnumerationContext(pattern, database.cost_model,
                                     database.estimator)
        assert estimate_plan_cost(rebuilt, context) == pytest.approx(
            result.estimated_cost)

    def test_parse_rejects_garbage(self):
        with pytest.raises(PlanError):
            parse_plan_digest("totally(not(a digest")

    def test_reconstruction_rejects_foreign_digest(self, database):
        pattern = database.compile("//a/b")
        with pytest.raises(PlanError):
            plan_from_digest("scan(7)", pattern)

    def test_diff_of_identical_digests_is_empty(self, database):
        pattern = database.compile("//a//b/c")
        digest = canonical_plan_digest(
            database.optimize(pattern, algorithm="DPP").plan, pattern)
        diff = plan_digest_diff(digest, digest)
        assert diff["removed"] == [] and diff["added"] == []
        assert diff["unchanged"] > 0

    def test_diff_reports_operator_movement(self, database):
        pattern = database.compile("//a//b/c")
        recorder = PlanSpaceRecorder()
        database.optimize(pattern, algorithm="DP",
                          planspace=recorder)
        report = build_plan_space_report(recorder, top_k=5)
        assert report.alternatives, "DP should surface alternatives"
        diff = plan_digest_diff(report.winner_digest,
                                report.alternatives[0].digest)
        assert diff["removed"] or diff["added"]


class TestWhatIf:
    def test_whatif_is_pure(self, database):
        epoch = database.statistics_epoch
        factors = database.cost_factors
        result = database.whatif("//a//b/c",
                                 factors=CostFactors(1, 99, 0.5, 1),
                                 tag_scale={"c": 7.0})
        assert database.statistics_epoch == epoch
        assert database.cost_factors == factors
        assert result.query == "//a//b/c"
        assert set(result.crossover) == set(FAMILIES)

    def test_whatif_flip_carries_diff_and_crossover(self, database):
        # cranking f_sort and flooring f_io reprices blocking plans;
        # a branchy pattern has genuinely different orderings to flip to
        result = database.whatif("//b[d]/c",
                                 factors=CostFactors(1.0, 500.0,
                                                     0.01, 1.0))
        assert result.flipped
        assert result.diff["removed"] or result.diff["added"]
        assert any(abs(v) > 0 for v in result.crossover.values())
        assert result.baseline_cost_under_hypothesis >= \
            result.hypothetical_cost - 1e-9
        assert "FLIP" in result.render()

    def test_whatif_forced_plan_is_repriced(self, database):
        pattern = database.compile("//a//b/c")
        recorder = PlanSpaceRecorder()
        database.optimize(pattern, algorithm="DP",
                          planspace=recorder)
        report = build_plan_space_report(recorder, top_k=1)
        assert report.alternatives
        forced = report.alternatives[0].digest
        result = database.whatif("//a//b/c", force_plan=forced)
        assert result.forced_digest == forced
        assert result.forced_cost_under_hypothesis == pytest.approx(
            report.alternatives[0].cost)

    def test_whatif_hypothetical_never_beats_exhaustive(self, database):
        """The hypothetical winner is optimal under its own model."""
        factors = CostFactors(2.0, 5.0, 3.0, 0.5)
        result = database.whatif("//a//b/c", factors=factors)
        pattern = database.compile("//a//b/c")
        context = EnumerationContext(pattern, CostModel(factors),
                                     database.estimator)
        assert result.hypothetical_cost == pytest.approx(
            exhaustive_minimum(context), rel=1e-9)


class TestAuditWhy:
    def test_flip_forensics_carry_diff_and_crossover(self, database):
        from repro.obs.audit import audit_records

        pattern = database.compile("//a//b/c")
        recorder = PlanSpaceRecorder()
        result = database.optimize(pattern, algorithm="DP",
                                   planspace=recorder)
        report = build_plan_space_report(recorder, top_k=1)
        assert report.alternatives
        # log the runner-up as if it had been chosen: the audit must
        # flag the flip and explain it against current statistics
        record = {"query": "//a//b/c", "algorithm": "DP",
                  "plan": "logged", "plan_digest":
                      report.alternatives[0].digest,
                  "estimated_cost": report.alternatives[0].cost,
                  "trace_id": "trace-1"}
        audit = audit_records(database, [record], why=True)
        assert audit.plan_flips == 1
        entry = audit.entries[0]
        assert entry.why is not None
        assert entry.why["diff"]["removed"] or \
            entry.why["diff"]["added"]
        assert set(entry.why["crossover"]) == set(FAMILIES)
        assert entry.why["regret"] == pytest.approx(
            entry.why["logged_cost_now"] - result.estimated_cost)
        rendered = audit.render()
        assert "diff:" in rendered and "crossover:" in rendered
        assert entry.to_dict()["why"]["crossover"]

    def test_unflipped_entries_carry_no_why(self, database):
        from repro.obs.audit import audit_records

        pattern = database.compile("//a//b/c")
        result = database.optimize(pattern, algorithm="DPP")
        record = {"query": "//a//b/c", "algorithm": "DPP",
                  "plan": result.plan.signature(),
                  "plan_digest": canonical_plan_digest(result.plan,
                                                       pattern),
                  "estimated_cost": result.estimated_cost}
        audit = audit_records(database, [record], why=True)
        assert audit.plan_flips == 0
        assert audit.entries[0].why is None

    def test_bad_logged_digest_degrades_to_note(self, database):
        from repro.obs.audit import audit_records

        record = {"query": "//a//b/c", "algorithm": "DPP",
                  "plan": "old", "plan_digest": "scan(99)",
                  "estimated_cost": 1.0}
        audit = audit_records(database, [record], why=True)
        assert audit.plan_flips == 1
        assert "note" in audit.entries[0].why


class TestExplainIntegration:
    def test_explain_plan_space_and_trace_id_in_json(self, database):
        report = database.explain("//a//b/c", plan_space=True,
                                  top_k=2)
        payload = report.to_dict()
        assert "trace_id" in payload
        assert payload["plan_space"]["winner"]["digest"]
        assert len(payload["plan_space"]["alternatives"]) <= 2
        assert "plan space" in report.render()

    def test_explain_analyze_keeps_plan_space(self, database):
        report = database.explain("//a//b/c", analyze=True,
                                  plan_space=True)
        assert report.plan_space is not None
        assert report.to_dict()["trace_id"] == report.trace_id

    def test_explain_without_flag_has_no_plan_space(self, database):
        report = database.explain("//a//b/c")
        assert report.plan_space is None
        assert "plan_space" not in report.to_dict()

    def test_plan_space_report_contains_every_memo_entry(self,
                                                         database):
        pattern = database.compile("//a/b[c]/d")
        recorder = PlanSpaceRecorder()
        result = database.optimize(pattern, algorithm="DP",
                                   planspace=recorder)
        report = build_plan_space_report(recorder)
        assert report.memo_size == result.report.statuses_generated
        assert len(recorder.memo_entries) == report.memo_size


class TestServiceIntegration:
    def test_optimizer_counters_flow_into_registry(self, database):
        from repro.service.service import QueryService

        service = QueryService(database)
        service.query("//a//b/c", algorithm="DPP")
        text = service.export_metrics()
        assert "repro_optimizer_plans_considered_total" in text
        assert 'algorithm="DPP"' in text
        assert "repro_optimizer_memo_hits_total" in text

    def test_planspace_ring_samples_cache_misses(self, database):
        from repro.service.service import QueryService

        service = QueryService(database, planspace_sample=1)
        service.query("//a//b/c", algorithm="DPP")
        service.query("//a//b/c", algorithm="DPP")  # cache hit
        service.query("//b/c", algorithm="DP")
        ring = service.planspace()
        assert len(ring) == 2  # one per miss, none for the hit
        for entry in ring:
            assert entry["winner"]["digest"]
            assert "pruning" in entry

    def test_planspace_ring_empty_without_sampling(self, database):
        from repro.service.service import QueryService

        service = QueryService(database)
        service.query("//a//b/c")
        assert service.planspace() == []


class TestPlanCostBreakdown:
    @pytest.mark.parametrize("algorithm", ("DP", "FP"))
    def test_breakdown_families_sum_to_plan_cost(self, database,
                                                 algorithm):
        pattern = database.compile("//a//b/c")
        result = database.optimize(pattern, algorithm=algorithm)
        context = EnumerationContext(pattern, database.cost_model,
                                     database.estimator)
        breakdown = plan_cost_by_family(result.plan, context)[1]
        assert set(breakdown) == set(FAMILIES)
        assert sum(breakdown.values()) == pytest.approx(
            result.estimated_cost, rel=1e-6)


class TestHealthzEndpoint:
    def test_healthz_and_planspace_routes(self):
        import json as jsonlib
        import urllib.request

        from repro.cli import _open_database, build_parser
        from repro.server import QueryServer, ServerConfig

        arguments = build_parser().parse_args(
            ["serve", "--dataset", "pers", "--nodes", "400",
             "--planspace-sample", "1"])
        database = _open_database(arguments)
        database.service_options.update({"planspace_sample": 1})
        database.query_many(["//manager/name"])

        out = io.StringIO()
        server = QueryServer(database, ServerConfig(port=0), out=out)
        host, port = server.start()
        try:
            with urllib.request.urlopen(
                    f"http://{host}:{port}/healthz",
                    timeout=5.0) as response:
                assert response.status == 200
                health = jsonlib.loads(response.read())
            assert health["status"] == "ok"
            assert health["uptime_seconds"] >= 0.0
            assert "statistics_epoch" in health
            assert health["inflight"] == 0
            with urllib.request.urlopen(
                    f"http://{host}:{port}/planspace",
                    timeout=5.0) as response:
                payload = jsonlib.loads(response.read())
            assert payload["planspace"]
            assert payload["planspace"][0]["winner"]["digest"]
        finally:
            server.stop()
        assert server.exit_code == 0


class TestCLISurface:
    def test_explain_plan_space_flag(self):
        from tests.test_cli import run_cli

        code, output = run_cli(
            "explain", "--dataset", "pers", "--nodes", "400",
            "--plan-space", "--top-k", "2",
            "//manager//employee/name")
        assert code == 0
        assert "plan space for" in output
        assert "winner:" in output

    def test_whatif_verb(self):
        from tests.test_cli import run_cli

        code, output = run_cli(
            "whatif", "--dataset", "pers", "--nodes", "400",
            "--factor", "f_io=64", "--scale", "employee=4",
            "//manager//employee/name")
        assert code == 0
        assert "what-if" in output

    def test_whatif_rejects_bad_factor(self, capsys):
        from tests.test_cli import run_cli

        code, __ = run_cli(
            "whatif", "--dataset", "pers", "--nodes", "400",
            "--factor", "f_warp=9", "//manager/name")
        assert code == 1
        assert "unknown cost factor" in capsys.readouterr().err

    def test_audit_why_flags_perturbed_factors(self, tmp_path):
        from tests.test_cli import run_cli

        log_path = str(tmp_path / "wl.jsonl")
        code, __ = run_cli(
            "log", "--dataset", "pers", "--nodes", "400",
            "--serve", "1", "--output", log_path)
        assert code == 0
        code, output = run_cli(
            "audit", "--dataset", "pers", "--nodes", "400",
            "--log", log_path, "--why",
            "--factor", "f_sort=50", "--factor", "f_io=0.05")
        assert code == 3, "perturbed factors must flip plans"
        assert "diff:" in output
        assert "crossover:" in output
