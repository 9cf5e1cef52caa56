"""Tests for the command-line interface."""

import io
import json
import os
import subprocess
import sys

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def run_repro(*argv, python=(sys.executable,)):
    """``python -m repro`` as a child process (crash drills call
    ``os._exit``; leak checks need their own interpreter flags)."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    return subprocess.run([*python, "-m", "repro", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


class TestQueryCommand:
    def test_query_generated_dataset(self):
        code, output = run_cli(
            "query", "--dataset", "pers", "--nodes", "400",
            "//manager//employee/name")
        assert code == 0
        assert "matches" in output
        assert "engine:" in output

    def test_query_with_explain(self):
        code, output = run_cli(
            "query", "--dataset", "pers", "--nodes", "400", "--explain",
            "--algorithm", "FP", "//manager/employee")
        assert code == 0
        assert "IndexScan" in output

    def test_query_xml_file(self, tmp_path, personnel_xml):
        path = tmp_path / "pers.xml"
        path.write_text(personnel_xml)
        code, output = run_cli("query", "--xml", str(path),
                               "//manager/name")
        assert code == 0
        assert "matches" in output
        assert "Ada Adams" in output

    def test_limit_zero_hides_rows(self):
        code, output = run_cli(
            "query", "--dataset", "pers", "--nodes", "400",
            "--limit", "0", "//manager/name")
        assert code == 0
        assert "<name>" not in output

    def test_missing_file_is_clean_error(self, capsys):
        code, __ = run_cli("query", "--xml", "/nonexistent.xml", "//a")
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestOtherCommands:
    def test_explain_lists_all_algorithms(self):
        code, output = run_cli("explain", "--dataset", "pers",
                               "--nodes", "400",
                               "//manager//employee/name")
        assert code == 0
        for algorithm in ("DP", "DPP", "DPAP-EB", "DPAP-LD", "FP"):
            assert f"=== {algorithm} " in output

    def test_stats(self):
        code, output = run_cli("stats", "--dataset", "dblp",
                               "--nodes", "300")
        assert code == 0
        assert "nodes" in output
        assert "article" in output

    def test_generate_to_stdout(self):
        code, output = run_cli("generate", "mbench", "--nodes", "60")
        assert code == 0
        assert output.startswith("<?xml")
        assert "<eNest" in output

    def test_generate_to_file_roundtrips(self, tmp_path):
        path = tmp_path / "pers.xml"
        code, output = run_cli("generate", "pers", "--nodes", "200",
                               "--output", str(path))
        assert code == 0
        assert "wrote" in output
        code, output = run_cli("query", "--xml", str(path),
                               "//manager/name")
        assert code == 0

    def test_bench_table2(self):
        code, output = run_cli("bench", "table2", "--pers-nodes", "400")
        assert code == 0
        assert "Table 2" in output
        assert "DPP'" in output

    def test_whatif_exact_plans_on_true_counts(self, tmp_path):
        """``whatif --exact``'s hypothetical plan is DPP's on the true
        counts — on a query (Q.Pers.3.d) where it is not the summary's
        plan, so the what-if flips."""
        from repro import ExactEstimator, compile_xpath, get_optimizer
        from repro.core.plans import canonical_plan_digest
        from repro.workloads.queries import dataset_document

        xpath = ("//manager[.//department[employee]][.//manager[name]]"
                 "//employee/name")
        path = tmp_path / "whatif.json"
        code, output = run_cli("whatif", "--dataset", "pers", "--nodes",
                               "1000", "--exact", "--json", str(path),
                               xpath)
        assert code == 0
        assert "FLIP under the hypothesis" in output
        payload = json.loads(path.read_text())
        pattern = compile_xpath(xpath)
        plan = get_optimizer("DPP").optimize(pattern, ExactEstimator(
            dataset_document("pers", target_nodes=1000, seed=42))).plan
        expected = canonical_plan_digest(plan, pattern)
        assert payload["hypothetical"]["digest"] == expected
        assert payload["baseline"]["digest"] != expected

    def test_bad_xpath_is_clean_error(self, capsys):
        code, __ = run_cli("query", "--dataset", "pers", "--nodes",
                           "300", "//a[")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestTraceCommand:
    def test_narrative(self):
        code, output = run_cli("explain", "--trace", "--dataset", "pers",
                               "--nodes", "300",
                               "//manager//employee/name")
        assert code == 0
        assert "generate" in output
        assert "expand" in output
        assert "chosen plan" in output

    def test_dot_output(self):
        code, output = run_cli("explain", "--trace", "--dot",
                               "--dataset", "pers", "--nodes", "300",
                               "//manager/employee")
        assert code == 0
        assert output.startswith("digraph")

    def test_dot_without_trace_is_an_error(self, capsys):
        code, output = run_cli("explain", "--dot", "--dataset", "pers",
                               "--nodes", "300", "//manager/employee")
        assert code == 1 and output == ""
        assert "add --trace" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm",
                             ["DPP", "DPP'", "DPAP-EB", "DPAP-LD"])
    def test_explain_trace_narrates_the_dpp_family(self, algorithm):
        code, output = run_cli("explain", "--dataset", "pers", "--nodes",
                               "300", "--trace", "--algorithm", algorithm,
                               "//manager//employee/name")
        assert code == 0
        assert f"=== {algorithm} search trace" in output
        assert "generate status0" in output
        assert "chosen plan" in output

    @pytest.mark.parametrize("algorithm", ["DP", "FP"])
    def test_explain_trace_names_an_algorithm_without_a_walk(
            self, algorithm, capsys):
        code, output = run_cli("explain", "--dataset", "pers", "--nodes",
                               "300", "--trace", "--algorithm", algorithm,
                               "//manager//employee/name")
        assert code == 1 and output == ""
        assert (f"{algorithm} recorded no search walk"
                in capsys.readouterr().err)

    def test_explain_trace_does_not_relabel_a_type_error(
            self, monkeypatch):
        """At the parent a non-DPP algorithm was detected by catching
        ``TypeError``, so any real one raised inside ``optimize`` was
        reported as "does not record a search trace"."""
        from repro.core.dpp import DPPOptimizer

        def broken(self, context, report):
            raise TypeError("a real bug")

        monkeypatch.setattr(DPPOptimizer, "_search", broken)
        with pytest.raises(TypeError, match="a real bug"):
            run_cli("explain", "--dataset", "pers", "--nodes", "300",
                    "--trace", "//manager//employee/name")


class TestFeedbackLoopCommands:
    def test_log_calibrate_audit_loop(self, tmp_path):
        log_path = tmp_path / "query-log.jsonl"
        code, output = run_cli(
            "log", "--dataset", "pers", "--nodes", "400",
            "--serve", "2", "--output", str(log_path))
        assert code == 0
        assert "logged 8 records" in output
        assert log_path.exists()

        code, output = run_cli("log", "--read", str(log_path))
        assert code == 0
        assert "8 records" in output
        assert "0 malformed" in output

        json_path = tmp_path / "calibration.json"
        code, output = run_cli(
            "calibrate", "--log", str(log_path),
            "--json", str(json_path))
        assert code == 0
        assert "calibrated cost factors" in output
        assert "improved" in output
        assert json_path.exists()

        code, output = run_cli(
            "audit", "--dataset", "pers", "--nodes", "400",
            "--log", str(log_path))
        assert code == 0
        assert "0 plan flip(s)" in output

    def test_audit_flags_flip_with_exit_3(self, tmp_path):
        log_path = tmp_path / "query-log.jsonl"
        run_cli("log", "--dataset", "pers", "--nodes", "400",
                "--serve", "1", "--output", str(log_path))
        # a different document size changes the statistics the
        # optimizer sees, which is exactly the drift audit exists for;
        # assert only on the exit-code contract (0 or 3, never crash)
        code, output = run_cli(
            "audit", "--dataset", "pers", "--nodes", "2000",
            "--log", str(log_path))
        assert code in (0, 3)
        assert "plan audit:" in output

    def test_audit_exit_3_on_tampered_log(self, tmp_path):
        import json as jsonlib
        log_path = tmp_path / "query-log.jsonl"
        run_cli("log", "--dataset", "pers", "--nodes", "400",
                "--serve", "1", "--output", str(log_path))
        records = [jsonlib.loads(line) for line in
                   log_path.read_text().splitlines()]
        records[0]["plan_digest"] = "tampered"
        log_path.write_text("".join(jsonlib.dumps(r) + "\n"
                                    for r in records))
        code, output = run_cli(
            "audit", "--dataset", "pers", "--nodes", "400",
            "--log", str(log_path))
        assert code == 3
        assert "FLIP" in output

    def test_calibrate_self_contained(self):
        code, output = run_cli(
            "calibrate", "--dataset", "pers", "--nodes", "400",
            "--serve", "2")
        assert code == 0
        assert "calibrated cost factors" in output

    def test_calibrate_without_source_or_log_is_clean_error(
            self, capsys):
        code, __ = run_cli("calibrate")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_log_without_source_or_read_is_clean_error(self, capsys):
        code, __ = run_cli("log")
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestMetricsListener:
    def test_listen_port_in_use_exits_2(self, capsys):
        import socket

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            port = blocker.getsockname()[1]
            code, __ = run_cli(
                "serve", "--dataset", "pers", "--nodes", "400",
                "--port", str(port))
        finally:
            blocker.close()
        assert code == 2
        assert "cannot listen" in capsys.readouterr().err

    def test_listen_serves_metrics_and_shuts_down_cleanly(self):
        import io as iolib
        import urllib.error
        import urllib.request

        from repro.cli import _open_database, build_parser
        from repro.server import QueryServer, ServerConfig

        arguments = build_parser().parse_args(
            ["serve", "--dataset", "pers", "--nodes", "400"])
        database = _open_database(arguments)

        # drive the object ``serve`` constructs, on its
        # background-thread API, and warm it over /query
        out = iolib.StringIO()
        server = QueryServer(database, ServerConfig(port=0), out=out)
        host, port = server.start()
        try:
            urllib.request.urlopen(
                f"http://{host}:{port}/query?xpath=//manager/name",
                timeout=5.0).close()
            with urllib.request.urlopen(
                    f"http://{host}:{port}/metrics",
                    timeout=5.0) as response:
                body = response.read().decode()
            assert "repro_queries_total" in body
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://{host}:{port}/nope", timeout=5.0)
        finally:
            server.stop()
        assert server.exit_code == 0
        text = out.getvalue()
        assert "serving /query, /metrics" in text
        assert "drained:" in text


class TestIngestCommands:
    def test_ingest_creates_then_appends(self, tmp_path):
        db_dir = str(tmp_path / "db")
        code, output = run_cli(
            "ingest", "--db", db_dir, "--dataset", "pers",
            "--nodes", "200", "--batches", "3")
        assert code == 0
        assert "created" in output
        assert "txn 1:" in output and "txn 2:" in output
        code, output = run_cli(
            "query", "--db", db_dir, "//manager//employee/name")
        assert code == 0
        assert "matches" in output

    def test_ingest_reopen_and_checkpoint(self, tmp_path):
        db_dir = str(tmp_path / "db")
        run_cli("ingest", "--db", db_dir, "--dataset", "pers",
                "--nodes", "200", "--batches", "2")
        code, output = run_cli(
            "ingest", "--db", db_dir, "--dataset", "pers",
            "--nodes", "200", "--batches", "2",
            "--checkpoint-every", "1")
        assert code == 0
        assert "recovery:" in output
        assert "checkpoint: dropped" in output
        code, output = run_cli("checkpoint", "--db", db_dir)
        assert code == 0
        assert "pages durable" in output

    def test_ingest_rejects_bad_batches(self, tmp_path):
        code, _ = run_cli("ingest", "--db", str(tmp_path / "db"),
                          "--dataset", "pers", "--batches", "-1")
        assert code == 1

    def test_checkpoint_missing_db(self, tmp_path):
        code, _ = run_cli("checkpoint", "--db",
                          str(tmp_path / "missing"))
        assert code == 1


class TestIngestCrashDrills:
    """The crash flags call os._exit, so they need a subprocess."""

    def test_torn_tail_transaction_vanishes(self, tmp_path):
        db_dir = str(tmp_path / "db")
        proc = run_repro(
            "ingest", "--db", db_dir, "--dataset", "pers",
            "--nodes", "200", "--batches", "2", "--torn-tail")
        assert proc.returncode == 17, proc.stderr
        assert "tore the WAL tail" in proc.stdout
        code, output = run_cli("checkpoint", "--db", db_dir)
        assert code == 0
        assert "1 discarded" in output
        assert "torn tail at byte" in output

    def test_crash_after_commit_is_durable(self, tmp_path):
        db_dir = str(tmp_path / "db")
        proc = run_repro(
            "ingest", "--db", db_dir, "--dataset", "pers",
            "--nodes", "200", "--batches", "4", "--crash-after", "2")
        assert proc.returncode == 17, proc.stderr
        code, output = run_cli("checkpoint", "--db", db_dir)
        assert code == 0
        assert "2 committed transaction(s) replayed" in output


class TestDbVerbsCloseTheirTarget:
    """Every verb that opens ``--db DIR`` closes its pages file and
    write-ahead log again: run under ``-W error::ResourceWarning``, a
    leaked file would be reported on stderr when it is collected."""

    QUERY = "//manager//employee/name"

    @pytest.fixture(scope="class")
    def durable(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("closing")
        db_dir, log_path = str(root / "db"), str(root / "log.jsonl")
        assert run_cli("ingest", "--db", db_dir, "--dataset", "pers",
                       "--nodes", "200", "--batches", "2")[0] == 0
        assert run_cli("log", "--db", db_dir, "--serve", "1",
                       "--output", log_path)[0] == 0
        return db_dir, log_path

    @pytest.mark.parametrize("verb", [
        ("query", QUERY),
        ("query", "--shards", "1", QUERY),
        ("explain", "--analyze", QUERY),
        ("stats", "--serve", "1"),
        ("log", "--serve", "1", "--output", "{log}.again"),
        ("calibrate", "--serve", "1"),
        ("audit", "--log", "{log}"),
        ("whatif", "--factor", "f_io=64", QUERY),
        ("explain", "--trace", QUERY),
        ("ingest", "--dataset", "pers", "--nodes", "200"),
        ("checkpoint",),
    ], ids=lambda verb: "-".join(verb[:2]).replace("/", ""))
    def test_no_file_is_left_open(self, durable, verb):
        db_dir, log_path = durable
        command, *rest = (part.format(log=log_path) for part in verb)
        proc = run_repro(command, "--db", db_dir, *rest,
                              python=(sys.executable, "-W",
                                      "error::ResourceWarning"))
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr, proc.stderr
