"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``query``    — run an XPath query against an XML file or a generated
  data set, with algorithm selection, plan explanation and metrics.
* ``explain``  — show the plans every algorithm picks for a query.
* ``stats``    — storage and data statistics of a document.
* ``serve``    — the async network front-end: HTTP/JSON queries with
  per-tenant admission control, per-request deadlines, and chunked
  streaming of first results, plus the observability routes on the
  same port.
* ``generate`` — write one of the synthetic benchmark documents as XML.
* ``bench``    — regenerate a paper table or figure.
* ``log``      — run the paper workload with a persistent JSONL query
  log attached (or ``--read`` an existing log back).
* ``calibrate``— fit cost-model factors from a traced query log.
* ``audit``    — replay a query log through the optimizer and flag
  plan flips and cardinality-estimate drift (exit 3 on flips);
  ``--why`` attaches per-flip forensics (structural plan diff plus
  the cost crossover under current statistics).
* ``whatif``   — re-optimize a query (or every logged query) under
  hypothetical cost factors, scaled statistics, or a forced plan,
  without touching the database.
* ``ingest``   — append documents to a durable database directory in
  WAL-logged transactions; ``--crash-after``/``--torn-tail`` inject
  crashes (exit 17) for recovery drills.
* ``checkpoint`` — flush a durable database's pages and truncate its
  write-ahead log.

Query-serving commands accept ``--db DIR`` in place of
``--xml``/``--dataset`` to run against a durable database directory
(crash-recovered on open).

Examples::

    python -m repro query --xml pers.xml "//manager//employee/name"
    python -m repro query --dataset pers --nodes 3000 --algorithm FP \
        --explain "//manager/department/name"
    python -m repro explain --dataset dblp "//article/author"
    python -m repro explain --dataset pers --analyze \
        "//manager//employee/name"
    python -m repro explain --dataset pers --trace "//manager//name"
    python -m repro stats --dataset pers --serve 5 --format prometheus
    python -m repro generate mbench --nodes 2000 --output mbench.xml
    python -m repro bench table2
    python -m repro log --dataset mbench --serve 3 \
        --output query-log.jsonl
    python -m repro calibrate --log query-log.jsonl --json calib.json
    python -m repro audit --dataset mbench --log query-log.jsonl
    python -m repro audit --dataset mbench --log query-log.jsonl --why
    python -m repro explain --dataset pers --plan-space --top-k 5 \
        "//manager//employee/name"
    python -m repro whatif --dataset pers --factor f_io=64 \
        --scale employee=8 "//manager//employee/name"
    python -m repro ingest --db ./persdb --dataset pers --batches 4
    python -m repro audit --db ./persdb --log query-log.jsonl
    python -m repro checkpoint --db ./persdb
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import IO, Iterator, Sequence

from repro.api import Database
from repro.bench.experiments import (figure7, figure8, table1, table2,
                                     table3)
from repro.bench.harness import ExperimentSetup
from repro.document.serialize import write_xml
from repro.errors import ReproError
from repro.target import QueryTarget
from repro.workloads.queries import dataset_document

ALGORITHMS = ("DP", "DPP", "DPP'", "DPAP-EB", "DPAP-LD", "FP")

BENCH_DRIVERS = {
    "table1": lambda setup: table1(setup),
    "table2": lambda setup: table2(setup),
    "table3": lambda setup: table3(setup),
    "figure7": lambda setup: figure7(setup),
    "figure8": lambda setup: figure8(setup),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Structural join order selection for XML queries "
                    "(ICDE 2003 reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_source(sub: argparse.ArgumentParser,
                   required: bool = True,
                   with_db: bool = True) -> None:
        source = sub.add_mutually_exclusive_group(required=required)
        source.add_argument("--xml", metavar="FILE",
                            help="load an XML document from a file")
        source.add_argument("--dataset",
                            choices=("pers", "dblp", "mbench"),
                            help="generate a synthetic data set")
        if with_db:
            source.add_argument("--db", metavar="DIR",
                                help="open a durable database "
                                     "directory (crash-recovered)")
        sub.add_argument("--nodes", type=int, default=2000,
                         help="target size for generated data sets")
        sub.add_argument("--seed", type=int, default=42)

    query = commands.add_parser("query", help="run an XPath query")
    add_source(query)
    query.add_argument("xpath")
    query.add_argument("--algorithm", choices=ALGORITHMS, default="DPP")
    query.add_argument("--explain", action="store_true",
                       help="print the chosen plan")
    query.add_argument("--limit", type=int, default=10,
                       help="result rows to print (0 = none)")
    query.add_argument("--repeat", type=int, default=1,
                       help="serve the query N times through the "
                            "plan-caching service")
    query.add_argument("--workers", type=int, default=1,
                       help="thread-pool width for --repeat batches")
    query.add_argument("--shards", type=int, default=0, metavar="N",
                       help="partition the corpus across N process-"
                            "based shards and scatter-gather the "
                            "query (0 = single node)")
    query.add_argument("--dump-bindings", metavar="FILE", default=None,
                       help="write every result binding as one "
                            "canonical line (sorted, diff-able "
                            "across shard counts)")

    explain = commands.add_parser(
        "explain", help="compare the plans all algorithms pick, or "
                        "EXPLAIN ANALYZE one of them")
    add_source(explain)
    explain.add_argument("xpath")
    explain.add_argument("--analyze", action="store_true",
                         help="execute the chosen plan under tracing "
                              "and annotate it with estimated vs. "
                              "actual rows/cost and per-operator "
                              "Q-error")
    explain.add_argument("--algorithm", choices=ALGORITHMS,
                         default="DPP",
                         help="optimizer for --analyze/--trace/--json "
                              "(without those flags every algorithm "
                              "is compared)")
    explain.add_argument("--trace", action="store_true",
                         help="print the optimizer's search trace "
                              "(DPP-family algorithms only; the "
                              "Example 3.6 narrative)")
    explain.add_argument("--dot", action="store_true",
                         help="with --trace: emit the search graph as "
                              "Graphviz dot instead of the narrative")
    explain.add_argument("--json", metavar="FILE", default=None,
                         help="write the report as JSON, including "
                              "the span tree under --analyze "
                              "('-' for stdout)")
    explain.add_argument("--shards", type=int, default=0, metavar="N",
                         help="with --analyze: execute across N "
                              "process-based shards and report "
                              "per-shard actuals plus statistics "
                              "provenance (0 = single node)")
    explain.add_argument("--plan-space", action="store_true",
                         help="record the optimizer's search space "
                              "and report top-k alternative plans, "
                              "pruning effectiveness, and why the "
                              "winner won")
    explain.add_argument("--top-k", type=int, default=3, metavar="K",
                         help="alternative plans to rank with "
                              "--plan-space (default 3)")

    stats = commands.add_parser(
        "stats", help="document statistics and service metrics")
    add_source(stats)
    stats.add_argument("--format", choices=("table", "json",
                                            "prometheus"),
                       default="table",
                       help="table (default), metrics-registry JSON, "
                            "or the Prometheus text format")
    stats.add_argument("--serve", type=int, default=0, metavar="N",
                       help="first serve the data set's paper workload "
                            "N times through the query service, so "
                            "the metrics are non-trivial")
    stats.add_argument("--shards", type=int, default=0, metavar="N",
                       help="serve against the corpus partitioned "
                            "across N process-based shards, for the "
                            "per-shard series (0 = single node)")

    serve = commands.add_parser(
        "serve", help="serve queries over HTTP/JSON with admission "
                      "control, deadlines and streamed first results")
    add_source(serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8400,
                       help="port to listen on (default 8400; 0 picks "
                            "a free port; exit 2 if taken)")
    serve.add_argument("--workers", type=int, default=4,
                       help="query executor threads (default 4)")
    serve.add_argument("--queue-depth", type=int, default=8,
                       metavar="N",
                       help="admitted requests beyond the workers "
                            "before 429 saturation (default 8)")
    serve.add_argument("--tenant-rate", type=float, default=50.0,
                       metavar="QPS",
                       help="per-tenant token-bucket refill rate "
                            "(default 50/s; 0 disables quotas)")
    serve.add_argument("--tenant-burst", type=float, default=100.0,
                       metavar="N",
                       help="per-tenant burst capacity (default 100)")
    serve.add_argument("--timeout-ms", type=float, default=30000.0,
                       metavar="MS",
                       help="default per-request deadline "
                            "(default 30000 ms)")
    serve.add_argument("--drain-seconds", type=float, default=5.0,
                       metavar="S",
                       help="shutdown budget for in-flight requests "
                            "(default 5 s)")
    serve.add_argument("--algorithm", choices=ALGORITHMS,
                       default="DPP",
                       help="default optimizer for requests that "
                            "name none")
    serve.add_argument("--shards", type=int, default=0, metavar="N",
                       help="serve the corpus partitioned across N "
                            "process-based shards (0 = single node)")
    serve.add_argument("--query-log", metavar="FILE", default=None,
                       help="attach a persistent JSONL query log "
                            "(flushed on drain)")
    serve.add_argument("--trace-sample", type=int, default=0,
                       metavar="K",
                       help="trace every K-th served query into "
                            "/traces (default 0 = only X-Trace-Id "
                            "requests)")
    serve.add_argument("--planspace-sample", type=int, default=0,
                       metavar="K",
                       help="record the plan space of every K-th "
                            "plan-cache miss into /planspace")

    generate = commands.add_parser(
        "generate", help="write a synthetic data set as XML")
    generate.add_argument("dataset", choices=("pers", "dblp", "mbench"))
    generate.add_argument("--nodes", type=int, default=2000)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--output", metavar="FILE", default="-",
                          help="output path ('-' for stdout)")

    bench = commands.add_parser(
        "bench", help="regenerate a paper table or figure (speed "
                      "measurements live in perf/, see perf/README.md)")
    bench.add_argument("artifact", choices=sorted(BENCH_DRIVERS))
    bench.add_argument("--pers-nodes", type=int, default=2000)
    bench.add_argument("--seed", type=int, default=42,
                       help="data-set generation seed (default 42)")

    log_cmd = commands.add_parser(
        "log", help="run the paper workload with a persistent query "
                    "log attached, or summarize an existing log")
    add_source(log_cmd, required=False)
    log_cmd.add_argument("--read", metavar="FILE", default=None,
                         help="summarize an existing query log "
                              "(including rotated segments) instead "
                              "of running a workload")
    log_cmd.add_argument("--serve", type=int, default=3, metavar="N",
                         help="serve the data set's paper workload N "
                              "times (default 3)")
    log_cmd.add_argument("--algorithm", choices=ALGORITHMS,
                         default="DPP")
    log_cmd.add_argument("--output", metavar="FILE",
                         default="query-log.jsonl",
                         help="query-log path (default "
                              "query-log.jsonl)")
    log_cmd.add_argument("--trace-sample", type=int, default=1,
                         metavar="K",
                         help="trace every K-th execution for "
                              "per-operator detail (default 1 = all; "
                              "0 disables tracing)")
    log_cmd.add_argument("--max-bytes", type=int, default=4 << 20,
                         help="rotate the log after this many bytes")
    log_cmd.add_argument("--backups", type=int, default=3,
                         help="rotated segments to keep")

    calibrate = commands.add_parser(
        "calibrate", help="fit cost-model factors from traced query "
                          "logs (non-negative least squares)")
    add_source(calibrate, required=False)
    calibrate.add_argument("--log", metavar="FILE", default=None,
                           help="calibrate from a previously written "
                                "query log instead of serving a "
                                "fresh workload")
    calibrate.add_argument("--serve", type=int, default=3,
                           metavar="N",
                           help="without --log: serve the paper "
                                "workload N times, fully traced")
    calibrate.add_argument("--algorithm", choices=ALGORITHMS,
                           default="DPP")
    calibrate.add_argument("--holdout-every", type=int, default=5,
                           metavar="K",
                           help="hold out every K-th sample for "
                                "scoring (default 5)")
    calibrate.add_argument("--json", metavar="FILE", default=None,
                           help="also write the calibration result "
                                "as JSON ('-' for stdout)")

    audit = commands.add_parser(
        "audit", help="replay a query log through the optimizer under "
                      "current statistics and flag plan flips "
                      "(exit 3) and Q-error drift")
    add_source(audit)
    audit.add_argument("--log", metavar="FILE", required=True,
                       help="query log to replay")
    audit.add_argument("--algorithm", choices=ALGORITHMS, default=None,
                       help="replay with this algorithm instead of "
                            "each record's own")
    audit.add_argument("--json", metavar="FILE", default=None,
                       help="also write the audit report as JSON "
                            "('-' for stdout)")
    audit.add_argument("--why", action="store_true",
                       help="attach forensics to every flip: the "
                            "structural plan diff and the cost "
                            "crossover of the logged plan re-priced "
                            "under current statistics")
    audit.add_argument("--factor", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="replay under these cost-factor "
                            "overrides (deliberate perturbation, "
                            "e.g. for flip drills); repeatable")

    whatif = commands.add_parser(
        "whatif", help="re-optimize a query under hypothetical cost "
                       "factors, scaled statistics, or a forced plan "
                       "(nothing on the database is mutated)")
    add_source(whatif)
    whatif.add_argument("xpath", nargs="?", default=None,
                        help="ad-hoc query (omit with --log to replay "
                             "every distinct logged query)")
    whatif.add_argument("--log", metavar="FILE", default=None,
                        help="replay every distinct query of this "
                             "query log instead of one XPath")
    whatif.add_argument("--algorithm", choices=ALGORITHMS,
                        default="DPP")
    whatif.add_argument("--factor", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="override one cost factor (f_index, "
                             "f_sort, f_io, f_stack); repeatable")
    whatif.add_argument("--scale", action="append", default=[],
                        metavar="TAG=K",
                        help="scale one tag's cardinality statistics "
                             "by K; repeatable")
    whatif.add_argument("--exact", action="store_true",
                        help="price every cluster at its true count "
                             "in the document instead of the path "
                             "summary's estimate")
    whatif.add_argument("--force", metavar="DIGEST", default=None,
                        help="also price this canonical plan digest "
                             "as-if chosen (single query only)")
    whatif.add_argument("--json", metavar="FILE", default=None,
                        help="also write the result(s) as JSON "
                             "('-' for stdout)")

    ingest = commands.add_parser(
        "ingest", help="append documents to a durable database "
                       "directory in WAL-logged transactions (creates "
                       "the directory on first use)")
    ingest.add_argument("--db", metavar="DIR", required=True,
                        help="database directory (pages.db + wal.log)")
    add_source(ingest, with_db=False)
    ingest.add_argument("--batches", type=int, default=1, metavar="N",
                        help="append N copies of the source document, "
                             "one transaction each (default 1; 0 = "
                             "no appends, for pure crash drills)")
    ingest.add_argument("--crash-after", type=int, default=0,
                        metavar="K",
                        help="simulate kill -9: exit 17 without "
                             "cleanup right after the K-th commit")
    ingest.add_argument("--torn-tail", action="store_true",
                        help="after the last batch, commit once more, "
                             "tear the final WAL record, and exit 17 "
                             "(that transaction must vanish on reopen)")
    ingest.add_argument("--checkpoint-every", type=int, default=0,
                        metavar="K",
                        help="checkpoint after every K commits "
                             "(default 0 = never)")

    checkpoint = commands.add_parser(
        "checkpoint", help="flush a durable database's pages and "
                           "truncate its write-ahead log")
    checkpoint.add_argument("--db", metavar="DIR", required=True,
                            help="database directory to checkpoint")
    return parser


def _generated_document(arguments: argparse.Namespace):
    """The synthetic document --dataset / --nodes / --seed name."""
    kwargs = {"seed": arguments.seed}
    if arguments.dataset == "dblp":
        kwargs["entries"] = max(arguments.nodes // 9, 1)
    else:
        kwargs["target_nodes"] = arguments.nodes
    return dataset_document(arguments.dataset, **kwargs)


def _source_document(arguments: argparse.Namespace):
    """Build the document named by --xml/--dataset (for ingestion)."""
    if arguments.xml:
        from repro.document.parser import parse_xml

        with open(arguments.xml, encoding="utf-8") as handle:
            return parse_xml(handle.read(), name=arguments.xml)
    return _generated_document(arguments)


def _open_database(arguments: argparse.Namespace,
                   service_options: dict | None = None) -> Database:
    if getattr(arguments, "db", None):
        from repro.txn.db import open_database

        return open_database(arguments.db,
                             service_options=service_options)
    if arguments.xml:
        with open(arguments.xml, encoding="utf-8") as handle:
            return Database.from_xml(handle.read(), name=arguments.xml,
                                     service_options=service_options)
    if not arguments.dataset:
        raise ReproError(
            "a data source is required: pass --xml FILE, "
            "--dataset NAME, or --db DIR")
    return Database.from_document(_source_document(arguments),
                                  service_options=service_options)


@contextmanager
def _open_target(arguments: argparse.Namespace,
                 service_options: dict | None = None
                 ) -> Iterator[QueryTarget]:
    """The query target the source flags name, closed again on exit.

    A single-node :class:`Database` (every verb opens its data source
    here, so a ``--db`` directory's pages file and write-ahead log
    never outlive the command), or with ``--shards N`` a shard fleet
    over the same corpus.  The fleet persists its own per-shard page
    files, so of a ``--db`` source it needs only the document: the
    source is closed as soon as that is extracted.
    """
    shards = getattr(arguments, "shards", 0)
    if shards < 0:
        raise ReproError("--shards must be >= 0")
    if not shards:
        with _open_database(arguments, service_options) as database:
            yield database
        return
    from repro.shard.sharded import ShardedDatabase

    if arguments.db:
        from repro.txn.db import open_database

        with open_database(arguments.db) as source:
            document = source.document
    else:
        document = _source_document(arguments)
    with ShardedDatabase(document, shards=shards,
                         service_options=service_options) as fleet:
        yield fleet


def _write_service_stats(database: QueryTarget, out: IO[str]) -> None:
    snapshot = database.stats()
    latency = snapshot["latency"]
    cache = snapshot["plan_cache"]
    out.write(f"service: {snapshot['queries']} queries, "
              f"p50 {latency['p50_seconds'] * 1e3:.2f} ms, "
              f"p95 {latency['p95_seconds'] * 1e3:.2f} ms\n")
    out.write(f"plan cache: hit rate {cache['hit_rate']:.2%} "
              f"({cache['hits']} hits / {cache['misses']} misses, "
              f"{cache['size']}/{cache['capacity']} entries)\n")


def _dump_bindings(execution, target: str, out: IO[str]) -> None:
    """Write the canonical binding set, one sorted line per distinct
    binding — byte-identical across engines and shard counts, so CI
    can diff the files directly."""
    lines = sorted(",".join(str(start) for start in key)
                   for key in execution.canonical())
    with open(target, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    out.write(f"wrote {len(lines)} distinct bindings to {target}\n")


def _command_query(arguments: argparse.Namespace, out: IO[str]) -> int:
    if arguments.repeat < 1:
        raise ReproError("--repeat must be at least 1")
    with _open_target(arguments) as database:
        return _run_query(database, arguments, out)


def _run_query(database: QueryTarget, arguments: argparse.Namespace,
               out: IO[str]) -> int:
    suffix = f", {arguments.shards} shards" if arguments.shards else ""
    pattern = database.compile(arguments.xpath)
    if arguments.repeat > 1 or arguments.workers > 1:
        results = database.query_many(
            [pattern] * arguments.repeat,
            algorithm=arguments.algorithm,
            workers=arguments.workers)
        result = results[0]
        execution = result.execution
        out.write(f"{len(execution)} matches "
                  f"({arguments.algorithm} x{arguments.repeat}, "
                  f"{arguments.workers} workers{suffix})\n")
        if arguments.explain:
            out.write(result.explain() + "\n")
        _write_service_stats(database, out)
    else:
        result = database.query(pattern, algorithm=arguments.algorithm)
        execution = result.execution
        report = result.optimization.report
        out.write(f"{len(execution)} matches "
                  f"({arguments.algorithm}: "
                  f"{report.optimization_seconds * 1e3:.2f} ms, "
                  f"{report.alternatives_considered} plans{suffix})\n")
        if arguments.explain:
            out.write(result.explain() + "\n")
    out.write(f"engine: {execution.metrics.summary()}\n")
    if arguments.dump_bindings:
        _dump_bindings(execution, arguments.dump_bindings, out)
    if arguments.limit:
        document = database.document
        node_ids = execution.schema.node_ids
        for row in execution.rows[:arguments.limit]:
            parts = []
            for node_id, label in sorted(zip(node_ids, row)):
                node = document.node(label)
                text = f"={node.text!r}" if node.text else ""
                parts.append(f"${node_id}<{node.tag}>{text}")
            out.write("  " + " ".join(parts) + "\n")
    return 0


def _command_explain(arguments: argparse.Namespace, out: IO[str]) -> int:
    if arguments.top_k < 0:
        raise ReproError("--top-k must be >= 0")
    if arguments.shards and arguments.trace:
        raise ReproError("--trace inspects the single-node "
                         "optimizer; drop --shards")
    if arguments.dot and not arguments.trace:
        raise ReproError("--dot renders the search walk; add --trace")
    with _open_target(arguments) as database:
        return _run_explain(database, arguments, out)


#: search-walk events ``explain --trace`` narrates before eliding.
TRACE_EVENT_LIMIT = 60


def _write_search_trace(database: QueryTarget, pattern, algorithm: str,
                        out: IO[str], dot: bool) -> None:
    """Optimize *pattern* with the search walk recorded and print it
    (``explain --trace``): a heading, the narrative and the chosen
    plan — or only the status graph as Graphviz dot."""
    from repro.core.planspace import PlanSpaceRecorder

    recorder = PlanSpaceRecorder()
    result = database.optimize(pattern, algorithm=algorithm,
                               planspace=recorder)
    if not recorder.events:
        raise ReproError(
            f"--trace needs a DPP-family algorithm "
            f"(DPP, DPP', DPAP-EB, DPAP-LD) and a pattern with a join; "
            f"{algorithm} recorded no search walk here")
    if dot:
        from repro.core.viz import trace_to_dot

        out.write(trace_to_dot(recorder) + "\n")
        return
    out.write(f"=== {algorithm} search trace\n"
              f"{recorder.narrative(limit=TRACE_EVENT_LIMIT)}\n\n")
    out.write(f"chosen plan (estimated {result.estimated_cost:,.0f}):\n")
    out.write(result.explain() + "\n")


def _run_explain(database: QueryTarget, arguments: argparse.Namespace,
                 out: IO[str]) -> int:
    pattern = database.compile(arguments.xpath)
    # a fleet is only worth starting for a report, so --shards implies one
    want_report = bool(arguments.analyze or arguments.json
                       or arguments.plan_space or arguments.shards)
    if arguments.trace:
        _write_search_trace(database, pattern, arguments.algorithm, out,
                            arguments.dot)
        if not want_report:
            return 0
    if want_report:
        report = database.explain(arguments.xpath,
                                  algorithm=arguments.algorithm,
                                  analyze=arguments.analyze,
                                  plan_space=arguments.plan_space,
                                  top_k=arguments.top_k)
        out.write(report.render() + "\n")
        if arguments.json:
            _write_json_payload(report.to_dict(), arguments.json, out)
        return 0
    out.write("Pattern:\n" + pattern.describe() + "\n")
    for algorithm in ALGORITHMS:
        result = database.optimize(pattern, algorithm=algorithm)
        out.write(f"\n=== {algorithm} "
                  f"(estimated {result.estimated_cost:,.0f}, "
                  f"{result.report.alternatives_considered} plans, "
                  f"{result.report.optimization_seconds * 1e3:.2f} ms)\n")
        out.write(result.explain() + "\n")
    return 0


def _serve_paper_workload(database: Database, dataset: str | None,
                          repeats: int,
                          algorithm: str = "DPP") -> int:
    """Run the data set's Table-1 queries *repeats* times through the
    plan-caching service; returns how many queries were served.

    Queries are served as XPath strings (not the hand-built patterns)
    so that what lands in the query log round-trips exactly: the plan
    auditor recompiles the logged string and must see the same
    pattern — including the implicit result-order constraint XPath
    compilation adds — or replays would diff semantically different
    patterns and report phantom flips.
    """
    from repro.workloads.queries import PAPER_QUERIES
    from repro.xpath.render import pattern_to_xpath

    queries = [pattern_to_xpath(query.pattern)
               for query in PAPER_QUERIES.values()
               if dataset is None or query.dataset == dataset]
    if not queries:
        return 0
    database.query_many(queries * repeats, algorithm=algorithm)
    return len(queries) * repeats


def _sampling_service_options(arguments: argparse.Namespace) -> dict:
    """Service options of the serving commands: ``--trace-sample`` /
    ``--planspace-sample`` — the service's 1-in-K clocks are the only
    samplers there are."""
    planspace_sample = getattr(arguments, "planspace_sample", 0)
    if arguments.trace_sample < 0:
        raise ReproError("--trace-sample must be >= 0")
    if planspace_sample < 0:
        raise ReproError("--planspace-sample must be >= 0")
    options: dict = {}
    if arguments.trace_sample:
        options["trace_sample"] = arguments.trace_sample
    if planspace_sample:
        options["planspace_sample"] = planspace_sample
    return options


def _command_stats(arguments: argparse.Namespace, out: IO[str]) -> int:
    with _open_target(arguments) as database:
        return _run_stats(database, arguments, out)


def _run_stats(database: QueryTarget, arguments: argparse.Namespace,
               out: IO[str]) -> int:
    if arguments.serve:
        _serve_paper_workload(database, arguments.dataset,
                              arguments.serve)
    if arguments.format != "table":
        out.write(database.service.export_metrics(arguments.format))
        return 0
    for key, value in database.stats().get("storage", {}).items():
        out.write(f"{key:16s} {value}\n")
    if arguments.serve:
        _write_service_stats(database, out)
    histogram = database.document.tag_histogram()
    out.write("tags:\n")
    for tag in sorted(histogram, key=histogram.get, reverse=True):
        out.write(f"  {tag:16s} {histogram[tag]}\n")
    return 0


def _command_serve(arguments: argparse.Namespace, out: IO[str]) -> int:
    from repro.server import QueryServer, ServerConfig

    if arguments.workers < 1:
        raise ReproError("--workers must be at least 1")
    if arguments.queue_depth < 0:
        raise ReproError("--queue-depth must be >= 0")
    if arguments.timeout_ms <= 0:
        raise ReproError("--timeout-ms must be > 0")
    config = ServerConfig(
        host=arguments.host,
        port=arguments.port,
        workers=arguments.workers,
        queue_depth=arguments.queue_depth,
        tenant_rate=arguments.tenant_rate,
        tenant_burst=arguments.tenant_burst,
        deadline_seconds=arguments.timeout_ms / 1000.0,
        drain_seconds=arguments.drain_seconds,
        algorithm=arguments.algorithm,
    )
    with _open_target(arguments,
                      _sampling_service_options(arguments)) as database:
        if not arguments.query_log:
            return QueryServer(database, config, out=out).run()
        from repro.obs.querylog import QueryLog

        with QueryLog(arguments.query_log) as log:
            database.attach_query_log(log)
            try:
                return QueryServer(database, config, out=out).run()
            finally:
                database.attach_query_log(None)


def _command_generate(arguments: argparse.Namespace,
                      out: IO[str]) -> int:
    document = _generated_document(arguments)
    if arguments.output == "-":
        write_xml(document, out)
    else:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            write_xml(document, handle)
        out.write(f"wrote {len(document)} nodes to "
                  f"{arguments.output}\n")
    return 0


def _command_bench(arguments: argparse.Namespace, out: IO[str]) -> int:
    setup = ExperimentSetup(pers_nodes=arguments.pers_nodes,
                            seed=arguments.seed)
    output = BENCH_DRIVERS[arguments.artifact](setup)
    out.write(output.text + "\n")
    return 0


def _write_json_payload(payload: object, target: str,
                        out: IO[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if target == "-":
        out.write(text)
    else:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
        out.write(f"wrote {target}\n")


def _command_log(arguments: argparse.Namespace, out: IO[str]) -> int:
    from repro.obs.querylog import QueryLog, read_query_log

    if arguments.read:
        scan = read_query_log(arguments.read)
        traced = sum(1 for record in scan.records
                     if record.get("operators"))
        algorithms: dict[str, int] = {}
        for record in scan.records:
            name = str(record.get("algorithm") or "?")
            algorithms[name] = algorithms.get(name, 0) + 1
        out.write(f"{len(scan.records)} records from "
                  f"{len(scan.files)} file(s), {scan.skipped} "
                  f"malformed line(s) skipped, {traced} traced\n")
        for name in sorted(algorithms):
            out.write(f"  {name:10s} {algorithms[name]}\n")
        for record in scan.records[-5:]:
            out.write(f"  {record.get('query', '?')} -> "
                      f"{record.get('rows', '?')} rows in "
                      f"{record.get('wall_seconds', 0.0):.4f}s\n")
        return 0
    with _open_target(arguments, _sampling_service_options(arguments)
                      ) as database, \
            QueryLog(arguments.output, max_bytes=arguments.max_bytes,
                     backups=arguments.backups) as log:
        database.attach_query_log(log)
        served = _serve_paper_workload(database, arguments.dataset,
                                       arguments.serve,
                                       algorithm=arguments.algorithm)
        log.flush()
        out.write(f"served {served} queries "
                  f"({arguments.algorithm}); logged {log.written} "
                  f"records ({log.dropped} dropped) to "
                  f"{arguments.output}\n")
    return 0


def _command_calibrate(arguments: argparse.Namespace,
                       out: IO[str]) -> int:
    from repro.obs.calibrate import calibrate_records
    from repro.obs.querylog import QueryLog, read_query_log

    if arguments.log:
        scan = read_query_log(arguments.log)
        records = scan.records
        if scan.skipped:
            out.write(f"note: skipped {scan.skipped} malformed "
                      f"line(s)\n")
    else:
        if not (arguments.xml or arguments.dataset or arguments.db):
            raise ReproError(
                "calibrate needs --log FILE, or a data source "
                "(--xml/--dataset/--db) to trace a fresh workload")
        with _open_target(arguments, {"trace_sample": 1}) as database, \
                QueryLog(None) as log:
            database.attach_query_log(log)
            _serve_paper_workload(database, arguments.dataset,
                                  arguments.serve,
                                  algorithm=arguments.algorithm)
            records = list(log.records())
    result = calibrate_records(records,
                               holdout_every=arguments.holdout_every)
    out.write(result.render() + "\n")
    if arguments.json:
        _write_json_payload(result.to_dict(), arguments.json, out)
    return 0


def _command_audit(arguments: argparse.Namespace, out: IO[str]) -> int:
    from repro.obs.audit import audit_records
    from repro.obs.querylog import read_query_log

    with _open_target(arguments) as database:
        factors = _whatif_factors(
            database, _parse_kv_floats(arguments.factor, "--factor"))
        if factors is not None:
            database.set_cost_factors(factors)
        scan = read_query_log(arguments.log)
        report = audit_records(database, scan.records,
                               algorithm=arguments.algorithm,
                               registry=database.service.registry,
                               why=arguments.why)
    out.write(report.render() + "\n")
    if arguments.json:
        _write_json_payload(report.to_dict(), arguments.json, out)
    return 3 if report.plan_flips else 0


def _parse_kv_floats(pairs: list[str], flag: str) -> dict[str, float]:
    """``NAME=VALUE`` option lists -> {name: float} (shared parser)."""
    parsed: dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ReproError(f"{flag} expects NAME=VALUE, got {pair!r}")
        try:
            parsed[name] = float(value)
        except ValueError:
            raise ReproError(
                f"{flag} {name}: {value!r} is not a number") from None
    return parsed


def _whatif_factors(database: Database,
                    overrides: dict[str, float]):
    """Current cost factors with the --factor overrides applied."""
    from repro.core.cost import CostFactors

    if not overrides:
        return None
    return CostFactors.from_dict({**database.cost_factors.to_dict(),
                                  **overrides})


def _command_whatif(arguments: argparse.Namespace, out: IO[str]) -> int:
    if bool(arguments.xpath) == bool(arguments.log):
        raise ReproError("whatif needs exactly one of an XPath "
                         "argument or --log FILE")
    with _open_target(arguments) as database:
        return _run_whatif(database, arguments, out)


def _run_whatif(database: QueryTarget, arguments: argparse.Namespace,
                out: IO[str]) -> int:
    factors = _whatif_factors(
        database, _parse_kv_floats(arguments.factor, "--factor"))
    tag_scale = _parse_kv_floats(arguments.scale, "--scale")
    if arguments.log:
        if arguments.force:
            raise ReproError("--force applies to a single query; "
                             "drop --log")
        from repro.obs.querylog import read_query_log

        scan = read_query_log(arguments.log)
        queries: dict[str, None] = {}
        for record in scan.records:
            query = record.get("query")
            if isinstance(query, str) and query:
                queries.setdefault(query)
        targets = list(queries)
    else:
        targets = [arguments.xpath]
    results = []
    flips = 0
    skips: list[str] = []
    for query in targets:
        try:
            result = database.whatif(query,
                                     algorithm=arguments.algorithm,
                                     factors=factors,
                                     tag_scale=tag_scale,
                                     exact=arguments.exact,
                                     force_plan=arguments.force)
        except ReproError as exc:
            # a replayed log may hold queries that no longer compile;
            # the one query asked for by name fails as itself
            if not arguments.log:
                raise
            skips.append(f"{query}: {exc}")
            continue
        results.append(result)
        flips += result.flipped
        out.write(result.render() + "\n")
    if len(targets) > 1 or skips:
        out.write(f"what-if: {len(results)} queries, {flips} "
                  f"flip(s)"
                  + (f", {len(skips)} skipped (first: {skips[0]})"
                     if skips else "")
                  + "\n")
    if arguments.json:
        payload: object = (results[0].to_dict() if len(results) == 1
                           else [r.to_dict() for r in results])
        _write_json_payload(payload, arguments.json, out)
    return 0


CRASH_EXIT_CODE = 17
"""Exit code of the simulated crashes ``ingest`` can inject, chosen to
be distinguishable from real failures (1) and plan flips (3)."""


def _report_recovery(database: Database, out: IO[str]) -> None:
    result = database.transactions.last_recovery
    if result is None:
        return
    torn = (f", torn tail at byte {result.torn_offset}"
            if result.torn_offset is not None else "")
    out.write(f"recovery: {len(result.committed)} committed "
              f"transaction(s) replayed "
              f"({result.replayed_pages} pages), "
              f"{len(result.discarded)} discarded{torn}\n")


def _command_ingest(arguments: argparse.Namespace, out: IO[str]) -> int:
    import os

    from repro.txn.db import (PAGES_FILE, create_database,
                              open_database)

    if arguments.batches < 0:
        raise ReproError("--batches must be >= 0")
    source = _source_document(arguments)
    batches = arguments.batches
    if os.path.exists(os.path.join(arguments.db, PAGES_FILE)):
        database = open_database(arguments.db)
        _report_recovery(database, out)
    else:
        database = create_database(arguments.db, document=source)
        out.write(f"created {arguments.db} with {len(source)} "
                  f"nodes\n")
        batches -= 1
    with database:
        manager = database.transactions
        commits = 0
        for _ in range(batches):
            txn = manager.begin()
            txn.append_document(source)
            result = txn.commit()
            commits += 1
            out.write(f"txn {result.txn_id}: +{result.added} nodes, "
                      f"{result.pages_logged} pages, "
                      f"{result.wal_bytes} B WAL, "
                      f"epoch {result.statistics_epoch}\n")
            if arguments.crash_after and commits >= arguments.crash_after:
                out.write("simulated crash (kill -9) after commit; "
                          "no checkpoint, no cleanup\n")
                out.flush()
                os._exit(CRASH_EXIT_CODE)
            if (arguments.checkpoint_every
                    and commits % arguments.checkpoint_every == 0):
                dropped = database.checkpoint()
                out.write(f"checkpoint: dropped {dropped} WAL bytes\n")
        if arguments.torn_tail:
            txn = manager.begin()
            txn.append_document(source)
            result = txn.commit()
            # Tear into the final COMMIT frame: on reopen this transaction
            # must be discarded as if the crash hit before the fsync.
            manager.wal.truncate(max(0, manager.wal.size - 7))
            out.write(f"tore the WAL tail mid-record; txn "
                      f"{result.txn_id} must vanish on reopen\n")
            out.flush()
            os._exit(CRASH_EXIT_CODE)
        out.write(f"document: {len(database.document)} nodes, "
                  f"{database.disk.page_count} pages, "
                  f"wal {manager.wal.size} bytes, "
                  f"epoch {database.statistics_epoch}\n")
    return 0


def _command_checkpoint(arguments: argparse.Namespace,
                        out: IO[str]) -> int:
    from repro.txn.db import open_database

    with open_database(arguments.db) as database:
        _report_recovery(database, out)
        dropped = database.checkpoint()
        out.write(f"checkpoint: dropped {dropped} WAL bytes; "
                  f"{database.disk.page_count} pages durable, "
                  f"{len(database.document)} nodes\n")
    return 0


_COMMANDS = {
    "query": _command_query,
    "explain": _command_explain,
    "stats": _command_stats,
    "serve": _command_serve,
    "generate": _command_generate,
    "bench": _command_bench,
    "log": _command_log,
    "calibrate": _command_calibrate,
    "audit": _command_audit,
    "whatif": _command_whatif,
    "ingest": _command_ingest,
    "checkpoint": _command_checkpoint,
}


def main(argv: Sequence[str] | None = None,
         out: IO[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return _COMMANDS[arguments.command](arguments, out)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
