"""The engine is not a request parameter.

A request says what to match; how it is run is the optimizer's choice.
So nothing request- or deployment-shaped — a back end's constructor,
``query`` / ``query_many`` / ``explain``, the query service, the HTTP
request, the CLI — takes an ``engine``, and the plan-level calls (what
the differential oracles, the Sec. 3.4 experiment and the benchmark
ladder use to reach the reference iterators) spell it one way.
"""

import asyncio
import dataclasses
import inspect
import io

import pytest

from repro.api import Database
from repro.cli import build_parser
from repro.engine.executor import Executor
from repro.obs.explain import ExplainReport
from repro.server import QueryServer, ServerConfig, app, fetch
from repro.service.service import QueryService
from repro.shard.coordinator import ShardWorkerPool
from repro.shard.sharded import ShardedDatabase
from repro.storage.disk import FileDisk
from repro.target import QueryTarget
from repro.workloads import personnel_document

REQUEST_SHAPED = [
    back_end_call
    for back_end in (QueryTarget, Database, ShardedDatabase)
    for back_end_call in (back_end.__init__, back_end.query,
                          back_end.query_many, back_end.explain)
] + [QueryService.__init__, QueryService.stream, QueryService.query,
     QueryService.query_many, QueryService.observe_served_query,
     Executor.__init__, ShardWorkerPool.__init__, FileDisk.__init__]

PLAN_SHAPED = [QueryTarget.execute, QueryTarget.stream_execute,
               Database.stream_execute, ShardedDatabase.stream_execute,
               Executor.stream, Executor.build, Executor.execute]

#: selectors with one value in use, now constants
GONE = {"engine", "start_method", "mmap_reads"}


def parameters(function):
    return inspect.signature(function).parameters


def test_no_request_or_deployment_call_names_an_engine():
    for function in REQUEST_SHAPED:
        assert not GONE & set(parameters(function)), function
    for record in (ExplainReport, app._QueryParams):
        assert "engine" not in {field.name for field
                                in dataclasses.fields(record)}, record


def test_plan_level_calls_spell_it_one_way():
    for function in PLAN_SHAPED:
        assert parameters(function)["engine"].default == "block", \
            function
    assert inspect.signature(Database.stream_execute) \
        == inspect.signature(ShardedDatabase.stream_execute) \
        == inspect.signature(QueryTarget.stream_execute)


@pytest.mark.parametrize("argv", [
    ["query", "--dataset", "pers", "--engine", "tuple", "//a"],
    ["explain", "--dataset", "pers", "--engine", "tuple", "//a"],
    ["query", "--dataset", "pers", "--holistic", "//a"],
    ["stats", "--dataset", "pers", "--listen", "9321"],
], ids=lambda argv: f"{argv[0]}{argv[3]}")
def test_the_cli_has_no_such_flag(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_an_engine_key_in_a_request_is_ignored_like_any_unknown_key():
    database = Database.from_document(
        personnel_document(target_nodes=400, seed=42))
    server = QueryServer(database, ServerConfig(port=0),
                         out=io.StringIO())
    host, port = server.start()
    try:
        bodies = {}
        for key in ("", "&engine=tuple", "&engine=vector&frobnicate=1"):
            response = asyncio.run(fetch(
                host, port, "GET",
                f"/query?xpath=//employee//name{key}",
                headers={"X-Trace-Id": f"surface{len(bodies)}"}))
            assert response.status == 200
            bodies[key] = response.json()["bindings"]
        traces = asyncio.run(fetch(host, port, "GET",
                                   "/traces")).json()["traces"]
    finally:
        server.stop()
    assert bodies[""] and len({str(rows)
                               for rows in bodies.values()}) == 1
    assert [trace["trace_id"] for trace in traces] \
        == ["surface0", "surface1", "surface2"]
    for trace in traces:
        names, stack = set(), [trace]
        while stack:
            span = stack.pop()
            names.add(span["name"])
            stack.extend(span["children"])
        assert "BlockIndexScan" in names
        assert all(name.startswith("Block") for name in names), names
