"""Drivers for every table and figure of the paper's Sec. 4.

Each driver returns an :class:`ExperimentOutput` carrying structured
rows (for tests and EXPERIMENTS.md) and an ASCII rendering in the
layout of the corresponding paper artifact.  Times are reported in
milliseconds of wall clock; evaluation work is additionally reported in
*simulated cost* units (the paper's cost model applied to measured
operation counts), which is the currency used to check the paper's
shape claims on a simulator substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from benchmarks.harness import (CellResult, ExperimentSetup,
                                dataset_database, eval_bad_plan, run_cell)
from benchmarks.tables import render_table
from repro.workloads.queries import PAPER_QUERIES, paper_query

#: Table 1 / Table 2 algorithm columns, in the paper's order.
ALGORITHMS = ("DP", "DPP", "DPAP-EB", "DPAP-LD", "FP")
TABLE2_ALGORITHMS = ("DP", "DPP'", "DPP", "DPAP-EB", "DPAP-LD", "FP")

#: The paper folds x1/x10/x100/x500; a pure-Python engine gets the same
#: crossover shape with a gentler ramp by default.
DEFAULT_FOLDINGS = (1, 5, 25)


@dataclass
class ExperimentOutput:
    """Structured result of one experiment driver."""

    name: str
    rows: list[dict[str, object]]
    text: str
    cells: list[CellResult] = field(default_factory=list, repr=False)

    def __str__(self) -> str:
        return self.text


def _eb_options(query_name: str) -> dict[str, object]:
    """Table 1 sets DPAP-EB's T_e to the number of pattern edges."""
    return {"expansion_bound": len(paper_query(query_name).pattern.edges)}


def table1(setup: ExperimentSetup | None = None) -> ExperimentOutput:
    """Table 1: optimization + evaluation time, 8 queries x 5 algorithms
    plus the worst-random "bad plan" column."""
    setup = setup or ExperimentSetup()
    rows: list[dict[str, object]] = []
    cells: list[CellResult] = []
    for query_name, query in PAPER_QUERIES.items():
        database = dataset_database(query.dataset, setup)
        row: dict[str, object] = {"query": query_name}
        for algorithm in ALGORITHMS:
            options = (_eb_options(query_name)
                       if algorithm == "DPAP-EB" else {})
            cell = run_cell(database, query, algorithm, **options)
            cells.append(cell)
            row[f"{algorithm}.opt_ms"] = cell.opt_seconds * 1e3
            row[f"{algorithm}.eval_ms"] = cell.eval_seconds * 1e3
            row[f"{algorithm}.eval_sim"] = cell.eval_simulated
        bad = eval_bad_plan(database, query,
                            samples=setup.bad_plan_samples)
        cells.append(bad)
        row["bad.eval_ms"] = bad.eval_seconds * 1e3
        row["bad.eval_sim"] = bad.eval_simulated
        row["results"] = bad.result_count
        rows.append(row)

    headers = ["Query"]
    for algorithm in ALGORITHMS:
        headers += [f"{algorithm} opt(ms)", f"{algorithm} eval(sim)"]
    headers.append("Bad eval(sim)")
    table_rows = []
    for row in rows:
        cells_out: list[object] = [row["query"]]
        for algorithm in ALGORITHMS:
            cells_out.append(row[f"{algorithm}.opt_ms"])
            cells_out.append(row[f"{algorithm}.eval_sim"])
        cells_out.append(row["bad.eval_sim"])
        table_rows.append(cells_out)
    text = render_table(
        "Table 1: Query Optimization and Query Plan Evaluation",
        headers, table_rows,
        note=("opt(ms) = optimizer wall time; eval(sim) = measured "
              "engine work in cost-model units (paper reports seconds "
              "on 2003 hardware)."))
    return ExperimentOutput("table1", rows, text, cells)


def table2(setup: ExperimentSetup | None = None,
           query_name: str = "Q.Pers.3.d") -> ExperimentOutput:
    """Table 2: optimization time and number of plans considered for one
    query across all six algorithm variants (incl. DPP')."""
    setup = setup or ExperimentSetup()
    query = paper_query(query_name)
    database = dataset_database(query.dataset, setup)
    rows: list[dict[str, object]] = []
    cells: list[CellResult] = []
    for algorithm in TABLE2_ALGORITHMS:
        options = _eb_options(query_name) if algorithm == "DPAP-EB" else {}
        cell = run_cell(database, query, algorithm, **options)
        cells.append(cell)
        rows.append({
            "algorithm": algorithm,
            "opt_ms": cell.opt_seconds * 1e3,
            "plans": cell.alternatives_considered,
            "moves": cell.plans_considered,
            "eval_sim": cell.eval_simulated,
        })
    text = render_table(
        f"Table 2: Optimization Time and Plans Considered ({query_name})",
        ["Algorithm", "OpTime(ms)", "# of Plans", "eval(sim)"],
        [[row["algorithm"], row["opt_ms"], row["plans"], row["eval_sim"]]
         for row in rows],
        note="Paper shape: DP > DPP' > DPP > DPAP-EB > DPAP-LD > FP.")
    return ExperimentOutput("table2", rows, text, cells)


def table3(setup: ExperimentSetup | None = None,
           query_name: str = "Q.Pers.3.d",
           foldings: tuple[int, ...] = DEFAULT_FOLDINGS) -> ExperimentOutput:
    """Table 3: plan evaluation cost vs. folding factor."""
    setup = setup or ExperimentSetup()
    query = paper_query(query_name)
    rows: list[dict[str, object]] = []
    cells: list[CellResult] = []
    per_algorithm: dict[str, dict[int, float]] = {
        algorithm: {} for algorithm in ALGORITHMS}
    per_algorithm["bad"] = {}
    for folding in foldings:
        database = dataset_database(query.dataset, setup, folding=folding)
        for algorithm in ALGORITHMS:
            options = (_eb_options(query_name)
                       if algorithm == "DPAP-EB" else {})
            cell = run_cell(database, query, algorithm, **options)
            cells.append(cell)
            per_algorithm[algorithm][folding] = cell.eval_simulated
            rows.append({"algorithm": algorithm, "folding": folding,
                         "eval_sim": cell.eval_simulated,
                         "eval_ms": cell.eval_seconds * 1e3,
                         "opt_ms": cell.opt_seconds * 1e3,
                         "fully_pipelined": cell.fully_pipelined,
                         "left_deep": cell.left_deep})
        bad = eval_bad_plan(database, query,
                            samples=setup.bad_plan_samples)
        cells.append(bad)
        per_algorithm["bad"][folding] = bad.eval_simulated
        rows.append({"algorithm": "bad", "folding": folding,
                     "eval_sim": bad.eval_simulated,
                     "eval_ms": bad.eval_seconds * 1e3,
                     "opt_ms": bad.opt_seconds * 1e3,
                     "fully_pipelined": bad.fully_pipelined,
                     "left_deep": bad.left_deep})
    table_rows = [
        [algorithm] + [per_algorithm[algorithm][folding]
                       for folding in foldings]
        for algorithm in (*ALGORITHMS, "bad")]
    text = render_table(
        f"Table 3: Data Size vs Plan Evaluation Cost ({query_name})",
        ["Algorithm"] + [f"x{folding}" for folding in foldings],
        table_rows,
        note=("eval(sim) per folding factor.  Paper shape: optimizer "
              "times stay flat; DPAP-LD's gap vs optimal widens with "
              "data size; FP converges to the optimum."))
    return ExperimentOutput("table3", rows, text, cells)


def _te_sweep(name: str, setup: ExperimentSetup, query_name: str,
              folding: int) -> ExperimentOutput:
    """Shared driver for Figures 7 and 8: DPAP-EB T_e sweep plus the
    fixed algorithms, reporting opt + eval components."""
    query = paper_query(query_name)
    database = dataset_database(query.dataset, setup, folding=folding)
    rows: list[dict[str, object]] = []
    cells: list[CellResult] = []
    node_count = len(query.pattern)
    for bound in range(1, node_count + 1):
        cell = run_cell(database, query, "DPAP-EB",
                        expansion_bound=bound)
        cells.append(cell)
        rows.append({"series": f"DPAP-EB({bound})",
                     "opt_ms": cell.opt_seconds * 1e3,
                     "eval_sim": cell.eval_simulated,
                     "eval_ms": cell.eval_seconds * 1e3,
                     "plans": cell.plans_considered})
    for algorithm in ("DP", "DPP", "DPAP-LD", "FP"):
        cell = run_cell(database, query, algorithm)
        cells.append(cell)
        rows.append({"series": algorithm,
                     "opt_ms": cell.opt_seconds * 1e3,
                     "eval_sim": cell.eval_simulated,
                     "eval_ms": cell.eval_seconds * 1e3,
                     "plans": cell.plans_considered})
    from benchmarks.plots import render_stacked_bars

    text = render_table(
        f"{name}: T_e sweep for {query_name}, folding x{folding}",
        ["Series", "Opt(ms)", "Eval(sim)", "Eval(ms)", "Plans"],
        [[row["series"], row["opt_ms"], row["eval_sim"], row["eval_ms"],
          row["plans"]] for row in rows],
        note=("Total query evaluation = optimization + plan execution; "
              "the paper's Figures 7/8 stack the two components."))
    chart = render_stacked_bars(
        f"{name} (stacked: total query evaluation time, ms)",
        [row["series"] for row in rows],
        [("optimization", [row["opt_ms"] for row in rows]),
         ("plan execution", [row["eval_ms"] for row in rows])],
        unit=" ms")
    return ExperimentOutput(name.lower().replace(" ", ""), rows,
                            text + "\n\n" + chart, cells)


def figure7(setup: ExperimentSetup | None = None,
            query_name: str = "Q.Pers.3.d",
            folding: int = 25) -> ExperimentOutput:
    """Figure 7: T_e sweep on the large (folded) data set — plan quality
    dominates, DPP is the safe choice."""
    return _te_sweep("Figure 7", setup or ExperimentSetup(), query_name,
                     folding)


def figure8(setup: ExperimentSetup | None = None,
            query_name: str = "Q.Pers.3.d") -> ExperimentOutput:
    """Figure 8: same sweep on the base data set — optimization time is
    a significant share, FP wins overall."""
    return _te_sweep("Figure 8", setup or ExperimentSetup(), query_name,
                     folding=1)
