"""Every optimizer decision, pinned bit for bit.

A cell is one pattern, one statistics source and one algorithm; the
fixture ``tests/data/optimizer_pins.json`` holds, per cell, the
``repr`` of the estimated cost, the report's six work counters and the
chosen plan's signature.  A change that makes the search cheaper per
plan considered must reproduce every cell exactly — the same plan, the
same cost to the last bit, the same statuses generated, expanded and
pruned — because the heap's tie-breaker, DP's first-found rule and the
Pruning Rule all see those numbers.

Three pools:

* the eight paper queries (Table 1) on their default data sets, under
  all six algorithm names;
* ``optimize_heavy``'s pool — 16 random patterns of each size 6-9 over
  the Pers tags, the ladder's five algorithms, DP up to 8 nodes — so
  the per-algorithm sums are the ladder's ``core.plans_considered.*``;
* seeded 6-8-node random patterns with predicates on a random
  document, under the database's estimator and under
  :class:`~repro.estimation.estimator.ExactEstimator`'s true counts.

Every pool but the exact one plans on the label-path summary; the
``histogram`` pool keeps the name it had when the database's estimator
was the histograms alone.

The fixture is written by running this module as a script::

    PYTHONPATH=src python tests/test_optimizer_pins.py --write
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from repro.api import Database
from repro.core.optimizer import get_optimizer
from repro.estimation.estimator import ExactEstimator
from repro.workloads import personnel_document, random_pattern
from repro.workloads.queries import PAPER_QUERIES, dataset_document

FIXTURE = Path(__file__).parent / "data" / "optimizer_pins.json"

ALL_ALGORITHMS = ("DP", "DPP", "DPP'", "DPAP-EB", "DPAP-LD", "FP")
#: the ``optimize_heavy`` grid (perf/workloads/optimize_heavy.py)
LADDER_ALGORITHMS = ("DP", "DPP", "DPAP-EB", "DPAP-LD", "FP")
HEAVY_SIZES = (6, 7, 8, 9)
HEAVY_PER_SIZE = 16
#: full DP enumerates every status; 9 nodes costs seconds
DP_MAX_NODES = 8
#: one pass of ``optimize_heavy`` costs this many plans per algorithm
LADDER_PLANS_CONSIDERED = {"DP": 100_462, "DPP": 46_935,
                           "DPAP-EB": 18_388, "DPAP-LD": 31_393,
                           "FP": 1_897}
RANDOM_SIZES = (6, 7, 8)
RANDOM_SEEDS = range(12)


def _pin(database, pattern, algorithm, estimator=None) -> list:
    result = get_optimizer(algorithm, cost_model=database.cost_model
                           ).optimize(pattern, estimator or database.estimator)
    report = result.report
    return [repr(result.estimated_cost), report.plans_considered,
            report.statuses_generated, report.statuses_expanded,
            report.statuses_pruned, report.memo_hits,
            report.deadends_avoided, result.plan.signature()]


def paper_cells() -> dict[str, list]:
    databases = {dataset: Database.from_document(dataset_document(dataset))
                 for dataset in ("mbench", "dblp", "pers")}
    return {f"{name}/{algorithm}": _pin(databases[query.dataset],
                                        query.pattern, algorithm)
            for name, query in PAPER_QUERIES.items()
            for algorithm in ALL_ALGORITHMS}


def heavy_cells() -> dict[str, list]:
    document = personnel_document(target_nodes=2000, seed=42)
    tags = tuple(sorted(document.tags()))
    rng = random.Random(42)
    patterns = [random_pattern(rng, tags=tags, min_nodes=size,
                               max_nodes=size)
                for size in HEAVY_SIZES for _ in range(HEAVY_PER_SIZE)]
    database = Database.from_document(document)
    return {f"heavy{index}/{algorithm}": _pin(database, pattern, algorithm)
            for index, pattern in enumerate(patterns)
            for algorithm in LADDER_ALGORITHMS
            if algorithm != "DP" or len(pattern) <= DP_MAX_NODES}


def random_cells(exact: bool) -> dict[str, list]:
    from tests.conftest import random_document

    database = Database.from_document(random_document(7, size=400))
    statistics = "exact" if exact else "histogram"
    estimator = ExactEstimator(database.document) if exact else None
    cells = {}
    for size in RANDOM_SIZES:
        for seed in RANDOM_SEEDS:
            pattern = random_pattern(random.Random(seed), min_nodes=size,
                                     max_nodes=size, predicate_chance=0.3)
            for algorithm in ALL_ALGORITHMS:
                cells[f"random{size}.{seed}/{statistics}/{algorithm}"] = (
                    _pin(database, pattern, algorithm, estimator))
    return cells


POOLS = {
    "paper": paper_cells,
    "heavy": heavy_cells,
    "random-histogram": lambda: random_cells(exact=False),
    "random-exact": lambda: random_cells(exact=True),
}


@pytest.fixture(scope="module")
def pinned() -> dict[str, dict[str, list]]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("pool", POOLS)
def test_every_cell_is_bit_identical(pool, pinned):
    expected = pinned[pool]
    actual = POOLS[pool]()
    assert actual.keys() == expected.keys()
    moved = {cell: (expected[cell], actual[cell]) for cell in expected
             if actual[cell] != expected[cell]}
    assert not moved, f"{len(moved)} cell(s) moved, e.g. " \
        f"{next(iter(moved.items()))}"


def test_heavy_pool_sums_are_the_ladders_plan_counts(pinned):
    sums = {algorithm: sum(pin[1] for cell, pin in pinned["heavy"].items()
                           if cell.endswith(f"/{algorithm}"))
            for algorithm in LADDER_ALGORITHMS}
    assert sums == LADDER_PLANS_CONSIDERED


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python "
                 "tests/test_optimizer_pins.py --write")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    FIXTURE.parent.mkdir(exist_ok=True)
    # one cell per line, so a moved cell is a one-line diff
    FIXTURE.write_text("{\n" + ",\n".join(
        json.dumps(pool) + ": {\n" + ",\n".join(
            f"{json.dumps(cell)}: {json.dumps(pin)}"
            for cell, pin in sorted(cells().items())) + "\n}"
        for pool, cells in POOLS.items()) + "\n}\n")
    print(f"wrote {FIXTURE}")
