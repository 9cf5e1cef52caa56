"""Shared fixtures for the benchmark suite.

Data sets and databases are built once per session; rendered tables are
printed and also written to ``benchmarks/results/`` so a benchmark run
leaves inspectable artifacts (EXPERIMENTS.md quotes them).

Environment knobs:

* ``REPRO_BENCH_FULL=1`` — run the large folding factors too (slower,
  closer to the paper's x1/x10/x100/x500 ramp).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from benchmarks.harness import ExperimentSetup, dataset_database

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"

#: folding factors for Table 3 / Figure 7 (paper: 1/10/100/500)
FOLDINGS = (1, 5, 25, 125) if FULL else (1, 5, 25)
FIGURE7_FOLDING = 50 if FULL else 25


@pytest.fixture(scope="session")
def setup() -> ExperimentSetup:
    return ExperimentSetup()


@pytest.fixture(scope="session")
def pers_db(setup):
    return dataset_database("pers", setup)


@pytest.fixture(scope="session")
def dblp_db(setup):
    return dataset_database("dblp", setup)


@pytest.fixture(scope="session")
def mbench_db(setup):
    return dataset_database("mbench", setup)


def database_for(dataset, setup):
    return dataset_database(dataset, setup)


def publish(name: str, text: str) -> None:
    """Print a rendered experiment table and save it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
