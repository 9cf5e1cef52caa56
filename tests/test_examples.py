"""Smoke tests: every example script runs end to end.

Examples are part of the public surface; they must not rot.  Each is
executed in-process (patching ``sys.argv`` where the script takes
arguments) with sizes small enough for the test suite.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv: list[str], capsys) -> str:
    script = EXAMPLES / name
    assert script.exists(), f"missing example {name}"
    old_argv = sys.argv
    sys.argv = [str(script)] + argv
    try:
        runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


def test_quickstart(capsys):
    output = run_example("quickstart.py", [], capsys)
    assert "Matches: 2" in output
    assert "Chosen plan" in output


def test_personnel_query(capsys):
    output = run_example("personnel_query.py", ["500"], capsys)
    for algorithm in ("DP", "DPP", "DPAP-EB", "DPAP-LD", "FP", "bad"):
        assert algorithm in output
    assert "Optimal plan" in output


def test_bibliography_search(capsys):
    output = run_example("bibliography_search.py", [], capsys)
    assert "//article/author" in output
    assert "estimator check" in output


def test_storage_tour(capsys):
    output = run_example("storage_tour.py", [], capsys)
    assert "Re-opened" in output
    assert "matches from the reopened" in output


def test_company_analytics(capsys):
    output = run_example("company_analytics.py", [], capsys)
    assert "direct reports" in output
    assert "Time to first result" in output


def test_search_trace(capsys):
    output = run_example("search_trace.py", [], capsys)
    assert "Search process" in output
    assert "deadends avoided" in output
    assert "Chosen plan" in output


@pytest.mark.slow
def test_reproduce_paper_quick(capsys):
    """``python -m benchmarks.reproduce_paper --quick``, in process."""
    old_argv = sys.argv
    sys.argv = ["reproduce_paper", "--quick"]
    try:
        runpy.run_module("benchmarks.reproduce_paper", run_name="__main__")
    finally:
        sys.argv = old_argv
    output = capsys.readouterr().out
    for artifact in ("Table 1", "Table 2", "Table 3", "Figure 7",
                     "Figure 8"):
        assert artifact in output
