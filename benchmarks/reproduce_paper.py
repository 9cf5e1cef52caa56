"""Reproduce every table and figure of the paper's Sec. 4 in one run.

Prints Table 1, Table 2, Table 3, Figure 7 and Figure 8 in the paper's
layout.  ``--full`` uses the larger folding ramp (slower, closer to the
paper's x1/x10/x100/x500); ``--quick`` shrinks the data sets for a fast
smoke run.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.reproduce_paper [--quick | --full]
"""

import argparse
import time

from benchmarks.experiments import (figure7, figure8, table1, table2,
                                    table3)
from benchmarks.harness import ExperimentSetup


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small data sets (fast smoke run)")
    parser.add_argument("--full", action="store_true",
                        help="larger folding ramp (slow)")
    arguments = parser.parse_args()

    if arguments.quick:
        setup = ExperimentSetup(pers_nodes=500, dblp_entries=100,
                                mbench_nodes=600, bad_plan_samples=15)
        foldings = (1, 3, 9)
        figure7_folding = 9
    elif arguments.full:
        setup = ExperimentSetup()
        foldings = (1, 5, 25, 125)
        figure7_folding = 50
    else:
        setup = ExperimentSetup()
        foldings = (1, 5, 25)
        figure7_folding = 25

    experiments = [
        ("Table 1", lambda: table1(setup)),
        ("Table 2", lambda: table2(setup)),
        ("Table 3", lambda: table3(setup, foldings=foldings)),
        ("Figure 7", lambda: figure7(setup, folding=figure7_folding)),
        ("Figure 8", lambda: figure8(setup)),
    ]
    for name, runner in experiments:
        started = time.perf_counter()
        output = runner()
        elapsed = time.perf_counter() - started
        print(output.text)
        print(f"[{name} regenerated in {elapsed:.1f}s]\n")


if __name__ == "__main__":
    main()
