"""A/A check: the same code against itself, by the driver's own rule.

For every workload, ``--sets`` sets of ``--runs`` untraced runs, each
run with a seed of its own.  Per end-to-end metric it prints each
set's median, the set's spread — the distance between the first and
third quartile of its runs (``statistics.quantiles(values, n=4)``) as a
share of their median — and the metric's bound from ``BENCHMARK.json``.
Exits non-zero when a spread other than ``setup_s``'s exceeds its
bound, when a later set's median is worse than the first's by more
than the bound, or when a run fails an operation.

The default (2 sets of 4 runs) is a smoke check; ``--runs 10`` is what
the driver does and what a claim needs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def one_run(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if done.returncode:
        raise SystemExit(f"aa: {workload} seed {seed} exited with "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=4)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workload", action="append",
                        help="only this workload (repeatable)")
    arguments = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    seconds = arguments.seconds or float(manifest["run_seconds"])
    names = arguments.workload or [w["name"]
                                   for w in manifest["workloads"]]
    violations = 0
    for workload in names:
        sets: list[dict[str, list[float]]] = []
        for index in range(arguments.sets):
            values: dict[str, list[float]] = {}
            for run in range(arguments.runs):
                seed = arguments.seed + index * arguments.runs + run
                result = one_run(workload, seed, seconds)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: "
                          f"{result['failed']} operations failed")
                    violations += 1
                for key, metric in result["metrics"].items():
                    values.setdefault(key, []).append(metric["value"])
            sets.append(values)
        for metric in manifest["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            medians = [statistics.median(s[key]) for s in sets]
            spreads = [spread(s[key]) for s in sets]
            drift = max((sign * (m - medians[0]) / medians[0]
                         for m in medians[1:]), default=0.0)
            bad = drift > bound or (key != "setup_s"
                                    and max(spreads) > bound)
            violations += bad
            print(f"{workload:15s} {key:15s} "
                  f"medians {' '.join(f'{m:11.4f}' for m in medians)} "
                  f"{metric['unit']:4s} "
                  f"spread {' '.join(f'{s:.3f}' for s in spreads)} "
                  f"worse by {drift:+.3f} bound {bound:.2f}"
                  f"{'  VIOLATION' if bad else ''}", flush=True)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
