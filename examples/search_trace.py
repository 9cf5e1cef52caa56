#!/usr/bin/env python3
"""Watch DPP optimize — the paper's Example 3.6 / Fig. 4, live.

Attaches a PlanSpaceRecorder to the DPP optimizer and prints the
optimization process for a 4-node pattern: which statuses get
generated (numbered in generation order, as in Fig. 4), which are
expanded by the Cost+ubCost priority, which deadends the Lookahead
Rule refuses to create, and where pruning kills the rest.  Every
cluster is priced at its true count in the document.

Run:  python examples/search_trace.py
"""

from repro import DPPOptimizer, QueryPattern
from repro.core.planspace import PlanSpaceRecorder
from repro.estimation.estimator import ExactEstimator
from repro.workloads import personnel_document


def main() -> None:
    document = personnel_document(target_nodes=800)

    # a 4-node pattern like the paper's Fig. 4 walk-through
    pattern = QueryPattern.build({
        "nodes": ["manager", "employee", "name", "department"],
        "edges": [(0, 1, "//"), (1, 2, "/"), (0, 3, "//")],
    })
    print("Pattern:")
    print(pattern.describe())

    trace = PlanSpaceRecorder()
    optimizer = DPPOptimizer(planspace=trace)
    result = optimizer.optimize(pattern, ExactEstimator(document))

    print(f"\nSearch process ({trace.status_count()} statuses, "
          f"{len(trace.events)} events):\n")
    print(trace.narrative())

    print("\nSummary:")
    print(f"  generated: {len(trace.events_of_kind('generate'))}")
    print(f"  expanded:  {len(trace.events_of_kind('expand'))}")
    print(f"  deadends avoided by lookahead: "
          f"{len(trace.events_of_kind('deadend'))}")
    print(f"  pruned:    {len(trace.events_of_kind('prune'))}")
    print(f"  final statuses reached: "
          f"{len(trace.events_of_kind('final'))}")

    print(f"\nChosen plan (estimated {result.estimated_cost:,.0f}):")
    print(result.explain())


if __name__ == "__main__":
    main()
