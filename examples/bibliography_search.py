#!/usr/bin/env python3
"""Bibliography search: XPath with value predicates on DBLP-like data.

Shows the front-to-back flow a user of the library sees: generate a
shallow/wide bibliography, pose XPath queries with attribute and text
predicates, and inspect how the label-path summary estimator sized
the intermediate results against what actually came out.

Run:  python examples/bibliography_search.py
"""

from repro import Database, ExactEstimator
from repro.workloads import dblp_document

QUERIES = [
    "//article/author",
    "//inproceedings[@year >= '2000']/title",
    "//article[author = 'Ada Adams']/title",
    "//inproceedings[cite/label]/author",
    "//dblp/article[title and year]/author",
]


def main() -> None:
    document = dblp_document(entries=400)
    database = Database.from_document(document)
    print(f"Bibliography: {len(document)} nodes, "
          f"{document.tag_count('article')} articles, "
          f"{document.tag_count('inproceedings')} inproceedings\n")

    for xpath in QUERIES:
        pattern = database.compile(xpath)
        optimization = database.optimize(pattern, algorithm="DPP")
        execution = database.execute(optimization.plan, pattern)
        estimated = optimization.plan.estimated_cardinality
        print(f"{xpath}")
        print(f"  matches: {len(execution):6d}   "
              f"estimated: {estimated:10.1f}   "
              f"joins: {optimization.plan.join_count()}   "
              f"opt: {optimization.report.optimization_seconds * 1e3:.2f} ms")

        # show a couple of result titles/authors
        result_node = pattern.order_by
        position = execution.schema.position(result_node)
        for row in execution.tuples[:3]:
            node = document.node(row[position].start)
            print(f"    -> <{node.tag}> {node.text}")
        print()

    # estimator introspection: the summary's join size vs the true count
    pattern = database.compile("//article/author")
    approx = database.estimator.edge_cardinality(pattern, 0, 1)
    exact = ExactEstimator(document).edge_cardinality(pattern, 0, 1)
    print(f"estimator check on article/author: "
          f"summary={approx:.1f} exact={exact:.0f}")


if __name__ == "__main__":
    main()
