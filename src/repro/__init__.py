"""repro — Structural Join Order Selection for XML Query Optimization.

A from-scratch reproduction of Wu, Patel & Jagadish (ICDE 2003): a
native-XML-database substrate (region-encoded documents, paged storage,
tag indexes, stack-tree structural joins, cardinality estimation on
a label-path summary and on the paper's positional histograms) plus the paper's contribution — five
cost-based structural join order selection algorithms (DP, DPP,
DPAP-EB, DPAP-LD, FP).

Quick start::

    from repro import Database

    db = Database.from_xml("<a><b><c/></b></a>")
    result = db.query("//a//b/c", algorithm="DPP")
    print(result.explain())
    print(len(result), "matches")
"""

from repro.api import Database, QueryResult
from repro.core import (Axis, CostFactors, CostModel, DPOptimizer,
                        DPPOptimizer, DPAPEBOptimizer, DPAPLDOptimizer,
                        FPOptimizer, JoinAlgorithm, OptimizationResult,
                        PatternNode, Predicate, QueryPattern,
                        get_optimizer, optimizer_names)
from repro.core.pattern import PatternBuilder
from repro.document import DocumentBuilder, XmlDocument, parse_xml, serialize
from repro.engine import ExecutionResult
from repro.errors import ReproError
from repro.estimation import ExactEstimator, PositionalEstimator
from repro.service import PlanCache, QueryService
from repro.xpath import compile_xpath

__version__ = "1.0.0"

__all__ = [
    "Database",
    "QueryResult",
    "Axis",
    "CostFactors",
    "CostModel",
    "DPOptimizer",
    "DPPOptimizer",
    "DPAPEBOptimizer",
    "DPAPLDOptimizer",
    "FPOptimizer",
    "JoinAlgorithm",
    "OptimizationResult",
    "PatternBuilder",
    "PatternNode",
    "Predicate",
    "QueryPattern",
    "get_optimizer",
    "optimizer_names",
    "DocumentBuilder",
    "XmlDocument",
    "parse_xml",
    "serialize",
    "ExecutionResult",
    "ReproError",
    "ExactEstimator",
    "PositionalEstimator",
    "PlanCache",
    "QueryService",
    "compile_xpath",
    "__version__",
]
