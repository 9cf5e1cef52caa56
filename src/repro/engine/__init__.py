"""Physical execution engine.

Volcano-style iterator operators over streams of pattern-match tuples:
index scans feed Stack-Tree structural joins, with blocking sorts
inserted where a plan demands a re-ordering.  Every operator reports
its work (index items, stack operations, buffered results, sorted
items) into a shared :class:`~repro.engine.metrics.ExecutionMetrics`,
which converts the counts into *simulated seconds* using the same cost
factors the optimizer plans with.
"""

from repro.engine.metrics import ExecutionMetrics
from repro.engine.tuples import MatchTuple, Schema
from repro.engine.blocks import BlockOperator, ColumnGroups, TupleBlock
from repro.engine.executor import (ENGINE_NAMES, EngineContext,
                                   ExecutionResult, Executor,
                                   FirstResultTiming, StreamingExecution,
                                   measure_time_to_first, validate_engine)
from repro.engine.nestedloop import (naive_pattern_matches,
                                     navigational_matches)
from repro.engine.twigstack import TwigStackMatcher, holistic_matches
from repro.engine.valuejoin import (ValueJoin, ValueJoinResult,
                                    group_counts, group_matches)

__all__ = [
    "StreamingExecution",
    "measure_time_to_first",
    "TwigStackMatcher",
    "holistic_matches",
    "ValueJoin",
    "ValueJoinResult",
    "group_counts",
    "group_matches",
    "FirstResultTiming",
    "ExecutionMetrics",
    "MatchTuple",
    "Schema",
    "ExecutionResult",
    "Executor",
    "EngineContext",
    "ENGINE_NAMES",
    "validate_engine",
    "BlockOperator",
    "ColumnGroups",
    "TupleBlock",
    "naive_pattern_matches",
    "navigational_matches",
]
