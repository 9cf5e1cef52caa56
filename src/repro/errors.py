"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single type at the API boundary.  Subsystems raise
the more specific subclasses below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class DocumentError(ReproError):
    """A document is malformed or an operation on it is invalid."""


class PostingMismatchError(DocumentError):
    """A document's nodes of one tag are not the tag index's posting
    list for that tag (another length, or another start at some
    position).

    Raised instead of reading a node or a parent label off the wrong
    posting: a query over such a pair would pair or filter silently
    wrong."""


class XmlParseError(DocumentError):
    """Raised by the XML parser on malformed input.

    Attributes
    ----------
    line, column:
        1-based position of the offending input, when known.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class StorageError(ReproError):
    """Raised on storage-layer failures (page, buffer pool, disk)."""


class PageFullError(StorageError):
    """A record does not fit in the remaining free space of a page."""


class BufferPoolError(StorageError):
    """Buffer pool misuse (e.g. all frames pinned, double unpin)."""


class PageFormatError(StorageError):
    """A page's bytes are not a valid posting frame.

    Raised instead of decoding garbage when a posting chain points at
    a page in an unknown or older on-disk format (bad magic, bad
    version, or a header whose lengths do not fit the page)."""


class WalFormatError(StorageError):
    """A committed write-ahead log record is not in this version's
    format (e.g. a full catalog where a catalog delta belongs).

    Raised by recovery instead of folding the record wrongly; the log
    must be checkpointed by the version that wrote it."""


class PatternError(ReproError):
    """A query pattern is malformed (cycle, disconnected, bad reference)."""


class XPathSyntaxError(ReproError):
    """Raised by the XPath front-end on unsupported or malformed syntax.

    Attributes
    ----------
    position:
        0-based character offset of the offending token, when known.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class OptimizerError(ReproError):
    """Raised when plan enumeration fails or is misconfigured."""


class PlanError(ReproError):
    """A physical plan is structurally invalid or cannot be executed."""


class EstimationError(ReproError):
    """Raised by cardinality estimators on invalid requests."""


class TransactionError(ReproError):
    """Transactional write-path misuse (aborted txn reuse, bad target)."""


class ShardError(ReproError):
    """Sharded-execution failure: bad partitioning arguments, a dead or
    unresponsive shard worker, use of a closed coordinator."""


class UnshardablePatternError(ShardError):
    """A pattern a fleet cannot answer (a twig branching at the
    replicated document root).  The request is at fault, not the
    fleet: over HTTP it is a 400 where any other :class:`ShardError`
    is a 500."""


class QueryCancelled(ReproError):
    """A streaming execution was cancelled before it drained.

    Raised out of a :class:`repro.engine.executor.StreamingExecution`
    when the caller-supplied cancel predicate turns true (deadline
    expiry, client disconnect, shutdown drain).  The partial counters
    accumulated so far remain valid on the stream handle."""
