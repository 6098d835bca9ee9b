"""Exception types shared across the package."""


class DagError(Exception):
    """Base class for block-DAG errors."""


class UnknownBlock(DagError):
    """A queried block id is not present in the store."""


class UnknownReference(DagError):
    """A block references an id that is not present in the store."""


class EmptyReferences(DagError):
    """A non-genesis block must reference at least one existing block."""


class DuplicateReference(DagError):
    """A block's reference list contains the same id twice."""


class DuplicateBlock(DagError):
    """A block with identical content (and therefore identical id) already exists."""


class SnapshotError(DagError):
    """A DAG snapshot record is inconsistent with the reconstructed store."""


class NotAnAncestor(DagError):
    """distance() was asked for a block that is not on the parent chain."""


class NotInPast(DagError):
    """The subject block is not reachable from the given tip."""


class StaleSubject(DagError):
    """Conflict sets are undefined for blocks that are stale at the tip."""


class FinalityViolation(DagError):
    """A finalized reward changed under a later main chain.

    This indicates an implementation bug (or an event whose probability the
    protocol treats as negligible); runs abort when it is raised.
    """


class ConfigInvalid(ValueError):
    """A simulation configuration violates a model assumption."""
