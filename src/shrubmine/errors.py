"""Exception types shared across the package.

The CLI maps these onto exit codes: parse/format problems exit 2,
constraint violations exit 3, size-guard refusals exit 4.
"""

from __future__ import annotations


class TreeParseError(ValueError):
    """A tree encoding could not be parsed.

    Carries the 0-based character offset (not byte offset) of the
    offending character in the text parsed and, when parsing a dataset
    file, the 1-based line number.
    """

    def __init__(self, message: str, offset: int | None = None, line: int | None = None):
        self.offset = offset
        self.line = line
        self.bare_message = message
        where = []
        if line is not None:
            where.append(f"line {line}")
        if offset is not None:
            where.append(f"offset {offset}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)


class FormatError(ValueError):
    """A non-tree input file (hypergraph, CNF, transactions) is malformed."""


class ConstraintError(ValueError):
    """Input violates a structural requirement.

    Examples: a dataset tree exceeds the height bound, a CNF is not in
    (3,4) form, a hypergraph has a universal vertex, or an ordered
    dataset is passed to the unordered miner.
    """


class SizeGuardError(RuntimeError):
    """A brute-force routine refused an input that exceeds desk scale."""
