"""Exception types shared across the package."""


class AomddError(Exception):
    """Base class for all package errors."""


class ParseError(AomddError):
    """Malformed input text. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class StructuralError(AomddError, ValueError):
    """Incompatible structures (pseudo trees, scopes, diagram files, assignments)."""


class ResourceLimitError(AomddError):
    """A configured cap (node count, brute-force table size) was exceeded."""
