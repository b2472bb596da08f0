"""Exception types shared across the package."""


class ChiralDetError(Exception):
    """Base class for package errors."""


class AnnotationError(ChiralDetError):
    """Chirality annotations are malformed or inconsistent."""


class MoleculeParseError(ChiralDetError):
    """A molecule file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericError(ChiralDetError):
    """A numerical routine received invalid input or produced non-finite output.
    `row`, when known, is the first offending index on its input's first axis."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class DegeneracyError(ChiralDetError):
    """A kernel slice or geometry is rank-deficient where full rank is required."""


class GenerationError(ChiralDetError):
    """Synthetic data generation failed (rejection budget exhausted)."""


class CheckpointError(ChiralDetError):
    """Base class for checkpoint load failures."""


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointChecksumError(CheckpointError):
    pass


class CheckpointShapeError(CheckpointError):
    pass
