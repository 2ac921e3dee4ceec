"""Exception types shared across the package.

Subclassing keeps ``except ValueError`` / ``except RuntimeError`` working for
callers that do not care about the specific failure.
"""


class QfoldError(Exception):
    """Base class for package-specific failures."""


class EncodingError(QfoldError, ValueError):
    """Bitstring or turn sequence violates the encoding layout."""


class MatrixFormatError(QfoldError, ValueError):
    """Pairwise energy matrix file is malformed, asymmetric, or incomplete."""


class UnknownResidueError(QfoldError, ValueError):
    """Peptide contains a residue code the energy matrix does not cover."""


class DegreeOverflowError(QfoldError, RuntimeError):
    """Polynomial operation would exceed the configured term ceiling."""


class ParamLengthError(QfoldError, ValueError):
    """Parameter vector length does not match the ansatz layout."""


class EmptyDistributionError(QfoldError, ValueError):
    """Tail statistic requested over an empty probability distribution."""


class DivergenceError(QfoldError, RuntimeError):
    """Optimizer objective exceeded the divergence ceiling."""


class EmptyStructureError(QfoldError, ValueError):
    """Geometry statistic requested over zero beads."""


class ParseError(QfoldError, ValueError):
    """Structured text input (topobj, xyz, shot table, manifest, instance) is malformed."""
