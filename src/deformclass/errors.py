"""Exception taxonomy shared across the package.

Every error raised by library code derives from DeformClassError so callers
can catch one base class.  The CLI maps subtrees to exit codes: ConfigError
-> 2, DataError -> 3, NumericError -> 4.
"""
from __future__ import annotations


class DeformClassError(Exception):
    """Base class for all package errors."""


class ConfigError(DeformClassError):
    """Bad configuration: unknown keys, malformed values, invalid combinations."""


class DataError(DeformClassError):
    """Malformed or missing input data (files, byte streams, datasets)."""


class NumericError(DeformClassError):
    """A numeric precondition failed (zero norms, empty supports, ...)."""


# --- configuration / parameter validation ---------------------------------

class InvalidParams(ConfigError):
    """Deformation parameters violate the admissibility constraints."""


class InvalidDistribution(ConfigError):
    """Deformation distribution ranges are empty or out of bounds."""


class InvalidFixtureParams(ConfigError):
    """Fixture parameters violate the strict inequalities they must satisfy."""


class ResolutionTooSmall(ConfigError):
    """Grid resolution below the supported minimum."""


class ResolutionMismatch(ConfigError):
    """Two grids that must share a resolution do not."""


class FilterTooLarge(ConfigError):
    """Filter side exceeds what the image resolution supports."""


class EmptyList(ConfigError):
    """An argument list that must be non-empty is empty."""


# --- numeric failures -------------------------------------------------------

class AllZeroImage(NumericError):
    """Image has no nonzero pixel where one is required."""


class EmptySupport(NumericError):
    """No pixel of the image is positive."""


class EmptyGallery(NumericError):
    """Nearest-neighbour gallery contains no entries."""


class ZeroNorm(NumericError):
    """A grid that must be normalizable has zero norm."""


class EmptyMask(NumericError):
    """Boundary tracing got a mask with no true cells."""


class MultipleComponents(NumericError):
    """Mask support splits into more than one 4-connected component."""


class DegenerateCurve(NumericError):
    """Curve has too few distinct points for a regularity estimate."""


# --- data / serialization ---------------------------------------------------

class BadMagic(DataError):
    """Byte stream does not start with the expected magic values."""


class TruncatedPayload(DataError):
    """Byte stream ends before the declared payload is complete."""


class MalformedHeader(DataError):
    """A header field is not a well-formed value of its type."""


class DimMismatch(DataError):
    """Declared dimensions are unsupported or internally inconsistent."""


class EmptyDataset(DataError):
    """Dataset contains no items."""
