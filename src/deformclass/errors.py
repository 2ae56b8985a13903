"""Exception taxonomy shared across the package.

Every error raised by library code derives from DeformClassError so callers
can catch one base class.  There is one class per CLI exit code:
ConfigError -> 2, DataError -> 3, NumericError -> 4.  The message names
the condition (the field, the file offset, the image index).
"""
from __future__ import annotations


class DeformClassError(Exception):
    """Base class for all package errors."""


class ConfigError(DeformClassError):
    """Bad configuration: parameters outside the model, empty argument
    lists, resolutions too small or mismatched, unknown keys."""


class DataError(DeformClassError):
    """Malformed or missing input data: bad magic, truncated payloads,
    malformed headers and manifests, unsupported dimensions, empty sets."""


class NumericError(DeformClassError):
    """A numeric precondition failed: all-zero images, empty supports and
    galleries, zero norms, masks that are empty or split, degenerate curves."""
