"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: validation and file-format problems
exit 2, grid/protocol incompatibilities exit 3, undefined numerical
results exit 4.
"""


class MrsQuantError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(MrsQuantError):
    """A parameter, configuration value, or input failed validation."""


class UnknownMetaboliteError(ValidationError):
    """A metabolite name was not found in the basis set."""


class FileFormatError(ValidationError):
    """A persisted file is malformed or truncated."""


class UnsupportedVersionError(FileFormatError):
    """A persisted file declares a format version this build cannot read."""


class GridCompatibilityError(MrsQuantError):
    """Spectra and model/basis grids do not match and preprocessing was not enabled."""


class UndefinedResultError(MrsQuantError):
    """A numerical result is undefined for the given inputs (e.g. ratio over a non-positive Cr fit)."""


def integer(name, value, low):
    """int(value) when value is an integer >= low; an integer-valued float such as 3.0 counts.

    A bool, a fraction or a smaller value raises ValidationError naming the
    field; a value int() cannot take (None, a string, NaN, inf) raises int()'s
    own TypeError, ValueError or OverflowError.
    """
    if isinstance(value, bool) or int(value) != value or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)
