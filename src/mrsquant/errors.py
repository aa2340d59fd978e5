"""Exception hierarchy shared across the toolkit; each class's exit_code is the CLI's exit status for it."""


class MrsQuantError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class ValidationError(MrsQuantError):
    """A parameter, configuration value, or input failed validation."""


class UnknownMetaboliteError(ValidationError):
    """A metabolite name was not found in the basis set."""


class FileFormatError(ValidationError):
    """A persisted file is malformed or truncated."""


class UnsupportedVersionError(FileFormatError):
    """A persisted file declares a format version this build cannot read."""


class GridCompatibilityError(MrsQuantError):
    """Spectra and the model grid do not match and preprocessing was not enabled."""

    exit_code = 3


class UndefinedResultError(MrsQuantError):
    """A numerical result is undefined for the given inputs (e.g. ratio over a non-positive Cr fit)."""

    exit_code = 4


def integer(name, value, low):
    """int(value) when value is an integer >= low; an integer-valued float such as 3.0 counts.

    A bool, a fraction or a smaller value raises ValidationError naming the
    field; a value int() cannot take (None, a string, NaN, inf) raises int()'s
    own TypeError, ValueError or OverflowError.
    """
    if isinstance(value, bool) or int(value) != value or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def known_keys(what, doc, keys):
    """Raise ValidationError naming the first key of the mapping doc that is not in keys."""
    unknown = [k for k in doc if k not in keys]
    if unknown:
        raise ValidationError(f"unknown {what} key {unknown[0]!r}; the keys are {', '.join(keys)}")
