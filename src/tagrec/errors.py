"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: usage errors exit 1, data errors
exit 2, numerical failures exit 3.
"""


class TagrecError(Exception):
    """Base class for all package errors."""


class UsageError(TagrecError):
    """Bad command-line arguments or config values."""


class DataError(TagrecError):
    """Unusable input data: malformed records, empty corpora, missing labels."""


class MalformedRecordError(DataError):
    """A raw tweet record is missing required fields."""


class NumericalError(TagrecError):
    """A numerical routine failed: diverging loss, non-finite values."""


class NotPositiveDefiniteError(NumericalError):
    """A matrix expected to be symmetric positive definite is not."""


def not_utf8(path, exc: UnicodeDecodeError) -> DataError:
    """The DataError for a text file that is not UTF-8, naming the file
    and its first line that does not decode."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return DataError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})")
    return DataError(f"{path}: not UTF-8 text ({exc.reason})")
