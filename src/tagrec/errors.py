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


def not_text(path, exc: UnicodeDecodeError) -> DataError:
    """The DataError for a text file that does not decode in the encoding
    it was read with, naming the file and its first line that does not
    decode."""
    name = {"utf-8": "UTF-8", "ascii": "ASCII"}.get(exc.encoding, exc.encoding)
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode(exc.encoding)
            except UnicodeDecodeError:
                return DataError(f"{path}:{lineno}: not {name} text ({exc.reason})")
    return DataError(f"{path}: not {name} text ({exc.reason})")
