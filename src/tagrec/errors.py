"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: usage errors exit 1, data errors
exit 2, numerical failures exit 3. The JSON and JSONL readers here turn
a file that does not decode or parse into a DataError naming it.
"""

import json


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


def read_json(path, encoding: str):
    """The JSON value a whole file holds; a file that does not decode or
    parse raises a DataError naming it (and the line of a syntax error).
    The caller checks the value's shape."""
    try:
        with open(path, "r", encoding=encoding) as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise not_text(path, exc) from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc


def write_json(path, obj) -> None:
    """One JSON value as ASCII with sorted keys and a final newline, so
    equal values give byte-identical files."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def read_jsonl(path, encoding: str):
    """(line number, JSON value) for each non-blank line of a JSONL file;
    a line that does not decode or parse raises a DataError naming the
    file and the line. The caller checks each value's shape."""
    try:
        with open(path, "r", encoding=encoding) as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    value = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
                yield lineno, value
    except UnicodeDecodeError as exc:
        raise not_text(path, exc) from exc
