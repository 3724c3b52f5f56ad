"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: usage errors exit 1, data errors
exit 2, numerical failures exit 3. The JSON and JSONL readers here turn
a file that does not decode or parse into a DataError naming it; the
JSON writer every artifact goes through streams the stdlib's canonical
encoding through its C encoder.
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
    equal values give byte-identical files: the file holds
    `json.dumps(obj, sort_keys=True) + "\\n"`.

    json.dump encodes in pure Python, and one json.dumps of a whole
    bundle would hold its text in memory. So the value is walked (each
    dict, and each list or tuple whose first item is a container) and
    every other value, such as a matrix row, a flat list or a scalar, is
    written as soon as json.dumps's C encoder has encoded it. A walked
    dict's keys must be str (TypeError otherwise)."""
    with open(path, "w", encoding="ascii") as fh:
        _write_value(fh.write, obj)
        fh.write("\n")


def _write_value(write, value) -> None:
    """Write `value` as json.dumps(value, sort_keys=True) spells it."""
    if isinstance(value, dict):
        write("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _write_value(write, value[key])
        write("}")
    elif isinstance(value, (list, tuple)) and value and isinstance(value[0], (dict, list, tuple)):
        write("[")
        for i, item in enumerate(value):
            if i:
                write(", ")
            _write_value(write, item)
        write("]")
    else:
        write(json.dumps(value, sort_keys=True))


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
