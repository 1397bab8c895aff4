"""The one opener of input files, and the one reader of line-delimited
JSON.

Every input file (personas, platform records, follows, a config file, a
run's ``agents.jsonl``, ``actions.jsonl`` and ``manifest.json``) is opened by
``read_text``, and the line-delimited ones are read by ``read_jsonl``, their
string fields checked by ``string``. A missing or unreadable file, or a line
that does not parse (nesting past the recursion limit included), is a
``ValueError`` naming the file (and the line).
``write_jsonl`` writes ``ground``'s personas; a run's files are rendered
line by line in ``engine``.
"""

from __future__ import annotations

import json
from pathlib import Path


def string(d: dict, key: str, nullable: bool = False):
    """``d[key]``, which must be a string (or null, if ``nullable``); any
    other value is a ``TypeError``."""
    value = d[key]
    if not (type(value) is str or nullable and value is None):
        kind = "a string or null" if nullable else "a string"
        raise TypeError(f"{key} must be {kind}, got {json.dumps(value)}")
    return value


def read_text(path) -> str:
    """The text of the file at ``path``. A missing file is a ``ValueError``
    saying so, and any other file that cannot be read as text (a directory,
    bytes that do not decode) one naming it."""
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        raise ValueError(f"file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as err:
        raise ValueError(f"cannot read {path}: {err}") from None


def malformed(path, number, err) -> ValueError:
    """The error for line ``number`` (1-based) of the file at ``path``,
    which ``err`` rejected."""
    return ValueError(f"malformed record in {path} line {number}: "
                      f"{type(err).__name__}: {err}")


def read_json(path, what: str):
    """The JSON document in the file at ``path`` (``read_text``); text that
    is not JSON is a ``ValueError`` citing the ``what`` file and the line,
    and a number of too many digits or nesting past the recursion limit,
    for which the decoder gives no position, one citing the file."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"malformed {what} {path} line {err.lineno}: "
                         f"JSONDecodeError: {err.msg}") from None
    except (ValueError, RecursionError) as err:
        raise ValueError(f"malformed {what} {path}: "
                         f"{type(err).__name__}: {err}") from None


# ``json.loads`` without its wrappers: the value at the start of a string
# and the index where it ends.
_raw_decode = json.JSONDecoder().raw_decode


def read_jsonl(path, parse, finish=lambda: None) -> list:
    """``parse(json.loads(line))`` for each non-blank line of the file at
    ``path`` (``read_text``), then ``finish()``. Bad JSON, or a KeyError,
    TypeError or ValueError from ``parse`` or ``finish``, is ``malformed``
    at its line (the last line for ``finish``), as is a line nested past
    the recursion limit.

    A line is decoded by ``json.JSONDecoder().raw_decode`` and used as is
    when its value ends at the end of the line, as every line ``write_jsonl``
    and ``engine.write_artifacts`` write does. Any other line (surrounding
    whitespace, extra data, a BOM, bad JSON) goes to ``json.loads``, so
    values and errors are its own.

    Lines end only at a line feed (``read_text`` reads CR LF and a lone CR
    as one), so a string may hold any character JSON allows raw in it, such
    as U+0085, U+2028 or U+2029; a raw form feed or U+001E, which JSON does
    not allow, is an error at its own line."""
    lines = read_text(path).split("\n")
    if not lines[-1]:
        lines.pop()  # what follows the last line feed is no line
    rows, number = [], 0
    try:
        for number, line in enumerate(lines, start=1):
            if line.strip():
                try:
                    value, end = _raw_decode(line)
                except ValueError:
                    end = -1
                if end != len(line):
                    value = json.loads(line)
                rows.append(parse(value))
        finish()
    except (KeyError, TypeError, ValueError, RecursionError) as err:
        raise malformed(path, number, err) from err
    return rows


def write_jsonl(path, rows) -> None:
    """Write each row as one line of JSON with sorted keys."""
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
