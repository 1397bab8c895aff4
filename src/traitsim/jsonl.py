"""The one reader and the one writer of line-delimited JSON.

Every line-delimited input (personas, platform records, a run's
``agents.jsonl`` and ``actions.jsonl``) is read by ``read_jsonl``, and its
string fields are checked by ``string``. A missing or unreadable file, or a
line that is not JSON or that the caller's ``parse`` rejects, is a
``ValueError`` naming the file (and the line).
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


def read_jsonl(path, parse, finish=lambda: None) -> list:
    """``parse(json.loads(line))`` for each non-blank line of the file at
    ``path``, then ``finish()``. A missing file is a ``ValueError`` saying
    so, and any other file that cannot be read as text (a directory, bytes
    that do not decode) one naming it. Bad JSON, or a KeyError, TypeError or
    ValueError from ``parse`` or ``finish``, is a ``ValueError`` citing the
    file and the 1-based line number (the last line for ``finish``)."""
    try:
        lines = Path(path).read_text().splitlines()
    except FileNotFoundError:
        raise ValueError(f"file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as err:
        raise ValueError(f"cannot read {path}: {err}") from None
    rows, number = [], 0
    try:
        for number, line in enumerate(lines, start=1):
            if line.strip():
                rows.append(parse(json.loads(line)))
        finish()
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"malformed record in {path} line {number}: "
                         f"{type(err).__name__}: {err}") from err
    return rows


def write_jsonl(path, rows) -> None:
    """Write each row as one line of JSON with sorted keys."""
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
