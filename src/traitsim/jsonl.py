"""The one reader and the one writer of line-delimited JSON."""

from __future__ import annotations

import json


class LineError(ValueError):
    """A line that is not JSON or that ``parse`` rejected."""

    def __init__(self, line_number: int, cause: Exception):
        super().__init__(f"line {line_number}: {type(cause).__name__}: {cause}")
        self.line_number, self.cause = line_number, cause


def read_jsonl(lines, parse) -> list:
    """``parse(json.loads(line))`` for each non-blank line; bad JSON, or a
    KeyError, TypeError or ValueError from ``parse``, is a LineError citing
    the 1-based line number."""
    rows = []
    for number, line in enumerate(lines, start=1):
        if line.strip():
            try:
                rows.append(parse(json.loads(line)))
            except (KeyError, TypeError, ValueError) as err:
                raise LineError(number, err) from err
    return rows


def write_jsonl(path, rows) -> None:
    """Write each row as one line of JSON with sorted keys."""
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
