"""Run artifacts written whole or not at all.

Checkpoints, CSVs, resolved configs and reports are rendered in memory and
handed to write_atomic, which writes a temp file beside the target and
renames it over the target in one step. A reader sees the previous file or
the new one, never part of either, and a write that fails leaves the
previous file and no temp file.
"""

from __future__ import annotations

import csv
import io
import os
from pathlib import Path


def write_atomic(path: str | Path, text: str) -> Path:
    """Replace the file at `path` with `text` in one rename."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def write_csv(path: str | Path, rows: list[dict], fieldnames: list[str] | None = None,
              note: str | None = None) -> Path:
    """`rows` under a header of `fieldnames` (default: the first row's keys),
    after an optional one-line `note`."""
    buf = io.StringIO(newline="")
    if note is not None:
        buf.write(note + "\n")
    writer = csv.DictWriter(buf, fieldnames=fieldnames or list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return write_atomic(path, buf.getvalue())
