"""Append-only JSON Lines files that survive a crash mid-append.

A crash while appending can leave an unterminated last line. `read_rows`
skips it with a warning when it does not parse (a torn UTF-8 character
included), and `mend_tail` cuts it off before the next append, or ends it
with a newline when it is a whole row, so a fragment is never followed by
another line. A bad line anywhere else still raises.
"""
from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Iterator

log = logging.getLogger(__name__)


def read_rows(path: Path) -> Iterator[dict]:
    """The parsed non-blank lines of `path`, skipping a torn last line."""
    with open(path, "rb") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                row = json.loads(line.decode("utf-8"))  # a torn character raises too
            except ValueError:
                if line.endswith(b"\n"):
                    raise
                log.warning("%s: skipping torn last line %.60r", path, line)
                continue
            yield row


def mend_tail(path: Path) -> None:
    """Cut a torn last line, or end it with a newline if it is a whole row."""
    data = path.read_bytes() if path.exists() else b""
    if not data or data.endswith(b"\n"):
        return
    cut = data.rfind(b"\n") + 1
    try:
        json.loads(data[cut:])
    except ValueError:
        with open(path, "r+b") as fh:
            fh.truncate(cut)
    else:
        with open(path, "ab") as fh:
            fh.write(b"\n")
