"""Append-only JSON Lines files that survive a crash mid-append.

`append_line` adds a row with one `O_APPEND` write and closes the file
again, so no file is held open between appends. A crash while appending
can still leave an unterminated last line. `read_rows` skips it with a
warning when it does not parse (a torn UTF-8 character included), and
`mend_tail` cuts it off before the next append, or ends it with a newline
when it is a whole row, so a fragment is never followed by another line. A
bad line anywhere else raises `StoreError`, which names the file and line.

`read_rows` takes a row straight from `JSONDecoder.raw_decode` only when
`json.loads` would give the same row, so it accepts the same files.
"""
from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Callable, Iterator, TypeVar

from .errors import StoreError

T = TypeVar("T")
log = logging.getLogger(__name__)

_raw_decode = json.JSONDecoder().raw_decode


def read_rows(path: Path, make: Callable[[dict], T]) -> Iterator[T]:
    """`make(row)` for each parsed non-blank line of `path`, skipping a torn
    last line. A line that does not parse, or whose row `make` rejects with
    a ValueError, TypeError or KeyError, raises StoreError."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            try:
                text = line.decode("utf-8")
                row, end = _raw_decode(text)
                whole = text[end:] in ("\n", "")  # then json.loads gives this row too
            except ValueError:
                whole = False
            if not whole:
                if not line.strip():
                    continue
                try:
                    row = json.loads(line.decode("utf-8"))  # a torn character raises too
                except ValueError as exc:
                    if line.endswith(b"\n"):
                        raise StoreError(path, number, exc) from exc
                    log.warning("%s: skipping torn last line %.60r", path, line)
                    continue
            try:
                item = make(row)
            except (ValueError, TypeError, KeyError) as exc:
                raise StoreError(path, number, exc) from exc
            yield item


def append_line(path: Path, line: str) -> None:
    """Append `line` and a newline to `path`, creating it, in one write."""
    data = (line + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        while data:  # a regular file takes it all at once; loop on a short write
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


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
