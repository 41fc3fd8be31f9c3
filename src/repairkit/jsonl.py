"""Append-only JSON Lines files that survive a crash mid-append.

An `Appender` opens its file at its first append, writes each row as one
`O_APPEND` write of a whole line, and closes the file when the appender is
collected or the interpreter exits. Once it has appended, it keeps
appending to the file it opened, so a file must not be replaced or
unlinked while a live appender holds it. A crash while appending can still
leave an unterminated last line. `read_rows` skips it with a warning when
it does not parse (a torn UTF-8 character included), and `mend_tail` cuts
it off before an appender's first append, or ends it with a newline when
it is a whole row, so a fragment is never followed by another line. A bad
line anywhere else raises `StoreError`, which names the file and line.

`read_rows` takes a row straight from `JSONDecoder.raw_decode` only when
`json.loads` would give the same row, so it accepts the same files.
"""
from __future__ import annotations

import json
import logging
import os
import weakref
from pathlib import Path
from typing import Callable, Iterator, Optional, TypeVar

from .errors import RepairKitError, StoreError

T = TypeVar("T")
log = logging.getLogger(__name__)

_raw_decode = json.JSONDecoder().raw_decode
# A row's line, keys sorted and text unescaped; built once, since json.dumps
# with settings builds an encoder per call.
encode_row = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
_BLOCK = 1 << 13  # bytes `mend_tail` reads at a time, back from the end


def read_rows(path: Path, make: Callable[[dict], T]) -> Iterator[T]:
    """`make(row)` for each parsed non-blank line of `path`, skipping a torn
    last line. A line that does not parse, or whose row `make` rejects with
    a ValueError, TypeError, KeyError or RepairKitError, raises StoreError."""
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
            except (ValueError, TypeError, KeyError, RepairKitError) as exc:
                raise StoreError(path, number, exc) from exc
            yield item


class Appender:
    """Appends whole lines to one file through one descriptor, opened at the
    first append and closed when the appender is collected."""

    def __init__(self, path: Path):
        self.path = path
        self._fd: Optional[int] = None

    def append(self, line: str) -> None:
        """Append `line` and a newline in one write, creating the file. The
        first append mends a torn last line first."""
        fd = self._fd
        if fd is None:
            mend_tail(self.path)
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            weakref.finalize(self, os.close, fd)
            self._fd = fd
        data = (line + "\n").encode("utf-8")
        while data:  # a regular file takes it all at once; loop on a short write
            data = data[os.write(fd, data):]


def mend_tail(path: Path) -> None:
    """Cut a torn last line, or end it with a newline if it is a whole row.
    Reads back from the end of the file in blocks, so only its last line
    is read."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    with fh:
        cut = fh.seek(0, os.SEEK_END)
        tail: list[bytes] = []  # the last line's blocks, last block first
        while cut:
            start = max(cut - _BLOCK, 0)
            fh.seek(start)
            block = fh.read(cut - start)
            if not tail and block.endswith(b"\n"):
                return
            newline = block.rfind(b"\n") + 1
            tail.append(block[newline:])
            cut = start + newline
            if newline:
                break
    if not tail:  # an empty file
        return
    try:
        # strict, as `read_rows` reads it: no BOM
        json.loads(b"".join(reversed(tail)).decode("utf-8"))
    except ValueError:
        with open(path, "r+b") as fh:
            fh.truncate(cut)
    else:
        with open(path, "ab") as fh:
            fh.write(b"\n")
