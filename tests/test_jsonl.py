"""`jsonl.read_rows` against the per-line `json.loads` reader it replaced.

`read_rows` takes a line's row straight from `raw_decode` only when the
value spans the whole line; every other line must read as `json.loads`
reads it: the same rows, the same `StoreError` and the same warnings.
"""
import json
import logging
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repairkit import jsonl
from repairkit.errors import StoreError
from repairkit.jsonl import mend_tail, read_rows
from store_oracle import oracle_mend_tail, oracle_read_rows

BOM = "\ufeff".encode("utf-8")


def _make(row):
    row["id"]  # a store row is an object with keys
    return row


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _outcome(read, path):
    """The rows `read` yields, its StoreError, and the warnings it logs."""
    rows, error, warnings = [], None, _Warnings()
    logger = logging.getLogger("repairkit.jsonl")
    logger.addHandler(warnings)
    try:
        for row in read(path, _make):
            rows.append(row)
    except StoreError as exc:
        error = (exc.path, exc.line, str(exc), type(exc.__cause__))
    finally:
        logger.removeHandler(warnings)
    return rows, error, warnings.messages


def _assert_reads_as_oracle(path):
    rows, error, warnings = _outcome(read_rows, path)
    oracle_rows, oracle_error, oracle_warnings = _outcome(oracle_read_rows, path)
    assert repr(rows) == repr(oracle_rows)  # repr: NaN, key order and int/float count
    assert (error, warnings) == (oracle_error, oracle_warnings)
    return rows, error, warnings


def _row(**row) -> bytes:
    return json.dumps(row, ensure_ascii=False).encode("utf-8")


A = _row(id="Lang-ü", text="naïve ✓ é🐛 ")
B = _row(id="b", n=1)

# name: (file bytes, ids of the rows read, line of the StoreError, warned)
SHAPES = {
    "non_ascii_rows": (A + b"\n" + B + b"\n", ["Lang-ü", "b"], None, False),
    "ascii_escaped_row": (json.dumps({"id": "é"}).encode() + b"\n", ["é"], None, False),
    "whitespace_before": (b" \t" + A + b"\n" + B + b"\n", ["Lang-ü", "b"], None, False),
    "whitespace_after": (A + b" \t\n" + B + b" ", ["Lang-ü", "b"], None, False),
    "crlf": (A + b"\r\n" + B + b"\r\n", ["Lang-ü", "b"], None, False),
    "form_feed_after": (A + b"\x0c\n" + B + b"\n", [], 1, False),
    "bom": (A + b"\n" + BOM + B + b"\n", ["Lang-ü"], 2, False),
    "blank_lines": (b"\n \n\x0b\n" + A + b"\n\x0c\n\t\r\n" + B + b"\n", ["Lang-ü", "b"], None, False),
    "two_values_on_one_line": (A + b" " + B + b"\n", [], 1, False),
    "value_split_over_two_lines": (b'{"id": "a",\n "n": 1}\n', [], 1, False),
    "nan": (b'{"id": "nan", "x": NaN, "y": -Infinity}\n', ["nan"], None, False),
    "duplicate_keys": (b'{"id": "first", "n": 1, "id": "last"}\n', ["last"], None, False),
    "non_object_value": (A + b"\n[1, 2]\n", ["Lang-ü"], 2, False),
    "invalid_utf8_mid_file": (b'{"id": "a\xff"}\n' + B + b"\n", [], 1, False),
    "torn_last_line": (A + b"\n" + B[:-3], ["Lang-ü"], None, True),
    "torn_second_value": (A + b"\n" + B + b"{", ["Lang-ü"], None, True),
    "torn_last_character": (B + b"\n" + A[: A.index("ü".encode()) + 1], ["b"], None, True),
    "whole_last_row_without_newline": (A + b"\n" + B, ["Lang-ü", "b"], None, False),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_line_shape_reads_as_json_loads_reads_it(tmp_path, shape):
    data, ids, error_line, warned = SHAPES[shape]
    path = tmp_path / "rows.jsonl"
    path.write_bytes(data)
    rows, error, warnings = _assert_reads_as_oracle(path)
    assert [row["id"] for row in rows] == ids
    assert (error and error[1]) == error_line
    assert bool(warnings) == warned


_text = st.text(max_size=6)
_rows = st.fixed_dictionaries(
    {"id": _text},
    optional={"n": st.integers() | st.floats(), "text": _text, "list": st.lists(_text, max_size=2)},
)
_encoded = st.builds(
    lambda row, ascii: json.dumps(row, ensure_ascii=ascii).encode("utf-8"), _rows, st.booleans()
)
_spaces = st.sampled_from([b"", b" ", b"\t", b"\r", b" \t ", b"\x0b", b"\x0c", "\xa0".encode()])


def _split(encoded: bytes, at: int) -> bytes:
    at %= len(encoded) + 1
    return encoded[:at] + b"\n" + encoded[at:]


def _insert(encoded: bytes, bad: bytes, at: int) -> bytes:
    at %= len(encoded) + 1
    return encoded[:at] + bad + encoded[at:]


# One line each, without its newline; a split value spans two.
_lines = st.one_of(
    _encoded,
    st.builds(lambda a, row, b: a + row + b, _spaces, _encoded, _spaces),
    _encoded.map(lambda row: BOM + row),
    st.sampled_from([b"", b" ", b"\x0b", b"\x0c", b"\t\r", b"\x0b\x0c "]),
    st.builds(lambda a, sep, b: a + sep + b, _encoded, st.sampled_from([b"", b" "]), _encoded),
    st.builds(_split, _encoded, st.integers(0, 1 << 16)),
    st.sampled_from([b'{"id": NaN}', b'{"id": "i", "x": Infinity}', b'{"id": -Infinity}']),
    st.builds(lambda a, b: b'{"id": %s, "id": %s}' % (a, b), _encoded, _encoded),
    st.sampled_from([b"[1, 2]", b'"id"', b"3", b"null", b"true", b"[]", b'["id"]']),
    st.builds(
        _insert, _encoded, st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]), st.integers(0, 1 << 16)
    ),
)


@st.composite
def _files(draw) -> bytes:
    data = b"\n".join(draw(st.lists(_lines, max_size=6))) + draw(st.sampled_from([b"\n", b""]))
    if draw(st.booleans()):  # a crash cut the last line, maybe inside a character
        data = data[: draw(st.integers(0, len(data)))]
    return data


@settings(max_examples=400, deadline=None)
@given(_files())
def test_read_rows_matches_the_json_loads_reader(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        path.write_bytes(data)
        _assert_reads_as_oracle(path)



# --------------------------------------------------------------------------
# mending the tail before a first append

BLOCK = jsonl._BLOCK


def _long_row(size: int) -> bytes:
    """A JSON row of `size` bytes."""
    return b'{"id": "' + b"x" * (size - 10) + b'"}'


# name: (file bytes, bytes after mending)
TAILS = {
    "torn_line_longer_than_two_blocks": (
        B + b"\n" + _long_row(2 * BLOCK + 100)[:-1],
        B + b"\n",
    ),
    "whole_line_longer_than_two_blocks": (
        B + b"\n" + _long_row(2 * BLOCK + 100),
        B + b"\n" + _long_row(2 * BLOCK + 100) + b"\n",
    ),
    "whole_line_ending_on_a_block_boundary": (
        B + b"\n" + _long_row(BLOCK - len(B) - 1),
        B + b"\n" + _long_row(BLOCK - len(B) - 1) + b"\n",
    ),
    "newline_first_in_the_last_block": (
        B + b"\n" + _long_row(BLOCK - 1),
        B + b"\n" + _long_row(BLOCK - 1) + b"\n",
    ),
    "newline_last_in_the_block_before": (
        B + b"\n" + _long_row(BLOCK)[:-1],
        B + b"\n",
    ),
    "bom_tail": (A + b"\n" + BOM + B, A + b"\n"),
    "long_bom_tail": (A + b"\n" + BOM + _long_row(3 * BLOCK), A + b"\n"),
    "no_newline_whole": (_long_row(3 * BLOCK), _long_row(3 * BLOCK) + b"\n"),
    "no_newline_torn": (_long_row(3 * BLOCK)[:-2], b""),
    "no_newline_short": (B, B + b"\n"),
    "whole_file": (A + b"\n" + B + b"\n", A + b"\n" + B + b"\n"),
    "empty": (b"", b""),
}


@pytest.mark.parametrize("shape", sorted(TAILS))
def test_mend_tail_cuts_or_ends_the_last_line(tmp_path, shape):
    data, mended = TAILS[shape]
    path = tmp_path / "rows.jsonl"
    path.write_bytes(data)
    mend_tail(path)
    assert path.read_bytes() == mended
    oracle = tmp_path / "oracle.jsonl"
    oracle.write_bytes(data)
    oracle_mend_tail(oracle)
    assert oracle.read_bytes() == mended


def test_mend_tail_leaves_a_missing_file_missing(tmp_path):
    mend_tail(tmp_path / "rows.jsonl")
    assert not (tmp_path / "rows.jsonl").exists()


class _CountingFile:
    def __init__(self, fh, counts):
        self._fh, self._counts = fh, counts

    def read(self, *args):
        data = self._fh.read(*args)
        self._counts.append(len(data))
        return data

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.mark.parametrize("tail", [b"", B, B[:-3]], ids=["whole", "unended", "torn"])
def test_mend_tail_reads_only_the_end_of_a_large_store(tmp_path, monkeypatch, tail):
    path = tmp_path / "rows.jsonl"
    path.write_bytes((A + b"\n") * 20_000 + tail)  # about 1 MB
    counts = []
    monkeypatch.setattr(
        jsonl, "open", lambda *args: _CountingFile(open(*args), counts), raising=False
    )
    mend_tail(path)
    assert 0 < sum(counts) <= BLOCK
    assert path.read_bytes().endswith(A + b"\n" + (B + b"\n" if tail == B else b""))


_tail_rows = st.sampled_from(
    [0, 1, 2, BLOCK - 11, BLOCK - 10, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK + 3]
)


@st.composite
def _tailed_files(draw) -> bytes:
    rows = [_long_row(max(size, 12)) for size in draw(st.lists(_tail_rows, min_size=1, max_size=4))]
    if draw(st.booleans()):
        rows[-1] = BOM + rows[-1]
    data = b"\n".join(rows) + draw(st.sampled_from([b"\n", b""]))
    return data[: draw(st.integers(0, len(data)))]


@settings(max_examples=200, deadline=None)
@given(_tailed_files())
def test_mend_tail_matches_the_whole_file_version(data):
    with tempfile.TemporaryDirectory() as tmp:
        path, oracle = Path(tmp) / "rows.jsonl", Path(tmp) / "oracle.jsonl"
        path.write_bytes(data)
        oracle.write_bytes(data)
        mend_tail(path)
        oracle_mend_tail(oracle)
        assert path.read_bytes() == oracle.read_bytes()
