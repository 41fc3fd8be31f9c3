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

from repairkit.errors import StoreError
from repairkit.jsonl import read_rows
from store_oracle import oracle_read_rows

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

