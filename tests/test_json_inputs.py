"""Every JSON input goes through `config.decode`: the config file, each
manifest entry and the `--denylist` mapping.

Well-typed inputs load to what the hand-written checks they replaced built
(`config_oracle.py`); wrong-typed ones are refused with the field path
named and nothing run; and every annotation reachable from an input type
is one that the decoder takes.
"""
import json
import re
import tempfile
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairkit.bench import BugManifestEntry, load_manifest
from repairkit.cli import main
from repairkit.config import Backend, NotAnObject, ToolConfig, UnknownKeys, decode, load_tool_config
from repairkit.errors import ConfigError, ManifestError
from repairkit.representations import Region

from config_oracle import OracleEntry, oracle_parse_entry, oracle_tool_config
from conftest import make_bench_fixture

README = Path(__file__).resolve().parent.parent / "README.md"
DENYLIST = dict[str, str]
# Union members that code sets in process and no JSON value becomes.
NOT_FROM_JSON = {Backend}


# --------------------------------------------------------------------------
# well-typed JSON, drawn from the annotations

TEXT = st.text(max_size=6)
# Every number positive, so that no range check refuses a draw; float
# fields get ints and int-valued floats too.
NUMBERS = {
    int: st.integers(1, 3000),
    float: st.one_of(
        st.integers(1, 600), st.integers(1, 600).map(float), st.floats(0.001, 600)
    ),
}


def _json(tp) -> st.SearchStrategy:
    """Well-typed JSON for the annotation `tp`; TypeError for an annotation
    that the decoder does not take."""
    origin, args = get_origin(tp), get_args(tp)
    if tp is str:
        return TEXT
    if tp in NUMBERS:
        return NUMBERS[tp]
    if tp is bool:
        return st.booleans()
    if tp is type(None):
        return st.none()
    if origin is Union:
        return st.one_of([_json(member) for member in args if member not in NOT_FROM_JSON])
    if origin is tuple:
        if args[-1] is ...:
            return st.lists(_json(args[0]), max_size=4)
        return st.tuples(*map(_json, args)).map(list)
    if origin is dict and args[0] is str:
        return st.dictionaries(TEXT, _json(args[1]), max_size=3)
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        required = [f.name for f in fields(tp)
                    if f.default is MISSING and f.default_factory is MISSING]
        return st.fixed_dictionaries(
            {name: _json(hints[name]) for name in required},
            optional={name: _json(hints[name]) for name in hints if name not in required},
        )
    raise TypeError(f"the decoder takes no JSON for {tp!r}")


@pytest.mark.parametrize("tp", [ToolConfig, BugManifestEntry, DENYLIST],
                         ids=["config", "manifest-entry", "denylist"])
def test_every_reachable_annotation_is_one_the_decoder_takes(tp):
    # A field of a type the decoder does not take fails here, not at a
    # user's load: `_json` walks every annotation and refuses such a type,
    # and each draw must decode. Numbers are drawn in range; of the
    # strings, only an empty stop token is out of range.
    @settings(max_examples=50, deadline=None, database=None)
    @given(value=_json(tp))
    def check(value):
        try:
            decode(tp, value)
        except ValueError as exc:
            assert str(exc) == "stop_tokens must not hold an empty string"

    check()


@pytest.mark.parametrize(
    "annotation", [list[str], set, Path, Optional[list[int]], dict[int, str]]
)
def test_the_walk_refuses_an_annotation_the_decoder_does_not_take(annotation):
    @dataclass
    class Section:
        field: annotation

    with pytest.raises(TypeError, match="the decoder takes no JSON"):
        _json(Section)


# --------------------------------------------------------------------------
# the decoder itself

@pytest.mark.parametrize(
    "tp, value",
    [(int, 3), (float, 3), (float, 2.5), (bool, False), (str, ""), (type(None), None),
     (Optional[int], None), (Optional[int], 4), (tuple[str, ...], []),
     (tuple[int, int], [1, 2]), (DENYLIST, {"a": "b"}), (Union[float, str, None], "60")],
)
def test_decode_takes_a_value_of_the_annotated_type(tp, value):
    decoded = decode(tp, value)
    assert decoded == (tuple(value) if isinstance(value, list) else value)
    assert type(decoded) is (tuple if isinstance(value, list) else type(value))


@pytest.mark.parametrize(
    "tp, value, message",
    [
        (int, True, "value must be an integer, not True"),
        (int, 1.0, "value must be an integer, not 1.0"),
        (float, False, "value must be a number, not False"),
        (str, 5, "value must be a string, not 5"),
        (bool, 0, "value must be true or false, not 0"),
        (Optional[str], 5, "value must be a string or null, not 5"),
        (tuple[str, ...], "ab", "value must be a JSON list, not 'ab'"),
        (tuple[str, ...], ["a", 1], "[1] must be a string, not 1"),
        (tuple[int, int], [1], "value must be a JSON list, not [1]"),
        (DENYLIST, ["a"], "value must be a JSON object, not ['a']"),
        (DENYLIST, {"a": None}, "['a'] must be a string, not None"),
    ],
)
def test_decode_names_the_path_of_a_wrong_typed_value(tp, value, message):
    with pytest.raises(TypeError) as info:
        decode(tp, value)
    assert str(info.value) == message


@dataclass
class Inner:
    count: int


@dataclass
class Outer:
    inner: Inner
    names: tuple[str, ...] = ()


def test_decode_builds_nested_dataclasses_and_names_their_paths():
    assert decode(Outer, {"inner": {"count": 2}, "names": ["a"]}) == Outer(Inner(2), ("a",))
    for value, error, message in [
        ({"inner": {"count": 2}, "names": [3]}, TypeError, "names[0] must be a string, not 3"),
        ({"inner": {"count": "2"}}, TypeError, "inner.count must be an integer, not '2'"),
        ({"inner": []}, NotAnObject, "inner must be a JSON object, not []"),
        ({"inner": {"count": 1, "extra": 0}}, UnknownKeys, "unknown Inner keys: ['extra']"),
        ({"inner": {}}, TypeError,
         "Inner.__init__() missing 1 required positional argument: 'count'"),
    ]:
        with pytest.raises(error) as info:
            decode(Outer, value)
        assert str(info.value) == message


# --------------------------------------------------------------------------
# well-typed inputs load as the hand checks loaded them

def _config_outcome(load, data):
    try:
        return load(data)
    except ConfigError:
        return "refused"


def _load_config_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return load_tool_config(str(path), env={})


@settings(max_examples=200, deadline=None)
@given(data=_json(ToolConfig))
def test_config_file_loads_as_the_hand_checks_loaded_it(data):
    assert _config_outcome(_load_config_file, data) == _config_outcome(oracle_tool_config, data)


def _as_oracle_entry(entry: BugManifestEntry) -> OracleEntry:
    return OracleEntry(
        entry.bug_id, entry.project_root, entry.file, *entry.function_span,
        Region(*entry.region), entry.reference, entry.test_command, entry.checkout,
        entry.timeout,
    )


def _loaded_entries(items):
    """The entries `load_manifest` builds from `items`, in the oracle's
    shape, or "refused"."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.json"
        path.write_text(json.dumps(items), encoding="utf-8")
        try:
            return [_as_oracle_entry(entry) for entry in load_manifest(path)]
        except ManifestError:
            return "refused"


def _oracle_entries(items):
    try:
        return [oracle_parse_entry(index, item) for index, item in enumerate(items)]
    except ManifestError:
        return "refused"


@st.composite
def _loadable_entries(draw):
    """Entries the checks after decoding mostly accept: a relative file, a
    region inside the span (an insertion `[k, k-1]` one time in three), and
    a timeout that is absent, null, a number, an int-valued float or a
    numeric string."""
    start = draw(st.integers(1, 40))
    end = draw(st.integers(start, start + 12))
    lines = end - start + 1
    first = draw(st.integers(1, lines + 1))
    if first > lines or draw(st.integers(0, 2)) == 0:
        last = first - 1  # an insertion before line `first`
    else:
        last = draw(st.integers(first, lines))
    entry = {
        "bug_id": draw(TEXT),
        "project_root": draw(TEXT),
        "file": draw(st.sampled_from(["Lib.java", "src/a/Lib.java", "./B.java"])),
        "function_span": [start, end],
        "region": [first, last],
        "reference": draw(st.sampled_from(["int f() {}", " x ", "int g() {}", "\t"])),
        "test_command": draw(st.sampled_from(["true", "mvn test", "make", " "])),
    }
    if draw(st.booleans()):
        entry["checkout"] = draw(st.none() | TEXT)
    if draw(st.booleans()):
        entry["timeout"] = draw(
            st.none() | NUMBERS[float] | st.integers(1, 600).map(str)
            | st.sampled_from(["60", " 2.5 ", "1e3", "0", "-1", "inf", "nan", "soon"])
        )
    return entry


@settings(max_examples=300, deadline=None)
@given(item=st.one_of(_loadable_entries(), _loadable_entries(), _json(BugManifestEntry)))
def test_manifest_entry_loads_as_the_hand_checks_loaded_it(item):
    assert _loaded_entries([item]) == _oracle_entries([item])


def test_timeout_string_and_insertion_region_load_as_before():
    item = {"bug_id": "b", "project_root": "/p", "file": "Lib.java", "function_span": [2, 4],
            "region": [2, 1], "reference": "r", "test_command": "true", "checkout": None,
            "timeout": "60"}
    [loaded] = _loaded_entries([item])
    assert loaded == oracle_parse_entry(0, item)
    assert loaded.timeout == 60.0 and loaded.region == Region(2, 1)


def test_the_test_fixture_manifest_loads_as_before(tmp_path):
    manifest_path, _, _ = make_bench_fixture(tmp_path / "bench")
    items = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert _loaded_entries(items) == _oracle_entries(items) != "refused"


def _readme_json(key: str) -> dict:
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    [block] = [json.loads(b) for b in blocks if f'"{key}"' in b]
    return block


def test_the_readme_examples_load_as_before():
    config = _readme_json("markers")
    assert _load_config_file(config) == oracle_tool_config(config)
    entry = _readme_json("bug_id")
    assert _loaded_entries([entry]) == _oracle_entries([entry]) != "refused"


# --------------------------------------------------------------------------
# wrong-typed inputs are refused, the field path named

WRONG_CONFIGS = {
    "num_candidates-float": ({"generation": {"num_candidates": 2.7}}, "generation.num_candidates"),
    "num_candidates-bool": ({"generation": {"num_candidates": True}}, "generation.num_candidates"),
    "stop_tokens-ints": ({"generation": {"stop_tokens": [1, 2]}}, "generation.stop_tokens[0]"),
    "stop_tokens-string": ({"generation": {"stop_tokens": "ab"}}, "generation.stop_tokens"),
    "backend-int": ({"generation": {"backend": 5}}, "generation.backend"),
    "retries-float": ({"generation": {"retries": 1.5}}, "generation.retries"),
    "max_length-string": ({"filter": {"max_length": "big"}}, "filter.max_length"),
    "fill_token-int": ({"markers": {"fill_token": 5}}, "markers.fill_token"),
    "parallelism-float": ({"parallelism": 2.9}, "parallelism"),
    "parallelism-string": ({"parallelism": "3"}, "parallelism"),
}


@pytest.mark.parametrize("name", sorted(WRONG_CONFIGS))
def test_wrong_typed_config_value_is_refused(tmp_path, name):
    data, field_path = WRONG_CONFIGS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=f"^bad config value: {re.escape(field_path)} must be "):
        load_tool_config(str(path), env={})


WRONG_ENTRIES = {
    "span-floats": ({"function_span": [1.9, 3.5]}, "function_span[0]"),
    "span-strings": ({"function_span": ["1", "3"]}, "function_span[0]"),
    "span-string": ({"function_span": "13"}, "function_span"),
    "span-three": ({"function_span": [1, 3, 7]}, "function_span"),
    "region-three": ({"region": [1, 2, 99]}, "region"),
    "region-bool": ({"region": [True, 2]}, "region[0]"),
    "timeout-bool": ({"timeout": True}, "timeout"),
}


def _entry(**overrides) -> dict:
    return {"bug_id": "b", "project_root": "/p", "file": "Lib.java", "function_span": [2, 4],
            "region": [2, 2], "reference": "r", "test_command": "true", **overrides}


@pytest.mark.parametrize("name", sorted(WRONG_ENTRIES))
def test_wrong_typed_manifest_value_is_refused(tmp_path, name):
    overrides, field_path = WRONG_ENTRIES[name]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([_entry(), _entry(bug_id="c", **overrides)]))
    with pytest.raises(ManifestError,
                       match=f"^manifest entry 1: {re.escape(field_path)} must be "):
        load_manifest(path)


def test_manifest_entry_with_an_unknown_or_missing_key_is_refused(tmp_path):
    path = tmp_path / "manifest.json"
    for items, message in [
        ([_entry(notes="x")], "manifest entry 0: unknown BugManifestEntry keys: ['notes']"),
        ([{k: v for k, v in _entry().items() if k != "region"}],
         "manifest entry 0: BugManifestEntry.__init__() missing 1 required positional "
         "argument: 'region'"),
        (["b"], "manifest entry 0: value must be a JSON object, not 'b'"),
    ]:
        path.write_text(json.dumps(items))
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert str(info.value) == message


def test_denylist_mapping_to_a_non_string_names_the_key(diff_corpus, tmp_path, capsys):
    deny_path = tmp_path / "deny.json"
    deny_path.write_text(json.dumps({"Math-1": "int f() {}", "Math-2": ["int g() {}"]}))
    out = tmp_path / "data.jsonl"
    status = main(["dataset", "--corpus", str(diff_corpus), "--pair", "IR4xOR2",
                   "--out", str(out), "--denylist", str(deny_path)])
    assert status == 1
    assert capsys.readouterr().err == (
        f"error: denylist {deny_path}: ['Math-2'] must be a string, not ['int g() {{}}']\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "config, entry, error",
    [
        ({"generation": {"stop_tokens": [1, 2]}}, {},
         "bad config value: generation.stop_tokens[0] must be a string, not 1"),
        ({"generation": {"stop_tokens": "ab"}}, {},
         "bad config value: generation.stop_tokens must be a JSON list, not 'ab'"),
        ({"generation": {"num_candidates": 2.7}}, {},
         "bad config value: generation.num_candidates must be an integer, not 2.7"),
        ({}, {"region": [True, 2]},
         "manifest entry 0: region[0] must be an integer, not True"),
        ({}, {"timeout": True},
         "manifest entry 0: timeout must be a number or a string or null, not True"),
    ],
    ids=["stop_tokens-ints", "stop_tokens-string", "num_candidates-float", "region-bool",
         "timeout-bool"],
)
def test_repair_with_a_wrong_typed_input_runs_nothing(
    bench_fixture, tmp_path, capsys, config, entry, error
):
    manifest_path, mock, _ = bench_fixture
    items = json.loads(manifest_path.read_text(encoding="utf-8"))
    items[0].update(entry)
    manifest_path.write_text(json.dumps(items), encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    store = tmp_path / "records.jsonl"
    url = mock.serve()
    try:
        status = main(["--config", str(config_path), "repair", "--manifest", str(manifest_path),
                       "--pair", "IR4xOR2", "--backend", url, "--store", str(store)])
    finally:
        mock.close()
    assert status == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n"
    assert captured.out == "" and mock.calls == 0 and not store.exists()
