"""`values.frozen` against the stdlib's frozen dataclass.

Each `@frozen` class in the package gets a twin made by
`dataclasses.make_dataclass(..., frozen=True)` with the same name, fields,
defaults and `__post_init__`. The twin is the oracle: both are called with
the same generated arguments, well-formed or not, and must accept or reject
them alike and build values that read alike. The values those arguments
build, and the run records built the same way, keep their fields in slots
and read them back through `_asdict()`.
"""
import ast
import dataclasses
import importlib
import inspect
import pickle
import tracemalloc
import weakref
from dataclasses import MISSING, FrozenInstanceError, field, fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repairkit.assess import SemanticRating
from repairkit.bench import RunRecord
from repairkit.gen import CandidatePatch
from repairkit.representations import Region
from repairkit.syntax import SourceFunction
from repairkit.values import frozen

from test_imports import SRC, _fresh, _repairkit


def _frozen_classes() -> list[type]:
    """Every class in `src/` whose decorator is `@frozen`."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "frozen" for d in node.decorator_list
            ):
                found.append(getattr(importlib.import_module(module), node.name))
    return found


FROZEN = _frozen_classes()


def _twin(cls: type) -> type:
    spec = [
        (f.name, f.type) if f.default is MISSING else (f.name, f.type, field(default=f.default))
        for f in fields(cls)
    ]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True, namespace=namespace)


# Field values: the states the `__post_init__` checks accept, values of the
# wrong type, and the nested values some types hold.
STATES = ["pass", "fail", "not-run", "correct", "incorrect", "unlabeled", "first", "tiebreak"]
FUNCTIONS = [SourceFunction("f", 1, 1, "x"), SourceFunction("g", 2, 3, "y\nz")]
VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, 1, 2, -1, 0.0, 2.5, "", (), *STATES, *FUNCTIONS,
                     Region(2, 3)]),
    st.integers(-3, 12),
    st.text(max_size=3),
)
# Values of a field's own type, so that well-formed calls often build one;
# a field that `__post_init__` checks against a set of states mostly gets one.
STRINGS = st.sampled_from(STATES) | st.text(max_size=3)
OF_TYPE = {
    "str": STRINGS,
    "Optional[str]": st.none() | STRINGS,
    "int": st.integers(-3, 12),
    "float": st.floats(-1, 10),
    "bool": st.booleans(),
    "SourceFunction": st.sampled_from(FUNCTIONS),
}
OF_NAME = {
    "plausible": ["pass", "fail", "not-run"],
    "semantic": ["unlabeled", "correct", "incorrect"],
    "label": ["correct", "incorrect"],
    "round": ["first", "tiebreak"],
}


def _of(f: dataclasses.Field) -> st.SearchStrategy:
    of_type = OF_TYPE.get(f.type, VALUES)
    return st.sampled_from(OF_NAME[f.name]) | of_type if f.name in OF_NAME else of_type


@st.composite
def _calls(draw, cls):
    names = [f.name for f in fields(cls)]
    if draw(st.integers(0, 3)):
        # binds (three calls in four): positionals, then every other required field by keyword
        k = draw(st.integers(0, len(names)))
        keywords = [
            f.name for f in fields(cls)[k:] if f.default is MISSING or draw(st.booleans())
        ]
        given = {f.name: draw(_of(f)) for f in fields(cls)}
        return tuple(given[name] for name in names[:k]), {name: given[name] for name in keywords}
    # any shape: too few or too many positionals, repeated or unknown keywords
    k = draw(st.integers(0, len(names) + 1))
    keywords = draw(st.lists(st.sampled_from([*names, "nope"]), unique=True))
    return tuple(draw(VALUES) for _ in range(k)), {name: draw(VALUES) for name in keywords}


def _build(make, args, kwargs):
    try:
        return make(*args, **kwargs), None
    except Exception as exc:  # the oracle decides which exceptions are right
        return None, exc


def test_every_frozen_class_is_made_by_frozen():
    assert len(FROZEN) >= 20
    for cls in FROZEN:
        params = cls.__dataclass_params__
        assert params.frozen and not params.init, cls


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__qualname__)
def test_frozen_builds_what_the_stdlib_builds(cls):
    twin = _twin(cls)
    assert inspect.signature(cls).parameters == inspect.signature(twin).parameters
    assert cls.__match_args__ == twin.__match_args__
    reached = set()

    @settings(max_examples=100, deadline=None, database=None)
    @given(call=_calls(cls))
    @example(call=((None,) * (len(fields(cls)) + 1), {}))  # one positional too many
    def check(call):
        args, kwargs = call
        value, error = _build(cls, args, kwargs)
        want, want_error = _build(twin, args, kwargs)
        if want_error is not None:
            assert value is None and type(error) is type(want_error)
            assert str(error) == str(want_error)
            reached.add(type(error).__name__)
            return
        assert error is None
        reached.add("accepted")
        assert repr(value) == repr(want)
        assert dataclasses.astuple(value) == dataclasses.astuple(want)
        assert hash(dataclasses.astuple(value)) == hash(dataclasses.astuple(want))
        assert hash(value) == hash(want)
        assert value == cls(*args, **kwargs)
        name = fields(cls)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
        assert dataclasses.replace(value) == value
        assert dataclasses.replace(value, **{name: getattr(value, name)}) == value
        assert pickle.loads(pickle.dumps(value)) == value

    check()
    assert {"accepted", "TypeError"} <= reached
    if hasattr(cls, "__post_init__"):
        assert reached - {"accepted", "TypeError"}, "no value reached __post_init__'s rejection"


@pytest.mark.parametrize("cls", [*FROZEN, RunRecord], ids=lambda cls: cls.__qualname__)
def test_values_keep_their_fields_in_slots(cls):
    names = tuple(f.name for f in fields(cls))
    assert cls.__slots__ == names
    built = []

    @settings(max_examples=50, deadline=None, database=None)
    @given(call=_calls(cls))
    def check(call):
        value, _ = _build(cls, *call)
        if value is None:
            return
        built.append(value)
        assert not hasattr(value, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(value)
        row = value._asdict()
        want = {f.name: getattr(value, f.name) for f in fields(value)}
        assert list(row) == list(want) == list(names)
        assert all(row[name] is want[name] for name in names)
        assert value._asdict() is not row

    if cls is RunRecord:  # drawn lists seldom have the one length its `__post_init__` requires
        check = example(call=(("b", "IR4xOR2", "", [], []), {}))(check)
    check()
    assert built, "no generated call built a value"


def test_ten_thousand_candidates_take_at_most_100_bytes_each():
    # about 72 B a value in slots (the list's pointer included), 248 B with an instance dict
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        values = [CandidatePatch(1, "raw", "fixed") for _ in range(10_000)]
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert size <= 100 * len(values)


@pytest.mark.parametrize(
    "spec",
    [
        field(default_factory=list),
        field(default=0, kw_only=True),
        field(default=0, init=False),
    ],
    ids=["default_factory", "kw_only", "init=False"],
)
def test_unsupported_fields_are_rejected(spec):
    with pytest.raises(TypeError, match="@frozen supports only"):
        frozen(type("Odd", (), {"__annotations__": {"a": int, "b": list}, "b": spec}))


def test_required_field_after_a_default_is_the_stdlib_error():
    namespace = {"__annotations__": {"a": int, "b": int}, "a": 0}
    with pytest.raises(TypeError) as stdlib:
        dataclasses.dataclass(frozen=True)(type("Odd", (), dict(namespace)))
    with pytest.raises(TypeError) as ours:
        frozen(type("Odd", (), dict(namespace)))
    assert str(ours.value) == str(stdlib.value)


def test_values_imports_nothing_from_the_package():
    _, modules = _fresh("import repairkit.values")
    assert _repairkit(modules) == {"repairkit", "repairkit.values"}
    tree = ast.parse((SRC / "repairkit" / "values.py").read_text(encoding="utf-8"))
    assert not [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("repairkit"))
    ]


# --------------------------------------------------------------------------
# `_from_row` against `cls(**row)`

class _Row(dict):
    """A dict that is not exactly a `dict`."""


class _Shadowed(dict):
    """A dict whose items read differently through `[]` than through `**`."""

    def __getitem__(self, key):
        return "shadowed"


def _field_values(cls):
    # values of each field's type, and of other types
    of_field = {
        "candidates": st.lists(st.builds(CandidatePatch, st.integers(0, 3), st.just("raw"),
                                         st.just("x")), max_size=2),
        "verdicts": st.lists(st.none(), max_size=2),
        "timings": st.dictionaries(st.just("generate_s"), st.floats(0, 1)),
    }
    return {f.name: of_field.get(f.name, _of(f)) | VALUES for f in fields(cls)}


@st.composite
def _rows(draw, cls):
    """Rows with exactly the fields, some missing, one more or one swapped
    for an unknown key, in any order and of any type."""
    values = _field_values(cls)
    row = {name: draw(values[name]) for name in values}
    how = draw(st.sampled_from(["exact"] * 4 + ["missing", "extra", "swapped"]))
    names = sorted(row)
    if how == "missing":
        for name in draw(st.lists(st.sampled_from(names), min_size=1, unique=True)):
            del row[name]
    elif how == "extra":
        row["mood"] = draw(VALUES)
    elif how == "swapped":
        row[draw(st.sampled_from(["mood", 0, None]))] = row.pop(draw(st.sampled_from(names)))
    if draw(st.booleans()):
        row = dict(draw(st.permutations(list(row.items()))))
    kind = draw(st.sampled_from([dict] * 6 + [_Row, _Shadowed, "nondict"]))
    if kind == "nondict":
        return draw(st.sampled_from([None, [], list(row), list(row.items()), "row", 7]))
    return kind(row)


def _made(make, row):
    """The value's repr and field types, or the exception's type and message."""
    try:
        value = make(row)
    except Exception as exc:  # `cls(**row)` decides which exceptions are right
        return type(exc), str(exc)
    return repr(value), [type(getattr(value, f.name)) for f in fields(value)]


@pytest.mark.parametrize(
    "cls", [CandidatePatch, SemanticRating, RunRecord], ids=lambda cls: cls.__qualname__
)
def test_from_row_builds_what_keywords_build(cls):
    reached = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(row=_rows(cls))
    def check(row):
        made = _made(cls._from_row, row)
        assert made == _made(lambda row: cls(**row), row)
        reached.add(made[0] if isinstance(made[0], type) else "accepted")

    check()
    assert {"accepted", TypeError} <= reached
