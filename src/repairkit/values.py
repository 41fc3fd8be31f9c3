"""Frozen value types in slots, built at plain-dataclass speed.

`@frozen` is `@dataclass(frozen=True, slots=True)` with a faster
`__init__` and an `_asdict()` method. The stdlib's frozen `__init__` stores
each field through `object.__setattr__`, one slot-wrapper call per field,
which makes a seven-field value about four times as dear to build as a
plain dataclass, and an instance dict costs about 170 B a value more than
its slots. Verdicts, ratings and candidates are built and held by the
thousand on every `rate`, `kappa`, `report` and resume, so both costs show
end to end.

The contract:

- The class is made by `dataclasses.dataclass(frozen=True, init=False,
  slots=True)`, so the frozen `__setattr__` and `__delattr__`, `__eq__`,
  `__hash__`, `__repr__`, `__match_args__`, `__slots__`,
  `dataclasses.replace` and pickling are the stdlib's own. A value has no
  instance `__dict__` and cannot be weakly referenced.
- The generated `__init__` takes the parameters, defaults and annotations
  the stdlib's would, stores each field through its slot's descriptor,
  then calls `__post_init__` when the class has one. A value that
  `__post_init__` rejects raises exactly what it raised before.
- The generated `_asdict()` returns a new dict of the value's fields, in
  field order, without copying the field values: what `vars()` returned
  before slots, at the cost of one dict display.
- The generated static `_from_row(row)` is `cls(**row)`, the same value or
  an exception of the same type and message, by one positional call
  `cls(row["f1"], ...)` when `row` is exactly a `dict` with one key per
  field; on a `KeyError` there, or for any other row, it calls
  `cls(**row)`. `with_asdict` gives a plain dataclass both methods.
- A field the generated `__init__` would not reproduce (a
  `default_factory`, `kw_only` or `init=False`) is a `TypeError` when the
  class is made, never a silent difference. An `InitVar` is not a field:
  the generated `__init__` neither takes it nor passes it on, so a class
  with one fails at its first construction.

`config.py` keeps the stdlib decorator: its values are built once per call,
and `import repairkit.cli` loads only `cli`, `config` and `errors` from
this package, so `config` may not import this module.
"""
import dataclasses
from dataclasses import MISSING

__all__ = ["frozen", "with_asdict"]


def frozen(cls: type) -> type:
    """`@dataclass(frozen=True, slots=True)` whose `__init__` fills the
    slots directly, with `_asdict()`."""
    cls = dataclasses.dataclass(frozen=True, init=False, slots=True)(cls)
    fields = dataclasses.fields(cls)
    for f in fields:
        if f.default_factory is not MISSING or f.kw_only or not f.init:
            raise TypeError(
                f"{cls.__qualname__}.{f.name}: @frozen supports only plain fields "
                "and fields with a default"
            )
    params, defaults = [], {}
    for f in fields:
        if f.default is MISSING:
            if defaults:
                raise TypeError(f"non-default argument {f.name!r} follows default argument")
            params.append(f.name)
        else:
            defaults[f"__dataclass_dflt_{f.name}__"] = f.default
            params.append(f"{f.name}=__dataclass_dflt_{f.name}__")
    # each slot's own setter, which the frozen `__setattr__` does not guard
    namespace = defaults | {f"__set_{f.name}__": getattr(cls, f.name).__set__ for f in fields}
    body = [f"  __set_{f.name}__(self, {f.name})" for f in fields]
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()")
    init = _define(cls, "__init__", ["self", *params], body, namespace)
    init.__annotations__ = {f.name: f.type for f in fields} | {"return": None}
    cls.__init__ = init
    return with_asdict(cls)


def with_asdict(cls: type) -> type:
    """Give the dataclass `cls` an `_asdict()` that returns its fields as a
    new dict, in field order, by one generated dict display, and the
    `_from_row(row)` that builds one from a row of its fields."""
    names = [f.name for f in dataclasses.fields(cls)]
    items = [f"    {name!r}: self.{name}," for name in names]
    cls._asdict = _define(cls, "_asdict", ["self"], ["  return {", *items, "  }"], {})
    body = [f"  if type(row) is dict and len(row) == {len(names)}:",
            f"    try: return cls({', '.join(f'row[{name!r}]' for name in names)})",
            "    except KeyError: pass  # a key swapped for an unknown one",
            "  return cls(**row)"]
    cls._from_row = staticmethod(_define(cls, "_from_row", ["row"], body, {"cls": cls}))
    return cls


def _define(cls: type, name: str, params: list[str], body: list[str], namespace: dict):
    """The function `name` of `cls`, compiled from `body` with the globals
    `namespace`."""
    exec(f"def {name}({', '.join(params)}):\n" + "\n".join(body or ["  pass"]) + "\n", namespace)
    function = namespace[name]
    function.__qualname__ = f"{cls.__qualname__}.{name}"
    function.__module__ = cls.__module__
    return function
