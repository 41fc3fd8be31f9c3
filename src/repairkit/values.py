"""Frozen value types built at plain-dataclass speed.

`@frozen` is `@dataclass(frozen=True)` with a faster `__init__`. The
stdlib's frozen `__init__` stores each field through `object.__setattr__`,
one slot-wrapper call per field, which makes a seven-field value about four
times as dear to build as a plain dataclass. Verdicts, ratings and
candidates are built by the thousand on every `rate`, `kappa`, `report` and
resume, so that cost shows end to end.

The contract:

- The class is made by `dataclasses.dataclass(frozen=True, init=False)`, so
  the frozen `__setattr__` and `__delattr__`, `__eq__`, `__hash__`,
  `__repr__`, `__match_args__`, `dataclasses.replace` and pickling are the
  stdlib's own.
- The generated `__init__` takes the parameters, defaults and annotations
  the stdlib's would, writes each field into the instance `__dict__`, then
  calls `__post_init__` when the class has one. A value that
  `__post_init__` rejects raises exactly what it raised before.
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

__all__ = ["frozen"]


def frozen(cls: type) -> type:
    """`@dataclass(frozen=True)` whose `__init__` fills the instance dict."""
    cls = dataclasses.dataclass(frozen=True, init=False)(cls)
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
    body = ["  self.__dict__.update({"]
    body += [f"    {f.name!r}: {f.name}," for f in fields]
    body += ["  })"]
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()")
    source = f"def __init__({', '.join(['self', *params])}):\n" + "\n".join(body) + "\n"
    exec(source, defaults)
    init = defaults["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__annotations__ = {f.name: f.type for f in fields} | {"return": None}
    cls.__init__ = init
    return cls
