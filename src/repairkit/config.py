"""Toolkit configuration: one JSON file, environment overrides, defaults.

Precedence is flags > environment > file > defaults; the CLI applies flag
overrides on top of the ToolConfig produced here. Recognized environment
variables: REPAIR_CONFIG (config file path) and REPAIR_BACKEND_URL.

This module also holds everything a CLI call needs before it dispatches to
a subcommand: the section classes, the choices the argument parser offers
(`PROFILES`, `REPORT_FORMATS`), and `decode`, which every JSON input (this
file, a manifest, a denylist) goes through. It imports nothing from
repairkit but `errors`, so a CLI call loads only the modules its subcommand
runs. The modules that use these names (`representations`, `corpus`,
`gen`, `bench`) re-export them.
"""
from __future__ import annotations

import functools
import json
import os
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path
from typing import Optional, Protocol, Union, get_args, get_origin, get_type_hints

from .errors import ConfigError

ENV_CONFIG = "REPAIR_CONFIG"
ENV_BACKEND_URL = "REPAIR_BACKEND_URL"

MAX_TIMEOUT_MS = 2**31 - 1  # the longest wait `select.poll` accepts, about 24.8 days


def check_timeout(timeout: float) -> None:
    """Raise ValueError unless `timeout` is positive and at most MAX_TIMEOUT_MS."""
    if not 0 < timeout * 1000 <= MAX_TIMEOUT_MS:
        bound = f"at most {MAX_TIMEOUT_MS / 1000} s (2^31-1 ms)"
        raise ValueError(f"timeout must be positive and {bound}: {timeout!r}")


@dataclass(frozen=True)
class Markers:
    """Marker strings used by IR2/IR3/IR4 renderings. All configurable."""

    fill_token: str = "<FILL_ME>"
    start_comment: str = "// buggy code starts here"
    end_comment: str = "// buggy code ends here"
    buggy_header: str = "// buggy code"
    comment_prefix: str = "// "


DEFAULT_STOP_TOKENS: tuple[str, ...] = ("</s>", "<EOT>", "<|endoftext|>")


@dataclass(frozen=True)
class CorpusFilterConfig:
    max_length: int = 1024  # strict cap on tokens(input) + tokens(output)
    tokenizer: str = "approximate"

    def __post_init__(self):
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")


class Backend(Protocol):
    def complete(
        self, prompt: str, n: int, max_new_tokens: int, stop: Sequence[str]
    ) -> list[str]: ...


@dataclass
class GenerationConfig:
    num_candidates: int = 10
    max_new_tokens: int = 512
    stop_tokens: tuple[str, ...] = DEFAULT_STOP_TOKENS
    backend: Union[str, Backend, None] = None  # endpoint URL or in-process object
    timeout: float = 60.0
    retries: int = 3  # additional attempts after the first
    retry_base_delay: float = 0.5

    def __post_init__(self):
        if self.num_candidates < 1:
            raise ValueError("num_candidates must be >= 1")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if "" in self.stop_tokens:
            raise ValueError("stop_tokens must not hold an empty string")
        check_timeout(self.timeout)
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.retry_base_delay < 0:
            raise ValueError("retry_base_delay must be >= 0")


# Benchmark bugs whose reference fix also occurs in the public diff corpus;
# pairs matching them are excluded from fine-tuning data to avoid leakage.
DEFAULT_LEAKAGE_BUGS: tuple[str, ...] = ("Math-28", "Math-44", "JacksonDatabind-82")

# Benchmark profiles and the bugs each one drops: single-function Defects4J
# (leakage denylist applied) and HumanEval-Java. Benchmark data is not bundled.
PROFILES: dict[str, tuple[str, ...]] = {
    "defects4j-sf": DEFAULT_LEAKAGE_BUGS,
    "humaneval-java": (),
}

REPORT_FORMATS = ("plain", "delimited", "markdown-table")


@dataclass
class ToolConfig:
    markers: Markers = field(default_factory=Markers)
    filter: CorpusFilterConfig = field(default_factory=CorpusFilterConfig)
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    parallelism: int = os.cpu_count() or 1

    def __post_init__(self):
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


class NotAnObject(TypeError):
    """JSON that is not an object where a dataclass goes; `path` names it."""

    def __init__(self, path: str, value: object):
        super().__init__(f"{path or 'value'} must be a JSON object, not {value!r}")
        self.path = path


class UnknownKeys(TypeError):
    """A JSON object with keys that its dataclass lacks."""


_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "true or false",
          type(None): "null", tuple: "a JSON list", dict: "a JSON object"}
_hints = functools.cache(get_type_hints)  # resolved once a class: 0.2 ms each


def decode(tp, value, path: str = ""):
    """`value`, decoded JSON, checked against the annotation `tp` and built.
    No `bool` passes as an `int` or `float`; an `int` passes as a `float`; a
    `Union` takes its first member that fits; tuples come from JSON lists,
    `dict[str, X]` and dataclasses from objects, with no key a dataclass
    lacks (its constructor refuses a missing one). A misfit is a `TypeError`
    naming its path, like `generation.stop_tokens[0]`."""
    origin, args, kind = get_origin(tp), get_args(tp), type(value)
    if origin is Union:
        for member in args:
            try:
                return decode(member, value, path)
            except TypeError:
                pass
    elif kind is tp and tp in _NAMES or tp is float and kind is int:
        return value
    elif origin is tuple and kind is list and (args[-1] is ... or len(args) == len(value)):
        kinds = args[:1] * len(value) if args[-1] is ... else args
        return tuple(decode(k, v, f"{path}[{i}]") for i, (k, v) in enumerate(zip(kinds, value)))
    elif origin is dict and kind is dict:
        return {key: decode(args[1], v, f"{path}[{key!r}]") for key, v in value.items()}
    elif is_dataclass(tp):
        if kind is not dict:
            raise NotAnObject(path, value)
        hints = _hints(tp)
        if unknown := value.keys() - hints.keys():
            raise UnknownKeys(f"unknown {tp.__name__} keys: {sorted(unknown)}")
        prefix = f"{path}." if path else ""
        return tp(**{key: decode(hints[key], v, prefix + key) for key, v in value.items()})
    names = [_NAMES.get(get_origin(t) or t) or f"a {t.__name__}"
             for t in (args if origin is Union else [tp])]
    raise TypeError(f"{path or 'value'} must be {' or '.join(names)}, not {value!r}")


def load_tool_config(
    path: Optional[str] = None, env: Mapping[str, str] = os.environ
) -> ToolConfig:
    """Build the configuration from file and environment.

    `path` wins over the REPAIR_CONFIG variable; a missing explicit path is
    an error while a missing default is not.
    """
    config_path = path or env.get(ENV_CONFIG)
    data: dict = {}
    if config_path:
        try:
            data = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except ValueError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    try:
        config = decode(ToolConfig, data)
    except NotAnObject as exc:
        raise ConfigError(f"config section {exc.path!r} must hold a JSON object")
    except UnknownKeys as exc:
        raise ConfigError(str(exc))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}")
    backend_url = env.get(ENV_BACKEND_URL)
    if backend_url:
        config.generation.backend = backend_url
    return config
