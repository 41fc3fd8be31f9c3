"""Toolkit configuration: one JSON file, environment overrides, defaults.

Precedence is flags > environment > file > defaults; the CLI applies flag
overrides on top of the ToolConfig produced here. Recognized environment
variables: REPAIR_CONFIG (config file path) and REPAIR_BACKEND_URL.

This module also holds everything a CLI call needs before it dispatches to
a subcommand: the three section classes (`Markers`, `CorpusFilterConfig`,
`GenerationConfig`) and the choices the argument parser offers
(`PROFILES`, `REPORT_FORMATS`). It imports nothing from repairkit but
`errors`, so a CLI call loads only the modules its subcommand runs. The
modules that use these names (`representations`, `corpus`, `gen`, `bench`)
re-export them.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Optional, Union

from .errors import ConfigError

if TYPE_CHECKING:
    from .gen import Backend

ENV_CONFIG = "REPAIR_CONFIG"
ENV_BACKEND_URL = "REPAIR_BACKEND_URL"


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
        if not 0 < self.timeout < math.inf:
            raise ValueError("timeout must be a positive finite number of seconds")
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


def _check_keys(cls, data: Mapping) -> None:
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")


def _build(section_cls, data: Mapping, key: str) -> object:
    """`section_cls` from the object at `data[key]`, defaults if it is absent."""
    section = data.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {key!r} must hold a JSON object")
    _check_keys(section_cls, section)
    coerced = dict(section)
    for f in fields(section_cls):
        if f.name in coerced and isinstance(coerced[f.name], list):
            coerced[f.name] = tuple(coerced[f.name])
    return section_cls(**coerced)


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
        _check_keys(ToolConfig, data)
    try:
        config = ToolConfig(
            markers=_build(Markers, data, "markers"),
            filter=_build(CorpusFilterConfig, data, "filter"),
            generation=_build(GenerationConfig, data, "generation"),
            parallelism=int(data.get("parallelism", os.cpu_count() or 1)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}")
    backend_url = env.get(ENV_BACKEND_URL)
    if backend_url:
        config.generation.backend = backend_url
    return config
