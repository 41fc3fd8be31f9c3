"""Toolkit configuration: one JSON file, environment overrides, defaults.

Precedence is flags > environment > file > defaults; the CLI applies flag
overrides on top of the ToolConfig produced here. Recognized environment
variables: REPAIR_CONFIG (config file path) and REPAIR_BACKEND_URL.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Optional

from .corpus import CorpusFilterConfig
from .errors import ConfigError
from .gen import GenerationConfig
from .representations import Markers

ENV_CONFIG = "REPAIR_CONFIG"
ENV_BACKEND_URL = "REPAIR_BACKEND_URL"


@dataclass
class ToolConfig:
    markers: Markers = field(default_factory=Markers)
    filter: CorpusFilterConfig = field(default_factory=CorpusFilterConfig)
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    parallelism: int = os.cpu_count() or 1


def _build(section_cls, data: Mapping) -> object:
    known = {f.name for f in fields(section_cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown {section_cls.__name__} keys: {sorted(unknown)}")
    coerced = dict(data)
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
    try:
        config = ToolConfig(
            markers=_build(Markers, data.get("markers", {})),
            filter=_build(CorpusFilterConfig, data.get("filter", {})),
            generation=_build(GenerationConfig, data.get("generation", {})),
            parallelism=int(data.get("parallelism", os.cpu_count() or 1)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}")
    backend_url = env.get(ENV_BACKEND_URL)
    if backend_url:
        config.generation.backend = backend_url
    return config
