"""The JSON input checks as they were before one annotation-driven decoder
replaced them, kept as the oracle for the equivalence properties in
`test_json_inputs.py`:

- `config._check_keys` and `config._build`: a config file's keys and
  sections checked by hand, each JSON list turned into a tuple, and
  `parallelism` read with `int()`;
- `bench._parse_entry`: a manifest entry's span, region and timeout read
  with `int()` and `float()`, then its strings checked in a loop, into the
  entry type of that time (`function_start`, `function_end` and a `Region`).
"""
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Optional

from repairkit.config import CorpusFilterConfig, GenerationConfig, Markers, ToolConfig
from repairkit.errors import ConfigError, InvalidRegion, ManifestError
from repairkit.representations import Region


def _check_keys(cls, data: Mapping) -> None:
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")


def _build(section_cls, data: Mapping, key: str) -> object:
    section = data.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {key!r} must hold a JSON object")
    _check_keys(section_cls, section)
    coerced = dict(section)
    for f in fields(section_cls):
        if f.name in coerced and isinstance(coerced[f.name], list):
            coerced[f.name] = tuple(coerced[f.name])
    return section_cls(**coerced)


def oracle_tool_config(data: dict) -> ToolConfig:
    """What `load_tool_config` built from a file holding the object `data`."""
    _check_keys(ToolConfig, data)
    try:
        return ToolConfig(
            markers=_build(Markers, data, "markers"),
            filter=_build(CorpusFilterConfig, data, "filter"),
            generation=_build(GenerationConfig, data, "generation"),
            parallelism=int(data.get("parallelism", os.cpu_count() or 1)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}")


@dataclass(frozen=True)
class OracleEntry:
    bug_id: str
    project_root: str
    file: str
    function_start: int
    function_end: int
    region: Region
    reference: str
    test_command: str
    checkout: Optional[str] = None
    timeout: Optional[float] = None


def oracle_parse_entry(index: int, item: dict) -> OracleEntry:
    if not isinstance(item, dict):
        raise ManifestError(index, "entry must be an object")
    try:
        span = item["function_span"]
        region = item["region"]
        timeout = item.get("timeout")
        entry = OracleEntry(
            bug_id=item["bug_id"],
            project_root=item["project_root"],
            file=item["file"],
            function_start=int(span[0]),
            function_end=int(span[1]),
            region=Region(int(region[0]), int(region[1])),
            reference=item["reference"],
            test_command=item["test_command"],
            checkout=item.get("checkout"),
            timeout=None if timeout is None else float(timeout),
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ManifestError(index, f"malformed entry: {exc}")
    for name in ("bug_id", "project_root", "file", "reference", "test_command", "checkout"):
        value = getattr(entry, name)
        if not (isinstance(value, str) or (value is None and name == "checkout")):
            raise ManifestError(index, f"{name} must be a string, not {value!r}")
    file = Path(entry.file)
    if file.is_absolute() or ".." in file.parts:
        raise ManifestError(index, f"file must be a path inside project_root: {entry.file!r}")
    if entry.timeout is not None and not 0 < entry.timeout < math.inf:
        raise ManifestError(index, f"timeout must be positive and finite: {timeout!r}")
    if not 1 <= entry.function_start <= entry.function_end:
        raise ManifestError(index, "bad function span")
    span_lines = entry.function_end - entry.function_start + 1
    try:
        entry.region.validate(span_lines)
    except InvalidRegion as exc:
        raise ManifestError(index, f"region outside function span: {exc}")
    if not entry.test_command.strip():
        raise ManifestError(index, "empty test command")
    if not entry.reference.strip():
        raise ManifestError(index, "missing reference function")
    return entry
