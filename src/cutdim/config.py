"""Run configuration with file, environment, and flag layering.

Precedence, lowest to highest: built-in defaults, config file (JSON),
CUTDIM_* environment variables, explicit overrides (CLI flags).  Every
field can come from any layer; unknown keys in a config file are
rejected so typos do not silently fall back to defaults.  Each field
carries one parser that reads its value from any layer (a JSON scalar,
environment text or flag text) and checks its range.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Mapping, Optional

from .rational import rat

ENV_PREFIX = "CUTDIM_"


def _whole(raw) -> int:
    if isinstance(raw, float) and raw.is_integer():
        raw = int(raw)
    try:
        if isinstance(raw, (int, str)) and not isinstance(raw, bool):
            return int(raw)
    except ValueError:
        pass
    raise ValueError(f"expected a whole number, not {raw!r}")


def _checked(parse, ok, requirement: str):
    def parse_checked(raw):
        value = parse(raw)
        if not ok(value):
            raise ValueError(f"must be {requirement}, not {raw!r}")
        return value

    return parse_checked


def _or_none(parse):
    """`parse`, with null, empty text and `none` meaning no limit."""
    return lambda raw: None if raw in (None, "", "none") else parse(raw)


def _path(raw) -> Optional[str]:
    if raw is not None and not isinstance(raw, str):
        raise ValueError(f"expected a path, not {raw!r}")
    return raw or None


def _one_of(kind: str, *choices: str):
    def parse(raw) -> str:
        if raw not in choices:
            raise ValueError(f"unknown {kind} {raw!r}, expected {' or '.join(choices)}")
        return raw

    return parse


def _on_off(raw) -> bool:
    if isinstance(raw, bool):
        return raw
    word = raw.lower() if isinstance(raw, str) else None
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected on or off, not {raw!r}")


_RATIONAL = _checked(rat, lambda v: v >= 0, "nonnegative")
_SECONDS = _or_none(_checked(float, lambda v: v > 0, "positive seconds or none"))
_COUNT = _checked(_whole, lambda v: v >= 1, "at least 1")
_NODES = _or_none(_COUNT)


def _setting(default, parse, help: str, **cli):
    """A field with its parser and flag help.

    `cli` spells out a flag other than `--` plus the field name with
    dashes (`flag=`), or one that passes a fixed text (`const=`).
    """
    return dataclasses.field(default=default, metadata={"parse": parse, "help": help, **cli})


@dataclass
class RunConfig:
    tolerance: object = _setting(rat(1, 10000), _RATIONAL, "cut classification slack")
    hull_time_budget: Optional[float] = _setting(600.0, _SECONDS, "seconds per hull run, or none")
    face_time_budget: Optional[float] = _setting(600.0, _SECONDS, "seconds per face run, or none")
    solve_time_limit: Optional[float] = _setting(60.0, _SECONDS, "seconds per solve, or none")
    solve_node_limit: Optional[int] = _setting(None, _NODES, "nodes per oracle solve, or none")
    impact_node_limit: Optional[int] = _setting(None, _NODES, "cap on the node budget N, or none")
    jobs: int = _setting(1, _COUNT, "concurrent cut analyses")
    output: Optional[str] = _setting(None, _path, "report path; unset prints to stdout")
    output_format: str = _setting(
        "json", _one_of("output format", "json", "csv"), "json or csv", flag="--format"
    )
    engine: str = _setting("solver", _one_of("engine", "solver", "lattice"), "solver or lattice")
    verify_oracle: bool = _setting(
        True, _on_off, "skip rechecking oracle answers", flag="--no-verify", const="off"
    )
    seed: int = _setting(2024, _whole, "generator seed for the selftest suites")

    def validate(self) -> None:
        """Re-run every field's parser on the current values."""
        for f in dataclasses.fields(self):
            _parse(f, getattr(self, f.name), f.name)


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse(f: dataclasses.Field, raw, where: str):
    """Read one field's raw value; an error names `where` it came from."""
    if isinstance(raw, str):
        raw = raw.strip()
    try:
        return f.metadata["parse"](raw)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def load_config(
    path: Optional[str] = None,
    env: Optional[Mapping[str, str]] = None,
    overrides: Optional[Mapping[str, object]] = None,
) -> RunConfig:
    """Build a validated RunConfig from the three layers."""
    cfg = RunConfig()

    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        for key, value in doc.items():
            if key not in _FIELDS:
                raise ValueError(f"{path}: unknown config key {key!r}")
            setattr(cfg, key, _parse(_FIELDS[key], value, f"{path}: {key}"))

    env = os.environ if env is None else env
    for name, f in _FIELDS.items():
        var = ENV_PREFIX + name.upper()
        if var in env:
            setattr(cfg, name, _parse(f, env[var], var))

    for key, value in (overrides or {}).items():
        if key not in _FIELDS:
            raise ValueError(f"unknown config field {key!r}")
        if value is not None:
            setattr(cfg, key, _parse(_FIELDS[key], value, key))

    return cfg
