"""Declarative run configuration for the CLI (single JSON document).

The type of each key is its dataclass annotation, read by one parser.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, Field, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

from .artifacts import json_text
from .corpus import FORMATS
from .features import FeatureConfig
from .pipeline import (
    DEFAULT_ARCHETYPE_SPECS,
    DEFAULT_RETRIEVAL_CONFIG,
    DEFAULT_SETTING,
    RETRIEVAL,
    SETTINGS,
    ArchetypeSpec,
    PipelineConfig,
)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class CorpusEntry:
    path: str
    source: str
    format: str = "plain-lines"


@dataclass(kw_only=True)
class RunConfig(PipelineConfig):
    corpora: list[CorpusEntry]
    labeled_train: str
    output_dir: str
    labeled_test: str | None = None
    retrieval: FeatureConfig = DEFAULT_RETRIEVAL_CONFIG
    archetypes: list[ArchetypeSpec] = field(
        default_factory=lambda: list(DEFAULT_ARCHETYPE_SPECS)
    )
    fold_seed: int = 1
    setting: str = DEFAULT_SETTING

    def canonical_json(self) -> str:
        return json_text(asdict(self))


# the JSON values each scalar annotation accepts; bool is rejected even where int is allowed
_SCALARS = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
    bool: (bool, "a boolean"),
}


def _parse(tp, value, name: str, default=None):
    """Read the JSON `value` of config key `name` as its annotation `tp`.

    A nested config object may leave fields out: they keep the values of
    `default`, or the class defaults where `default` is None.
    """
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):  # T | None
        (inner,) = [a for a in args if a is not type(None)]
        return None if value is None else _parse(inner, value, name, default)
    if origin in (list, tuple):  # list[T] or tuple[T, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return origin(_parse(args[0], item, f"{name}[{i}]") for i, item in enumerate(value))
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be an object, got {value!r}")
        hints = get_type_hints(tp)
        parsed = {}
        for key, item in value.items():
            if key not in hints:
                raise ConfigError(f"{name} has unknown key {key!r}")
            parsed[key] = _parse(hints[key], item, f"{name}.{key}", getattr(default, key, None))
        try:
            return tp(**parsed) if default is None else replace(default, **parsed)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid {name}: {exc}") from exc
    kinds, kind_name = _SCALARS[tp]
    if isinstance(value, bool) != (tp is bool) or not isinstance(value, kinds):
        raise ConfigError(f"{name} must be {kind_name}, got {value!r}")
    if tp is float and not math.isfinite(value):  # json.loads reads NaN and Infinity
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return value


def _default(f: Field):
    """The default value of a dataclass field, or None where it has none."""
    if f.default_factory is not MISSING:
        return f.default_factory()
    return None if f.default is MISSING else f.default


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    declared = {f.name: f for f in fields(RunConfig)}
    unknown = sorted(set(raw) - set(declared))
    if unknown:
        raise ConfigError(f"config {path} has unknown key(s): {', '.join(unknown)}")
    missing = [
        key for key, f in declared.items()
        if key not in raw and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ConfigError(f"config {path} missing required field(s): {', '.join(missing)}")
    hints = get_type_hints(RunConfig)
    cfg = RunConfig(
        **{
            key: _parse(hints[key], value, key, _default(declared[key]))
            for key, value in raw.items()
        }
    )
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    if not cfg.corpora:
        raise ConfigError("config lists no corpora")
    for entry in cfg.corpora:
        if entry.format not in FORMATS:
            raise ConfigError(f"unknown corpus format {entry.format!r}")
        if not Path(entry.path).is_file():
            raise ConfigError(f"corpus file does not exist: {entry.path!r}")
    if not Path(cfg.labeled_train).is_file():
        raise ConfigError(f"labeled_train file does not exist: {cfg.labeled_train!r}")
    if cfg.labeled_test is not None and not Path(cfg.labeled_test).is_file():
        raise ConfigError(f"labeled_test file does not exist: {cfg.labeled_test!r}")
    if cfg.k <= 0:
        raise ConfigError("k must be a positive integer")
    if cfg.n_folds < 2:
        raise ConfigError("n_folds must be at least 2")
    if cfg.fold_seed < 0:  # it seeds np.random.default_rng
        raise ConfigError(f"fold_seed must be a non-negative integer, got {cfg.fold_seed}")
    if not cfg.seeds or any(s <= 0 for s in cfg.seeds):
        raise ConfigError(
            f"seeds must be a non-empty list of positive integers, got {list(cfg.seeds)}"
        )
    if len(set(cfg.seeds)) < len(cfg.seeds):  # a seed keys its models and their files
        raise ConfigError(f"seeds must be distinct, got {list(cfg.seeds)}")
    if not cfg.archetypes:
        raise ConfigError("config lists no archetypes")
    if len({a.name for a in cfg.archetypes}) != len(cfg.archetypes):
        raise ConfigError("archetype names must be unique")
    if any(a.name == RETRIEVAL for a in cfg.archetypes):
        raise ConfigError(
            f"archetype name {RETRIEVAL!r} is reserved for the retrieval featurizer"
        )
    if cfg.setting not in SETTINGS:
        raise ConfigError(f"setting must be one of {SETTINGS}, got {cfg.setting!r}")
