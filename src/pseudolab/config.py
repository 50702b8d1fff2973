"""Declarative run configuration for the CLI (single JSON document)."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .corpus import FORMATS
from .features import FeatureConfig
from .pipeline import (
    DEFAULT_ARCHETYPE_SPECS,
    DEFAULT_RETRIEVAL_CONFIG,
    RETRIEVAL,
    SETTINGS,
    ArchetypeSpec,
    PipelineConfig,
)
from .scorer import HyperParams


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
    setting: str = "ensemble_mean"
    default_rating_std: float = 0.5

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


# JSON type of each declared field type; bool is rejected even where int is allowed
_JSON_KINDS = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
    "bool": (bool, "a boolean"),
}

_SCALAR_KINDS = (
    ("labeled_train", "str"),
    ("output_dir", "str"),
    ("k", "int"),
    ("n_folds", "int"),
    ("fold_seed", "int"),
    ("ridge_lambda_baseline", "float"),
    ("default_rating_std", "float"),
    ("setting", "str"),
)


def _check_kind(name: str, value, kind: str) -> None:
    kinds, kind_name = _JSON_KINDS[kind]
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, kinds):
        raise ConfigError(f"{name} must be {kind_name}, got {value!r}")


def _build(cls, value, name: str, defaults: dict | None = None):
    """Build a config dataclass from a JSON object, checking each field's type."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object, got {value!r}")
    declared = {f.name: f.type for f in fields(cls)}
    for key, item in value.items():
        if key not in declared:
            raise ConfigError(f"{name} has unknown key {key!r}")
        _check_kind(f"{name}.{key}", item, declared[key])
    try:
        return cls(**{**(defaults or {}), **value})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {name}: {exc}") from exc


def _build_list(cls, value, name: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return [_build(cls, item, f"{name}[{i}]") for i, item in enumerate(value)]


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ConfigError(f"config {path} has unknown key(s): {', '.join(unknown)}")
    missing = [key for key in ("corpora", "labeled_train", "output_dir") if key not in raw]
    if missing:
        raise ConfigError(f"config {path} missing required field(s): {', '.join(missing)}")

    for key, kind in _SCALAR_KINDS:
        if key in raw:
            _check_kind(key, raw[key], kind)
    labeled_test = raw.get("labeled_test")
    if labeled_test is not None:
        _check_kind("labeled_test", labeled_test, "str")

    cfg = RunConfig(
        corpora=_build_list(CorpusEntry, raw["corpora"], "corpora"),
        **{key: raw[key] for key, _ in _SCALAR_KINDS if key in raw},
        labeled_test=labeled_test,
    )
    if "seeds" in raw:
        seeds = raw["seeds"]
        if not isinstance(seeds, list) or not seeds:
            raise ConfigError(f"seeds must be a non-empty list of integers, got {seeds!r}")
        for i, seed in enumerate(seeds):
            _check_kind(f"seeds[{i}]", seed, "int")
        cfg.seeds = tuple(seeds)
    if "retrieval" in raw:
        cfg.retrieval = _build(FeatureConfig, raw["retrieval"], "retrieval")
    if "archetypes" in raw:
        cfg.archetypes = _build_list(ArchetypeSpec, raw["archetypes"], "archetypes")
    for key in ("hyper_pseudo", "hyper_fine", "hyper_baseline"):
        if key in raw:
            defaults = asdict(getattr(cfg, key))
            setattr(cfg, key, _build(HyperParams, raw[key], key, defaults))
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    if not cfg.corpora:
        raise ConfigError("config lists no corpora")
    for entry in cfg.corpora:
        if entry.format not in FORMATS:
            raise ConfigError(f"unknown corpus format {entry.format!r}")
        if not Path(entry.path).is_file():
            raise ConfigError(f"corpus file does not exist: {entry.path}")
    if not Path(cfg.labeled_train).is_file():
        raise ConfigError(f"labeled train file does not exist: {cfg.labeled_train}")
    if cfg.labeled_test is not None and not Path(cfg.labeled_test).is_file():
        raise ConfigError(f"labeled test file does not exist: {cfg.labeled_test}")
    if cfg.k <= 0:
        raise ConfigError("k must be a positive integer")
    if cfg.n_folds < 2:
        raise ConfigError("n_folds must be at least 2")
    if not cfg.seeds or any(s <= 0 for s in cfg.seeds):
        raise ConfigError("seeds must be positive integers")
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
    if cfg.default_rating_std < 0:
        raise ConfigError("default_rating_std must be >= 0")
