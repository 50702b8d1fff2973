"""Declarative run configuration for the CLI (single JSON document)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .corpus import FORMATS
from .features import FeatureConfig
from .pipeline import (
    DEFAULT_ARCHETYPE_SPECS,
    DEFAULT_RETRIEVAL_CONFIG,
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

    def to_dict(self) -> dict:
        return {
            "corpora": [
                {"path": c.path, "source": c.source, "format": c.format}
                for c in self.corpora
            ],
            "labeled_train": self.labeled_train,
            "labeled_test": self.labeled_test,
            "output_dir": self.output_dir,
            "retrieval": {
                "hashed_dim": self.retrieval.hashed_dim,
                "ngram_min": self.retrieval.ngram_min,
                "ngram_max": self.retrieval.ngram_max,
                "max_tokens": self.retrieval.max_tokens,
            },
            "archetypes": [
                {
                    "name": a.name,
                    "hashed_dim": a.hashed_dim,
                    "ngram_min": a.ngram_min,
                    "ngram_max": a.ngram_max,
                    "batch_size": a.batch_size,
                }
                for a in self.archetypes
            ],
            "k": self.k,
            "seeds": list(self.seeds),
            "n_folds": self.n_folds,
            "fold_seed": self.fold_seed,
            "hyper_pseudo": self.hyper_pseudo.to_dict(),
            "hyper_fine": self.hyper_fine.to_dict(),
            "hyper_baseline": self.hyper_baseline.to_dict(),
            "ridge_lambda_baseline": self.ridge_lambda_baseline,
            "setting": self.setting,
            "default_rating_std": self.default_rating_std,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _hyper_from(d: dict | None, fallback: HyperParams) -> HyperParams:
    if d is None:
        return fallback
    base = fallback.to_dict()
    base.update(d)
    try:
        return HyperParams.from_dict(base)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid hyperparameters: {exc}") from exc


# JSON type each scalar key must have; bool is rejected even where int is allowed
_SCALAR_TYPES = (
    ("k", int, "an integer"),
    ("n_folds", int, "an integer"),
    ("fold_seed", int, "an integer"),
    ("ridge_lambda_baseline", (int, float), "a number"),
    ("default_rating_std", (int, float), "a number"),
    ("setting", str, "a string"),
)


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

    try:
        corpora = [
            CorpusEntry(
                path=str(c["path"]),
                source=str(c["source"]),
                format=str(c.get("format", "plain-lines")),
            )
            for c in raw["corpora"]
        ]
        cfg = RunConfig(
            corpora=corpora,
            labeled_train=str(raw["labeled_train"]),
            labeled_test=raw.get("labeled_test"),
            output_dir=str(raw["output_dir"]),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"config {path} missing required field: {exc}") from exc

    if "retrieval" in raw:
        try:
            cfg.retrieval = FeatureConfig(**raw["retrieval"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid retrieval featurizer config: {exc}") from exc
    if "archetypes" in raw:
        try:
            cfg.archetypes = [ArchetypeSpec(**a) for a in raw["archetypes"]]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid archetype config: {exc}") from exc
    for key, kinds, kind_name in _SCALAR_TYPES:
        if key in raw:
            value = raw[key]
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ConfigError(f"{key} must be {kind_name}, got {value!r}")
            setattr(cfg, key, value)
    if "seeds" in raw:
        cfg.seeds = tuple(int(s) for s in raw["seeds"])
    cfg.hyper_pseudo = _hyper_from(raw.get("hyper_pseudo"), cfg.hyper_pseudo)
    cfg.hyper_fine = _hyper_from(raw.get("hyper_fine"), cfg.hyper_fine)
    cfg.hyper_baseline = _hyper_from(raw.get("hyper_baseline"), cfg.hyper_baseline)
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
    if not cfg.archetypes:
        raise ConfigError("config lists no archetypes")
    if len({a.name for a in cfg.archetypes}) != len(cfg.archetypes):
        raise ConfigError("archetype names must be unique")
    if cfg.setting not in SETTINGS:
        raise ConfigError(f"setting must be one of {SETTINGS}, got {cfg.setting!r}")
    if cfg.default_rating_std < 0:
        raise ConfigError("default_rating_std must be >= 0")
