"""Deterministic sentence featurization: hashed char n-grams plus surface features.

The hashed block uses 64-bit FNV-1a with a sign trick and is L2-normalized;
the surface block is z-scored against corpus statistics. Stands in for a
learned sentence embedding at desk scale.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

SURFACE_FEATURES = (
    "char_count",
    "token_count",
    "mean_token_len",
    "comma_count",
    "digit_ratio",
    "type_token_ratio",
)
SURFACE_DIM = len(SURFACE_FEATURES)

STD_FLOOR = 1e-9

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a over raw bytes."""
    h = FNV64_OFFSET
    for b in data:
        h = ((h ^ b) * FNV64_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class FeatureConfig:
    hashed_dim: int = 2048
    ngram_min: int = 3
    ngram_max: int = 5
    max_tokens: int = 128

    def __post_init__(self):
        if self.hashed_dim <= 0:
            raise ValueError("hashed_dim must be positive")
        if not 1 <= self.ngram_min <= self.ngram_max:
            raise ValueError("invalid n-gram range")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")

    @property
    def dimension(self) -> int:
        return self.hashed_dim + SURFACE_DIM

    def fingerprint(self) -> str:
        payload = json.dumps(
            {
                "hashed_dim": self.hashed_dim,
                "ngram_min": self.ngram_min,
                "ngram_max": self.ngram_max,
                "max_tokens": self.max_tokens,
                "surface": list(SURFACE_FEATURES),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class FeatureStats:
    """Per-surface-feature mean/std fitted on a reference corpus."""

    config: FeatureConfig
    means: np.ndarray
    stds: np.ndarray
    fingerprint: str

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "means": self.means.tolist(),
            "stds": self.stds.tolist(),
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureStats":
        config = FeatureConfig(**d["config"])
        stats = cls(
            config=config,
            means=np.asarray(d["means"], dtype=np.float64),
            stds=np.asarray(d["stds"], dtype=np.float64),
            fingerprint=d["fingerprint"],
        )
        if stats.fingerprint != config.fingerprint():
            raise ValueError("feature stats fingerprint does not match its config")
        return stats


def truncate_tokens(text: str, max_tokens: int) -> str:
    tokens = text.split()
    if len(tokens) <= max_tokens:
        return text
    return " ".join(tokens[:max_tokens])


def surface_features(text: str) -> np.ndarray:
    tokens = text.split()
    n_chars = len(text)
    n_tokens = len(tokens)
    feats = np.zeros(SURFACE_DIM, dtype=np.float64)
    feats[0] = n_chars
    feats[1] = n_tokens
    feats[2] = sum(len(t) for t in tokens) / n_tokens if n_tokens else 0.0
    feats[3] = text.count(",")
    feats[4] = sum(ch.isdigit() for ch in text) / n_chars if n_chars else 0.0
    feats[5] = len(set(tokens)) / n_tokens if n_tokens else 0.0
    return feats


@lru_cache(maxsize=1 << 20)
def _gram_fnv(gram: str) -> int:
    # grams repeat heavily across a corpus; caching avoids rehashing
    return fnv1a64(gram.encode("utf-8"))


def hashed_ngram_block(text: str, config: FeatureConfig) -> np.ndarray:
    """Feature-hashed character n-grams, L2-normalized (zero vector if no grams)."""
    vec = np.zeros(config.hashed_dim, dtype=np.float64)
    for n in range(config.ngram_min, config.ngram_max + 1):
        for i in range(len(text) - n + 1):
            h = _gram_fnv(text[i : i + n])
            sign = 1.0 if (h >> 63) == 0 else -1.0
            vec[h % config.hashed_dim] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def fit_feature_stats(corpus: Iterable, config: FeatureConfig) -> FeatureStats:
    """Fit surface-feature means/stds over a corpus (records or plain strings)."""
    texts = [getattr(r, "text", r) for r in corpus]
    if not texts:
        raise ValueError("cannot fit feature stats on an empty corpus")
    rows = np.stack(
        [surface_features(truncate_tokens(t, config.max_tokens)) for t in texts]
    )
    means = rows.mean(axis=0)
    stds = np.maximum(rows.std(axis=0), STD_FLOOR)
    return FeatureStats(
        config=config, means=means, stds=stds, fingerprint=config.fingerprint()
    )


def embed(text: str, stats: FeatureStats) -> np.ndarray:
    """Map a normalized sentence to its fixed-dimension feature vector."""
    config = stats.config
    if stats.fingerprint != config.fingerprint():
        raise ValueError("feature stats fingerprint does not match its config")
    text = truncate_tokens(text, config.max_tokens)
    hashed = hashed_ngram_block(text, config)
    surface = (surface_features(text) - stats.means) / stats.stds
    surface /= np.sqrt(SURFACE_DIM)
    return np.concatenate([hashed, surface])


def embed_many(texts: Sequence[str], stats: FeatureStats) -> np.ndarray:
    if not texts:
        return np.zeros((0, stats.config.dimension), dtype=np.float64)
    return np.stack([embed(t, stats) for t in texts])


def save_feature_stats(stats_by_name: dict[str, FeatureStats], path) -> None:
    payload = {name: s.to_dict() for name, s in sorted(stats_by_name.items())}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_feature_stats(path) -> dict[str, FeatureStats]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return {name: FeatureStats.from_dict(d) for name, d in payload.items()}
