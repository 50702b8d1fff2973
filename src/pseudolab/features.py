"""Deterministic sentence featurization: hashed char n-grams plus surface features.

The hashed block uses 64-bit FNV-1a with a sign trick and is L2-normalized;
the surface block is z-scored against corpus statistics. Stands in for a
learned sentence embedding at desk scale.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Iterator, Sequence

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
_FNV64_PRIME = np.uint64(FNV64_PRIME)

# Rows featurized at a time, so that peak memory does not grow with the batch.
EMBED_CHUNK_ROWS = 1024


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
            raise ValueError("ngram_min and ngram_max must satisfy 1 <= ngram_min <= ngram_max")
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


def _fnv1a64_windows(text: str, n_max: int) -> Iterator[np.ndarray]:
    """FNV-1a 64 of the UTF-8 bytes of every window of 1..n_max characters of text.

    The n-th array yielded (n from 1) holds, at position i, the hash of
    text[i : i + n]; a window that runs past the end of text is not a valid
    n-gram and its entry is meaningless. Each window's state is extended by
    one character, that is by its 1-4 UTF-8 bytes, per step, with wrapping
    uint64 arithmetic, so the result equals fnv1a64(gram.encode("utf-8")).
    """
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    starts = np.flatnonzero((raw & 0xC0) != 0x80)  # not a continuation byte
    n_chars = starts.size
    widths = np.diff(starts, append=raw.size)
    padded = np.concatenate([raw, np.zeros(3, dtype=np.uint8)])
    pad = np.zeros(n_max, dtype=np.uint8)
    # byte k of every character, zero and masked out past its width
    char_bytes = [np.concatenate([padded[starts + k], pad]) for k in range(4)]
    has_byte = [np.concatenate([widths > k, pad.astype(bool)]) for k in range(4)]
    h = np.full(n_chars, FNV64_OFFSET, dtype=np.uint64)
    for n in range(n_max):
        window = slice(n, n + n_chars)
        h = (h ^ char_bytes[0][window]) * _FNV64_PRIME  # every character has a first byte
        for k in range(1, 4):
            h = np.where(has_byte[k][window], (h ^ char_bytes[k][window]) * _FNV64_PRIME, h)
        yield h


def _hashed_block(texts: Sequence[str], config: FeatureConfig) -> np.ndarray:
    """Feature-hashed character n-grams, one L2-normalized row per text.

    Each bucket sums +-1 per n-gram (the sign is the hash's top bit), so it
    holds an exact integer and the row does not depend on the other texts.
    A text with no n-gram gets a zero row.
    """
    dim = config.hashed_dim
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    rows = np.repeat(np.arange(len(texts)), lengths)
    # characters from each position to the end of its own text
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(rows.size)
    keys, signs = [], []
    for n, h in enumerate(_fnv1a64_windows("".join(texts), config.ngram_max), start=1):
        if n < config.ngram_min:
            continue
        valid = room >= n
        h = h[valid]
        keys.append(rows[valid] * dim + (h % dim).astype(np.int64))
        signs.append(np.where(h >> 63 == 0, 1.0, -1.0))
    block = np.bincount(
        np.concatenate(keys), weights=np.concatenate(signs), minlength=len(texts) * dim
    ).reshape(len(texts), dim)
    norms = np.sqrt(np.einsum("ij,ij->i", block, block))
    return block / np.where(norms > 0.0, norms, 1.0)[:, None]


def _surface_block(texts: Sequence[str]) -> np.ndarray:
    """The SURFACE_FEATURES of each text, one row per text."""
    # str.isdigit per distinct character; translate drops the digits in C
    digits = {ord(c): None for c in set().union(*texts) if c.isdigit()}
    feats = np.array(
        [
            (len(t), len(s), len("".join(s)), t.count(","),
             len(t) - len(t.translate(digits)), len(set(s)))
            for t, s in ((t, t.split()) for t in texts)
        ],
        dtype=np.float64,
    ).reshape(len(texts), SURFACE_DIM)
    # means per token and per character; each numerator is 0 where its denominator is
    for col, denom in ((2, 1), (4, 0), (5, 1)):
        np.divide(feats[:, col], feats[:, denom], out=feats[:, col], where=feats[:, denom] > 0)
    return feats


def fit_feature_stats(corpus: Iterable, config: FeatureConfig) -> FeatureStats:
    """Fit surface-feature means/stds over a corpus (records or plain strings)."""
    texts = [getattr(r, "text", r) for r in corpus]
    if not texts:
        raise ValueError("cannot fit feature stats on an empty corpus")
    rows = _surface_block([truncate_tokens(t, config.max_tokens) for t in texts])
    means = rows.mean(axis=0)
    stds = np.maximum(rows.std(axis=0), STD_FLOOR)
    return FeatureStats(
        config=config, means=means, stds=stds, fingerprint=config.fingerprint()
    )


def fit_feature_stats_many(
    corpus: Iterable, configs: Iterable[FeatureConfig]
) -> list[FeatureStats]:
    """fit_feature_stats for each config, fitting once per distinct max_tokens.

    The surface statistics depend on no other field of the config.
    """
    corpus = list(corpus)
    fitted: dict[int, FeatureStats] = {}
    result = []
    for config in configs:
        if config.max_tokens not in fitted:
            fitted[config.max_tokens] = fit_feature_stats(corpus, config)
        result.append(
            replace(fitted[config.max_tokens], config=config, fingerprint=config.fingerprint())
        )
    return result


def embed(text: str, stats: FeatureStats) -> np.ndarray:
    """Map a normalized sentence to its fixed-dimension feature vector."""
    return embed_many([text], stats)[0]


def embed_many(texts: Sequence[str], stats: FeatureStats) -> np.ndarray:
    """One feature row per text: the hashed block, then the z-scored surface block.

    Texts are featurized EMBED_CHUNK_ROWS at a time, so peak memory does not
    grow with the batch; a row does not depend on which texts share its chunk.
    """
    config = stats.config
    if stats.fingerprint != config.fingerprint():
        raise ValueError("feature stats fingerprint does not match its config")
    out = np.empty((len(texts), config.dimension), dtype=np.float64)
    for start in range(0, len(texts), EMBED_CHUNK_ROWS):
        chunk = [
            truncate_tokens(t, config.max_tokens)
            for t in texts[start : start + EMBED_CHUNK_ROWS]
        ]
        rows = slice(start, start + len(chunk))
        out[rows, : config.hashed_dim] = _hashed_block(chunk, config)
        surface = (_surface_block(chunk) - stats.means) / stats.stds
        out[rows, config.hashed_dim :] = surface / np.sqrt(SURFACE_DIM)
    return out


def save_feature_stats(stats_by_name: dict[str, FeatureStats], path) -> None:
    payload = {name: s.to_dict() for name, s in sorted(stats_by_name.items())}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_feature_stats(path) -> dict[str, FeatureStats]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return {name: FeatureStats.from_dict(d) for name, d in payload.items()}
