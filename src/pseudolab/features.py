"""Deterministic sentence featurization: hashed char n-grams plus surface features.

The hashed block uses 64-bit FNV-1a with a sign trick and is L2-normalized;
the surface block is z-scored against corpus statistics. Stands in for a
learned sentence embedding at desk scale.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import parallel

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

# the largest feature dimension: simindex.save_index writes it as a uint32
MAX_DIMENSION = 2**32 - 1

# The most bytes one feature matrix may take. A stage refuses a featurizer
# whose float32 matrix of the rows it embeds would be larger before it
# allocates any, rather than fail in the allocation: 64 GiB, about 8 million
# rows of the widest default archetype.
MAX_MATRIX_BYTES = 2**36

# every text is truncated to its first MAX_TOKENS whitespace tokens before it is featurized
MAX_TOKENS = 128

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_FNV64_PRIME = np.uint64(FNV64_PRIME)

# Rows featurized at a time, so that peak memory does not grow with the batch:
# at 64 rows a chunk's float64 block of a 2,054-wide featurizer, and its
# n-gram counts, take about 1 MB each. Keep it a multiple of 64, so that a
# model scored on each chunk gives every row the bits it gets on the whole
# matrix (the rule of simindex.ROW_BLOCK). Work split over processes is split
# at multiples of it (see chunk_runs).
EMBED_CHUNK_ROWS = 64
# Rows per process in chunk_runs: one run per CHUNK_RUN_ROWS rows begun, so
# that 256 texts or fewer are embedded in this process, where a fork costs
# more than it saves.
CHUNK_RUN_ROWS = 256


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

    def __post_init__(self):
        if self.hashed_dim <= 0:
            raise ValueError("hashed_dim must be positive")
        if self.dimension > MAX_DIMENSION:
            raise ValueError(
                f"hashed_dim must be at most {MAX_DIMENSION - SURFACE_DIM}, so that the "
                "feature dimension fits the index's 32-bit field"
            )
        if not 1 <= self.ngram_min <= self.ngram_max:
            raise ValueError("ngram_min and ngram_max must satisfy 1 <= ngram_min <= ngram_max")

    @property
    def dimension(self) -> int:
        return self.hashed_dim + SURFACE_DIM

    def fingerprint(self) -> str:
        payload = json.dumps(
            {
                "hashed_dim": self.hashed_dim,
                "ngram_min": self.ngram_min,
                "ngram_max": self.ngram_max,
                "max_tokens": MAX_TOKENS,
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

    @property
    def fingerprint(self) -> str:
        return self.config.fingerprint()

    def to_dict(self) -> dict:
        return {
            "config": {**vars(self.config), "max_tokens": MAX_TOKENS},
            "means": self.means.tolist(),
            "stds": self.stds.tolist(),
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureStats":
        config = dict(d["config"])
        max_tokens = config.pop("max_tokens")
        if max_tokens != MAX_TOKENS:
            raise ValueError(f"feature stats max_tokens must be {MAX_TOKENS}, got {max_tokens!r}")
        stats = cls(
            config=FeatureConfig(**config),
            means=np.asarray(d["means"], dtype=np.float64),
            stds=np.asarray(d["stds"], dtype=np.float64),
        )
        if d["fingerprint"] != stats.fingerprint:
            raise ValueError("feature stats fingerprint does not match its config")
        for name, values in (("means", stats.means), ("stds", stats.stds)):
            if values.shape != (SURFACE_DIM,) or not np.all(np.isfinite(values)):
                raise ValueError(f"feature stats {name} must be {SURFACE_DIM} finite numbers")
        if not np.all(stats.stds >= STD_FLOOR):
            raise ValueError(f"feature stats stds must be at least {STD_FLOOR}")
        return stats


def truncate_tokens(text: str) -> str:
    tokens = text.split()
    if len(tokens) <= MAX_TOKENS:
        return text
    return " ".join(tokens[:MAX_TOKENS])


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
    # byte k of every character, zero and masked out past its width; byte
    # positions that no character has (all but the first, in ASCII) are skipped
    char_bytes = [np.concatenate([padded[starts + k], pad]) for k in range(4)]
    has_byte = [np.concatenate([widths > k, pad.astype(bool)]) for k in range(4)]
    later = [k for k in range(1, 4) if has_byte[k].any()]
    h = np.full(n_chars, FNV64_OFFSET, dtype=np.uint64)
    for n in range(n_max):
        window = slice(n, n + n_chars)
        h = h ^ char_bytes[0][window]  # every character has a first byte
        h *= _FNV64_PRIME
        for k in later:
            step = h ^ char_bytes[k][window]
            step *= _FNV64_PRIME
            np.copyto(h, step, where=has_byte[k][window])
        yield h


def _ngram_hashes(
    texts: Sequence[str], n_min: int, n_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every character n-gram of texts for n_min <= n <= n_max, grouped by n.

    Returns (rows, hashes, signs, bounds): gram i lies in texts[rows[i]], has
    FNV-1a 64 hash hashes[i] and sign signs[i] (+-1, the hash's top bit);
    the grams of length n are those from bounds[n - 1] to bounds[n], for n up
    to n_max or to the longest text, past which no text has a gram.
    """
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    n_max = min(n_max, int(lengths.max(initial=0)))
    text_of = np.repeat(np.arange(len(texts)), lengths)
    # characters from each position to the end of its own text
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(text_of.size)
    # a text of L characters has max(L - n + 1, 0) grams of length n
    sizes = [
        np.maximum(lengths - (n - 1), 0).sum() if n >= n_min else 0 for n in range(1, n_max + 1)
    ]
    bounds = np.cumsum([0] + sizes)
    rows = np.empty(bounds[-1], dtype=np.int64)
    hashes = np.empty(bounds[-1], dtype=np.uint64)
    for n, h in enumerate(_fnv1a64_windows("".join(texts), n_max), start=1):
        if n >= n_min:
            valid = room >= n
            np.compress(valid, text_of, out=rows[bounds[n - 1] : bounds[n]])
            np.compress(valid, h, out=hashes[bounds[n - 1] : bounds[n]])
    # the sign is the hash's top bit, which is the sign bit of its int64 view
    signs = np.copysign(1.0, hashes.view(np.int64))
    return rows, hashes, signs, bounds


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
    rows = _surface_block([truncate_tokens(t) for t in texts])
    means = rows.mean(axis=0)
    stds = rows.std(axis=0)
    # a column (near) constant on the corpus is centred but not scaled: dividing
    # by a floored std would blow any other value up to about 1 / STD_FLOOR
    stds[stds < STD_FLOOR] = 1.0
    return FeatureStats(config=config, means=means, stds=stds)


def fit_feature_stats_many(
    corpus: Iterable, configs: Iterable[FeatureConfig]
) -> list[FeatureStats]:
    """fit_feature_stats for each config, fitting once: the surface
    statistics depend on no field of the config."""
    configs = list(configs)
    fitted = fit_feature_stats(corpus, configs[0]) if configs else None
    return [replace(fitted, config=config) for config in configs]


def embed(text: str, stats: FeatureStats) -> np.ndarray:
    """Map a normalized sentence to its fixed-dimension feature vector."""
    return embed_many([text], [stats])[0][0]


def _write_features(
    block: np.ndarray, grams: tuple, surface: np.ndarray, stats: FeatureStats
) -> None:
    """Fill one featurizer's rows: the hashed block, then the z-scored surface block.

    `grams` is _ngram_hashes' result. Each hashed bucket sums +-1 per n-gram,
    so it holds an exact integer and the row does not depend on the other
    texts; a text with no n-gram gets a zero hashed block.
    """
    config = stats.config
    dim = config.hashed_dim
    rows, hashes, signs, bounds = grams
    top = len(bounds) - 1  # the longest gram of the chunk
    own = slice(bounds[min(config.ngram_min - 1, top)], bounds[min(config.ngram_max, top)])
    keys = rows[own] * dim + (hashes[own] % dim).astype(np.int64)
    counts = np.bincount(keys, weights=signs[own], minlength=len(block) * dim)
    counts = counts.reshape(len(block), dim)
    norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
    np.divide(counts, np.where(norms > 0.0, norms, 1.0)[:, None], out=block[:, :dim])
    z = (surface - stats.means) / stats.stds
    np.divide(z, np.sqrt(SURFACE_DIM), out=block[:, dim:])


def embed_chunks(
    texts: Sequence[str],
    stats_list: Sequence[FeatureStats],
    out: Sequence[np.ndarray] | None = None,
) -> Iterator[list[np.ndarray]]:
    """Featurize texts under every featurizer in one pass, EMBED_CHUNK_ROWS rows at a time.

    Yields, per chunk of texts in order, one block per featurizer: blocks[j]
    holds the chunk's feature rows under stats_list[j]. Per chunk, the token
    truncation, the surface block and the n-gram hashes (up to the largest
    ngram_max) are computed once; only the bucketing and the normalization
    run per featurizer. With `out` (one array of len(texts) rows per
    featurizer) the blocks are views of the chunk's rows of out[j]; without
    it they are buffers that the next chunk overwrites, so peak memory does
    not grow with the batch.
    """
    stats_list = list(stats_list)
    configs = [stats.config for stats in stats_list]
    if out is None:
        buffers = [
            np.empty((min(len(texts), EMBED_CHUNK_ROWS), s.config.dimension))
            for s in stats_list
        ]
    for start in range(0, len(texts), EMBED_CHUNK_ROWS):
        chunk = texts[start : start + EMBED_CHUNK_ROWS]
        if out is None:
            blocks = [buffer[: len(chunk)] for buffer in buffers]
        else:
            blocks = [matrix[start : start + len(chunk)] for matrix in out]
        if stats_list:
            truncated = [truncate_tokens(t) for t in chunk]
            surface = _surface_block(truncated)
            n_min, n_max = min(c.ngram_min for c in configs), max(c.ngram_max for c in configs)
            grams = _ngram_hashes(truncated, n_min, n_max)
            for block, stats in zip(blocks, stats_list):
                _write_features(block, grams, surface, stats)
        yield blocks


def chunk_runs(n_rows: int) -> list[tuple[int, int]]:
    """Split n_rows rows into contiguous (start, stop) runs of whole chunks, one per worker.

    There are parallel.worker_count(ceil(n_rows / CHUNK_RUN_ROWS)) runs of
    near-equal chunk counts, and each starts at a multiple of
    EMBED_CHUNK_ROWS, so a run embedded or scored on its own meets the
    chunks, and gives every row the bits, of one pass over all the rows.
    """
    chunks = -(-n_rows // EMBED_CHUNK_ROWS)
    parts = parallel.worker_count(-(-n_rows // CHUNK_RUN_ROWS))
    bounds = [min(n_rows, EMBED_CHUNK_ROWS * (chunks * p // parts)) for p in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def embed_many(
    texts: Sequence[str],
    stats_list: Sequence[FeatureStats],
    *,
    dtype: np.typing.DTypeLike = np.float64,
) -> list[np.ndarray]:
    """One feature matrix per featurizer, one row per text, from one embed_chunks pass.

    The features are computed in float64 and rounded once as they are written
    into matrices of `dtype`, so a float32 matrix is bitwise the float64 one
    cast with astype, and no float64 copy of it is held. With more than one
    chunk run (see chunk_runs), each run is embedded in a forked worker
    straight into matrices in shared memory.
    """
    runs = chunk_runs(len(texts))
    allocate = np.empty if len(runs) == 1 else parallel.shared_array
    out = [allocate((len(texts), s.config.dimension), dtype) for s in stats_list]

    def fill(part: int) -> None:
        start, stop = runs[part]
        for _ in embed_chunks(texts[start:stop], stats_list, [m[start:stop] for m in out]):
            pass

    parallel.map_forked(fill, len(runs), work="embedding")
    return out


def load_feature_stats(path) -> dict[str, FeatureStats]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return {name: FeatureStats.from_dict(d) for name, d in payload.items()}
