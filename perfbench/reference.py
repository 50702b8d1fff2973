"""Reference featurizer and brute-force retrieval oracle for the output checks.

Written from the documented method, without importing pseudolab.features or
pseudolab.simindex, so that a change to either module is checked against an
implementation it does not share:

- character n-grams of every length in [ngram_min, ngram_max] over the text
  truncated to max_tokens whitespace tokens, each hashed with 64-bit FNV-1a
  over its UTF-8 bytes; bucket = hash mod hashed_dim, sign = +1 when the top
  bit is clear and -1 when it is set; the bucket vector is L2-normalised;
- six surface features (characters, tokens, mean token length, commas,
  digit share, type/token ratio), z-scored with the means and stds stored in
  feature_stats.json and scaled by 1/sqrt(6);
- exact cosine top-k in float64, ties broken by ascending id.
"""

from __future__ import annotations

import math

import numpy as np

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
MASK64 = (1 << 64) - 1
SURFACE_DIM = 6


def fnv1a64(data: bytes) -> int:
    h = FNV64_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV64_PRIME) & MASK64
    return h


class Featurizer:
    """One featurizer as stored in feature_stats.json or a bundle manifest."""

    def __init__(self, stats: dict):
        config = stats["config"]
        self.dim = int(config["hashed_dim"])
        self.ngram_min = int(config["ngram_min"])
        self.ngram_max = int(config["ngram_max"])
        self.max_tokens = int(config["max_tokens"])
        self.means = np.asarray(stats["means"], dtype=np.float64)
        self.stds = np.asarray(stats["stds"], dtype=np.float64)
        self.fingerprint = stats["fingerprint"]
        self._grams: dict[str, int] = {}

    def hashed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float64)
        for n in range(self.ngram_min, self.ngram_max + 1):
            for i in range(len(text) - n + 1):
                gram = text[i : i + n]
                h = self._grams.get(gram)
                if h is None:
                    h = self._grams[gram] = fnv1a64(gram.encode("utf-8"))
                vec[h % self.dim] += -1.0 if h >> 63 else 1.0
        norm = math.sqrt(float(vec @ vec))
        return vec / norm if norm > 0.0 else vec

    def embed(self, text: str) -> np.ndarray:
        text = truncate(text, self.max_tokens)
        surface = (surface_features(text) - self.means) / self.stds / math.sqrt(SURFACE_DIM)
        return np.concatenate([self.hashed(text), surface])

    def embed_many(self, texts) -> np.ndarray:
        return np.stack([self.embed(t) for t in texts])


def truncate(text: str, max_tokens: int) -> str:
    tokens = text.split()
    return text if len(tokens) <= max_tokens else " ".join(tokens[:max_tokens])


def surface_features(text: str) -> np.ndarray:
    tokens = text.split()
    n_chars, n_tokens = len(text), len(tokens)
    return np.array(
        [
            n_chars,
            n_tokens,
            sum(map(len, tokens)) / n_tokens if n_tokens else 0.0,
            text.count(","),
            sum(ch.isdigit() for ch in text) / n_chars if n_chars else 0.0,
            len(set(tokens)) / n_tokens if n_tokens else 0.0,
        ],
        dtype=np.float64,
    )


def surface_stats(texts, max_tokens: int) -> tuple[np.ndarray, np.ndarray]:
    """Population mean and std of the surface features over a corpus."""
    rows = np.stack(
        [surface_features(truncate(t, max_tokens)) for t in texts]
    )
    return rows.mean(axis=0), rows.std(axis=0)


def cosine_matrix(vectors: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Cosine similarity of every query (rows) to every vector, in float64."""
    v = np.asarray(vectors, dtype=np.float64)
    q = np.asarray(queries, dtype=np.float64)
    v_norm = np.linalg.norm(v, axis=1)
    q_norm = np.linalg.norm(q, axis=1)
    dots = q @ v.T
    denom = np.outer(q_norm, v_norm)
    return np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)


def top_k(sims: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k best similarities, descending, ties by ascending id."""
    order = np.lexsort((ids, -sims))
    return order[: min(k, order.size)]
