"""Exact top-k cosine similarity search over an immutable vector index."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

MAGIC = b"SXI1"
VERSION = 1

# Queries per GEMM in top_k_many: the block's similarities take
# QUERY_BLOCK x N x 8 bytes (2.6 MB at 5k sentences, 113 MB at 220k).
QUERY_BLOCK = 64

# Hits whose similarities lie within TIE_MARGIN of each other are rescored so
# that their order does not depend on how BLAS summed the GEMM. Two summation
# orders of a d-term dot product differ by at most about 2*d*2**-53 times
# |v||q|, so the margin must exceed twice that, 4*d*2**-53: 1e-9 covers
# d <= 10**6.
TIE_MARGIN = 1e-9


class IndexFormatError(ValueError):
    """Raised when a persisted index file is malformed or corrupted."""


@dataclass(frozen=True)
class Hit:
    id: int
    similarity: float


class VectorIndex:
    """Immutable cosine-similarity index (exact scan), stored as float32."""

    def __init__(self, ids: np.ndarray, vectors: np.ndarray, fingerprint: str):
        self.ids = ids
        self.vectors = vectors
        self.fingerprint = fingerprint
        self.norms = np.linalg.norm(np.asarray(vectors, dtype=np.float64), axis=1)

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def count(self) -> int:
        return int(self.vectors.shape[0])


def build_index(
    vectors: Iterable[tuple[int, np.ndarray]] | Sequence[tuple[int, np.ndarray]],
    fingerprint: str = "",
    dimension: int | None = None,
) -> VectorIndex:
    items = list(vectors)
    if not items:
        dim = dimension if dimension is not None else 0
        return VectorIndex(
            np.zeros(0, dtype=np.int64), np.zeros((0, dim), dtype=np.float32), fingerprint
        )
    ids = np.array([int(i) for i, _ in items], dtype=np.int64)
    if len(set(ids.tolist())) != len(ids):
        raise ValueError("duplicate ids in index input")
    dims = {len(v) for _, v in items}
    if len(dims) != 1:
        raise ValueError(f"inconsistent vector dimensions: {sorted(dims)}")
    if dimension is not None and dims != {dimension}:
        raise ValueError("vector dimension does not match declared dimension")
    mat = np.stack([np.asarray(v, dtype=np.float32) for _, v in items])
    return VectorIndex(ids, mat, fingerprint)


def top_k_many(
    index: VectorIndex,
    queries: np.ndarray,
    k: int,
    exclude: set[int] | frozenset[int] | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact top-k by cosine for each row of queries, as (ids, similarities).

    Hits are ordered by descending similarity, ties by ascending id, and a
    query gets the same ids in the same order alone or in any block of
    queries (see _select). A zero query gets no hits.
    """
    if k <= 0:
        raise ValueError("k must be a positive integer")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != index.dimension:
        raise ValueError(
            f"query dimension {queries.shape[1:]} does not match index dimension {index.dimension}"
        )
    keep = slice(None)
    if exclude:
        keep = ~np.isin(index.ids, np.fromiter(exclude, dtype=np.int64, count=len(exclude)))
    ids, norms = index.ids[keep], index.norms[keep]
    vectors = np.asarray(index.vectors[keep], dtype=np.float64)
    qnorms = np.linalg.norm(queries, axis=1)
    no_hits = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))
    results = []
    for start in range(0, len(queries), QUERY_BLOCK):
        block = queries[start : start + QUERY_BLOCK]
        dots = block @ vectors.T
        for query, qnorm, row in zip(block, qnorms[start : start + len(block)], dots):
            if qnorm == 0.0 or ids.size == 0:
                results.append(no_hits)
            else:
                sims = _cosines(row, norms * qnorm)
                results.append(_select(ids, vectors, norms, query, qnorm, sims, k))
    return results


def _cosines(dots: np.ndarray, denom: np.ndarray) -> np.ndarray:
    return np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)


def _select(ids, vectors, norms, query, qnorm, sims, k) -> tuple[np.ndarray, np.ndarray]:
    """The k best of one query's GEMM similarities, in the canonical order.

    Every item within TIE_MARGIN of the k-th similarity stays in the pool.
    Items whose similarities chain within TIE_MARGIN of each other are
    rescored by a per-row reduction that depends only on the two vectors.
    A GEMM similarity is within TIE_MARGIN / 2 of the rescored one, so items
    more than TIE_MARGIN apart already compare as rescored ones would, and
    the order is that of (-rescored similarity, id) whatever BLAS did.
    """
    pool = np.arange(sims.size)
    if k < sims.size:
        kth = sims[np.argpartition(-sims, k - 1)[k - 1]]
        pool = np.flatnonzero(sims >= kth - TIE_MARGIN)
    order = pool[np.lexsort((ids[pool], -sims[pool]))]
    ranked = sims[order]
    close = ranked[:-1] - ranked[1:] <= TIE_MARGIN
    tied = np.flatnonzero(np.append(close, False) | np.insert(close, 0, False))
    if tied.size:
        rows = order[tied]
        ranked[tied] = _cosines(np.add.reduce(vectors[rows] * query, axis=1), norms[rows] * qnorm)
        resort = np.lexsort((ids[order], -ranked))
        order, ranked = order[resort], ranked[resort]
    return ids[order[:k]], ranked[:k]


def top_k(
    index: VectorIndex,
    query: np.ndarray,
    k: int,
    exclude: set[int] | frozenset[int] | None = None,
) -> list[Hit]:
    """top_k_many for one query, as hits; empty for a zero query."""
    ids, sims = top_k_many(index, np.asarray(query, dtype=np.float64)[None], k, exclude)[0]
    return [Hit(i, s) for i, s in zip(ids.tolist(), sims.tolist())]


def save_index(index: VectorIndex, path: str | Path) -> None:
    fp = index.fingerprint.encode("utf-8")
    ids_bytes = index.ids.astype("<i8").tobytes()
    vec_bytes = index.vectors.astype("<f4").tobytes()
    digest = hashlib.sha256(ids_bytes + vec_bytes).digest()
    header = MAGIC + struct.pack(
        "<IIQI", VERSION, index.dimension, index.count, len(fp)
    ) + fp + digest
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(ids_bytes)
        fh.write(vec_bytes)


def _read_index_file(path: Path) -> tuple[int, int, str, bytes]:
    """Check header bounds, version and payload checksum; return (dim, count, fp, payload)."""
    data = path.read_bytes()
    if data[:4] != MAGIC:
        raise IndexFormatError(f"{path}: not an index file (bad magic)")
    if len(data) < 24:
        raise IndexFormatError(f"{path}: truncated header")
    version, dim, count, fp_len = struct.unpack("<IIQI", data[4:24])
    if version != VERSION:
        raise IndexFormatError(f"{path}: unsupported index version {version}")
    offset = 24 + fp_len + 32
    if len(data) < offset:
        raise IndexFormatError(f"{path}: truncated header")
    try:
        fp = data[24 : 24 + fp_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IndexFormatError(f"{path}: fingerprint is not valid UTF-8") from exc
    digest = data[24 + fp_len : offset]
    payload = data[offset:]
    if len(payload) != count * 8 + count * dim * 4:
        raise IndexFormatError(f"{path}: truncated or oversized payload")
    if hashlib.sha256(payload).digest() != digest:
        raise IndexFormatError(f"{path}: payload checksum mismatch (corrupted)")
    return dim, count, fp, payload


def load_index(path: str | Path) -> VectorIndex:
    dim, count, fp, payload = _read_index_file(Path(path))
    ids_size = count * 8
    ids = np.frombuffer(payload[:ids_size], dtype="<i8").astype(np.int64)
    vectors = (
        np.frombuffer(payload[ids_size:], dtype="<f4")
        .astype(np.float32)
        .reshape(count, dim)
    )
    return VectorIndex(ids, vectors, fp)


def verify_index(path: str | Path) -> dict:
    """Check header and payload integrity; returns index metadata."""
    dim, count, fp, _ = _read_index_file(Path(path))
    return {"dimension": dim, "count": count, "fingerprint": fp}
