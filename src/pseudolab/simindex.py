"""Exact top-k cosine similarity search over an immutable vector index."""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

MAGIC = b"SXI1"
VERSION = 1

# Queries per GEMM in top_k_many: the block's similarities to the kept index
# rows take QUERY_BLOCK x N x 8 bytes (2.6 MB at 5k sentences, 25.6 MB at
# 50k). A smaller block would shrink that, but each query block converts the
# whole index to float64 once more, so it costs time until the scan converts
# each row block once.
QUERY_BLOCK = 64

# Index rows converted to float64 at a time: ROW_BLOCK x d x 8 bytes (2.1 MB
# at d = 1,030) whatever N is, so no float64 copy of the whole index is made.
# Keep it a multiple of 64: a BLAS matrix-vector kernel sums a few rows at a
# time (OpenBLAS takes 4), and blocks that start at a multiple of that group
# give every row the bitwise result of one product over the whole matrix.
ROW_BLOCK = 256

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
    """Immutable cosine-similarity index (exact scan), stored as float32.

    `ids` is a 1-D integer array with no duplicates and `vectors` a 2-D array
    with one row per id. Float32 vectors are kept as given, with no copy;
    any others are converted once.
    """

    def __init__(self, ids: np.ndarray, vectors: np.ndarray, fingerprint: str):
        ids = np.asarray(ids)
        vectors = np.asarray(vectors, dtype=np.float32)
        if ids.ndim != 1 or not np.issubdtype(ids.dtype, np.integer):
            raise ValueError(f"index ids must be a 1-D integer array, not {ids.dtype} {ids.shape}")
        if vectors.ndim != 2 or len(vectors) != len(ids):
            raise ValueError(f"{len(ids)} index ids for vectors of shape {vectors.shape}")
        if np.unique(ids).size != ids.size:
            raise ValueError("duplicate ids in index input")
        self.ids = ids.astype(np.int64, copy=False)
        self.vectors = vectors
        self.fingerprint = fingerprint

    @cached_property
    def norms(self) -> np.ndarray:
        """Each row's float64 norm, computed on first use: a stage that only
        saves the index makes no float64 pass over it."""
        return map_row_blocks(lambda block: np.linalg.norm(block, axis=1), self.vectors)

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def count(self) -> int:
        return int(self.vectors.shape[0])


def map_row_blocks(fn: Callable[[np.ndarray], np.ndarray], vectors: np.ndarray) -> np.ndarray:
    """fn of each ROW_BLOCK rows of vectors as float64, concatenated.

    For a row-wise fn, the same as fn of the whole matrix in float64.
    """
    parts = [
        fn(np.asarray(vectors[start : start + ROW_BLOCK], dtype=np.float64))
        for start in range(0, len(vectors), ROW_BLOCK)
    ]
    return np.concatenate(parts) if parts else np.zeros(0)


def build_index(
    vectors: Iterable[tuple[int, np.ndarray]] | Sequence[tuple[int, np.ndarray]],
    fingerprint: str = "",
    dimension: int | None = None,
) -> VectorIndex:
    """A VectorIndex of (id, vector) pairs, rows in the pairs' order."""
    items = list(vectors)
    dims = {len(v) for _, v in items}
    if len(dims) > 1:
        raise ValueError(f"inconsistent vector dimensions: {sorted(dims)}")
    if dimension is not None and dims - {dimension}:
        raise ValueError("vector dimension does not match declared dimension")
    dim = dims.pop() if dims else dimension or 0
    ids = np.array([int(i) for i, _ in items], dtype=np.int64)
    matrix = np.array([v for _, v in items], dtype=np.float32).reshape(len(items), dim)
    return VectorIndex(ids, matrix, fingerprint)


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
    if exclude:
        excluded = np.fromiter(exclude, dtype=np.int64, count=len(exclude))
        kept = np.flatnonzero(~np.isin(index.ids, excluded))  # index rows that may be hits
    else:
        kept = np.arange(index.count)
    ids = index.ids[kept]
    norms = index.norms[kept]
    qnorms = np.linalg.norm(queries, axis=1)
    no_hits = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))
    results = []
    # one query block's GEMM similarities to the kept rows, reused by every block
    buffer = np.empty((min(QUERY_BLOCK, len(queries)), kept.size))
    for start in range(0, len(queries), QUERY_BLOCK):
        block = queries[start : start + QUERY_BLOCK]
        sims = buffer[: len(block)]
        filled = 0
        for first in range(0, index.count, ROW_BLOCK):
            vectors = np.asarray(index.vectors[first : first + ROW_BLOCK], dtype=np.float64)
            stop = np.searchsorted(kept, first + len(vectors))
            sims[:, filled:stop] = (block @ vectors.T)[:, kept[filled:stop] - first]
            filled = stop
        for query, qnorm, row in zip(block, qnorms[start : start + len(block)], sims):
            if qnorm == 0.0 or ids.size == 0:
                results.append(no_hits)
                continue

            def rescore(hits, query=query, qnorm=qnorm):
                tied = np.asarray(index.vectors[kept[hits]], dtype=np.float64)
                return _cosines(np.add.reduce(tied * query, axis=1), norms[hits] * qnorm)

            results.append(_select(ids, _cosines(row, norms * qnorm), k, rescore))
    return results


def _cosines(dots: np.ndarray, denom: np.ndarray) -> np.ndarray:
    return np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)


def _select(ids, sims, k, rescore) -> tuple[np.ndarray, np.ndarray]:
    """The k best of one query's GEMM similarities, in the canonical order.

    Every item within TIE_MARGIN of the k-th similarity stays in the pool.
    Items whose similarities chain within TIE_MARGIN of each other are
    rescored by `rescore`, a per-row reduction that depends only on the two
    vectors. A GEMM similarity is within TIE_MARGIN / 2 of the rescored one,
    so items more than TIE_MARGIN apart already compare as rescored ones
    would, and the order is that of (-rescored similarity, id) whatever BLAS
    did.
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
        ranked[tied] = rescore(order[tied])
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
    ids = np.ascontiguousarray(index.ids, dtype="<i8")
    vectors = np.ascontiguousarray(index.vectors, dtype="<f4")
    digest = _payload_digest(ids, vectors)
    header = MAGIC + struct.pack(
        "<IIQI", VERSION, index.dimension, index.count, len(fp)
    ) + fp + digest
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(_bytes_of(ids))
        fh.write(_bytes_of(vectors))


def _bytes_of(array: np.ndarray) -> np.ndarray:
    """A C-contiguous array's bytes, as a uint8 view of it."""
    return array.reshape(-1).view(np.uint8)


def _payload_digest(ids: np.ndarray, vectors: np.ndarray) -> bytes:
    digest = hashlib.sha256(_bytes_of(ids))
    digest.update(_bytes_of(vectors))
    return digest.digest()


def _read_index_file(path: Path) -> tuple[str, np.ndarray, np.ndarray]:
    """Check header bounds, version and payload checksum; return (fp, ids, vectors).

    The payload is read straight into the two arrays, so they are the only
    copy of it that is made.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(24)
        if head[:4] != MAGIC:
            raise IndexFormatError(f"{path}: not an index file (bad magic)")
        if len(head) < 24:
            raise IndexFormatError(f"{path}: truncated header")
        version, dim, count, fp_len = struct.unpack("<IIQI", head[4:])
        if version != VERSION:
            raise IndexFormatError(f"{path}: unsupported index version {version}")
        offset = 24 + fp_len + 32
        if size < offset:
            raise IndexFormatError(f"{path}: truncated header")
        try:
            fp = fh.read(fp_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IndexFormatError(f"{path}: fingerprint is not valid UTF-8") from exc
        digest = fh.read(32)
        if size - offset != count * 8 + count * dim * 4:
            raise IndexFormatError(f"{path}: truncated or oversized payload")
        ids = np.empty(count, dtype="<i8")
        vectors = np.empty((count, dim), dtype="<f4")
        for array in (ids, vectors):
            if fh.readinto(_bytes_of(array)) != array.nbytes:
                raise IndexFormatError(f"{path}: truncated or oversized payload")
    if _payload_digest(ids, vectors) != digest:
        raise IndexFormatError(f"{path}: payload checksum mismatch (corrupted)")
    return fp, ids, vectors


def load_index(path: str | Path) -> VectorIndex:
    fp, ids, vectors = _read_index_file(Path(path))
    return VectorIndex(ids, vectors, fp)


def verify_index(path: str | Path) -> dict:
    """Check header and payload integrity; returns index metadata."""
    fp, _, vectors = _read_index_file(Path(path))
    return {"dimension": vectors.shape[1], "count": vectors.shape[0], "fingerprint": fp}
