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


class IndexFormatError(ValueError):
    """Raised when a persisted index file is malformed or corrupted."""


@dataclass(frozen=True)
class Hit:
    id: int
    similarity: float


class VectorIndex:
    """Immutable cosine-similarity index (exact scan).

    Stored as float32; a float64 copy of the same vectors saves the
    conversion on every query when many queries run in a row.
    """

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


def top_k(
    index: VectorIndex,
    query: np.ndarray,
    k: int,
    exclude: set[int] | frozenset[int] | None = None,
) -> list[Hit]:
    """Exact top-k by cosine, ties broken by ascending id; empty for zero queries."""
    if k <= 0:
        raise ValueError("k must be a positive integer")
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (index.dimension,):
        raise ValueError(
            f"query dimension {query.shape} does not match index dimension {index.dimension}"
        )
    qnorm = float(np.linalg.norm(query))
    if qnorm == 0.0 or index.count == 0:
        return []
    dots = np.asarray(index.vectors, dtype=np.float64) @ query
    denom = index.norms * qnorm
    sims = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)
    if exclude:
        mask = ~np.isin(index.ids, np.fromiter(exclude, dtype=np.int64, count=len(exclude)))
        sims = sims[mask]
        ids = index.ids[mask]
    else:
        ids = index.ids
    if ids.size == 0:
        return []
    order = np.lexsort((ids, -sims))[: min(k, ids.size)]
    return [Hit(int(ids[i]), float(sims[i])) for i in order]


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
