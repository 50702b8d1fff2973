"""Corpus ingestion: normalization, dedup, labeled-set loading, jsonl persistence."""

from __future__ import annotations

import csv
import json
import math
import re
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

PLAIN_LINES = "plain-lines"
JSONL = "jsonl"
FORMATS = (PLAIN_LINES, JSONL)

DEFAULT_RATING_STD = 0.5

MOS_MIN = 1.0
MOS_MAX = 7.0

# every id becomes an int64 (CorpusStore.ids, rows_of)
ID_RANGE = range(-(2**63), 2**63)

# a labeled set's cells: ASCII decimal integers for ids; ASCII decimal or exponent
# numbers for scores, or float's names of the non-finite values, which are refused by name
ASCII_INTEGER = re.compile(r"[+-]?[0-9]+")
ASCII_NUMBER = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf|infinity|nan)",
    re.ASCII | re.IGNORECASE,
)


class InputFileError(ValueError):
    """A corpus file, labeled set or stored corpus is malformed."""


@contextmanager
def open_text(path: str | Path, **kwargs):
    """Open a UTF-8 text file, dropping a leading byte order mark; a byte that
    is not UTF-8 raises InputFileError naming its line."""
    try:
        with open(path, encoding="utf-8-sig", **kwargs) as fh:
            yield fh
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:  # offsets into the whole file, not a read chunk
            line = data.count(b"\n", 0, exc.start) + 1
            raise InputFileError(
                f"{path}: line {line}: not UTF-8 text (byte {data[exc.start]:#04x})"
            ) from exc
        raise


@dataclass(frozen=True)
class SentenceRecord:
    """One normalized unlabeled sentence with a stable id and source tag."""

    id: int
    text: str
    source: str


@dataclass(frozen=True)
class LabeledSentence:
    """Sentence with a mean opinion score in [1, 7] and per-sentence rating std."""

    id: int
    text: str
    mos: float
    rating_std: float


@dataclass
class CorpusStats:
    total_sentences: int
    distinct_sentences: int
    per_source_counts: dict[str, int]


def normalize_sentence(raw: str) -> str:
    """NFC-normalize, trim, collapse internal whitespace runs to single spaces."""
    return " ".join(unicodedata.normalize("NFC", raw).split())


@dataclass
class CorpusStore:
    """Append-only sentence store; ids are assigned in ingestion order."""

    records: list[SentenceRecord] = field(default_factory=list)

    def next_id(self) -> int:
        return self.records[-1].id + 1 if self.records else 0

    def __len__(self) -> int:
        return len(self.records)

    def ids(self) -> np.ndarray:
        return np.fromiter((r.id for r in self.records), np.int64, len(self.records))


def json_id(record: dict, key: str) -> int:
    """`record[key]` as an id: a JSON integer, not true or false, in ID_RANGE."""
    value = record[key]
    if type(value) is not int or value not in ID_RANGE:
        raise ValueError(f"{key} {value!r} is not an integer of at most 64 bits")
    return value


def rows_of(ids: np.ndarray, wanted: Sequence[int] | np.ndarray) -> np.ndarray:
    """The row in `ids` of each id in `wanted`; either may be in any order.

    Raises ValueError naming the first wanted id that `ids` lacks.
    """
    wanted = np.asarray(wanted, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    pos = np.searchsorted(ids, wanted, sorter=order)
    found = pos < len(ids)
    found[found] = ids[order[pos[found]]] == wanted[found]
    if not found.all():
        raise ValueError(f"id {wanted[~found][0]} not found")
    return order[pos]


def ingest_corpus(
    source_path: str | Path,
    source: str,
    format: str = PLAIN_LINES,
    store: CorpusStore | None = None,
) -> list[SentenceRecord]:
    """Read a file into SentenceRecords, one per non-empty normalized sentence.

    When a store is given the new records are appended to it and ids continue
    from the store's current max.
    """
    if format not in FORMATS:
        raise InputFileError(f"unknown corpus format: {format!r}")
    path = Path(source_path)
    next_id = store.next_id() if store is not None else 0
    records: list[SentenceRecord] = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if format == PLAIN_LINES:
                text = normalize_sentence(line)
            else:
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    obj = json.loads(stripped)
                except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
                    raise InputFileError(
                        f"{path}: line {lineno}: malformed jsonl record: {exc}"
                    ) from exc
                if not isinstance(obj, dict) or "text" not in obj:
                    raise InputFileError(
                        f"{path}: line {lineno}: jsonl record missing 'text' key"
                    )
                if not isinstance(obj["text"], str):
                    raise InputFileError(
                        f"{path}: line {lineno}: jsonl record 'text' is not a string"
                    )
                try:
                    obj["text"].encode("utf-8")
                except UnicodeEncodeError as exc:  # an escaped lone surrogate
                    raise InputFileError(
                        f"{path}: line {lineno}: jsonl record 'text' is not UTF-8 text ({exc.reason})"
                    ) from None
                text = normalize_sentence(obj["text"])
            if not text:
                continue
            records.append(SentenceRecord(id=next_id, text=text, source=source))
            next_id += 1
    if store is not None:
        store.records.extend(records)
    return records


def deduplicate(
    records: Sequence[SentenceRecord],
) -> tuple[list[SentenceRecord], CorpusStats]:
    """Keep the first occurrence of each exact normalized text, preserving order."""
    seen: set[str] = set()
    out: list[SentenceRecord] = []
    per_source: dict[str, int] = {}
    for rec in records:
        per_source[rec.source] = per_source.get(rec.source, 0) + 1
        if rec.text in seen:
            continue
        seen.add(rec.text)
        out.append(rec)
    stats = CorpusStats(
        total_sentences=len(records),
        distinct_sentences=len(out),
        per_source_counts=per_source,
    )
    return out, stats


def _parse_cell(cell: str, pattern: re.Pattern, parse):
    """`parse(cell)` where the cell, but for surrounding whitespace, matches `pattern`:
    int and float alone would also read `1_0` and digits of other scripts."""
    if not pattern.fullmatch(cell.strip()):
        raise ValueError(f"{cell!r} is not an ASCII decimal number")
    return parse(cell)


def load_labeled(path: str | Path) -> list[LabeledSentence]:
    """Load a tab-separated labeled set: id, text, mos[, rating_std, else DEFAULT_RATING_STD]."""
    path = Path(path)
    out: list[LabeledSentence] = []
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh, delimiter="\t")
        try:
            header = next(reader)
        except StopIteration:
            raise InputFileError(f"{path}: empty labeled file") from None
        cols = {name.strip(): i for i, name in enumerate(header)}
        for required in ("id", "text", "mos"):
            if required not in cols:
                raise InputFileError(f"{path}: missing column {required!r}")
        has_std = "rating_std" in cols
        row_of_id: dict[int, int] = {}
        for rowno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                sid = _parse_cell(row[cols["id"]], ASCII_INTEGER, int)
                text = row[cols["text"]]
                mos = _parse_cell(row[cols["mos"]], ASCII_NUMBER, float)
                std = (
                    _parse_cell(row[cols["rating_std"]], ASCII_NUMBER, float)
                    if has_std else DEFAULT_RATING_STD
                )
            except IndexError:
                raise InputFileError(
                    f"{path}: row {rowno}: {len(row)} fields, fewer than the header's {len(header)}"
                ) from None
            except ValueError as exc:
                raise InputFileError(f"{path}: row {rowno}: non-numeric field: {exc}") from exc
            if sid not in ID_RANGE:
                raise InputFileError(f"{path}: row {rowno}: id {sid} does not fit 64 bits")
            if not MOS_MIN <= mos <= MOS_MAX:
                raise InputFileError(
                    f"{path}: row {rowno}: mos {mos} outside [{MOS_MIN}, {MOS_MAX}]"
                )
            if not math.isfinite(std):
                raise InputFileError(f"{path}: row {rowno}: non-finite rating_std {std}")
            if std < 0:
                raise InputFileError(f"{path}: row {rowno}: negative rating_std {std}")
            if sid in row_of_id:
                raise InputFileError(
                    f"{path}: row {rowno}: id {sid} already used in row {row_of_id[sid]}"
                )
            row_of_id[sid] = rowno
            out.append(
                LabeledSentence(
                    id=sid,
                    text=normalize_sentence(text),
                    mos=mos,
                    rating_std=std,
                )
            )
    return out


def save_store(store: CorpusStore, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in store.records:
            fh.write(json.dumps(vars(rec), ensure_ascii=False) + "\n")


def load_store(path: str | Path) -> CorpusStore:
    store = CorpusStore()
    seen: set[int] = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                text, sid = obj["text"], json_id(obj, "id")
            except KeyError as exc:
                raise InputFileError(f"{path}: line {lineno}: store record has no {exc} field") from exc
            except (ValueError, TypeError) as exc:
                raise InputFileError(f"{path}: line {lineno}: malformed store record: {exc}") from exc
            source = obj.get("source", "unknown")
            if not (isinstance(text, str) and isinstance(source, str)):
                raise InputFileError(
                    f"{path}: line {lineno}: store record text or source is not a string"
                )
            if sid in seen:
                raise InputFileError(f"{path}: line {lineno}: id {sid} is used by an earlier line")
            seen.add(sid)
            store.records.append(SentenceRecord(id=sid, text=text, source=source))
    return store
