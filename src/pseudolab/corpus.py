"""Corpus ingestion: normalization, dedup, labeled-set loading, jsonl persistence."""

from __future__ import annotations

import csv
import json
import math
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

PLAIN_LINES = "plain-lines"
JSONL = "jsonl"
FORMATS = (PLAIN_LINES, JSONL)

DEFAULT_RATING_STD = 0.5

MOS_MIN = 1.0
MOS_MAX = 7.0


class InputFileError(ValueError):
    """A corpus file, labeled set or stored corpus is malformed."""


@contextmanager
def open_text(path: str | Path, **kwargs):
    """Open a UTF-8 text file; a byte that is not UTF-8 raises InputFileError naming its line."""
    try:
        with open(path, encoding="utf-8", **kwargs) as fh:
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
    char_len: int


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

    def by_id(self) -> dict[int, SentenceRecord]:
        return {r.id: r for r in self.records}


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
                except json.JSONDecodeError as exc:
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
                text = normalize_sentence(obj["text"])
            if not text:
                continue
            records.append(
                SentenceRecord(id=next_id, text=text, source=source, char_len=len(text))
            )
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


def load_labeled(
    path: str | Path, default_rating_std: float = DEFAULT_RATING_STD
) -> list[LabeledSentence]:
    """Load a tab-separated labeled set with columns id, text, mos[, rating_std]."""
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
                sid = int(row[cols["id"]])
                mos = float(row[cols["mos"]])
                std = float(row[cols["rating_std"]]) if has_std else default_rating_std
            except (ValueError, IndexError) as exc:
                raise InputFileError(f"{path}: row {rowno}: non-numeric field: {exc}") from exc
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
                    text=normalize_sentence(row[cols["text"]]),
                    mos=mos,
                    rating_std=std,
                )
            )
    return out


def save_store(store: CorpusStore, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in store.records:
            fh.write(
                json.dumps(
                    {"id": rec.id, "text": rec.text, "source": rec.source},
                    ensure_ascii=False,
                )
                + "\n"
            )


def load_store(path: str | Path) -> CorpusStore:
    store = CorpusStore()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                text, sid = obj["text"], int(obj["id"])
            except KeyError as exc:
                raise InputFileError(f"{path}: line {lineno}: store record has no {exc} field") from exc
            except (ValueError, TypeError) as exc:
                raise InputFileError(f"{path}: line {lineno}: malformed store record: {exc}") from exc
            if not isinstance(text, str):
                raise InputFileError(f"{path}: line {lineno}: store record text is not a string")
            store.records.append(
                SentenceRecord(
                    id=sid,
                    text=text,
                    source=obj.get("source", "unknown"),
                    char_len=len(text),
                )
            )
    return store
