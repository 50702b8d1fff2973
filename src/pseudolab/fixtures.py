"""Deterministic synthetic corpus and labeled-set generation for experiments.

Sentences are assembled from a fixed pseudo-word vocabulary; the labeled
target follows mos = clamp(1 + 0.02 * char_len + noise), so sentence length
carries the complexity signal.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import CorpusStore, LabeledSentence, SentenceRecord, normalize_sentence
from .linalg import clamp_scores

_ONSETS = ["b", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "w", "z", "sch", "st"]
_VOWELS = ["a", "e", "i", "o", "u", "au", "ei", "ie"]
_CODAS = ["", "n", "r", "s", "t", "l", "ch", "ng", "rn"]

# source tag -> (weight, mean sentence word count); longer sources read harder
SOURCE_PROFILES = {
    "encyclopedia": (0.40, 22),
    "news": (0.25, 16),
    "magazine": (0.15, 13),
    "simple": (0.12, 8),
    "plain_dict": (0.08, 5),
}


def _vocabulary(rng: np.random.Generator, size: int = 900) -> list[str]:
    words = set()
    while len(words) < size:
        n_syll = int(rng.integers(1, 5))
        word = "".join(
            _ONSETS[rng.integers(len(_ONSETS))]
            + _VOWELS[rng.integers(len(_VOWELS))]
            + _CODAS[rng.integers(len(_CODAS))]
            for _ in range(n_syll)
        )
        words.add(word)
    return sorted(words)


def _make_sentence(rng: np.random.Generator, vocab: list[str], mean_words: int) -> str:
    n_words = max(3, int(rng.normal(mean_words, mean_words * 0.3)))
    words = [vocab[rng.integers(len(vocab))] for _ in range(n_words)]
    words[0] = words[0].capitalize()
    if n_words > 9 and rng.random() < 0.6:
        cut = int(rng.integers(3, n_words - 3))
        words[cut] = words[cut] + ","
    if rng.random() < 0.15:
        words.insert(int(rng.integers(1, n_words)), str(int(rng.integers(1, 2000))))
    return " ".join(words) + "."


@dataclass
class SyntheticDataset:
    store: CorpusStore
    labeled_train: list[LabeledSentence]
    labeled_test: list[LabeledSentence]


def make_synthetic_dataset(
    n_corpus: int = 5000,
    n_train: int = 200,
    n_test: int = 60,
    seed: int = 7,
    noise_std: float = 0.3,
) -> SyntheticDataset:
    rng = np.random.default_rng(seed)
    vocab = _vocabulary(rng)
    sources = list(SOURCE_PROFILES)
    weights = np.array([SOURCE_PROFILES[s][0] for s in sources])
    weights = weights / weights.sum()

    store = CorpusStore()
    seen: set[str] = set()
    next_id = 0
    while len(store.records) < n_corpus:
        source = sources[rng.choice(len(sources), p=weights)]
        text = normalize_sentence(_make_sentence(rng, vocab, SOURCE_PROFILES[source][1]))
        if text in seen:
            continue
        seen.add(text)
        store.records.append(SentenceRecord(id=next_id, text=text, source=source))
        next_id += 1

    def labeled_batch(count: int, id_offset: int) -> list[LabeledSentence]:
        out: list[LabeledSentence] = []
        while len(out) < count:
            source = sources[rng.choice(len(sources), p=weights)]
            text = normalize_sentence(_make_sentence(rng, vocab, SOURCE_PROFILES[source][1]))
            if text in seen:
                continue
            seen.add(text)
            mos = float(clamp_scores(1.0 + 0.02 * len(text) + rng.normal(0.0, noise_std)))
            std = float(np.round(rng.uniform(0.3, 0.8), 2))
            out.append(
                LabeledSentence(
                    id=id_offset + len(out), text=text, mos=mos, rating_std=std
                )
            )
        return out

    return SyntheticDataset(
        store=store,
        labeled_train=labeled_batch(n_train, 0),
        labeled_test=labeled_batch(n_test, 100000),
    )


def write_labeled_tsv(labeled: list[LabeledSentence], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(["id", "text", "mos", "rating_std"])
        for s in labeled:
            writer.writerow([s.id, s.text, repr(s.mos), repr(s.rating_std)])


def write_corpus_files(store: CorpusStore, directory: str | Path) -> list[dict]:
    """Write one plain-lines file per source; returns CLI corpus entries."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    by_source: dict[str, list[str]] = {}
    for rec in store.records:
        by_source.setdefault(rec.source, []).append(rec.text)
    entries = []
    for source in sorted(by_source):
        path = directory / f"{source}.txt"
        path.write_text("\n".join(by_source[source]) + "\n", encoding="utf-8")
        entries.append({"path": str(path), "source": source, "format": "plain-lines"})
    return entries
