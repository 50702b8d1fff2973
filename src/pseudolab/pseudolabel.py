"""Pseudo-label generation: retrieve similar sentences per labeled anchor,
score them with the baseline model, keep those within the anchor's rating std."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import CorpusStore, LabeledSentence, json_id, rows_of
from .features import FeatureStats, embed_many
from .metrics import render_table
from .scorer import ScorerModel
from .simindex import VectorIndex, top_k_many

# Not called here: perfbench/traced_cli.py looks it up on this module to patch it.
from .simindex import top_k  # noqa: F401

FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class PseudoLabel:
    sentence_id: int
    text: str
    source: str
    predicted_score: float
    anchor_id: int
    anchor_mos: float
    anchor_std: float


@dataclass
class PseudoLabelSet:
    labels: list[PseudoLabel]

    def admitted(self) -> Admitted:
        """The set's ids, scores and anchors as the arrays `admit` returns."""
        return Admitted(
            np.array([l.sentence_id for l in self.labels], dtype=np.int64),
            np.array([l.predicted_score for l in self.labels], dtype=np.float64),
            np.array([l.anchor_id for l in self.labels], dtype=np.int64),
        )


@dataclass(frozen=True)
class Admitted:
    """An admitted set's aligned arrays in admission order: corpus ids, gate scores, anchor ids."""

    ids: np.ndarray
    scores: np.ndarray
    anchor_ids: np.ndarray


def compute_set_stats(labels: Sequence[PseudoLabel]) -> dict:
    return {
        "count": len(labels),
        "per_source_counts": dict(sorted(Counter(lab.source for lab in labels).items())),
        "mean_char_length": float(np.mean([len(l.text) for l in labels])) if labels else 0.0,
        "mean_predicted_score": (
            float(np.mean([l.predicted_score for l in labels])) if labels else 0.0
        ),
    }


@dataclass(frozen=True)
class Candidates:
    """Each anchor's top-k corpus hits, best first, from one retrieval.

    `hits` maps an anchor id to its hits' rows in `corpus_ids`, the index's
    ids. A query's hits do not depend on the other queries, so one retrieval
    serves any subset of its anchors.
    """

    corpus_ids: np.ndarray
    hits: dict[int, np.ndarray]
    fingerprint: str


def retrieve_candidates(
    anchors: Sequence[LabeledSentence],
    index: VectorIndex,
    store: CorpusStore,
    feature_stats: FeatureStats,
    k: int = 500,
    exclude_texts: set[str] | None = None,
) -> Candidates:
    """Retrieve the k nearest corpus sentences of every anchor in one scan,
    skipping the corpus sentences whose text is in `exclude_texts`."""
    if k <= 0:
        raise ValueError("k must be a positive integer")
    if not anchors:
        raise ValueError("anchors must be non-empty")
    if index.fingerprint and index.fingerprint != feature_stats.fingerprint:
        raise ValueError("index fingerprint does not match the feature stats fingerprint")
    excluded_ids: set[int] = set()
    if exclude_texts:
        excluded_ids = {r.id for r in store.records if r.text in exclude_texts}
    queries = embed_many([a.text for a in anchors], [feature_stats])[0]
    hit_ids = [ids for ids, _ in top_k_many(index, queries, k, exclude=excluded_ids)]
    # every anchor's hits in one lookup, split back per anchor
    rows = rows_of(index.ids, np.concatenate(hit_ids))
    rows = np.split(rows, np.cumsum([len(ids) for ids in hit_ids])[:-1])
    return Candidates(
        corpus_ids=index.ids,
        hits=dict(zip([a.id for a in anchors], rows)),
        fingerprint=feature_stats.fingerprint,
    )


def admit(
    anchors: Sequence[LabeledSentence],
    candidates: Candidates,
    baseline: ScorerModel,
    *,
    corpus_scores: np.ndarray,
) -> Admitted:
    """The admission rule: the pseudo-labels admitted from the anchors' retrieved candidates.

    Anchors are processed in ascending id order; a candidate admitted by an
    earlier anchor is skipped by later anchors. A candidate is admitted when
    its clamped baseline prediction (`corpus_scores`, by row of
    `candidates.corpus_ids`) deviates from the anchor's mean opinion score by
    at most the anchor's rating standard deviation. Every anchor must be in
    `candidates`.
    """
    if not anchors:
        raise ValueError("anchors must be non-empty")
    if baseline.fingerprint and baseline.fingerprint != candidates.fingerprint:
        raise ValueError("candidates fingerprint does not match baseline model fingerprint")
    ids = candidates.corpus_ids
    if len(corpus_scores) != len(ids):
        raise ValueError(f"{len(corpus_scores)} corpus scores for the {len(ids)} candidate rows")

    taken = np.zeros(len(ids), dtype=bool)
    admitted, anchor_ids = [], []
    for anchor in sorted(anchors, key=lambda a: a.id):
        rows = candidates.hits[anchor.id]
        rows = rows[(np.abs(corpus_scores[rows] - anchor.mos) <= anchor.rating_std) & ~taken[rows]]
        taken[rows] = True
        admitted.append(rows)
        anchor_ids.append(np.full(len(rows), anchor.id, dtype=np.int64))
    rows = np.concatenate(admitted)
    return Admitted(ids[rows], corpus_scores[rows], np.concatenate(anchor_ids))


def generate_pseudo_labels(
    anchors: Sequence[LabeledSentence],
    candidates: Candidates,
    store: CorpusStore,
    baseline: ScorerModel,
    *,
    corpus_scores: np.ndarray,
) -> PseudoLabelSet:
    """The `admit` set as labels, with the texts and sources of `store`, which holds every id."""
    admitted = admit(anchors, candidates, baseline, corpus_scores=corpus_scores)
    records = [store.records[row] for row in rows_of(store.ids(), admitted.ids).tolist()]
    anchor_of = map({a.id: a for a in anchors}.get, admitted.anchor_ids.tolist())
    return PseudoLabelSet(labels=[
        PseudoLabel(
            sentence_id=rec.id, text=rec.text, source=rec.source, predicted_score=score,
            anchor_id=anchor.id, anchor_mos=anchor.mos, anchor_std=anchor.rating_std,
        )
        for rec, score, anchor in zip(records, admitted.scores.tolist(), anchor_of)
    ])


def pseudo_label_stats(pset: PseudoLabelSet) -> list[tuple[str, int, float, float]]:
    """Per-source (count, mean char length, mean predicted score), count-descending."""
    groups: dict[str, list[PseudoLabel]] = {}
    for lab in pset.labels:
        groups.setdefault(lab.source, []).append(lab)
    rows = [
        (source, len(labs), float(np.mean([len(l.text) for l in labs])),
         float(np.mean([l.predicted_score for l in labs])))
        for source, labs in groups.items()
    ]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


def render_stats_table(rows: Iterable[tuple[str, int, float, float]]) -> str:
    """Aligned text table: source, sentence count, average length, average score."""
    header = ["Data Source", "#Sentences", "AvgLength", "AvgMOS"]
    body = [
        [source, f"{count:,}", f"{length:.0f}", f"{score:.1f}"]
        for source, count, length, score in rows
    ]
    return render_table(header, body)


def save_pseudo_labels(pset: PseudoLabelSet, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for lab in pset.labels:
            fh.write(json.dumps(vars(lab), ensure_ascii=False, sort_keys=True) + "\n")


def load_pseudo_labels(path: str | Path) -> PseudoLabelSet:
    labels: list[PseudoLabel] = []
    with open(path, encoding="utf-8") as fh:
        for line in filter(None, map(str.strip, fh)):  # blank lines skipped
            obj = json.loads(line)
            score = float(obj["predicted_score"])
            # the pseudo stage trains on it in float32; NaN fails the comparison too
            if not abs(score) <= FLOAT32_MAX:
                raise ValueError(f"predicted_score {score!r} is not a finite float32 number")
            labels.append(PseudoLabel(
                sentence_id=json_id(obj, "sentence_id"), text=obj["text"], source=obj["source"],
                predicted_score=score, anchor_id=json_id(obj, "anchor_id"),
                anchor_mos=float(obj["anchor_mos"]), anchor_std=float(obj["anchor_std"]),
            ))
    return PseudoLabelSet(labels=labels)
