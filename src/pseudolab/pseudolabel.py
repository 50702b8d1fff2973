"""Pseudo-label generation: retrieve similar sentences per labeled anchor,
score them with the baseline model, keep those within the anchor's rating std."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import CorpusStore, LabeledSentence
from .features import FeatureStats, embed_many
from .metrics import render_table
from .scorer import ScorerModel
from .simindex import VectorIndex, top_k_many

# Not called here: perfbench/traced_cli.py looks it up on this module to patch it.
from .simindex import top_k  # noqa: F401


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
    config: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)


def compute_set_stats(labels: Sequence[PseudoLabel]) -> dict:
    per_source: dict[str, int] = {}
    for lab in labels:
        per_source[lab.source] = per_source.get(lab.source, 0) + 1
    return {
        "count": len(labels),
        "per_source_counts": dict(sorted(per_source.items())),
        "mean_char_length": (
            float(np.mean([len(l.text) for l in labels])) if labels else 0.0
        ),
        "mean_predicted_score": (
            float(np.mean([l.predicted_score for l in labels])) if labels else 0.0
        ),
    }


def generate_pseudo_labels(
    anchors: Sequence[LabeledSentence],
    index: VectorIndex,
    store: CorpusStore,
    baseline: ScorerModel,
    feature_stats: FeatureStats,
    k: int = 500,
    exclude_texts: set[str] | None = None,
    *,
    precomputed_scores: Mapping[int, float],
) -> PseudoLabelSet:
    """Generate the filtered pseudo-label set from labeled anchors.

    Anchors are processed in ascending id order; a candidate admitted by an
    earlier anchor is skipped by later anchors. A candidate is admitted when
    its clamped baseline prediction (precomputed_scores, by corpus id)
    deviates from the anchor's mean opinion score by at most the anchor's
    rating standard deviation.
    """
    if k <= 0:
        raise ValueError("k must be a positive integer")
    if not anchors:
        raise ValueError("anchors must be non-empty")
    if index.fingerprint and baseline.fingerprint and index.fingerprint != baseline.fingerprint:
        raise ValueError("index fingerprint does not match baseline model fingerprint")
    if feature_stats.fingerprint != (baseline.fingerprint or feature_stats.fingerprint):
        raise ValueError("feature stats fingerprint does not match baseline model")

    by_id = store.by_id()
    excluded_ids: set[int] = set()
    if exclude_texts:
        excluded_ids = {r.id for r in store.records if r.text in exclude_texts}

    anchors = sorted(anchors, key=lambda a: a.id)
    queries = embed_many([a.text for a in anchors], [feature_stats])[0]
    hits = top_k_many(index, queries, k, exclude=excluded_ids)
    seen: set[int] = set()
    labels: list[PseudoLabel] = []
    for anchor, (hit_ids, _) in zip(anchors, hits):
        candidate_ids = [cid for cid in hit_ids.tolist() if cid not in seen]
        if not candidate_ids:
            continue
        scores = np.array([precomputed_scores[cid] for cid in candidate_ids])
        for cid, score in zip(candidate_ids, scores):
            if abs(float(score) - anchor.mos) <= anchor.rating_std:
                rec = by_id[cid]
                labels.append(
                    PseudoLabel(
                        sentence_id=cid,
                        text=rec.text,
                        source=rec.source,
                        predicted_score=float(score),
                        anchor_id=anchor.id,
                        anchor_mos=anchor.mos,
                        anchor_std=anchor.rating_std,
                    )
                )
                seen.add(cid)
    config = {
        "k": k,
        "exclude_labeled": bool(exclude_texts),
        "baseline_seed": baseline.seed,
        "fingerprint": baseline.fingerprint,
    }
    return PseudoLabelSet(labels=labels, config=config, stats=compute_set_stats(labels))


def pseudo_label_stats(pset: PseudoLabelSet) -> list[tuple[str, int, float, float]]:
    """Per-source (count, mean char length, mean predicted score), count-descending."""
    groups: dict[str, list[PseudoLabel]] = {}
    for lab in pset.labels:
        groups.setdefault(lab.source, []).append(lab)
    rows = [
        (
            source,
            len(labs),
            float(np.mean([len(l.text) for l in labs])),
            float(np.mean([l.predicted_score for l in labs])),
        )
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
            fh.write(
                json.dumps(
                    {
                        "sentence_id": lab.sentence_id,
                        "text": lab.text,
                        "source": lab.source,
                        "predicted_score": lab.predicted_score,
                        "anchor_id": lab.anchor_id,
                        "anchor_mos": lab.anchor_mos,
                        "anchor_std": lab.anchor_std,
                    },
                    ensure_ascii=False,
                    sort_keys=True,
                )
                + "\n"
            )


def load_pseudo_labels(path: str | Path) -> PseudoLabelSet:
    labels: list[PseudoLabel] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            labels.append(
                PseudoLabel(
                    sentence_id=int(obj["sentence_id"]),
                    text=obj["text"],
                    source=obj["source"],
                    predicted_score=float(obj["predicted_score"]),
                    anchor_id=int(obj["anchor_id"]),
                    anchor_mos=float(obj["anchor_mos"]),
                    anchor_std=float(obj["anchor_std"]),
                )
            )
    return PseudoLabelSet(labels=labels, stats=compute_set_stats(labels))
