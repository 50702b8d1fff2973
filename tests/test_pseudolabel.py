import numpy as np
import pytest

from pseudolab.corpus import CorpusStore, LabeledSentence, SentenceRecord
from pseudolab.features import FeatureConfig, fit_feature_stats
from pseudolab.pseudolabel import (
    compute_set_stats,
    generate_pseudo_labels,
    load_pseudo_labels,
    pseudo_label_stats,
    render_stats_table,
    retrieve_candidates,
    save_pseudo_labels,
)
from pseudolab.scorer import ScorerModel
from pseudolab.simindex import build_index


def _store(texts, sources=None):
    sources = sources or ["wiki"] * len(texts)
    return CorpusStore(
        records=[
            SentenceRecord(id=i, text=t, source=s)
            for i, (t, s) in enumerate(zip(texts, sources))
        ]
    )


def _setup(texts, scores, sources=None):
    """Index + store + dummy model whose scores come in via corpus_scores, by index row."""
    store = _store(texts, sources)
    config = FeatureConfig(hashed_dim=64)
    stats = fit_feature_stats(texts, config)
    from pseudolab.features import embed

    index = build_index(
        [(r.id, embed(r.text, stats)) for r in store.records],
        fingerprint=stats.fingerprint,
    )
    model = ScorerModel(
        weights=np.zeros(64 + 6), intercept=4.0, fingerprint=stats.fingerprint
    )
    return store, index, model, stats, np.array(scores)


def _generate(anchors, index, store, model, stats, k, exclude_texts=None, *, corpus_scores):
    """Retrieve the anchors' candidates, then admit them."""
    candidates = retrieve_candidates(anchors, index, store, stats, k=k, exclude_texts=exclude_texts)
    return generate_pseudo_labels(
        anchors, candidates, store, model, corpus_scores=corpus_scores
    )


class TestAdmission:
    TEXTS = ["ein kurzer satz", "noch ein satz hier", "der dritte satz dabei"]

    def test_within_band_admitted(self):
        store, index, model, stats, scores = _setup(self.TEXTS, [3.4, 3.6, 3.0])
        anchors = [LabeledSentence(id=100, text="ein satz", mos=3.0, rating_std=0.5)]
        pset = _generate(
            anchors, index, store, model, stats, k=10, corpus_scores=scores
        )
        got = {l.sentence_id for l in pset.labels}
        assert got == {0, 2}  # |3.4-3.0|<=0.5 and |3.0-3.0|<=0.5; 3.6 is out

    def test_boundary_is_inclusive(self):
        store, index, model, stats, scores = _setup(self.TEXTS, [3.5, 2.5, 3.51])
        anchors = [LabeledSentence(id=100, text="satz", mos=3.0, rating_std=0.5)]
        pset = _generate(
            anchors, index, store, model, stats, k=10, corpus_scores=scores
        )
        assert {l.sentence_id for l in pset.labels} == {0, 1}

    def test_zero_std_admits_exact_only(self):
        store, index, model, stats, scores = _setup(self.TEXTS, [3.0, 3.0000001, 2.5])
        anchors = [LabeledSentence(id=100, text="satz", mos=3.0, rating_std=0.0)]
        pset = _generate(
            anchors, index, store, model, stats, k=10, corpus_scores=scores
        )
        assert {l.sentence_id for l in pset.labels} == {0}

    def test_first_anchor_wins(self):
        store, index, model, stats, scores = _setup(self.TEXTS, [3.0, 3.0, 3.0])
        anchors = [
            LabeledSentence(id=200, text="satz b", mos=3.0, rating_std=1.0),
            LabeledSentence(id=100, text="satz a", mos=3.0, rating_std=1.0),
        ]
        pset = _generate(
            anchors, index, store, model, stats, k=10, corpus_scores=scores
        )
        # anchors processed in ascending id order, and each sentence is used once
        assert len(pset.labels) == 3
        assert all(l.anchor_id == 100 for l in pset.labels)

    def test_label_carries_anchor_metadata(self):
        store, index, model, stats, scores = _setup(self.TEXTS, [3.2, 9.0, 9.0])
        anchors = [LabeledSentence(id=7, text="satz", mos=3.0, rating_std=0.4)]
        pset = _generate(
            anchors, index, store, model, stats, k=10, corpus_scores=scores
        )
        (lab,) = pset.labels
        assert (lab.anchor_id, lab.anchor_mos, lab.anchor_std) == (7, 3.0, 0.4)
        assert lab.text == self.TEXTS[0]
        assert lab.predicted_score == 3.2

    def test_exclude_texts(self):
        store, index, model, stats, scores = _setup(self.TEXTS, [3.0, 3.0, 3.0])
        anchors = [LabeledSentence(id=100, text="satz", mos=3.0, rating_std=1.0)]
        pset = _generate(
            anchors,
            index,
            store,
            model,
            stats,
            k=10,
            exclude_texts={self.TEXTS[1]},
            corpus_scores=scores,
        )
        assert {l.sentence_id for l in pset.labels} == {0, 2}


def test_index_row_order_does_not_matter():
    """Candidates are kept as index rows; an index with its ids in another
    order (here reversed, and not contiguous) admits the same labels."""
    texts = [f"satz nummer {i} mit etwas text" for i in range(12)]
    store = CorpusStore(records=[
        SentenceRecord(id=100 - 7 * i, text=t, source="wiki")
        for i, t in enumerate(texts)
    ])
    stats = fit_feature_stats(texts, FeatureConfig(hashed_dim=64))
    from pseudolab.features import embed

    rows = [(r.id, embed(r.text, stats)) for r in store.records]
    model = ScorerModel(weights=np.zeros(64 + 6), intercept=4.0, fingerprint=stats.fingerprint)
    score_of = {r.id: 3.0 + 0.1 * (i % 5) for i, r in enumerate(store.records)}
    anchors = [
        LabeledSentence(id=2, text="satz nummer mit text", mos=3.2, rating_std=0.15),
        LabeledSentence(id=1, text="nummer 3 mit etwas", mos=3.0, rating_std=0.1),
    ]
    indexes = [build_index(order, fingerprint=stats.fingerprint) for order in (rows, rows[::-1])]
    sets = [
        _generate(
            anchors, index, store, model, stats,
            k=6, corpus_scores=np.array([score_of[i] for i in index.ids.tolist()]),
        )
        for index in indexes
    ]
    assert sets[0].labels
    assert sets[1].labels == sets[0].labels


class TestErrors:
    def test_k_zero(self):
        store, index, model, stats, scores = _setup(["ein satz"], [3.0])
        anchors = [LabeledSentence(id=1, text="x", mos=3.0, rating_std=0.5)]
        with pytest.raises(ValueError, match="k"):
            _generate(
                anchors, index, store, model, stats, k=0, corpus_scores=scores
            )

    def test_empty_anchors(self):
        store, index, model, stats, scores = _setup(["ein satz"], [3.0])
        with pytest.raises(ValueError, match="anchors"):
            _generate(
                [], index, store, model, stats, k=5, corpus_scores=scores
            )
        anchors = [LabeledSentence(id=1, text="x", mos=3.0, rating_std=0.5)]
        candidates = retrieve_candidates(anchors, index, store, stats, k=5)
        with pytest.raises(ValueError, match="anchors"):
            generate_pseudo_labels([], candidates, store, model, corpus_scores=scores)

    def test_index_of_other_featurizer(self):
        store, index, model, stats, scores = _setup(["ein satz"], [3.0])
        other = fit_feature_stats(["ein satz"], FeatureConfig(hashed_dim=32))
        anchors = [LabeledSentence(id=1, text="x", mos=3.0, rating_std=0.5)]
        with pytest.raises(ValueError, match="fingerprint"):
            retrieve_candidates(anchors, index, store, other, k=5)

    def test_corpus_scores_of_another_length(self):
        store, index, model, stats, scores = _setup(["ein satz", "zwei saetze"], [3.0, 3.0])
        anchors = [LabeledSentence(id=1, text="satz", mos=3.0, rating_std=0.5)]
        with pytest.raises(ValueError, match="3 corpus scores for the 2 candidate rows"):
            _generate(
                anchors, index, store, model, stats, k=5, corpus_scores=np.append(scores, 3.0)
            )

    def test_index_id_missing_from_store(self):
        store, index, model, stats, scores = _setup(["ein satz", "zwei saetze"], [3.0, 3.0])
        anchors = [LabeledSentence(id=1, text="satz", mos=3.0, rating_std=0.5)]
        candidates = retrieve_candidates(anchors, index, store, stats, k=5)
        with pytest.raises(ValueError, match="^id 1 not found$"):
            generate_pseudo_labels(
                anchors, candidates, CorpusStore(store.records[:1]), model, corpus_scores=scores
            )

    def test_fingerprint_mismatch(self):
        store, index, model, stats, scores = _setup(["ein satz"], [3.0])
        bad = ScorerModel(
            weights=model.weights, intercept=4.0, fingerprint="deadbeef"
        )
        anchors = [LabeledSentence(id=1, text="x", mos=3.0, rating_std=0.5)]
        with pytest.raises(ValueError, match="fingerprint"):
            _generate(
                anchors, index, store, bad, stats, k=5, corpus_scores=scores
            )


@pytest.fixture(scope="module")
def generated(small_context, small_dataset):
    from pseudolab import pipeline

    ctx = small_context
    anchors = small_dataset.labeled_train
    baseline = pipeline.train_gate_model(ctx.retrieval_stats, anchors, pipeline.PipelineConfig())
    scores = pipeline.corpus_score_map(ctx.index, baseline)
    exclude = {a.text for a in anchors} | {a.text for a in small_dataset.labeled_test}
    pset = _generate(
        anchors,
        ctx.index,
        ctx.store,
        baseline,
        ctx.retrieval_stats,
        k=25,
        exclude_texts=exclude,
        corpus_scores=scores,
    )
    return pset, anchors, exclude, scores


@pytest.mark.parametrize("row_block", [64, 128, 4096], ids=["64", "128", "more-than-n"])
def test_corpus_score_map_equals_whole_matrix_predict(
    small_context, small_dataset, monkeypatch, row_block
):
    """Scored ROW_BLOCK index rows at a time, every score is bitwise the one
    predict gives on the whole index in float64 (see simindex.ROW_BLOCK)."""
    from pseudolab import pipeline, simindex
    from pseudolab.scorer import predict

    ctx = small_context
    gate = pipeline.train_gate_model(
        ctx.retrieval_stats, small_dataset.labeled_train, pipeline.PipelineConfig()
    )
    monkeypatch.setattr(simindex, "ROW_BLOCK", row_block)
    scores = pipeline.corpus_score_map(ctx.index, gate)
    whole = predict(gate, ctx.index.vectors.astype(np.float64))
    assert ctx.index.count % 64 != 0
    assert scores.dtype == whole.dtype and scores.shape == (ctx.index.count,)
    assert np.array_equal(scores, whole)


class TestRandomizedProperties:
    def test_soundness(self, generated, small_context):
        pset, _, _, scores = generated
        score_of = dict(zip(small_context.index.ids.tolist(), scores.tolist()))
        assert len(pset.labels) > 0
        for lab in pset.labels:
            assert abs(lab.predicted_score - lab.anchor_mos) <= lab.anchor_std
            assert 1.0 <= lab.predicted_score <= 7.0
            assert lab.predicted_score == score_of[lab.sentence_id]

    def test_uniqueness(self, generated):
        pset, _, _, _ = generated
        ids = [l.sentence_id for l in pset.labels]
        assert len(ids) == len(set(ids))

    def test_cardinality_bound(self, generated):
        pset, anchors, _, _ = generated
        assert len(pset.labels) <= len(anchors) * 25

    def test_no_leakage_of_labeled_texts(self, generated):
        pset, _, exclude, _ = generated
        assert not any(l.text in exclude for l in pset.labels)

    def test_deterministic(self, generated, small_context, small_dataset):
        pset, anchors, exclude, scores = generated
        again = _generate(
            anchors,
            small_context.index,
            small_context.store,
            ScorerModel(
                weights=np.zeros(
                    small_context.retrieval_stats.config.hashed_dim + 6
                ),
                intercept=4.0,
                fingerprint=small_context.retrieval_stats.fingerprint,
            ),
            small_context.retrieval_stats,
            k=25,
            exclude_texts=exclude,
            corpus_scores=scores,
        )
        assert again.labels == pset.labels

    def test_stats_match_independent_recount(self, generated):
        pset, _, _, _ = generated
        per_source = {}
        for lab in pset.labels:
            per_source[lab.source] = per_source.get(lab.source, 0) + 1
        stats = compute_set_stats(pset.labels)
        assert stats["count"] == len(pset.labels)
        assert stats["per_source_counts"] == per_source
        rows = pseudo_label_stats(pset)
        assert sum(r[1] for r in rows) == len(pset.labels)
        counts = [r[1] for r in rows]
        assert counts == sorted(counts, reverse=True)
        for source, count, length, score in rows:
            labs = [l for l in pset.labels if l.source == source]
            assert count == len(labs)
            assert length == pytest.approx(np.mean([len(l.text) for l in labs]))
            assert score == pytest.approx(
                np.mean([l.predicted_score for l in labs])
            )


def test_roundtrip(tmp_path):
    store, index, model, stats, scores = _setup(
        ["satz eins hier", "satz zwei dort", "satz drei überall"],
        [3.1, 3.2, 9.0],
        sources=["wiki", "news", "wiki"],
    )
    anchors = [LabeledSentence(id=1, text="satz", mos=3.0, rating_std=0.3)]
    pset = _generate(
        anchors, index, store, model, stats, k=10, corpus_scores=scores
    )
    path = tmp_path / "pseudo.jsonl"
    save_pseudo_labels(pset, path)
    loaded = load_pseudo_labels(path)
    assert loaded.labels == pset.labels


def test_render_stats_table():
    rows = [("encyclopedia", 13147, 117.4, 3.4), ("news", 151, 80.0, 2.95)]
    table = render_stats_table(rows)
    lines = table.splitlines()
    assert lines[0].split() == ["Data", "Source", "#Sentences", "AvgLength", "AvgMOS"]
    assert "13,147" in lines[1]
    assert "117" in lines[1]
    assert "3.4" in lines[1]
    assert "3.0" in lines[2]  # rounded to one decimal
    assert len({len(l) for l in lines}) == 1  # aligned columns


def test_leakage_guard_names_fold(monkeypatch, small_context, small_dataset):
    from dataclasses import replace

    from pseudolab import parallel, pipeline
    from pseudolab.ensemble import make_fold_plan

    labeled = small_dataset.labeled_train
    real = pipeline.admit

    def leaky(anchors, *args, **kwargs):
        """The per-fold admission rule, with one label anchored outside the fold."""
        pset = real(anchors, *args, **kwargs)
        train_ids = {a.id for a in anchors}
        outsider = next(s for s in labeled if s.id not in train_ids)
        return replace(
            pset,
            ids=np.append(pset.ids, pset.ids[0]),
            scores=np.append(pset.scores, pset.scores[0]),
            anchor_ids=np.append(pset.anchor_ids, outsider.id),
        )

    monkeypatch.setattr(pipeline, "admit", leaky)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    plan = make_fold_plan(len(labeled), n_folds=5, seed=1)
    with pytest.raises(RuntimeError, match="fold 0: pseudo-labels anchored on test-fold ids"):
        pipeline.evaluate_settings(
            small_context, labeled, ["pseudo_only"], plan, pipeline.PipelineConfig(k=25)
        )
