import numpy as np
import pytest

from pseudolab.corpus import LabeledSentence, rows_of
from pseudolab.ensemble import (
    Archetype,
    EnsembleBundle,
    FoldModel,
    FoldPlan,
    audit_oof_hygiene,
    cv_fine_tune,
    fit_stacker,
    load_bundle,
    make_fold_plan,
    predict_ensemble_batch,
    save_bundle,
    score_features,
    train_pseudo_stage,
)
from pseudolab.features import EMBED_CHUNK_ROWS, FeatureConfig, embed_many, fit_feature_stats
from pseudolab.scorer import HyperParams, ScorerModel, model_to_json, train_ridge


class TestFoldPlan:
    def test_equal_sizes(self):
        plan = make_fold_plan(1000, n_folds=5, seed=1)
        sizes = [plan.fold_indices(f).size for f in range(5)]
        assert sizes == [200] * 5

    def test_remainder_spread(self):
        plan = make_fold_plan(7, n_folds=5, seed=1)
        sizes = sorted(plan.fold_indices(f).size for f in range(5))
        assert sizes == [1, 1, 1, 2, 2]

    def test_partition(self):
        plan = make_fold_plan(53, n_folds=4, seed=9)
        seen = np.concatenate([plan.fold_indices(f) for f in range(4)])
        assert sorted(seen.tolist()) == list(range(53))
        for f in range(4):
            train = set(plan.train_indices(f).tolist())
            fold = set(plan.fold_indices(f).tolist())
            assert not train & fold
            assert train | fold == set(range(53))

    def test_deterministic(self):
        a = make_fold_plan(100, n_folds=5, seed=3)
        b = make_fold_plan(100, n_folds=5, seed=3)
        assert np.array_equal(a.assignment, b.assignment)
        c = make_fold_plan(100, n_folds=5, seed=4)
        assert not np.array_equal(a.assignment, c.assignment)

    def test_too_few_items(self):
        with pytest.raises(ValueError, match="folds"):
            make_fold_plan(3, n_folds=5)

    def test_roundtrip(self):
        plan = make_fold_plan(20, n_folds=5, seed=2)
        again = FoldPlan.from_dict(plan.to_dict())
        assert np.array_equal(again.assignment, plan.assignment)
        assert (again.n_folds, again.seed) == (plan.n_folds, plan.seed)


@pytest.fixture(scope="module")
def toy_archetypes():
    texts = [f"beispielsatz nummer {i} mit etwas mehr inhalt dahinter" for i in range(80)]
    return [
        Archetype("a", fit_feature_stats(texts, FeatureConfig(hashed_dim=64)), 32),
        Archetype("b", fit_feature_stats(texts, FeatureConfig(hashed_dim=32, ngram_min=2, ngram_max=4)), 32),
        Archetype("c", fit_feature_stats(texts, FeatureConfig(hashed_dim=48, ngram_min=4, ngram_max=6)), 20),
    ], texts


class TestPseudoStage:
    def test_cardinality_and_identity(self, toy_archetypes, rng):
        archetypes, texts = toy_archetypes
        scores = rng.uniform(2, 6, size=len(texts))
        hyper = HyperParams(learning_rate=0.1, max_epochs=2)
        features = {a.name: embed_many(texts, [a.stats])[0] for a in archetypes}
        models = train_pseudo_stage(features, scores, archetypes, (1, 2, 3), hyper)
        assert len(models) == 9
        keys = {(m.archetype, m.seed) for m in models}
        assert len(keys) == 9
        assert {m.stage for m in models} == {"pseudo_tuned"}

    def test_single_archetype_single_seed(self, toy_archetypes, rng):
        archetypes, texts = toy_archetypes
        scores = rng.uniform(2, 6, size=len(texts))
        models = train_pseudo_stage(
            {"a": embed_many(texts, [archetypes[0].stats])[0]},
            scores,
            archetypes[:1],
            (7,),
            HyperParams(max_epochs=1),
        )
        assert len(models) == 1
        assert models[0].fingerprint == archetypes[0].stats.fingerprint

    def test_rerun_byte_identical(self, toy_archetypes, rng):
        archetypes, texts = toy_archetypes
        scores = rng.uniform(2, 6, size=len(texts))
        hyper = HyperParams(learning_rate=0.1, max_epochs=2)
        features = {a.name: embed_many(texts, [a.stats])[0] for a in archetypes}
        a = train_pseudo_stage(features, scores, archetypes, (1, 2), hyper)
        b = train_pseudo_stage(features, scores, archetypes, (1, 2), hyper)
        assert [model_to_json(m) for m in a] == [model_to_json(m) for m in b]

    def test_empty_rejected(self, toy_archetypes):
        archetypes, _ = toy_archetypes
        with pytest.raises(ValueError, match="empty"):
            train_pseudo_stage(
                {a.name: embed_many([], [a.stats])[0] for a in archetypes},
                [],
                archetypes,
                (1,),
                HyperParams(),
            )


def test_fixture_pseudo_stage_in_place_matches_gathered_rows(
    small_context, small_dataset, small_pipeline_config
):
    """train_stage_models reads the corpus matrices in place; the models are
    bitwise those trained on copies of the admitted rows."""
    from pseudolab import pipeline

    ctx, cfg = small_context, small_pipeline_config
    anchors = small_dataset.labeled_train
    gate = pipeline.train_gate_model(ctx.retrieval_stats, anchors, cfg)
    pset = pipeline.generate_for_anchors(ctx, anchors, gate, cfg, {a.text for a in anchors})
    rows = rows_of(ctx.store.ids(), [lab.sentence_id for lab in pset.labels])
    assert 0 < len(rows) < len(ctx.store)
    corpus_features = pipeline.embed_archetypes(
        [r.text for r in ctx.store.records], ctx.archetypes
    )
    gathered = train_pseudo_stage(
        {name: matrix[rows] for name, matrix in corpus_features.items()},
        [lab.predicted_score for lab in pset.labels],
        ctx.archetypes,
        cfg.seeds,
        cfg.hyper_pseudo,
    )
    in_place = pipeline.train_stage_models(ctx, corpus_features, pset.admitted(), cfg, "test")
    assert [model_to_json(m) for m in in_place] == [model_to_json(m) for m in gathered]


def _labeled_from(texts, y):
    return [
        LabeledSentence(id=i, text=t, mos=float(v), rating_std=0.3)
        for i, (t, v) in enumerate(zip(texts, y))
    ]


@pytest.fixture(scope="module")
def tuned_bundle(toy_archetypes, request):
    archetypes, texts = toy_archetypes
    rng = np.random.default_rng(5)
    scores = rng.uniform(2, 6, size=len(texts))
    features = {a.name: embed_many(texts, [a.stats])[0] for a in archetypes}
    base = train_pseudo_stage(
        features, scores, archetypes, (1, 2, 3), HyperParams(learning_rate=0.2, max_epochs=3)
    )
    y = np.clip(2.0 + 0.04 * np.array([len(t) for t in texts]) + rng.normal(scale=0.2, size=len(texts)), 1, 7)
    labeled = _labeled_from(texts, y)
    plan = make_fold_plan(len(labeled), n_folds=5, seed=11)
    hyper = HyperParams(learning_rate=0.1, max_epochs=10)
    bundle = cv_fine_tune(
        base, archetypes, labeled, plan, hyper, features_by_archetype=features
    )
    return bundle, labeled, plan


class TestCvFineTune:
    def test_model_cardinality(self, tuned_bundle):
        bundle, labeled, plan = tuned_bundle
        assert len(bundle.fold_models) == 45  # 3 archetypes x 3 seeds x 5 folds
        keys = {(fm.model.archetype, fm.model.seed, fm.fold) for fm in bundle.fold_models}
        assert len(keys) == 45

    def test_oof_shape_and_range(self, tuned_bundle):
        bundle, labeled, _ = tuned_bundle
        assert bundle.oof.shape == (len(labeled), 9)
        assert np.all((bundle.oof >= 1.0) & (bundle.oof <= 7.0))
        assert len(bundle.base_keys) == 9

    def test_hygiene_audit(self, tuned_bundle):
        bundle, _, _ = tuned_bundle
        assert audit_oof_hygiene(bundle)

    def test_fold_id_outside_plan_rejected(self, toy_archetypes):
        archetypes, texts = toy_archetypes
        y = np.full(len(texts), 3.0)
        base = train_pseudo_stage(
            {"a": embed_many(texts, [archetypes[0].stats])[0]},
            y,
            archetypes[:1],
            (1,),
            HyperParams(max_epochs=1),
        )
        labeled = _labeled_from(texts, y)
        plan = make_fold_plan(len(labeled), n_folds=5, seed=1)
        plan.assignment[[0, 3]] = 5  # no fold 5 in a 5-fold plan
        with pytest.raises(ValueError, match=r"seed 1, 5 folds.*2 out-of-fold rows"):
            cv_fine_tune(
                base, archetypes[:1], labeled, plan, HyperParams(max_epochs=1),
                features_by_archetype={"a": embed_many(texts, [archetypes[0].stats])[0]},
            )

    def test_plan_size_mismatch(self, toy_archetypes):
        archetypes, texts = toy_archetypes
        base = [
            ScorerModel(
                weights=np.zeros(64 + 6),
                intercept=3.0,
                fingerprint=archetypes[0].stats.fingerprint,
                archetype="a",
            )
        ]
        labeled = _labeled_from(texts[:10], [3.0] * 10)
        plan = make_fold_plan(9, n_folds=3)
        with pytest.raises(ValueError, match="fold plan"):
            cv_fine_tune(
                base, archetypes, labeled, plan, HyperParams(),
                features_by_archetype={"a": embed_many(texts[:10], [archetypes[0].stats])[0]},
            )

    def test_recovers_exact_linear_target(self, toy_archetypes):
        # target is an exact linear function of archetype-a features, so the
        # warm-started fine-tune should land near it out of fold
        archetypes, texts = toy_archetypes
        arch = archetypes[0]
        X = embed_many(texts, [arch.stats])[0]
        rng = np.random.default_rng(8)
        w_true = rng.normal(size=X.shape[1]) * 0.2
        y = np.clip(4.0 + X @ w_true, 1.5, 6.5)
        assert np.all((y > 1.5) & (y < 6.5))  # no clipping actually bites
        labeled = _labeled_from(texts, y)
        base = [
            train_ridge(X, y, 1e-6, fingerprint=arch.stats.fingerprint, archetype="a")
        ]
        plan = make_fold_plan(len(labeled), n_folds=5, seed=2)
        bundle = cv_fine_tune(
            base,
            archetypes[:1],
            labeled,
            plan,
            HyperParams(learning_rate=0.01, max_epochs=2),
            features_by_archetype={"a": X},
        )
        oof_rmse = float(np.sqrt(np.mean((bundle.oof[:, 0] - y) ** 2)))
        assert oof_rmse < 0.05


class TestStacker:
    def test_exact_single_column(self, rng):
        y = rng.uniform(2, 6, size=100)
        w, b, fallback = fit_stacker(y[:, None], y)
        assert not fallback
        assert w[0] == pytest.approx(1.0, abs=1e-9)
        assert b == pytest.approx(0.0, abs=1e-9)

    def test_recovers_known_combination(self, rng):
        oof = rng.uniform(1, 7, size=(500, 5))
        w_true = np.array([0.4, 0.1, 0.2, 0.2, 0.1])
        y = oof @ w_true + 0.3
        w, b, fallback = fit_stacker(oof, y)
        assert not fallback
        np.testing.assert_allclose(w, w_true, atol=1e-6)
        assert b == pytest.approx(0.3, abs=1e-6)

    def test_in_sample_dominates_mean(self, rng):
        oof = np.clip(rng.uniform(2, 6, size=(200, 9)) + rng.normal(scale=0.5, size=(200, 9)), 1, 7)
        y = rng.uniform(2, 6, size=200)
        w, b, _ = fit_stacker(oof, y)
        stacked = oof @ w + b
        mean_pred = oof.mean(axis=1)
        rmse = lambda p: float(np.sqrt(np.mean((p - y) ** 2)))
        assert rmse(stacked) <= rmse(mean_pred) + 1e-9

    def test_degenerate_columns_trigger_fallback(self, rng):
        col = rng.uniform(2, 6, size=50)
        oof = np.column_stack([col, col, col])
        y = col + 0.1
        w, b, fallback = fit_stacker(oof, y)
        assert fallback
        pred = oof @ w + b
        assert float(np.sqrt(np.mean((pred - y) ** 2))) < 1e-3

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            fit_stacker(np.array([[np.nan]]), np.array([3.0]))


def _constant_bundle(archetypes, intercepts, aggregation="mean", **kw):
    fold_models = []
    for arch, icpt in zip(archetypes, intercepts):
        dim = arch.stats.config.hashed_dim + 6
        for f in range(2):
            fold_models.append(
                FoldModel(
                    fold=f,
                    model=ScorerModel(
                        weights=np.zeros(dim),
                        intercept=icpt,
                        fingerprint=arch.stats.fingerprint,
                        seed=1,
                        stage="final",
                        archetype=arch.name,
                    ),
                )
            )
    plan = make_fold_plan(4, n_folds=2, seed=0)
    return EnsembleBundle(
        fold_models=fold_models,
        plan=plan,
        archetypes={a.name: a for a in archetypes},
        aggregation=aggregation,
        **kw,
    )


class TestPredictEnsemble:
    def test_mean_of_constant_models(self, toy_archetypes):
        archetypes, _ = toy_archetypes
        bundle = _constant_bundle(archetypes, [2.0, 2.5, 3.0])
        assert predict_ensemble_batch(bundle, ["irgendein satz"])[0] == pytest.approx(2.5)

    def test_stacker_with_uniform_weights_equals_mean(self, toy_archetypes):
        archetypes, texts = toy_archetypes
        mean_bundle = _constant_bundle(archetypes, [2.0, 3.0, 4.0])
        stack_bundle = _constant_bundle(
            archetypes,
            [2.0, 3.0, 4.0],
            aggregation="stacker",
            stacker_weights=np.full(3, 1.0 / 3.0),
            stacker_intercept=0.0,
        )
        a = predict_ensemble_batch(mean_bundle, texts[:5])
        b = predict_ensemble_batch(stack_bundle, texts[:5])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_stacker_without_weights_rejected(self, toy_archetypes):
        archetypes, _ = toy_archetypes
        bundle = _constant_bundle(archetypes, [2.0, 2.5, 3.0], aggregation="stacker")
        with pytest.raises(ValueError, match="stacker"):
            predict_ensemble_batch(bundle, ["satz"])[0]

    def test_batch_matches_per_model_replay(self, tuned_bundle, toy_archetypes):
        bundle, labeled, _ = tuned_bundle
        archetypes, _ = toy_archetypes
        texts = [s.text for s in labeled[:20]]
        got = predict_ensemble_batch(bundle, texts)
        x_by_arch = {a.name: embed_many(texts, [a.stats])[0] for a in archetypes}
        from pseudolab.scorer import predict

        acc = np.zeros(len(texts))
        for fm in bundle.fold_models:
            acc += predict(fm.model, x_by_arch[fm.model.archetype])
        expected = np.clip(acc / len(bundle.fold_models), 1.0, 7.0)
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_embed_chunk_rows_keeps_chunked_scores_bitwise():
    """A BLAS matrix-vector kernel sums a few rows at a time (OpenBLAS takes 4);
    chunks that start at a multiple of 64 rows give every row its whole-matrix bits."""
    assert EMBED_CHUNK_ROWS % 64 == 0


@pytest.mark.parametrize("aggregation", ["mean", "stacker"])
def test_chunked_predict_bitwise_equals_whole_matrix_scores(aggregation):
    rng = np.random.default_rng(21)
    words = ["haus", "baum", "schule", "fenster", "strasse", "wolke", "licht", "garten"]
    texts = [
        " ".join(rng.choice(words, size=int(rng.integers(2, 30)))) + f" {i}."
        for i in range(2 * EMBED_CHUNK_ROWS + 7)  # the last chunk is partial
    ]
    configs = {
        "wide": FeatureConfig(hashed_dim=2048),
        "mid": FeatureConfig(hashed_dim=1024, ngram_min=2, ngram_max=4),
        "narrow": FeatureConfig(hashed_dim=512, ngram_min=4, ngram_max=6),
    }
    archetypes = {
        name: Archetype(name, fit_feature_stats(texts[:100], config), 32)
        for name, config in configs.items()
    }
    fold_models = [
        FoldModel(fold, ScorerModel(
            weights=rng.normal(scale=0.5, size=arch.stats.config.dimension),
            intercept=4.0,
            fingerprint=arch.stats.fingerprint,
            seed=seed,
            archetype=name,
        ))
        for name, arch in archetypes.items() for seed in (1, 2) for fold in range(2)
    ]
    bundle = EnsembleBundle(
        fold_models=fold_models,
        plan=make_fold_plan(4, n_folds=2, seed=0),
        archetypes=archetypes,
        aggregation=aggregation,
        stacker_weights=rng.uniform(0.1, 0.4, size=6),
        stacker_intercept=0.3,
    )
    got = predict_ensemble_batch(bundle, texts)
    whole = dict(zip(archetypes, embed_many(texts, [a.stats for a in archetypes.values()])))
    expected = score_features(bundle, whole)
    assert np.count_nonzero((expected > 1.0) & (expected < 7.0)) > len(texts) // 2
    np.testing.assert_array_equal(got, expected)


def test_bundle_roundtrip(tmp_path, tuned_bundle):
    bundle, labeled, _ = tuned_bundle
    y = np.array([s.mos for s in labeled])
    w, b, fallback = fit_stacker(bundle.oof, y)
    bundle.stacker_weights = w
    bundle.stacker_intercept = b
    bundle.stacker_fallback = fallback
    bundle.aggregation = "stacker"
    save_bundle(bundle, tmp_path / "bundle")
    loaded = load_bundle(tmp_path / "bundle")
    assert len(loaded.fold_models) == len(bundle.fold_models)
    for a, b_ in zip(bundle.fold_models, loaded.fold_models):
        assert model_to_json(a.model) == model_to_json(b_.model)
    np.testing.assert_array_equal(loaded.oof, bundle.oof)
    np.testing.assert_array_equal(loaded.stacker_weights, bundle.stacker_weights)
    assert loaded.aggregation == "stacker"
    texts = [s.text for s in labeled[:5]]
    np.testing.assert_allclose(
        predict_ensemble_batch(loaded, texts),
        predict_ensemble_batch(bundle, texts),
        atol=0,
    )
