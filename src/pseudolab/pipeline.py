"""End-to-end orchestration shared by the CLI and the evaluation harness.

Holds the four experimental settings: a single-model baseline, a 9-model
pseudo-label-only ensemble, and the 45-model two-stage ensemble with mean or
linear-stacker aggregation, all evaluated by k-fold cross-validation.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import parallel
from .corpus import CorpusStore, LabeledSentence
from .ensemble import (
    Archetype,
    EnsembleBundle,
    FoldPlan,
    cv_fine_tune,
    fit_stacker,
    make_fold_plan,
    mean_prediction,
    score_features,
    train_pseudo_stage,
)
from .features import FeatureConfig, FeatureStats, embed_many, fit_feature_stats_many
from .metrics import EvalReport, fold_mean, mapped_rmse, rmse
from .pseudolabel import PseudoLabelSet, generate_pseudo_labels, retrieve_candidates
from .scorer import (
    DivergedError,
    HyperParams,
    ScorerModel,
    predict,
    train_iterative,
    train_ridge,
)
from .simindex import VectorIndex, build_index, map_row_blocks

SETTINGS = ("baseline", "pseudo_only", "ensemble_mean", "ensemble_stacker")

RETRIEVAL = "retrieval"


@dataclass(frozen=True)
class ArchetypeSpec:
    name: str
    hashed_dim: int
    ngram_min: int
    ngram_max: int
    batch_size: int = 32

    def __post_init__(self):
        self.feature_config()  # raises on a featurizer setting FeatureConfig rejects
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(
            hashed_dim=self.hashed_dim,
            ngram_min=self.ngram_min,
            ngram_max=self.ngram_max,
        )


DEFAULT_ARCHETYPE_SPECS = (
    ArchetypeSpec("char35_wide", 2048, 3, 5, 32),
    ArchetypeSpec("char24_mid", 1024, 2, 4, 32),
    ArchetypeSpec("char46_narrow", 512, 4, 6, 20),
)

DEFAULT_RETRIEVAL_CONFIG = FeatureConfig(hashed_dim=1024, ngram_min=3, ngram_max=5)


def default_pseudo_hyper() -> HyperParams:
    return HyperParams(
        learning_rate=0.3, max_epochs=4, early_stopping=False, ridge_lambda=1.0
    )


def default_fine_tune_hyper() -> HyperParams:
    # no early stopping here: the fine-tuning folds are small and the 20%
    # holdout costs more than the stopping rule saves
    return HyperParams(
        learning_rate=0.1, max_epochs=20, early_stopping=False, ridge_lambda=1.0
    )


def default_baseline_hyper() -> HyperParams:
    return HyperParams(
        learning_rate=0.2, max_epochs=30, early_stopping=True, ridge_lambda=1.0
    )


@dataclass
class PipelineConfig:
    k: int = 500
    n_folds: int = 5
    seeds: tuple[int, ...] = (1, 2, 3)
    hyper_pseudo: HyperParams = field(default_factory=default_pseudo_hyper)
    hyper_fine: HyperParams = field(default_factory=default_fine_tune_hyper)
    hyper_baseline: HyperParams = field(default_factory=default_baseline_hyper)
    ridge_lambda_baseline: float = 1.0


@dataclass
class PipelineContext:
    """Fold-independent state: store, featurizers, index, corpus features.

    The index's float32 vectors are the one retrieval matrix. `corpus_features`
    holds each archetype's float32 corpus matrix; `row_of_id` maps a corpus id
    to its row. A CLI stage builds only the parts it reads and leaves `index`,
    or the features, empty; `evaluate` drops the index before it embeds the
    features.
    """

    store: CorpusStore | None
    retrieval_stats: FeatureStats
    archetypes: list[Archetype]
    index: VectorIndex | None = None
    corpus_features: dict[str, np.ndarray] = field(default_factory=dict)
    row_of_id: dict[int, int] = field(default_factory=dict)


def embed_corpus(
    store: CorpusStore, archetypes: Sequence[Archetype]
) -> tuple[dict[str, np.ndarray], dict[int, int]]:
    """Each archetype's float32 corpus matrix, rows in store order, and the row of each id.

    The corpus is embedded once per distinct featurizer, so archetypes with
    equal featurizer configs share one matrix.
    """
    texts = [r.text for r in store.records]
    distinct = {arch.stats.fingerprint: arch.stats for arch in archetypes}
    matrices = dict(zip(distinct, embed_many(texts, list(distinct.values()), dtype=np.float32)))
    corpus_features = {arch.name: matrices[arch.stats.fingerprint] for arch in archetypes}
    return corpus_features, {r.id: row for row, r in enumerate(store.records)}


def build_context(
    store: CorpusStore,
    retrieval_config: FeatureConfig = DEFAULT_RETRIEVAL_CONFIG,
    archetype_specs: Sequence[ArchetypeSpec] = DEFAULT_ARCHETYPE_SPECS,
) -> PipelineContext:
    """Fit every featurizer on the store, index its retrieval vectors and embed its archetypes."""
    retrieval_stats, *archetype_stats = fit_feature_stats_many(
        store.records, [retrieval_config, *(spec.feature_config() for spec in archetype_specs)]
    )
    archetypes = [
        Archetype(name=spec.name, stats=stats, batch_size=spec.batch_size)
        for spec, stats in zip(archetype_specs, archetype_stats)
    ]
    index = build_index(
        zip(
            (r.id for r in store.records),
            embed_many([r.text for r in store.records], [retrieval_stats])[0],
        ),
        fingerprint=retrieval_stats.fingerprint,
    )
    corpus_features, row_of_id = embed_corpus(store, archetypes)
    return PipelineContext(
        store=store,
        retrieval_stats=retrieval_stats,
        archetypes=archetypes,
        index=index,
        corpus_features=corpus_features,
        row_of_id=row_of_id,
    )


def train_gate_model(
    retrieval_stats: FeatureStats, anchors: Sequence[LabeledSentence], cfg: PipelineConfig
) -> ScorerModel:
    """Closed-form ridge baseline used to score pseudo-label candidates."""
    X = embed_many([a.text for a in anchors], [retrieval_stats])[0]
    y = np.array([a.mos for a in anchors])
    return train_ridge(
        X,
        y,
        cfg.ridge_lambda_baseline,
        fingerprint=retrieval_stats.fingerprint,
        stage="baseline",
        archetype=RETRIEVAL,
    )


def corpus_score_map(ctx: PipelineContext, gate: ScorerModel) -> dict[int, float]:
    """The gate's score of every corpus sentence, by id, on the index vectors."""
    scores = map_row_blocks(lambda block: predict(gate, block), ctx.index.vectors)
    return dict(zip(ctx.index.ids.tolist(), scores.tolist()))


def generate_for_anchors(
    ctx: PipelineContext,
    anchors: Sequence[LabeledSentence],
    gate: ScorerModel,
    cfg: PipelineConfig,
    exclude_texts: set[str],
) -> PseudoLabelSet:
    """Retrieve the anchors' candidates and admit them on the gate's corpus scores."""
    candidates = retrieve_candidates(
        anchors, ctx.index, ctx.store, ctx.retrieval_stats, k=cfg.k, exclude_texts=exclude_texts
    )
    return generate_pseudo_labels(
        anchors, candidates, ctx.store, gate, precomputed_scores=corpus_score_map(ctx, gate)
    )


def fold_pseudo_labels(
    ctx: PipelineContext,
    labeled: Sequence[LabeledSentence],
    plan: FoldPlan,
    cfg: PipelineConfig,
) -> list[PseudoLabelSet]:
    """Every fold's pseudo-label set, from its training-fold anchors only.

    No labeled text is admitted. That exclude set is the same in every fold,
    so all labeled anchors are retrieved once, in one `top_k_many` call. Each
    fold then admits from its anchors' candidates with its own gate's corpus
    scores, so its set equals `generate_for_anchors(ctx, fold_train, gate,
    cfg, labeled texts)` label for label.
    """
    labeled = list(labeled)
    candidates = retrieve_candidates(
        labeled, ctx.index, ctx.store, ctx.retrieval_stats, k=cfg.k,
        exclude_texts={s.text for s in labeled},
    )
    psets = []
    for f in range(plan.n_folds):
        fold_train = [labeled[i] for i in plan.train_indices(f)]
        gate = train_gate_model(ctx.retrieval_stats, fold_train, cfg)
        pset = generate_pseudo_labels(
            fold_train, candidates, ctx.store, gate,
            precomputed_scores=corpus_score_map(ctx, gate),
        )
        test_ids = {labeled[i].id for i in plan.fold_indices(f)}
        leaked = sorted({lab.anchor_id for lab in pset.labels} & test_ids)
        if leaked:
            raise RuntimeError(f"fold {f}: pseudo-labels anchored on test-fold ids {leaked[:5]}")
        psets.append(pset)
    return psets


@contextmanager
def _naming_divergence(cfg: PipelineConfig, key: str, where: str):
    """Re-raise a DivergedError naming the stage or fold and the config key of
    the fit's hyperparameters, whose learning rate is too large."""
    try:
        yield
    except DivergedError as exc:
        raise DivergedError(
            f"{exc} in {where}: the fit diverged; lower {key}.learning_rate "
            f"(now {getattr(cfg, key).learning_rate:g})"
        ) from None


def train_stage_models(
    ctx: PipelineContext, pset: PseudoLabelSet, cfg: PipelineConfig, where: str
) -> list[ScorerModel]:
    """The pseudo stage: one model per (archetype, seed), trained in place on
    the corpus features at the admitted labels' rows.

    `where` names the stage or fold in the error raised when nothing was
    admitted or a fit diverged.
    """
    if not pset.labels:
        raise RuntimeError(
            f"{where}: no pseudo-labels were admitted, so the pseudo stage has "
            "nothing to train on (raise k or check the labeled set)"
        )
    with _naming_divergence(cfg, "hyper_pseudo", where):
        return train_pseudo_stage(
            ctx.corpus_features,
            [lab.predicted_score for lab in pset.labels],
            ctx.archetypes,
            cfg.seeds,
            cfg.hyper_pseudo,
            rows=np.array(
                [ctx.row_of_id[lab.sentence_id] for lab in pset.labels], dtype=np.int64
            ),
        )


def embed_labeled(
    archetypes: Sequence[Archetype], labeled: Sequence[LabeledSentence]
) -> dict[str, np.ndarray]:
    """Each archetype's float32 features of the labeled sentences, row for row."""
    matrices = embed_many(
        [s.text for s in labeled], [arch.stats for arch in archetypes], dtype=np.float32
    )
    return {arch.name: x for arch, x in zip(archetypes, matrices)}


def fine_tune_ensemble(
    models: Sequence[ScorerModel],
    archetypes: Sequence[Archetype],
    labeled: Sequence[LabeledSentence],
    plan: FoldPlan,
    cfg: PipelineConfig,
    where: str,
    *,
    features_by_archetype: dict[str, np.ndarray],
) -> EnsembleBundle:
    """Fine-tune every pseudo-stage model per fold, then fit the stacker on the OOF matrix.

    `features_by_archetype` holds each archetype's features of `labeled`, row
    for row. `where` names the stage or fold in the error raised when a fit
    diverged. The bundle aggregates by mean; set `aggregation` to "stacker" to
    use the stacker.
    """
    with _naming_divergence(cfg, "hyper_fine", where):
        bundle = cv_fine_tune(
            models, archetypes, labeled, plan, cfg.hyper_fine,
            features_by_archetype=features_by_archetype,
        )
    y = np.array([s.mos for s in labeled])
    weights, intercept, fallback = fit_stacker(bundle.oof, y)
    bundle.stacker_weights = weights
    bundle.stacker_intercept = intercept
    bundle.stacker_fallback = fallback
    return bundle


def evaluate_settings(
    ctx: PipelineContext,
    labeled: Sequence[LabeledSentence],
    settings: Sequence[str],
    plan: FoldPlan,
    cfg: PipelineConfig,
    *,
    pseudo_sets: Sequence[PseudoLabelSet] | None = None,
) -> dict[str, EvalReport]:
    """Cross-validate the requested settings on the labeled set.

    The pseudo stage of fold f trains on `pseudo_sets[f]`, as
    `fold_pseudo_labels` makes them; when they are not given, they are made
    here from `ctx.index`. Only the baseline setting needs no pseudo-labels,
    and no index or corpus features.
    """
    for setting in settings:
        if setting not in SETTINGS:
            raise ValueError(f"unknown setting {setting!r}; expected one of {SETTINGS}")
    labeled = list(labeled)
    y = np.array([s.mos for s in labeled])
    need_pseudo = any(s != "baseline" for s in settings)
    if need_pseudo and pseudo_sets is None:
        pseudo_sets = fold_pseudo_labels(ctx, labeled, plan, cfg)
    x_labeled = embed_labeled(ctx.archetypes, labeled)

    def run_fold(f: int) -> dict[str, np.ndarray]:
        train_idx = plan.train_indices(f)
        test_idx = plan.fold_indices(f)
        fold_train = [labeled[i] for i in train_idx]
        x_test = {name: feats[test_idx] for name, feats in x_labeled.items()}

        models9: list[ScorerModel] | None = None
        if need_pseudo:
            models9 = train_stage_models(ctx, pseudo_sets[f], cfg, f"fold {f}")

        bundle: EnsembleBundle | None = None
        if any(s in ("ensemble_mean", "ensemble_stacker") for s in settings):
            inner_plan = make_fold_plan(
                len(train_idx), cfg.n_folds, seed=plan.seed * 1009 + f
            )
            bundle = fine_tune_ensemble(
                models9, ctx.archetypes, fold_train, inner_plan, cfg, f"fold {f}",
                features_by_archetype={
                    name: feats[train_idx] for name, feats in x_labeled.items()
                },
            )

        fold_preds: dict[str, np.ndarray] = {}
        for setting in settings:
            if setting == "baseline":
                arch0 = ctx.archetypes[0]
                where = f"fold {f}, archetype {arch0.name!r}"
                with _naming_divergence(cfg, "hyper_baseline", where):
                    model = train_iterative(
                        None,
                        x_labeled[arch0.name][train_idx],
                        y[train_idx],
                        cfg.hyper_baseline,
                        seed=plan.seed * 7919 + f,
                        batch_size=arch0.batch_size,
                        fingerprint=arch0.stats.fingerprint,
                        stage="baseline",
                        archetype=arch0.name,
                    )
                preds = predict(model, x_test[arch0.name])
            elif setting == "pseudo_only":
                preds = mean_prediction(models9, x_test)
            elif setting == "ensemble_mean":
                preds = score_features(bundle, x_test)
            else:  # ensemble_stacker
                preds = score_features(replace(bundle, aggregation="stacker"), x_test)
            fold_preds[setting] = preds
        return fold_preds

    per_fold: dict[str, list[float]] = {s: [] for s in settings}
    pooled_pred: dict[str, np.ndarray] = {s: np.zeros(len(labeled)) for s in settings}
    # a fold that trains no pseudo stage is one small fit: forking costs more
    workers = parallel.worker_count(plan.n_folds) if need_pseudo else 1
    folds = parallel.map_forked(run_fold, plan.n_folds, workers, work="the cross-validation folds")
    for f, fold_preds in enumerate(folds):
        test_idx = plan.fold_indices(f)
        for setting in settings:
            per_fold[setting].append(rmse(fold_preds[setting], y[test_idx]))
            pooled_pred[setting][test_idx] = fold_preds[setting]

    reports: dict[str, EvalReport] = {}
    for setting in settings:
        raw = rmse(pooled_pred[setting], y)
        mapped, mapping = mapped_rmse(pooled_pred[setting], y)
        reports[setting] = EvalReport(
            setting=setting,
            per_fold_rmse=per_fold[setting],
            fold_mean_rmse=fold_mean(per_fold[setting]),
            rmse_raw=raw,
            rmse_mapped=mapped,
            mapping=mapping,
            details={"n_folds": plan.n_folds, "plan_seed": plan.seed},
        )
    return reports
