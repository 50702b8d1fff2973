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
from .corpus import CorpusStore, LabeledSentence, rows_of
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
from .simindex import VectorIndex, map_row_blocks

SETTINGS = ("baseline", "pseudo_only", "ensemble_mean", "ensemble_stacker")
DEFAULT_SETTING = "ensemble_mean"
# what each ensemble setting aggregates its bundle's fold models by
AGGREGATION = {"ensemble_mean": "mean", "ensemble_stacker": "stacker"}

RETRIEVAL = "retrieval"
# the ridge penalty of the gate model, the closed-form fit of train-baseline
GATE_RIDGE_LAMBDA = 1.0


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
    return HyperParams(learning_rate=0.3, max_epochs=4, ridge_lambda=1.0)


def default_fine_tune_hyper() -> HyperParams:
    return HyperParams(learning_rate=0.1, max_epochs=20, ridge_lambda=1.0)


def default_baseline_hyper() -> HyperParams:
    return HyperParams(learning_rate=0.2, max_epochs=30, ridge_lambda=1.0)


@dataclass
class PipelineConfig:
    k: int = 500
    n_folds: int = 5
    seeds: tuple[int, ...] = (1, 2, 3)
    hyper_pseudo: HyperParams = field(default_factory=default_pseudo_hyper)
    hyper_fine: HyperParams = field(default_factory=default_fine_tune_hyper)
    hyper_baseline: HyperParams = field(default_factory=default_baseline_hyper)


@dataclass
class PipelineContext:
    """Fold-independent state: store, featurizers and index.

    The index's float32 vectors are the one retrieval matrix. A CLI stage
    builds only the parts it reads and leaves `index` empty where it needs
    none. No archetype corpus matrix is held here: each is embedded by the
    task that trains on it (see `train_ensembles`).
    """

    store: CorpusStore
    retrieval_stats: FeatureStats
    archetypes: list[Archetype]
    index: VectorIndex | None = None


def embed_archetypes(texts: Sequence[str], archetypes: Sequence[Archetype]) -> dict[str, np.ndarray]:
    """Each archetype's float32 features of `texts`, row for row.

    The texts are embedded once per distinct featurizer, so archetypes with
    equal featurizer configs share one matrix.
    """
    distinct = {arch.stats.fingerprint: arch.stats for arch in archetypes}
    matrices = dict(zip(distinct, embed_many(texts, list(distinct.values()), dtype=np.float32)))
    return {arch.name: matrices[arch.stats.fingerprint] for arch in archetypes}


def featurizer_configs(
    retrieval_config: FeatureConfig, archetype_specs: Sequence[ArchetypeSpec]
) -> dict[str, FeatureConfig]:
    """A run's featurizers by name: RETRIEVAL first, then each archetype."""
    return {RETRIEVAL: retrieval_config, **{s.name: s.feature_config() for s in archetype_specs}}


def build_context(
    store: CorpusStore,
    retrieval_config: FeatureConfig = DEFAULT_RETRIEVAL_CONFIG,
    archetype_specs: Sequence[ArchetypeSpec] = DEFAULT_ARCHETYPE_SPECS,
) -> PipelineContext:
    """Fit every featurizer on the store and index its retrieval vectors."""
    configs = featurizer_configs(retrieval_config, archetype_specs)
    stats = dict(zip(configs, fit_feature_stats_many(store.records, configs.values())))
    (vectors,) = embed_many([r.text for r in store.records], [stats[RETRIEVAL]], dtype=np.float32)
    return PipelineContext(
        store=store,
        retrieval_stats=stats[RETRIEVAL],
        archetypes=[Archetype(s.name, stats[s.name], s.batch_size) for s in archetype_specs],
        index=VectorIndex(store.ids(), vectors, stats[RETRIEVAL].fingerprint),
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
        GATE_RIDGE_LAMBDA,
        fingerprint=retrieval_stats.fingerprint,
        stage="baseline",
        archetype=RETRIEVAL,
    )


def corpus_score_map(index: VectorIndex, gate: ScorerModel) -> np.ndarray:
    """The gate's score of every corpus sentence, by index row, on the index vectors."""
    return map_row_blocks(lambda block: predict(gate, block), index.vectors)


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
        anchors, candidates, ctx.store, gate, corpus_scores=corpus_score_map(ctx.index, gate)
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
            corpus_scores=corpus_score_map(ctx.index, gate),
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
    the fit's hyperparameters: its learning rate, or its ridge penalty, whose
    shrink step overflows when it is large enough, is too large."""
    try:
        yield
    except DivergedError as exc:
        hyper = getattr(cfg, key)
        raise DivergedError(
            f"{exc} in {where}: the fit diverged; lower {key}.learning_rate "
            f"(now {hyper.learning_rate:g}) or {key}.ridge_lambda (now {hyper.ridge_lambda:g})"
        ) from None


def train_stage_models(
    ctx: PipelineContext,
    corpus_features: dict[str, np.ndarray],
    pset: PseudoLabelSet,
    cfg: PipelineConfig,
    where: str,
) -> list[ScorerModel]:
    """The pseudo stage of the archetypes whose corpus matrices `corpus_features`
    holds: one model per (archetype, seed), in `ctx.archetypes` order, trained
    in place on each archetype's corpus matrix (rows in store order) at the
    admitted labels' rows.

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
            corpus_features,
            [lab.predicted_score for lab in pset.labels],
            [arch for arch in ctx.archetypes if arch.name in corpus_features],
            cfg.seeds,
            cfg.hyper_pseudo,
            rows=rows_of(ctx.store.ids(), [lab.sentence_id for lab in pset.labels]),
        )


def stacked_bundle(
    parts: Sequence[EnsembleBundle], y: np.ndarray, plan: FoldPlan
) -> EnsembleBundle:
    """The fine-tuned parts joined in order into one bundle, its OOF matrix
    their columns side by side, with the stacker fit on that matrix and the
    scores `y` of the labeled rows.

    The bundle aggregates by mean; set `aggregation` to "stacker" to use the
    stacker.
    """
    bundle = EnsembleBundle(
        fold_models=[fm for part in parts for fm in part.fold_models],
        plan=plan,
        archetypes={name: arch for part in parts for name, arch in part.archetypes.items()},
        oof=np.hstack([part.oof for part in parts]),
    )
    bundle.stacker_weights, bundle.stacker_intercept, bundle.stacker_fallback = fit_stacker(
        bundle.oof, y
    )
    return bundle


@dataclass
class TrainJob:
    """One ensemble for `train_ensembles` to train: the pseudo stage on `pset`
    and, with a `plan`, its models fine-tuned under that plan on the labeled
    rows `rows`. A slice takes a view of the labeled features, an index array
    a copy. `where` names the stage or fold in the job's errors."""

    pset: PseudoLabelSet
    where: str
    rows: np.ndarray | slice
    plan: FoldPlan | None = None


def train_ensembles(
    ctx: PipelineContext,
    labeled: Sequence[LabeledSentence],
    x_labeled: dict[str, np.ndarray],
    jobs: Sequence[TrainJob],
    cfg: PipelineConfig,
) -> list[tuple[list[ScorerModel], EnsembleBundle | None]]:
    """Per job: its pseudo-stage models in `ctx.archetypes` order, then seed;
    and, when it has a plan, the `stacked_bundle` of their fine-tuned fold
    models, listed by archetype, then seed, then fold.

    `x_labeled` holds each archetype's features of `labeled`, row for row.
    The models are trained in one forked task per distinct archetype
    featurizer: archetypes with equal featurizer configs share one task, and
    the tasks are ordered by each featurizer's first archetype. A task embeds
    its float32 corpus matrix and runs the jobs in order on it, slicing a
    job's labeled features when the job starts, and returns only models and
    OOF columns; so no process holds more than one corpus matrix.
    """
    groups: dict[str, list[Archetype]] = {}
    for arch in ctx.archetypes:
        groups.setdefault(arch.stats.fingerprint, []).append(arch)
    tasks = list(groups.values())
    texts = [r.text for r in ctx.store.records]

    def task(i: int) -> list[dict[str, tuple[list[ScorerModel], EnsembleBundle | None]]]:
        (matrix,) = embed_many(texts, [tasks[i][0].stats], dtype=np.float32)
        corpus_features = {arch.name: matrix for arch in tasks[i]}
        trained = []
        for job in jobs:
            models = train_stage_models(ctx, corpus_features, job.pset, cfg, job.where)
            if job.plan is not None:
                fine_labeled = [labeled[r] for r in np.arange(len(labeled))[job.rows]]
                features = {arch.name: x_labeled[arch.name][job.rows] for arch in tasks[i]}
            by_name = {}
            for arch in tasks[i]:
                own = [m for m in models if m.archetype == arch.name]
                part = None
                if job.plan is not None:
                    with _naming_divergence(cfg, "hyper_fine", job.where):
                        part = cv_fine_tune(
                            own, [arch], fine_labeled, job.plan, cfg.hyper_fine,
                            features_by_archetype=features,
                        )
                by_name[arch.name] = (own, part)
            trained.append(by_name)
        return trained

    results = parallel.map_forked(task, len(tasks), work="the training per featurizer")
    y = np.array([s.mos for s in labeled])
    ensembles = []
    for j, job in enumerate(jobs):
        by_name = {name: value for result in results for name, value in result[j].items()}
        models = [m for arch in ctx.archetypes for m in by_name[arch.name][0]]
        bundle = None
        if job.plan is not None:
            parts = [by_name[arch.name][1] for arch in ctx.archetypes]
            bundle = stacked_bundle(parts, y[job.rows], job.plan)
        ensembles.append((models, bundle))
    return ensembles


def train_ensemble(
    ctx: PipelineContext,
    labeled: Sequence[LabeledSentence],
    pset: PseudoLabelSet,
    plan: FoldPlan,
    cfg: PipelineConfig,
) -> EnsembleBundle:
    """The `train-ensemble` stage's bundle: the pseudo stage on `pset`, each
    model fine-tuned on all of `labeled` under `plan`, and the stacker on the
    OOF matrix; `train_ensembles` with one job."""
    labeled = list(labeled)
    x_labeled = embed_archetypes([s.text for s in labeled], ctx.archetypes)
    job = TrainJob(pset, "train-ensemble", slice(None), plan)
    ((_, bundle),) = train_ensembles(ctx, labeled, x_labeled, [job], cfg)
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
    here from `ctx.index`. Each fold is one job of `train_ensembles`; for an
    ensemble setting the job fine-tunes on the fold's training rows under
    its inner plan. This process then scores the folds. Only the baseline
    setting needs no pseudo-labels, and no index or corpus features; its
    folds are fit in this process.
    """
    for setting in settings:
        if setting not in SETTINGS:
            raise ValueError(f"unknown setting {setting!r}; expected one of {SETTINGS}")
    labeled = list(labeled)
    y = np.array([s.mos for s in labeled])
    x_labeled = embed_archetypes([s.text for s in labeled], ctx.archetypes)

    # per fold: its pseudo-stage models and, for an ensemble setting, its bundle
    trained: list[tuple[list[ScorerModel], EnsembleBundle | None]] = []
    if any(s != "baseline" for s in settings):
        if pseudo_sets is None:
            pseudo_sets = fold_pseudo_labels(ctx, labeled, plan, cfg)
        jobs = [
            TrainJob(pseudo_sets[f], f"fold {f}", plan.train_indices(f))
            for f in range(plan.n_folds)
        ]
        if any(s in AGGREGATION for s in settings):
            for f, job in enumerate(jobs):
                job.plan = make_fold_plan(len(job.rows), cfg.n_folds, seed=plan.seed * 1009 + f)
        trained = train_ensembles(ctx, labeled, x_labeled, jobs, cfg)

    per_fold: dict[str, list[float]] = {s: [] for s in settings}
    pooled_pred: dict[str, np.ndarray] = {s: np.zeros(len(labeled)) for s in settings}
    for f in range(plan.n_folds):
        train_idx = plan.train_indices(f)
        test_idx = plan.fold_indices(f)
        x_test = {name: feats[test_idx] for name, feats in x_labeled.items()}
        for setting in settings:
            if setting == "baseline":
                arch0 = ctx.archetypes[0]
                where = f"fold {f}, archetype {arch0.name!r}"
                with _naming_divergence(cfg, "hyper_baseline", where):
                    # the one fit that stops early; fine-tuning does not, as its
                    # folds are small and the 20% holdout costs more than the
                    # stopping rule saves
                    model = train_iterative(
                        None,
                        x_labeled[arch0.name],
                        y[train_idx],
                        cfg.hyper_baseline,
                        seed=plan.seed * 7919 + f,
                        batch_size=arch0.batch_size,
                        rows=train_idx,
                        early_stopping=True,
                        fingerprint=arch0.stats.fingerprint,
                        stage="baseline",
                        archetype=arch0.name,
                    )
                preds = predict(model, x_test[arch0.name])
            elif setting == "pseudo_only":
                preds = mean_prediction(trained[f][0], x_test)
            else:  # an ensemble setting
                bundle = replace(trained[f][1], aggregation=AGGREGATION[setting])
                preds = score_features(bundle, x_test)
            per_fold[setting].append(rmse(preds, y[test_idx]))
            pooled_pred[setting][test_idx] = preds

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
