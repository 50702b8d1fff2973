"""End-to-end orchestration shared by the CLI and the evaluation harness.

Holds the four experimental settings: a single-model baseline, a 9-model
pseudo-label-only ensemble, and the 45-model two-stage ensemble with mean or
linear-stacker aggregation, all evaluated by k-fold cross-validation.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

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
from .pseudolabel import PseudoLabelSet, generate_pseudo_labels
from .scorer import HyperParams, ScorerModel, predict, train_iterative, train_ridge
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
    """Fold-independent state: store, featurizers, index, cached corpus features.

    The index's float32 vectors are the one retrieval matrix. `corpus_features`
    holds each archetype's float64 corpus matrix; `row_of_id` maps a corpus id
    to its row. A CLI stage loads only the parts it reads and leaves `store`
    and `index`, or the features, empty.
    """

    store: CorpusStore | None
    retrieval_stats: FeatureStats
    archetypes: list[Archetype]
    index: VectorIndex | None
    corpus_features: dict[str, np.ndarray]
    row_of_id: dict[int, int]


def build_context(
    store: CorpusStore,
    retrieval_config: FeatureConfig = DEFAULT_RETRIEVAL_CONFIG,
    archetype_specs: Sequence[ArchetypeSpec] = DEFAULT_ARCHETYPE_SPECS,
) -> PipelineContext:
    """Fit every featurizer on the store and embed the corpus under each."""
    texts = [r.text for r in store.records]
    retrieval_stats, *archetype_stats = fit_feature_stats_many(
        store.records, [retrieval_config, *(spec.feature_config() for spec in archetype_specs)]
    )
    archetypes = [
        Archetype(name=spec.name, stats=stats, batch_size=spec.batch_size)
        for spec, stats in zip(archetype_specs, archetype_stats)
    ]
    index = build_index(
        zip((r.id for r in store.records), embed_many(texts, retrieval_stats)),
        fingerprint=retrieval_stats.fingerprint,
    )
    return PipelineContext(
        store=store,
        retrieval_stats=retrieval_stats,
        archetypes=archetypes,
        index=index,
        corpus_features={arch.name: embed_many(texts, arch.stats) for arch in archetypes},
        row_of_id={r.id: row for row, r in enumerate(store.records)},
    )


def train_gate_model(
    retrieval_stats: FeatureStats, anchors: Sequence[LabeledSentence], cfg: PipelineConfig
) -> ScorerModel:
    """Closed-form ridge baseline used to score pseudo-label candidates."""
    X = embed_many([a.text for a in anchors], retrieval_stats)
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
    return generate_pseudo_labels(
        anchors,
        ctx.index,
        ctx.store,
        gate,
        ctx.retrieval_stats,
        k=cfg.k,
        exclude_texts=exclude_texts,
        precomputed_scores=corpus_score_map(ctx, gate),
    )


def train_stage_models(
    ctx: PipelineContext, pset: PseudoLabelSet, cfg: PipelineConfig, where: str
) -> list[ScorerModel]:
    """The pseudo stage: one model per (archetype, seed), trained in place on
    the cached corpus features at the admitted labels' rows.

    `where` names the stage or fold in the error raised when nothing was admitted.
    """
    if not pset.labels:
        raise RuntimeError(
            f"{where}: no pseudo-labels were admitted, so the pseudo stage has "
            "nothing to train on (raise k or check the labeled set)"
        )
    return train_pseudo_stage(
        ctx.corpus_features,
        [lab.predicted_score for lab in pset.labels],
        ctx.archetypes,
        cfg.seeds,
        cfg.hyper_pseudo,
        rows=np.array([ctx.row_of_id[lab.sentence_id] for lab in pset.labels], dtype=np.int64),
    )


def embed_labeled(
    archetypes: Sequence[Archetype], labeled: Sequence[LabeledSentence]
) -> dict[str, np.ndarray]:
    """Each archetype's features of the labeled sentences, row for row."""
    texts = [s.text for s in labeled]
    return {arch.name: embed_many(texts, arch.stats) for arch in archetypes}


def fine_tune_ensemble(
    models: Sequence[ScorerModel],
    archetypes: Sequence[Archetype],
    labeled: Sequence[LabeledSentence],
    plan: FoldPlan,
    cfg: PipelineConfig,
    *,
    features_by_archetype: dict[str, np.ndarray],
) -> EnsembleBundle:
    """Fine-tune every pseudo-stage model per fold, then fit the stacker on the OOF matrix.

    `features_by_archetype` holds each archetype's features of `labeled`, row
    for row. The bundle aggregates by mean; set `aggregation` to "stacker" to
    use the stacker.
    """
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


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The fold function of the running `map_folds`. It is set before the pool
# forks, so the workers inherit it and the closure is never pickled.
_fold_task: Callable[[int], dict[str, np.ndarray]] | None = None


def _run_fold_task(f: int) -> dict[str, np.ndarray]:
    return _fold_task(f)


def map_folds(
    run_fold: Callable[[int], dict[str, np.ndarray]], n_folds: int, workers: int
) -> list[dict[str, np.ndarray]]:
    """`[run_fold(f) for f in range(n_folds)]`, run in `workers` forked processes.

    With fewer than two workers, or where `fork` is unavailable, the folds run
    in this process. Workers are forked, not spawned, so they share the loaded
    store, index and feature caches copy-on-write, and only fold numbers and
    results are pickled (the pipeline starts no thread of its own that a fork
    could copy mid-operation). Folds start in order, at most one per worker
    at a time. After a failure no further fold starts, the running ones
    finish, and the exception of the lowest-numbered failing fold is raised,
    as the serial loop would raise it.
    """
    import multiprocessing

    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [run_fold(f) for f in range(n_folds)]
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    global _fold_task
    _fold_task = run_fold
    results: dict[int, dict[str, np.ndarray]] = {}
    errors: dict[int, BaseException] = {}
    # a forked worker flushes the stream buffers it inherited when it exits
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            running = {}
            next_fold = 0
            while True:
                while next_fold < n_folds and len(running) < workers and not errors:
                    running[pool.submit(_run_fold_task, next_fold)] = next_fold
                    next_fold += 1
                if not running:
                    break
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    f = running.pop(future)
                    exc = future.exception()
                    if exc is None:
                        results[f] = future.result()
                    else:
                        errors[f] = exc
    finally:
        _fold_task = None
    if errors:
        error = errors[min(errors)]
        if isinstance(error, BrokenProcessPool):  # it names no fold
            raise ChildProcessError("a fold worker process died") from error
        raise error
    return [results[f] for f in range(n_folds)]


def evaluate_settings(
    ctx: PipelineContext,
    labeled: Sequence[LabeledSentence],
    settings: Sequence[str],
    plan: FoldPlan,
    cfg: PipelineConfig,
    predictor_override: Callable[[str, list[LabeledSentence]], np.ndarray] | None = None,
) -> dict[str, EvalReport]:
    """Cross-validate the requested settings on the labeled set.

    Pseudo-labels are regenerated per fold from training-fold anchors only,
    and no labeled text is ever admitted as a pseudo-label.
    """
    for setting in settings:
        if setting not in SETTINGS:
            raise ValueError(f"unknown setting {setting!r}; expected one of {SETTINGS}")
    labeled = list(labeled)
    y = np.array([s.mos for s in labeled])
    exclude = {s.text for s in labeled}
    x_labeled = embed_labeled(ctx.archetypes, labeled)
    need_pseudo = predictor_override is None and any(
        s != "baseline" for s in settings
    )

    def run_fold(f: int) -> dict[str, np.ndarray]:
        train_idx = plan.train_indices(f)
        test_idx = plan.fold_indices(f)
        fold_train = [labeled[i] for i in train_idx]
        fold_test = [labeled[i] for i in test_idx]
        x_test = {name: feats[test_idx] for name, feats in x_labeled.items()}

        models9: list[ScorerModel] | None = None
        if need_pseudo:
            gate = train_gate_model(ctx.retrieval_stats, fold_train, cfg)
            pset = generate_for_anchors(ctx, fold_train, gate, cfg, exclude)
            test_ids = {s.id for s in fold_test}
            leaked = sorted({lab.anchor_id for lab in pset.labels} & test_ids)
            if leaked:
                raise RuntimeError(
                    f"fold {f}: pseudo-labels anchored on test-fold ids {leaked[:5]}"
                )
            models9 = train_stage_models(ctx, pset, cfg, f"fold {f}")

        bundle: EnsembleBundle | None = None
        if predictor_override is None and any(
            s in ("ensemble_mean", "ensemble_stacker") for s in settings
        ):
            inner_plan = make_fold_plan(
                len(train_idx), cfg.n_folds, seed=plan.seed * 1009 + f
            )
            bundle = fine_tune_ensemble(
                models9, ctx.archetypes, fold_train, inner_plan, cfg,
                features_by_archetype={
                    name: feats[train_idx] for name, feats in x_labeled.items()
                },
            )

        fold_preds: dict[str, np.ndarray] = {}
        for setting in settings:
            if predictor_override is not None:
                preds = np.asarray(predictor_override(setting, fold_test), dtype=np.float64)
            elif setting == "baseline":
                arch0 = ctx.archetypes[0]
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
    workers = min(usable_cpus(), plan.n_folds) if need_pseudo else 1
    for f, fold_preds in enumerate(map_folds(run_fold, plan.n_folds, workers)):
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
