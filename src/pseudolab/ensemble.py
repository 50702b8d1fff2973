"""Two-stage multi-seed k-fold ensemble: pseudo-label pretraining, per-fold
fine-tuning, out-of-fold prediction matrix, mean or linear-stacker aggregation.

The out-of-fold matrix has one column per base (archetype, seed) model: each
sentence's entry comes from the variant fine-tuned on the folds excluding it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .artifacts import json_text
from .corpus import LabeledSentence
from . import parallel
from .features import FeatureStats, chunk_runs, embed_chunks
from .linalg import clamp_scores, gram, solve_spd
from .scorer import (
    DivergedError,
    HyperParams,
    ScorerModel,
    load_model,
    predict,
    save_model,
    train_iterative,
)

STACKER_CONDITION_LIMIT = 1e12
STACKER_FALLBACK_LAMBDA = 1e-6


@dataclass
class FoldPlan:
    n_folds: int
    assignment: np.ndarray
    seed: int

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != fold)

    def to_dict(self) -> dict:
        return {
            "n_folds": self.n_folds,
            "assignment": self.assignment.tolist(),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FoldPlan":
        return cls(
            n_folds=int(d["n_folds"]),
            assignment=np.asarray(d["assignment"], dtype=np.int64),
            seed=int(d["seed"]),
        )


def make_fold_plan(n: int, n_folds: int = 5, seed: int = 0) -> FoldPlan:
    """Seed-shuffled indices dealt round-robin into folds of near-equal size."""
    if n < n_folds:
        raise ValueError(f"cannot split {n} items into {n_folds} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    assignment = np.zeros(n, dtype=np.int64)
    for pos, idx in enumerate(order):
        assignment[idx] = pos % n_folds
    return FoldPlan(n_folds=n_folds, assignment=assignment, seed=seed)


@dataclass
class Archetype:
    """One base-model configuration: a featurizer plus its batch size."""

    name: str
    stats: FeatureStats
    batch_size: int = 32


@dataclass
class FoldModel:
    archetype: str
    seed: int
    fold: int
    model: ScorerModel


@dataclass
class EnsembleBundle:
    fold_models: list[FoldModel]
    plan: FoldPlan
    base_keys: list[tuple[str, int]]
    archetypes: dict[str, Archetype]
    aggregation: str = "mean"  # "mean" | "stacker"
    stacker_weights: np.ndarray | None = None
    stacker_intercept: float = 0.0
    stacker_fallback: bool = False
    oof: np.ndarray | None = None
    oof_columns: list[dict] = field(default_factory=list)


def _derived_seed(base_seed: int, fold: int) -> int:
    # stable RNG seed per (base model, fold) pair
    return (base_seed * 9_176 + fold) & 0x7FFFFFFF


def train_pseudo_stage(
    features_by_archetype: Mapping[str, np.ndarray],
    pseudo_scores: Sequence[float],
    archetypes: Sequence[Archetype],
    seeds: Sequence[int],
    hyper: HyperParams,
    rows: np.ndarray | None = None,
) -> list[ScorerModel]:
    """Train one model per (archetype, seed) on the pseudo-label pairs.

    `features_by_archetype` holds each archetype's rows, in `pseudo_scores`
    order; with `rows`, each holds a shared matrix, such as a corpus
    matrix from pipeline.embed_corpus, that the fits read in place at `rows`.
    A fit that diverges raises DivergedError naming its archetype and seed.
    """
    y = np.asarray(pseudo_scores, dtype=np.float64)
    if not y.size:
        raise ValueError("empty pseudo-label training set")
    models = []
    for arch in archetypes:
        for seed in seeds:
            try:
                model = train_iterative(
                    None,
                    features_by_archetype[arch.name],
                    y,
                    hyper,
                    seed=seed,
                    batch_size=arch.batch_size,
                    rows=rows,
                    fingerprint=arch.stats.fingerprint,
                    stage="pseudo_tuned",
                    archetype=arch.name,
                )
            except DivergedError as exc:
                raise DivergedError(f"{exc} (archetype {arch.name!r}, seed {seed})") from None
            models.append(model)
    return models


def cv_fine_tune(
    models: Sequence[ScorerModel],
    archetypes: Sequence[Archetype],
    labeled: Sequence[LabeledSentence],
    plan: FoldPlan,
    hyper: HyperParams,
    *,
    features_by_archetype: Mapping[str, np.ndarray],
) -> EnsembleBundle:
    """Fine-tune each base model per fold; fill the out-of-fold matrix.

    `features_by_archetype` holds each archetype's features of `labeled`, row
    for row. A fit that diverges raises DivergedError naming its archetype,
    seed and fold.
    """
    if len(labeled) != plan.assignment.shape[0]:
        raise ValueError("fold plan does not cover the labeled set")
    arch_by_name = {a.name: a for a in archetypes}
    y = np.array([s.mos for s in labeled], dtype=np.float64)

    base_keys = [(m.archetype, m.seed) for m in models]
    oof = np.full((len(labeled), len(models)), np.nan)
    fold_models: list[FoldModel] = []

    for j, base in enumerate(models):
        arch = arch_by_name[base.archetype]
        X = features_by_archetype[base.archetype]
        for f in range(plan.n_folds):
            train_idx = plan.train_indices(f)
            try:
                tuned = train_iterative(
                    base,
                    X[train_idx],
                    y[train_idx],
                    hyper,
                    seed=_derived_seed(base.seed, f),
                    batch_size=arch.batch_size,
                    fingerprint=arch.stats.fingerprint,
                    stage="final",
                    archetype=base.archetype,
                )
            except DivergedError as exc:
                raise DivergedError(
                    f"{exc} (archetype {base.archetype!r}, seed {base.seed}, "
                    f"fine-tuning fold {f})"
                ) from None
            tuned.seed = base.seed
            fold_models.append(
                FoldModel(archetype=base.archetype, seed=base.seed, fold=f, model=tuned)
            )
            fold_idx = plan.fold_indices(f)
            oof[fold_idx, j] = predict(tuned, X[fold_idx])
    unfilled = np.flatnonzero(np.isnan(oof).any(axis=1))
    if unfilled.size:
        raise ValueError(
            f"fold plan (seed {plan.seed}, {plan.n_folds} folds) leaves "
            f"{unfilled.size} out-of-fold rows unfilled (first {unfilled[:5].tolist()}); "
            f"every fold id must lie in 0..{plan.n_folds - 1}"
        )
    return EnsembleBundle(
        fold_models=fold_models,
        plan=plan,
        base_keys=base_keys,
        archetypes=arch_by_name,
        oof=oof,
        oof_columns=[
            {"archetype": arch_name, "seed": seed, "fold": None}
            for arch_name, seed in base_keys
        ],
    )


def fit_stacker(oof: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """OLS with intercept on the OOF columns; ridge fallback when ill-conditioned."""
    oof = np.asarray(oof, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not (np.all(np.isfinite(oof)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite stacker inputs")
    A = np.column_stack([oof, np.ones(oof.shape[0])])
    G = gram(A)
    c = gram(A, y)
    fallback = False
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > STACKER_CONDITION_LIMIT:
        fallback = True
        reg = STACKER_FALLBACK_LAMBDA * np.eye(G.shape[0])
        reg[-1, -1] = 0.0  # intercept stays unpenalized
        G = G + reg
    sol = solve_spd(G, c)
    return sol[:-1], float(sol[-1]), fallback


def _pooled_base_predictions(bundle: EnsembleBundle, x_by_arch: dict[str, np.ndarray]) -> np.ndarray:
    """Per base model, the mean of its fold variants' predictions. Shape (N, M)."""
    n = next(iter(x_by_arch.values())).shape[0]
    pooled = np.zeros((n, len(bundle.base_keys)))
    counts = np.zeros(len(bundle.base_keys))
    key_index = {key: j for j, key in enumerate(bundle.base_keys)}
    for fm in bundle.fold_models:
        j = key_index[(fm.archetype, fm.seed)]
        pooled[:, j] += predict(fm.model, x_by_arch[fm.archetype])
        counts[j] += 1
    return pooled / counts


def mean_prediction(
    models: Sequence[ScorerModel], x_by_arch: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Clamped mean of the models' predictions, each on its archetype's features."""
    acc = np.zeros(next(iter(x_by_arch.values())).shape[0])
    for m in models:
        acc += predict(m, x_by_arch[m.archetype])
    return clamp_scores(acc / len(models))


def score_features(
    bundle: EnsembleBundle, x_by_arch: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Score precomputed features (one matrix per archetype) by the bundle's aggregation."""
    if bundle.aggregation == "mean":
        return mean_prediction([fm.model for fm in bundle.fold_models], x_by_arch)
    if bundle.stacker_weights is None:
        raise ValueError("stacker aggregation requested but no stacker was fit")
    cols = _pooled_base_predictions(bundle, x_by_arch)
    return clamp_scores(cols @ bundle.stacker_weights + bundle.stacker_intercept)


def predict_ensemble_batch(bundle: EnsembleBundle, texts: Sequence[str]) -> np.ndarray:
    """Predict scores for a batch of normalized sentences, one embed_chunks block at a time.

    Memory is bounded by the chunk, not the batch, and the scores are bitwise
    those of score_features on the whole matrices (see EMBED_CHUNK_ROWS).
    Each chunk run (see chunk_runs) is scored in its own forked worker, which
    returns only its scores.
    """
    texts = list(texts)
    stats = [arch.stats for arch in bundle.archetypes.values()]
    runs = chunk_runs(len(texts))

    def score_run(part: int) -> np.ndarray:
        start, stop = runs[part]
        scores = [
            score_features(bundle, dict(zip(bundle.archetypes, blocks)))
            for blocks in embed_chunks(texts[start:stop], stats)
        ]
        return np.concatenate(scores) if scores else np.zeros(0)

    return np.concatenate(parallel.map_forked(score_run, len(runs), len(runs), work="scoring"))


def audit_oof_hygiene(bundle: EnsembleBundle) -> bool:
    """Check that every OOF entry came from a variant that excluded its row's fold."""
    folds_by_key: dict[tuple[str, int], set[int]] = {}
    for fm in bundle.fold_models:
        folds_by_key.setdefault((fm.archetype, fm.seed), set()).add(fm.fold)
    expected = set(range(bundle.plan.n_folds))
    return all(folds == expected for folds in folds_by_key.values()) and not np.any(
        np.isnan(bundle.oof)
    )


def save_bundle(bundle: EnsembleBundle, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    models_dir = directory / "models"
    models_dir.mkdir(exist_ok=True)
    for fm in bundle.fold_models:
        save_model(fm.model, models_dir / f"{fm.archetype}_s{fm.seed}_f{fm.fold}.json")
    manifest = {
        "plan": bundle.plan.to_dict(),
        "base_keys": [list(k) for k in bundle.base_keys],
        "aggregation": bundle.aggregation,
        "stacker_weights": (
            bundle.stacker_weights.tolist() if bundle.stacker_weights is not None else None
        ),
        "stacker_intercept": bundle.stacker_intercept,
        "stacker_fallback": bundle.stacker_fallback,
        "oof_columns": bundle.oof_columns,
        "archetypes": {
            name: {"stats": arch.stats.to_dict(), "batch_size": arch.batch_size}
            for name, arch in sorted(bundle.archetypes.items())
        },
        "models": [
            {"archetype": fm.archetype, "seed": fm.seed, "fold": fm.fold}
            for fm in bundle.fold_models
        ],
    }
    (directory / "manifest.json").write_text(json_text(manifest), encoding="utf-8")
    if bundle.oof is not None:
        header = ",".join(f"{c['archetype']}_s{c['seed']}" for c in bundle.oof_columns)
        lines = [header]
        for row in bundle.oof:
            lines.append(",".join(repr(float(v)) for v in row))
        (directory / "oof.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_bundle(directory: str | Path) -> EnsembleBundle:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    archetypes = {
        name: Archetype(
            name=name,
            stats=FeatureStats.from_dict(spec["stats"]),
            batch_size=int(spec["batch_size"]),
        )
        for name, spec in manifest["archetypes"].items()
    }
    fold_models = [
        FoldModel(
            archetype=m["archetype"],
            seed=int(m["seed"]),
            fold=int(m["fold"]),
            model=load_model(
                directory / "models" / f"{m['archetype']}_s{m['seed']}_f{m['fold']}.json"
            ),
        )
        for m in manifest["models"]
    ]
    oof = None
    oof_path = directory / "oof.csv"
    if oof_path.exists():
        rows = oof_path.read_text(encoding="utf-8").strip().split("\n")[1:]
        if rows:
            oof = np.array([[float(v) for v in r.split(",")] for r in rows])
    weights = manifest["stacker_weights"]
    return EnsembleBundle(
        fold_models=fold_models,
        plan=FoldPlan.from_dict(manifest["plan"]),
        base_keys=[tuple(k) for k in manifest["base_keys"]],
        archetypes=archetypes,
        aggregation=manifest["aggregation"],
        stacker_weights=np.asarray(weights, dtype=np.float64) if weights is not None else None,
        stacker_intercept=float(manifest["stacker_intercept"]),
        stacker_fallback=bool(manifest["stacker_fallback"]),
        oof=oof,
        oof_columns=manifest["oof_columns"],
    )
