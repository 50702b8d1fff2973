"""Staged command-line driver with artifact persistence and run manifests.

Usage: pseudolab <command> --config <path> [--force]
Exit codes: 0 success, 1 validation error, 2 stale or corrupt artifact, 3 internal.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import (
    Manifest,
    StaleArtifactError,
    artifact_digest,
    atomic_write_text,
    output_lock,
    sha256_bytes,
    sha256_file,
)
from .config import ConfigError, RunConfig, load_config
from .corpus import CorpusStore, deduplicate, ingest_corpus, load_labeled, load_store, normalize_sentence, save_store
from .ensemble import cv_fine_tune, fit_stacker, make_fold_plan, save_bundle, train_pseudo_stage
from .features import embed_many, fit_feature_stats, load_feature_stats, save_feature_stats
from .metrics import render_report_table, save_report
from .pipeline import RETRIEVAL, Archetype, build_context, evaluate_settings
from .pseudolabel import (
    generate_pseudo_labels,
    load_pseudo_labels,
    pseudo_label_stats,
    render_stats_table,
    save_pseudo_labels,
    save_set_stats,
)
from .scorer import load_model, model_to_json, predict, train_ridge
from .simindex import IndexFormatError, build_index, load_index, save_index, verify_index

STORE = "store.jsonl"
CORPUS_STATS = "corpus_stats.json"
FEATURE_STATS = "feature_stats.json"
CORPUS_VECTORS = "corpus_vectors.npy"
CORPUS_IDS = "corpus_ids.npy"
INDEX = "index.bin"
BASELINE_MODEL = "baseline_model.json"
PSEUDO_LABELS = "pseudo_labels.jsonl"
PSEUDO_STATS = "pseudo_stats.json"
PSEUDO_TABLE = "pseudo_stats.txt"
BUNDLE = "bundle"
EVAL_JSON = "eval_report.json"
EVAL_TABLE = "eval_report.txt"
PREDICTIONS = "predictions.tsv"


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _atomic_save(path: Path, save_fn) -> None:
    """Run a saver against a temp path, then rename into place."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    os.close(fd)
    try:
        save_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_save_dir(path: Path, save_fn) -> None:
    tmp = Path(tempfile.mkdtemp(dir=path.parent, prefix=f".{path.name}."))
    try:
        save_fn(tmp)
        if path.exists():
            shutil.rmtree(path)
        os.replace(tmp, path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _save_npy(path: Path, array: np.ndarray) -> None:
    def save(tmp):
        with open(tmp, "wb") as fh:
            np.save(fh, array)

    _atomic_save(path, save)


class _Stage:
    """Shared per-command plumbing: config snapshot, manifest, timing."""

    def __init__(self, name: str, config: RunConfig, force: bool):
        self.name = name
        self.config = config
        self.force = force
        self.outdir = Path(config.output_dir)
        self.outdir.mkdir(parents=True, exist_ok=True)
        snapshot = config.canonical_json()
        self.config_digest = sha256_bytes(snapshot.encode("utf-8"))
        atomic_write_text(self.outdir / "config_snapshot.json", snapshot)
        self.manifest = Manifest(self.outdir, tool_version=__version__)
        self.inputs: dict[str, str] = {}
        self.started = time.monotonic()

    def require(self, artifact: str, producing_stage: str) -> Path:
        self.inputs[artifact] = self.manifest.require(
            artifact, producing_stage, force=self.force
        )
        return self.outdir / artifact

    def external_input(self, path: str | Path) -> Path:
        self.inputs[str(path)] = sha256_file(path)
        return Path(path)

    def finish(self, outputs: list[str]) -> None:
        digests = {name: artifact_digest(self.outdir / name) for name in outputs}
        self.manifest.record_stage(
            self.name,
            self.config_digest,
            self.inputs,
            digests,
            time.monotonic() - self.started,
        )
        self.manifest.save()
        _log(f"[{self.name}] done in {time.monotonic() - self.started:.1f}s")


def cmd_ingest(config: RunConfig, force: bool) -> None:
    stage = _Stage("ingest", config, force)
    store = CorpusStore()
    for entry in config.corpora:
        stage.external_input(entry.path)
        added = ingest_corpus(entry.path, entry.source, entry.format, store=store)
        _log(f"[ingest] {entry.path}: {len(added)} sentences ({entry.source})")
    deduped, stats = deduplicate(store.records)
    store = CorpusStore(records=deduped)
    _log(
        f"[ingest] total {stats.total_sentences}, distinct {stats.distinct_sentences}"
    )
    _atomic_save(stage.outdir / STORE, lambda tmp: save_store(store, tmp))
    atomic_write_text(
        stage.outdir / CORPUS_STATS,
        json.dumps(stats.to_dict(), indent=2, sort_keys=True) + "\n",
    )
    stage.finish([STORE, CORPUS_STATS])


def cmd_featurize(config: RunConfig, force: bool) -> None:
    stage = _Stage("featurize", config, force)
    store = load_store(stage.require(STORE, "ingest"))
    stats = {RETRIEVAL: fit_feature_stats(store.records, config.retrieval)}
    for spec in config.archetypes:
        stats[spec.name] = fit_feature_stats(store.records, spec.feature_config())
    _atomic_save(
        stage.outdir / FEATURE_STATS, lambda tmp: save_feature_stats(stats, tmp)
    )
    texts = [r.text for r in store.records]
    vectors = embed_many(texts, stats[RETRIEVAL]).astype(np.float32)
    _save_npy(stage.outdir / CORPUS_VECTORS, vectors)
    _save_npy(
        stage.outdir / CORPUS_IDS,
        np.array([r.id for r in store.records], dtype=np.int64),
    )
    stage.finish([FEATURE_STATS, CORPUS_VECTORS, CORPUS_IDS])


def cmd_index(config: RunConfig, force: bool) -> None:
    stage = _Stage("index", config, force)
    stats = load_feature_stats(stage.require(FEATURE_STATS, "featurize"))
    vectors = np.load(stage.require(CORPUS_VECTORS, "featurize"))
    ids = np.load(stage.require(CORPUS_IDS, "featurize"))
    index = build_index(
        zip(ids.tolist(), vectors), fingerprint=stats[RETRIEVAL].fingerprint
    )
    _atomic_save(stage.outdir / INDEX, lambda tmp: save_index(index, tmp))
    info = verify_index(stage.outdir / INDEX)
    _log(f"[index] built and verified: N={info['count']} D={info['dimension']}")
    stage.finish([INDEX])


def cmd_train_baseline(config: RunConfig, force: bool) -> None:
    stage = _Stage("train-baseline", config, force)
    stats = load_feature_stats(stage.require(FEATURE_STATS, "featurize"))
    labeled = load_labeled(
        stage.external_input(config.labeled_train), config.default_rating_std
    )
    X = embed_many([s.text for s in labeled], stats[RETRIEVAL])
    y = np.array([s.mos for s in labeled])
    model = train_ridge(
        X,
        y,
        config.ridge_lambda_baseline,
        fingerprint=stats[RETRIEVAL].fingerprint,
        stage="baseline",
        archetype=RETRIEVAL,
    )
    atomic_write_text(stage.outdir / BASELINE_MODEL, model_to_json(model))
    stage.finish([BASELINE_MODEL])


def cmd_pseudolabel(config: RunConfig, force: bool) -> None:
    stage = _Stage("pseudolabel", config, force)
    store = load_store(stage.require(STORE, "ingest"))
    stats = load_feature_stats(stage.require(FEATURE_STATS, "featurize"))
    index = load_index(stage.require(INDEX, "index"))
    baseline = load_model(stage.require(BASELINE_MODEL, "train-baseline"))
    vectors = np.load(stage.require(CORPUS_VECTORS, "featurize"))
    ids = np.load(stage.require(CORPUS_IDS, "featurize"))
    anchors = load_labeled(
        stage.external_input(config.labeled_train), config.default_rating_std
    )
    exclude = {s.text for s in anchors}
    if config.labeled_test:
        exclude |= {
            s.text
            for s in load_labeled(
                stage.external_input(config.labeled_test), config.default_rating_std
            )
        }
    scores = predict(baseline, vectors.astype(np.float64))
    pset = generate_pseudo_labels(
        anchors,
        index,
        store,
        baseline,
        stats[RETRIEVAL],
        k=config.k,
        exclude_texts=exclude,
        precomputed_scores=dict(zip(ids.tolist(), scores.tolist())),
    )
    _log(f"[pseudolabel] admitted {len(pset.labels)} pseudo-labels")
    _atomic_save(stage.outdir / PSEUDO_LABELS, lambda tmp: save_pseudo_labels(pset, tmp))
    _atomic_save(stage.outdir / PSEUDO_STATS, lambda tmp: save_set_stats(pset, tmp))
    atomic_write_text(
        stage.outdir / PSEUDO_TABLE, render_stats_table(pseudo_label_stats(pset))
    )
    stage.finish([PSEUDO_LABELS, PSEUDO_STATS, PSEUDO_TABLE])


def cmd_train_ensemble(config: RunConfig, force: bool) -> None:
    stage = _Stage("train-ensemble", config, force)
    stats = load_feature_stats(stage.require(FEATURE_STATS, "featurize"))
    pset = load_pseudo_labels(stage.require(PSEUDO_LABELS, "pseudolabel"))
    labeled = load_labeled(
        stage.external_input(config.labeled_train), config.default_rating_std
    )
    archetypes = [
        Archetype(name=spec.name, stats=stats[spec.name], batch_size=spec.batch_size)
        for spec in config.archetypes
    ]
    models9 = train_pseudo_stage(
        [lab.text for lab in pset.labels],
        [lab.predicted_score for lab in pset.labels],
        archetypes,
        config.seeds,
        config.hyper_pseudo,
    )
    _log(f"[train-ensemble] pseudo stage: {len(models9)} models")
    plan = make_fold_plan(len(labeled), config.n_folds, seed=config.fold_seed)
    bundle = cv_fine_tune(models9, archetypes, labeled, plan, config.hyper_fine)
    _log(f"[train-ensemble] fine-tuned {len(bundle.fold_models)} fold models")
    y = np.array([s.mos for s in labeled])
    weights, intercept, fallback = fit_stacker(bundle.oof, y)
    bundle.stacker_weights = weights
    bundle.stacker_intercept = intercept
    bundle.stacker_fallback = fallback
    bundle.aggregation = (
        "stacker" if config.setting == "ensemble_stacker" else "mean"
    )
    _atomic_save_dir(stage.outdir / BUNDLE, lambda tmp: save_bundle(bundle, tmp))
    stage.finish([BUNDLE])


def cmd_evaluate(config: RunConfig, force: bool) -> None:
    stage = _Stage("evaluate", config, force)
    store = load_store(stage.require(STORE, "ingest"))
    labeled = load_labeled(
        stage.external_input(config.labeled_train), config.default_rating_std
    )
    ctx = build_context(store, config.retrieval, config.archetypes)
    plan = make_fold_plan(len(labeled), config.n_folds, seed=config.fold_seed)
    reports = evaluate_settings(ctx, labeled, [config.setting], plan, config)
    report = reports[config.setting]
    _atomic_save(stage.outdir / EVAL_JSON, lambda tmp: save_report(report, tmp))
    atomic_write_text(stage.outdir / EVAL_TABLE, render_report_table([report]))
    _log(
        f"[evaluate] {config.setting}: fold-mean RMSE {report.fold_mean_rmse:.3f} "
        f"(raw {report.rmse_raw:.3f}, mapped {report.rmse_mapped:.3f})"
    )
    stage.finish([EVAL_JSON, EVAL_TABLE])


def cmd_predict(config: RunConfig, force: bool, input_path: str | None = None) -> None:
    if input_path is None:
        raise ConfigError("predict requires --input <file>")
    stage = _Stage("predict", config, force)
    from .ensemble import load_bundle, predict_ensemble_batch

    bundle = load_bundle(stage.require(BUNDLE, "train-ensemble"))
    in_path = stage.external_input(input_path)
    texts = []
    with open(in_path, encoding="utf-8") as fh:
        for line in fh:
            text = normalize_sentence(line)
            if text:
                texts.append(text)
    scores = predict_ensemble_batch(bundle, texts) if texts else []
    buf = io.StringIO()
    for i, score in enumerate(scores, start=1):
        buf.write(f"{i}\t{score:.3f}\n")
    atomic_write_text(stage.outdir / PREDICTIONS, buf.getvalue())
    _log(f"[predict] scored {len(texts)} sentences")
    stage.finish([PREDICTIONS])


COMMANDS = {
    "ingest": cmd_ingest,
    "featurize": cmd_featurize,
    "index": cmd_index,
    "train-baseline": cmd_train_baseline,
    "pseudolabel": cmd_pseudolabel,
    "train-ensemble": cmd_train_ensemble,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pseudolab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config JSON")
        p.add_argument("--force", action="store_true", help="ignore stale digests")
        if name == "predict":
            p.add_argument("--input", help="file of sentences to score, one per line")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = load_config(args.config)
        with output_lock_dir(config):
            if args.command == "predict":
                COMMANDS[args.command](config, args.force, args.input)
            else:
                COMMANDS[args.command](config, args.force)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StaleArtifactError, IndexFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal error
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def output_lock_dir(config: RunConfig):
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    return output_lock(outdir)


if __name__ == "__main__":
    sys.exit(main())
