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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import (
    Manifest,
    StaleArtifactError,
    artifact_digest,
    atomic_write_text,
    output_lock,
    read_artifact,
    sha256_bytes,
    sha256_file,
)
from .config import ConfigError, RunConfig, load_config
from .corpus import CorpusStore, InputFileError, LabeledSentence, deduplicate, ingest_corpus, load_labeled, load_store, normalize_sentence, open_text, save_store
from .ensemble import FoldPlan, make_fold_plan, save_bundle
from .features import FeatureStats, embed_many, fit_feature_stats_many, load_feature_stats, save_feature_stats
from .metrics import render_report_table, save_report
from .pipeline import RETRIEVAL, Archetype, PipelineContext, embed_labeled, evaluate_settings, fine_tune_ensemble, generate_for_anchors, train_gate_model, train_stage_models
from .pseudolabel import load_pseudo_labels, pseudo_label_stats, render_stats_table, save_pseudo_labels, save_set_stats
from .scorer import load_model, model_to_json
from .simindex import IndexFormatError, build_index, load_index, save_index, verify_index

# Not called here: perfbench/traced_cli.py looks these up on this module to patch them.
from .ensemble import cv_fine_tune, fit_stacker, train_pseudo_stage  # noqa: F401
from .pipeline import build_context  # noqa: F401
from .pseudolabel import generate_pseudo_labels  # noqa: F401
from .scorer import predict, train_ridge  # noqa: F401

STORE = "store.jsonl"
CORPUS_STATS = "corpus_stats.json"
FEATURE_STATS = "feature_stats.json"
CORPUS_VECTORS = "corpus_vectors.npy"
CORPUS_IDS = "corpus_ids.npy"
CORPUS_FEATURES = "corpus_features"
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

    def read(self, artifact: str, producing_stage: str, load):
        """Check an upstream artifact is fresh, record its digest, and `load` it."""
        self.inputs[artifact] = self.manifest.require(
            artifact, producing_stage, force=self.force
        )
        return read_artifact(self.outdir / artifact, artifact, producing_stage, load)

    def external_input(self, path: str | Path) -> Path:
        try:
            self.inputs[str(path)] = sha256_file(path)
        except OSError as exc:
            raise InputFileError(f"cannot read input {path}: {exc.strerror}") from exc
        return Path(path)

    def labeled(self, path: str) -> list[LabeledSentence]:
        return load_labeled(self.external_input(path), self.config.default_rating_std)

    def labeled_train(self) -> list[LabeledSentence]:
        """The training sentences; every stage that reads them needs at least one."""
        labeled = self.labeled(self.config.labeled_train)
        if not labeled:
            raise InputFileError(f"labeled_train {self.config.labeled_train}: no labeled sentences")
        return labeled

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
        json.dumps(asdict(stats), indent=2, sort_keys=True) + "\n",
    )
    stage.finish([STORE, CORPUS_STATS])


def _feature_cache(stats: FeatureStats) -> str:
    """Artifact name of a featurizer's float64 corpus matrix, rows in corpus_ids order."""
    return f"{CORPUS_FEATURES}/{stats.fingerprint}.npy"


def cmd_featurize(config: RunConfig, force: bool) -> None:
    stage = _Stage("featurize", config, force)
    store = stage.read(STORE, "ingest", load_store)
    configs = {RETRIEVAL: config.retrieval}
    configs.update((spec.name, spec.feature_config()) for spec in config.archetypes)
    stats = dict(zip(configs, fit_feature_stats_many(store.records, configs.values())))
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
    # archetypes with the same featurizer config share one matrix
    caches = {_feature_cache(stats[spec.name]): stats[spec.name] for spec in config.archetypes}
    (stage.outdir / CORPUS_FEATURES).mkdir(exist_ok=True)
    for name, arch_stats in caches.items():
        _save_npy(stage.outdir / name, embed_many(texts, arch_stats))
    stage.finish([FEATURE_STATS, CORPUS_VECTORS, CORPUS_IDS, *caches])


def _load_context(stage: _Stage, *, retrieval: bool, features: bool) -> PipelineContext:
    """Build the pipeline context from featurize's artifacts, requiring only what is read.

    `retrieval` loads the store and the index; `features` loads the cached
    archetype corpus matrices and their row order.
    """
    stats = stage.read(FEATURE_STATS, "featurize", load_feature_stats)
    archetypes = []
    for spec in stage.config.archetypes:
        if spec.name not in stats or stats[spec.name].config != spec.feature_config():
            raise StaleArtifactError(
                f"{FEATURE_STATS} has no featurizer for archetype {spec.name!r} as "
                "configured; re-run the 'featurize' stage"
            )
        archetypes.append(
            Archetype(name=spec.name, stats=stats[spec.name], batch_size=spec.batch_size)
        )
    ctx = PipelineContext(
        store=None,
        retrieval_stats=stats[RETRIEVAL],
        archetypes=archetypes,
        index=None,
        corpus_features={},
        row_of_id={},
    )
    if retrieval:
        ctx.store = stage.read(STORE, "ingest", load_store)
        ctx.index = stage.read(INDEX, "index", load_index)
    if features:
        ids = stage.read(CORPUS_IDS, "featurize", np.load)
        ctx.row_of_id = {i: row for row, i in enumerate(ids.tolist())}
        # archetypes with the same featurizer config share one matrix
        caches = {arch.name: _feature_cache(arch.stats) for arch in archetypes}
        matrices = {
            name: stage.read(name, "featurize", np.load) for name in dict.fromkeys(caches.values())
        }
        ctx.corpus_features = {arch: matrices[name] for arch, name in caches.items()}
    return ctx


def cmd_index(config: RunConfig, force: bool) -> None:
    stage = _Stage("index", config, force)
    stats = stage.read(FEATURE_STATS, "featurize", load_feature_stats)
    vectors = stage.read(CORPUS_VECTORS, "featurize", np.load)
    ids = stage.read(CORPUS_IDS, "featurize", np.load)
    index = build_index(
        zip(ids.tolist(), vectors), fingerprint=stats[RETRIEVAL].fingerprint
    )
    _atomic_save(stage.outdir / INDEX, lambda tmp: save_index(index, tmp))
    info = verify_index(stage.outdir / INDEX)
    _log(f"[index] built and verified: N={info['count']} D={info['dimension']}")
    stage.finish([INDEX])


def cmd_train_baseline(config: RunConfig, force: bool) -> None:
    stage = _Stage("train-baseline", config, force)
    stats = stage.read(FEATURE_STATS, "featurize", load_feature_stats)
    model = train_gate_model(stats[RETRIEVAL], stage.labeled_train(), config)
    atomic_write_text(stage.outdir / BASELINE_MODEL, model_to_json(model))
    stage.finish([BASELINE_MODEL])


def cmd_pseudolabel(config: RunConfig, force: bool) -> None:
    stage = _Stage("pseudolabel", config, force)
    ctx = _load_context(stage, retrieval=True, features=False)
    gate = stage.read(BASELINE_MODEL, "train-baseline", load_model)
    anchors = stage.labeled_train()
    exclude = {s.text for s in anchors}
    if config.labeled_test:
        exclude |= {s.text for s in stage.labeled(config.labeled_test)}
    pset = generate_for_anchors(ctx, anchors, gate, config, exclude)
    _log(f"[pseudolabel] admitted {len(pset.labels)} pseudo-labels")
    _atomic_save(stage.outdir / PSEUDO_LABELS, lambda tmp: save_pseudo_labels(pset, tmp))
    _atomic_save(stage.outdir / PSEUDO_STATS, lambda tmp: save_set_stats(pset, tmp))
    atomic_write_text(
        stage.outdir / PSEUDO_TABLE, render_stats_table(pseudo_label_stats(pset))
    )
    stage.finish([PSEUDO_LABELS, PSEUDO_STATS, PSEUDO_TABLE])


def _fold_plan(config: RunConfig, labeled: list[LabeledSentence], *, nested: bool) -> FoldPlan:
    """The fold plan; `nested`: each training fold is split again into `n_folds` folds."""
    n, k = len(labeled), config.n_folds
    smallest = n - (n + k - 1) // k if nested else n  # minus the largest fold
    if smallest < k:
        what = "sentences in the smallest training fold" if nested else "labeled sentences"
        raise ConfigError(f"n_folds is {k}, more than the {smallest} {what} of labeled_train")
    return make_fold_plan(n, k, seed=config.fold_seed)


def cmd_train_ensemble(config: RunConfig, force: bool) -> None:
    stage = _Stage("train-ensemble", config, force)
    ctx = _load_context(stage, retrieval=False, features=True)
    pset = stage.read(PSEUDO_LABELS, "pseudolabel", load_pseudo_labels)
    labeled = stage.labeled_train()
    plan = _fold_plan(config, labeled, nested=False)
    models9 = train_stage_models(ctx, pset, config, "train-ensemble")
    _log(f"[train-ensemble] pseudo stage: {len(models9)} models")
    bundle = fine_tune_ensemble(
        models9, ctx.archetypes, labeled, plan, config,
        features_by_archetype=embed_labeled(ctx.archetypes, labeled),
    )
    _log(f"[train-ensemble] fine-tuned {len(bundle.fold_models)} fold models")
    bundle.aggregation = (
        "stacker" if config.setting == "ensemble_stacker" else "mean"
    )
    _atomic_save_dir(stage.outdir / BUNDLE, lambda tmp: save_bundle(bundle, tmp))
    stage.finish([BUNDLE])


def cmd_evaluate(config: RunConfig, force: bool) -> None:
    stage = _Stage("evaluate", config, force)
    ctx = _load_context(stage, retrieval=True, features=True)
    labeled = stage.labeled_train()
    plan = _fold_plan(config, labeled, nested=config.setting.startswith("ensemble"))
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

    bundle = stage.read(BUNDLE, "train-ensemble", load_bundle)
    in_path = stage.external_input(input_path)
    texts = []
    with open_text(in_path) as fh:
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
    except (ConfigError, InputFileError) as exc:
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
