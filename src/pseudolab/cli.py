"""Staged command-line driver with artifact persistence and run manifests.

Usage: pseudolab <command> --config <path> [--force]
Exit codes: 0 success, 1 validation error, 2 stale or corrupt artifact, 3 internal.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .artifacts import (
    Manifest,
    StaleArtifactError,
    artifact_digest,
    atomic_paths,
    atomic_write_text,
    output_lock,
    read_artifact,
    sha256_bytes,
    sha256_file,
)
from .config import ConfigError, RunConfig, load_config
from .corpus import CorpusStore, InputFileError, LabeledSentence, deduplicate, ingest_corpus, load_labeled, load_store, normalize_sentence, open_text, save_store
from .ensemble import FoldPlan, make_fold_plan, save_bundle
from .features import FeatureStats, embed_chunks, fit_feature_stats_many, load_feature_stats, save_feature_stats
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
    """Run a saver against a temp path (a file or a directory), then move it into place."""
    with atomic_paths(path) as (tmp,):
        save_fn(tmp)


# perfbench/traced_cli.py times writes under this name too
_atomic_save_dir = _atomic_save


def _stream_npy(
    outputs: list[tuple[Path, np.typing.DTypeLike, tuple[int, ...]]],
    blocks: Iterable[Sequence[np.ndarray]],
) -> list[str]:
    """Write one .npy file per (path, dtype, shape) from blocks of its rows.

    `blocks` yields one row block per output at a time, cast to the output's
    dtype on write. Each file holds the bytes np.save of the whole matrix
    writes, without the matrix ever being held; the files are renamed into
    place only when every block has been written. Returns each file's
    sha256, hashed as it was written.
    """
    with atomic_paths(*(path for path, _, _ in outputs)) as tmps, contextlib.ExitStack() as files:
        handles, hashers = [], []
        for tmp, (_, dtype, shape) in zip(tmps, outputs):
            handles.append(files.enter_context(open(tmp, "wb")))
            header = io.BytesIO()
            np.lib.format.write_array_header_1_0(header, {
                "descr": np.lib.format.dtype_to_descr(np.dtype(dtype)),
                "fortran_order": False,
                "shape": tuple(map(int, shape)),
            })
            handles[-1].write(header.getvalue())
            hashers.append(hashlib.sha256(header.getvalue()))
        for row_blocks in blocks:
            for fh, h, (_, dtype, _), block in zip(handles, hashers, outputs, row_blocks):
                data = np.ascontiguousarray(block, dtype=dtype)
                data.tofile(fh)
                h.update(data)
    return [h.hexdigest() for h in hashers]


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
        self.outputs: dict[str, str] = {}
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

    def write(self, artifact: str, save) -> None:
        """Save an output atomically with `save(temp_path)`, then record its digest."""
        path = self.outdir / artifact
        _atomic_save(path, save)
        self.outputs[artifact] = artifact_digest(path)

    def write_text(self, artifact: str, text: str) -> None:
        atomic_write_text(self.outdir / artifact, text)
        self.outputs[artifact] = sha256_bytes(text.encode("utf-8"))

    def finish(self) -> None:
        """Record the stage with the digest of each output it wrote."""
        self.manifest.record_stage(
            self.name,
            self.config_digest,
            self.inputs,
            self.outputs,
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
    stage.write(STORE, lambda tmp: save_store(store, tmp))
    stage.write_text(CORPUS_STATS, json.dumps(asdict(stats), indent=2, sort_keys=True) + "\n")
    stage.finish()


def _feature_cache(stats: FeatureStats) -> str:
    """Artifact name of a featurizer's float64 corpus matrix, rows in corpus_ids order."""
    return f"{CORPUS_FEATURES}/{stats.fingerprint}.npy"


def cmd_featurize(config: RunConfig, force: bool) -> None:
    stage = _Stage("featurize", config, force)
    store = stage.read(STORE, "ingest", load_store)
    configs = {RETRIEVAL: config.retrieval}
    configs.update((spec.name, spec.feature_config()) for spec in config.archetypes)
    stats = dict(zip(configs, fit_feature_stats_many(store.records, configs.values())))
    stage.write(FEATURE_STATS, lambda tmp: save_feature_stats(stats, tmp))
    ids = np.array([r.id for r in store.records], dtype=np.int64)
    stage.write(CORPUS_IDS, lambda tmp: np.save(tmp, ids))
    # the float32 retrieval rows, then one float64 matrix per distinct archetype
    # featurizer (archetypes with the same config share one), in one pass
    outputs = {CORPUS_VECTORS: (stats[RETRIEVAL], np.float32)}
    outputs.update(
        (_feature_cache(stats[spec.name]), (stats[spec.name], np.float64))
        for spec in config.archetypes
    )
    cache_dir = stage.outdir / CORPUS_FEATURES
    cache_dir.mkdir(exist_ok=True)
    texts = [r.text for r in store.records]
    streamed = _stream_npy(
        [
            (stage.outdir / name, dtype, (len(texts), s.config.dimension))
            for name, (s, dtype) in outputs.items()
        ],
        embed_chunks(texts, [s for s, _ in outputs.values()]),
    )
    stage.outputs.update(zip(outputs, streamed))
    # a cache is named by its featurizer's fingerprint, so one this run did not
    # write belongs to a featurizer no longer configured: no stage can read it
    for path in cache_dir.glob("*.npy"):
        if f"{CORPUS_FEATURES}/{path.name}" not in outputs:
            path.unlink()
    stage.finish()


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
    stage.write(INDEX, lambda tmp: save_index(index, tmp))
    info = verify_index(stage.outdir / INDEX)
    _log(f"[index] built and verified: N={info['count']} D={info['dimension']}")
    stage.finish()


def cmd_train_baseline(config: RunConfig, force: bool) -> None:
    stage = _Stage("train-baseline", config, force)
    stats = stage.read(FEATURE_STATS, "featurize", load_feature_stats)
    model = train_gate_model(stats[RETRIEVAL], stage.labeled_train(), config)
    stage.write_text(BASELINE_MODEL, model_to_json(model))
    stage.finish()


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
    stage.write(PSEUDO_LABELS, lambda tmp: save_pseudo_labels(pset, tmp))
    stage.write(PSEUDO_STATS, lambda tmp: save_set_stats(pset, tmp))
    stage.write_text(PSEUDO_TABLE, render_stats_table(pseudo_label_stats(pset)))
    stage.finish()


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
    stage.write(BUNDLE, lambda tmp: save_bundle(bundle, tmp))
    stage.finish()


def cmd_evaluate(config: RunConfig, force: bool) -> None:
    stage = _Stage("evaluate", config, force)
    ctx = _load_context(stage, retrieval=True, features=True)
    labeled = stage.labeled_train()
    plan = _fold_plan(config, labeled, nested=config.setting.startswith("ensemble"))
    reports = evaluate_settings(ctx, labeled, [config.setting], plan, config)
    report = reports[config.setting]
    stage.write(EVAL_JSON, lambda tmp: save_report(report, tmp))
    stage.write_text(EVAL_TABLE, render_report_table([report]))
    _log(
        f"[evaluate] {config.setting}: fold-mean RMSE {report.fold_mean_rmse:.3f} "
        f"(raw {report.rmse_raw:.3f}, mapped {report.rmse_mapped:.3f})"
    )
    stage.finish()


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
    stage.write_text(PREDICTIONS, buf.getvalue())
    _log(f"[predict] scored {len(texts)} sentences")
    stage.finish()


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
