"""Staged command-line driver with artifact persistence and run manifests.

Usage: pseudolab <command> --config <path> [--force]
Exit codes: 0 success, 1 validation error, 2 stale or corrupt artifact, 3 internal.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import (
    StaleArtifactError,
    artifact_digest,
    atomic_path,
    atomic_write_text,
    json_text,
    output_lock,
    sha256_bytes,
    sha256_file,
)
from .config import ConfigError, RunConfig, load_config
from .corpus import PLAIN_LINES, CorpusStore, InputFileError, LabeledSentence, deduplicate, ingest_corpus, load_labeled, load_store, rows_of, save_store
from .ensemble import FoldPlan, make_fold_plan, save_bundle
from .features import MAX_MATRIX_BYTES, FeatureConfig, FeatureStats, embed_many, fit_feature_stats_many, load_feature_stats
from .metrics import render_report_table
from .pipeline import AGGREGATION, RETRIEVAL, Archetype, PipelineContext, evaluate_settings, featurizer_configs, fold_pseudo_labels, generate_for_anchors, train_ensemble, train_gate_model
from .pseudolabel import compute_set_stats, load_pseudo_labels, pseudo_label_stats, render_stats_table, save_pseudo_labels
from .scorer import DivergedError, load_model, model_to_json
from .simindex import VectorIndex, load_index, save_index

# Not called here: perfbench/traced_cli.py looks these up on this module to patch them.
from .ensemble import cv_fine_tune, fit_stacker, train_pseudo_stage  # noqa: F401
from .pipeline import build_context  # noqa: F401
from .pseudolabel import generate_pseudo_labels  # noqa: F401
from .scorer import predict, train_ridge  # noqa: F401
from .simindex import build_index  # noqa: F401

MANIFEST = "manifest.json"
CONFIG_SNAPSHOT = "config_snapshot.json"
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

# the stage that makes each artifact a later stage reads
MADE_BY = {
    STORE: "ingest",
    FEATURE_STATS: "featurize",
    INDEX: "index",
    BASELINE_MODEL: "train-baseline",
    PSEUDO_LABELS: "pseudolabel",
    BUNDLE: "train-ensemble",
}


def _rerun(artifact: str, problem: str) -> StaleArtifactError:
    """The error for an artifact that cannot be used: `problem`, then the stage to re-run."""
    made_by = MADE_BY[artifact]
    return StaleArtifactError(f"artifact {artifact!r} {problem}; re-run the {made_by!r} stage")


def _atomic_save(path: Path, save_fn) -> None:
    """Run a saver against a temp path (a file or a directory), then move it into place."""
    with atomic_path(path) as tmp:
        save_fn(tmp)


# perfbench/traced_cli.py times writes under this name too
_atomic_save_dir = _atomic_save


def _load_artifact(load, path: Path, corrupt):
    """Return `load(path)`; any other exception it raises is raised as `corrupt(exc)`."""
    try:
        return load(path)
    except (InputFileError, MemoryError):  # the store's bad line (exit 1); a resource limit
        raise
    except Exception as exc:
        raise corrupt(exc) from None


def _load_manifest(path: Path) -> dict:
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for info in manifest["stages"].values():
        if not (isinstance(info["inputs"], dict) and isinstance(info["outputs"], dict)):
            raise TypeError("a stage record has no inputs or outputs")
    return manifest


class _Stage:
    """One command's stage: config snapshot, run manifest, checked reads, recorded writes.

    `main` opens the stage, runs its command on it and records it with
    `finish`: `manifest.json` records, for each stage run, the config digest,
    the digest of every input read and every output written, and the wall time.
    """

    def __init__(self, name: str, config: RunConfig, force: bool, input_path: str | None = None):
        self.name = name
        self.config = config
        self.force = force
        self.input_path = input_path  # the command line's one input file: predict's --input
        self.outdir = Path(config.output_dir)
        snapshot = config.canonical_json()
        self.config_digest = sha256_bytes(snapshot.encode("utf-8"))
        atomic_write_text(self.outdir / CONFIG_SNAPSHOT, snapshot)
        self.manifest = {"tool_version": __version__, "stages": {}}
        path = self.outdir / MANIFEST
        if path.exists():
            self.manifest = _load_artifact(_load_manifest, path, lambda exc: StaleArtifactError(
                f"{MANIFEST!r} in {self.outdir} is corrupt ({exc!r}); "
                f"remove it and re-run the stages from {MADE_BY[STORE]!r}"
            ))
            self.manifest["tool_version"] = __version__
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.started = time.monotonic()

    def _producer(self, artifact: str) -> dict | None:
        """The manifest's record of the stage run that wrote `artifact`."""
        return next(
            (info for info in self.manifest["stages"].values() if artifact in info["outputs"]),
            None,
        )

    def read(self, artifact: str, load):
        """Check an upstream artifact is fresh, record its digest, and return `load(path)`.

        The artifact must exist and, unless --force, be recorded in the manifest
        with the digest it has now, and be made from the artifacts the manifest
        records now; `_load_artifact` names it as corrupt where it cannot be read.
        """
        path = self.outdir / artifact
        made_by = MADE_BY[artifact]
        if not path.exists():
            raise StaleArtifactError(
                f"missing artifact {artifact!r}; run the {made_by!r} stage first"
            )
        producer = self._producer(artifact)
        if producer is None and not self.force:
            raise StaleArtifactError(
                f"artifact {artifact!r} is not recorded in the manifest; "
                f"re-run the {made_by!r} stage (or pass --force)"
            )

        def corrupt(exc: Exception) -> StaleArtifactError:
            return _rerun(artifact, f"is corrupt or truncated ({type(exc).__name__}: {exc})")

        digest = _load_artifact(artifact_digest, path, corrupt)
        if producer is not None and not self.force:
            if digest != producer["outputs"][artifact]:
                raise StaleArtifactError(
                    f"artifact {artifact!r} was modified after the {made_by!r} "
                    f"stage produced it; re-run {made_by!r} (or pass --force)"
                )
            for source, used in producer["inputs"].items():
                source_producer = self._producer(source)
                if source_producer is not None and source_producer["outputs"][source] != used:
                    raise _rerun(artifact, f"was made from an older {source!r}")
        self.inputs[artifact] = digest
        return _load_artifact(load, path, corrupt)

    def check_ids(self, artifact: str, store: CorpusStore, ids) -> None:
        """Refuse an artifact that holds a corpus id the store lacks, as one read
        under --force from an older store does."""
        try:
            rows_of(store.ids(), ids)
        except ValueError as exc:
            raise _rerun(artifact, f"names a sentence that {STORE!r} lacks ({exc})") from None

    def external_input(self, path: str | Path) -> Path:
        try:
            self.inputs[str(path)] = sha256_file(path)
        except OSError as exc:
            raise InputFileError(f"cannot read input {path}: {exc.strerror}") from exc
        return Path(path)

    def labeled(self, path: str) -> list[LabeledSentence]:
        return load_labeled(self.external_input(path))

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

    def write_json(self, artifact: str, value) -> None:
        self.write_text(artifact, json_text(value))

    def finish(self) -> None:
        """Record the stage with the digest of each input and output, and save the manifest."""
        self.manifest["stages"][self.name] = {
            "config_digest": self.config_digest,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "wall_seconds": round(time.monotonic() - self.started, 3),
        }
        atomic_write_text(self.outdir / MANIFEST, json_text(self.manifest))
        self.log(f"done in {time.monotonic() - self.started:.1f}s")

    def log(self, msg: str) -> None:
        print(f"[{self.name}] {msg}", file=sys.stderr)


def cmd_ingest(stage: _Stage) -> None:
    corpora = stage.config.corpora
    store = CorpusStore()
    for entry in corpora:
        stage.external_input(entry.path)
        added = ingest_corpus(entry.path, entry.source, entry.format, store=store)
        stage.log(f"{entry.path}: {len(added)} sentences ({entry.source})")
    deduped, stats = deduplicate(store.records)
    store = CorpusStore(records=deduped)
    stage.log(f"total {stats.total_sentences}, distinct {stats.distinct_sentences}")
    if not store.records:
        paths = ", ".join(entry.path for entry in corpora)
        raise InputFileError(f"the corpora hold no sentences: {paths}")
    stage.write(STORE, lambda tmp: save_store(store, tmp))
    stage.write_json(CORPUS_STATS, vars(stats))


def _refuse_oversized_matrices(featurizers: dict[str, FeatureConfig], n_rows: int) -> None:
    """Refuse, before any is allocated, a featurizer (keyed by its config key)
    whose float32 matrix of `n_rows` rows would exceed MAX_MATRIX_BYTES."""
    for key, featurizer in featurizers.items():
        nbytes = n_rows * featurizer.dimension * 4
        if nbytes > MAX_MATRIX_BYTES:
            raise ConfigError(
                f"{key}.hashed_dim is {featurizer.hashed_dim}: its float32 matrix of "
                f"{n_rows} rows would take {nbytes} bytes, more than the "
                f"{MAX_MATRIX_BYTES} bytes a feature matrix may take"
            )


def _archetype_configs(config: RunConfig) -> dict[str, FeatureConfig]:
    return {f"archetypes[{i}]": a.feature_config() for i, a in enumerate(config.archetypes)}


def _read_store(stage: _Stage) -> CorpusStore:
    """ingest's store, refused if it holds no sentences, as ingest never writes one."""
    store = stage.read(STORE, load_store)
    if not store.records:
        raise _rerun(STORE, "holds no sentences")
    return store


def cmd_featurize(stage: _Stage) -> None:
    store = _read_store(stage)
    configs = featurizer_configs(stage.config.retrieval, stage.config.archetypes)
    stats = fit_feature_stats_many(store.records, configs.values())
    stage.write_json(FEATURE_STATS, {name: s.to_dict() for name, s in zip(configs, stats)})


def _read_feature_stats(stage: _Stage) -> dict[str, FeatureStats]:
    """featurize's stats, refused unless they hold every featurizer as the config has it."""
    stats = stage.read(FEATURE_STATS, load_feature_stats)
    for name, wanted in featurizer_configs(stage.config.retrieval, stage.config.archetypes).items():
        if name not in stats or stats[name].config != wanted:
            what = "the retrieval featurizer" if name == RETRIEVAL else f"archetype {name!r}"
            raise _rerun(FEATURE_STATS, f"has no featurizer for {what} as configured")
    return stats


def _load_context(stage: _Stage) -> PipelineContext:
    """The pipeline context of the store and featurize's stats, with no index:
    a stage loads it with `_read_index` where it needs it."""
    stats = _read_feature_stats(stage)
    return PipelineContext(
        store=_read_store(stage),
        retrieval_stats=stats[RETRIEVAL],
        archetypes=[Archetype(s.name, stats[s.name], s.batch_size) for s in stage.config.archetypes],
    )


def _check_retrieval(
    artifact: str, fingerprint: str, dimension: int, retrieval: FeatureStats
) -> None:
    """Refuse an artifact made with another retrieval featurizer than `feature_stats.json`
    holds, as one read under --force after `featurize` ran again may be."""
    if fingerprint != retrieval.fingerprint or dimension != retrieval.config.dimension:
        raise _rerun(
            artifact,
            f"was made with another retrieval featurizer (dimension {dimension}) than "
            f"{FEATURE_STATS!r} holds (dimension {retrieval.config.dimension})",
        )


def _read_index(stage: _Stage, ctx: PipelineContext) -> VectorIndex:
    """`index.bin`, refused unless it was built from the store's rows with the
    retrieval featurizer of `feature_stats.json`."""
    index = stage.read(INDEX, load_index)
    stage.check_ids(INDEX, ctx.store, index.ids)
    _check_retrieval(INDEX, index.fingerprint, index.dimension, ctx.retrieval_stats)
    return index


def cmd_index(stage: _Stage) -> None:
    retrieval = _read_feature_stats(stage)[RETRIEVAL]
    store = _read_store(stage)
    _refuse_oversized_matrices({"retrieval": stage.config.retrieval}, len(store.records))
    (vectors,) = embed_many([r.text for r in store.records], [retrieval], dtype=np.float32)
    index = VectorIndex(store.ids(), vectors, retrieval.fingerprint)
    stage.write(CORPUS_IDS, lambda tmp: np.save(tmp, index.ids))
    stage.write(CORPUS_VECTORS, lambda tmp: np.save(tmp, index.vectors))
    stage.write(INDEX, lambda tmp: save_index(index, tmp))
    stage.log(f"built: N={index.count} D={index.dimension}")


def cmd_train_baseline(stage: _Stage) -> None:
    retrieval = _read_feature_stats(stage)[RETRIEVAL]
    labeled = stage.labeled_train()
    _refuse_oversized_matrices({"retrieval": stage.config.retrieval}, len(labeled))
    model = train_gate_model(retrieval, labeled, stage.config)
    stage.write_text(BASELINE_MODEL, model_to_json(model))


def cmd_pseudolabel(stage: _Stage) -> None:
    config = stage.config
    ctx = _load_context(stage)
    ctx.index = _read_index(stage, ctx)
    gate = stage.read(BASELINE_MODEL, load_model)
    _check_retrieval(BASELINE_MODEL, gate.fingerprint, gate.weights.size, ctx.retrieval_stats)
    anchors = stage.labeled_train()
    exclude = {s.text for s in anchors}
    if config.labeled_test:
        exclude |= {s.text for s in stage.labeled(config.labeled_test)}
    pset = generate_for_anchors(ctx, anchors, gate, config, exclude)
    stage.log(f"admitted {len(pset.labels)} pseudo-labels")
    stage.write(PSEUDO_LABELS, lambda tmp: save_pseudo_labels(pset, tmp))
    made_by = {"k": config.k, "exclude_labeled": bool(exclude), "baseline_seed": gate.seed,
               "fingerprint": gate.fingerprint}
    stage.write_json(PSEUDO_STATS, {"config": made_by, "stats": compute_set_stats(pset.labels)})
    stage.write_text(PSEUDO_TABLE, render_stats_table(pseudo_label_stats(pset)))


def _fold_plan(config: RunConfig, labeled: list[LabeledSentence], *, nested: bool) -> FoldPlan:
    """The fold plan; `nested`: each training fold is split again into `n_folds` folds."""
    n, k = len(labeled), config.n_folds
    smallest = n - (n + k - 1) // k if nested else n  # minus the largest fold
    if smallest < k:
        what = "sentences in the smallest training fold" if nested else "labeled sentences"
        raise ConfigError(f"n_folds is {k}, more than the {smallest} {what} of labeled_train")
    return make_fold_plan(n, k, seed=config.fold_seed)


def cmd_train_ensemble(stage: _Stage) -> None:
    config = stage.config
    ctx = _load_context(stage)
    pset = stage.read(PSEUDO_LABELS, load_pseudo_labels)
    stage.check_ids(PSEUDO_LABELS, ctx.store, [l.sentence_id for l in pset.labels])
    labeled = stage.labeled_train()
    _refuse_oversized_matrices(
        _archetype_configs(config), max(len(ctx.store.records), len(labeled))
    )
    plan = _fold_plan(config, labeled, nested=False)
    bundle = train_ensemble(ctx, labeled, pset, plan, config)
    stage.log(
        f"pseudo stage: {len(bundle.base_keys)} models, "
        f"fine-tuned into {len(bundle.fold_models)} fold models"
    )
    bundle.aggregation = AGGREGATION.get(config.setting, "mean")
    stage.write(BUNDLE, lambda tmp: save_bundle(bundle, tmp))


def cmd_evaluate(stage: _Stage) -> None:
    config = stage.config
    ctx = _load_context(stage)
    labeled = stage.labeled_train()
    # the baseline setting embeds no corpus matrix
    n_rows = len(labeled) if config.setting == "baseline" else len(ctx.store.records)
    _refuse_oversized_matrices(_archetype_configs(config), max(n_rows, len(labeled)))
    plan = _fold_plan(config, labeled, nested=config.setting in AGGREGATION)
    pseudo_sets = None
    if config.setting != "baseline":
        # Pseudo-label every fold while the index is loaded, and drop it before
        # evaluate_settings forks the tasks that embed the archetype matrices,
        # so no process holds the index and a corpus matrix at once.
        ctx.index = _read_index(stage, ctx)
        pseudo_sets = fold_pseudo_labels(ctx, labeled, plan, config)
        ctx.index = None
    reports = evaluate_settings(
        ctx, labeled, [config.setting], plan, config, pseudo_sets=pseudo_sets
    )
    report = reports[config.setting]
    stage.write_json(EVAL_JSON, report.to_dict())
    stage.write_text(EVAL_TABLE, render_report_table([report]))
    stage.log(
        f"{config.setting}: fold-mean RMSE {report.fold_mean_rmse:.3f} "
        f"(raw {report.rmse_raw:.3f}, mapped {report.rmse_mapped:.3f})"
    )


def cmd_predict(stage: _Stage) -> None:
    from .ensemble import load_bundle, predict_ensemble_batch

    bundle = stage.read(BUNDLE, load_bundle)
    records = ingest_corpus(stage.external_input(stage.input_path), "predict", PLAIN_LINES)
    texts = [r.text for r in records]
    scores = predict_ensemble_batch(bundle, texts) if texts else []
    buf = io.StringIO()
    for i, score in enumerate(scores, start=1):
        buf.write(f"{i}\t{score:.3f}\n")
    stage.write_text(PREDICTIONS, buf.getvalue())
    stage.log(f"scored {len(texts)} sentences")


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
            p.add_argument("--input", required=True, help="sentences to score, one per line")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = load_config(args.config)
        try:
            Path(config.output_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create output_dir {config.output_dir}: {exc.strerror}"
            ) from None
        with output_lock(config.output_dir):
            stage = _Stage(args.command, config, args.force, getattr(args, "input", None))
            COMMANDS[args.command](stage)
            stage.finish()  # a command that raises leaves no record
        return 0
    except StaleArtifactError as exc:  # before RuntimeError, its base
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, InputFileError, DivergedError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal error
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
