"""Run one pseudolab CLI command with timers around the library calls it makes.

Usage: python3 perfbench/traced_cli.py <pseudolab arguments>, with src/ on
PYTHONPATH and PERFBENCH_TRACE_OUT naming the JSON file to write.

Each public function below is replaced, under every name a pseudolab module
imports it by, with a wrapper that counts calls and adds up total time and
self time (total minus the time of wrapped calls nested inside it). Counters
are read from arguments and return values. Everything is kept in memory and
written once, after the command returns.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
import types
from collections import defaultdict
from pathlib import Path


def _size_mb(path) -> float:
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6
    return path.stat().st_size / 1e6 if path.exists() else 0.0


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        # time of calls made while no other call of the same group was running
        self.outer: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.embed_keys: set[str] = set()
        self._children: list[float] = []
        self._depth: dict[str, int] = defaultdict(int)

    def wrap(self, name, fn, group=None, on_result=None):
        group = group or name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = self._depth[group] == 0
            self._depth[group] += 1
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                self._depth[group] -= 1
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_s[name] += elapsed - nested
                if outermost:
                    self.outer[group] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def patch(self, name, targets, group=None, on_result=None):
        """Replace one function under each (module, attribute) that names it."""
        module, attr = targets[0]
        wrapped = self.wrap(name, getattr(module, attr), group, on_result)
        for module, attr in targets:
            setattr(module, attr, wrapped)

    def to_dict(self, main_s: float) -> dict:
        return {
            "main_s": main_s,
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_s),
            "outer_s": dict(self.outer),
            "counts": dict(self.counts),
            "embed_keys": sorted(self.embed_keys),
        }


def install(tracer: Tracer) -> None:
    import scipy.linalg

    from pseudolab import (
        artifacts,
        cli,
        ensemble,
        features,
        linalg,
        metrics,
        pipeline,
        pseudolabel,
        scorer,
    )

    count = tracer.counts

    def add(key, amount=1):
        count[key] += amount

    for stage, fn in list(cli.COMMANDS.items()):
        cli.COMMANDS[stage] = tracer.wrap(f"cli.{stage.replace('-', '_')}", fn)

    # corpus
    tracer.patch("corpus.ingest_corpus", [(cli, "ingest_corpus")], group="ingest")
    tracer.patch(
        "corpus.deduplicate",
        [(cli, "deduplicate")],
        group="ingest",
        on_result=lambda a, r: add("corpus.sentences", len(r[0])),
    )
    tracer.patch("corpus.load_store", [(cli, "load_store")])

    # features: embed_many calls embed through the features module globals
    def on_embed(args, result):
        text, stats = args[0], args[1]
        key = hashlib.blake2b(
            f"{stats.fingerprint}\0{text}".encode("utf-8"), digest_size=8
        ).hexdigest()
        tracer.embed_keys.add(key)

    tracer.patch(
        "features.embed",
        [(features, "embed"), (pseudolabel, "embed")],
        group="embed",
        on_result=on_embed,
    )
    tracer.patch(
        "features.embed_many",
        [(features, "embed_many"), (cli, "embed_many"), (pipeline, "embed_many"),
         (ensemble, "embed_many"), (pseudolabel, "embed_many")],
        group="embed",
    )
    tracer.patch(
        "features.fit_feature_stats",
        [(features, "fit_feature_stats"), (cli, "fit_feature_stats"),
         (pipeline, "fit_feature_stats")],
    )

    # simindex
    def on_top_k(args, hits):
        add("simindex.rows_scanned", args[0].count)
        add("pseudolabel.candidates", len(hits))

    tracer.patch("simindex.top_k", [(pseudolabel, "top_k")], on_result=on_top_k)
    tracer.patch("simindex.build_index", [(cli, "build_index"), (pipeline, "build_index")])
    tracer.patch("simindex.load_index", [(cli, "load_index")])

    # scorer and linalg
    tracer.patch("scorer.train_ridge", [(cli, "train_ridge"), (pipeline, "train_ridge")])
    tracer.patch(
        "scorer.train_iterative",
        [(ensemble, "train_iterative"), (pipeline, "train_iterative")],
        on_result=lambda a, r: add("scorer.sgd_row_epochs", len(a[1]) * a[3].max_epochs),
    )
    tracer.patch(
        "scorer.predict",
        [(cli, "predict"), (ensemble, "predict"), (pipeline, "predict"),
         (pseudolabel, "predict"), (scorer, "predict")],
    )
    tracer.patch(
        "linalg.solve_spd",
        [(scorer, "solve_spd"), (ensemble, "solve_spd"), (metrics, "solve_spd")],
    )

    def counted_solve(*args, **kwargs):
        add("linalg.solver_calls")
        return scipy.linalg.solve(*args, **kwargs)

    # solve_spd reaches the solver as scipy.linalg.solve; count attempts there
    linalg.scipy = types.SimpleNamespace(
        linalg=types.SimpleNamespace(solve=counted_solve, LinAlgError=scipy.linalg.LinAlgError)
    )

    # pseudolabel
    tracer.patch(
        "pseudolabel.generate_pseudo_labels",
        [(cli, "generate_pseudo_labels"), (pipeline, "generate_pseudo_labels")],
        on_result=lambda a, r: add("pseudolabel.admitted", len(r.labels)),
    )

    # ensemble
    tracer.patch(
        "ensemble.train_pseudo_stage",
        [(cli, "train_pseudo_stage"), (pipeline, "train_pseudo_stage")],
        on_result=lambda a, r: add("ensemble.models_trained", len(r)),
    )
    tracer.patch(
        "ensemble.cv_fine_tune",
        [(cli, "cv_fine_tune"), (pipeline, "cv_fine_tune")],
        on_result=lambda a, r: add("ensemble.models_trained", len(r.fold_models)),
    )
    tracer.patch(
        "ensemble.fit_stacker",
        [(cli, "fit_stacker"), (pipeline, "fit_stacker")],
        on_result=lambda a, r: add("ensemble.stacker_fallbacks", int(bool(r[2]))),
    )
    tracer.patch("ensemble.save_bundle", [(cli, "save_bundle")])
    # cmd_predict imports these from the ensemble module when it runs
    tracer.patch("ensemble.load_bundle", [(ensemble, "load_bundle")])
    tracer.patch("ensemble.predict_ensemble_batch", [(ensemble, "predict_ensemble_batch")])

    # pipeline
    tracer.patch("pipeline.build_context", [(cli, "build_context")])
    tracer.patch("pipeline.train_gate_model", [(pipeline, "train_gate_model")])
    tracer.patch("pipeline.evaluate_settings", [(cli, "evaluate_settings")])

    # metrics
    tracer.patch(
        "metrics.mapped_rmse",
        [(pipeline, "mapped_rmse")],
        on_result=lambda a, r: add("metrics.mapping_degenerate", int(r[1].degenerate)),
    )

    # artifacts: digests and atomic writes
    tracer.patch(
        "artifacts.artifact_digest",
        [(cli, "artifact_digest"), (artifacts, "artifact_digest")],
        group="digest",
        on_result=lambda a, r: add("artifacts.digest_mb", _size_mb(a[0])),
    )
    tracer.patch(
        "artifacts.sha256_file",
        [(cli, "sha256_file")],
        group="digest",
        on_result=lambda a, r: add("artifacts.digest_mb", _size_mb(a[0])),
    )
    for attr in ("_atomic_save", "_atomic_save_dir", "atomic_write_text"):
        tracer.patch(f"artifacts.{attr.lstrip('_')}", [(cli, attr)], group="write")
    tracer.patch("artifacts.manifest_write", [(artifacts, "atomic_write_text")], group="write")


def main(argv: list[str]) -> int:
    out = Path(os.environ["PERFBENCH_TRACE_OUT"])
    tracer = Tracer()
    install(tracer)
    from pseudolab import cli

    start = time.perf_counter()
    code = cli.main(argv)
    main_s = time.perf_counter() - start
    out.write_text(json.dumps(tracer.to_dict(main_s)), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
