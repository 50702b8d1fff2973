"""The fork map and evaluate's featurizer tasks in forked workers: the serial reports,
the serial failures."""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from pseudolab import parallel, pipeline
from pseudolab.ensemble import cv_fine_tune, fit_stacker, make_fold_plan, save_bundle
from pseudolab.features import FeatureConfig

ROOT = Path(__file__).resolve().parents[1]

# 'd' has the featurizer config of 'a'
SHARED_FEATURIZER_SPECS = (
    pipeline.ArchetypeSpec("a", 96, 3, 5, 32),
    pipeline.ArchetypeSpec("b", 64, 2, 4, 20),
    pipeline.ArchetypeSpec("d", 96, 3, 5, 16),
)


def _use_workers(monkeypatch, n: int) -> None:
    monkeypatch.setattr(parallel, "usable_cpus", lambda: n)


def _plan(dataset):
    return make_fold_plan(len(dataset.labeled_train), n_folds=5, seed=1)


def test_two_workers_run_folds_in_child_processes(monkeypatch):
    _use_workers(monkeypatch, 2)
    results = parallel.map_forked(lambda f: {"fold": f, "pid": os.getpid()}, 5, work="folds")
    assert [r["fold"] for r in results] == list(range(5))
    assert os.getpid() not in {r["pid"] for r in results}


def test_one_worker_runs_folds_in_process(monkeypatch):
    _use_workers(monkeypatch, 1)
    results = parallel.map_forked(lambda f: {"fold": f, "pid": os.getpid()}, 3, work="folds")
    assert results == [{"fold": f, "pid": os.getpid()} for f in range(3)]


def test_baseline_folds_run_in_process(
    monkeypatch, small_context, small_dataset, small_pipeline_config
):
    """Without a pseudo stage a fold is one small fit, not worth a fork."""
    _use_workers(monkeypatch, 2)
    pids = []
    real = pipeline.train_iterative

    def recorded(*args, **kwargs):
        pids.append(os.getpid())
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train_iterative", recorded)
    pipeline.evaluate_settings(
        small_context, small_dataset.labeled_train, ["baseline"],
        _plan(small_dataset), small_pipeline_config,
    )
    assert pids == [os.getpid()] * 5


def test_reports_bitwise_equal_with_one_and_two_workers(
    monkeypatch, small_context, small_dataset, small_pipeline_config
):
    reports = {}
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        reports[workers] = pipeline.evaluate_settings(
            small_context, small_dataset.labeled_train, pipeline.SETTINGS,
            _plan(small_dataset), small_pipeline_config,
        )
    for setting in pipeline.SETTINGS:
        # json.dumps writes each float's shortest round-trip repr, so equal
        # strings mean bitwise-equal values
        serial = json.dumps(reports[1][setting].to_dict(), sort_keys=True)
        assert json.dumps(reports[2][setting].to_dict(), sort_keys=True) == serial, setting


@pytest.mark.parametrize("workers", [1, 2])
def test_anchors_are_retrieved_once_for_every_fold(
    monkeypatch, tmp_path, workers, small_context, small_dataset, small_pipeline_config
):
    """One top_k_many call serves every fold (counted in the fold workers too,
    through a file), and each fold's pseudo-labels are those its own anchors
    would admit alone."""
    from pseudolab import pseudolabel

    _use_workers(monkeypatch, workers)
    ctx, cfg, labeled = small_context, small_pipeline_config, small_dataset.labeled_train
    plan = _plan(small_dataset)
    calls = tmp_path / "top_k_many_calls"
    real_top_k_many, real_fold_pseudo_labels = pseudolabel.top_k_many, pipeline.fold_pseudo_labels

    def counted(index, queries, *args, **kwargs):
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"{len(queries)}\n")
        return real_top_k_many(index, queries, *args, **kwargs)

    made = []

    def recorded(*args, **kwargs):
        made.append(real_fold_pseudo_labels(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(pseudolabel, "top_k_many", counted)
    monkeypatch.setattr(pipeline, "fold_pseudo_labels", recorded)
    pipeline.evaluate_settings(ctx, labeled, pipeline.SETTINGS, plan, cfg)
    assert calls.read_text().split() == [str(len(labeled))]

    (psets,) = made
    exclude = {s.text for s in labeled}
    assert len(psets) == plan.n_folds
    for f, pset in enumerate(psets):
        fold_train = [labeled[i] for i in plan.train_indices(f)]
        gate = pipeline.train_gate_model(ctx.retrieval_stats, fold_train, cfg)
        alone = pipeline.generate_for_anchors(ctx, fold_train, gate, cfg, exclude)
        assert pset.labels, f
        assert pset.labels == alone.labels, f


def _bundle_files(bundle, directory: Path) -> dict[str, bytes]:
    save_bundle(bundle, directory)
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*.*"))}


def test_archetypes_of_one_featurizer_share_its_task(
    monkeypatch, tmp_path, small_dataset, small_pipeline_config
):
    """With archetypes a, b and d, where d has a's config, train_ensemble and
    evaluate_settings embed the corpus once per distinct featurizer (counted
    through a file, so that calls made in workers show); the bundle lists its
    models by archetype in config order, then seed, then fold, bitwise as one
    pass over all the archetypes makes it; and the bundle and the reports are
    bitwise equal on 1, 2 and 3 workers."""
    retrieval = FeatureConfig(hashed_dim=128, ngram_min=3, ngram_max=4)
    ctx = pipeline.build_context(small_dataset.store, retrieval, SHARED_FEATURIZER_SPECS)
    cfg = dataclasses.replace(small_pipeline_config, seeds=(1, 2))
    labeled = small_dataset.labeled_train
    plan = _plan(small_dataset)
    psets = pipeline.fold_pseudo_labels(ctx, labeled, plan, cfg)
    pset = psets[0]

    # one pass over all the archetypes: d reads a's matrix, as its own
    corpus = [r.text for r in ctx.store.records]
    models = pipeline.train_stage_models(
        ctx, pipeline.embed_archetypes(corpus, ctx.archetypes), pset, cfg, "one pass"
    )
    reference = cv_fine_tune(
        models, ctx.archetypes, labeled, plan, cfg.hyper_fine,
        features_by_archetype=pipeline.embed_archetypes([s.text for s in labeled], ctx.archetypes),
    )
    y = [s.mos for s in labeled]
    weights, intercept, fallback = fit_stacker(reference.oof, y)
    reference.stacker_weights, reference.stacker_intercept = weights, intercept
    reference.stacker_fallback = fallback
    expected_files = _bundle_files(reference, tmp_path / "reference")

    calls = tmp_path / "corpus_embeddings"
    real_embed_many = pipeline.embed_many

    def counted(texts, stats_list, **kwargs):
        if list(texts) == corpus:
            with open(calls, "a", encoding="utf-8") as fh:
                fh.write(" ".join(stats.fingerprint for stats in stats_list) + "\n")
        return real_embed_many(texts, stats_list, **kwargs)

    monkeypatch.setattr(pipeline, "embed_many", counted)
    fingerprints = {arch.name: arch.stats.fingerprint for arch in ctx.archetypes}
    assert fingerprints["d"] == fingerprints["a"] != fingerprints["b"]
    runs = {}
    for workers in (1, 2, 3):
        _use_workers(monkeypatch, workers)
        calls.write_text("", encoding="utf-8")
        bundle = pipeline.train_ensemble(ctx, labeled, pset, plan, cfg)
        assert sorted(calls.read_text(encoding="utf-8").splitlines()) == sorted(
            [fingerprints["a"], fingerprints["b"]]
        ), workers
        calls.write_text("", encoding="utf-8")
        reports = pipeline.evaluate_settings(
            ctx, labeled, pipeline.SETTINGS, plan, cfg, pseudo_sets=psets
        )
        assert sorted(calls.read_text(encoding="utf-8").splitlines()) == sorted(
            [fingerprints["a"], fingerprints["b"]]
        ), workers
        assert bundle.base_keys == [(name, seed) for name in "abd" for seed in cfg.seeds]
        assert [(fm.model.archetype, fm.model.seed, fm.fold) for fm in bundle.fold_models] == [
            (name, seed, fold) for name in "abd" for seed in cfg.seeds for fold in range(5)
        ]
        runs[workers] = (
            _bundle_files(bundle, tmp_path / f"bundle{workers}"),
            # shortest round-trip reprs: equal strings mean bitwise-equal values
            {s: json.dumps(r.to_dict(), sort_keys=True) for s, r in reports.items()},
        )
    assert runs[1][0] == expected_files
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]


def test_each_fold_bundle_is_the_train_ensemble_bundle_of_its_rows(
    monkeypatch, tmp_path, small_context, small_dataset, small_pipeline_config
):
    """evaluate_settings and the train-ensemble stage share one trainer: the
    bundle fold f scores is, file for file, the one train_ensemble makes from
    the fold's training rows, its pseudo-label set and its inner fold plan."""
    _use_workers(monkeypatch, 2)
    ctx, labeled = small_context, small_dataset.labeled_train
    cfg = dataclasses.replace(small_pipeline_config, seeds=(1, 2))
    plan = _plan(small_dataset)
    psets = pipeline.fold_pseudo_labels(ctx, labeled, plan, cfg)
    bundles = []
    real_stacked_bundle = pipeline.stacked_bundle

    def captured(*args, **kwargs):
        bundles.append(real_stacked_bundle(*args, **kwargs))
        return bundles[-1]

    monkeypatch.setattr(pipeline, "stacked_bundle", captured)
    pipeline.evaluate_settings(ctx, labeled, ["ensemble_mean"], plan, cfg, pseudo_sets=psets)
    monkeypatch.setattr(pipeline, "stacked_bundle", real_stacked_bundle)
    assert len(bundles) == plan.n_folds
    for f, bundle in enumerate(bundles):
        rows = plan.train_indices(f)
        inner = make_fold_plan(len(rows), cfg.n_folds, seed=plan.seed * 1009 + f)
        alone = pipeline.train_ensemble(ctx, [labeled[i] for i in rows], psets[f], inner, cfg)
        assert _bundle_files(bundle, tmp_path / f"fold{f}") == _bundle_files(
            alone, tmp_path / f"alone{f}"
        ), f


def _task_of(corpus_features) -> str:
    """The task a train_stage_models call runs in, named by its archetypes."""
    return "+".join(corpus_features)


def test_lowest_failing_fold_is_raised(
    monkeypatch, small_context, small_dataset, small_pipeline_config
):
    """The task of archetype 'b' fails in fold 0 at once, while the task of
    archetype 'a' is still running fold 0; the lower task's error wins, as
    the serial loop, which runs 'a' first, would raise it."""
    _use_workers(monkeypatch, 2)

    def failing(ctx, corpus_features, pset, cfg, where):
        task = _task_of(corpus_features)
        if task == "a":
            time.sleep(0.5)
            raise ValueError(f"{where} of {task} failed late")
        raise RuntimeError(f"{where} of {task} failed at once")

    monkeypatch.setattr(pipeline, "train_stage_models", failing)
    with pytest.raises(ValueError, match="^fold 0 of a failed late$"):
        pipeline.evaluate_settings(
            small_context, small_dataset.labeled_train, ["pseudo_only"],
            _plan(small_dataset), small_pipeline_config,
        )


def test_no_fold_starts_after_a_failure(
    monkeypatch, tmp_path, small_context, small_dataset, small_pipeline_config
):
    """Three featurizer tasks on two workers: the task of 'a' fails in fold 0,
    the running task of 'b' goes on through its folds, and the task of 'c'
    never starts."""
    _use_workers(monkeypatch, 2)
    started = tmp_path / "started.txt"
    real = pipeline.train_stage_models

    def logged(ctx, corpus_features, pset, cfg, where):
        task = _task_of(corpus_features)
        with open(started, "a", encoding="utf-8") as fh:
            fh.write(f"{task} {where}\n")
        if task == "a":
            raise RuntimeError(f"{where} of a: step failed")
        time.sleep(0.2)
        return real(ctx, corpus_features, pset, cfg, where)

    monkeypatch.setattr(pipeline, "train_stage_models", logged)
    with pytest.raises(RuntimeError, match="^fold 0 of a: step failed$"):
        pipeline.evaluate_settings(
            small_context, small_dataset.labeled_train, ["pseudo_only"],
            _plan(small_dataset), small_pipeline_config,
        )
    assert sorted(started.read_text(encoding="utf-8").splitlines()) == [
        "a fold 0", *(f"b fold {f}" for f in range(5))
    ]


def test_dead_worker_ends_evaluate_with_an_error():
    """A worker killed mid-task (the task of archetype 'b', in fold 1) raises in
    the parent within seconds instead of hanging."""
    code = textwrap.dedent(
        """
        import os
        import sys
        from pseudolab import fixtures, parallel, pipeline
        from pseudolab.ensemble import make_fold_plan
        from pseudolab.features import FeatureConfig

        data = fixtures.make_synthetic_dataset(n_corpus=300, n_train=40, n_test=5, seed=1)
        ctx = pipeline.build_context(
            data.store,
            FeatureConfig(hashed_dim=64, ngram_min=3, ngram_max=4),
            [pipeline.ArchetypeSpec("a", 64, 3, 5), pipeline.ArchetypeSpec("b", 32, 2, 4)],
        )
        real = pipeline.train_stage_models

        def dying(ctx, corpus_features, pset, cfg, where):
            if list(corpus_features) == ["b"] and where == "fold 1":
                os._exit(7)
            return real(ctx, corpus_features, pset, cfg, where)

        pipeline.train_stage_models = dying
        parallel.usable_cpus = lambda: 2
        plan = make_fold_plan(len(data.labeled_train), n_folds=5, seed=1)
        try:
            pipeline.evaluate_settings(
                ctx, data.labeled_train, ["pseudo_only"], plan, pipeline.PipelineConfig(k=15)
            )
        except ChildProcessError as exc:
            print(exc)
            sys.exit(5)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 5, result.stderr
    assert "a worker process died during the training per featurizer" in result.stdout
