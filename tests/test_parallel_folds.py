"""Cross-validation folds in forked workers: the serial reports, the serial failures."""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from pseudolab import parallel, pipeline
from pseudolab.ensemble import make_fold_plan

ROOT = Path(__file__).resolve().parents[1]


def _use_workers(monkeypatch, n: int) -> None:
    monkeypatch.setattr(parallel, "usable_cpus", lambda: n)


def _plan(dataset):
    return make_fold_plan(len(dataset.labeled_train), n_folds=5, seed=1)


def test_two_workers_run_folds_in_child_processes():
    results = parallel.map_forked(
        lambda f: {"fold": f, "pid": os.getpid()}, 5, workers=2, work="folds"
    )
    assert [r["fold"] for r in results] == list(range(5))
    assert os.getpid() not in {r["pid"] for r in results}


def test_one_worker_runs_folds_in_process():
    results = parallel.map_forked(
        lambda f: {"fold": f, "pid": os.getpid()}, 3, workers=1, work="folds"
    )
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
        assert pset.config == alone.config and pset.stats == alone.stats, f


def test_lowest_failing_fold_is_raised(
    monkeypatch, small_context, small_dataset, small_pipeline_config
):
    """Fold 1 fails at once while fold 0 is still running; fold 0's error wins."""
    _use_workers(monkeypatch, 2)

    def failing(ctx, pset, cfg, where):
        if where == "fold 0":
            time.sleep(0.5)
            raise ValueError("fold 0 failed late")
        raise RuntimeError(f"{where} failed at once")

    monkeypatch.setattr(pipeline, "train_stage_models", failing)
    with pytest.raises(ValueError, match="^fold 0 failed late$"):
        pipeline.evaluate_settings(
            small_context, small_dataset.labeled_train, ["pseudo_only"],
            _plan(small_dataset), small_pipeline_config,
        )


def test_no_fold_starts_after_a_failure(
    monkeypatch, tmp_path, small_context, small_dataset, small_pipeline_config
):
    _use_workers(monkeypatch, 2)
    started = tmp_path / "started.txt"
    real = pipeline.train_stage_models

    def logged(ctx, pset, cfg, where):
        with open(started, "a", encoding="utf-8") as fh:
            fh.write(where + "\n")
        if where == "fold 0":
            raise RuntimeError("fold 0: step failed")
        time.sleep(0.5)
        return real(ctx, pset, cfg, where)

    monkeypatch.setattr(pipeline, "train_stage_models", logged)
    with pytest.raises(RuntimeError, match="^fold 0: step failed$"):
        pipeline.evaluate_settings(
            small_context, small_dataset.labeled_train, ["pseudo_only"],
            _plan(small_dataset), small_pipeline_config,
        )
    assert sorted(started.read_text(encoding="utf-8").splitlines()) == ["fold 0", "fold 1"]


def test_dead_worker_ends_evaluate_with_an_error():
    """A worker killed mid-fold raises in the parent within seconds instead of hanging."""
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
            [pipeline.ArchetypeSpec("a", 64, 3, 5)],
        )
        real = pipeline.train_stage_models

        def dying(ctx, pset, cfg, where):
            if where == "fold 1":
                os._exit(7)
            return real(ctx, pset, cfg, where)

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
    assert "a worker process died during the cross-validation folds" in result.stdout
