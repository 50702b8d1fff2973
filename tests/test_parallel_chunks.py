"""Embedding and scoring in forked workers, one contiguous run of whole chunks
each: the in-process bits, the in-process failures."""

import mmap
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from pseudolab import ensemble, features, parallel
from pseudolab.ensemble import (
    Archetype,
    EnsembleBundle,
    FoldModel,
    make_fold_plan,
    predict_ensemble_batch,
)
from pseudolab.features import EMBED_CHUNK_ROWS, FeatureConfig, embed_many, fit_feature_stats
from pseudolab.scorer import ScorerModel

ROOT = Path(__file__).resolve().parents[1]

SIZES = [0, 1, 255, 256, 257, 1000]


def _use_workers(monkeypatch, n: int) -> None:
    monkeypatch.setattr(parallel, "usable_cpus", lambda: n)


@pytest.fixture(scope="module")
def texts():
    rng = np.random.default_rng(31)
    words = ["haus", "baum", "schule", "fenster", "strasse", "wolke", "licht", "garten"]
    return [
        " ".join(rng.choice(words, size=int(rng.integers(2, 30)))) + f", {i}."
        for i in range(max(SIZES))
    ]


@pytest.fixture(scope="module")
def archetypes(texts):
    configs = {
        "wide": FeatureConfig(hashed_dim=512),
        "mid": FeatureConfig(hashed_dim=256, ngram_min=2, ngram_max=4),
        "narrow": FeatureConfig(hashed_dim=128, ngram_min=4, ngram_max=6, max_tokens=12),
    }
    return {
        name: Archetype(name, fit_feature_stats(texts[:100], config), 32)
        for name, config in configs.items()
    }


def _bundle(archetypes, aggregation: str) -> EnsembleBundle:
    rng = np.random.default_rng(32)
    return EnsembleBundle(
        fold_models=[
            FoldModel(name, seed, fold, ScorerModel(
                weights=rng.normal(scale=0.5, size=arch.stats.config.dimension),
                intercept=4.0,
                fingerprint=arch.stats.fingerprint,
                archetype=name,
            ))
            for name, arch in archetypes.items() for seed in (1, 2) for fold in range(2)
        ],
        plan=make_fold_plan(4, n_folds=2, seed=0),
        base_keys=[(name, seed) for name in archetypes for seed in (1, 2)],
        archetypes=archetypes,
        aggregation=aggregation,
        stacker_weights=rng.uniform(0.1, 0.4, size=6),
        stacker_intercept=0.3,
    )


def _is_shared(array: np.ndarray) -> bool:
    while isinstance(array, np.ndarray):
        array = array.base
    return isinstance(array, memoryview) and isinstance(array.obj, mmap.mmap)


def test_chunk_runs_split_at_chunk_bounds(monkeypatch):
    _use_workers(monkeypatch, 3)
    assert features.chunk_runs(0) == [(0, 0)]
    assert features.chunk_runs(256) == [(0, 256)]
    assert features.chunk_runs(257) == [(0, 256), (256, 257)]
    assert features.chunk_runs(1000) == [(0, 256), (256, 512), (512, 1000)]
    assert features.chunk_runs(7 * 256) == [(0, 512), (512, 1024), (1024, 1792)]
    _use_workers(monkeypatch, 1)
    assert features.chunk_runs(1000) == [(0, 1000)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_embed_many_is_bitwise_equal_on_any_worker_count(monkeypatch, texts, archetypes, dtype):
    stats = [a.stats for a in archetypes.values()]
    for n in SIZES:
        _use_workers(monkeypatch, 1)
        serial = embed_many(texts[:n], stats, dtype=dtype)
        for workers in (2, 3):
            _use_workers(monkeypatch, workers)
            forked = embed_many(texts[:n], stats, dtype=dtype)
            for a, b in zip(serial, forked):
                assert a.dtype == b.dtype == dtype and a.shape == b.shape, (n, workers)
                assert a.tobytes() == b.tobytes(), (n, workers)
                assert _is_shared(b) == (n > EMBED_CHUNK_ROWS), (n, workers)


@pytest.mark.parametrize("aggregation", ["mean", "stacker"])
def test_predict_is_bitwise_equal_on_any_worker_count(monkeypatch, texts, archetypes, aggregation):
    bundle = _bundle(archetypes, aggregation)
    for n in SIZES:
        _use_workers(monkeypatch, 1)
        serial = predict_ensemble_batch(bundle, texts[:n])
        assert serial.shape == (n,)
        for workers in (2, 3):
            _use_workers(monkeypatch, workers)
            assert predict_ensemble_batch(bundle, texts[:n]).tobytes() == serial.tobytes(), (
                n, workers,
            )


def test_a_map_inside_a_worker_never_forks(monkeypatch):
    _use_workers(monkeypatch, 2)

    def task(i):
        inner = parallel.map_forked(lambda j: os.getpid(), 2, 2, work="an inner map")
        return os.getpid(), inner, len(features.chunk_runs(1000))

    results = parallel.map_forked(task, 2, 2, work="an outer map")
    for pid, inner, runs in results:
        assert pid != os.getpid()
        assert inner == [pid, pid]
        assert runs == 1


def _failing_runs(first_text):
    """An embed_chunks that fails in every run: late in the first, at once in the others."""

    def failing(texts, *args, **kwargs):
        if texts[0] == first_text:
            time.sleep(0.5)
            raise ValueError("run 0 failed late")
        raise RuntimeError("a later run failed at once")

    return failing


def test_embedding_raises_the_lowest_failing_runs_error(monkeypatch, texts, archetypes):
    _use_workers(monkeypatch, 3)
    monkeypatch.setattr(features, "embed_chunks", _failing_runs(texts[0]))
    with pytest.raises(ValueError, match="^run 0 failed late$"):
        embed_many(texts, [a.stats for a in archetypes.values()])


def test_scoring_raises_the_lowest_failing_runs_error(monkeypatch, texts, archetypes):
    _use_workers(monkeypatch, 3)
    monkeypatch.setattr(ensemble, "embed_chunks", _failing_runs(texts[0]))
    with pytest.raises(ValueError, match="^run 0 failed late$"):
        predict_ensemble_batch(_bundle(archetypes, "mean"), texts)


def test_a_dead_worker_ends_embedding_and_scoring_with_an_error():
    """A worker killed mid-run raises in the parent within seconds instead of hanging."""
    code = textwrap.dedent(
        """
        import os
        import numpy as np
        from pseudolab import ensemble, features, parallel
        from pseudolab.ensemble import Archetype, EnsembleBundle, FoldModel, make_fold_plan
        from pseudolab.features import FeatureConfig, fit_feature_stats
        from pseudolab.scorer import ScorerModel

        texts = [f"satz nummer {i} mit inhalt" for i in range(600)]
        stats = fit_feature_stats(texts, FeatureConfig(hashed_dim=64))
        real = features.embed_chunks

        def dying(chunk_texts, *args, **kwargs):
            if chunk_texts[0] != texts[0]:
                os._exit(7)
            return real(chunk_texts, *args, **kwargs)

        parallel.usable_cpus = lambda: 2
        features.embed_chunks = ensemble.embed_chunks = dying
        model = ScorerModel(np.zeros(stats.config.dimension), 4.0, stats.fingerprint, archetype="a")
        bundle = EnsembleBundle(
            [FoldModel("a", 0, 0, model)], make_fold_plan(2, 2), [("a", 0)],
            {"a": Archetype("a", stats)},
        )
        for run in (lambda: features.embed_many(texts, [stats]),
                    lambda: ensemble.predict_ensemble_batch(bundle, texts)):
            try:
                run()
            except ChildProcessError as exc:
                print(exc)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.monotonic()
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "a worker process died during embedding",
        "a worker process died during scoring",
    ]
    assert time.monotonic() - start < 30
