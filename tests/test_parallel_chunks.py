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
from pseudolab.features import (
    CHUNK_RUN_ROWS,
    EMBED_CHUNK_ROWS,
    FeatureConfig,
    embed_many,
    fit_feature_stats,
)
from pseudolab.scorer import ScorerModel

ROOT = Path(__file__).resolve().parents[1]

CHUNK, RUN = EMBED_CHUNK_ROWS, CHUNK_RUN_ROWS
SIZES = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, RUN - 1, RUN, RUN + 1, 1000]


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
        "narrow": FeatureConfig(hashed_dim=128, ngram_min=4, ngram_max=6),
    }
    return {
        name: Archetype(name, fit_feature_stats(texts[:100], config), 32)
        for name, config in configs.items()
    }


def _bundle(archetypes, aggregation: str) -> EnsembleBundle:
    rng = np.random.default_rng(32)
    return EnsembleBundle(
        fold_models=[
            FoldModel(fold, ScorerModel(
                weights=rng.normal(scale=0.5, size=arch.stats.config.dimension),
                intercept=4.0,
                fingerprint=arch.stats.fingerprint,
                seed=seed,
                archetype=name,
            ))
            for name, arch in archetypes.items() for seed in (1, 2) for fold in range(2)
        ],
        plan=make_fold_plan(4, n_folds=2, seed=0),
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
    assert RUN == 4 * CHUNK  # the cases below are written for this ratio
    _use_workers(monkeypatch, 3)
    assert features.chunk_runs(0) == [(0, 0)]
    assert features.chunk_runs(1) == [(0, 1)]
    assert features.chunk_runs(RUN) == [(0, RUN)]
    assert features.chunk_runs(RUN + 1) == [(0, 2 * CHUNK), (2 * CHUNK, RUN + 1)]
    assert features.chunk_runs(1000) == [
        (0, 5 * CHUNK), (5 * CHUNK, 10 * CHUNK), (10 * CHUNK, 1000)
    ]
    assert features.chunk_runs(7 * RUN) == [
        (0, 9 * CHUNK), (9 * CHUNK, 18 * CHUNK), (18 * CHUNK, 7 * RUN)
    ]
    _use_workers(monkeypatch, 2)
    assert features.chunk_runs(2 * RUN) == [(0, RUN), (RUN, 2 * RUN)]
    _use_workers(monkeypatch, 1)
    assert features.chunk_runs(1000) == [(0, 1000)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_chunk_runs_open_one_run_per_run_size_begun(monkeypatch, workers):
    """min(workers, ceil(n / RUN)) runs of whole chunks, covering the rows in order,
    whose chunk counts differ by at most one."""
    _use_workers(monkeypatch, workers)
    for n in range(4 * RUN + 2):
        runs = features.chunk_runs(n)
        assert len(runs) == min(workers, max(1, -(-n // RUN))), n
        assert runs[0][0] == 0 and runs[-1][1] == n, n
        assert all(stop == start for (_, stop), (start, _) in zip(runs, runs[1:])), n
        assert all(start % CHUNK == 0 for start, _ in runs), n
        chunks = [-(-(stop - start) // CHUNK) for start, stop in runs]
        assert max(chunks) - min(chunks) <= 1, n


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
                # only more rows than one run fork, into shared matrices
                assert _is_shared(b) == (n > RUN), (n, workers)


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


def test_a_run_may_end_inside_a_run_sized_group(monkeypatch, texts, archetypes):
    """RUN + 1 rows make two runs that meet at a chunk bound inside the first RUN
    rows, and embed and score to the same bits on 1, 2 and 3 workers."""
    n = RUN + 1
    _use_workers(monkeypatch, 2)
    (_, bound), _ = features.chunk_runs(n)
    assert bound % CHUNK == 0 and 0 < bound < RUN
    stats = [a.stats for a in archetypes.values()]
    bundle = _bundle(archetypes, "stacker")
    results = {}
    for workers in (1, 2, 3):
        _use_workers(monkeypatch, workers)
        assert len(features.chunk_runs(n)) == min(workers, 2)
        results[workers] = [m.tobytes() for m in embed_many(texts[:n], stats)] + [
            predict_ensemble_batch(bundle, texts[:n]).tobytes()
        ]
    assert results[2] == results[1] and results[3] == results[1]


def test_a_map_inside_a_worker_never_forks(monkeypatch):
    _use_workers(monkeypatch, 2)

    def task(i):
        inner = parallel.map_forked(lambda j: os.getpid(), 2, work="an inner map")
        return os.getpid(), inner, len(features.chunk_runs(1000))

    results = parallel.map_forked(task, 2, work="an outer map")
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
            [FoldModel(0, model)], make_fold_plan(2, 2), {"a": Archetype("a", stats)},
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
