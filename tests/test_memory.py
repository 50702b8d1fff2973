"""Memory guards: no corpus-sized copy in the corpus embedding, the pseudo stage,
the scan, the index stage or the index load, no evaluate that holds the index and the
archetype matrices at once, no train-ensemble or evaluate that holds more than one
archetype corpus matrix at a time, scoring that holds no more than a small chunk,
and no forked worker that starts with freed heap.

numpy reports its array buffers to tracemalloc, so the traced peak of a call
is what it allocates on top of its inputs, which are made before tracing.
"""

import ctypes
import json
import mmap
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from pseudolab import ensemble, parallel, pipeline
from pseudolab.ensemble import (
    Archetype,
    EnsembleBundle,
    FoldModel,
    make_fold_plan,
    predict_ensemble_batch,
    train_pseudo_stage,
)
from pseudolab.features import (
    EMBED_CHUNK_ROWS,
    FeatureConfig,
    fit_feature_stats,
    fit_feature_stats_many,
)
from pseudolab.scorer import HyperParams, ScorerModel, train_iterative
from pseudolab.simindex import build_index, load_index, save_index, top_k_many

N, D = 6000, 512  # the index's float64 size is 24.6 MB


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


@pytest.fixture(scope="module")
def index():
    rng = np.random.default_rng(4)
    return build_index(zip(range(0, 3 * N, 3), rng.normal(size=(N, D))), fingerprint="fp")


def _corpus_archetypes(store):
    wide, narrow = fit_feature_stats_many(
        store.records,
        [FeatureConfig(hashed_dim=2048), FeatureConfig(hashed_dim=1024, ngram_min=2, ngram_max=4)],
    )
    return [Archetype("a", wide), Archetype("b", narrow), Archetype("d", wide)]


def _check_corpus_matrices(store, archetypes, matrices) -> int:
    """Check embed_archetypes's corpus matrices; the bytes of the distinct ones."""
    assert matrices["d"] is matrices["a"]
    assert matrices["b"].shape[0] == len(store.records)
    outputs = matrices["a"].nbytes + matrices["b"].nbytes
    # float32: N x (sum of the distinct dimensions) x 4 bytes
    dims = archetypes[0].stats.config.dimension + archetypes[1].stats.config.dimension
    assert outputs == len(store.records) * dims * 4
    return outputs


def test_embed_archetypes_holds_only_its_output_matrices(big_dataset, monkeypatch):
    """Beyond the matrices it returns, embed_archetypes holds only chunk-sized
    buffers (chunks embedded in this process, where tracemalloc sees the matrices)."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    store = big_dataset.store
    archetypes = _corpus_archetypes(store)
    texts = [r.text for r in store.records]
    peak, matrices = _traced_peak(lambda: pipeline.embed_archetypes(texts, archetypes))
    outputs = _check_corpus_matrices(store, archetypes, matrices)
    assert peak - outputs < matrices["b"].nbytes / 2, (peak, outputs)


def test_forked_embed_archetypes_writes_shared_matrices_and_holds_no_chunk(
    big_dataset, monkeypatch
):
    """With two workers the matrices are in shared memory, which tracemalloc
    does not see, and this process embeds no chunk of its own."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    # the pool's first import of these is not the embedding's: 0.6 MB under
    # pytest and 1.6 MB in a bare interpreter, against the 1.05 MB bound below
    import concurrent.futures.process  # noqa: F401
    import multiprocessing  # noqa: F401

    store = big_dataset.store
    archetypes = _corpus_archetypes(store)
    texts = [r.text for r in store.records]
    peak, matrices = _traced_peak(lambda: pipeline.embed_archetypes(texts, archetypes))
    _check_corpus_matrices(store, archetypes, matrices)
    for name in ("a", "b"):
        base = matrices[name]
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap), name
    # one chunk's float64 block of the wider featurizer
    assert peak < EMBED_CHUNK_ROWS * archetypes[0].stats.config.dimension * 8, peak


def test_in_process_scoring_holds_a_small_chunk(big_dataset, monkeypatch):
    """Scoring 1,000 sentences under the three default archetypes and 45 models
    holds one chunk's blocks and n-gram counts at a time: about 4.9 MB traced
    with 64-row chunks, against 18.8 MB with 256-row ones."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    texts = [r.text for r in big_dataset.store.records[:1000]]
    specs = pipeline.DEFAULT_ARCHETYPE_SPECS
    stats = fit_feature_stats_many(texts, [spec.feature_config() for spec in specs])
    archetypes = {
        spec.name: Archetype(spec.name, s, spec.batch_size) for spec, s in zip(specs, stats)
    }
    rng = np.random.default_rng(8)
    fold_models = [
        FoldModel(fold, ScorerModel(
            weights=rng.normal(scale=0.1, size=arch.stats.config.dimension),
            intercept=4.0,
            fingerprint=arch.stats.fingerprint,
            seed=seed,
            archetype=name,
        ))
        for name, arch in archetypes.items() for seed in (1, 2, 3) for fold in range(5)
    ]
    bundle = EnsembleBundle(
        fold_models=fold_models,
        plan=make_fold_plan(10, n_folds=5),
        archetypes=archetypes,
    )
    peak, scores = _traced_peak(lambda: predict_ensemble_batch(bundle, texts))
    assert scores.shape == (1000,)
    assert peak < 8 * 2**20, peak


def _rss_anon_kb() -> int:
    status = Path("/proc/self/status").read_text()
    return int(status.split("RssAnon:")[1].split()[0])


@pytest.mark.skipif(
    not Path("/proc/self/status").exists() or not hasattr(ctypes.CDLL(None), "malloc_trim"),
    reason="needs /proc and glibc's malloc_trim",
)
def test_forked_workers_do_not_inherit_freed_heap(monkeypatch):
    """Heap that malloc keeps mapped after a free is handed back before the pool
    forks, so the workers do not start with it in their resident set."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    # 15 MB freed in 32 KB holes between live blocks, so no free() trims it
    blocks = [b"x" * (32 << 10) for _ in range(960)]
    del blocks[::2]
    freed_kb = 480 * 32
    before = _rss_anon_kb()
    workers = parallel.map_forked(lambda i: _rss_anon_kb(), 2, work="a test")
    assert max(workers) < before - freed_kb // 2, (before, workers)


def test_archetype_features_are_float32(small_context, small_dataset):
    archetypes = small_context.archetypes
    corpus = pipeline.embed_archetypes([r.text for r in small_dataset.store.records], archetypes)
    labeled = pipeline.embed_archetypes([s.text for s in small_dataset.labeled_train], archetypes)
    for arch in archetypes:
        assert corpus[arch.name].dtype == np.float32
        assert labeled[arch.name].dtype == np.float32
        assert labeled[arch.name].shape == (
            len(small_dataset.labeled_train), arch.stats.config.dimension
        )


@pytest.mark.parametrize("early_stopping", [False, True], ids=["no-early-stop", "early-stop"])
def test_pseudo_stage_reads_the_shared_matrices_in_place(monkeypatch, early_stopping):
    # the pseudo stage does not stop early; its fits are made to here, so
    # that the holdout is seen to be read in place too
    monkeypatch.setattr(
        ensemble, "train_iterative", partial(train_iterative, early_stopping=early_stopping)
    )
    rng = np.random.default_rng(5)
    stats = fit_feature_stats(["ein kurzer satz", "noch ein satz"], FeatureConfig(hashed_dim=64))
    archetypes = [Archetype("a", stats, 32), Archetype("b", stats, 20)]
    # float32, as pipeline.embed_archetypes returns them
    matrices = {
        name: (rng.normal(size=(4000, D)) * 0.05).astype(np.float32) for name in ("a", "b")
    }
    rows = rng.choice(4000, size=3600, replace=False)
    y = rng.uniform(2.0, 6.0, size=rows.size)
    hyper = HyperParams(learning_rate=0.1, max_epochs=2)
    peak, models = _traced_peak(
        lambda: train_pseudo_stage(matrices, y, archetypes, (1, 2), hyper, rows=rows)
    )
    assert len(models) == 4
    assert peak < matrices["a"].nbytes / 4, peak


def test_top_k_many_makes_no_float64_copy_of_the_index(index):
    rng = np.random.default_rng(6)
    queries = rng.normal(size=(100, D))
    exclude = set(index.ids[::97].tolist())
    peak, results = _traced_peak(lambda: top_k_many(index, queries, 500, exclude=exclude))
    assert len(results) == 100
    assert peak < N * D * 8, peak


def test_corpus_score_map_makes_no_float64_copy_of_the_index(index):
    rng = np.random.default_rng(7)
    gate = ScorerModel(weights=rng.normal(size=D) * 0.01, intercept=4.0, fingerprint="fp")
    peak, scores = _traced_peak(lambda: pipeline.corpus_score_map(index, gate))
    assert len(scores) == N
    assert peak < N * D * 8, peak


def test_top_k_many_holds_one_similarity_block_and_one_row_block(index):
    """With exclusions, each row block's GEMM columns of the kept rows go
    straight into one reused QUERY_BLOCK x kept similarity block (3.0 MB
    here), next to one float64 row block (1 MB) and the hits: 5.9 MB traced,
    where 1,024-row blocks and a dots[:, kept] copy of each similarity block
    took 13.9 MB."""
    rng = np.random.default_rng(6)
    queries = rng.normal(size=(100, D))
    exclude = set(index.ids[::97].tolist())
    peak, results = _traced_peak(lambda: top_k_many(index, queries, 500, exclude=exclude))
    assert len(results) == 100
    assert peak < 8 * 2**20, peak


def test_corpus_score_map_holds_one_row_block(index):
    """Gate scores take one 256-row float64 block at a time (1 MB here); a
    1,024-row block took 4.2 MB."""
    rng = np.random.default_rng(7)
    gate = ScorerModel(weights=rng.normal(size=D) * 0.01, intercept=4.0, fingerprint="fp")
    peak, scores = _traced_peak(lambda: pipeline.corpus_score_map(index, gate))
    assert len(scores) == N
    assert peak < 2 * 2**20, peak


def test_load_index_copies_the_payload_once(index, tmp_path):
    path = tmp_path / "index.bin"
    save_index(index, path)
    peak, loaded = _traced_peak(lambda: load_index(path))
    assert np.array_equal(loaded.vectors, index.vectors)
    assert peak < 2 * path.stat().st_size, peak


def test_index_stage_holds_the_vector_matrix_about_once(tmp_path, monkeypatch):
    """The index stage embeds the store straight into one float32 matrix,
    writes the arrays and index.bin from it as it is, makes no float64 pass
    over it for norms it does not use, digests through one 256 KB buffer and
    reads nothing back, so its traced peak is the store it loads, one matrix
    and small buffers: the store and 1.15 matrices. One CPU, so that the
    matrix is embedded in this process, where tracemalloc sees it."""
    from pseudolab import cli
    from pseudolab.corpus import load_store

    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(f"Satz {i} ist kurz.\n" for i in range(20000)), encoding="utf-8")
    (tmp_path / "train.tsv").write_text("", encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "corpora": [{"path": str(corpus), "source": "news"}],
        "labeled_train": str(tmp_path / "train.tsv"),
        "output_dir": str(tmp_path / "out"),
        "retrieval": {"hashed_dim": 128, "ngram_min": 3, "ngram_max": 4},
        "archetypes": [{"name": "a", "hashed_dim": 64, "ngram_min": 3, "ngram_max": 4}],
    }), encoding="utf-8")
    for command in ("ingest", "featurize"):
        assert cli.main([command, "--config", str(config_path)]) == 0, command
    tracemalloc.start()
    try:
        store = load_store(tmp_path / "out" / cli.STORE)
        store_bytes, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix_bytes = len(store.records) * (128 + 6) * 4
    assert matrix_bytes > 8e6
    del store
    peak, code = _traced_peak(lambda: cli.main(["index", "--config", str(config_path)]))
    assert code == 0
    assert np.load(tmp_path / "out" / cli.CORPUS_VECTORS, mmap_mode="r").nbytes == matrix_bytes
    assert peak < store_bytes + 1.25 * matrix_bytes, (peak, store_bytes, matrix_bytes)


def test_evaluate_never_holds_the_index_and_the_archetype_matrices_at_once(
    tmp_path, monkeypatch
):
    """evaluate pseudo-labels every fold while the index is loaded and frees it
    before it embeds the archetype matrices, so its traced peak (folds in this
    process, where tracemalloc sees them) stays below the two together."""
    from pseudolab import cli, fixtures
    from pseudolab.features import load_feature_stats

    dataset = fixtures.make_synthetic_dataset(n_corpus=8000, n_train=60, n_test=10, seed=5)
    entries = fixtures.write_corpus_files(dataset.store, tmp_path / "corpus")
    fixtures.write_labeled_tsv(dataset.labeled_train, tmp_path / "train.tsv")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "corpora": entries,
        "labeled_train": str(tmp_path / "train.tsv"),
        "output_dir": str(tmp_path / "out"),
        "retrieval": {"hashed_dim": 1024, "ngram_min": 3, "ngram_max": 5},
        "archetypes": [
            {"name": "a", "hashed_dim": 1024, "ngram_min": 3, "ngram_max": 5},
            {"name": "b", "hashed_dim": 512, "ngram_min": 2, "ngram_max": 4},
        ],
        "k": 15,
        "seeds": [1],
        "hyper_pseudo": {"max_epochs": 1},
        "hyper_fine": {"max_epochs": 1},
    }), encoding="utf-8")
    for command in ("ingest", "featurize", "index"):
        assert cli.main([command, "--config", str(config_path)]) == 0, command
    out = tmp_path / "out"
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    peak, code = _traced_peak(lambda: cli.main(["evaluate", "--config", str(config_path)]))
    assert code == 0
    index_bytes = load_index(out / cli.INDEX).vectors.nbytes
    stats = load_feature_stats(out / cli.FEATURE_STATS)
    n = len(dataset.store.records)
    matrix_bytes = sum(n * stats[name].config.dimension * 4 for name in ("a", "b"))
    assert peak < index_bytes + matrix_bytes, (peak, index_bytes, matrix_bytes)


@pytest.fixture(scope="module")
def two_featurizer_run(tmp_path_factory):
    """An 8,000-sentence run through pseudolabel with archetypes of 2,048 and
    1,024 hashed buckets; the config path and the corpus matrices' bytes,
    largest first."""
    from pseudolab import cli, fixtures

    directory = tmp_path_factory.mktemp("two_featurizers")
    dataset = fixtures.make_synthetic_dataset(n_corpus=8000, n_train=60, n_test=10, seed=5)
    entries = fixtures.write_corpus_files(dataset.store, directory / "corpus")
    fixtures.write_labeled_tsv(dataset.labeled_train, directory / "train.tsv")
    config_path = directory / "config.json"
    config_path.write_text(json.dumps({
        "corpora": entries,
        "labeled_train": str(directory / "train.tsv"),
        "output_dir": str(directory / "out"),
        "retrieval": {"hashed_dim": 128, "ngram_min": 3, "ngram_max": 4},
        "archetypes": [
            {"name": "a", "hashed_dim": 2048, "ngram_min": 3, "ngram_max": 5},
            {"name": "b", "hashed_dim": 1024, "ngram_min": 2, "ngram_max": 4},
        ],
        "k": 15,
        "seeds": [1],
        "hyper_pseudo": {"max_epochs": 1},
        "hyper_fine": {"max_epochs": 1},
    }), encoding="utf-8")
    for command in ("ingest", "featurize", "index", "train-baseline", "pseudolabel"):
        assert cli.main([command, "--config", str(config_path)]) == 0, command
    n = len(dataset.store.records)
    matrix_bytes = sorted((n * (dim + 6) * 4 for dim in (2048, 1024)), reverse=True)
    return config_path, matrix_bytes


def test_train_ensemble_holds_one_corpus_matrix_at_a_time(two_featurizer_run, monkeypatch):
    """train-ensemble embeds each featurizer's corpus matrix in its own task;
    with one CPU the tasks run in this process one after another, and each
    matrix is freed before the next is embedded. So the traced peak of the
    stage stays below the largest matrix plus half of the next: it was both
    matrices and more while the stage embedded them together."""
    from pseudolab import cli

    config_path, (largest, next_largest) = two_featurizer_run
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    peak, code = _traced_peak(lambda: cli.main(["train-ensemble", "--config", str(config_path)]))
    assert code == 0
    assert peak < largest + next_largest / 2, (peak, largest, next_largest)


def test_evaluate_settings_holds_one_corpus_matrix_at_a_time(two_featurizer_run, monkeypatch):
    """As train-ensemble, evaluate_settings trains every fold of a featurizer
    in that featurizer's task, on its one corpus matrix."""
    from pseudolab import corpus
    from pseudolab.config import load_config

    config_path, (largest, next_largest) = two_featurizer_run
    config = load_config(config_path)
    store = corpus.load_store(Path(config.output_dir) / "store.jsonl")
    ctx = pipeline.build_context(store, config.retrieval, config.archetypes)
    labeled = corpus.load_labeled(config.labeled_train)
    plan = make_fold_plan(len(labeled), config.n_folds, seed=config.fold_seed)
    pseudo_sets = pipeline.fold_pseudo_labels(ctx, labeled, plan, config)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    peak, reports = _traced_peak(
        lambda: pipeline.evaluate_settings(
            ctx, labeled, pipeline.SETTINGS, plan, config, pseudo_sets=pseudo_sets
        )
    )
    assert set(reports) == set(pipeline.SETTINGS)
    assert peak < largest + next_largest / 2, (peak, largest, next_largest)
