"""Memory guards: no corpus-sized copy in the corpus embedding, the pseudo stage,
the scan or the index load, and no evaluate that holds the index and the
archetype matrices at once.

numpy reports its array buffers to tracemalloc, so the traced peak of a call
is what it allocates on top of its inputs, which are made before tracing.
"""

import json
import mmap
import tracemalloc

import numpy as np
import pytest

from pseudolab import parallel, pipeline
from pseudolab.ensemble import Archetype, train_pseudo_stage
from pseudolab.features import (
    EMBED_CHUNK_ROWS,
    FeatureConfig,
    fit_feature_stats,
    fit_feature_stats_many,
)
from pseudolab.scorer import HyperParams, ScorerModel
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


def _check_corpus_matrices(store, archetypes, matrices, row_of_id) -> int:
    """Check embed_corpus's result; the bytes of its distinct matrices."""
    assert matrices["d"] is matrices["a"]
    assert len(row_of_id) == matrices["b"].shape[0] == len(store.records)
    outputs = matrices["a"].nbytes + matrices["b"].nbytes
    # float32: N x (sum of the distinct dimensions) x 4 bytes
    dims = archetypes[0].stats.config.dimension + archetypes[1].stats.config.dimension
    assert outputs == len(store.records) * dims * 4
    return outputs


def test_embed_corpus_holds_only_its_output_matrices(big_dataset, monkeypatch):
    """Beyond the matrices it returns, embed_corpus holds only chunk-sized buffers
    (chunks embedded in this process, where tracemalloc sees the matrices)."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    store = big_dataset.store
    archetypes = _corpus_archetypes(store)
    peak, (matrices, row_of_id) = _traced_peak(lambda: pipeline.embed_corpus(store, archetypes))
    outputs = _check_corpus_matrices(store, archetypes, matrices, row_of_id)
    assert peak - outputs < matrices["b"].nbytes / 2, (peak, outputs)


def test_forked_embed_corpus_writes_shared_matrices_and_holds_no_chunk(big_dataset, monkeypatch):
    """With two workers the matrices are in shared memory, which tracemalloc
    does not see, and this process embeds no chunk of its own."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    store = big_dataset.store
    archetypes = _corpus_archetypes(store)
    peak, (matrices, row_of_id) = _traced_peak(lambda: pipeline.embed_corpus(store, archetypes))
    _check_corpus_matrices(store, archetypes, matrices, row_of_id)
    for name in ("a", "b"):
        base = matrices[name]
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap), name
    # one chunk's float64 block of the wider featurizer (the pool's first
    # import of concurrent.futures takes about half of it)
    assert peak < EMBED_CHUNK_ROWS * archetypes[0].stats.config.dimension * 8, peak


def test_archetype_features_are_float32(small_context, small_dataset):
    labeled = pipeline.embed_labeled(small_context.archetypes, small_dataset.labeled_train)
    for arch in small_context.archetypes:
        assert small_context.corpus_features[arch.name].dtype == np.float32
        assert labeled[arch.name].dtype == np.float32
        assert labeled[arch.name].shape == (
            len(small_dataset.labeled_train), arch.stats.config.dimension
        )


@pytest.mark.parametrize("early_stopping", [False, True], ids=["no-early-stop", "early-stop"])
def test_pseudo_stage_reads_the_shared_matrices_in_place(early_stopping):
    rng = np.random.default_rng(5)
    stats = fit_feature_stats(["ein kurzer satz", "noch ein satz"], FeatureConfig(hashed_dim=64))
    archetypes = [Archetype("a", stats, 32), Archetype("b", stats, 20)]
    # float32, as pipeline.embed_corpus returns them
    matrices = {
        name: (rng.normal(size=(4000, D)) * 0.05).astype(np.float32) for name in ("a", "b")
    }
    rows = rng.choice(4000, size=3600, replace=False)
    y = rng.uniform(2.0, 6.0, size=rows.size)
    hyper = HyperParams(learning_rate=0.1, max_epochs=2, early_stopping=early_stopping)
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
    ctx = pipeline.PipelineContext(
        store=None, retrieval_stats=None, archetypes=[], index=index,
        corpus_features={}, row_of_id={},
    )
    gate = ScorerModel(weights=rng.normal(size=D) * 0.01, intercept=4.0, fingerprint="fp")
    peak, scores = _traced_peak(lambda: pipeline.corpus_score_map(ctx, gate))
    assert len(scores) == N
    assert peak < N * D * 8, peak


def test_load_index_copies_the_payload_once(index, tmp_path):
    path = tmp_path / "index.bin"
    save_index(index, path)
    peak, loaded = _traced_peak(lambda: load_index(path))
    assert np.array_equal(loaded.vectors, index.vectors)
    assert peak < 2 * path.stat().st_size, peak


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
