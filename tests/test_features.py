import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudolab import features as features_module
from pseudolab import parallel
from pseudolab.artifacts import json_text
from pseudolab.features import (
    EMBED_CHUNK_ROWS,
    SURFACE_DIM,
    FeatureConfig,
    FeatureStats,
    _fnv1a64_windows,
    embed,
    embed_many,
    fit_feature_stats,
    fit_feature_stats_many,
    fnv1a64,
    load_feature_stats,
    truncate_tokens,
)
from pseudolab.pipeline import DEFAULT_ARCHETYPE_SPECS, DEFAULT_RETRIEVAL_CONFIG

FIXTURES = Path(__file__).parent / "fixtures"


# The per-text featurizer the batch path replaced, kept as the reference.
def surface_features(text: str) -> np.ndarray:
    tokens = text.split()
    n_chars = len(text)
    n_tokens = len(tokens)
    feats = np.zeros(SURFACE_DIM, dtype=np.float64)
    feats[0] = n_chars
    feats[1] = n_tokens
    feats[2] = sum(len(t) for t in tokens) / n_tokens if n_tokens else 0.0
    feats[3] = text.count(",")
    feats[4] = sum(ch.isdigit() for ch in text) / n_chars if n_chars else 0.0
    feats[5] = len(set(tokens)) / n_tokens if n_tokens else 0.0
    return feats


@lru_cache(maxsize=1 << 20)
def _gram_fnv(gram: str) -> int:
    # grams repeat heavily across a corpus; caching avoids rehashing
    return fnv1a64(gram.encode("utf-8"))


def hashed_ngram_block(text: str, config: FeatureConfig) -> np.ndarray:
    """Feature-hashed character n-grams, L2-normalized (zero vector if no grams)."""
    vec = np.zeros(config.hashed_dim, dtype=np.float64)
    for n in range(config.ngram_min, config.ngram_max + 1):
        for i in range(len(text) - n + 1):
            h = _gram_fnv(text[i : i + n])
            sign = 1.0 if (h >> 63) == 0 else -1.0
            vec[h % config.hashed_dim] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def oracle_stats(texts, config: FeatureConfig) -> tuple[np.ndarray, np.ndarray]:
    rows = np.stack(
        [surface_features(truncate_tokens(t, config.max_tokens)) for t in texts]
    )
    stds = rows.std(axis=0)
    return rows.mean(axis=0), np.where(stds < 1e-9, 1.0, stds)


def oracle_embed(text: str, stats: FeatureStats) -> np.ndarray:
    config = stats.config
    text = truncate_tokens(text, config.max_tokens)
    hashed = hashed_ngram_block(text, config)
    surface = (surface_features(text) - stats.means) / stats.stds
    surface /= np.sqrt(SURFACE_DIM)
    return np.concatenate([hashed, surface])


def assert_matches_oracle(texts, config: FeatureConfig) -> None:
    """Stats and every embedded row equal the per-text reference bit for bit."""
    stats = fit_feature_stats(texts, config)
    means, stds = oracle_stats(texts, config)
    assert stats.means.tobytes() == means.tobytes()
    assert stats.stds.tobytes() == stds.tobytes()
    expected = np.stack([oracle_embed(t, stats) for t in texts])
    assert embed_many(texts, [stats])[0].tobytes() == expected.tobytes()


def assert_shared_pass_matches(texts, configs) -> None:
    """Each matrix of one embed_many call over all configs equals, bit for bit,
    its one-featurizer call and the per-text reference."""
    stats_list = [fit_feature_stats(texts, config) for config in configs]
    shared = embed_many(texts, stats_list)
    assert len(shared) == len(stats_list)
    for matrix, stats in zip(shared, stats_list):
        assert matrix.shape == (len(texts), stats.config.dimension)
        assert matrix.tobytes() == embed_many(texts, [stats])[0].tobytes()
        expected = [oracle_embed(t, stats) for t in texts]
        assert matrix.tobytes() == np.array(expected).reshape(matrix.shape).tobytes()


DEFAULT_CONFIGS = [DEFAULT_RETRIEVAL_CONFIG] + [
    spec.feature_config() for spec in DEFAULT_ARCHETYPE_SPECS
]
SMALL_CONFIG = FeatureConfig(hashed_dim=16, ngram_min=1, ngram_max=2, max_tokens=3)
# another max_tokens, the widest n-gram range and a hashed_dim that is no power of two
ODD_CONFIG = FeatureConfig(hashed_dim=100, ngram_min=1, ngram_max=7, max_tokens=9)
SHARED_CONFIGS = DEFAULT_CONFIGS + [SMALL_CONFIG, ODD_CONFIG]

EDGE_TEXTS = [
    "Der Hund läuft schnell über die Straße, und 3 Kinder spielen 2025.",
    "Größere Maße: 1,5 Äpfel, 12 Öfen, ß und ẞ.",
    "日本語の文は三バイト文字です",
    "emoji 😀😀 und 𝔘𝔫𝔦𝔠𝔬𝔡𝔢 mit ²³ und ٣ Ziffern",
    "",
    " ",
    "\t \n  ",
    "ab",
    " ".join(f"wort{i}," for i in range(200)),
]


def test_fnv1a64_reference_vectors():
    vectors = json.loads((FIXTURES / "fnv1a64_vectors.json").read_text())["vectors"]
    for text, expected in vectors.items():
        assert format(fnv1a64(text.encode("utf-8")), "016x") == expected


def test_fingerprint_stable_and_config_sensitive():
    a = FeatureConfig(hashed_dim=256)
    assert a.fingerprint() == FeatureConfig(hashed_dim=256).fingerprint()
    assert a.fingerprint() != FeatureConfig(hashed_dim=512).fingerprint()
    assert a.fingerprint() != FeatureConfig(hashed_dim=256, ngram_max=6).fingerprint()


@pytest.fixture(scope="module")
def stats():
    config = FeatureConfig(hashed_dim=256)
    texts = [f"beispiel satz nummer {i} mit inhalt" for i in range(50)]
    return fit_feature_stats(texts, config)


class TestEmbed:
    def test_empty_text(self, stats):
        vec = embed("", stats)
        assert np.all(vec[:256] == 0.0)
        expected_surface = (np.zeros(SURFACE_DIM) - stats.means) / stats.stds
        np.testing.assert_allclose(
            vec[256:], expected_surface / np.sqrt(SURFACE_DIM), rtol=0, atol=0
        )

    def test_deterministic(self, stats):
        s = "Ein deterministischer Satz, mit 3 Wörtern mehr."
        assert np.array_equal(embed(s, stats), embed(s, stats))

    def test_self_cosine_is_one(self, stats):
        # independent dot-product routine (math.fsum) as the oracle
        v = embed("Ein ganz normaler Satz.", stats)
        dot = math.fsum(a * b for a, b in zip(v, v))
        norm = math.sqrt(dot)
        assert abs(dot / (norm * norm) - 1.0) < 1e-12

    def test_hashed_block_unit_norm(self, stats):
        for text in ["kurz", "ein wesentlich längerer satz mit vielen wörtern", "ab"]:
            block = embed(text, stats)[:256]
            norm = np.linalg.norm(block)
            assert norm == pytest.approx(1.0, abs=1e-12) or norm == 0.0

    def test_short_text_zero_hashed_block(self, stats):
        # shorter than ngram_min yields no grams
        vec = embed("ab", stats)
        assert np.linalg.norm(vec[:256]) == 0.0

    def test_fingerprint_mismatch_detected(self, stats):
        tampered = FeatureStats(
            config=stats.config,
            means=stats.means,
            stds=stats.stds,
            fingerprint="0" * 16,
        )
        with pytest.raises(ValueError, match="fingerprint"):
            embed("irgendein satz", tampered)

    def test_dimension(self, stats):
        assert embed("satz", stats).shape == (256 + SURFACE_DIM,)

    def test_truncation_to_max_tokens(self):
        config = FeatureConfig(hashed_dim=64, max_tokens=4)
        stats = fit_feature_stats(["eins zwei drei"], config)
        long = " ".join(f"w{i}" for i in range(50))
        short = " ".join(f"w{i}" for i in range(4))
        assert np.array_equal(embed(long, stats), embed(short, stats))
        assert truncate_tokens(long, 4) == short


class TestFitStats:
    def test_zero_variance_floored(self):
        """A constant column is centred but not scaled: its std is 1, not the floor."""
        stats = fit_feature_stats(["gleicher satz"] * 10, FeatureConfig(hashed_dim=64))
        assert np.all(stats.stds == 1.0)
        (row,) = embed_many(["gleicher satz, 123"], [stats])[0][:, 64:]
        assert np.all(np.abs(row) < 10.0), row

    def test_char_count_mean(self):
        stats = fit_feature_stats(["a" * 10, "b" * 30], FeatureConfig(hashed_dim=64))
        assert stats.means[0] == 20.0

    def test_matches_two_pass_oracle(self, rng):
        texts = [
            " ".join(
                "".join(chr(97 + rng.integers(26)) for _ in range(int(rng.integers(2, 9))))
                for _ in range(int(rng.integers(3, 20)))
            )
            for _ in range(1000)
        ]
        config = FeatureConfig(hashed_dim=64)
        stats = fit_feature_stats(texts, config)
        rows = [surface_features(t) for t in texts]
        for j in range(SURFACE_DIM):
            col = [r[j] for r in rows]
            mean = math.fsum(col) / len(col)
            var = math.fsum((x - mean) ** 2 for x in col) / len(col)
            std = math.sqrt(var)
            std = std if std >= 1e-9 else 1.0
            assert stats.means[j] == pytest.approx(mean, rel=1e-12)
            assert stats.stds[j] == pytest.approx(std, rel=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_feature_stats([], FeatureConfig(hashed_dim=64))

    def test_many_fits_once_per_max_tokens(self, monkeypatch):
        texts = ["eins zwei drei vier", "fünf, sechs 7", "acht neun zehn elf zwölf dreizehn"]
        configs = [
            DEFAULT_RETRIEVAL_CONFIG,
            *(spec.feature_config() for spec in DEFAULT_ARCHETYPE_SPECS),
            FeatureConfig(hashed_dim=64, max_tokens=2),
            FeatureConfig(hashed_dim=32, max_tokens=2),
        ]
        expected = [fit_feature_stats(texts, config).to_dict() for config in configs]
        calls = []
        original = features_module.fit_feature_stats

        def counting(corpus, config):
            calls.append(config.max_tokens)
            return original(corpus, config)

        monkeypatch.setattr(features_module, "fit_feature_stats", counting)
        fitted = fit_feature_stats_many(iter(texts), configs)
        assert sorted(calls) == [2, 128]
        # json.dumps of float lists is exact, so this compares every bit
        assert json.dumps([s.to_dict() for s in fitted]) == json.dumps(expected)


def _cosine(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    return float(a @ b / (na * nb)) if na > 0 and nb > 0 else 0.0


def test_locality_proxy_property(rng):
    # appending one character should keep a sentence closer to itself than to
    # an unrelated sentence of different length, in >= 95% of 1000 pairs
    config = FeatureConfig(hashed_dim=512)
    alphabet = "abcdefghijklmnopqrstuvwxyz "

    def random_sentence(length):
        return "".join(alphabet[rng.integers(len(alphabet))] for _ in range(length))

    corpus = [random_sentence(int(rng.integers(20, 80))) for _ in range(200)]
    stats = fit_feature_stats(corpus, config)
    hits = 0
    n_pairs = 1000
    for _ in range(n_pairs):
        s = random_sentence(int(rng.integers(20, 60)))
        s_close = s + alphabet[rng.integers(26)]
        r = random_sentence(len(s) + 30)
        e_s = embed(s, stats)
        if _cosine(e_s, embed(s_close, stats)) > _cosine(e_s, embed(r, stats)):
            hits += 1
    assert hits / n_pairs >= 0.95


def test_fnv1a64_vectors_through_batch_windows():
    vectors = json.loads((FIXTURES / "fnv1a64_vectors.json").read_text())["vectors"]
    texts = [t for t in vectors if t]  # the empty string has no window
    offsets = np.cumsum([0] + [len(t) for t in texts])
    windows = list(_fnv1a64_windows("".join(texts), max(map(len, texts))))
    for text, offset in zip(texts, offsets):
        got = int(windows[len(text) - 1][offset])
        assert format(got, "016x") == vectors[text], text


@pytest.mark.parametrize("config", DEFAULT_CONFIGS, ids=str)
def test_embed_many_matches_oracle_on_fixture(big_dataset, config):
    assert_matches_oracle([r.text for r in big_dataset.store.records], config)


@pytest.mark.parametrize("config", DEFAULT_CONFIGS + [SMALL_CONFIG], ids=str)
def test_embed_many_matches_oracle_on_edge_texts(config):
    assert_matches_oracle(EDGE_TEXTS, config)


@pytest.mark.parametrize("config", DEFAULT_CONFIGS + [SMALL_CONFIG], ids=str)
@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=40),
        min_size=1,
        max_size=6,
    )
)
def test_embed_many_matches_oracle_on_any_unicode(config, texts):
    assert_matches_oracle(texts, config)


def test_rows_do_not_depend_on_batch(big_dataset):
    texts = [r.text for r in big_dataset.store.records]
    assert len(texts) > EMBED_CHUNK_ROWS
    stats = fit_feature_stats(texts, DEFAULT_CONFIGS[0])
    batch = embed_many(texts, [stats])[0]
    for i, text in enumerate(texts):
        assert batch[i].tobytes() == embed_many([text], [stats])[0][0].tobytes(), i


def test_embed_many_matches_embed(stats):
    texts = ["eins", "zwei drei", ""]
    mat = embed_many(texts, [stats])[0]
    for row, text in zip(mat, texts):
        assert np.array_equal(row, embed(text, stats))


def test_stats_roundtrip(tmp_path, stats):
    path = tmp_path / "stats.json"
    path.write_text(json_text({"main": stats.to_dict()}), encoding="utf-8")
    loaded = load_feature_stats(path)["main"]
    assert loaded.fingerprint == stats.fingerprint
    np.testing.assert_array_equal(loaded.means, stats.means)
    np.testing.assert_array_equal(loaded.stds, stats.stds)


def test_stats_load_rejects_tampered_fingerprint(tmp_path, stats):
    path = tmp_path / "stats.json"
    path.write_text(json_text({"main": stats.to_dict()}), encoding="utf-8")
    payload = json.loads(path.read_text())
    payload["main"]["fingerprint"] = "f" * 16
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="fingerprint"):
        load_feature_stats(path)


def test_shared_pass_matches_on_edge_texts():
    assert_shared_pass_matches(EDGE_TEXTS, SHARED_CONFIGS)


def test_shared_pass_matches_with_a_repeated_config():
    assert_shared_pass_matches(EDGE_TEXTS, [ODD_CONFIG, DEFAULT_CONFIGS[1], ODD_CONFIG])


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=40),
        min_size=1,
        max_size=6,
    )
)
def test_shared_pass_matches_on_any_unicode(texts):
    assert_shared_pass_matches(texts, SHARED_CONFIGS)


def test_shared_pass_matches_across_chunks(big_dataset):
    texts = [r.text for r in big_dataset.store.records][: 2 * EMBED_CHUNK_ROWS + 7]
    assert_shared_pass_matches(texts, SHARED_CONFIGS)


def assert_float32_is_float64_rounded(texts, configs) -> None:
    """A float32 embed_many matrix is bitwise its float64 matrix cast with astype."""
    stats_list = [fit_feature_stats(texts, config) for config in configs]
    wide = embed_many(texts, stats_list)
    narrow = embed_many(texts, stats_list, dtype=np.float32)
    for w, n in zip(wide, narrow, strict=True):
        assert n.dtype == np.float32
        assert n.tobytes() == w.astype(np.float32).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    texts=st.lists(
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=40),
        min_size=1,
        max_size=6,
    )
)
def test_float32_matrices_are_the_float64_ones_rounded(texts):
    assert_float32_is_float64_rounded(texts, SHARED_CONFIGS)


def test_float32_matrices_are_the_float64_ones_rounded_across_chunks(big_dataset):
    texts = [r.text for r in big_dataset.store.records][: 2 * EMBED_CHUNK_ROWS + 7]
    assert_float32_is_float64_rounded(texts, SHARED_CONFIGS)


def test_shared_pass_of_no_texts():
    stats_list = [fit_feature_stats(EDGE_TEXTS, config) for config in SHARED_CONFIGS]
    matrices = embed_many([], stats_list)
    assert [m.shape for m in matrices] == [(0, c.dimension) for c in SHARED_CONFIGS]
    assert embed_many(EDGE_TEXTS, []) == []


def test_shared_pass_hashes_once_per_chunk_and_max_tokens(monkeypatch):
    """The n-gram hashes and surface features of a chunk are computed once per
    distinct max_tokens, however many featurizers share it."""
    calls = {"windows": [], "surface": []}
    windows, surface = features_module._fnv1a64_windows, features_module._surface_block

    def counting_windows(text, n_max):
        calls["windows"].append(n_max)
        return windows(text, n_max)

    def counting_surface(texts):
        calls["surface"].append(len(texts))
        return surface(texts)

    monkeypatch.setattr(features_module, "_fnv1a64_windows", counting_windows)
    monkeypatch.setattr(features_module, "_surface_block", counting_surface)
    monkeypatch.setattr(features_module, "EMBED_CHUNK_ROWS", 4)
    # the counts live in this process, so the chunks must be embedded in it too
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    texts = EDGE_TEXTS + ["noch ein satz"]  # ten texts: chunks of 4, 4 and 2
    stats_list = [fit_feature_stats(texts, config) for config in SHARED_CONFIGS]
    calls["surface"].clear()
    embed_many(texts, stats_list)
    # six featurizers, three distinct max_tokens (128, 3 and 9), three chunks
    assert calls["surface"] == [4, 4, 4, 4, 4, 4, 2, 2, 2]
    # each max_tokens hashes up to its largest ngram_max: 6, 2 and 7
    assert sorted(calls["windows"]) == [2, 2, 2, 6, 6, 6, 7, 7, 7]
