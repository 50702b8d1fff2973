import math
import struct

import numpy as np
import pytest

from pseudolab import simindex
from pseudolab.simindex import (
    MAGIC,
    IndexFormatError,
    VectorIndex,
    build_index,
    load_index,
    save_index,
    top_k,
    top_k_many,
    verify_index,
)


def brute_force_top_k(items, query, k, exclude=frozenset()):
    """Independent O(N*D) oracle using fsum-based cosine."""
    qn = math.sqrt(math.fsum(float(q) * float(q) for q in query))
    scored = []
    for id_, vec in items:
        if id_ in exclude:
            continue
        vn = math.sqrt(math.fsum(float(v) * float(v) for v in vec))
        if vn > 0 and qn > 0:
            sim = math.fsum(float(a) * float(b) for a, b in zip(vec, query)) / (vn * qn)
        else:
            sim = 0.0
        scored.append((id_, sim))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def _f32_items(items):
    # the index stores float32; feed the oracle the same rounded values
    return [(i, np.asarray(v, dtype=np.float32)) for i, v in items]


class TestBuild:
    def test_empty(self):
        index = build_index([], dimension=4)
        assert index.count == 0
        assert top_k(index, np.ones(4), 3) == []

    def test_three_vectors(self):
        index = build_index([(0, [1.0, 0.0]), (1, [0.0, 1.0]), (2, [1.0, 1.0])])
        assert index.count == 3
        assert top_k(index, np.array([1.0, 0.0]), 1)[0].id == 0

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_index([(0, [1.0]), (0, [2.0])])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            build_index([(0, [1.0]), (1, [1.0, 2.0])])

    def test_constructor_checks_ids_against_vectors(self):
        vectors = np.ones((3, 2), dtype=np.float32)
        assert VectorIndex(np.arange(3), vectors, "fp").vectors is vectors  # no copy
        for ids in (np.arange(2), np.arange(3)[None], np.array([0, 1, 0])):
            with pytest.raises(ValueError):
                VectorIndex(ids, vectors, "fp")


class TestTopK:
    def test_self_similarity(self, rng):
        vecs = [(i, rng.normal(size=8)) for i in range(20)]
        index = build_index(vecs)
        query = index.vectors[7].astype(np.float64)
        hits = top_k(index, query, 1)
        assert hits[0].id == 7
        assert hits[0].similarity == pytest.approx(1.0, abs=1e-9)

    def test_k_capped_at_n(self, rng):
        index = build_index([(i, rng.normal(size=4)) for i in range(4)])
        assert len(top_k(index, np.ones(4), 10)) == 4

    def test_k_zero_rejected(self):
        index = build_index([(0, [1.0])])
        with pytest.raises(ValueError, match="k"):
            top_k(index, np.ones(1), 0)

    def test_query_dimension_mismatch(self):
        index = build_index([(0, [1.0, 2.0])])
        with pytest.raises(ValueError, match="dimension"):
            top_k(index, np.ones(3), 1)

    def test_zero_norm_query(self):
        index = build_index([(0, [1.0, 2.0])])
        assert top_k(index, np.zeros(2), 5) == []

    def test_matches_oracle_randomized(self, rng):
        for _ in range(10):
            n = int(rng.integers(5, 200))
            d = int(rng.integers(2, 16))
            items = [(i, rng.normal(size=d)) for i in range(n)]
            index = build_index(items)
            for k in (1, 7):
                query = rng.normal(size=d)
                hits = top_k(index, query, k)
                oracle = brute_force_top_k(_f32_items(items), query, k)
                assert [h.id for h in hits] == [i for i, _ in oracle]

    def test_tie_break_ascending_id(self, rng):
        v = rng.normal(size=6)
        items = [(5, v), (1, v), (3, v), (8, rng.normal(size=6))]
        index = build_index(items)
        hits = top_k(index, v, 3)
        assert [h.id for h in hits] == [1, 3, 5]
        oracle = brute_force_top_k(_f32_items(items), v, 3)
        assert [h.id for h in hits] == [i for i, _ in oracle]

    def test_monotone_similarities(self, rng):
        index = build_index([(i, rng.normal(size=8)) for i in range(50)])
        hits = top_k(index, rng.normal(size=8), 50)
        sims = [h.similarity for h in hits]
        assert all(a >= b for a, b in zip(sims, sims[1:]))

    def test_exclusion(self, rng):
        items = [(i, rng.normal(size=4)) for i in range(30)]
        index = build_index(items)
        exclude = {0, 5, 17}
        hits = top_k(index, rng.normal(size=4), 30, exclude=exclude)
        assert len(hits) == 27
        assert not exclude & {h.id for h in hits}

    def test_exclusion_matches_oracle(self, rng):
        items = [(i, rng.normal(size=5)) for i in range(40)]
        index = build_index(items)
        exclude = {2, 3, 11, 39}
        query = rng.normal(size=5)
        hits = top_k(index, query, 10, exclude=exclude)
        oracle = brute_force_top_k(_f32_items(items), query, 10, exclude=exclude)
        assert [h.id for h in hits] == [i for i, _ in oracle]


def _mixed_batch(rng, n, d, n_queries):
    """Random rows and queries with exact ties, near-ties and zero vectors.

    Row 0 is repeated exactly, times (1 + 2**-50) (stored as float32, that is
    row 0 again), times 2 and times 0.5, whose cosines equal row 0's in any
    summation order; row 5 is zero. Query 0 is zero, query 1 is row 0 and
    query 3 is query 2 times (1 + 2**-50). Ids are shuffled so that id order
    is not row order.
    """
    rows = rng.normal(size=(n, d))
    for row, scale in zip(range(1, 5), (1.0, 1.0 + 2.0**-50, 2.0, 0.5)):
        rows[row] = rows[0] * scale
    rows[5] = 0.0
    ids = rng.permutation(3 * n)[:n].tolist()
    queries = rng.normal(size=(n_queries, d))
    queries[0] = 0.0
    queries[1] = rows[0]
    queries[3] = queries[2] * (1.0 + 2.0**-50)
    return list(zip(ids, rows)), queries


def _near_tie_batch(rng, n=300, d=96, nonzero=40, n_queries=20):
    """Rows and queries of +-constant entries.

    Many cosines are equal in exact arithmetic and differ only by how their
    terms were summed, so GEMM and a matrix-vector product order them
    differently unless near-ties are rescored.
    """
    rows = np.zeros((n, d))
    for row in rows:
        cols = rng.choice(d, size=nonzero, replace=False)
        row[cols] = rng.choice([-1.0, 1.0], size=nonzero) / np.sqrt(nonzero)
    queries = rng.choice([-1.0, 1.0], size=(n_queries, d)) * 0.7310585786300049
    return build_index(list(enumerate(rows))), queries


def _hit_lists(results):
    return [ids.tolist() for ids, _ in results]


class TestTopKMany:
    def test_matches_top_k_and_oracle(self, rng):
        for trial in range(8):
            n = int(rng.integers(8, 150))
            d = int(rng.integers(2, 24))
            items, queries = _mixed_batch(rng, n, d, n_queries=6)
            index = build_index(items)
            ids = [i for i, _ in items]
            exclude = set(rng.choice(ids, size=trial, replace=False).tolist())
            for k in (1, 7, n + 5):
                results = top_k_many(index, queries, k, exclude=exclude)
                for query, (hit_ids, sims) in zip(queries, results):
                    hits = top_k(index, query, k, exclude=exclude)
                    assert hit_ids.tolist() == [h.id for h in hits]
                    if not query.any():
                        assert hit_ids.size == 0
                        continue
                    oracle = brute_force_top_k(_f32_items(items), query, k, exclude)
                    assert hit_ids.tolist() == [i for i, _ in oracle], (trial, k)
                    np.testing.assert_allclose(sims, [s for _, s in oracle], rtol=0, atol=1e-12)

    def test_exclude_everything(self, rng):
        index = build_index([(i, rng.normal(size=3)) for i in range(4)])
        results = top_k_many(index, rng.normal(size=(2, 3)), 3, exclude={0, 1, 2, 3})
        assert [ids.size for ids, _ in results] == [0, 0]

    def test_query_dimension_mismatch(self):
        index = build_index([(0, [1.0, 2.0])])
        with pytest.raises(ValueError, match="dimension"):
            top_k_many(index, np.ones((2, 3)), 1)

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_hits_do_not_depend_on_block(self, rng, monkeypatch, block):
        batches = [_near_tie_batch(rng) for _ in range(3)]
        items, queries = _mixed_batch(rng, 120, 16, n_queries=9)
        batches.append((build_index(items), queries))
        expected = [_hit_lists(top_k_many(index, q, 50, exclude={3})) for index, q in batches]
        monkeypatch.setattr(simindex, "QUERY_BLOCK", block)
        for (index, queries), want in zip(batches, expected):
            assert _hit_lists(top_k_many(index, queries, 50, exclude={3})) == want
            alone = [[h.id for h in top_k(index, q, 50, exclude={3})] for q in queries]
            assert alone == want

    def test_similarities_never_increase(self, rng):
        index, queries = _near_tie_batch(rng)
        items, mixed = _mixed_batch(rng, 200, 8, n_queries=5)
        for index, queries in ((index, queries), (build_index(items), mixed)):
            for _, sims in top_k_many(index, queries, 500):
                assert np.all(np.diff(sims) <= 0.0)


class TestRowBlocks:
    """The index is read ROW_BLOCK rows at a time; no result depends on the block."""

    @pytest.mark.parametrize("row_block", [7, 64, 4096], ids=["7", "64", "more-than-n"])
    def test_blocked_scan_matches_oracle(self, rng, monkeypatch, row_block):
        monkeypatch.setattr(simindex, "ROW_BLOCK", row_block)
        for trial, n in enumerate((150, 171, 300)):  # none a multiple of 7 or 64
            items, queries = _mixed_batch(rng, n, 16, n_queries=6)
            index = build_index(items)
            ids = [i for i, _ in items]
            exclude = set(rng.choice(ids, size=3 * trial, replace=False).tolist())
            for k in (1, 9, n + 5):
                for query, (hit_ids, sims) in zip(
                    queries, top_k_many(index, queries, k, exclude=exclude)
                ):
                    if not query.any():
                        assert hit_ids.size == 0
                        continue
                    oracle = brute_force_top_k(_f32_items(items), query, k, exclude)
                    assert hit_ids.tolist() == [i for i, _ in oracle], (n, k)
                    np.testing.assert_allclose(sims, [s for _, s in oracle], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("row_block", [7, 64])
    def test_exclusions_of_whole_blocks_and_block_edges_match_oracle(
        self, rng, monkeypatch, row_block
    ):
        """Each row block writes only its kept rows' columns; excluded rows that
        fill a block, or sit at either end of one, shift no other column."""
        monkeypatch.setattr(simindex, "ROW_BLOCK", row_block)
        n = 4 * row_block + 3  # a last, partial block of 3 rows
        items, queries = _mixed_batch(rng, n, 16, n_queries=6)
        index = build_index(items)
        ids = [i for i, _ in items]
        excluded_rows = [
            # the first row, the whole second block, the ends of the third
            [0, *range(row_block, 2 * row_block), 2 * row_block, 3 * row_block - 1],
            # the first block and the last, partial one
            [*range(row_block), *range(4 * row_block, n)],
            # the last row of each block and the first of the next
            [r for b in range(1, 5) for r in (b * row_block - 1, b * row_block)],
        ]
        for rows in excluded_rows:
            exclude = {ids[r] for r in rows}
            for k in (1, 9, n):
                for query, (hit_ids, sims) in zip(
                    queries, top_k_many(index, queries, k, exclude=exclude)
                ):
                    if not query.any():
                        assert hit_ids.size == 0
                        continue
                    oracle = brute_force_top_k(_f32_items(items), query, k, exclude)
                    assert hit_ids.tolist() == [i for i, _ in oracle], (rows, k)
                    np.testing.assert_allclose(sims, [s for _, s in oracle], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("row_block", [7, 64])
    def test_near_tie_hits_do_not_depend_on_block(self, rng, monkeypatch, row_block):
        batches = [_near_tie_batch(rng) for _ in range(3)]  # 300 rows each
        expected = [_hit_lists(top_k_many(index, q, 50, exclude={3, 8})) for index, q in batches]
        monkeypatch.setattr(simindex, "ROW_BLOCK", row_block)
        for (index, queries), want in zip(batches, expected):
            assert _hit_lists(top_k_many(index, queries, 50, exclude={3, 8})) == want

    @pytest.mark.parametrize("row_block", [7, 64, 4096])
    def test_norms_equal_whole_matrix(self, rng, monkeypatch, row_block):
        monkeypatch.setattr(simindex, "ROW_BLOCK", row_block)
        index = build_index([(i, rng.normal(size=33)) for i in range(300)])
        whole = np.linalg.norm(index.vectors.astype(np.float64), axis=1)
        assert np.array_equal(index.norms, whole)


class TestPersistence:
    def _index(self, rng):
        return build_index(
            [(i * 3, rng.normal(size=6)) for i in range(25)], fingerprint="abc123"
        )

    def test_roundtrip(self, tmp_path, rng):
        index = self._index(rng)
        path = tmp_path / "index.bin"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.fingerprint == "abc123"
        np.testing.assert_array_equal(loaded.ids, index.ids)
        np.testing.assert_array_equal(loaded.vectors, index.vectors)
        query = rng.normal(size=6)
        assert top_k(loaded, query, 5) == top_k(index, query, 5)

    def test_verify_ok(self, tmp_path, rng):
        path = tmp_path / "index.bin"
        save_index(self._index(rng), path)
        info = verify_index(path)
        assert info == {"dimension": 6, "count": 25, "fingerprint": "abc123"}

    def test_corruption_detected(self, tmp_path, rng):
        path = tmp_path / "index.bin"
        save_index(self._index(rng), path)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="checksum"):
            verify_index(path)

    def test_truncation_detected(self, tmp_path, rng):
        path = tmp_path / "index.bin"
        save_index(self._index(rng), path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(IndexFormatError, match="truncated"):
            verify_index(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "index.bin"
        path.write_bytes(MAGIC + b"\x00" * 18)  # 22 bytes; the header needs 24
        with pytest.raises(IndexFormatError, match="truncated header"):
            load_index(path)

    def test_fingerprint_past_end_of_file(self, tmp_path, rng):
        path = tmp_path / "index.bin"
        save_index(self._index(rng), path)
        data = bytearray(path.read_bytes())
        data[20:24] = struct.pack("<I", len(data))  # fp_len
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="truncated header"):
            verify_index(path)

    def test_undecodable_fingerprint(self, tmp_path, rng):
        path = tmp_path / "index.bin"
        save_index(self._index(rng), path)
        data = bytearray(path.read_bytes())
        data[24] = 0xFF  # first fingerprint byte
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="UTF-8"):
            load_index(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "index.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(IndexFormatError, match="magic"):
            load_index(path)
