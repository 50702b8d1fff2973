import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pseudolab.corpus import (
    DEFAULT_RATING_STD,
    CorpusStore,
    InputFileError,
    SentenceRecord,
    deduplicate,
    ingest_corpus,
    load_labeled,
    load_store,
    normalize_sentence,
    rows_of,
    save_store,
)


class TestNormalize:
    def test_trim_and_collapse(self):
        assert normalize_sentence("  Der  Hund läuft.\t") == "Der Hund läuft."

    def test_empty(self):
        assert normalize_sentence("") == ""

    def test_nfc_composition(self):
        # decomposed umlaut (a + combining diaeresis) becomes the precomposed char
        assert normalize_sentence("läuft") == "läuft"
        assert "̈" not in normalize_sentence("ä")

    @given(st.text(max_size=80))
    def test_idempotent(self, s):
        assert normalize_sentence(normalize_sentence(s)) == normalize_sentence(s)


class TestIngest:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        assert ingest_corpus(path, "wiki") == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_text("eins\n\nzwei\n   \ndrei\n", encoding="utf-8")
        records = ingest_corpus(path, "wiki")
        assert [r.text for r in records] == ["eins", "zwei", "drei"]
        assert [r.id for r in records] == [0, 1, 2]

    def test_jsonl_whitespace_only_records_dropped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = []
        for i in range(100):
            text = "   " if i % 10 == 0 else f"Satz nummer {i}"
            lines.append(json.dumps({"text": text}))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        records = ingest_corpus(path, "news", format="jsonl")
        assert len(records) == 90

    def test_malformed_jsonl_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "ok"}\n{not json\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            ingest_corpus(path, "news", format="jsonl")

    def test_jsonl_missing_text_key(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 1}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="text"):
            ingest_corpus(path, "news", format="jsonl")

    @pytest.mark.parametrize("value", [None, 5, ["a"]])
    def test_jsonl_text_not_a_string(self, tmp_path, value):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"text": "ok"}) + "\n" + json.dumps({"text": value}) + "\n",
            encoding="utf-8",
        )
        message = r"bad\.jsonl: line 2: jsonl record 'text' is not a string"
        with pytest.raises(InputFileError, match=message):
            ingest_corpus(path, "news", format="jsonl")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[" * 3000 + "]" * 3000, "malformed jsonl record: maximum recursion depth"),
            ('{"text": "a\\ud800"}', "jsonl record 'text' is not UTF-8 text"),
        ],
        ids=["too-deeply-nested", "lone-surrogate"],
    )
    def test_jsonl_line_no_store_can_hold_is_named(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "ok"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(InputFileError, match=rf"bad\.jsonl: line 2: {message}"):
            ingest_corpus(path, "news", format="jsonl")

    def test_ids_continue_from_store(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("eins\nzwei\n", encoding="utf-8")
        b.write_text("drei\n", encoding="utf-8")
        store = CorpusStore()
        ingest_corpus(a, "wiki", store=store)
        ingest_corpus(b, "news", store=store)
        assert [r.id for r in store.records] == [0, 1, 2]
        assert store.records[2].source == "news"

    def test_invalid_utf8_is_hard_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"valide zeile\n\xff\xfe kaputt\n")
        with pytest.raises(InputFileError, match=r"line 2: not UTF-8 text \(byte 0xff\)") as info:
            ingest_corpus(path, "wiki")
        assert isinstance(info.value.__cause__, UnicodeDecodeError)

    @pytest.mark.parametrize(
        "format, lines",
        [("plain-lines", "eins\nzwei\n"), ("jsonl", '{"text": "eins"}\n{"text": "zwei"}\n')],
        ids=["plain-lines", "jsonl"],
    )
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, format, lines):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"\xef\xbb\xbf" + lines.encode("utf-8"))
        assert [r.text for r in ingest_corpus(path, "wiki", format)] == ["eins", "zwei"]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            ingest_corpus(tmp_path / "x", "wiki", format="xml")

    def test_determinism_byte_identical_store(self, tmp_path):
        src = tmp_path / "src.txt"
        src.write_text("eins\nzwei\neins\n", encoding="utf-8")
        outs = []
        for run in range(2):
            store = CorpusStore()
            ingest_corpus(src, "wiki", store=store)
            out = tmp_path / f"store{run}.jsonl"
            save_store(store, out)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def _rec(i, text, source="wiki"):
    return SentenceRecord(id=i, text=text, source=source)


class TestDeduplicate:
    def test_exact_match(self):
        out, stats = deduplicate([_rec(0, "a"), _rec(1, "b"), _rec(2, "a")])
        assert [r.text for r in out] == ["a", "b"]
        assert stats.total_sentences == 3
        assert stats.distinct_sentences == 2

    def test_synthetic_known_duplicate_count(self, rng):
        base = [_rec(i, f"satz {i}", source=f"s{i % 3}") for i in range(900)]
        dups = [
            _rec(900 + j, base[int(rng.integers(900))].text, source="s0")
            for j in range(100)
        ]
        records = base + dups
        out, stats = deduplicate(records)
        assert stats.total_sentences == 1000
        assert stats.distinct_sentences == 900
        assert len(out) == 900

    def test_conservation_against_hash_set_oracle(self, rng):
        records = [
            _rec(i, f"text {int(rng.integers(50))}", source=f"s{int(rng.integers(4))}")
            for i in range(300)
        ]
        out, stats = deduplicate(records)
        assert sum(stats.per_source_counts.values()) == stats.total_sentences
        assert stats.distinct_sentences == len({r.text for r in records})
        assert len(out) == len({r.text for r in records})

    def test_idempotent(self):
        records = [_rec(i, f"t{i % 7}") for i in range(30)]
        once, _ = deduplicate(records)
        twice, stats = deduplicate(once)
        assert twice == once
        assert stats.total_sentences == stats.distinct_sentences

    def test_order_preserved(self):
        out, _ = deduplicate([_rec(0, "c"), _rec(1, "a"), _rec(2, "c"), _rec(3, "b")])
        assert [r.text for r in out] == ["c", "a", "b"]


class TestLoadLabeled:
    def _write(self, tmp_path, rows, header="id\ttext\tmos\trating_std"):
        path = tmp_path / "labeled.tsv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        return path

    def test_basic_row(self, tmp_path):
        path = self._write(
            tmp_path, ["1\tAls Versauerung der Meere wird die Abnahme bezeichnet.\t2.13\t0.4"]
        )
        (s,) = load_labeled(path)
        assert s.mos == 2.13
        assert s.rating_std == 0.4
        assert s.id == 1

    def test_boundary_mos_accepted(self, tmp_path):
        path = self._write(tmp_path, ["1\tx y z\t7.0\t0.1", "2\ta b c\t1.0\t0.1"])
        loaded = load_labeled(path)
        assert [s.mos for s in loaded] == [7.0, 1.0]

    def test_out_of_scale_mos_rejected(self, tmp_path):
        path = self._write(tmp_path, ["1\tx\t7.5\t0.1"])
        with pytest.raises(ValueError, match="row 2"):
            load_labeled(path)

    def test_non_numeric_field(self, tmp_path):
        path = self._write(tmp_path, ["1\tx\tdrei\t0.1"])
        with pytest.raises(ValueError, match="non-numeric"):
            load_labeled(path)

    @pytest.mark.parametrize(
        "row",
        [
            "1_0\tx\t3.0\t0.1",  # int() reads it as 10
            "２\tx\t3.0\t0.1",  # a full-width digit: int() reads it as 2
            "1\tx\t ٣ \t0.1",  # an Arabic-Indic digit between spaces: float() reads 3.0
            "1\tx\t3.0\t0_1",
            "1\tx\t3.0\t０.1",
        ],
        ids=["id-underscore", "id-full-width", "mos-arabic-indic", "std-underscore",
             "std-full-width"],
    )
    def test_only_ascii_decimal_cells_are_numbers(self, tmp_path, row):
        path = self._write(tmp_path, ["2\ty\t3.0\t0.1", row])
        with pytest.raises(ValueError, match="row 3: non-numeric field: .* is not an ASCII decimal"):
            load_labeled(path)

    def test_ascii_decimal_cells_keep_their_forms(self, tmp_path):
        """Surrounding whitespace, a sign, a bare point and an exponent stay allowed."""
        path = self._write(tmp_path, [" +7 \tx\t 3. \t 5E-1 ", "-2\ty\t.5e1\t1"])
        loaded = load_labeled(path)
        assert [(s.id, s.mos, s.rating_std) for s in loaded] == [(7, 3.0, 0.5), (-2, 5.0, 1.0)]

    def test_missing_std_column_uses_default(self, tmp_path):
        path = self._write(tmp_path, ["1\tx y\t3.0"], header="id\ttext\tmos")
        (s,) = load_labeled(path)
        assert s.rating_std == DEFAULT_RATING_STD

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = self._write(tmp_path, ["1\tx y\t3.0\t0.2"])
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        (s,) = load_labeled(path)
        assert (s.id, s.text, s.mos, s.rating_std) == (1, "x y", 3.0, 0.2)

    def test_negative_std_rejected(self, tmp_path):
        path = self._write(tmp_path, ["1\tx\t3.0\t-0.2"])
        with pytest.raises(ValueError, match="negative"):
            load_labeled(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_std_rejected(self, tmp_path, value):
        path = self._write(tmp_path, ["1\tx\t3.0\t0.2", f"2\ty\t3.0\t{value}"])
        with pytest.raises(ValueError, match=f"row 3: non-finite rating_std {value}"):
            load_labeled(path)

    def test_text_is_normalized(self, tmp_path):
        path = self._write(tmp_path, ["1\t  zu   viel  raum \t3.0\t0.1"])
        (s,) = load_labeled(path)
        assert s.text == "zu viel raum"


def test_store_roundtrip(tmp_path):
    store = CorpusStore(records=[_rec(0, "eins"), _rec(1, "zwei", "news")])
    path = tmp_path / "store.jsonl"
    save_store(store, path)
    loaded = load_store(path)
    assert loaded.records == store.records


class TestRowsOf:
    def test_ids_in_any_order(self):
        rng = np.random.default_rng(3)
        ids = rng.permutation(np.arange(0, 3000, 3))  # shuffled, not contiguous
        wanted = rng.choice(ids, size=400)  # in any order, with repeats
        rows = rows_of(ids, wanted)
        assert np.array_equal(ids[rows], wanted)
        assert np.array_equal(rows_of(ids, ids), np.arange(len(ids)))
        assert rows_of(ids, wanted.tolist()).tolist() == rows.tolist()

    def test_empty_wanted(self):
        rows = rows_of(np.array([7, 3, 5]), [])
        assert rows.shape == (0,) and rows.dtype.kind == "i"
        assert rows_of(np.array([], dtype=np.int64), []).shape == (0,)

    def test_unknown_id_is_named(self):
        ids = np.array([40, 10, 30, 20])
        with pytest.raises(ValueError, match=r"^id 25 not found$"):
            rows_of(ids, [30, 25, 99, 10])
        with pytest.raises(ValueError, match=r"^id 41 "):  # past the largest id
            rows_of(ids, [41])
        with pytest.raises(ValueError, match=r"^id 0 not found$"):
            rows_of(np.array([], dtype=np.int64), [0])

    def test_store_ids_are_in_store_order(self):
        store = CorpusStore(records=[
            SentenceRecord(id=i, text=f"satz {i}", source="wiki") for i in (9, 2, 5)
        ])
        assert store.ids().tolist() == [9, 2, 5]
        assert rows_of(store.ids(), [5, 9]).tolist() == [2, 0]
