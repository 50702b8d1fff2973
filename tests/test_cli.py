import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from pseudolab import cli, features, fixtures, parallel, simindex
from pseudolab import ensemble as ensemble_module
from pseudolab import pipeline as pipeline_module
from pseudolab.artifacts import json_text
from pseudolab.cli import main
from pseudolab.config import load_config
from pseudolab.corpus import load_labeled, load_store
from pseudolab.features import embed_many, load_feature_stats
from pseudolab.pseudolabel import load_pseudo_labels
from pseudolab.scorer import MAX_EPOCHS, model_to_json

ROOT = Path(__file__).resolve().parents[1]


def _write_config(directory: Path, dataset, overrides=None) -> Path:
    entries = fixtures.write_corpus_files(dataset.store, directory / "corpus")
    train_tsv = directory / "train.tsv"
    test_tsv = directory / "test.tsv"
    fixtures.write_labeled_tsv(dataset.labeled_train, train_tsv)
    fixtures.write_labeled_tsv(dataset.labeled_test, test_tsv)
    config = {
        "corpora": entries,
        "labeled_train": str(train_tsv),
        "labeled_test": str(test_tsv),
        "output_dir": str(directory / "out"),
        "retrieval": {"hashed_dim": 128, "ngram_min": 3, "ngram_max": 4},
        "archetypes": [
            {"name": "a", "hashed_dim": 128, "ngram_min": 3, "ngram_max": 5},
            {"name": "b", "hashed_dim": 64, "ngram_min": 2, "ngram_max": 4},
            {"name": "c", "hashed_dim": 96, "ngram_min": 4, "ngram_max": 6, "batch_size": 20},
        ],
        "k": 15,
        "seeds": [1, 2, 3],
        "n_folds": 5,
        "hyper_pseudo": {"max_epochs": 2},
        "hyper_fine": {"max_epochs": 3},
        "hyper_baseline": {"max_epochs": 3},
    }
    config.update(overrides or {})
    path = directory / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


STAGES = (
    "ingest",
    "featurize",
    "index",
    "train-baseline",
    "pseudolabel",
    "train-ensemble",
)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_pipeline")
    dataset = fixtures.make_synthetic_dataset(
        n_corpus=400, n_train=40, n_test=10, seed=5
    )
    config_path = _write_config(directory, dataset)
    for command in STAGES:
        assert main([command, "--config", str(config_path)]) == 0, command
    return directory, config_path, dataset


class TestFullPipeline:
    def test_artifacts_exist(self, pipeline):
        directory, _, _ = pipeline
        out = directory / "out"
        for name in (
            cli.STORE,
            cli.CORPUS_STATS,
            cli.FEATURE_STATS,
            cli.CORPUS_VECTORS,
            cli.CORPUS_IDS,
            cli.INDEX,
            cli.BASELINE_MODEL,
            cli.PSEUDO_LABELS,
            cli.PSEUDO_STATS,
            cli.PSEUDO_TABLE,
            cli.BUNDLE,
        ):
            assert (out / name).exists(), name
        assert not (out / ".lock").exists()
        assert not list(out.rglob("*.tmp"))

    def test_manifest_records_all_stages(self, pipeline):
        directory, _, _ = pipeline
        manifest = json.loads((directory / "out" / "manifest.json").read_text())
        recorded = set(manifest["stages"])
        for stage in STAGES:
            assert stage in recorded
            info = manifest["stages"][stage]
            assert info["outputs"]
            assert all(len(d) == 64 for d in info["outputs"].values())

    def test_pseudo_table_rendered(self, pipeline):
        directory, _, _ = pipeline
        table = (directory / "out" / cli.PSEUDO_TABLE).read_text()
        assert table.splitlines()[0].startswith("Data Source")

    def test_predict(self, pipeline):
        directory, config_path, dataset = pipeline
        input_path = directory / "sentences.txt"
        input_path.write_text(
            "\n".join(s.text for s in dataset.labeled_test[:5]) + "\n",
            encoding="utf-8",
        )
        assert (
            main(["predict", "--config", str(config_path), "--input", str(input_path)])
            == 0
        )
        lines = (directory / "out" / cli.PREDICTIONS).read_text().splitlines()
        assert len(lines) == 5
        for i, line in enumerate(lines, start=1):
            idx, score = line.split("\t")
            assert int(idx) == i
            assert 1.0 <= float(score) <= 7.0
            assert len(score.split(".")[1]) == 3

    def test_predict_drops_a_leading_byte_order_mark(self, pipeline):
        directory, config_path, dataset = pipeline
        text = "".join(s.text + "\n" for s in dataset.labeled_test[:5])
        predictions = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            input_path = directory / "sentences.txt"
            input_path.write_bytes(prefix + text.encode("utf-8"))
            argv = ["predict", "--config", str(config_path), "--input", str(input_path)]
            assert main(argv) == 0
            predictions.append((directory / "out" / cli.PREDICTIONS).read_text(encoding="utf-8"))
        assert predictions[1] == predictions[0]

    def test_predict_embeds_in_one_pass(self, pipeline, monkeypatch):
        """Each chunk is hashed once, for all the archetypes."""
        directory, config_path, dataset = pipeline
        input_path = directory / "sentences.txt"
        input_path.write_text(
            "".join(s.text + "\n" for s in dataset.labeled_test[:5]), encoding="utf-8"
        )
        passes, windows = _count_embedding(monkeypatch, ensemble_module)
        monkeypatch.setattr(features, "EMBED_CHUNK_ROWS", 2)
        # the counts live in this process, so the chunks must be scored in it too
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        argv = ["predict", "--config", str(config_path), "--input", str(input_path)]
        assert main(argv) == 0
        assert len(passes) == 1
        assert len(windows) == 3  # chunks of 2, 2 and 1 sentences

    def test_predict_requires_input(self, pipeline):
        _, config_path, _ = pipeline
        assert main(["predict", "--config", str(config_path)]) == 1

    def test_evaluate(self, pipeline):
        directory, config_path, _ = pipeline
        assert main(["evaluate", "--config", str(config_path)]) == 0
        report = json.loads((directory / "out" / cli.EVAL_JSON).read_text())
        assert report["setting"] == "ensemble_mean"
        assert len(report["per_fold_rmse"]) == 5
        assert 0.0 <= report["fold_mean_rmse"] <= 3.0
        table = (directory / "out" / cli.EVAL_TABLE).read_text()
        assert table.startswith("Setting")

    def test_train_ensemble_and_evaluate_embed_corpus_and_labeled_texts_once(
        self, pipeline, monkeypatch
    ):
        """Each stage embeds the corpus and the labeled set once per distinct
        archetype featurizer; the folds reuse both."""
        directory, config_path, dataset = pipeline
        config = load_config(config_path)
        # (text, featurizer fingerprint) of every row embedded, counted where called
        embedded: list[tuple[str, str]] = []

        def counting(original):
            def wrapper(texts, stats_list, **kwargs):
                texts = list(texts)
                embedded.extend((t, s.fingerprint) for s in stats_list for t in texts)
                return original(texts, stats_list, **kwargs)

            return wrapper

        # the counts live in this process, so the folds must run in it too
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        monkeypatch.setattr(pipeline_module, "embed_many", counting(features.embed_many))
        monkeypatch.setattr(ensemble_module, "embed_chunks", counting(features.embed_chunks))
        labeled = {s.text for s in dataset.labeled_train}
        corpus = [r.text for r in load_store(directory / "out" / cli.STORE).records]
        fingerprints = [spec.feature_config().fingerprint() for spec in config.archetypes]
        expected = Counter((t, fp) for fp in set(fingerprints) for t in corpus)
        expected.update((s.text, fp) for fp in set(fingerprints) for s in dataset.labeled_train)
        retrieval = config.retrieval.fingerprint()

        assert main(["train-ensemble", "--config", str(config_path)]) == 0
        assert Counter(embedded) == expected
        embedded.clear()
        assert main(["evaluate", "--config", str(config_path)]) == 0
        assert Counter(e for e in embedded if e[1] != retrieval) == expected
        # the gates embed only labeled texts
        assert {t for t, fp in embedded if fp == retrieval} <= labeled

    def test_pseudolabel_matches_in_process_pipeline(self, pipeline):
        directory, config_path, _ = pipeline
        out = directory / "out"
        config = load_config(config_path)
        ctx = pipeline_module.build_context(
            load_store(out / cli.STORE), config.retrieval, config.archetypes
        )
        anchors = load_labeled(config.labeled_train)
        gate = pipeline_module.train_gate_model(ctx.retrieval_stats, anchors, config)
        assert model_to_json(gate) == (out / cli.BASELINE_MODEL).read_text()
        exclude = {s.text for s in anchors} | {
            s.text for s in load_labeled(config.labeled_test)
        }
        pset = pipeline_module.generate_for_anchors(ctx, anchors, gate, config, exclude)
        assert pset.labels
        assert load_pseudo_labels(out / cli.PSEUDO_LABELS).labels == pset.labels

    def test_lock_blocks_second_command(self, pipeline):
        directory, config_path, _ = pipeline
        lock = directory / "out" / ".lock"
        lock.write_text(str(os.getpid()))
        try:
            assert main(["ingest", "--config", str(config_path)]) == 1
        finally:
            lock.unlink()


class TestStaleLock:
    @pytest.fixture
    def config_path(self, tmp_path):
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        (tmp_path / "out").mkdir()
        return _write_config(tmp_path, dataset)

    def test_lock_of_dead_process_is_taken_over(self, config_path, capsys):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        assert child.wait(timeout=60) == 0  # reaped: no process has its PID now
        lock = config_path.parent / "out" / ".lock"
        lock.write_text(str(child.pid))
        assert main(["ingest", "--config", str(config_path)]) == 0
        assert f"process {child.pid} no longer exists" in capsys.readouterr().err
        assert not lock.exists()

    def test_empty_lock_still_blocks(self, config_path):
        # its holder may not have written its PID yet
        lock = config_path.parent / "out" / ".lock"
        lock.write_text("")
        assert main(["ingest", "--config", str(config_path)]) == 1
        assert lock.exists()


class TestValidation:
    def test_invalid_k_rejected_before_any_work(self, tmp_path):
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(tmp_path, dataset, {"k": 0})
        assert main(["ingest", "--config", str(config_path)]) == 1
        assert not (tmp_path / "out").exists()

    def test_missing_corpus_file(self, tmp_path):
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(
            tmp_path,
            dataset,
            {"corpora": [{"path": str(tmp_path / "nope.txt"), "source": "wiki"}]},
        )
        assert main(["ingest", "--config", str(config_path)]) == 1

    def test_config_nested_too_deeply_is_named(self, tmp_path, capsys):
        """The JSON parser's RecursionError is a config error naming the file."""
        config_path = tmp_path / "config.json"
        config_path.write_text("[" * 100_000 + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["ingest", "--config", str(config_path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith(f"error: config {config_path} is not valid JSON: ")
        assert "recursion" in line

    def test_bad_setting(self, tmp_path):
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(tmp_path, dataset, {"setting": "magic"})
        assert main(["ingest", "--config", str(config_path)]) == 1

    @pytest.mark.parametrize(
        "key, value",
        [
            ("k", "5"),
            ("n_folds", 5.0),
            ("fold_seed", True),
            ("hyper_baseline", {"ridge_lambda": "1.0"}),
            ("labeled_train", None),
            ("setting", 3),
            ("seeds", "12"),
            ("seeds", 3),
            ("seeds", [1, "x"]),
            ("seeds", [True]),
            ("labeled_test", 5),
            ("archetypes", [{"name": "a", "hashed_dim": "8", "ngram_min": 3, "ngram_max": 5}]),
            ("archetypes", {"name": "a", "hashed_dim": 8, "ngram_min": 3, "ngram_max": 5}),
            ("retrieval", {"hashed_dim": 128, "ngram_min": 3.0, "ngram_max": 4}),
            ("corpora", [{"path": 5, "source": "wiki"}]),
            ("hyper_fine", {"max_epochs": "3"}),
            ("hyper_fine", 3),
        ],
    )
    def test_mistyped_scalar(self, tmp_path, capsys, key, value):
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(tmp_path, dataset, {key: value})
        assert main(["ingest", "--config", str(config_path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        # a nested value is named by its path, e.g. archetypes[0].hashed_dim
        assert re.match(rf"error: {key}(\[\d+\])?(\.\w+)? must be ", line), line

    @pytest.mark.parametrize(
        "overrides, name",
        [
            ({"hyper_pseudo": {"learning_rate": float("nan")}}, "hyper_pseudo.learning_rate"),
            ({"hyper_fine": {"ridge_lambda": float("inf")}}, "hyper_fine.ridge_lambda"),
            ({"hyper_baseline": {"ridge_lambda": float("inf")}}, "hyper_baseline.ridge_lambda"),
            ({"hyper_baseline": {"learning_rate": float("nan")}}, "hyper_baseline.learning_rate"),
        ],
    )
    def test_non_finite_number(self, tmp_path, capsys, overrides, name):
        # json.loads reads NaN and Infinity, which pass every comparison-based check
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(tmp_path, dataset, overrides)
        assert main(["ingest", "--config", str(config_path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert re.fullmatch(rf"error: {re.escape(name)} must be a finite number, got (nan|inf)", line)

    @pytest.mark.parametrize("section", ["hyper_pseudo", "hyper_fine", "hyper_baseline"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("schedule", "linear"),
            ("batch_size", 32),
            ("seed", 0),
            ("warmup_fraction", 0.1),
            ("early_stopping", True),
            ("early_stopping_holdout_fraction", 0.2),
        ],
    )
    def test_removed_hyper_key(self, tmp_path, capsys, section, key, value):
        # each fit's seed comes from seeds or fold_seed, its batch size from its
        # archetype; the warmup and the holdout are fixed, and only the baseline
        # setting stops early
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(tmp_path, dataset, {section: {key: value}})
        assert main(["ingest", "--config", str(config_path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == f"error: {section} has unknown key(s): {key}"

    def test_removed_max_tokens_key(self, tmp_path, capsys):
        # every text is truncated to features.MAX_TOKENS tokens
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(tmp_path, dataset, {"retrieval": {"max_tokens": 128}})
        assert main(["ingest", "--config", str(config_path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == "error: retrieval has unknown key(s): max_tokens"

    def test_empty_seeds_rejected(self, tmp_path, capsys):
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(tmp_path, dataset, {"seeds": []})
        assert main(["ingest", "--config", str(config_path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == "error: seeds must be a non-empty list of positive integers, got []"

    def test_a_seed_of_more_than_64_bits_rejected(self, tmp_path, capsys):
        """Bounded as ids are: with a 200-byte archetype name such a seed made a
        model file name longer than a file name may be."""
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        archetype = {"name": "a" * 200, "hashed_dim": 64, "ngram_min": 3, "ngram_max": 4}
        config_path = _write_config(
            tmp_path, dataset, {"seeds": [1, 10**60], "archetypes": [archetype]}
        )
        assert main(["ingest", "--config", str(config_path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == f"error: seeds must be integers of at most 64 bits, got [1, {10**60}]"

    @pytest.mark.parametrize("key", ["archetypes", "corpora"])
    def test_a_string_holding_a_lone_surrogate_rejected(self, tmp_path, capsys, key):
        """JSON can escape a lone surrogate, but no UTF-8 file name or text can hold it."""
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(tmp_path, dataset)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        field = {"archetypes": "name", "corpora": "source"}[key]
        config[key][0][field] = "x\ud800"
        config_path.write_text(json.dumps(config), encoding="utf-8")  # written as \ud800
        assert main(["ingest", "--config", str(config_path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == (
            f"error: {key}[0].{field} must be UTF-8 text, got a lone surrogate in 'x\\ud800'"
        )

    def test_repeated_seed_rejected(self, tmp_path, capsys):
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(tmp_path, dataset, {"seeds": [1, 2, 1]})
        assert main(["ingest", "--config", str(config_path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == "error: seeds must be distinct, got [1, 2, 1]"

    def test_negative_fold_seed_rejected(self, tmp_path, capsys):
        # it seeds np.random.default_rng, which takes no negative seed
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(tmp_path, dataset, {"fold_seed": -1})
        assert main(["ingest", "--config", str(config_path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == "error: fold_seed must be a non-negative integer, got -1"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("output_dir", ["blocker", "blocker/out"])
    def test_output_dir_that_cannot_be_created(self, tmp_path, capsys, output_dir):
        # a file stands where output_dir, or its parent, would be a directory
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        (tmp_path / "blocker").write_text("", encoding="utf-8")
        path = tmp_path / output_dir
        config_path = _write_config(tmp_path, dataset, {"output_dir": str(path)})
        assert main(["ingest", "--config", str(config_path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith(f"error: cannot create output_dir {path}: "), line

    @pytest.mark.parametrize("key", ["hashed_dim", "ngram_min", "batch_size"])
    def test_archetype_value_rejected(self, tmp_path, capsys, key):
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        archetype = {"name": "a", "hashed_dim": 64, "ngram_min": 2, "ngram_max": 4, key: 0}
        config_path = _write_config(tmp_path, dataset, {"archetypes": [archetype]})
        assert main(["ingest", "--config", str(config_path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("error: invalid archetypes[0]: "), line
        assert key in line

    @pytest.mark.parametrize("hashed_dim", [2**70, 2**32], ids=["2**70", "2**32"])
    @pytest.mark.parametrize("section", ["retrieval", "archetypes"])
    def test_hashed_dim_past_the_index_field_rejected(self, tmp_path, capsys, section, hashed_dim):
        """index.bin records the feature dimension (hashed_dim + 6) in 32 bits."""
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        featurizer = {"hashed_dim": hashed_dim, "ngram_min": 2, "ngram_max": 4}
        if section == "retrieval":
            overrides, name = {"retrieval": featurizer}, "retrieval"
        else:
            overrides, name = {"archetypes": [{"name": "a", **featurizer}]}, "archetypes[0]"
        config_path = _write_config(tmp_path, dataset, overrides)
        assert main(["ingest", "--config", str(config_path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith(
            f"error: invalid {name}: hashed_dim must be at most {2**32 - 7}, "
        ), line

    @pytest.mark.parametrize("section", ["hyper_pseudo", "hyper_fine", "hyper_baseline"])
    def test_max_epochs_past_its_bound_rejected(self, tmp_path, capsys, section):
        """A fit of 2**70 epochs would never end: scorer.MAX_EPOCHS bounds every fit."""
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(tmp_path, dataset, {section: {"max_epochs": 2**70}})
        assert main(["ingest", "--config", str(config_path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == (
            f"error: invalid {section}: max_epochs must be from 1 to {MAX_EPOCHS}, got {2**70}"
        )
        config_path = _write_config(tmp_path, dataset, {section: {"max_epochs": MAX_EPOCHS}})
        assert getattr(load_config(config_path), section).max_epochs == MAX_EPOCHS

    @pytest.mark.parametrize(
        "key, stage, before",
        [
            ("archetypes[0]", "train-ensemble", STAGES[:5]),
            ("archetypes[0]", "evaluate", STAGES[:5]),
            ("retrieval", "index", STAGES[:2]),
            ("retrieval", "train-baseline", STAGES[:2]),
        ],
    )
    def test_featurizer_too_large_to_embed_rejected(
        self, tmp_path, capsys, monkeypatch, key, stage, before
    ):
        """A hashed_dim of 2**31 passes load_config, but its float32 matrix of
        the corpus would take 400 GiB. The stage that would embed it exits 1
        naming the key, the rows and the bytes, before it embeds anything:
        train-baseline embeds only the labeled sentences with the retrieval
        featurizer, which featurize fits without embedding anything."""
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        featurizer = {"hashed_dim": 2**31, "ngram_min": 2, "ngram_max": 4}
        if key == "retrieval":
            overrides = {"retrieval": featurizer}
        else:
            overrides = {"archetypes": [{"name": "a", **featurizer}]}
        config_path = _write_config(tmp_path, dataset, overrides)
        for command in before:
            assert main([command, "--config", str(config_path)]) == 0, command

        def refuse(*args, **kwargs):
            raise AssertionError("an oversized feature matrix was about to be allocated")

        for module, name in ((cli, "embed_many"), (pipeline_module, "embed_many"),
                             (pipeline_module, "embed_archetypes")):
            monkeypatch.setattr(module, name, refuse)
        capsys.readouterr()
        assert main([stage, "--config", str(config_path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        match = re.fullmatch(
            rf"error: {re.escape(key)}\.hashed_dim is {2**31}: its float32 matrix of "
            rf"(\d+) rows would take (\d+) bytes, more than the {2**36} bytes a feature "
            "matrix may take",
            line,
        )
        assert match, line
        n_rows = len(load_store(tmp_path / "out" / "store.jsonl").records)
        if stage == "train-baseline":
            n_rows = len(dataset.labeled_train)
        assert int(match[1]) == n_rows and int(match[2]) == n_rows * (2**31 + 6) * 4

    def test_archetype_named_retrieval_rejected(self, tmp_path, capsys):
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        archetype = {"name": "retrieval", "hashed_dim": 64, "ngram_min": 2, "ngram_max": 4}
        config_path = _write_config(tmp_path, dataset, {"archetypes": [archetype]})
        assert main(["ingest", "--config", str(config_path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert "'retrieval' is reserved" in line

    @pytest.mark.parametrize(
        "key",
        [
            "literal_45_columns",
            "shared_pseudo_labels",
            "exclude_labeled",
            "literal_45_colums",
            "ridge_lambda_baseline",
            "default_rating_std",
        ],
    )
    def test_unknown_key(self, tmp_path, capsys, key):
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(tmp_path, dataset, {key: False})
        assert main(["ingest", "--config", str(config_path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.endswith(f"unknown key(s): {key}")
        assert not (tmp_path / "out").exists()

    def test_negative_gate_ridge_lambda_is_an_unknown_key(self, tmp_path, capsys):
        # the gate's ridge penalty is pipeline.GATE_RIDGE_LAMBDA, which no config
        # sets, so no negative penalty reaches the ridge solve
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(tmp_path, dataset, {"ridge_lambda_baseline": -1})
        for command in ("train-baseline", "evaluate"):
            assert main([command, "--config", str(config_path), "--force"]) == 1
            (line,) = capsys.readouterr().err.strip().splitlines()
            assert line == f"error: config {config_path} has unknown key(s): ridge_lambda_baseline"

    def test_workers_flag_removed(self, tmp_path):
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(tmp_path, dataset)
        assert main(["ingest", "--config", str(config_path), "--workers", "2"]) == 1

    def test_malformed_json_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["ingest", "--config", str(path)]) == 1

    def test_config_that_is_not_utf8_names_the_file_and_line(self, tmp_path, capsys):
        # the config is read as every input file is, by corpus.open_text
        path = tmp_path / "config.json"
        path.write_bytes(b'{"k": 5,\n "\xff": 1}\n')
        assert main(["ingest", "--config", str(path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == f"error: {path}: line 2: not UTF-8 text (byte 0xff)"

    def test_config_with_a_byte_order_mark_loads_as_without(self, tmp_path):
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(tmp_path, dataset)
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + config_path.read_bytes())
        assert load_config(marked) == load_config(config_path)

    @pytest.mark.parametrize(
        "overrides, expected",
        [
            ({"retrieval": {"y": 1, "ngram_max": 4, "x": 2}}, "retrieval has unknown key(s): x, y"),
            ({"hyper_fine": {"seed": 0, "schedule": "linear"}},
             "hyper_fine has unknown key(s): schedule, seed"),
            ({"archetypes": [{"name": "a", "hashed_dim": 8, "ngram_min": 2, "ngram_max": 3,
                              "width": 1, "depth": 2}]},
             "archetypes[0] has unknown key(s): depth, width"),
        ],
    )
    def test_a_section_lists_every_unknown_key(self, tmp_path, capsys, overrides, expected):
        # as the top level does: sorted, after "unknown key(s)"
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(tmp_path, dataset, overrides)
        assert main(["ingest", "--config", str(config_path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == f"error: {expected}"

    @pytest.mark.parametrize(
        "overrides, expected",
        [
            ({"corpora": [{"path": "wiki.txt"}]}, "corpora[0] missing required field(s): source"),
            ({"archetypes": [{"name": "a", "ngram_min": 2}]},
             "archetypes[0] missing required field(s): hashed_dim, ngram_max"),
        ],
    )
    def test_a_section_names_its_missing_fields(self, tmp_path, capsys, overrides, expected):
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(tmp_path, dataset, overrides)
        assert main(["ingest", "--config", str(config_path)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == f"error: {expected}"

    def test_missing_config_flag(self):
        assert main(["ingest"]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate", "--config", "x.json"]) == 1


class TestConfigParse:
    @pytest.mark.parametrize(
        "key, value, expected",
        [
            (
                "retrieval",
                {"ngram_max": 4},
                dataclasses.replace(pipeline_module.DEFAULT_RETRIEVAL_CONFIG, ngram_max=4),
            ),
            (
                "hyper_pseudo",
                {"max_epochs": 2},
                dataclasses.replace(pipeline_module.default_pseudo_hyper(), max_epochs=2),
            ),
        ],
    )
    def test_partial_object_keeps_defaults_of_omitted_fields(
        self, tmp_path, key, value, expected
    ):
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config = load_config(_write_config(tmp_path, dataset, {key: value}))
        assert getattr(config, key) == expected

    @pytest.mark.parametrize("every_section", [False, True])
    def test_config_snapshot_loads_back(self, tmp_path, every_section):
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(
            tmp_path,
            dataset,
            {
                "fold_seed": 4,
                "setting": "pseudo_only",
                "k": 7,
                "n_folds": 3,
                "hyper_baseline": {"max_epochs": 12, "learning_rate": 0.05},
            },
        )
        if not every_section:  # only the required keys: every other one is a default
            raw = json.loads(config_path.read_text(encoding="utf-8"))
            required = {key: raw[key] for key in ("corpora", "labeled_train", "output_dir")}
            config_path.write_text(json.dumps(required), encoding="utf-8")
        config = load_config(config_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        assert load_config(tmp_path / "out" / "config_snapshot.json") == config


class TestStaleness:
    @pytest.fixture()
    def two_stage_dir(self, tmp_path):
        dataset = fixtures.make_synthetic_dataset(
            n_corpus=80, n_train=10, n_test=5, seed=2
        )
        config_path = _write_config(tmp_path, dataset)
        assert main(["ingest", "--config", str(config_path)]) == 0
        return tmp_path, config_path

    def test_featurize_without_ingest(self, tmp_path):
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(tmp_path, dataset)
        assert main(["featurize", "--config", str(config_path)]) == 2

    def test_modified_upstream_detected(self, two_stage_dir, capsys):
        directory, config_path = two_stage_dir
        store = directory / "out" / cli.STORE
        store.write_text(
            store.read_text(encoding="utf-8") + "\n", encoding="utf-8"
        )
        assert main(["featurize", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert "store.jsonl" in err
        assert "ingest" in err

    def test_force_overrides_staleness(self, two_stage_dir):
        directory, config_path = two_stage_dir
        store = directory / "out" / cli.STORE
        store.write_text(store.read_text(encoding="utf-8") + "\n", encoding="utf-8")
        assert main(["featurize", "--config", str(config_path), "--force"]) == 0

    def test_rerun_after_upstream_rerun_succeeds(self, two_stage_dir):
        directory, config_path = two_stage_dir
        (directory / "out" / cli.STORE).unlink()
        assert main(["featurize", "--config", str(config_path)]) == 2
        assert main(["ingest", "--config", str(config_path)]) == 0
        assert main(["featurize", "--config", str(config_path)]) == 0


LATIN1_SENTENCE = "Grüße aus Köln.".encode("latin-1")


class TestBadInputFiles:
    """A malformed input file ends in exit 1 with a one-line message."""

    @pytest.fixture()
    def featurized(self, tmp_path):
        dataset = fixtures.make_synthetic_dataset(n_corpus=80, n_train=10, n_test=5, seed=2)
        config_path = _write_config(tmp_path, dataset)
        for command in ("ingest", "featurize"):
            assert main([command, "--config", str(config_path)]) == 0, command
        return tmp_path, config_path, dataset

    def _one_line_error(self, capsys, command, config_path, *flags):
        capsys.readouterr()
        assert main([command, "--config", str(config_path), *flags]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        return line

    def test_mos_out_of_range(self, featurized, capsys):
        directory, config_path, dataset = featurized
        rows = dataset.labeled_train
        bad = [dataclasses.replace(rows[0], mos=9.5), *rows[1:]]
        fixtures.write_labeled_tsv(bad, directory / "train.tsv")
        line = self._one_line_error(capsys, "train-baseline", config_path)
        assert "row 2: mos 9.5 outside" in line

    def test_duplicate_labeled_id(self, featurized, capsys):
        directory, config_path, dataset = featurized
        rows = dataset.labeled_train
        fixtures.write_labeled_tsv(
            [*rows, dataclasses.replace(rows[-1], text="x y z")], directory / "train.tsv"
        )
        line = self._one_line_error(capsys, "train-baseline", config_path)
        assert f"id {dataset.labeled_train[-1].id} already used" in line

    def test_labeled_id_that_does_not_fit_64_bits(self, featurized, capsys):
        """Every id becomes an int64: a labeled id past 64 bits is refused where it
        is read, not written into a pseudo_labels.jsonl that train-ensemble refuses."""
        directory, config_path, dataset = featurized
        rows = dataset.labeled_train
        bad = [dataclasses.replace(rows[0], id=2**63), *rows[1:]]
        fixtures.write_labeled_tsv(bad, directory / "train.tsv")
        line = self._one_line_error(capsys, "train-baseline", config_path)
        assert f"row 2: id {2**63} does not fit 64 bits" in line

    def test_labeled_train_with_only_a_header(self, featurized, capsys):
        directory, config_path, _ = featurized
        train = directory / "train.tsv"
        train.write_text(train.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
        line = self._one_line_error(capsys, "train-baseline", config_path)
        assert f"labeled_train {train}: no labeled sentences" in line

    def test_labeled_train_not_utf8(self, featurized, capsys):
        directory, config_path, _ = featurized
        train = directory / "train.tsv"
        lines = train.read_bytes().splitlines(keepends=True)
        with open(train, "ab") as fh:
            fh.write(b"999\t" + LATIN1_SENTENCE + b"\t3.0\t0.5\n")
        line = self._one_line_error(capsys, "train-baseline", config_path)
        assert f"{train}: line {len(lines) + 1}: not UTF-8 text (byte 0xfc)" in line

    def test_corpus_file_not_utf8(self, featurized, capsys):
        _, config_path, _ = featurized
        corpus = Path(json.loads(config_path.read_text(encoding="utf-8"))["corpora"][0]["path"])
        lines = corpus.read_bytes().splitlines(keepends=True)
        corpus.write_bytes(b"".join([*lines[:2], LATIN1_SENTENCE + b"\n", *lines[2:]]))
        line = self._one_line_error(capsys, "ingest", config_path)
        assert f"{corpus}: line 3: not UTF-8 text (byte 0xfc)" in line

    def test_predict_input_not_utf8(self, pipeline, tmp_path, capsys):
        _, config_path, _ = pipeline
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"Ein Satz.\n" + LATIN1_SENTENCE + b"\n")
        line = self._one_line_error(capsys, "predict", config_path, "--input", str(path))
        assert f"{path}: line 2: not UTF-8 text (byte 0xfc)" in line

    def test_predict_input_missing(self, pipeline, tmp_path, capsys):
        _, config_path, _ = pipeline
        path = tmp_path / "nonexistent.txt"
        line = self._one_line_error(capsys, "predict", config_path, "--input", str(path))
        assert line == f"error: cannot read input {path}: No such file or directory"

    def test_non_finite_rating_std(self, featurized, capsys):
        directory, config_path, dataset = featurized
        rows = dataset.labeled_train
        bad = [*rows[:3], dataclasses.replace(rows[3], rating_std=float("nan")), *rows[4:]]
        fixtures.write_labeled_tsv(bad, directory / "train.tsv")
        line = self._one_line_error(capsys, "train-baseline", config_path)
        assert "row 5: non-finite rating_std nan" in line

    def test_labeled_row_missing_a_field(self, featurized, capsys):
        directory, config_path, _ = featurized
        train = directory / "train.tsv"
        train.write_text("id\tmos\ttext\n1\t2.0\n", encoding="utf-8")
        line = self._one_line_error(capsys, "train-baseline", config_path)
        assert f"{train}: row 2: 2 fields, fewer than the header's 3" in line

    def test_corpora_with_no_sentences(self, tmp_path, capsys):
        dataset = fixtures.make_synthetic_dataset(n_corpus=50, n_train=10, n_test=5, seed=1)
        config_path = _write_config(tmp_path, dataset)
        paths = [e["path"] for e in json.loads(config_path.read_text(encoding="utf-8"))["corpora"]]
        for path in paths:
            Path(path).write_text("\n  \n\t\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["ingest", "--config", str(config_path)]) == 1
        # after ingest's per-file progress lines, one error line
        *progress, line = capsys.readouterr().err.strip().splitlines()
        assert all(p.startswith("[ingest] ") for p in progress), progress
        assert line == f"error: the corpora hold no sentences: {', '.join(paths)}"
        assert not (tmp_path / "out" / cli.STORE).exists()

    def test_store_record_without_text(self, featurized, capsys):
        directory, config_path, _ = featurized
        store = directory / "out" / cli.STORE
        lines = store.read_text(encoding="utf-8").splitlines()
        lines[2] = json.dumps({"id": 2, "source": "wiki"})
        store.write_text("\n".join(lines) + "\n", encoding="utf-8")
        line = self._one_line_error(capsys, "featurize", config_path, "--force")
        assert "line 3: store record has no 'text' field" in line


def test_nothing_admitted_names_the_stage_and_fold(tmp_path, capsys, monkeypatch):
    """With rating std 0 no candidate is admitted; training stages exit 1, naming where."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    dataset = fixtures.make_synthetic_dataset(n_corpus=80, n_train=10, n_test=5, seed=2)
    config_path = _write_config(tmp_path, dataset)
    fixtures.write_labeled_tsv(
        [dataclasses.replace(s, rating_std=0.0) for s in dataset.labeled_train],
        tmp_path / "train.tsv",
    )
    for command in ("ingest", "featurize", "index", "train-baseline", "pseudolabel"):
        assert main([command, "--config", str(config_path)]) == 0, command
    assert load_pseudo_labels(tmp_path / "out" / cli.PSEUDO_LABELS).labels == []
    capsys.readouterr()
    for command, where in (("train-ensemble", "train-ensemble"), ("evaluate", "fold 0")):
        assert main([command, "--config", str(config_path)]) == 1, command
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith(f"error: {where}: no pseudo-labels were admitted"), line


@pytest.mark.parametrize(
    "error, code",
    [
        (RuntimeError("fold step failed"), 1),
        (cli.StaleArtifactError("fold step read a stale artifact"), 2),
        (KeyError("fold step"), 3),
    ],
)
def test_fold_worker_errors_keep_their_exit_code(pipeline, monkeypatch, capsys, error, code):
    """An error raised by the fine-tuning in a featurizer task's worker reaches
    the stage with its type, so the stage exits with its code."""
    _, config_path, _ = pipeline
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)

    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(pipeline_module, "cv_fine_tune", failing)
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config_path)]) == code
    assert capsys.readouterr().err.strip().splitlines()[-1].endswith(str(error))


@pytest.mark.parametrize(
    "stage, where, setting",
    [
        ("train-ensemble", "train-ensemble", "hyper_pseudo"),
        ("train-ensemble", "train-ensemble", "hyper_fine"),
        ("train-ensemble", "train-ensemble", "hyper_pseudo.ridge_lambda"),
        ("evaluate", "fold 0", "hyper_pseudo"),
        ("evaluate", "fold 0", "hyper_fine"),
        ("evaluate", "fold 0", "hyper_fine.ridge_lambda"),
        pytest.param(
            "evaluate", r"fold 0, archetype '\w+'", "hyper_baseline",
            id="evaluate-baseline-hyper_baseline",
        ),
    ],
)
def test_diverging_fit_exits_1_naming_its_config_key(
    pipeline, tmp_path, monkeypatch, capsys, setting, stage, where
):
    """A learning rate far too large makes an SGD loss non-finite, and so does
    a ridge penalty whose shrink step overflows. The stage exits 1 with one
    error line that names where, the archetype and seed, and the config key's
    learning rate and ridge penalty, also when the fit ran in a fold worker;
    no warning is printed. The baseline setting's early stopping would keep
    its first epoch, so it exits 1 when that is no better than the zero model
    on its holdout."""
    directory, config_path, _ = pipeline
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    shutil.copytree(directory / "out", tmp_path / "out")
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["output_dir"] = str(tmp_path / "out")
    key, _, field = setting.partition(".")  # the learning rate unless the setting names a field
    field = field or "learning_rate"
    value = {"hyper_baseline": 1e6}.get(key, 1e100) if field == "learning_rate" else 1e308
    config[key] = dict(config[key], **{field: value})
    if key == "hyper_baseline":
        config["setting"] = "baseline"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    hyper = getattr(load_config(path), key)
    capsys.readouterr()
    assert main([stage, "--config", str(path)]) == 1
    *progress, line = capsys.readouterr().err.strip().splitlines()
    assert all(p.startswith(f"[{stage}] ") for p in progress), progress
    if key == "hyper_baseline":
        cause = r"best holdout RMSE \S+ is not below the zero model's \S+"
    else:
        fine_tuning = r", fine-tuning fold \d" if key == "hyper_fine" else ""
        cause = rf"non-finite loss at step \d+ \(archetype '\w+', seed \d+{fine_tuning}\)"
    values = re.escape(
        f"{key}.learning_rate (now {hyper.learning_rate:g}) "
        f"or {key}.ridge_lambda (now {hyper.ridge_lambda:g})"
    )
    expected = rf"error: {cause} in {where}: the fit diverged; lower {values}"
    assert re.fullmatch(expected, line), line


@pytest.mark.parametrize(
    "stage, extra_folds",
    # evaluate splits each training fold again into n_folds inner folds
    [("train-ensemble", 1), ("evaluate", 0)],
)
def test_n_folds_beyond_labeled_set(pipeline, tmp_path, capsys, stage, extra_folds):
    directory, config_path, dataset = pipeline
    shutil.copytree(directory / "out", tmp_path / "out")
    config = json.loads(config_path.read_text(encoding="utf-8"))
    n_folds = len(dataset.labeled_train) + extra_folds
    config.update(output_dir=str(tmp_path / "out"), n_folds=n_folds)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    assert main([stage, "--config", str(path)]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith(f"error: n_folds is {n_folds}, more than the "), line
    assert "labeled_train" in line


def _count_embedding(monkeypatch, module):
    """Record each embed_chunks call `module` makes and each n-gram hashing."""
    passes, windows = [], []
    embed_chunks, fnv_windows = features.embed_chunks, features._fnv1a64_windows

    def counting_chunks(texts, stats_list, out=None):
        passes.append(len(stats_list))
        return embed_chunks(texts, stats_list, out)

    def counting_windows(text, n_max):
        windows.append(n_max)
        return fnv_windows(text, n_max)

    monkeypatch.setattr(module, "embed_chunks", counting_chunks)
    monkeypatch.setattr(features, "_fnv1a64_windows", counting_windows)
    return passes, windows


class TestFeaturizeStreams:
    @pytest.fixture
    def ingested(self, tmp_path, monkeypatch):
        """80 sentences, featurized 7 rows at a time; archetype 'd' repeats 'a'."""
        dataset = fixtures.make_synthetic_dataset(n_corpus=80, n_train=10, n_test=5, seed=2)
        config_path = _write_config(tmp_path, dataset)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["archetypes"].append(dict(config["archetypes"][0], name="d"))
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["ingest", "--config", str(config_path)]) == 0
        monkeypatch.setattr(features, "EMBED_CHUNK_ROWS", 7)
        return tmp_path / "out", config_path

    def test_streamed_matrices_equal_np_save(self, ingested, monkeypatch):
        """featurize only fits the stats; index embeds the store in one pass and
        writes the ids, the matrix and index.bin from that one matrix."""
        out, config_path = ingested
        passes, windows = _count_embedding(monkeypatch, features)
        before = set(out.iterdir())
        assert main(["featurize", "--config", str(config_path)]) == 0
        assert passes == [] and windows == []
        assert {p.name for p in set(out.iterdir()) - before} == {cli.FEATURE_STATS}
        before = set(out.iterdir())
        assert main(["index", "--config", str(config_path)]) == 0
        # one pass over the corpus, with the retrieval featurizer only
        assert passes == [1]
        assert len(windows) == 12  # 80 rows in chunks of 7
        written = {cli.CORPUS_IDS, cli.CORPUS_VECTORS, cli.INDEX}
        assert {p.name for p in set(out.iterdir()) - before} == written
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert set(stages["featurize"]["outputs"]) == {cli.FEATURE_STATS}
        recorded = stages["index"]
        assert set(recorded["inputs"]) == {cli.FEATURE_STATS, cli.STORE}
        assert set(recorded["outputs"]) == written
        stats = load_feature_stats(out / cli.FEATURE_STATS)
        store = load_store(out / cli.STORE)
        texts = [r.text for r in store.records]
        matrix = embed_many(texts, [stats["retrieval"]])[0].astype(np.float32)
        for name, array in ((cli.CORPUS_VECTORS, matrix), (cli.CORPUS_IDS, store.ids())):
            buffer = io.BytesIO()
            np.save(buffer, array)
            assert (out / name).read_bytes() == buffer.getvalue(), name
            # hashed as written, equal to a digest of the file
            digest = hashlib.sha256(buffer.getvalue()).hexdigest()
            assert recorded["outputs"][name] == digest, name
        index = cli.load_index(out / cli.INDEX)
        assert index.vectors.tobytes() == matrix.tobytes()
        assert index.ids.tobytes() == store.ids().tobytes()
        assert index.fingerprint == stats["retrieval"].fingerprint

    def test_evaluate_context_equals_build_context(self, ingested, monkeypatch):
        """The CLI embeds and indexes the corpus as the in-process pipeline does,
        bit for bit; nothing holds the index any more when the corpus is
        embedded under the archetypes; and archetype 'd' trains on the matrix
        of 'a', its featurizer's task's one matrix (tasks in this process, so
        that the matrices can be seen)."""
        out, config_path = ingested
        for command in ("featurize", "index"):
            assert main([command, "--config", str(config_path)]) == 0, command
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        contexts, indexes, index_alive, corpus_features = [], [], [], []
        real_load_index = cli.load_index
        real_embed_many = pipeline_module.embed_many
        real_train_stage_models = pipeline_module.train_stage_models

        def load_index(path):
            index = real_load_index(path)
            indexes.append(weakref.ref(index))
            return index

        def capture(ctx, *args, **kwargs):
            contexts.append(ctx)
            return pipeline_module.evaluate_settings(ctx, *args, **kwargs)

        def embed_many(texts, stats_list, **kwargs):
            matrices = real_embed_many(texts, stats_list, **kwargs)
            if contexts and list(texts) == [r.text for r in contexts[0].store.records]:
                index_alive.extend(ref() is not None for ref in indexes)
                corpus_features.append(
                    ([s.fingerprint for s in stats_list], [m.tobytes() for m in matrices])
                )
            return matrices

        def train_stage_models(ctx, features, *args, **kwargs):
            trained_on.append({name: id(matrix) for name, matrix in features.items()})
            return real_train_stage_models(ctx, features, *args, **kwargs)

        trained_on = []
        monkeypatch.setattr(cli, "load_index", load_index)
        monkeypatch.setattr(cli, "evaluate_settings", capture)
        monkeypatch.setattr(pipeline_module, "embed_many", embed_many)
        monkeypatch.setattr(pipeline_module, "train_stage_models", train_stage_models)
        assert main(["evaluate", "--config", str(config_path)]) == 0
        monkeypatch.undo()  # build_context below embeds the corpus too
        (ctx,) = contexts
        assert ctx.index is None
        # loaded once, and freed before the corpus is embedded under each featurizer
        assert len(indexes) == 1 and index_alive == [False, False, False]
        config = load_config(config_path)
        store = load_store(out / cli.STORE)
        expected = pipeline_module.build_context(store, config.retrieval, config.archetypes)
        stats = load_feature_stats(out / cli.FEATURE_STATS)
        for arch in expected.archetypes:
            assert arch.stats.to_dict() == stats[arch.name].to_dict()
        # embedded once per distinct featurizer, one at a time, for all the folds
        by_name = {arch.name: arch.stats for arch in expected.archetypes}
        assert [fps for fps, _ in corpus_features] == [
            [by_name[name].fingerprint] for name in ("a", "b", "c")
        ]
        texts = [r.text for r in store.records]
        for name, (_, (seen,)) in zip("abc", corpus_features):
            (matrix,) = real_embed_many(texts, [by_name[name]], dtype=np.float32)
            assert seen == matrix.tobytes(), name
        # one task per featurizer, 'd' in the task of 'a', every fold on one matrix
        assert [list(t) for t in trained_on] == [["a", "d"]] * 5 + [["b"]] * 5 + [["c"]] * 5
        assert all(t["d"] == t["a"] for t in trained_on[:5])
        assert ctx.store.records == expected.store.records
        index = real_load_index(out / cli.INDEX)
        assert index.ids.tobytes() == expected.index.ids.tobytes()
        assert index.vectors.tobytes() == expected.index.vectors.tobytes()
        assert index.fingerprint == expected.index.fingerprint

    def test_failure_mid_stream_leaves_no_partial_output(self, ingested, monkeypatch):
        out, config_path = ingested
        surface = features._surface_block
        chunks = []

        def failing_surface(texts):
            chunks.append(len(texts))
            if len(chunks) == 4:  # featurize's stats fit, then index's third chunk
                raise OSError(28, "No space left on device")
            return surface(texts)

        monkeypatch.setattr(features, "_surface_block", failing_surface)
        assert main(["featurize", "--config", str(config_path)]) == 0
        assert main(["index", "--config", str(config_path)]) == 3
        assert chunks == [80, 7, 7, 7]
        assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]
        for name in (cli.CORPUS_IDS, cli.CORPUS_VECTORS, cli.INDEX):
            assert not (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert "index" not in manifest["stages"]


@pytest.mark.parametrize("corpus", ["comma_free", "one_sentence", "two_sentences"])
def test_corpus_with_a_constant_surface_column_runs_through_evaluate(tmp_path, corpus):
    """A surface feature constant on the corpus (no commas; one sentence) is
    centred but not scaled, so a labeled sentence that differs there keeps a
    small z-score and the ridge solves stay well posed."""
    dataset = fixtures.make_synthetic_dataset(n_corpus=600, n_train=60, n_test=20)
    texts = {
        "comma_free": [r.text for r in dataset.store.records if "," not in r.text][:300],
        "one_sentence": [dataset.store.records[0].text],
        "two_sentences": ["Ab cd.", "Ef gh."],
    }[corpus]
    assert any("," in s.text for s in dataset.labeled_train)
    path = tmp_path / "constant.txt"
    path.write_text("".join(t + "\n" for t in texts), encoding="utf-8")
    config_path = _write_config(
        tmp_path, dataset, {"corpora": [{"path": str(path), "source": "news"}]}
    )
    for command in (*STAGES, "evaluate"):
        assert main([command, "--config", str(config_path)]) == 0, command


def test_archetype_changed_after_featurize_is_stale(tmp_path, capsys):
    dataset = fixtures.make_synthetic_dataset(n_corpus=80, n_train=10, n_test=5, seed=2)
    config_path = _write_config(tmp_path, dataset)
    for command in ("ingest", "featurize"):
        assert main([command, "--config", str(config_path)]) == 0, command
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["archetypes"][0]["hashed_dim"] = 256
    config_path.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    assert main(["train-ensemble", "--config", str(config_path)]) == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert "archetype 'a'" in line


def test_baseline_evaluate_reads_no_index_and_embeds_no_corpus(tmp_path, monkeypatch):
    """The baseline setting trains on the labeled set only: evaluate runs without
    an index stage, embeds no corpus, and reports what the in-process pipeline does."""
    dataset = fixtures.make_synthetic_dataset(n_corpus=300, n_train=30, n_test=10, seed=4)
    config_path = _write_config(tmp_path, dataset, {"setting": "baseline"})
    for command in ("ingest", "featurize"):
        assert main([command, "--config", str(config_path)]) == 0, command
    calls = []
    real_embed_archetypes = pipeline_module.embed_archetypes

    def counted(texts, archetypes):
        calls.append(list(texts))
        return real_embed_archetypes(texts, archetypes)

    monkeypatch.setattr(pipeline_module, "embed_archetypes", counted)
    assert main(["evaluate", "--config", str(config_path)]) == 0
    assert calls == [[s.text for s in dataset.labeled_train]]  # the labeled set only
    out = tmp_path / "out"
    assert not (out / cli.INDEX).exists()
    recorded = json.loads((out / cli.MANIFEST).read_text())["stages"]["evaluate"]
    assert cli.INDEX not in recorded["inputs"]

    config = load_config(config_path)
    ctx = pipeline_module.build_context(
        load_store(out / cli.STORE), config.retrieval, config.archetypes
    )
    labeled = load_labeled(config.labeled_train)
    plan = ensemble_module.make_fold_plan(len(labeled), config.n_folds, seed=config.fold_seed)
    (report,) = pipeline_module.evaluate_settings(ctx, labeled, ["baseline"], plan, config).values()
    assert (out / cli.EVAL_JSON).read_text() == json_text(report.to_dict())


def test_tracer_finds_every_name_it_patches():
    """perfbench/traced_cli.py patches pseudolab functions by name; all must exist."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    code = "import traced_cli; traced_cli.install(traced_cli.Tracer())"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_cli_never_imports_scipy(tmp_path):
    """No stage imports scipy, the three that solve linear systems included."""
    dataset = fixtures.make_synthetic_dataset(n_corpus=80, n_train=10, n_test=5, seed=2)
    config_path = _write_config(tmp_path, dataset)
    code = (
        "import sys; from pseudolab import cli; "
        "assert cli.main(['--version']) == 0; "
        f"stages = {[*STAGES, 'evaluate']!r}; "
        f"assert all(cli.main([s, '--config', {str(config_path)!r}]) == 0 for s in stages); "
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / cli.EVAL_JSON).exists()


def test_version_and_ingest_load_no_process_pool(tmp_path):
    """No command loads multiprocessing or concurrent.futures: not `--version` or
    `ingest`, which fork nothing, and not `index` or `predict`, whose embedding
    and scoring fork (counted here, on two CPUs)."""
    dataset = fixtures.make_synthetic_dataset(n_corpus=600, n_train=10, n_test=5, seed=2)
    config_path = _write_config(tmp_path, dataset, {"seeds": [1]})
    texts = tmp_path / "texts.txt"
    texts.write_text("".join(r.text + "\n" for r in dataset.store.records[:300]), encoding="utf-8")
    code = "\n".join([
        "import os, sys",
        "from pseudolab import cli, parallel",
        "parallel.usable_cpus = lambda: 2",
        "forks, real_fork = [], os.fork",
        "def counted_fork():",
        "    pid = real_fork()",
        "    forks.extend([pid] if pid else [])",
        "    return pid",
        "os.fork = counted_fork",
        "def run(*argv):",
        "    before = len(forks)",
        "    assert cli.main([*argv, '--config', " + repr(str(config_path)) + "]) == 0, argv",
        "    loaded = [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]",
        "    assert not loaded, (argv, loaded)",
        "    return len(forks) - before",
        "assert cli.main(['--version']) == 0",
        "assert run('ingest') == 0",
        "run('featurize')",
        "assert run('index') > 0",
        "for stage in ('train-baseline', 'pseudolabel', 'train-ensemble'):",
        "    run(stage)",
        "assert run('predict', '--input', " + repr(str(texts)) + ") > 0",
    ])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def _run_all_stages(directory: Path, dataset, texts: Path) -> dict[str, bytes]:
    """Every stage, evaluate and predict; the bytes of each artifact, bundle files by path."""
    config = str(_write_config(directory, dataset))
    for command in (*STAGES, "evaluate"):
        assert main([command, "--config", config]) == 0, command
    assert main(["predict", "--config", config, "--input", str(texts)]) == 0
    out = directory / "out"
    files = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    # the only artifacts that record the run's own paths
    del files["config_snapshot.json"], files["manifest.json"]
    return files


def _assert_same_artifacts(tmp_path, apply, values) -> None:
    """All stages, evaluate and predict of the 600-sentence fixture write the same
    bytes under apply(value) for each of the values."""
    dataset = fixtures.make_synthetic_dataset(n_corpus=600, n_train=40, n_test=10, seed=6)
    texts = tmp_path / "input.txt"
    texts.write_text("".join(r.text + "\n" for r in dataset.store.records), encoding="utf-8")
    runs = []
    for value in values:
        apply(value)
        runs.append(_run_all_stages(tmp_path / f"run_{value}", dataset, texts))
    first = runs[0]
    for name in (cli.PREDICTIONS, cli.EVAL_JSON, "bundle/manifest.json", "bundle/oof.csv"):
        assert name in first, name
    assert len(first[cli.PREDICTIONS].splitlines()) == len(dataset.store.records)
    for other in runs[1:]:
        assert other.keys() == first.keys()
        assert [p for p in first if first[p] != other[p]] == []


def test_made_by_names_the_stage_that_writes_each_artifact(tmp_path):
    """Each cli.MADE_BY artifact is an output of the stage it names in manifest.json,
    and every artifact a stage reads, but for the input files, is a MADE_BY key."""
    dataset = fixtures.make_synthetic_dataset(n_corpus=600, n_train=40, n_test=10, seed=6)
    texts = tmp_path / "input.txt"
    texts.write_text("".join(r.text + "\n" for r in dataset.store.records), encoding="utf-8")
    _run_all_stages(tmp_path, dataset, texts)
    stages = json.loads((tmp_path / "out" / cli.MANIFEST).read_text(encoding="utf-8"))["stages"]
    assert set(stages) == set(cli.COMMANDS)
    for artifact, stage in cli.MADE_BY.items():
        assert artifact in stages[stage]["outputs"], (artifact, stage)
    config = json.loads((tmp_path / "config.json").read_text(encoding="utf-8"))
    external = {
        *(entry["path"] for entry in config["corpora"]),
        config["labeled_train"],
        config["labeled_test"],
        str(texts),
    }
    read = {name for info in stages.values() for name in info["inputs"]}
    assert read - external == set(cli.MADE_BY)


def test_artifacts_are_byte_identical_on_one_and_two_workers(tmp_path, monkeypatch):
    """Corpus embedding, the folds and predict in two workers write the bytes of one."""
    _assert_same_artifacts(
        tmp_path, lambda n: monkeypatch.setattr(parallel, "usable_cpus", lambda: n), (1, 2)
    )


def test_artifacts_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    """64- and 256-row chunks write the same bytes."""
    _assert_same_artifacts(
        tmp_path, lambda rows: monkeypatch.setattr(features, "EMBED_CHUNK_ROWS", rows), (64, 256)
    )


@pytest.mark.parametrize("dies", [False, True], ids=["raises", "dies"])
def test_failing_predict_worker_leaves_no_predictions(
    pipeline, tmp_path, monkeypatch, capsys, dies
):
    """A predict worker that raises exits 1 with its message, one that dies exits 3;
    neither leaves a predictions file."""
    directory, config_path, dataset = pipeline
    shutil.copytree(directory / "out", tmp_path / "out")
    (tmp_path / "out" / cli.PREDICTIONS).unlink(missing_ok=True)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    texts = [r.text for r in dataset.store.records]
    input_path = tmp_path / "input.txt"
    input_path.write_text("".join(t + "\n" for t in texts), encoding="utf-8")
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    real = features.embed_chunks

    def failing(chunk_texts, *args, **kwargs):
        if chunk_texts[0] != texts[0]:
            if dies:
                os._exit(7)
            raise RuntimeError("scoring a later run failed")
        return real(chunk_texts, *args, **kwargs)

    monkeypatch.setattr(ensemble_module, "embed_chunks", failing)
    capsys.readouterr()
    code = main(["predict", "--config", str(path), "--input", str(input_path)])
    last = capsys.readouterr().err.strip().splitlines()[-1]
    if dies:
        assert (code, last) == (3, "internal error: a worker process died during scoring")
    else:
        assert (code, last) == (1, "error: scoring a later run failed")
    assert not (tmp_path / "out" / cli.PREDICTIONS).exists()
    assert not list((tmp_path / "out").glob(".*.tmp"))


def test_corrupt_index_under_force_is_artifact_error(tmp_path, capsys):
    dataset = fixtures.make_synthetic_dataset(n_corpus=80, n_train=10, n_test=5, seed=2)
    config_path = _write_config(tmp_path, dataset)
    for command in ("ingest", "featurize", "index", "train-baseline"):
        assert main([command, "--config", str(config_path)]) == 0, command
    index = tmp_path / "out" / cli.INDEX
    data = bytearray(index.read_bytes())
    data[-5] ^= 0x01
    index.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["pseudolabel", "--config", str(config_path), "--force"]) == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert "checksum" in line


def test_index_stage_reads_no_index_back(tmp_path, monkeypatch):
    """index writes index.bin from the matrix it embedded and reads nothing
    back: every stage that reads the index checks its payload digest."""
    dataset = fixtures.make_synthetic_dataset(n_corpus=80, n_train=10, n_test=5, seed=2)
    config_path = _write_config(tmp_path, dataset)
    for command in ("ingest", "featurize"):
        assert main([command, "--config", str(config_path)]) == 0, command
    reads = []
    monkeypatch.setattr(simindex, "_read_index_file", reads.append)
    assert main(["index", "--config", str(config_path)]) == 0
    assert reads == []
    monkeypatch.undo()
    index = cli.load_index(tmp_path / "out" / cli.INDEX)
    assert index.ids.tolist() == load_store(tmp_path / "out" / cli.STORE).ids().tolist()
