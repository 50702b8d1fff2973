"""Fault injection: every artifact a stage reads, truncated or bit-flipped, and
artifacts left behind by a store that was ingested again.

Each fault must end in exit 2 (stale or corrupt artifact) with one line on
stderr naming the artifact, never in an exit-3 traceback.
"""

import json
import shutil
from pathlib import Path

import pytest

from pseudolab import cli, fixtures
from pseudolab.cli import main
from pseudolab.features import MAX_TOKENS, SURFACE_DIM

TRAINING_STAGES = (
    "ingest",
    "featurize",
    "index",
    "train-baseline",
    "pseudolabel",
    "train-ensemble",
)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The 600-sentence fixture run through train-ensemble with the default featurizers."""
    directory = tmp_path_factory.mktemp("faults")
    dataset = fixtures.make_synthetic_dataset(n_corpus=600, n_train=60, n_test=20)
    config = {
        "corpora": fixtures.write_corpus_files(dataset.store, directory / "corpus"),
        "labeled_train": str(directory / "train.tsv"),
        "labeled_test": str(directory / "test.tsv"),
        "output_dir": str(directory / "out"),
        "k": 100,
    }
    fixtures.write_labeled_tsv(dataset.labeled_train, directory / "train.tsv")
    fixtures.write_labeled_tsv(dataset.labeled_test, directory / "test.tsv")
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    for stage in TRAINING_STAGES:
        assert main([stage, "--config", str(config_path)]) == 0, stage
    sentences = directory / "sentences.txt"
    sentences.write_text("".join(s.text + "\n" for s in dataset.labeled_test), encoding="utf-8")
    return directory / "out", config_path, sentences


def _bundle_model(out: Path) -> str:
    return f"{cli.BUNDLE}/models/{sorted((out / cli.BUNDLE / 'models').iterdir())[0].name}"


# (file, stage that reads it, the artifact name the error must give)
CASES = [
    (cli.STORE, "featurize", cli.STORE),
    (cli.FEATURE_STATS, "index", cli.FEATURE_STATS),
    (cli.STORE, "index", cli.STORE),
    (cli.STORE, "train-ensemble", cli.STORE),
    (cli.INDEX, "pseudolabel", cli.INDEX),
    (cli.BASELINE_MODEL, "pseudolabel", cli.BASELINE_MODEL),
    (cli.PSEUDO_LABELS, "train-ensemble", cli.PSEUDO_LABELS),
    (f"{cli.BUNDLE}/manifest.json", "predict", cli.BUNDLE),
    (_bundle_model, "predict", cli.BUNDLE),
]


def _truncate(data: bytes) -> bytes:
    return data[: len(data) // 2]


def _flip_byte(data: bytes) -> bytes:
    flipped = bytearray(data)
    flipped[len(data) // 2] ^= 0x01
    return bytes(flipped)


@pytest.mark.parametrize("fault", [_truncate, _flip_byte], ids=["truncated", "bit-flipped"])
@pytest.mark.parametrize(
    "relative, stage, artifact",
    CASES,
    ids=["store", "feature_stats", "store_at_index", "store_at_train_ensemble",
         "index", "baseline_model", "pseudo_labels", "bundle_manifest", "bundle_model"],
)
def test_corrupt_artifact_is_named(trained, capsys, fault, relative, stage, artifact):
    out, config_path, sentences = trained
    relative = relative(out) if callable(relative) else relative
    artifact = artifact(out) if callable(artifact) else artifact
    path = out / relative
    original = path.read_bytes()
    argv = [stage, "--config", str(config_path)]
    if stage == "predict":
        argv += ["--input", str(sentences)]
    capsys.readouterr()
    try:
        path.write_bytes(fault(original))
        code = main(argv)
    finally:
        path.write_bytes(original)
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2, lines
    assert len(lines) == 1, lines
    assert repr(artifact) in lines[0]


@pytest.mark.parametrize(
    "relative, stage, artifact",
    CASES,
    ids=["store", "feature_stats", "store_at_index", "store_at_train_ensemble",
         "index", "baseline_model", "pseudo_labels", "bundle_manifest", "bundle_model"],
)
def test_truncated_artifact_under_force_is_named(trained, capsys, relative, stage, artifact):
    """--force skips the digest check, so the reader itself must name the artifact.

    The store is read like an input file: a cut line exits 1 and names the
    file and line (see TestBadInputFiles in test_cli.py).
    """
    out, config_path, sentences = trained
    relative = relative(out) if callable(relative) else relative
    artifact = artifact(out) if callable(artifact) else artifact
    path = out / relative
    original = path.read_bytes()
    argv = [stage, "--config", str(config_path), "--force"]
    if stage == "predict":
        argv += ["--input", str(sentences)]
    capsys.readouterr()
    try:
        path.write_bytes(_truncate(original))
        code = main(argv)
    finally:
        path.write_bytes(original)
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    if relative == cli.STORE:
        assert code == 1, lines
        assert f"{cli.STORE}: line " in lines[0]
    else:
        assert code == 2, lines
        assert repr(artifact) in lines[0]


@pytest.mark.parametrize("force", [False, True], ids=["no-force", "force"])
@pytest.mark.parametrize(
    "fault",
    [
        _truncate,
        lambda data: b"\xff" + data,
        lambda data: b"[]\n",
        lambda data: b'{"stages": {"ingest": {"outputs": {}}}}',
    ],
    ids=["truncated", "unparseable", "not-a-record", "record-without-inputs"],
)
def test_corrupt_run_manifest_is_named(trained, capsys, fault, force):
    out, config_path, _ = trained
    path = out / "manifest.json"
    original = path.read_bytes()
    capsys.readouterr()
    try:
        path.write_bytes(fault(original))
        code = main(["index", "--config", str(config_path), *(["--force"] if force else [])])
    finally:
        path.write_bytes(original)
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2, lines
    assert len(lines) == 1, lines
    assert "'manifest.json'" in lines[0]


@pytest.mark.parametrize(
    "relative, stage, artifact",
    [
        (cli.MANIFEST, "featurize", cli.MANIFEST),
        (cli.STORE, "featurize", cli.STORE),
        (cli.FEATURE_STATS, "index", cli.FEATURE_STATS),
        (cli.BASELINE_MODEL, "pseudolabel", cli.BASELINE_MODEL),
        (cli.PSEUDO_LABELS, "train-ensemble", cli.PSEUDO_LABELS),
        (f"{cli.BUNDLE}/manifest.json", "predict", cli.BUNDLE),
        (_bundle_model, "predict", cli.BUNDLE),
    ],
    ids=["manifest", "store", "feature_stats", "baseline_model", "pseudo_labels",
         "bundle_manifest", "bundle_model"],
)
def test_json_nested_too_deeply_under_force_is_named(trained, capsys, relative, stage, artifact):
    """A first line of 100,000 nested arrays makes the JSON parser raise
    RecursionError, a RuntimeError: the artifact is named as corrupt (exit 2),
    not reported as a bare recursion error (exit 1)."""
    out, config_path, sentences = trained
    relative = relative(out) if callable(relative) else relative
    path = out / relative
    original = path.read_bytes()
    argv = [stage, "--config", str(config_path), "--force"]
    if stage == "predict":
        argv += ["--input", str(sentences)]
    capsys.readouterr()
    try:
        path.write_bytes(b"[" * 100_000 + b"\n" + original)
        code = main(argv)
    finally:
        path.write_bytes(original)
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2, lines
    assert len(lines) == 1, lines
    assert repr(artifact) in lines[0]
    assert "recursion" in lines[0]


def _feature_stats_entries(relative: str, payload) -> list[dict]:
    """Every featurizer's stats in the payload of feature_stats.json or the bundle manifest."""
    if relative == cli.FEATURE_STATS:
        return list(payload.values())
    return [spec["stats"] for spec in payload["archetypes"].values()]


def _set_feature_stats(relative: str, field: str, value):
    """Rewrite every featurizer's `field` in feature_stats.json or the bundle manifest."""

    def rewrite(payload):
        for entry in _feature_stats_entries(relative, payload):
            entry[field] = value
        return payload

    return rewrite


@pytest.mark.parametrize(
    "field, value",
    [
        ("means", [0.0] * (SURFACE_DIM - 1)),
        ("stds", [1.0] * (SURFACE_DIM + 1)),
        ("stds", [0.0] * SURFACE_DIM),
        ("means", [float("nan")] * SURFACE_DIM),
    ],
    ids=["short-means", "long-stds", "zero-stds", "nan-means"],
)
@pytest.mark.parametrize(
    "relative, stage, artifact",
    [
        (cli.FEATURE_STATS, "train-baseline", cli.FEATURE_STATS),
        (f"{cli.BUNDLE}/manifest.json", "predict", cli.BUNDLE),
    ],
    ids=["feature_stats", "bundle_manifest"],
)
def test_parseable_bad_feature_stats_under_force_are_named(
    trained, capsys, relative, stage, artifact, field, value
):
    """Stats that still parse but cannot standardize a row are a corrupt artifact."""
    out, config_path, sentences = trained
    path = out / relative
    original = path.read_bytes()
    argv = [stage, "--config", str(config_path), "--force"]
    if stage == "predict":
        argv += ["--input", str(sentences)]
    capsys.readouterr()
    try:
        payload = _set_feature_stats(relative, field, value)(json.loads(original))
        path.write_text(json.dumps(payload), encoding="utf-8")
        code = main(argv)
    finally:
        path.write_bytes(original)
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2, lines
    assert len(lines) == 1, lines
    assert repr(artifact) in lines[0]
    assert f"feature stats {field}" in lines[0]


def _copy_run(trained, tmp_path: Path, **changes) -> Path:
    """A copy of the trained run under tmp_path, its config changed by `changes`; its config."""
    out, config_path, _ = trained
    shutil.copytree(out, tmp_path / "out")
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config.update(changes, output_dir=str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _reingest_first_file(trained, tmp_path: Path) -> Path:
    """A copy of the trained run whose store holds only the first corpus file; its config."""
    corpora = json.loads(trained[1].read_text(encoding="utf-8"))["corpora"]
    path = _copy_run(trained, tmp_path, corpora=corpora[:1])
    assert main(["ingest", "--config", str(path)]) == 0
    return path


@pytest.mark.parametrize("stage", ["pseudolabel", "evaluate"])
def test_an_index_of_another_retrieval_featurizer_is_named(trained, tmp_path, capsys, stage):
    """featurize ran again with another retrieval featurizer and index did not:
    under --force, the index read is refused as stale, not queried with
    vectors of another featurizer."""
    path = _copy_run(trained, tmp_path, retrieval={"hashed_dim": 512})
    assert main(["featurize", "--config", str(path)]) == 0
    capsys.readouterr()
    code = main([stage, "--config", str(path), "--force"])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2, lines
    assert len(lines) == 1, lines
    for name in (cli.INDEX, "index"):
        assert repr(name) in lines[0], lines[0]


@pytest.mark.parametrize(
    "stage, force, artifact",
    [
        ("pseudolabel", False, cli.FEATURE_STATS),
        ("train-ensemble", False, cli.FEATURE_STATS),
        ("evaluate", False, cli.FEATURE_STATS),
        ("pseudolabel", True, cli.INDEX),
        ("train-ensemble", True, cli.PSEUDO_LABELS),
        ("evaluate", True, cli.INDEX),
    ],
    ids=["pseudolabel", "train-ensemble", "evaluate",
         "pseudolabel-force", "train-ensemble-force", "evaluate-force"],
)
def test_artifacts_of_an_older_store_are_named(trained, tmp_path, capsys, stage, force, artifact):
    """After `ingest` runs again on the first corpus file only, every downstream
    artifact was made from an older store. Without --force the manifest's
    lineage refuses the first one read; with --force, the index and the
    pseudo-labels hold ids the new store lacks, and that names them."""
    path = _reingest_first_file(trained, tmp_path)
    capsys.readouterr()
    code = main([stage, "--config", str(path), *(["--force"] if force else [])])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2, lines
    assert len(lines) == 1, lines
    assert repr(artifact) in lines[0]
    if force:
        assert "id " in lines[0] and repr(cli.STORE) in lines[0]
    else:
        assert f"made from an older {cli.STORE!r}; re-run the 'featurize' stage" in lines[0]


def test_lineage_is_checked_one_stage_at_a_time(trained, tmp_path, capsys):
    """Once featurize has run on the new store, the index is the artifact made
    from older inputs, and once index has run, the baseline model is."""
    path = _reingest_first_file(trained, tmp_path)
    expected = [
        ("featurize", cli.INDEX, cli.FEATURE_STATS, "index"),  # its first input by name
        ("index", cli.BASELINE_MODEL, cli.FEATURE_STATS, "train-baseline"),
    ]
    for rerun, artifact, source, producer in expected:
        assert main([rerun, "--config", str(path)]) == 0, rerun
        capsys.readouterr()
        assert main(["pseudolabel", "--config", str(path)]) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == (
            f"error: artifact {artifact!r} was made from an older {source!r}; "
            f"re-run the {producer!r} stage"
        )
    assert main(["train-baseline", "--config", str(path)]) == 0
    assert main(["pseudolabel", "--config", str(path)]) == 0


def _one_error_line(capsys, argv, *names):
    """Run argv; it must exit 2 with one line on stderr that names each of `names`."""
    capsys.readouterr()
    code = main(argv)
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2, lines
    assert len(lines) == 1, lines
    for name in names:
        assert repr(name) in lines[0], lines[0]
    return lines[0]


@pytest.mark.parametrize("stage", ["index", "train-baseline", "pseudolabel"])
def test_feature_stats_without_the_retrieval_featurizer_are_named(
    trained, tmp_path, capsys, stage
):
    """Under --force, a feature_stats.json that parses but lacks the retrieval
    entry is a stale artifact, not a KeyError."""
    path = _copy_run(trained, tmp_path)
    stats_path = tmp_path / "out" / cli.FEATURE_STATS
    payload = json.loads(stats_path.read_text(encoding="utf-8"))
    del payload["retrieval"]
    stats_path.write_text(json.dumps(payload), encoding="utf-8")
    line = _one_error_line(
        capsys, [stage, "--config", str(path), "--force"], cli.FEATURE_STATS, "featurize"
    )
    assert "retrieval featurizer" in line


@pytest.mark.parametrize("stage", ["index", "train-baseline"])
def test_retrieval_changed_after_featurize_is_stale(trained, tmp_path, capsys, stage):
    """A stage that reads the retrieval featurizer checks it against the config,
    as every reader of feature_stats.json checks the archetypes."""
    path = _copy_run(trained, tmp_path, retrieval={"hashed_dim": 512})
    _one_error_line(capsys, [stage, "--config", str(path)], cli.FEATURE_STATS, "featurize")


def test_a_baseline_model_of_another_retrieval_featurizer_is_named(trained, tmp_path, capsys):
    """featurize and index ran again with another retrieval featurizer and
    train-baseline did not: under --force the gate is refused, not used to
    score vectors of another width."""
    path = _copy_run(trained, tmp_path, retrieval={"hashed_dim": 512})
    for stage in ("featurize", "index"):
        assert main([stage, "--config", str(path)]) == 0, stage
    _one_error_line(
        capsys, ["pseudolabel", "--config", str(path), "--force"],
        cli.BASELINE_MODEL, "train-baseline",
    )


def _drop_last_weight(model: Path) -> None:
    payload = json.loads(model.read_text(encoding="utf-8"))
    payload["weights"] = payload["weights"][:-1]
    model.write_text(json.dumps(payload), encoding="utf-8")


@pytest.mark.parametrize(
    "edit", [Path.unlink, _drop_last_weight], ids=["deleted", "one-weight-short"]
)
def test_a_bundle_model_that_cannot_score_is_named(trained, tmp_path, capsys, edit):
    """Under --force, a bundle whose model file is gone, or does not fit its
    archetype's featurizer, is a stale artifact, not an internal error."""
    path = _copy_run(trained, tmp_path)
    edit(tmp_path / "out" / _bundle_model(tmp_path / "out"))
    _one_error_line(
        capsys, ["predict", "--config", str(path), "--force", "--input", str(trained[2])],
        cli.BUNDLE,
    )



@pytest.mark.parametrize(
    "relative, stage, artifact",
    [
        (cli.FEATURE_STATS, "train-baseline", cli.FEATURE_STATS),
        (f"{cli.BUNDLE}/manifest.json", "predict", cli.BUNDLE),
    ],
    ids=["feature_stats", "bundle_manifest"],
)
def test_feature_stats_of_another_max_tokens_are_named(
    trained, tmp_path, capsys, relative, stage, artifact
):
    """Every text is truncated to MAX_TOKENS tokens: under --force, stats that
    record another truncation are a corrupt artifact, not stats to embed with."""
    path = _copy_run(trained, tmp_path)
    stats_path = tmp_path / "out" / relative
    payload = json.loads(stats_path.read_text(encoding="utf-8"))
    for entry in _feature_stats_entries(relative, payload):
        entry["config"]["max_tokens"] = 64
    stats_path.write_text(json.dumps(payload), encoding="utf-8")
    argv = [stage, "--config", str(path), "--force"]
    if stage == "predict":
        argv += ["--input", str(trained[2])]
    line = _one_error_line(capsys, argv, artifact)
    assert f"max_tokens must be {MAX_TOKENS}, got 64" in line



def _rewrite_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


def _nan_weight(model: dict) -> None:
    model["weights"][0] = float("nan")


def _inf_intercept(model: dict) -> None:
    model["intercept"] = float("inf")


@pytest.mark.parametrize("edit", [_nan_weight, _inf_intercept], ids=["nan-weight", "inf-intercept"])
@pytest.mark.parametrize(
    "relative, stage, artifact",
    [
        (cli.BASELINE_MODEL, "pseudolabel", cli.BASELINE_MODEL),
        (_bundle_model, "predict", cli.BUNDLE),
    ],
    ids=["baseline_model", "bundle_model"],
)
def test_a_model_with_a_non_finite_weight_is_named(
    trained, tmp_path, capsys, relative, stage, artifact, edit
):
    """Under --force, a model file whose JSON holds NaN or Infinity is a corrupt
    artifact: not a gate that admits no pseudo-label, nor a bundle that scores
    nan."""
    path = _copy_run(trained, tmp_path)
    out = tmp_path / "out"
    _rewrite_json(out / (relative(out) if callable(relative) else relative), edit)
    argv = [stage, "--config", str(path), "--force"]
    if stage == "predict":
        argv += ["--input", str(trained[2])]
    line = _one_error_line(capsys, argv, artifact)
    assert "must be finite" in line


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m.update(aggregation="median"),
        lambda m: m.update(aggregation="stacker", stacker_weights=None),
        lambda m: m.update(aggregation="stacker", stacker_weights=m["stacker_weights"][:-1]),
        lambda m: m.update(base_keys=m["base_keys"][::-1]),
        lambda m: m.update(base_keys=m["base_keys"][:-1]),
    ],
    ids=["median", "stacker-without-weights", "stacker-one-weight-short",
         "base-keys-reordered", "base-keys-one-short"],
)
def test_a_bundle_that_cannot_aggregate_is_named(trained, tmp_path, capsys, edit):
    """Under --force, a bundle manifest whose aggregation, stacker weights or
    base keys do not fit its models is a corrupt artifact: not scores by
    another aggregation, nor an internal error."""
    path = _copy_run(trained, tmp_path)
    _rewrite_json(tmp_path / "out" / cli.BUNDLE / "manifest.json", edit)
    _one_error_line(
        capsys, ["predict", "--config", str(path), "--force", "--input", str(trained[2])],
        cli.BUNDLE,
    )


@pytest.mark.parametrize(
    "score", [float("nan"), 1e39, float("-inf")], ids=["nan", "past-float32", "minus-inf"]
)
def test_a_pseudo_label_score_that_cannot_train_is_named(trained, tmp_path, capsys, score):
    """Under --force, a pseudo-label whose predicted_score is no finite float32
    number is a corrupt artifact, not an internal error in the pseudo stage."""
    path = _copy_run(trained, tmp_path)
    labels_path = tmp_path / "out" / cli.PSEUDO_LABELS
    first, *rest = labels_path.read_text(encoding="utf-8").splitlines(keepends=True)
    label = json.loads(first)
    label["predicted_score"] = score
    labels_path.write_text(json.dumps(label) + "\n" + "".join(rest), encoding="utf-8")
    line = _one_error_line(
        capsys, ["train-ensemble", "--config", str(path), "--force"], cli.PSEUDO_LABELS
    )
    assert "predicted_score" in line


def _rewrite_first_record(path: Path, **changes) -> None:
    """Set `changes` in the first record of a jsonl artifact."""
    first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(first)
    record.update(changes)
    path.write_text(json.dumps(record) + "\n" + "".join(rest), encoding="utf-8")


# JSON values that Python's int() takes, but that are no 64-bit integer id
NOT_AN_ID = [2**70, 1e20, True, 5.0, "5"]
NOT_AN_ID_IDS = ["2**70", "1e20", "true", "5.0", "string"]


@pytest.mark.parametrize("value", NOT_AN_ID, ids=NOT_AN_ID_IDS)
@pytest.mark.parametrize("stage", ["featurize", "train-ensemble"])
def test_a_store_id_that_is_no_64_bit_integer_is_named(trained, tmp_path, capsys, stage, value):
    """Under --force, a store record whose id is no JSON integer of 64 bits is a
    bad line of the store, which is read like an input file: exit 1 naming the
    file and line, not an overflow when the ids become an int64 array."""
    path = _copy_run(trained, tmp_path)
    _rewrite_first_record(tmp_path / "out" / cli.STORE, id=value)
    capsys.readouterr()
    code = main([stage, "--config", str(path), "--force"])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 1, lines
    assert len(lines) == 1, lines
    assert f"{cli.STORE}: line 1: " in lines[0] and "64 bits" in lines[0]


@pytest.mark.parametrize("stage", ["featurize", "index", "train-ensemble"])
def test_a_repeated_store_id_is_named(trained, tmp_path, capsys, stage):
    """Under --force, a store record that repeats an earlier record's id is a
    bad line of the store: exit 1 naming the file and the line, not an index
    of ids that are not distinct."""
    path = _copy_run(trained, tmp_path)
    store = tmp_path / "out" / cli.STORE
    lines = store.read_text(encoding="utf-8").splitlines(keepends=True)
    repeated = json.loads(lines[1])["id"]
    lines[4] = json.dumps(dict(json.loads(lines[4]), id=repeated)) + "\n"
    store.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    code = main([stage, "--config", str(path), "--force"])
    errors = capsys.readouterr().err.strip().splitlines()
    assert code == 1, errors
    assert len(errors) == 1, errors
    assert f"{store}: line 5: id {repeated} is used by an earlier line" in errors[0]


@pytest.mark.parametrize("stage", ["featurize", "index", "train-ensemble"])
def test_a_store_without_sentences_is_named(trained, tmp_path, capsys, stage):
    """ingest never writes a store with no sentences, so under --force such a
    store is a stale artifact naming ingest, not an internal error."""
    path = _copy_run(trained, tmp_path)
    (tmp_path / "out" / cli.STORE).write_text("\n", encoding="utf-8")
    line = _one_error_line(capsys, [stage, "--config", str(path), "--force"], cli.STORE, "ingest")
    assert "holds no sentences" in line


@pytest.mark.parametrize("force", [False, True], ids=["no-force", "force"])
def test_index_rewrites_the_corpus_arrays_it_does_not_read(trained, tmp_path, force):
    """index embeds the store itself: with both .npy files deleted it still
    runs, and writes them again, byte for byte, with index.bin."""
    out, _, _ = trained
    path = _copy_run(trained, tmp_path)
    for name in (cli.CORPUS_IDS, cli.CORPUS_VECTORS):
        (tmp_path / "out" / name).unlink()
    assert main(["index", "--config", str(path), *(["--force"] if force else [])]) == 0
    for name in (cli.CORPUS_IDS, cli.CORPUS_VECTORS, cli.INDEX):
        assert (tmp_path / "out" / name).read_bytes() == (out / name).read_bytes(), name


@pytest.mark.parametrize("value", NOT_AN_ID, ids=NOT_AN_ID_IDS)
def test_a_pseudo_label_id_that_is_no_64_bit_integer_is_named(trained, tmp_path, capsys, value):
    """Under --force, a pseudo-label whose sentence_id is no JSON integer of 64
    bits is a corrupt artifact, not an overflow in the pseudo stage."""
    path = _copy_run(trained, tmp_path)
    _rewrite_first_record(tmp_path / "out" / cli.PSEUDO_LABELS, sentence_id=value)
    line = _one_error_line(
        capsys, ["train-ensemble", "--config", str(path), "--force"], cli.PSEUDO_LABELS
    )
    assert "sentence_id" in line and "64 bits" in line


@pytest.mark.parametrize(
    "relative, stage, artifact",
    [
        (cli.BASELINE_MODEL, "pseudolabel", cli.BASELINE_MODEL),
        (_bundle_model, "predict", cli.BUNDLE),
    ],
    ids=["baseline_model", "bundle_model"],
)
def test_a_model_with_nested_weights_is_named(trained, tmp_path, capsys, relative, stage, artifact):
    """Under --force, a model file whose weights are all there but one list down
    is a corrupt artifact, not a gate of dimension 1 that fails to score."""
    path = _copy_run(trained, tmp_path)
    out = tmp_path / "out"
    _rewrite_json(
        out / (relative(out) if callable(relative) else relative),
        lambda model: model.update(weights=[model["weights"]]),
    )
    argv = [stage, "--config", str(path), "--force"]
    if stage == "predict":
        argv += ["--input", str(trained[2])]
    line = _one_error_line(capsys, argv, artifact)
    assert "flat list" in line


def test_a_bundle_without_models_is_named(trained, tmp_path, capsys):
    """Under --force, a bundle manifest that lists no models and no base keys is
    a corrupt artifact, not a bundle that scores every sentence nan."""
    path = _copy_run(trained, tmp_path)
    _rewrite_json(
        tmp_path / "out" / cli.BUNDLE / "manifest.json",
        lambda m: m.update(models=[], base_keys=[]),
    )
    line = _one_error_line(
        capsys, ["predict", "--config", str(path), "--force", "--input", str(trained[2])],
        cli.BUNDLE,
    )
    assert "no models" in line


@pytest.mark.parametrize(
    "name, field, value",
    [
        ("char24_mid_s1_f0.json", "archetype", "x"),
        ("char24_mid_s1_f0.json", "archetype", "char35_wide"),
        ("char24_mid_s1_f0.json", "seed", 2),
        ("char24_mid_s2_f0.json", "seed", 1),  # the distinct keys keep their order
    ],
    ids=["unknown-archetype", "other-archetype", "other-seed", "seed-of-the-key-before"],
)
def test_a_bundle_model_of_another_key_is_named(trained, tmp_path, capsys, name, field, value):
    """A fold model's (archetype, seed) key is its model file's. Under --force,
    a file whose key is not the one its manifest entry names it by is a
    corrupt bundle: not an internal error, nor a model pooled under another key."""
    path = _copy_run(trained, tmp_path)
    _rewrite_json(
        tmp_path / "out" / cli.BUNDLE / "models" / name, lambda model: model.update({field: value})
    )
    line = _one_error_line(
        capsys, ["predict", "--config", str(path), "--force", "--input", str(trained[2])],
        cli.BUNDLE,
    )
    assert name in line


# Each value is set in turn in every field of each record below; `[[1.0]]` is a
# list of lists, as weights one level down are.
MUTANTS = [None, True, "x", 2**70, 1e300, -1, [], {}, [[1.0]], 0]


def _whole(document):
    return document


# (label, file, the stage that reads it, the record in its JSON whose fields
# are set; in a jsonl file, its first line). Readers of an artifact come before
# the stage that writes it, so what a case's stage writes no later case reads.
MUTATED_RECORDS = [
    ("bundle_manifest", f"{cli.BUNDLE}/manifest.json", "predict", _whole),
    ("bundle_model", _bundle_model, "predict", _whole),
    ("pseudo_labels", cli.PSEUDO_LABELS, "train-ensemble", _whole),
    ("store", cli.STORE, "train-ensemble", _whole),
    ("baseline_model", cli.BASELINE_MODEL, "pseudolabel", _whole),
    ("store", cli.STORE, "pseudolabel", _whole),
    ("feature_stats_retrieval", cli.FEATURE_STATS, "index", lambda d: d["retrieval"]),
    ("feature_stats_retrieval_config", cli.FEATURE_STATS, "index",
     lambda d: d["retrieval"]["config"]),
    ("store", cli.STORE, "featurize", _whole),
    ("store", cli.STORE, "evaluate", _whole),
    ("feature_stats_archetype", cli.FEATURE_STATS, "evaluate", lambda d: d["char35_wide"]),
    ("feature_stats_archetype_config", cli.FEATURE_STATS, "evaluate",
     lambda d: d["char35_wide"]["config"]),
]


def test_valid_json_of_the_wrong_shape_never_exits_3(trained, tmp_path, capsys):
    """Every field of each record above, set to each of MUTANTS and read under
    --force by its stage, exits 0, 1 or 2; an exit of 1 or 2 prints one error
    line, and no case is an internal error.

    The copy of the run trains with one seed, not three, so that the cases
    that train an ensemble, and `predict`'s reads of its bundle, stay short.
    """
    path = _copy_run(trained, tmp_path, seeds=[1])
    assert main(["train-ensemble", "--config", str(path)]) == 0
    out = tmp_path / "out"
    failures = []
    cases = 0
    for label, relative, stage, record_of in MUTATED_RECORDS:
        file = out / (relative(out) if callable(relative) else relative)
        original = file.read_text(encoding="utf-8")
        jsonl = file.suffix == ".jsonl"
        head, _, rest = original.partition("\n") if jsonl else (original, "", "")
        fields = list(record_of(json.loads(head)))
        argv = [stage, "--config", str(path), "--force"]
        if stage == "predict":
            argv += ["--input", str(trained[2])]
        for field in fields:
            for value in MUTANTS:
                document = json.loads(head)
                record_of(document)[field] = value
                text = json.dumps(document) + ("\n" + rest if jsonl else "")
                file.write_text(text, encoding="utf-8")
                capsys.readouterr()
                try:
                    code = main(argv)
                finally:
                    file.write_text(original, encoding="utf-8")
                cases += 1
                err = capsys.readouterr().err
                errors = [line for line in err.splitlines() if not line.startswith("[")]
                one_error = len(errors) == 1 and errors[0].startswith("error: ")
                if "internal error" in err or code not in (0, 1, 2) or (code and not one_error):
                    failures.append(f"{label}.{field} = {value!r} at {stage}: exit {code}, "
                                    f"{len(errors)} lines, the last {errors[-1:]}")
    assert not failures, f"{len(failures)} of {cases} cases:\n" + "\n".join(failures)
