"""Exit-code oracles over config values and input files: every settable
config value, set to a hostile JSON value, and every stage from the first that
reads it through `evaluate` run under --force, ends in exit 0, 1 or 2; an error
is one line naming the key (or, for a path, the path), and never an internal
error. The same holds for a hostile corpus file or labeled set run through
`ingest` ... `train-baseline`, whose error names the file.

The hostile integers are the edges of the id, index and int64 ranges and a
few small ones. A featurizer width between those (say 2**22) is no named
error but a matrix that may not fit: the stages refuse only one above
features.MAX_MATRIX_BYTES, so such a case would measure the machine, not the
program.
"""

import json
import shutil
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pseudolab import cli, fixtures, parallel
from pseudolab.corpus import FORMATS
from pseudolab.pipeline import SETTINGS

STAGES = list(cli.COMMANDS)[:-1]  # ingest ... evaluate; predict reads no config value

# each settable value (tests/test_source.py lists them) and the first stage that reads it
FIRST_READER = {
    "k": "pseudolabel",
    "n_folds": "train-ensemble",
    "seeds": "train-ensemble",
    "hyper_pseudo.learning_rate": "train-ensemble",
    "hyper_pseudo.max_epochs": "train-ensemble",
    "hyper_pseudo.ridge_lambda": "train-ensemble",
    "hyper_fine.learning_rate": "train-ensemble",
    "hyper_fine.max_epochs": "train-ensemble",
    "hyper_fine.ridge_lambda": "train-ensemble",
    "hyper_baseline.learning_rate": "train-baseline",
    "hyper_baseline.max_epochs": "train-baseline",
    "hyper_baseline.ridge_lambda": "train-baseline",
    "corpora[].path": "ingest",
    "corpora[].source": "ingest",
    "corpora[].format": "ingest",
    "labeled_train": "train-baseline",
    "output_dir": "ingest",
    "labeled_test": "pseudolabel",
    "retrieval.hashed_dim": "featurize",
    "retrieval.ngram_min": "featurize",
    "retrieval.ngram_max": "featurize",
    "archetypes[].name": "featurize",
    "archetypes[].hashed_dim": "featurize",
    "archetypes[].ngram_min": "featurize",
    "archetypes[].ngram_max": "featurize",
    "archetypes[].batch_size": "train-ensemble",
    "fold_seed": "train-ensemble",
    "setting": "train-ensemble",
}
PATHS = {"corpora[].path", "labeled_train", "output_dir", "labeled_test"}

EDGE_INTEGERS = st.sampled_from([
    -(2**70), -(2**63) - 1, -(2**63), -1, 0, 1, 2, 3, 2**31 - 1, 2**31, 2**32,
    2**63 - 1, 2**63, 2**64, 2**70,
])
TEXTS = st.text(max_size=12) | st.sampled_from(
    ["", ".", "..", " ", "retrieval", "a", "b", *FORMATS, *SETTINGS]
)
SCALARS = st.none() | st.booleans() | EDGE_INTEGERS | st.floats() | TEXTS
# each branch as likely: the right type for most keys (an edge integer, a
# float, a text, a list of integers) is as likely as a wrong one
HOSTILE = st.one_of(
    EDGE_INTEGERS,
    st.floats(),
    TEXTS,
    st.lists(EDGE_INTEGERS, max_size=3),
    st.none() | st.booleans(),
    st.lists(SCALARS, max_size=3),
    st.dictionaries(TEXTS, SCALARS, max_size=2),
)


DATASET = fixtures.make_synthetic_dataset(n_corpus=120, n_train=20, n_test=6, seed=3)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small run through train-ensemble: 120 sentences, one seed, two archetypes."""
    directory = tmp_path_factory.mktemp("oracle")
    fixtures.write_labeled_tsv(DATASET.labeled_train, directory / "train.tsv")
    fixtures.write_labeled_tsv(DATASET.labeled_test, directory / "test.tsv")
    config = {
        "corpora": fixtures.write_corpus_files(DATASET.store, directory / "corpus"),
        "labeled_train": str(directory / "train.tsv"),
        "labeled_test": str(directory / "test.tsv"),
        "output_dir": str(directory / "out"),
        "retrieval": {"hashed_dim": 64, "ngram_min": 3, "ngram_max": 4},
        "archetypes": [
            {"name": "a", "hashed_dim": 32, "ngram_min": 3, "ngram_max": 4},
            {"name": "b", "hashed_dim": 16, "ngram_min": 2, "ngram_max": 3, "batch_size": 8},
        ],
        "k": 10,
        "seeds": [1],
        "n_folds": 3,
        "hyper_pseudo": {"max_epochs": 2},
        "hyper_fine": {"max_epochs": 2},
        "hyper_baseline": {"max_epochs": 2},
    }
    path = directory / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    for stage in STAGES[:-1]:
        assert cli.main([stage, "--config", str(path)]) == 0, stage
    return directory, config


def _set(config: dict, key: str, value) -> dict:
    """A copy of `config` with `key` (first entry of a list for `[]`) set to `value`."""
    config = json.loads(json.dumps(config))
    *parents, leaf = key.split(".")
    node = config
    for name in parents:
        if name.endswith("[]"):
            node = node[name[:-2]][0]
        else:
            node = node.setdefault(name, {})
    node[leaf] = value
    return config


ORACLE_SETTINGS = settings(
    derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


def _run(stage: str, config_path, capsys) -> tuple[int, str, list[str]]:
    """Run one stage in process under --force: its exit code, its stderr and
    the stderr lines that are not progress lines."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # as the command line shows them: not errors
        code = cli.main([stage, "--config", str(config_path), "--force"])
    err = capsys.readouterr().err
    return code, err, [line for line in err.strip().split("\n") if not line.startswith("[")]


def _names(line: str, key: str, value) -> bool:
    """Whether an error line names the key, or for a path the path it quotes."""
    leaf = key.split(".")[-1].removesuffix("[]")
    return leaf in line or (key in PATHS and isinstance(value, str) and repr(value) in line)


@settings(ORACLE_SETTINGS, max_examples=400)
@given(key=st.sampled_from(sorted(FIRST_READER)), value=HOSTILE)
def test_a_hostile_config_value_never_exits_3(trained, tmp_path_factory, monkeypatch, capsys,
                                               key, value):
    directory, config = trained
    run = tmp_path_factory.mktemp("case")
    shutil.copytree(directory / "out", run / "out")
    if key == "output_dir" and isinstance(value, str):
        value = value.replace("/", "_")  # relative, so that no stage writes outside the case
    config = _set(dict(config, output_dir=str(run / "out")), key, value)
    path = run / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    (run / "cwd").mkdir()
    monkeypatch.chdir(run / "cwd")  # a relative output_dir lies inside the case, '..' too
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    for stage in STAGES[STAGES.index(FIRST_READER[key]):]:
        code, err, errors = _run(stage, path, capsys)
        where = f"{key} = {value!r} at {stage}: exit {code}, {errors[-3:]}"
        assert "internal error" not in err and code in (0, 1, 2), where
        if code:
            assert len(errors) == 1 and errors[0].startswith("error: "), where
            assert _names(errors[0], key, value), where
            break


BAD_BYTES = st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"])
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])
LINE_TEXT = st.text(max_size=16) | st.sampled_from(
    ["", " ", "\t", "\ufeff", "\x00", "\x85", "\u2028", '"']
)
JSONL_LINES = st.one_of(
    LINE_TEXT.map(lambda text: json.dumps({"text": text})),
    st.sampled_from([
        "{", "[]", "null", "1", "NaN", '"text"', '{"text": 1}', '{"text": null}',
        '{"text": ["a"]}', '{"txt": "a"}', '{"text": ""}', '{"text": "a", "text": 2}',
        '{"text": "\\ud800"}', '{"text": "a\\u0000b"}', "[" * 3000 + "]" * 3000,
    ]),
    LINE_TEXT,
)
LABELED_CELLS = st.one_of(
    st.sampled_from([
        "", " ", "0", "1", "-1", "3.5", " 4 ", "7", "7.0001", "0.999", "nan", "inf", "-inf",
        "1e400", "1_0", "\u0663", str(2**63 - 1), str(2**63), str(-(2**63) - 1), '"', '"a',
        'a"b',
    ]),
    st.floats().map(repr),
    LINE_TEXT,
)
LABELED_HEADERS = st.one_of(
    st.sampled_from([
        ["id", "text", "mos", "rating_std"], ["id", "text", "mos"], ["text", "mos", "id"],
        [" id ", "text ", "mos", "rating_std"], ["id", "text", "mos", "rating_std", "extra"],
        ["id", "id", "text", "mos"], ["id", "text", "MOS"], ["id", "text"], [""], None,
    ]),
    st.permutations(["id", "text", "mos", "rating_std", "extra"]),
)


# lines of the fixture's own files, by the kind of file they are valid in
VALID_LINES = {
    "plain-lines": [r.text for r in DATASET.store.records[:20]],
    "jsonl": [json.dumps({"text": r.text}) for r in DATASET.store.records[:20]],
    "labeled": [f"{s.id}\t{s.text}\t{s.mos!r}\t{s.rating_std!r}" for s in DATASET.labeled_train],
}


LABELED_HEADER = ["id", "text", "mos", "rating_std"]
# what may be wrong with a file, each as likely as the other entries of its kind
DEFECTS = {
    "labeled": ["field", "field", "field", "repeated row", "header", "junk line", "not UTF-8"],
    "jsonl": ["junk line", "junk line", "not UTF-8"],
    "plain-lines": ["junk line", "junk line", "not UTF-8"],
}


@st.composite
def hostile_files(draw, kinds: list[str]) -> tuple[str, bool, bytes]:
    """One of `kinds` of input file, whether a corpus file is the only
    corpus, and the file's bytes: valid lines of the fixture with up to three
    defects (a field replaced, dropped or added; a repeated row; another
    header; a hostile line; a byte that is not UTF-8), any newline and perhaps
    a byte order mark. It may be empty."""
    kind = draw(st.sampled_from(kinds))
    lines = draw(st.lists(st.sampled_from(VALID_LINES[kind]), max_size=6))
    rows = [line.split("\t") for line in lines]
    header = LABELED_HEADER if kind == "labeled" else None
    junk = {
        "labeled": st.lists(LABELED_CELLS, max_size=6),
        "jsonl": JSONL_LINES.map(lambda line: [line]),
        "plain-lines": LINE_TEXT.map(lambda line: [line]),
    }[kind]
    bad_byte = False
    for defect in draw(st.lists(st.sampled_from(DEFECTS[kind]), max_size=3)):
        if defect == "junk line":
            rows.insert(draw(st.sampled_from(range(len(rows) + 1))), draw(junk))
        elif defect == "header":
            header = draw(LABELED_HEADERS)  # None: no header line
        elif defect == "not UTF-8":
            bad_byte = True
        elif rows and defect == "repeated row":
            rows.append(list(draw(st.sampled_from(rows))))
        elif rows and defect == "field":
            row = rows[draw(st.sampled_from(range(len(rows))))]
            column = draw(st.sampled_from(range(len(row) + 1)))
            # one cell replaces the field, none drops it, two add one
            row[column : column + 1] = draw(st.lists(LABELED_CELLS, min_size=1, max_size=2)
                                            | st.just([]))
    lines = [*([] if header is None else [header]), *rows]
    newline = draw(NEWLINES)
    data = "".join("\t".join(line) + newline for line in lines).encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if bad_byte:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(BAD_BYTES) + data[at:]
    return kind, draw(st.booleans()), data


def _check_input_file(trained, tmp_path_factory, monkeypatch, capsys, case) -> None:
    """Run a hostile file's first reader through train-baseline: each stage
    exits 0, 1 or 2, and an error is one line that names the file."""
    kind, alone, data = case
    directory, config = trained
    run = tmp_path_factory.mktemp("case")
    shutil.copytree(directory / "out", run / "out")
    path = run / ("train.tsv" if kind == "labeled" else "corpus.txt")
    path.write_bytes(data)
    config = dict(config, output_dir=str(run / "out"))
    if kind == "labeled":
        config["labeled_train"] = str(path)
        stages = ["train-baseline"]
    else:
        entry = {"path": str(path), "source": "hostile", "format": kind}
        config["corpora"] = [entry] + ([] if alone else config["corpora"])
        stages = STAGES[: STAGES.index("train-baseline") + 1]
    config_path = run / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    for stage in stages:
        code, err, errors = _run(stage, config_path, capsys)
        where = f"{kind} at {stage}: exit {code}, {errors[-3:]}"
        assert "internal error" not in err and code in (0, 1, 2), where
        if code:
            assert len(errors) == 1 and errors[0].startswith("error: "), where
            assert str(path) in errors[0], where
            break


@settings(ORACLE_SETTINGS, max_examples=150)
@given(case=hostile_files(["jsonl", "plain-lines"]))
# the cases this oracle found, so that they stay tried whatever the search draws
@example(case=("jsonl", False, b'{"text": "\\ud800"}\n'))
@example(case=("jsonl", True, b"[" * 3000 + b"]" * 3000 + b"\n"))
def test_a_hostile_corpus_file_never_exits_3(trained, tmp_path_factory, monkeypatch, capsys, case):
    """A corpus file (plain lines or jsonl), alone or beside the fixture's,
    run through ingest ... train-baseline."""
    _check_input_file(trained, tmp_path_factory, monkeypatch, capsys, case)


@settings(ORACLE_SETTINGS, max_examples=300)
@given(case=hostile_files(["labeled"]))
def test_a_hostile_labeled_set_never_exits_3(trained, tmp_path_factory, monkeypatch, capsys, case):
    """A labeled training set, run through train-baseline."""
    _check_input_file(trained, tmp_path_factory, monkeypatch, capsys, case)
