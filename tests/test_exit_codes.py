"""Exit-code oracle over config values: every settable config value, set to a
hostile JSON value, and every stage from the first that reads it through
`evaluate` run under --force, ends in exit 0, 1 or 2; an error is one line
naming the key (or, for a path, the path), and never an internal error.

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
from hypothesis import HealthCheck, given, settings
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


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small run through train-ensemble: 120 sentences, one seed, two archetypes."""
    directory = tmp_path_factory.mktemp("oracle")
    dataset = fixtures.make_synthetic_dataset(n_corpus=120, n_train=20, n_test=6, seed=3)
    fixtures.write_labeled_tsv(dataset.labeled_train, directory / "train.tsv")
    fixtures.write_labeled_tsv(dataset.labeled_test, directory / "test.tsv")
    config = {
        "corpora": fixtures.write_corpus_files(dataset.store, directory / "corpus"),
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


def _names(line: str, key: str, value) -> bool:
    """Whether an error line names the key, or for a path the path it quotes."""
    leaf = key.split(".")[-1].removesuffix("[]")
    return leaf in line or (key in PATHS and isinstance(value, str) and repr(value) in line)


@settings(
    derandomize=True, max_examples=400, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
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
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # as the command line shows them: not errors
            code = cli.main([stage, "--config", str(path), "--force"])
        err = capsys.readouterr().err
        errors = [line for line in err.strip().split("\n") if not line.startswith("[")]
        where = f"{key} = {value!r} at {stage}: exit {code}, {errors[-3:]}"
        assert "internal error" not in err and code in (0, 1, 2), where
        if code:
            assert len(errors) == 1 and errors[0].startswith("error: "), where
            assert _names(errors[0], key, value), where
            break
