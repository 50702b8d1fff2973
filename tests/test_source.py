"""Checks on the package source itself."""

import ast
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from pseudolab.config import RunConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pseudolab"


def test_no_guard_is_an_assert_statement():
    """`python -O` strips assert statements, so a guard written as one is no guard."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, PACKAGE
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def test_only_the_pipeline_names_the_settings():
    """The settings policy (which setting trains what, and how it aggregates)
    lives in pipeline.py: no other module spells a setting out."""
    settings = {"pseudo_only", "ensemble_mean", "ensemble_stacker", "ensemble"}
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name != "pipeline.py")
    assert paths, PACKAGE
    found = [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Constant) and node.value in settings
    ]
    assert not found, f"setting names outside pipeline.py: {found}"


def _config_classes(cls, seen=None) -> list[type]:
    """`cls` and every dataclass nested in its fields, as a field's type or inside it."""
    seen = [] if seen is None else seen
    if cls not in seen:
        seen.append(cls)
        for tp in get_type_hints(cls).values():
            for inner in (tp, *get_args(tp)):
                if is_dataclass(inner):
                    _config_classes(inner, seen)
    return seen


def test_every_config_field_is_read():
    """Each settable config value is read by the program: some package module
    other than config.py reads a field of its name as an attribute. A field
    that only config.py touches is parsed, checked and never used."""
    read = {
        node.attr
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "config.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{cls.__name__}.{f.name}"
        for cls in _config_classes(RunConfig)
        for f in fields(cls)
        if f.name not in read
    ]
    assert not unread, f"config fields no module reads: {unread}"


def _settable_paths(cls, prefix: str = "") -> list[str]:
    """The path of every value a config sets, in field order; a list of
    entries counts each field of an entry once, as `corpora[].path`."""
    paths = []
    for name, tp in get_type_hints(cls).items():
        nested = [inner for inner in (tp, *get_args(tp)) if is_dataclass(inner)]
        if nested:
            entries = "[]" if get_origin(tp) in (list, tuple) else ""
            paths += _settable_paths(nested[0], f"{prefix}{name}{entries}.")
        else:
            paths.append(prefix + name)
    return paths


def test_settable_config_values_are_these():
    """Every knob of the run config. A new one shows here as a diff of this list:
    add it only where callers set other values than its default."""
    assert _settable_paths(RunConfig) == [
        "k",
        "n_folds",
        "seeds",
        "hyper_pseudo.learning_rate",
        "hyper_pseudo.max_epochs",
        "hyper_pseudo.ridge_lambda",
        "hyper_fine.learning_rate",
        "hyper_fine.max_epochs",
        "hyper_fine.ridge_lambda",
        "hyper_baseline.learning_rate",
        "hyper_baseline.max_epochs",
        "hyper_baseline.ridge_lambda",
        "corpora[].path",
        "corpora[].source",
        "corpora[].format",
        "labeled_train",
        "output_dir",
        "labeled_test",
        "retrieval.hashed_dim",
        "retrieval.ngram_min",
        "retrieval.ngram_max",
        "archetypes[].name",
        "archetypes[].hashed_dim",
        "archetypes[].ngram_min",
        "archetypes[].ngram_max",
        "archetypes[].batch_size",
        "fold_seed",
        "setting",
    ]


def test_only_main_opens_and_records_a_stage():
    """`cli.main` opens each command's `_Stage`, runs the command on it and
    records it with `finish()`: no command opens or records its own, so the
    `COMMANDS` key is the one spelling of a stage's name."""
    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    inside_main = {
        id(node) for fn in functions if fn.name == "main" for node in ast.walk(fn)
    }

    def calls(matches) -> list[ast.Call]:
        return [node for node in ast.walk(tree) if isinstance(node, ast.Call) and matches(node.func)]

    opened = calls(lambda f: isinstance(f, ast.Name) and f.id == "_Stage")
    finished = calls(lambda f: isinstance(f, ast.Attribute) and f.attr == "finish")
    outside = [f"cli.py:{node.lineno}" for node in opened + finished if id(node) not in inside_main]
    assert not outside, f"stages opened or recorded outside main: {outside}"
    assert (len(opened), len(finished)) == (1, 1), (len(opened), len(finished))
    commands = [fn for fn in functions if fn.name.startswith("cmd_")]
    assert commands and all(
        [arg.arg for arg in fn.args.args] == ["stage"] for fn in commands
    ), "each command takes only its stage"
