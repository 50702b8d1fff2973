"""Checks on the package source itself."""

import ast
from pathlib import Path

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
