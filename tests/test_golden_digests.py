"""Golden artifact digests of the 600-sentence fixture.

The test runs every stage of the fixture in process and compares the digest of
each artifact with `tests/fixtures/artifact_digests_600.txt`, so a change
that moves any artifact's bytes fails here and names the files. A change that
moves them on purpose regenerates the file in the same commit:

    PYTHONPATH=src python tests/test_golden_digests.py

The digests depend on numpy's version and on the SIMD extensions it dispatches
to, so the file records both; on another numpy or CPU the test fails and says
how to regenerate it.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x, so that the version check below can name it
    from numpy.core import _multiarray_umath as umath

from pseudolab import cli
from pseudolab.pipeline import SETTINGS

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "fixtures" / "artifact_digests_600.txt"
FIXTURE_ARGS = {"n_corpus": 600, "n_train": 60, "n_test": 20, "seed": 7, "k": 100}
REGENERATE = "PYTHONPATH=src python tests/test_golden_digests.py"
HEADER = f"""\
# Artifact digests of the 600-sentence fixture
# (scripts/make_fixture.py --n-corpus 600 --n-train 60 --n-test 20 --k 100).
# Each line is `step  sha256  path` for a file the step added or changed. The
# steps: ingest through train-ensemble, predict on the corpus files' lines,
# then evaluate under each setting.
# Digested as `scripts/artifact_digests.py --portable` does, which leaves out
# what records the run's paths or timings: config_snapshot.json, and in
# manifest.json every wall_seconds, config_digest and non-artifact input.
# Regenerate: {REGENERATE}
"""


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def environment() -> dict[str, str]:
    """numpy's version, and the SIMD extensions it dispatches to on this CPU."""
    found = umath.__cpu_features__
    simd = [*umath.__cpu_baseline__, *(f for f in umath.__cpu_dispatch__ if found.get(f))]
    return {"numpy": np.__version__, "simd": " ".join(simd)}


def run_fixture(directory: Path) -> list[str]:
    """Every step's `step  sha256  path` lines of the files it added or changed."""
    config_path = _script("make_fixture").write_fixture(directory, **FIXTURE_ARGS)
    digest_lines = _script("artifact_digests").digest_lines
    out = directory / "out"
    texts = directory / "input.txt"
    texts.write_text(
        "".join(p.read_text(encoding="utf-8") for p in sorted((directory / "corpus").glob("*"))),
        encoding="utf-8",
    )
    config = json.loads(config_path.read_text(encoding="utf-8"))
    steps = [(stage, [stage]) for stage in cli.COMMANDS if stage not in ("evaluate", "predict")]
    steps.append(("predict", ["predict", "--input", str(texts)]))
    steps += [(f"evaluate[{s}]", ["evaluate"]) for s in SETTINGS]
    lines, seen = [], set()
    for step, argv in steps:
        if step.startswith("evaluate"):
            config["setting"] = step[len("evaluate[") : -1]
            config_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main([*argv, "--config", str(config_path)]) == 0, step
        now = digest_lines(out, portable=True)
        lines += [f"{step}  {line}" for line in now if line not in seen]
        seen.update(now)
    return lines


def _recorded() -> tuple[dict[str, str], list[str]]:
    text = GOLDEN.read_text(encoding="utf-8").splitlines()
    env = dict(line[2:].split(": ", 1) for line in text if line.startswith(("# numpy:", "# simd:")))
    return env, [line for line in text if not line.startswith("#")]


def test_artifacts_match_the_golden_digests(tmp_path):
    env, expected = _recorded()
    here = environment()
    if env != here:
        pytest.fail(
            f"{GOLDEN.name} was made with numpy {env['numpy']} (SIMD: {env['simd']}); this is "
            f"numpy {here['numpy']} (SIMD: {here['simd']}). Check the artifacts against a "
            f"run of the parent commit, then regenerate the file: {REGENERATE}"
        )
    got = run_fixture(tmp_path)

    def by_file(lines):
        return {(step, path): digest for step, digest, path in (l.split("  ") for l in lines)}

    want, have = by_file(expected), by_file(got)
    differing = sorted(key for key in want.keys() | have.keys() if want.get(key) != have.get(key))
    assert differing == [], "artifacts that differ from the golden digests: " + ", ".join(
        f"{path} after {step}" for step, path in differing
    )
    assert got == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        lines = run_fixture(Path(tmp))
    env = "".join(f"# {key}: {value}\n" for key, value in environment().items())
    GOLDEN.write_text(HEADER + env + "".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"wrote {len(lines)} digests to {GOLDEN}", file=sys.stderr)
