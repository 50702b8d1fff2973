#!/usr/bin/env python3
"""Print `sha256  relative/path` for every file under a run's output directory.

Lines are sorted by path. The run's `manifest.json` is hashed with its
`wall_seconds` fields removed, so two runs that wrote the same artifacts
print the same lines and can be compared with `diff`:

    python scripts/artifact_digests.py run_a/out > a.txt
    python scripts/artifact_digests.py run_b/out > b.txt
    diff a.txt b.txt

With --portable the lines also leave out what records where the run's files
lie, so runs of the same inputs in different directories compare equal:
`config_snapshot.json` is not listed, and each stage record of `manifest.json`
drops its `config_digest` (the snapshot's digest) and the inputs that are not
artifacts of the run (the corpus files and labeled sets, keyed by their paths).
"""

import argparse
import hashlib
import json
from pathlib import Path

# the one artifact that holds the run's paths
CONFIG_SNAPSHOT = "config_snapshot.json"


def _without_timings(value):
    if isinstance(value, dict):
        return {k: _without_timings(v) for k, v in value.items() if k != "wall_seconds"}
    if isinstance(value, list):
        return [_without_timings(v) for v in value]
    return value


def _without_paths(manifest: dict) -> dict:
    stages = manifest["stages"].values()
    artifacts = {name for info in stages for name in info["outputs"]}
    for info in stages:
        info.pop("config_digest", None)
        info["inputs"] = {k: v for k, v in info["inputs"].items() if k in artifacts}
    return manifest


def file_digest(output_dir: Path, relative: str, portable: bool = False) -> str:
    data = (output_dir / relative).read_bytes()
    if relative == "manifest.json":
        manifest = _without_timings(json.loads(data))
        if portable:
            manifest = _without_paths(manifest)
        data = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def digest_lines(output_dir: Path, portable: bool = False) -> list[str]:
    """The `sha256  relative/path` line of every file under output_dir, sorted by path."""
    paths = sorted(p.relative_to(output_dir).as_posix() for p in output_dir.rglob("*") if p.is_file())
    if portable:
        paths.remove(CONFIG_SNAPSHOT)
    return [f"{file_digest(output_dir, relative, portable)}  {relative}" for relative in paths]


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("output_dir", type=Path, help="the run's output directory")
    parser.add_argument(
        "--portable", action="store_true", help="leave out what records the run's paths"
    )
    args = parser.parse_args()
    for line in digest_lines(args.output_dir, args.portable):
        print(line)


if __name__ == "__main__":
    main()
