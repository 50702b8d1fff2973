#!/usr/bin/env python3
"""Print `sha256  relative/path` for every file under a run's output directory.

Lines are sorted by path. The run's `manifest.json` is hashed with its
`wall_seconds` fields removed, so two runs that wrote the same artifacts
print the same lines and can be compared with `diff`:

    python scripts/artifact_digests.py run_a/out > a.txt
    python scripts/artifact_digests.py run_b/out > b.txt
    diff a.txt b.txt
"""

import argparse
import hashlib
import json
from pathlib import Path


def _without_timings(value):
    if isinstance(value, dict):
        return {k: _without_timings(v) for k, v in value.items() if k != "wall_seconds"}
    if isinstance(value, list):
        return [_without_timings(v) for v in value]
    return value


def file_digest(output_dir: Path, relative: str) -> str:
    data = (output_dir / relative).read_bytes()
    if relative == "manifest.json":
        manifest = _without_timings(json.loads(data))
        data = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("output_dir", type=Path, help="the run's output directory")
    args = parser.parse_args()
    paths = sorted(
        p.relative_to(args.output_dir).as_posix() for p in args.output_dir.rglob("*") if p.is_file()
    )
    for relative in paths:
        print(f"{file_digest(args.output_dir, relative)}  {relative}")


if __name__ == "__main__":
    main()
