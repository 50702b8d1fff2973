#!/usr/bin/env python3
"""Run the full staged pipeline (ingest through evaluate) for one config."""

import argparse
import sys

from pseudolab import cli

STAGES = tuple(name for name in cli.COMMANDS if name != "predict")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--force", action="store_true")
    parser.add_argument(
        "--from-stage", choices=STAGES, default=STAGES[0], help="resume at this stage"
    )
    args = parser.parse_args()

    stages = STAGES[STAGES.index(args.from_stage) :]
    for stage in stages:
        argv = [stage, "--config", args.config]
        if args.force:
            argv.append("--force")
        code = cli.main(argv)
        if code != 0:
            print(f"stage {stage} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
