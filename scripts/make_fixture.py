#!/usr/bin/env python3
"""Write the synthetic fixture (corpus files, labeled TSVs, run config) to disk.

The fixture is a 5,000-sentence pseudo-German corpus split over five source
files, plus 200 labeled training and 60 labeled test sentences whose score is
a noisy linear function of character length.
"""

import argparse
import json
from pathlib import Path

from pseudolab import fixtures


def write_fixture(
    directory: Path, n_corpus: int, n_train: int, n_test: int, seed: int, k: int
) -> Path:
    """Write the fixture's files under `directory`; the path of its run config."""
    directory.mkdir(parents=True, exist_ok=True)
    dataset = fixtures.make_synthetic_dataset(
        n_corpus=n_corpus, n_train=n_train, n_test=n_test, seed=seed
    )
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
        "k": k,
    }
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(dataset.store)} corpus sentences across {len(entries)} files")
    return config_path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("directory", type=Path, help="where to write the fixture")
    parser.add_argument("--n-corpus", type=int, default=5000)
    parser.add_argument("--n-train", type=int, default=200)
    parser.add_argument("--n-test", type=int, default=60)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--k", type=int, default=500)
    args = parser.parse_args()
    config_path = write_fixture(
        args.directory, args.n_corpus, args.n_train, args.n_test, args.seed, args.k
    )
    print(f"config: {config_path}")


if __name__ == "__main__":
    main()
