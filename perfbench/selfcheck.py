#!/usr/bin/env python3
"""Quick self-check of the benchmark's output checks, on a tiny corpus.

Run from the root of a checkout: python3 perfbench/selfcheck.py

It runs every stage and predict on a 400-sentence corpus that also holds
the labeled train texts (so that their exclusion is exercised), requires
every check to pass, runs the same inputs again traced and requires the
same outputs and every per-layer metric. Then it corrupts a copy of one
output at a time and requires the check meant for it to fire. Exits 0 when
all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import checks
import reference
import run

TINY = run.Workload(
    setup_stages=(),
    round_stages=run.PIPELINE_STAGES + ("predict",),
    n_heldout=60,
    n_corpus=400,
    n_train=40,
    n_test=10,
    k=40,
)
SEED = 7
LABELED_IN_CORPUS = 5


def rewrite_json(path: Path, edit) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def rewrite_lines(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")


def edit_npy(path: Path, edit) -> None:
    array = np.load(path)
    edit(array)
    np.save(path, array)


def add_row(position, row):
    def edit(lines):
        lines.insert(position, json.dumps(row))
        return lines

    return edit


def pseudo_row_for(out: Path, inputs, pick) -> tuple[int, dict]:
    """A pseudo-label row for the first anchor, with where to insert it.

    pick(sims, scores, anchor, usable, labeled) chooses the store position;
    usable[p] is true when p is neither admitted nor a labeled text.
    """
    store = checks.read_store(out)
    vectors, ids = checks.load_corpus_vectors(out, store)
    stats = checks.read_json(out / "feature_stats.json")["retrieval"]
    anchor = min(inputs.train, key=lambda s: s["id"])
    query = reference.Featurizer(stats).embed_many([anchor["text"]])
    sims = reference.cosine_matrix(vectors, query)[0]
    model = checks.read_json(out / "baseline_model.json")
    scores = np.clip(vectors.astype(np.float64) @ np.asarray(model["weights"]) + model["intercept"], 1, 7)
    lines = (out / "pseudo_labels.jsonl").read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    taken = {r["sentence_id"] for r in rows}
    texts = {s["text"] for s in inputs.train} | {s["text"] for s in inputs.test}
    labeled = [r["text"] in texts for r in store]
    usable = [i not in taken and not labeled[p] for p, i in enumerate(ids.tolist())]
    p = pick(sims, scores, anchor, usable, labeled)
    row = {
        "sentence_id": int(ids[p]),
        "text": store[p]["text"],
        "source": store[p]["source"],
        "predicted_score": float(scores[p]),
        "anchor_id": anchor["id"],
        "anchor_mos": anchor["mos"],
        "anchor_std": anchor["std"],
    }
    position = sum(r["anchor_id"] == anchor["id"] for r in rows)
    return position, row


def far_candidate(sims, scores, anchor, usable, labeled):
    """A top-k candidate whose score is outside the anchor's std."""
    order = np.argsort(-sims, kind="stable")
    return next(p for p in order[: TINY.k] if usable[p] and abs(scores[p] - anchor["mos"]) > anchor["std"])


def non_candidate(sims, scores, anchor, usable, labeled):
    """A sentence within the anchor's std that is not among its top k."""
    order = np.argsort(-sims, kind="stable")
    beyond = order[TINY.k + LABELED_IN_CORPUS :]
    return next(p for p in beyond if usable[p] and abs(scores[p] - anchor["mos"]) <= anchor["std"])


def labeled_text(sims, scores, anchor, usable, labeled):
    return labeled.index(True)


def corruptions(out: Path, inputs):
    """(what, file, corrupt(path), fragment of the message the check must raise)."""

    def insert(pick):
        def apply(path):
            position, row = pseudo_row_for(out, inputs, pick)
            rewrite_lines(path, add_row(position, row))
        return apply

    def json_edit(edit):
        return lambda path: rewrite_json(path, edit)

    def lines_edit(edit):
        return lambda path: rewrite_lines(path, edit)

    def shift_mean(d):
        d["retrieval"]["means"][0] += 1.0

    def shift_column(a):
        a[:, 0] += 0.01

    def shift_intercept(d):
        d["intercept"] += 0.5

    def shift_fold_mean(d):
        d["fold_mean_rmse"] += 0.01

    def mapped_above_raw(d):
        d["rmse_mapped"] = d["rmse_raw"] + 0.1

    def raw_above_mean(d):
        d["rmse_raw"] = d["rmse_mapped"] = 10.0

    def drop_model(d):
        d["models"].pop()

    def out_of_range_oof(lines):
        return [lines[0], "9.0" + lines[1][lines[1].index(","):]] + lines[2:]

    def out_of_range_score(lines):
        return ["1\t7.500"] + lines[1:]

    def reverse_scores(lines):
        pairs = [line.split("\t") for line in lines]
        return [f"{n}\t{s}" for (n, _), (_, s) in zip(pairs, reversed(pairs))]

    def bump_scores(lines):
        return [f"{n}\t{float(s) + 0.01:.3f}" for n, s in (line.split("\t") for line in lines)]

    def flip_last_byte(path):
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x40
        path.write_bytes(bytes(data))

    return [
        ("surface statistics", "feature_stats.json", json_edit(shift_mean), "surface statistics"),
        ("corpus vectors", "corpus_vectors.npy", lambda p: edit_npy(p, shift_column),
         "differs from the reference"),
        ("index payload", "index.bin", flip_last_byte, "index.bin: vectors differ"),
        ("duplicate pseudo-label", "pseudo_labels.jsonl",
         lines_edit(lambda lines: lines[:1] + lines), "admitted twice"),
        ("labeled text admitted", "pseudo_labels.jsonl", insert(labeled_text), "is a labeled text"),
        ("not a top-k candidate", "pseudo_labels.jsonl", insert(non_candidate), "is not among"),
        ("outside the std", "pseudo_labels.jsonl", insert(far_candidate), "outside the anchor's std"),
        ("first anchor wins", "pseudo_labels.jsonl",
         lines_edit(lambda lines: lines[1:]), "was not admitted"),
        ("baseline scores", "baseline_model.json", json_edit(shift_intercept),
         "score differs from the baseline"),
        ("fold mean", "eval_report.json", json_edit(shift_fold_mean), "not the mean of per_fold_rmse"),
        ("mapping worse than raw", "eval_report.json", json_edit(mapped_above_raw),
         "rmse_mapped exceeds rmse_raw"),
        ("raw no better than the mean", "eval_report.json", json_edit(raw_above_mean),
         "no better than predicting the mean"),
        ("bundle cardinality", "bundle/manifest.json", json_edit(drop_model), "bundle holds"),
        ("out-of-fold range", "bundle/oof.csv", lines_edit(out_of_range_oof), "outside [1, 7]"),
        ("prediction count", "predictions.tsv", lines_edit(lambda lines: lines[:-1]), "rows for"),
        ("prediction range", "predictions.tsv", lines_edit(out_of_range_score),
         "scores outside [1, 7]"),
        ("prediction accuracy", "predictions.tsv", lines_edit(reverse_scores),
         "no better than the gold"),
        ("prediction values", "predictions.tsv", lines_edit(bump_scores),
         "differs from the bundle's models"),
    ]


def expect_failure(what: str, fragment: str, check) -> bool:
    try:
        check()
    except checks.CheckFailed as exc:
        if fragment in str(exc):
            print(f"  fires   {what}: {exc}")
            return True
        print(f"  WRONG   {what}: expected '{fragment}', got: {exc}")
        return False
    print(f"  SILENT  {what}: the check did not fire")
    return False


def with_labeled_in_corpus(inputs):
    """Append the labeled train texts to one corpus file, so the program must exclude them."""
    config = json.loads(inputs.config.read_text(encoding="utf-8"))
    path = Path(config["corpora"][0]["path"])
    extra = [s["text"] for s in inputs.train[:LABELED_IN_CORPUS]]
    path.write_text(path.read_text(encoding="utf-8") + "".join(t + "\n" for t in extra), encoding="utf-8")
    return dataclasses.replace(inputs, store_texts=inputs.store_texts + extra)


def tiny_run(workdir: Path, trace: bool):
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs = with_labeled_in_corpus(run.make_inputs(workdir, TINY, SEED))
    runner = run.Runner(workdir, trace, run.Calibration())
    ops = [runner.stage(stage, inputs) for stage in TINY.round_stages]
    bad = [op.stage for op in ops if op.code != 0]
    if bad:
        raise SystemExit(f"self-check: stages {bad} failed; see {runner.log}")
    return inputs, ops


def main() -> int:
    started = time.perf_counter()
    base = run.WORK / "selfcheck"
    inputs, ops = tiny_run(base / "plain", trace=False)
    outputs = checks.manifest_outputs(inputs.out)
    quality = run.check_outputs(TINY, inputs, SEED, [outputs])
    print(f"all checks pass on the tiny run: {quality}")

    traced_inputs, traced_ops = tiny_run(base / "traced", trace=True)
    checks.check_same_outputs(outputs, checks.manifest_outputs(traced_inputs.out), "traced run")
    layers = run.per_layer(run.Aggregate([], [traced_ops]), quality, traced_inputs.out, 1.0)
    declared = [m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    missing = sorted(set(declared) - set(layers))
    print(f"traced run: same outputs, {len(layers)} per-layer metrics, missing {missing}")
    ok = not missing

    print("each check fires on a corrupted copy:")
    for what, name, corrupt, fragment in corruptions(inputs.out, inputs):
        copy = base / "corrupt"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(inputs.out, copy)
        corrupt(copy / name)
        ok &= expect_failure(
            what, fragment,
            lambda: run.check_outputs(TINY, dataclasses.replace(inputs, out=copy), SEED, [outputs]),
        )
    changed = json.loads(json.dumps(outputs))
    changed["ingest"]["store.jsonl"] = "0" * 64
    ok &= expect_failure("determinism", "wrote different outputs",
                         lambda: checks.check_same_outputs(outputs, changed, "repeated round"))
    vectors = base / "fnv_vectors.json"
    vectors.write_text(json.dumps({"vectors": {"foo": "dcb27518fed9d578"}}))
    ok &= expect_failure("reference featurizer", "reference fnv1a64",
                         lambda: checks.check_reference(vectors))

    if ok:
        shutil.rmtree(base)
    print(f"self-check {'passed' if ok else 'FAILED'} in {time.perf_counter() - started:.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    if not (run.SRC / "pseudolab" / "cli.py").is_file():
        sys.exit(f"error: run from the root of a pseudolab checkout (no {run.SRC / 'pseudolab'})")
    sys.path.insert(0, str(run.SRC))
    sys.exit(main())
