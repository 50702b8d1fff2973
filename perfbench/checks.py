"""Checks that a pseudolab run's outputs are correct.

Each check reads the files a run wrote and raises CheckFailed on the first
property that does not hold. Nothing is compared with stored copies of an
earlier run: vectors and retrieval are recomputed with the reference
implementation in reference.py, pseudo-label admission is replayed anchor
by anchor, and reports, bundles and predictions are checked for properties
that hold for any correct run.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

import reference

# Similarities this close to the k-th one may be ordered either way by a
# different summation order, so their membership in the top k is not checked.
TIE_TOLERANCE = 1e-12
# A baseline score this close to the anchor's std window edge may fall either
# side of it under a different summation order.
SCORE_TOLERANCE = 1e-9
STD_FLOOR = 1e-9


class CheckFailed(Exception):
    """An output of the program does not have a property it must have."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_store(out: Path) -> list[dict]:
    with open(out / "store.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def check_reference(vectors_file: Path) -> None:
    """The reference FNV-1a agrees with the committed test vectors."""
    vectors = read_json(vectors_file)["vectors"]
    for text, expected in vectors.items():
        got = format(reference.fnv1a64(text.encode("utf-8")), "016x")
        require(got == expected, f"reference fnv1a64({text!r}) = {got}, expected {expected}")


def check_feature_stats(out: Path, store: list[dict]) -> dict[str, reference.Featurizer]:
    """Every featurizer's surface statistics match a recount over the corpus."""
    featurizers = {}
    texts = [r["text"] for r in store]
    by_max_tokens: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for name, stats in read_json(out / "feature_stats.json").items():
        feat = reference.Featurizer(stats)
        if feat.max_tokens not in by_max_tokens:
            by_max_tokens[feat.max_tokens] = reference.surface_stats(texts, feat.max_tokens)
        means, stds = by_max_tokens[feat.max_tokens]
        require(
            np.allclose(feat.means, means, rtol=1e-9, atol=1e-12)
            and np.allclose(feat.stds, np.maximum(stds, STD_FLOOR), rtol=1e-9, atol=1e-12),
            f"feature_stats.json: surface statistics of {name!r} do not match the corpus",
        )
        featurizers[name] = feat
    return featurizers


def load_corpus_vectors(out: Path, store: list[dict]) -> tuple[np.ndarray, np.ndarray]:
    vectors = np.load(out / "corpus_vectors.npy")
    ids = np.load(out / "corpus_ids.npy")
    require(
        ids.tolist() == [r["id"] for r in store],
        "corpus_ids.npy does not list the store's ids in store order",
    )
    require(vectors.shape[0] == ids.shape[0], "corpus_vectors.npy has the wrong row count")
    return vectors, ids


def check_corpus_vectors(
    vectors: np.ndarray, store: list[dict], retrieval: reference.Featurizer, rows: np.ndarray
) -> None:
    """Sampled corpus rows equal the reference featurizer's vectors."""
    require(vectors.shape[1] == retrieval.dim + reference.SURFACE_DIM, "corpus vector width")
    for row in rows:
        expected = retrieval.embed(store[row]["text"]).astype(np.float32)
        err = float(np.max(np.abs(vectors[row].astype(np.float64) - expected)))
        require(err <= 1e-6, f"corpus_vectors.npy row {row} differs from the reference by {err:.3g}")


def check_index(out: Path, vectors: np.ndarray, ids: np.ndarray, fingerprint: str) -> None:
    """index.bin holds exactly the corpus ids and vectors under the retrieval fingerprint."""
    data = (out / "index.bin").read_bytes()
    require(len(data) >= 24 and data[:4] == b"SXI1", "index.bin: bad magic")
    _, dim, count, fp_len = struct.unpack("<IIQI", data[4:24])
    fp = data[24 : 24 + fp_len].decode("utf-8")
    offset = 24 + fp_len + 32
    require(fp == fingerprint, "index.bin: fingerprint differs from the retrieval featurizer")
    require((count, dim) == vectors.shape, "index.bin: shape differs from corpus_vectors.npy")
    index_ids = np.frombuffer(data, dtype="<i8", count=count, offset=offset)
    index_vectors = np.frombuffer(
        data, dtype="<f4", count=count * dim, offset=offset + 8 * count
    ).reshape(count, dim)
    require(np.array_equal(index_ids, ids), "index.bin: ids differ from corpus_ids.npy")
    require(np.array_equal(index_vectors, vectors), "index.bin: vectors differ from corpus_vectors.npy")


def audit_pseudo_labels(
    out: Path,
    store: list[dict],
    vectors: np.ndarray,
    ids: np.ndarray,
    retrieval: reference.Featurizer,
    train: list[dict],
    test: list[dict],
    k: int,
) -> dict:
    """Replay admission anchor by anchor against brute-force retrieval.

    Every admitted row is a top-k candidate of its anchor, scored by the
    baseline within the anchor's std, admitted once, and not a labeled text.
    Every candidate within the std that no earlier anchor took is admitted.
    """
    with open(out / "pseudo_labels.jsonl", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    model = read_json(out / "baseline_model.json")
    w = np.asarray(model["weights"], dtype=np.float64)
    scores = np.clip(vectors.astype(np.float64) @ w + float(model["intercept"]), 1.0, 7.0)

    labeled_texts = {s["text"] for s in train} | {s["text"] for s in test}
    pool = np.array([i for i, r in enumerate(store) if r["text"] not in labeled_texts], dtype=np.int64)
    pool_ids = ids[pool]
    pos_of_id = {int(i): p for p, i in enumerate(ids.tolist())}

    anchors = sorted(train, key=lambda s: s["id"])
    anchor_ids = [a["id"] for a in anchors]
    order_in_file = [r["anchor_id"] for r in rows]
    require(order_in_file == sorted(order_in_file), "pseudo_labels.jsonl is not in anchor order")
    require(set(order_in_file) <= set(anchor_ids), "pseudo_labels.jsonl names an unknown anchor")
    by_anchor: dict[int, list[dict]] = {}
    for r in rows:
        by_anchor.setdefault(r["anchor_id"], []).append(r)

    queries = retrieval.embed_many([a["text"] for a in anchors])
    sims_all = reference.cosine_matrix(vectors[pool], queries)
    seen: set[int] = set()
    candidates = 0
    for a, anchor in enumerate(anchors):
        sims = sims_all[a]
        top = reference.top_k(sims, pool_ids, k)
        cand = set(pool_ids[top].tolist())
        candidates += len(top)
        tied: set[int] = set()
        if len(top) == k and pool.size > k:
            kth = sims[top[-1]]
            tied = set(pool_ids[np.abs(sims - kth) <= TIE_TOLERANCE].tolist())
        mos, std = anchor["mos"], anchor["std"]
        admitted = set()
        for r in by_anchor.get(anchor["id"], []):
            sid = int(r["sentence_id"])
            where = f"pseudo_labels.jsonl: sentence {sid} under anchor {anchor['id']}"
            require(sid not in seen and sid not in admitted, f"{where} is admitted twice")
            require(r["text"] not in labeled_texts, f"{where} is a labeled text")
            require(sid in cand or sid in tied, f"{where} is not among the anchor's top {k}")
            rec = store[pos_of_id[sid]]
            require(r["text"] == rec["text"] and r["source"] == rec["source"], f"{where}: text differs from the store")
            score = float(scores[pos_of_id[sid]])
            require(abs(r["predicted_score"] - score) <= SCORE_TOLERANCE, f"{where}: score differs from the baseline")
            require(abs(score - mos) <= std + SCORE_TOLERANCE, f"{where}: score is outside the anchor's std")
            require(r["anchor_mos"] == mos and r["anchor_std"] == std, f"{where}: anchor label differs")
            admitted.add(sid)
        for sid in cand - tied - seen - admitted:
            require(
                abs(float(scores[pos_of_id[sid]]) - mos) > std - SCORE_TOLERANCE,
                f"pseudo_labels.jsonl: candidate {sid} is within anchor {anchor['id']}'s std "
                "but was not admitted",
            )
        seen |= admitted
    return {"candidates": candidates, "admitted": len(rows)}


def check_eval_report(out: Path, train: list[dict], n_folds: int) -> dict:
    report = read_json(out / "eval_report.json")
    per_fold = report["per_fold_rmse"]
    values = per_fold + [report["fold_mean_rmse"], report["rmse_raw"], report["rmse_mapped"]]
    require(all(math.isfinite(v) for v in values), "eval_report.json: non-finite RMSE")
    require(len(per_fold) == n_folds, f"eval_report.json: {len(per_fold)} folds, expected {n_folds}")
    require(
        abs(report["fold_mean_rmse"] - math.fsum(per_fold) / n_folds) <= 1e-12,
        "eval_report.json: fold_mean_rmse is not the mean of per_fold_rmse",
    )
    # the cubic least-squares mapping contains the identity, so it cannot do worse
    require(
        report["rmse_mapped"] <= report["rmse_raw"] + 1e-12,
        "eval_report.json: rmse_mapped exceeds rmse_raw",
    )
    y = np.array([s["mos"] for s in train])
    mean_rmse = float(np.sqrt(np.mean((y - y.mean()) ** 2)))
    require(
        report["rmse_raw"] < mean_rmse,
        f"eval_report.json: rmse_raw {report['rmse_raw']:.4f} is no better than "
        f"predicting the mean label ({mean_rmse:.4f})",
    )
    return report


def load_bundle(out: Path) -> dict:
    bundle = out / "bundle"
    manifest = read_json(bundle / "manifest.json")
    models = []
    for m in manifest["models"]:
        path = bundle / "models" / f"{m['archetype']}_s{m['seed']}_f{m['fold']}.json"
        model = read_json(path)
        models.append(
            {
                "archetype": m["archetype"],
                "weights": np.asarray(model["weights"], dtype=np.float64),
                "intercept": float(model["intercept"]),
            }
        )
    manifest["loaded_models"] = models
    return manifest


def check_bundle(out: Path, bundle: dict, n_train: int, seeds: list[int], n_folds: int) -> None:
    archetypes = sorted(bundle["archetypes"])
    expected = {(a, s, f) for a in archetypes for s in seeds for f in range(n_folds)}
    got = [(m["archetype"], m["seed"], m["fold"]) for m in bundle["models"]]
    require(
        len(got) == len(expected) and set(got) == expected,
        f"bundle holds {len(got)} models, expected archetypes x seeds x folds = {len(expected)}",
    )
    lines = (out / "bundle" / "oof.csv").read_text(encoding="utf-8").strip().split("\n")[1:]
    oof = np.array([[float(v) for v in line.split(",")] for line in lines])
    require(
        oof.shape == (n_train, len(bundle["base_keys"])),
        f"bundle/oof.csv has shape {oof.shape}, expected ({n_train}, {len(bundle['base_keys'])})",
    )
    require(bool(np.all(np.isfinite(oof))), "bundle/oof.csv has non-finite entries")
    require(bool(np.all((oof >= 1.0) & (oof <= 7.0))), "bundle/oof.csv has entries outside [1, 7]")


def read_predictions(out: Path, n_texts: int) -> np.ndarray:
    lines = (out / "predictions.tsv").read_text(encoding="utf-8").splitlines()
    require(len(lines) == n_texts, f"predictions.tsv has {len(lines)} rows for {n_texts} sentences")
    scores = []
    for i, line in enumerate(lines, start=1):
        number, score = line.split("\t")
        require(int(number) == i, f"predictions.tsv row {i} is numbered {number}")
        scores.append(float(score))
    scores = np.array(scores)
    require(bool(np.all((scores >= 1.0) & (scores <= 7.0))), "predictions.tsv has scores outside [1, 7]")
    return scores


def reference_ensemble(bundle: dict, texts: list[str]) -> np.ndarray:
    """Score texts from the bundle's model JSON with the reference featurizer.

    The workloads use setting=ensemble_mean: the mean of the clamped fold models.
    """
    require(bundle["aggregation"] == "mean", f"bundle aggregation is {bundle['aggregation']!r}, not 'mean'")
    x = {
        name: reference.Featurizer(spec["stats"]).embed_many(texts)
        for name, spec in bundle["archetypes"].items()
    }
    per_model = [
        np.clip(x[m["archetype"]] @ m["weights"] + m["intercept"], 1.0, 7.0)
        for m in bundle["loaded_models"]
    ]
    return np.clip(np.mean(per_model, axis=0), 1.0, 7.0)


def check_predictions(
    scores: np.ndarray, bundle: dict, texts: list[str], gold: np.ndarray, rows: np.ndarray
) -> float:
    """Scores beat the gold scores' std and sampled ones match the reference.

    Returns the RMSE against the gold scores.
    """
    rmse = float(np.sqrt(np.mean((scores - gold) ** 2)))
    require(
        rmse < float(gold.std()),
        f"predictions.tsv RMSE {rmse:.4f} is no better than the gold scores' std {gold.std():.4f}",
    )
    expected = reference_ensemble(bundle, [texts[i] for i in rows])
    err = float(np.max(np.abs(expected - scores[rows])))
    # scores are printed with three decimals
    require(err <= 0.0005 + 1e-9, f"predictions.tsv differs from the bundle's models by {err:.4f}")
    return rmse


def manifest_outputs(out: Path) -> dict:
    """Output digests per stage from manifest.json, without timings or paths."""
    stages = read_json(out / "manifest.json")["stages"]
    return {name: info["outputs"] for name, info in sorted(stages.items())}


def check_same_outputs(first: dict, again: dict, what: str) -> None:
    for stage, outputs in again.items():
        if stage in first:
            require(
                first[stage] == outputs,
                f"{what}: stage {stage!r} wrote different outputs for the same inputs",
            )
