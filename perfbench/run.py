#!/usr/bin/env python3
"""pseudolab benchmark: time the CLI stages from outside and check their outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-5k --seed 7 --seconds 40 --trace 0
    python3 perfbench/selfcheck.py

Every operation is one pseudolab process, run one after another. With
--trace 0 each process is `python3 -m pseudolab.cli ...` and the last line of
standard output is the end-to-end result; with --trace 1 each process starts
through perfbench/traced_cli.py and the result holds the per-layer metrics.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import reference

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
FNV_VECTORS = ROOT / "tests" / "fixtures" / "fnv1a64_vectors.json"

BLAS_THREADS = 1
COLD_STARTS = 7
TRAIN_STAGES = ("ingest", "featurize", "index", "train-baseline", "pseudolabel", "train-ensemble")
PIPELINE_STAGES = TRAIN_STAGES + ("evaluate",)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    setup_stages: tuple[str, ...]  # run once before the timed rounds
    round_stages: tuple[str, ...]  # one round; "predict" scores the held-out file
    n_heldout: int = 0
    n_corpus: int = 5000
    n_train: int = 200
    n_test: int = 60
    k: int = 500


# BENCHMARK.json says why each workload is there; README.md gives its make-up.
WORKLOADS = {
    "pipeline-5k": Workload(setup_stages=(), round_stages=PIPELINE_STAGES),
    # The bundle has the same shape (3 archetypes x 3 seeds x 5 folds) whatever
    # the corpus size, so it is trained on a 1,000-sentence corpus to keep the
    # set-up short; the training stages at 5k are timed by pipeline-5k.
    "predict-5k": Workload(
        setup_stages=TRAIN_STAGES,
        round_stages=("predict",),
        n_heldout=5000,
        n_corpus=1000,
    ),
}


class BenchError(Exception):
    """The benchmark cannot run here."""


@dataclass
class Op:
    stage: str
    wall_s: float  # running time: wall time minus the calibration pauses
    scale: float  # Calibration.REFERENCE_S / mean calibration time over the operation
    rss_mb: float
    code: int
    trace: dict | None = None


@dataclass
class Inputs:
    config: Path
    out: Path
    heldout: Path
    store_texts: list[str]
    train: list[dict]
    test: list[dict]
    heldout_texts: list[str]
    gold: list[float]
    sha256: dict[str, str] = field(default_factory=dict)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def make_inputs(workdir: Path, workload: Workload, seed: int) -> Inputs:
    """Write the fixture for one seed; held-out sentences extend the test draw."""
    from pseudolab import fixtures

    data = fixtures.make_synthetic_dataset(
        n_corpus=workload.n_corpus,
        n_train=workload.n_train,
        n_test=workload.n_test + workload.n_heldout,
        seed=seed,
    )
    test, heldout = data.labeled_test[: workload.n_test], data.labeled_test[workload.n_test :]
    inputs_dir = workdir / "inputs"
    entries = fixtures.write_corpus_files(data.store, inputs_dir / "corpus")
    fixtures.write_labeled_tsv(data.labeled_train, inputs_dir / "train.tsv")
    fixtures.write_labeled_tsv(test, inputs_dir / "test.tsv")
    heldout_path = inputs_dir / "heldout.txt"
    heldout_path.write_text("".join(s.text + "\n" for s in heldout), encoding="utf-8")
    config = {
        "corpora": entries,
        "labeled_train": str(inputs_dir / "train.tsv"),
        "labeled_test": str(inputs_dir / "test.tsv"),
        "output_dir": str(workdir / "out"),
        "k": workload.k,
    }
    config_path = inputs_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")

    def rows(labeled):
        return [{"id": s.id, "text": s.text, "mos": s.mos, "std": s.rating_std} for s in labeled]

    files = sorted(p for p in inputs_dir.rglob("*") if p.is_file() and p.name != "config.json")
    return Inputs(
        config=config_path,
        out=workdir / "out",
        heldout=heldout_path,
        store_texts=[r.text for r in data.store.records],
        train=rows(data.labeled_train),
        test=rows(test),
        heldout_texts=[s.text for s in heldout],
        gold=[s.mos for s in heldout],
        sha256={str(p.relative_to(inputs_dir)): sha256_file(p) for p in files},
    )


class Calibration:
    """A fixed slice of interpreter-bound work, timed again and again during a run.

    The machine is shared, and its speed drifts by up to 1.6x over minutes
    and by 10-30 % within seconds. So the runner times this slice right
    before and right after every operation, and every SLICE_S seconds while
    it runs, with the program paused (SIGSTOP ... SIGCONT) so that the two do
    not share the cores. An operation's reported time is its running time
    (wall time minus the pauses) multiplied by REFERENCE_S / (mean time of
    the slice over that operation): seconds at the speed at which the slice
    takes REFERENCE_S. The slice is an integer loop, FNV-1a over bytes and
    counting words in a dict, then the reference featurizer over fixed
    sentences: Python-level work like most of the program's, which swings
    with the machine's speed as the program does. The work is the
    benchmark's own, so no change to the program moves it.
    """

    REFERENCE_S = 0.04
    SLICE_S = 0.5

    def __init__(self):
        rng = random.Random(20220820)
        syllables = ["ba", "der", "schu", "len", "ge", "mei", "stra", "ßen", "über", "kö", "nig", "zeit"]
        self.words = ["".join(rng.choice(syllables) for _ in range(rng.randint(1, 4))) for _ in range(10000)]
        self.blob = " ".join(self.words).encode("utf-8")[:40000]
        self.texts = [" ".join(rng.sample(self.words, rng.randint(8, 24))) + "." for _ in range(40)]
        self.stats = {
            "config": {"hashed_dim": 1024, "ngram_min": 3, "ngram_max": 5, "max_tokens": 128},
            "means": [0.0] * reference.SURFACE_DIM,
            "stds": [1.0] * reference.SURFACE_DIM,
            "fingerprint": "",
        }

    def warm_up(self, seconds: float = 1.0) -> None:
        """The first slices of a process run slower for a while; take them before timing."""
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.sample()

    def sample(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(75_000):
            total += (i * i) % 7
        h = 0xCBF29CE484222325
        for byte in self.blob:
            h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        counts: dict[str, int] = {}
        for i, word in enumerate(self.words):
            counts[word] = counts.get(word, 0) + i
        sorted(counts.items())
        reference.Featurizer(self.stats).embed_many(self.texts)
        return time.perf_counter() - start


class Runner:
    """Starts one program process at a time and measures it from outside."""

    def __init__(self, workdir: Path, trace: bool, calibration: Calibration):
        self.workdir = workdir
        self.trace = trace
        self.calibration = calibration
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
        self.log = workdir / "program.log"
        self.count = 0

    def run(self, args: list[str]) -> Op:
        self.count += 1
        samples = [self.calibration.sample()]
        env = self.env
        if self.trace:
            trace_file = self.workdir / "traces" / f"{self.count:03d}.json"
            trace_file.parent.mkdir(exist_ok=True)
            env = dict(env, PERFBENCH_TRACE_OUT=str(trace_file))
            argv = [sys.executable, str(BENCH / "traced_cli.py"), *args]
        else:
            argv = [sys.executable, "-m", "pseudolab.cli", *args]
        with open(self.log, "a", encoding="utf-8") as log:
            log.write(f"$ {' '.join(args)}\n")
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=log)
            try:
                status, usage, paused = self._wait(proc, samples)
            except BaseException:
                proc.kill()  # also ends a stopped process
                proc.wait()
                raise
            wall = time.perf_counter() - start - paused
        samples.append(self.calibration.sample())
        proc.returncode = os.waitstatus_to_exitcode(status)
        trace = None
        if self.trace and proc.returncode == 0:
            trace = json.loads(trace_file.read_text(encoding="utf-8"))
        scale = Calibration.REFERENCE_S / statistics.mean(samples)
        return Op(args[0], wall, scale, usage.ru_maxrss / 1024.0, proc.returncode, trace)

    def _wait(self, proc: subprocess.Popen, samples: list[float]):
        """Reap the process; untraced, pause it every SLICE_S to time the calibration.

        Traced processes are not paused, because their in-process timings
        would count the pauses. Returns the wait status, the rusage and the
        seconds spent paused.
        """
        paused = 0.0
        if not self.trace:
            pidfd = os.pidfd_open(proc.pid)
            try:
                while not select.select([pidfd], [], [], Calibration.SLICE_S)[0]:
                    stopped = time.perf_counter()
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    if not os.WIFSTOPPED(status):  # it ended before the signal
                        return status, usage, paused
                    samples.append(self.calibration.sample())
                    os.kill(proc.pid, signal.SIGCONT)
                    paused += time.perf_counter() - stopped
            finally:
                os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        return status, usage, paused

    def stage(self, stage: str, inputs: Inputs) -> Op:
        args = [stage, "--config", str(inputs.config)]
        if stage == "predict":
            args += ["--input", str(inputs.heldout)]
        return self.run(args)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Set up, then run as many whole rounds as fit in `seconds` (at least one).

    Another round starts only if the mean round so far would still end
    within `seconds`, so a run measures about `seconds` and never runs far
    past it.
    """
    inputs = make_inputs(workdir, workload, seed)
    calibration = Calibration()
    calibration.warm_up()
    runner = Runner(workdir, trace, calibration)
    setup: list[Op] = []
    if workload.setup_stages:
        setup = [runner.stage(stage, inputs) for stage in workload.setup_stages]
    else:
        setup = [runner.run(["--version"]) for _ in range(COLD_STARTS)]
    if any(op.code != 0 for op in setup):
        raise BenchError(f"set-up failed; see {runner.log}")

    rounds: list[list[Op]] = []
    outputs: list[dict] = []
    started = time.perf_counter()
    while not rounds or (time.perf_counter() - started) * (len(rounds) + 1) / len(rounds) <= seconds:
        if not workload.setup_stages:
            shutil.rmtree(inputs.out, ignore_errors=True)
        ops = []
        for stage in workload.round_stages:
            ops.append(runner.stage(stage, inputs))
            if ops[-1].code != 0:
                break
        rounds.append(ops)
        if ops[-1].code != 0:
            break
        outputs.append(checks.manifest_outputs(inputs.out))
    return inputs, setup, rounds, outputs


def check_outputs(workload: Workload, inputs: Inputs, seed: int, outputs: list[dict]) -> dict:
    """Run every output check; returns the quality figures they computed."""
    out = inputs.out
    rng = np.random.default_rng(seed)
    config = checks.read_json(out / "config_snapshot.json")
    store = checks.read_store(out)
    require = checks.require
    require(
        sorted(r["text"] for r in store) == sorted(inputs.store_texts),
        "store.jsonl does not hold each corpus sentence exactly once",
    )

    checks.check_reference(FNV_VECTORS)
    featurizers = checks.check_feature_stats(out, store)
    vectors, ids = checks.load_corpus_vectors(out, store)
    retrieval = featurizers["retrieval"]
    sample = rng.choice(len(store), size=min(len(store), 200), replace=False)
    checks.check_corpus_vectors(vectors, store, retrieval, np.sort(sample))
    checks.check_index(out, vectors, ids, retrieval.fingerprint)
    quality = checks.audit_pseudo_labels(
        out, store, vectors, ids, retrieval, inputs.train, inputs.test, config["k"]
    )

    bundle = checks.load_bundle(out)
    checks.check_bundle(out, bundle, len(inputs.train), config["seeds"], config["n_folds"])
    stages = workload.setup_stages + workload.round_stages
    if "evaluate" in stages:
        report = checks.check_eval_report(out, inputs.train, config["n_folds"])
        quality["fold_mean_rmse"] = report["fold_mean_rmse"]
        quality["rmse_mapped"] = report["rmse_mapped"]
    if "predict" in stages:
        scores = checks.read_predictions(out, len(inputs.heldout_texts))
        rows = rng.choice(len(scores), size=min(len(scores), 100), replace=False)
        quality["predict_rmse"] = checks.check_predictions(
            scores, bundle, inputs.heldout_texts, np.array(inputs.gold), np.sort(rows)
        )

    for again in outputs[1:]:
        checks.check_same_outputs(outputs[0], again, "repeated round")
    return quality


def check_ledger(key: str, outputs: dict) -> None:
    """Outputs of an earlier run in this checkout with the same inputs must match."""
    ledger_path = WORK / "ledger.json"
    ledger = json.loads(ledger_path.read_text(encoding="utf-8")) if ledger_path.exists() else {}
    if key in ledger:
        checks.check_same_outputs(ledger[key], outputs, "earlier run with the same inputs")
    else:
        ledger[key] = outputs
        ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(str(path.relative_to(directory)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "code.src_lines": src_lines(),
    }


def dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


def scaled(op: Op) -> float:
    """The operation's time at the calibration's reference speed (see Calibration)."""
    return op.wall_s * op.scale


def end_to_end(workload: Workload, setup: list[Op], rounds: list[list[Op]]) -> dict:
    setup_times = [scaled(op) for op in setup]
    values = {
        # the bundle-training stages, or the median CLI cold start
        "setup_s": sum(setup_times) if workload.setup_stages else statistics.median(setup_times),
        "wall_s": statistics.median(sum(scaled(op) for op in ops) for ops in rounds),
        "peak_rss_mb": max(op.rss_mb for ops in rounds for op in ops),
    }
    units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


class Aggregate:
    """Sums traced figures over set-up processes and the mean round."""

    def __init__(self, setup: list[Op], rounds: list[list[Op]]):
        self.sums: dict[str, dict[str, float]] = {}
        self.keys: set[str] = set()
        weighted = [(op, 1.0) for op in setup] + [
            (op, 1.0 / len(rounds)) for ops in rounds for op in ops
        ]
        for op, weight in weighted:
            for kind in ("calls", "total_s", "self_s", "outer_s", "counts"):
                table = self.sums.setdefault(kind, {})
                for name, value in op.trace[kind].items():
                    table[name] = table.get(name, 0.0) + weight * value
            self.keys.update(op.trace["embed_keys"])
        self.startup = [op.wall_s - op.trace["main_s"] for op, _ in weighted]

    def _get(self, kind: str, name: str) -> float:
        return self.sums[kind].get(name, 0.0)

    def calls(self, name: str) -> float:
        return self._get("calls", name)

    def total(self, name: str) -> float:
        return self._get("total_s", name)

    def self_s(self, name: str) -> float:
        return self._get("self_s", name)

    def outer(self, group: str) -> float:
        """Time in calls of a group that were not nested in another of its calls."""
        return self._get("outer_s", group)

    def count(self, name: str) -> float:
        return self._get("counts", name)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(agg: Aggregate, quality: dict, out: Path, wall_s: float) -> dict:
    embedded = agg.calls("features.embed")
    values = {
        "cli.startup_s": (statistics.median(agg.startup), "s", "lower"),
    }
    for stage in ("ingest", "featurize", "index", "train_baseline", "pseudolabel",
                  "train_ensemble", "evaluate", "predict"):
        values[f"cli.{stage}_s"] = (agg.total(f"cli.{stage}"), "s", "lower")
    values.update({
        "corpus.ingest_s": (agg.outer("ingest"), "s", "lower"),
        "corpus.store_loads": (agg.calls("corpus.load_store"), "count", "lower"),
        "corpus.load_store_s": (agg.total("corpus.load_store"), "s", "lower"),
        "corpus.sentences": (agg.count("corpus.sentences"), "count", "higher"),
        "features.texts_embedded": (embedded, "count", "lower"),
        "features.embed_s": (agg.outer("embed"), "s", "lower"),
        "features.texts_per_s": (ratio(embedded, agg.outer("embed")), "1/s", "higher"),
        "features.fit_stats_calls": (agg.calls("features.fit_feature_stats"), "count", "lower"),
        "features.fit_stats_s": (agg.total("features.fit_feature_stats"), "s", "lower"),
        "features.distinct_ratio": (ratio(len(agg.keys), embedded), "ratio", "higher"),
        "simindex.queries": (agg.calls("simindex.top_k"), "count", "lower"),
        "simindex.top_k_s": (agg.total("simindex.top_k"), "s", "lower"),
        "simindex.build_s": (agg.total("simindex.build_index"), "s", "lower"),
        "simindex.load_s": (agg.total("simindex.load_index"), "s", "lower"),
        "simindex.rows_scanned": (agg.count("simindex.rows_scanned"), "count", "lower"),
        "simindex.rows_per_s": (
            ratio(agg.count("simindex.rows_scanned"), agg.total("simindex.top_k")), "1/s", "higher"),
        "scorer.ridge_fits": (agg.calls("scorer.train_ridge"), "count", "lower"),
        "scorer.ridge_s": (agg.total("scorer.train_ridge"), "s", "lower"),
        "scorer.sgd_fits": (agg.calls("scorer.train_iterative"), "count", "lower"),
        "scorer.sgd_s": (agg.total("scorer.train_iterative"), "s", "lower"),
        "scorer.sgd_row_epochs": (agg.count("scorer.sgd_row_epochs"), "count", "lower"),
        "scorer.predict_s": (agg.total("scorer.predict"), "s", "lower"),
        "linalg.solve_spd_calls": (agg.calls("linalg.solve_spd"), "count", "lower"),
        "linalg.solve_retries": (
            agg.count("linalg.solver_calls") - agg.calls("linalg.solve_spd"), "count", "lower"),
        "pseudolabel.self_s": (agg.self_s("pseudolabel.generate_pseudo_labels"), "s", "lower"),
        "pseudolabel.candidates": (agg.count("pseudolabel.candidates"), "count", "lower"),
        "pseudolabel.admitted": (agg.count("pseudolabel.admitted"), "count", "higher"),
        "pseudolabel.admit_ratio": (
            ratio(agg.count("pseudolabel.admitted"), agg.count("pseudolabel.candidates")), "ratio", "higher"),
        "ensemble.pseudo_stage_self_s": (agg.self_s("ensemble.train_pseudo_stage"), "s", "lower"),
        "ensemble.fine_tune_self_s": (agg.self_s("ensemble.cv_fine_tune"), "s", "lower"),
        "ensemble.models_trained": (agg.count("ensemble.models_trained"), "count", "lower"),
        "ensemble.stacker_s": (agg.total("ensemble.fit_stacker"), "s", "lower"),
        "ensemble.stacker_fallbacks": (agg.count("ensemble.stacker_fallbacks"), "count", "lower"),
        "ensemble.bundle_save_s": (agg.total("ensemble.save_bundle"), "s", "lower"),
        "ensemble.bundle_load_s": (agg.total("ensemble.load_bundle"), "s", "lower"),
        "ensemble.predict_batch_self_s": (
            agg.self_s("ensemble.predict_ensemble_batch"), "s", "lower"),
        "pipeline.build_context_s": (agg.total("pipeline.build_context"), "s", "lower"),
        "pipeline.gate_fits": (agg.calls("pipeline.train_gate_model"), "count", "lower"),
        "pipeline.evaluate_self_s": (agg.self_s("pipeline.evaluate_settings"), "s", "lower"),
        "metrics.mapping_s": (agg.total("metrics.mapped_rmse"), "s", "lower"),
        "metrics.mapping_degenerate": (agg.count("metrics.mapping_degenerate"), "count", "lower"),
        "metrics.fold_mean_rmse": (quality.get("fold_mean_rmse", 0.0), "mos", "lower"),
        "metrics.rmse_mapped": (quality.get("rmse_mapped", 0.0), "mos", "lower"),
        "metrics.predict_rmse": (quality.get("predict_rmse", 0.0), "mos", "lower"),
        "artifacts.digest_mb": (agg.count("artifacts.digest_mb"), "MB", "lower"),
        "artifacts.digest_s": (agg.outer("digest"), "s", "lower"),
        "artifacts.write_s": (agg.outer("write"), "s", "lower"),
        "artifacts.output_mb": (dir_mb(out), "MB", "lower"),
        "code.src_lines": (src_lines(), "count", "lower"),
        "trace.wall_s": (wall_s, "s", "lower"),
    })
    return values


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workload = WORKLOADS[workload_name]
    workdir = WORK / f"{workload_name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs, setup, rounds, outputs = run_workload(workload, seed, seconds, trace, workdir)
    timed = [op for ops in rounds for op in ops]
    failed = sum(op.code != 0 for op in timed)
    record = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "inputs_sha256": inputs.sha256,
        # per operation: stage, running time (s), speed scale, peak RSS (MB)[, exit code]
        "setup": [[op.stage, op.wall_s, op.scale, op.rss_mb] for op in setup],
        "rounds": [[[op.stage, op.wall_s, op.scale, op.rss_mb, op.code] for op in ops] for ops in rounds],
    }
    correct = failed == 0
    quality: dict = {}
    if correct:
        try:
            quality = check_outputs(workload, inputs, seed, outputs)
            key = "|".join([workload_name, str(seed), json.dumps(inputs.sha256, sort_keys=True),
                            tree_digest(SRC)])
            check_ledger(hashlib.sha256(key.encode("utf-8")).hexdigest(), outputs[0])
        except (checks.CheckFailed, OSError, LookupError, ValueError) as exc:
            # a missing or malformed output is a wrong output, not a benchmark crash
            correct = False
            record["check_failed"] = str(exc)
            print(f"check failed: {exc}", file=sys.stderr)
    record["quality"] = quality
    record["outputs"] = outputs[0] if outputs else {}

    metrics: dict = {}
    if failed == 0:
        if trace:
            # unscaled: traced processes are not paused, so their scale rests on two slices
            wall = statistics.median(sum(op.wall_s for op in ops) for ops in rounds)
            layers = per_layer(Aggregate(setup, rounds), quality, inputs.out, wall)
            metrics = {name: {"value": v, "unit": unit} for name, (v, unit, _) in layers.items()}
        else:
            metrics = end_to_end(workload, setup, rounds)
    if correct:
        shutil.rmtree(workdir)
    result = {"correct": correct, "attempted": len(timed), "failed": failed, "metrics": metrics}
    return record, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pseudolab" / "cli.py").is_file() or not FNV_VECTORS.is_file():
        print(f"error: run from the root of a pseudolab checkout (no {SRC / 'pseudolab'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    try:
        record, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
