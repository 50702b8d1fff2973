"""Complexity regressors: closed-form ridge and a mini-batch iterative trainer.

The iterative trainer follows a linear schedule with a fixed warmup
(WARMUP_FRACTION of its steps), per-epoch seeded shuffling, and, where its
caller asks, early stopping on a fixed holdout split (HOLDOUT_FRACTION of its
rows); it is the desk-scale stand-in for the fine-tuning stages.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import clamp_scores, gram, solve_spd
from .metrics import rmse

# the share of an iterative fit's steps over which its learning rate warms up
WARMUP_FRACTION = 0.1
# the share of an early-stopping fit's rows held out to choose its epoch
HOLDOUT_FRACTION = 0.2
# the most epochs a fit may run: a fit of max_epochs 2**70 would never end,
# and the defaults run 4 to 30
MAX_EPOCHS = 10_000


@dataclass
class HyperParams:
    learning_rate: float = 0.2
    max_epochs: int = 30
    ridge_lambda: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if not 0 < self.max_epochs <= MAX_EPOCHS:
            raise ValueError(
                f"max_epochs must be from 1 to {MAX_EPOCHS}, got {self.max_epochs}"
            )
        if not (math.isfinite(self.ridge_lambda) and self.ridge_lambda >= 0):
            raise ValueError("ridge_lambda must be finite and >= 0")


@dataclass
class ScorerModel:
    weights: np.ndarray
    intercept: float
    fingerprint: str = ""
    seed: int = 0
    stage: str = "baseline"
    archetype: str = ""

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "archetype": self.archetype,
            "seed": self.seed,
            "stage": self.stage,
            "intercept": self.intercept,
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScorerModel":
        model = cls(
            weights=np.asarray(d["weights"], dtype=np.float64),
            intercept=float(d["intercept"]),
            fingerprint=d["fingerprint"],
            seed=int(d["seed"]),
            stage=d["stage"],
            archetype=d["archetype"],
        )
        # json.loads reads NaN and Infinity, which would score every row as nan
        if not (math.isfinite(model.intercept) and np.all(np.isfinite(model.weights))):
            raise ValueError("model weights and intercept must be finite numbers")
        if model.weights.ndim != 1:
            raise ValueError("model weights must be a flat list of numbers")
        return model


def model_to_json(model: ScorerModel) -> str:
    # json float repr is shortest-roundtrip, so serialization is bit-exact
    return json.dumps(model.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def save_model(model: ScorerModel, path: str | Path) -> None:
    Path(path).write_text(model_to_json(model), encoding="utf-8")


def load_model(path: str | Path) -> ScorerModel:
    return ScorerModel.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _validate_training_inputs(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError(f"inconsistent training shapes {X.shape} vs {y.shape}")
    if X.shape[0] < 1:
        raise ValueError("empty training set")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite training inputs")
    return X, y


def train_ridge(
    X: np.ndarray,
    y: np.ndarray,
    ridge_lambda: float = 0.0,
    *,
    fingerprint: str = "",
    stage: str = "baseline",
    archetype: str = "",
) -> ScorerModel:
    """Closed-form ridge on mean-centered data; the intercept is not penalized.

    With fewer rows than features (n < d) it solves the n x n dual system
    (Xc Xc.T + lambda I) alpha = yc and takes w = Xc.T alpha, which is the
    primal (Xc.T Xc + lambda I) w = Xc.T yc solution. Every product is
    summed in a fixed order without BLAS, so the model has the same bits
    whatever the BLAS thread count.
    """
    X, y = _validate_training_inputs(X, y)
    if ridge_lambda < 0:
        raise ValueError("ridge_lambda must be >= 0")
    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    Xc = X - x_mean
    yc = y - y_mean
    n, d = X.shape
    if n < d:
        alpha = solve_spd(gram(Xc.T) + ridge_lambda * np.eye(n), yc)
        w = gram(Xc, alpha)
    else:
        w = solve_spd(gram(Xc) + ridge_lambda * np.eye(d), gram(Xc, yc))
    intercept = y_mean - float(gram(x_mean, w))
    return ScorerModel(
        weights=w,
        intercept=intercept,
        fingerprint=fingerprint,
        stage=stage,
        archetype=archetype,
    )


def _learning_rate_at(step: int, total_steps: int, hyper: HyperParams) -> float:
    warmup_steps = int(WARMUP_FRACTION * total_steps)
    if step < warmup_steps:
        return hyper.learning_rate * (step + 1) / warmup_steps
    if total_steps == warmup_steps:
        return hyper.learning_rate
    return hyper.learning_rate * (total_steps - step) / (total_steps - warmup_steps)


def _fit_rows(X: np.ndarray, y: np.ndarray, rows) -> np.ndarray:
    """A fit's row indices into X, with y aligned to them; all of X without `rows`."""
    if X.ndim != 2 or y.ndim != 1:
        raise ValueError(f"inconsistent training shapes {X.shape} vs {y.shape}")
    if rows is None:
        rows = np.arange(X.shape[0])
    else:
        rows = np.asarray(rows)
        if rows.ndim != 1 or not np.issubdtype(rows.dtype, np.integer):
            raise ValueError(f"rows must be a 1-D integer array, not {rows.dtype} {rows.shape}")
        if rows.size and (rows.min() < 0 or rows.max() >= X.shape[0]):
            raise ValueError(f"rows out of range for a matrix of {X.shape[0]} rows")
    if rows.shape[0] != y.shape[0]:
        raise ValueError(f"{rows.shape[0]} training rows but {y.shape[0]} targets")
    if rows.shape[0] < 1:
        raise ValueError("empty training set")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite training inputs")
    return rows


class DivergedError(ValueError):
    """An SGD fit whose loss became non-finite, or that never beat its zero
    start on its holdout: its learning rate is too large for its data.

    The message says which; callers that know the config key of the fit's
    hyperparameters re-raise it with that key named.
    """


# a diverging fit overflows before its loss is seen to be non-finite
@np.errstate(over="ignore", invalid="ignore")
def train_iterative(
    init: ScorerModel | None,
    X: np.ndarray,
    y: np.ndarray,
    hyper: HyperParams,
    *,
    seed: int,
    batch_size: int,
    rows: np.ndarray | None = None,
    early_stopping: bool = False,
    fingerprint: str = "",
    stage: str = "pseudo_tuned",
    archetype: str = "",
) -> ScorerModel:
    """Mini-batch gradient descent on squared error plus a ridge penalty, in float32.

    Linear warmup then linear decay to zero; data reshuffled each epoch from
    a generator seeded by `seed`, so runs are bitwise reproducible. With
    `early_stopping`, HOLDOUT_FRACTION of the rows are held out and the fit
    keeps its best epoch on them, stopping after two epochs without a gain.

    X, y, the weights and every per-step buffer are float32; the intercept and
    the learning rate are Python floats. A float32 X is read in place; any
    other X is converted once, so the fit is bitwise the one on
    X.astype(np.float32). The model's float64 weights hold the float32 values
    exactly.

    With `rows`, the training rows are X[rows], with y aligned to `rows`, and
    the model is bitwise the one trained on X[rows]; X is read in place, one
    mini-batch (and the holdout) at a time. Each training row is checked for
    finiteness when the first epoch gathers it. A fit whose loss becomes
    non-finite raises DivergedError, and so does a fit from zero weights whose
    best holdout RMSE is not below that of the zero weights.
    """
    X = np.asarray(X, dtype=np.float32)
    y = np.asarray(y, dtype=np.float32)
    rows = _fit_rows(X, y, rows)
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    n, d = rows.shape[0], X.shape[1]
    if init is not None:
        if fingerprint and init.fingerprint and init.fingerprint != fingerprint:
            raise ValueError("init model fingerprint does not match training features")
        if init.weights.shape[0] != d:
            raise ValueError("init model dimension does not match training features")
        w = init.weights.astype(np.float32)
        b = float(init.intercept)
        fingerprint = fingerprint or init.fingerprint
        archetype = archetype or init.archetype
    else:
        w = np.zeros(d, dtype=np.float32)
        b = 0.0

    rng = np.random.default_rng(seed)
    holdout = np.zeros(0, dtype=np.int64)  # positions in rows and y
    train_rows, yt = rows, y
    if early_stopping:
        order = rng.permutation(n)
        n_hold = int(round(n * HOLDOUT_FRACTION))
        if 1 <= n_hold < n:
            holdout = order[n - n_hold :]
            train_rows, yt = rows[order[: n - n_hold]], y[order[: n - n_hold]]
    Xh, yh = X[rows[holdout]], y[holdout]
    if not np.all(np.isfinite(Xh)):
        raise ValueError("non-finite training inputs")
    nt = train_rows.shape[0]
    n_batches = (nt + batch_size - 1) // batch_size
    total_steps = hyper.max_epochs * n_batches

    best = (np.inf, w.copy(), b)
    epochs_since_improvement = 0
    step = 0
    # err = Xb @ w + b - yb; w -= lr * (2 (Xb.T @ err) / m + 2 lambda / n * w);
    # b -= lr * 2 mean(err): computed in place, in that IEEE order, bit for bit
    shrink_scale = 2.0 * hyper.ridge_lambda / n
    gw, shrink = np.empty(d, dtype=np.float32), np.empty(d, dtype=np.float32)
    for epoch in range(hyper.max_epochs):
        perm = rng.permutation(nt)
        epoch_rows, epoch_y = train_rows[perm], yt[perm]
        for start in range(0, nt, batch_size):
            Xb = X.take(epoch_rows[start : start + batch_size], axis=0)
            if epoch == 0 and not np.all(np.isfinite(Xb)):
                raise ValueError("non-finite training inputs")
            m = Xb.shape[0]
            err = Xb @ w
            err += b
            err -= epoch_y[start : start + batch_size]
            total = np.add.reduce(err)  # what err.mean() sums
            # a finite sum has only finite terms; finite errors may still overflow it
            if not (math.isfinite(total) or np.all(np.isfinite(err))):
                raise DivergedError(f"non-finite loss at step {step}")
            lr = _learning_rate_at(step, total_steps, hyper)
            np.matmul(Xb.T, err, out=gw)
            gw *= 2.0
            gw /= m
            np.multiply(shrink_scale, w, out=shrink)
            gw += shrink
            gw *= lr
            w -= gw
            b -= lr * (2.0 * float(total / m))
            step += 1
        if holdout.size:
            score = rmse(Xh @ w + b, yh)
            if score < best[0]:
                best = (score, w.copy(), b)
                epochs_since_improvement = 0
            else:
                epochs_since_improvement += 1
                if epochs_since_improvement > 1:  # patience of one epoch
                    break
    if holdout.size:
        # early stopping keeps the first epoch of a fit whose loss grows from there
        zero_score = rmse(np.zeros_like(yh), yh)
        if init is None and not best[0] < zero_score:
            raise DivergedError(
                f"best holdout RMSE {best[0]:.3g} is not below the zero model's {zero_score:.3g}"
            )
        _, w, b = best
    # the last step may overflow the weights that no later step would use
    if not (math.isfinite(b) and np.all(np.isfinite(w))):
        raise DivergedError(f"non-finite loss at step {step}")
    return ScorerModel(
        weights=w.astype(np.float64),
        intercept=b,
        fingerprint=fingerprint,
        seed=seed,
        stage=stage,
        archetype=archetype,
    )


def predict(model: ScorerModel, X: np.ndarray) -> np.ndarray:
    """Raw linear prediction clamped element-wise to the 1..7 scale."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.weights.shape[0]:
        raise ValueError(
            f"feature dimension {X.shape} does not match model dimension "
            f"{model.weights.shape[0]}"
        )
    return clamp_scores(X @ model.weights + model.intercept)


def _loss(X, y, w, b, ridge_lambda):
    err = X @ w + b - y
    return float(np.mean(err**2) + ridge_lambda / X.shape[0] * np.dot(w, w))


def gradient_check(
    X: np.ndarray,
    y: np.ndarray,
    model: ScorerModel,
    epsilon: float = 1e-6,
    ridge_lambda: float = 0.0,
) -> float:
    """Max relative error between analytic gradient and central differences."""
    X, y = _validate_training_inputs(X, y)
    w = model.weights.astype(np.float64).copy()
    b = float(model.intercept)
    n = X.shape[0]
    err = X @ w + b - y
    analytic = np.concatenate(
        [2.0 * (X.T @ err) / n + 2.0 * ridge_lambda / n * w, [2.0 * float(err.mean())]]
    )
    numeric = np.zeros_like(analytic)
    for j in range(w.shape[0]):
        wp, wm = w.copy(), w.copy()
        wp[j] += epsilon
        wm[j] -= epsilon
        numeric[j] = (_loss(X, y, wp, b, ridge_lambda) - _loss(X, y, wm, b, ridge_lambda)) / (
            2 * epsilon
        )
    numeric[-1] = (
        _loss(X, y, w, b + epsilon, ridge_lambda) - _loss(X, y, w, b - epsilon, ridge_lambda)
    ) / (2 * epsilon)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-12)
    return float(np.max(np.abs(analytic - numeric) / denom))
