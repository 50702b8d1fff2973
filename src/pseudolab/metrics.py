"""Evaluation: RMSE, the third-order calibration mapping, and CV reports."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .linalg import gram, solve_spd

MAX_MAPPING_ORDER = 3


@dataclass
class MappingCoeffs:
    """Cubic calibration mapped = a0 + a1*p + a2*p^2 + a3*p^3.

    Higher coefficients are zero when fewer than four distinct prediction
    values forced an order reduction (degenerate flag set).
    """

    a0: float
    a1: float
    a2: float
    a3: float
    degenerate: bool = False

    def coefficients(self) -> np.ndarray:
        return np.array([self.a0, self.a1, self.a2, self.a3])


@dataclass
class EvalReport:
    setting: str
    per_fold_rmse: list[float]
    fold_mean_rmse: float
    rmse_raw: float
    rmse_mapped: float
    mapping: MappingCoeffs
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def rmse(pred, gold) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    gold = np.asarray(gold, dtype=np.float64)
    if pred.shape != gold.shape or pred.ndim != 1:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gold.shape}")
    if pred.size == 0:
        raise ValueError("rmse of empty arrays is undefined")
    return float(np.sqrt(np.mean((pred - gold) ** 2)))


def fold_mean(per_fold) -> float:
    per_fold = np.asarray(per_fold, dtype=np.float64)
    if per_fold.size == 0:
        raise ValueError("fold_mean of an empty list is undefined")
    return float(per_fold.mean())


def fit_third_order_mapping(pred, gold) -> MappingCoeffs:
    """Least-squares cubic from predictions to gold scores.

    The polynomial order is reduced to (distinct prediction values - 1) when
    fewer than four distinct values would make the system singular.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gold = np.asarray(gold, dtype=np.float64)
    if pred.shape != gold.shape or pred.size == 0:
        raise ValueError("pred and gold must be equal-length non-empty arrays")
    if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(gold))):
        raise ValueError("non-finite inputs to mapping fit")
    distinct = np.unique(pred).size
    order = min(MAX_MAPPING_ORDER, distinct - 1)
    # fit in a standardized basis to keep the normal equations well-conditioned
    shift = float(pred.mean())
    scale = float(pred.std()) or 1.0
    q = (pred - shift) / scale
    A = np.column_stack([q**p for p in range(order + 1)])
    coeffs = solve_spd(gram(A), gram(A, gold))
    composed = np.polynomial.Polynomial(coeffs)(
        np.polynomial.Polynomial([-shift / scale, 1.0 / scale])
    )
    full = np.zeros(MAX_MAPPING_ORDER + 1)
    full[: composed.coef.size] = composed.coef
    return MappingCoeffs(
        a0=float(full[0]),
        a1=float(full[1]),
        a2=float(full[2]),
        a3=float(full[3]),
        degenerate=order < MAX_MAPPING_ORDER,
    )


def apply_mapping(mapping: MappingCoeffs, pred) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.float64)
    c = mapping.coefficients()
    return c[0] + c[1] * pred + c[2] * pred**2 + c[3] * pred**3


def mapped_rmse(pred, gold) -> tuple[float, MappingCoeffs]:
    """Fit the third-order mapping on (pred, gold), apply it, and score."""
    mapping = fit_third_order_mapping(pred, gold)
    return rmse(apply_mapping(mapping, pred), gold), mapping


def render_table(header: list[str], body: list[list[str]]) -> str:
    """Aligned text table: first column left-justified, the rest right-justified."""
    widths = [max([len(h), *(len(row[i]) for row in body)]) for i, h in enumerate(header)]
    return "".join(
        "  ".join([row[0].ljust(widths[0]), *(c.rjust(w) for c, w in zip(row[1:], widths[1:]))])
        + "\n"
        for row in [header, *body]
    )


def render_report_table(reports: list[EvalReport]) -> str:
    """One row per setting, per-fold columns plus the mean."""
    if not reports:
        return ""
    n_folds = len(reports[0].per_fold_rmse)
    header = ["Setting"] + [str(i + 1) for i in range(n_folds)] + ["mean"]
    body = [
        [r.setting] + [f"{v:.3f}" for v in r.per_fold_rmse] + [f"{r.fold_mean_rmse:.3f}"]
        for r in reports
    ]
    return render_table(header, body)
