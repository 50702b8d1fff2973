import json
import math

import numpy as np
import pytest

from pseudolab import pipeline
from pseudolab.artifacts import json_text
from pseudolab.ensemble import make_fold_plan
from pseudolab.pipeline import evaluate_settings
from pseudolab.metrics import (
    EvalReport,
    MappingCoeffs,
    apply_mapping,
    fit_third_order_mapping,
    fold_mean,
    mapped_rmse,
    render_report_table,
    rmse,
)


class TestRmse:
    def test_zero_for_equal(self):
        assert rmse([1.0, 4.0, 7.0], [1.0, 4.0, 7.0]) == 0.0

    def test_constant_offset(self):
        assert rmse([2.0, 3.0, 4.0], [3.0, 4.0, 5.0]) == 1.0

    def test_hand_computed(self):
        assert rmse([1.0, 2.0], [2.0, 4.0]) == pytest.approx(math.sqrt(2.5))

    def test_matches_fsum_oracle(self, rng):
        pred = rng.uniform(1, 7, size=500)
        gold = rng.uniform(1, 7, size=500)
        oracle = math.sqrt(
            math.fsum((p - g) ** 2 for p, g in zip(pred, gold)) / 500
        )
        assert rmse(pred, gold) == pytest.approx(oracle, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([], [])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            rmse([1.0], [1.0, 2.0])


class TestFoldMean:
    def test_published_style_rows(self):
        # five per-fold scores averaging to the reported three-decimal value
        assert round(fold_mean([0.512, 0.460, 0.440, 0.398, 0.488]), 3) == 0.460
        assert round(fold_mean([0.445, 0.455, 0.405, 0.443, 0.418]), 3) == 0.433

    def test_single_fold(self):
        assert fold_mean([0.37]) == 0.37

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fold_mean([])


class TestMapping:
    def test_identity_recovered(self, rng):
        pred = rng.uniform(1, 7, size=200)
        mapping = fit_third_order_mapping(pred, pred)
        mapped = apply_mapping(mapping, pred)
        np.testing.assert_allclose(mapped, pred, atol=1e-9)

    def test_affine_recovered(self, rng):
        gold = rng.uniform(1, 7, size=200)
        pred = (gold - 1.0) / 2.0  # gold = 2*pred + 1
        mapping = fit_third_order_mapping(pred, gold)
        assert mapping.a0 == pytest.approx(1.0, abs=1e-9)
        assert mapping.a1 == pytest.approx(2.0, abs=1e-9)
        assert abs(mapping.a2) < 1e-9 and abs(mapping.a3) < 1e-9
        assert not mapping.degenerate

    def test_cubic_relationship_fully_corrected(self, rng):
        gold = rng.uniform(1.2, 1.8, size=300)
        pred = gold**3
        raw = rmse(pred, gold)
        mapped, mapping = mapped_rmse(pred, gold)
        assert mapped < raw
        assert mapped < 0.02

    def test_constant_predictions_degenerate(self):
        gold = np.array([2.0, 3.0, 4.0, 5.0])
        pred = np.full(4, 3.5)
        mapped, mapping = mapped_rmse(pred, gold)
        assert mapping.degenerate
        assert mapping.a1 == mapping.a2 == mapping.a3 == 0.0
        assert mapping.a0 == pytest.approx(3.5)
        assert mapped == pytest.approx(float(gold.std()))

    def test_two_distinct_values_reduce_to_linear(self):
        pred = np.array([2.0, 2.0, 5.0, 5.0])
        gold = np.array([2.5, 2.5, 6.0, 6.0])
        mapping = fit_third_order_mapping(pred, gold)
        assert mapping.degenerate
        assert mapping.a2 == mapping.a3 == 0.0
        np.testing.assert_allclose(apply_mapping(mapping, pred), gold, atol=1e-9)

    def test_mapped_never_worse_than_raw(self, rng):
        for _ in range(1000):
            n = int(rng.integers(5, 40))
            pred = rng.uniform(1, 7, size=n)
            gold = rng.uniform(1, 7, size=n)
            mapped, _ = mapped_rmse(pred, gold)
            assert mapped <= rmse(pred, gold) + 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            fit_third_order_mapping([np.nan, 1.0], [1.0, 2.0])

    def test_coefficients_order(self):
        mapping = MappingCoeffs(a0=1.0, a1=0.5, a2=-0.1, a3=0.01)
        val = apply_mapping(mapping, np.array([2.0]))[0]
        assert val == pytest.approx(1.0 + 0.5 * 2 - 0.1 * 4 + 0.01 * 8)


def test_cross_validate_with_perfect_oracle(
    small_context, small_dataset, small_pipeline_config, monkeypatch
):
    labeled = small_dataset.labeled_train
    plan = make_fold_plan(len(labeled), n_folds=5, seed=1)
    # every labeled row's one feature is its gold score, and the model predicts it
    mos = {s.text: s.mos for s in labeled}
    monkeypatch.setattr(
        pipeline,
        "embed_archetypes",
        lambda texts, archetypes: {a.name: np.array([[mos[t]] for t in texts]) for a in archetypes},
    )
    monkeypatch.setattr(pipeline, "predict", lambda model, x: x[:, 0])

    report = evaluate_settings(
        small_context, labeled, ["baseline"], plan, small_pipeline_config
    )["baseline"]
    assert report.per_fold_rmse == [0.0] * 5
    assert report.fold_mean_rmse == 0.0
    assert report.rmse_raw == 0.0


def test_render_report_table():
    reports = [
        EvalReport(
            setting="baseline",
            per_fold_rmse=[0.512, 0.460, 0.440, 0.398, 0.488],
            fold_mean_rmse=0.4596,
            rmse_raw=0.46,
            rmse_mapped=0.45,
            mapping=MappingCoeffs(0, 1, 0, 0),
        ),
        EvalReport(
            setting="ensemble_stacker",
            per_fold_rmse=[0.445, 0.455, 0.405, 0.443, 0.418],
            fold_mean_rmse=0.4332,
            rmse_raw=0.44,
            rmse_mapped=0.43,
            mapping=MappingCoeffs(0, 1, 0, 0),
        ),
    ]
    table = render_report_table(reports)
    lines = table.splitlines()
    assert lines[0].split() == ["Setting", "1", "2", "3", "4", "5", "mean"]
    assert "0.460" in lines[1] and "0.433" in lines[2]
    assert len({len(l) for l in lines}) == 1
    assert render_report_table([]) == ""


def test_save_report_roundtrip(tmp_path):
    report = EvalReport(
        setting="ensemble_mean",
        per_fold_rmse=[0.4, 0.5],
        fold_mean_rmse=0.45,
        rmse_raw=0.44,
        rmse_mapped=0.42,
        mapping=MappingCoeffs(0.1, 0.9, 0.0, 0.0),
        details={"n_labeled": 60},
    )
    path = tmp_path / "report.json"
    path.write_text(json_text(report.to_dict()), encoding="utf-8")
    loaded = json.loads(path.read_text())
    assert loaded == report.to_dict()
