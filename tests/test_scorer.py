import numpy as np
import pytest

from pseudolab import linalg, scorer
from pseudolab.linalg import MAX_JITTER_RETRIES, solve_spd
from pseudolab.scorer import (
    HOLDOUT_FRACTION,
    DivergedError,
    HyperParams,
    _fit_rows,
    _learning_rate_at,
    ScorerModel,
    gradient_check,
    load_model,
    model_to_json,
    predict,
    save_model,
    train_iterative,
    train_ridge,
)


def ridge_oracle(X, y, lam):
    """Independent normal-equations solve with an explicit intercept column."""
    A = np.column_stack([X, np.ones(X.shape[0])])
    penalty = lam * np.eye(A.shape[1])
    penalty[-1, -1] = 0.0
    sol = np.linalg.solve(A.T @ A + penalty, A.T @ y)
    return sol[:-1], float(sol[-1])


def _random_problem(rng, n=50, d=8, noise=0.1):
    X = rng.normal(size=(n, d))
    w_true = rng.normal(size=d)
    y = np.clip(4.0 + X @ w_true * 0.3 + rng.normal(scale=noise, size=n), 1.0, 7.0)
    return X, y


class TestRidge:
    def test_exact_line(self):
        model = train_ridge(np.array([[1.0], [2.0], [3.0]]), np.array([2.0, 3.0, 4.0]), 0.0)
        assert model.weights[0] == pytest.approx(1.0, abs=1e-9)
        assert model.intercept == pytest.approx(1.0, abs=1e-9)

    def test_infinite_regularization_limit(self, rng):
        X, y = _random_problem(rng)
        model = train_ridge(X, y, 1e12)
        assert np.max(np.abs(model.weights)) < 1e-6
        assert model.intercept == pytest.approx(float(y.mean()), abs=1e-4)

    def test_matches_oracle(self, rng):
        X, y = _random_problem(rng, n=50, d=8)
        model = train_ridge(X, y, 0.1)
        w_ref, b_ref = ridge_oracle(X, y, 0.1)
        np.testing.assert_allclose(model.weights, w_ref, rtol=1e-8)
        assert model.intercept == pytest.approx(b_ref, rel=1e-8)

    def test_optimality_under_perturbations(self, rng):
        X, y = _random_problem(rng, n=40, d=6)
        lam = 0.5
        model = train_ridge(X, y, lam)

        def loss(w, b):
            r = y - X @ w - b
            return float(r @ r + lam * (w @ w))

        base = loss(model.weights, model.intercept)
        for _ in range(1000):
            dw = rng.normal(size=6)
            dw *= 1e-3 / np.linalg.norm(dw)
            db = float(rng.normal()) * 1e-3
            assert loss(model.weights + dw, model.intercept + db) >= base - 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            train_ridge(np.array([[np.nan]]), np.array([2.0]), 0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            train_ridge(np.zeros((0, 2)), np.zeros(0), 0.0)


class TestSolveSpd:
    @pytest.mark.parametrize("n", [1, 10, 200])
    def test_agrees_with_numpy_solve(self, n):
        rng = np.random.default_rng(n)
        M = rng.normal(size=(n + 3, n))
        A = M.T @ M + 0.1 * np.eye(n)
        b = rng.normal(size=n)
        np.testing.assert_allclose(solve_spd(A, b), np.linalg.solve(A, b), rtol=1e-9, atol=1e-12)

    def _count_factorizations(self, monkeypatch):
        calls = []
        factor = linalg._cholesky

        def counted(A):
            calls.append(A.copy())
            return factor(A)

        monkeypatch.setattr(linalg, "_cholesky", counted)
        return calls

    def test_singular_psd_succeeds_after_jitter(self, monkeypatch):
        calls = self._count_factorizations(monkeypatch)
        A = np.ones((2, 2))  # rank 1: the second pivot is exactly 0
        x = solve_spd(A, np.array([1.0, 1.0]))
        assert len(calls) == 2
        np.testing.assert_allclose(A @ x, [1.0, 1.0], rtol=1e-6)

    def test_indefinite_raises_after_every_retry(self, monkeypatch):
        calls = self._count_factorizations(monkeypatch)
        with pytest.raises(np.linalg.LinAlgError, match="jitter"):
            solve_spd(np.diag([1.0, -1.0]), np.ones(2))
        assert len(calls) == MAX_JITTER_RETRIES + 1
        for retry, A in enumerate(calls):
            assert A[1, 1] == -1.0 + retry * linalg.JITTER

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["A", "b"])
    def test_rejects_non_finite(self, bad, where):
        A, b = np.eye(3), np.ones(3)
        (A if where == "A" else b)[-1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            solve_spd(A, b)


@pytest.mark.parametrize("n, d", [(20, 60), (60, 20)])
def test_dual_and_primal_ridge_match_oracle(monkeypatch, n, d):
    """n < d solves the n x n dual system, n >= d the d x d primal; both give
    the normal-equations ridge at the criterion-3 tolerance."""
    sizes = []
    solve = scorer.solve_spd

    def recorded(A, b):
        sizes.append(A.shape)
        return solve(A, b)

    monkeypatch.setattr(scorer, "solve_spd", recorded)
    rng = np.random.default_rng(n * d)
    X = rng.normal(size=(n, d))
    y = rng.uniform(1, 7, size=n)
    model = train_ridge(X, y, 0.7)
    assert sizes == [(min(n, d), min(n, d))]
    w_ref, b_ref = ridge_oracle(X, y, 0.7)
    got, ref = np.append(model.weights, model.intercept), np.append(w_ref, b_ref)
    assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-12)) <= 1e-8


class TestIterative:
    def test_single_sample_fit(self):
        X = np.array([[0.5, -0.2]])
        y = np.array([3.4])
        hyper = HyperParams(learning_rate=0.3, max_epochs=200)
        model = train_iterative(None, X, y, hyper, seed=0, batch_size=1)
        assert predict(model, X)[0] == pytest.approx(3.4, abs=1e-3)

    def test_seed_determinism_bitwise(self, rng):
        X, y = _random_problem(rng)
        hyper = HyperParams()
        a = train_iterative(None, X, y, hyper, seed=42, batch_size=32, early_stopping=True)
        b = train_iterative(None, X, y, hyper, seed=42, batch_size=32, early_stopping=True)
        assert np.array_equal(a.weights, b.weights)
        assert a.intercept == b.intercept
        assert model_to_json(a) == model_to_json(b)

    def test_converges_to_ridge_solution(self, rng):
        # noiseless linear data: iterative training approaches the closed form
        X = rng.normal(size=(200, 6)) * 0.5
        w_true = rng.normal(size=6) * 0.4
        y = np.clip(4.0 + X @ w_true, 1.0, 7.0)
        lam = 0.1
        ridge = train_ridge(X, y, lam)
        hyper = HyperParams(learning_rate=0.3, max_epochs=300, ridge_lambda=lam)
        model = train_iterative(None, X, y, hyper, seed=0, batch_size=32)
        delta = np.linalg.norm(
            np.append(model.weights, model.intercept)
            - np.append(ridge.weights, ridge.intercept)
        )
        assert delta < 1e-3

    def test_convergence_at_default_hyperparams(self, rng):
        X = rng.normal(size=(150, 5)) * 0.5
        y = np.clip(4.0 + X @ (rng.normal(size=5) * 0.3), 1.0, 7.0)
        model = train_iterative(None, X, y, HyperParams(), seed=0, batch_size=32)
        rmse = float(np.sqrt(np.mean((X @ model.weights + model.intercept - y) ** 2)))
        assert rmse < 1e-2

    def test_warm_start_from_init(self, rng):
        X, y = _random_problem(rng)
        init = train_ridge(X, y, 1.0, fingerprint="fp1")
        hyper = HyperParams(learning_rate=0.01, max_epochs=2)
        model = train_iterative(
            init, X, y, hyper, seed=0, batch_size=32, fingerprint="fp1", stage="final"
        )
        assert model.stage == "final"
        assert model.fingerprint == "fp1"

    def test_init_fingerprint_mismatch(self, rng):
        X, y = _random_problem(rng)
        init = train_ridge(X, y, 1.0, fingerprint="fp1")
        with pytest.raises(ValueError, match="fingerprint"):
            train_iterative(
                init, X, y, HyperParams(), seed=0, batch_size=32, fingerprint="fp2"
            )

    def test_empty_training_set(self):
        with pytest.raises(ValueError):
            train_iterative(
                None, np.zeros((0, 3)), np.zeros(0), HyperParams(), seed=0, batch_size=32
            )

    def test_early_stopping_returns_best_epoch(self, rng):
        X, y = _random_problem(rng, n=60, d=4, noise=0.5)
        hyper = HyperParams(learning_rate=0.5, max_epochs=50)
        model = train_iterative(None, X, y, hyper, seed=3, batch_size=32, early_stopping=True)
        assert np.all(np.isfinite(model.weights))


class TestSharedRows:
    """A fit on `rows` of a shared matrix is bitwise the fit on the gathered rows."""

    @pytest.mark.parametrize("early_stopping", [False, True], ids=["no-early-stop", "early-stop"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_bitwise_equal_to_gathered_rows(self, rng, warm, early_stopping):
        X, y_all = _random_problem(rng, n=300, d=12)
        # unordered, with repeats, and leaving rows of X out
        rows = rng.integers(0, 300, size=170)
        y = y_all[rows] + rng.normal(scale=0.05, size=rows.size)
        init = train_ridge(X[rows], y, 1.0, fingerprint="fp") if warm else None
        hyper = HyperParams(learning_rate=0.1, max_epochs=12, ridge_lambda=0.5)
        for batch_size in (1, 20, 32):
            kwargs = dict(
                seed=9, batch_size=batch_size, early_stopping=early_stopping, fingerprint="fp"
            )
            shared = train_iterative(init, X, y, hyper, rows=rows, **kwargs)
            gathered = train_iterative(init, X[rows], y, hyper, **kwargs)
            assert model_to_json(shared) == model_to_json(gathered)

    def test_rows_of_the_whole_matrix(self, rng):
        X, y = _random_problem(rng, n=80, d=5)
        hyper = HyperParams(max_epochs=3)
        kwargs = dict(seed=1, batch_size=16, early_stopping=True)
        whole = train_iterative(None, X, y, hyper, **kwargs)
        indexed = train_iterative(None, X, y, hyper, rows=np.arange(80), **kwargs)
        assert model_to_json(whole) == model_to_json(indexed)

    @pytest.mark.parametrize(
        "rows, match",
        [
            (np.array([0, 1, 40]), "out of range"),
            (np.array([0, -1, 2]), "out of range"),
            (np.array([[0, 1, 2]]), "1-D integer"),
            (np.array([0.0, 1.0, 2.0]), "1-D integer"),
            (np.array([True, False, True]), "1-D integer"),
            (np.array([0, 1]), "2 training rows but 3 targets"),
        ],
        ids=["past-end", "negative", "2-D", "float", "bool", "length"],
    )
    def test_bad_rows_rejected(self, rng, rows, match):
        X, _ = _random_problem(rng, n=40, d=3)
        with pytest.raises(ValueError, match=match):
            train_iterative(
                None, X, np.full(3, 4.0), HyperParams(), seed=0, batch_size=2, rows=rows
            )

    @pytest.mark.parametrize("early_stopping", [False, True], ids=["no-early-stop", "early-stop"])
    def test_non_finite_training_row_rejected(self, rng, early_stopping):
        X, _ = _random_problem(rng, n=40, d=3)
        rows = np.arange(0, 40, 2)
        hyper = HyperParams(max_epochs=2)
        kwargs = dict(seed=0, batch_size=3, rows=rows, early_stopping=early_stopping)
        for bad in rows:
            X_bad = X.copy()
            X_bad[bad, 1] = np.nan
            with pytest.raises(ValueError, match="non-finite training inputs"):
                train_iterative(None, X_bad, np.full(rows.size, 4.0), hyper, **kwargs)
        X_bad = X.copy()
        X_bad[1] = np.inf  # not a training row
        train_iterative(None, X_bad, np.full(rows.size, 4.0), hyper, **kwargs)


class TestFloat32:
    """The SGD step runs in float32: a float64 X is rounded once, up front."""

    @pytest.mark.parametrize("with_rows", [False, True], ids=["all-rows", "repeated-rows"])
    @pytest.mark.parametrize("early_stopping", [False, True], ids=["no-early-stop", "early-stop"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_float64_input_trains_the_float32_model(self, rng, warm, early_stopping, with_rows):
        X = rng.normal(size=(60, 40))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        n = 45
        rows = rng.integers(0, 60, size=n) if with_rows else None
        y = rng.uniform(1.0, 7.0, size=n)
        init = ScorerModel(weights=rng.normal(size=40) * 0.1, intercept=3.5) if warm else None
        hyper = HyperParams(learning_rate=0.3, max_epochs=6, ridge_lambda=1.0)
        X = X if with_rows else X[:n]
        kwargs = dict(seed=5, batch_size=7, rows=rows, early_stopping=early_stopping)
        wide = train_iterative(init, X, y, hyper, **kwargs)
        narrow = train_iterative(init, X.astype(np.float32), y, hyper, **kwargs)
        assert model_to_json(wide) == model_to_json(narrow)
        # float64 weights that hold float32 values exactly
        assert wide.weights.dtype == np.float64
        exact = wide.weights.astype(np.float32).astype(np.float64)
        assert exact.tobytes() == wide.weights.tobytes()

    def test_overflow_at_the_last_step_is_divergence(self, rng):
        # one step: the loss it sees is finite, the weights it writes overflow float32
        X, y = _random_problem(rng, n=8, d=3)
        hyper = HyperParams(learning_rate=1e38, max_epochs=1)
        with pytest.raises(DivergedError, match="^non-finite loss at step 1$"):
            train_iterative(None, X, y, hyper, seed=0, batch_size=8)


# The mini-batch loop the in-place step replaced, kept as the reference: X, y
# and w in float32, the intercept and the learning rate Python floats.
def oracle_train_iterative(
    init, X, y, hyper, *, seed, batch_size, rows=None, early_stopping=False
):
    X = np.asarray(X, dtype=np.float32)
    y = np.asarray(y, dtype=np.float32)
    rows = _fit_rows(X, y, rows)
    n, d = rows.shape[0], X.shape[1]
    if init is not None:
        w = init.weights.astype(np.float32)
        b = float(init.intercept)
    else:
        w = np.zeros(d, dtype=np.float32)
        b = 0.0
    rng = np.random.default_rng(seed)
    holdout = np.zeros(0, dtype=np.int64)
    train_rows, yt = rows, y
    if early_stopping:
        order = rng.permutation(n)
        n_hold = int(round(n * HOLDOUT_FRACTION))
        if 1 <= n_hold < n:
            holdout = order[n - n_hold :]
            train_rows, yt = rows[order[: n - n_hold]], y[order[: n - n_hold]]
    Xh, yh = X[rows[holdout]], y[holdout]
    nt = train_rows.shape[0]
    n_batches = (nt + batch_size - 1) // batch_size
    total_steps = hyper.max_epochs * n_batches

    best = (np.inf, w.copy(), b)
    epochs_since_improvement = 0
    step = 0
    for epoch in range(hyper.max_epochs):
        perm = rng.permutation(nt)
        for start in range(0, nt, batch_size):
            batch = perm[start : start + batch_size]
            Xb, yb = X[train_rows[batch]], yt[batch]
            err = Xb @ w + b - yb
            if not np.all(np.isfinite(err)):
                raise ValueError(f"non-finite loss at step {step}")
            lr = _learning_rate_at(step, total_steps, hyper)
            gw = 2.0 * (Xb.T @ err) / len(batch) + 2.0 * hyper.ridge_lambda / n * w
            gb = 2.0 * float(err.mean())
            w -= lr * gw
            b -= lr * gb
            step += 1
        if holdout.size:
            pred = (Xh @ w + b).astype(np.float64)
            score = float(np.sqrt(np.mean((pred - yh.astype(np.float64)) ** 2)))
            if score < best[0]:
                best = (score, w.copy(), b)
                epochs_since_improvement = 0
            else:
                epochs_since_improvement += 1
                if epochs_since_improvement > 1:
                    break
    if holdout.size:
        _, w, b = best
    return w.astype(np.float64), b


def _fit_outcome(train, *args, **kwargs):
    """A fit's weight bytes and intercept, or the message it raised."""
    try:
        result = train(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    w, b = (result.weights, result.intercept) if isinstance(result, ScorerModel) else result
    return w.tobytes(), float(b).hex()


class TestStepMatchesOracle:
    """The in-place step trains bitwise the model of the reference loop."""

    @pytest.mark.parametrize("with_rows", [False, True], ids=["all-rows", "repeated-rows"])
    @pytest.mark.parametrize("early_stopping", [False, True], ids=["no-early-stop", "early-stop"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("d", [1, 2054])
    def test_bitwise_equal(self, rng, d, warm, early_stopping, with_rows):
        X = rng.normal(size=(60, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)  # unit rows, as the featurizer writes
        n = 45  # a multiple of none of the batch sizes
        rows = rng.integers(0, 60, size=n) if with_rows else None
        y = rng.uniform(1.0, 7.0, size=n)
        init = ScorerModel(weights=rng.normal(size=d) * 0.1, intercept=3.5) if warm else None
        for ridge_lambda in (0.0, 1.0):
            hyper = HyperParams(learning_rate=0.3, max_epochs=6, ridge_lambda=ridge_lambda)
            for batch_size in (1, 7, 20, 32, 64):
                args = (init, X if with_rows else X[:n], y, hyper)
                kwargs = dict(
                    seed=5, batch_size=batch_size, rows=rows, early_stopping=early_stopping
                )
                expected = _fit_outcome(oracle_train_iterative, *args, **kwargs)
                assert isinstance(expected, tuple)
                assert _fit_outcome(train_iterative, *args, **kwargs) == expected

    def test_divergence_fails_at_the_oracle_step(self, rng):
        X, y = _random_problem(rng, n=50, d=8)
        hyper = HyperParams(learning_rate=1e4, max_epochs=20)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = _fit_outcome(oracle_train_iterative, None, X, y, hyper, seed=2, batch_size=7)
            got = _fit_outcome(train_iterative, None, X, y, hyper, seed=2, batch_size=7)
        assert isinstance(expected, str) and expected.startswith("non-finite loss at step ")
        assert got == expected

    def test_overflowing_sum_of_finite_errors(self, rng):
        # every first-step error is about -3e38, finite in float32, but a batch's sum overflows
        X, _ = _random_problem(rng, n=40, d=5)
        y = np.full(40, 3e38)
        assert np.all(np.isfinite(y.astype(np.float32)))
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.add.reduce(np.full(8, -y[0], dtype=np.float32)))
        hyper = HyperParams(learning_rate=0.1, max_epochs=3)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = _fit_outcome(oracle_train_iterative, None, X, y, hyper, seed=4, batch_size=8)
            got = _fit_outcome(train_iterative, None, X, y, hyper, seed=4, batch_size=8)
        assert got == expected
        # it passes input validation and trains past the step whose sum overflows
        assert isinstance(got, str) and got.startswith("non-finite loss at step "), got
        assert got != "non-finite loss at step 0"


class TestPredict:
    def test_constant_model(self):
        model = ScorerModel(weights=np.zeros(3), intercept=3.0)
        assert np.all(predict(model, np.ones((5, 3))) == 3.0)

    def test_clamp_high(self):
        model = ScorerModel(weights=np.zeros(2), intercept=9.2)
        assert predict(model, np.ones((1, 2)))[0] == 7.0

    def test_clamp_low(self):
        model = ScorerModel(weights=np.zeros(2), intercept=-0.5)
        assert predict(model, np.ones((1, 2)))[0] == 1.0

    def test_dimension_mismatch(self):
        model = ScorerModel(weights=np.zeros(2), intercept=0.0)
        with pytest.raises(ValueError, match="dimension"):
            predict(model, np.ones((1, 3)))


class TestGradientCheck:
    def test_random_instance(self, rng):
        X = rng.normal(size=(10, 5))
        y = rng.uniform(1, 7, size=10)
        model = ScorerModel(weights=rng.normal(size=5), intercept=float(rng.normal()))
        assert gradient_check(X, y, model, ridge_lambda=0.3) <= 1e-5

    def test_zero_input_matrix(self, rng):
        X = np.zeros((8, 4))
        y = np.full(8, 3.0)
        model = ScorerModel(weights=rng.normal(size=4), intercept=3.0)
        assert gradient_check(X, y, model, ridge_lambda=1.0) <= 1e-5

    def test_coarse_epsilon_degrades_gracefully(self, rng):
        X = rng.normal(size=(10, 5))
        y = rng.uniform(1, 7, size=10)
        model = ScorerModel(weights=rng.normal(size=5), intercept=0.0)
        assert gradient_check(X, y, model, epsilon=1e-1) <= 1e-2


def test_model_json_roundtrip_bit_exact(tmp_path, rng):
    model = ScorerModel(
        weights=rng.normal(size=20) * np.pi,
        intercept=0.1 + 0.2,
        fingerprint="fp",
        seed=9,
        stage="final",
        archetype="arch",
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert model_to_json(loaded) == model_to_json(model)
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.intercept == model.intercept


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(learning_rate=0.0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            HyperParams(learning_rate=value)
        with pytest.raises(ValueError, match="ridge_lambda must be finite"):
            HyperParams(ridge_lambda=value)
