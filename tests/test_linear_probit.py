"""Linear MMSE estimator: scalar facts and moment oracles."""

import numpy as np
import pytest

from rasch_lmmse.linear_probit import (
    GeneralProbitModel,
    linearize,
    lmmse_fit,
    lmmse_predicted_mse,
    sign_covariance,
)

from oracles import mc_sign_moments


def scalar_model():
    return GeneralProbitModel(
        D=[[1.0]], m=[0.0], x_mean=[0.0], C_x=[[1.0]]
    )


def random_model(rng, M, N, zero_mean=False, scale=1.0):
    D = rng.normal(size=(M, N))
    A = rng.normal(size=(N, N))
    C_x = scale * (A @ A.T + N * np.eye(N))
    if zero_mean:
        return GeneralProbitModel(D=D, m=np.zeros(M), x_mean=np.zeros(N), C_x=C_x)
    return GeneralProbitModel(
        D=D, m=rng.normal(size=M), x_mean=rng.normal(size=N), C_x=C_x
    )


def test_scalar_lmmse_facts():
    model = scalar_model()
    lin = linearize(model)
    assert lin.E[0, 0] == pytest.approx(1.0 / np.sqrt(np.pi), abs=1e-15)
    assert lin.C_y[0, 0] == 1.0
    sol = lmmse_fit(model, [1.0])
    assert sol.estimate[0] == pytest.approx(1.0 / np.sqrt(np.pi), abs=1e-15)
    assert sol.predicted_mse == pytest.approx(1.0 - 1.0 / np.pi, abs=1e-15)
    sol_neg = lmmse_fit(model, [-1.0])
    assert sol_neg.estimate[0] == pytest.approx(-1.0 / np.sqrt(np.pi), abs=1e-15)
    total, per_comp = lmmse_predicted_mse(model)
    assert total == pytest.approx(1.0 - 1.0 / np.pi, abs=1e-15)
    assert per_comp[0] == pytest.approx(1.0 - 1.0 / np.pi, abs=1e-15)


def test_general_moments_match_monte_carlo():
    rng = np.random.default_rng(12)
    model = random_model(rng, M=4, N=3, scale=0.3)
    lin = linearize(model)
    n = 2_000_000
    y_mean, C_y, E, se = mc_sign_moments(
        model.D, model.m, model.x_mean, model.C_x, n, seed=99
    )
    assert np.all(np.abs(lin.y_mean - y_mean) <= 5 * se + 1e-12)
    # covariance entries have SE of order 1/sqrt(n)
    tol = 6.0 / np.sqrt(n)
    assert np.max(np.abs(lin.C_y - C_y)) < tol
    scale = np.sqrt(np.diag(model.C_x))[None, :]
    assert np.max(np.abs(lin.E - E) / scale) < tol


def test_lmmse_estimate_matches_conditional_mean_scalar():
    # for M = 1 the linear estimator equals the posterior mean
    model = scalar_model()
    sol = lmmse_fit(model, [1.0])
    assert sol.estimate[0] == pytest.approx(0.5641895835477564, abs=1e-15)


def test_zero_mean_moments_follow_arcsine_law():
    # At zero mean the bivariate CDF is Sheppard's orthant probability, so
    # C_y is (2/pi) asin of the latent correlations (the arcsine law) and
    # E = sqrt(2/pi) D C_x / sqrt(diag C_z).  Near-duplicate rows, of
    # either sign, put some |rho| past 0.925, the CDF's near-unit branch.
    rng = np.random.default_rng(5)
    for M, N in [(7, 4), (12, 3), (2, 1), (9, 9)]:
        model = random_model(rng, M=M, N=N, zero_mean=True)
        D = model.D.copy()
        D[0] *= 10.0
        D[-1] = -D[0] + 1e-2 * rng.normal(size=N)
        model = GeneralProbitModel(D=D, m=model.m, x_mean=model.x_mean, C_x=model.C_x)
        lin = linearize(model)
        C_z = D @ model.C_x @ D.T + np.eye(M)
        sz = np.sqrt(np.diag(C_z))
        rho = C_z / np.outer(sz, sz)
        assert np.max(np.abs(rho[np.triu_indices(M, 1)])) > 0.925
        arcsine = 2.0 / np.pi * np.arcsin(np.clip(rho, -1.0, 1.0))
        np.fill_diagonal(arcsine, 1.0)
        np.testing.assert_allclose(lin.C_y, arcsine, rtol=0, atol=1e-12)
        assert np.all(np.diag(lin.C_y) == 1.0)
        np.testing.assert_allclose(
            lin.E, np.sqrt(2.0 / np.pi) * (D @ model.C_x) / sz[:, None],
            rtol=0, atol=1e-12,
        )
        assert np.all(lin.y_mean == 0.0)


def test_lmmse_weights_and_mse_match_direct_solve():
    # One solve gives W, b and the MSE; check them against an independent
    # dense solve of C_y, on random models with nonzero means.
    rng = np.random.default_rng(8)
    for M, N in [(6, 3), (9, 4), (4, 5), (1, 2)]:
        model = random_model(rng, M=M, N=N)
        y = np.sign(rng.normal(size=M))
        y[y == 0] = 1.0
        lin = linearize(model)
        sol = lmmse_fit(model, y)
        assert sol.metadata == {"path": "dense"}
        estimate = model.x_mean + lin.E.T @ np.linalg.solve(lin.C_y, y - lin.y_mean)
        per_component = np.diag(model.C_x) - np.diag(
            lin.E.T @ np.linalg.solve(lin.C_y, lin.E)
        )
        np.testing.assert_allclose(sol.W @ y + sol.b, estimate, atol=1e-12)
        np.testing.assert_allclose(sol.estimate, estimate, atol=1e-12)
        np.testing.assert_allclose(sol.per_component_mse, per_component, atol=1e-12)
        assert sol.predicted_mse == pytest.approx(per_component.sum(), abs=1e-12)
        total, per_comp = lmmse_predicted_mse(model)
        np.testing.assert_array_equal(per_comp, sol.per_component_mse)
        assert total == sol.predicted_mse


def test_general_linearize_evaluates_one_bivariate_cdf_per_pair(monkeypatch):
    from rasch_lmmse import linear_probit

    binorm_cdf = linear_probit.binorm_cdf
    evals = []

    def counting(x, y, rho):
        out = binorm_cdf(x, y, rho)
        evals.append(np.size(out))
        return out

    monkeypatch.setattr(linear_probit, "binorm_cdf", counting)
    M = 7
    linearize(random_model(np.random.default_rng(4), M=M, N=3))
    assert sum(evals) == M * (M - 1) // 2


def test_saturated_observation_is_handled():
    model = GeneralProbitModel(
        D=np.eye(2), m=[50.0, 0.0], x_mean=[0.0, 0.0], C_x=np.eye(2)
    )
    lin = linearize(model)
    assert lin.y_mean[0] == pytest.approx(1.0, abs=1e-15)
    assert abs(lin.C_y[0, 1]) == 0.0
    sol = lmmse_fit(model, [1.0, -1.0])
    assert np.all(np.isfinite(sol.estimate))
    # the saturated entry carries no information, the other one does
    assert abs(sol.estimate[1]) > 0.1


def test_zero_design_returns_prior():
    model = GeneralProbitModel(
        D=np.zeros((3, 2)), m=np.zeros(3), x_mean=[0.7, -0.2],
        C_x=np.diag([2.0, 3.0]),
    )
    sol = lmmse_fit(model, [1.0, -1.0, 1.0])
    np.testing.assert_allclose(sol.estimate, [0.7, -0.2], atol=1e-12)
    assert sol.predicted_mse == pytest.approx(5.0, abs=1e-10)


def test_input_validation():
    model = scalar_model()
    with pytest.raises(ValueError):
        lmmse_fit(model, [2.0])
    with pytest.raises(ValueError):
        lmmse_fit(model, [1.0, 1.0])
    with pytest.raises(ValueError):
        GeneralProbitModel(D=[[1.0]], m=[0.0], x_mean=[0.0], C_x=[[-1.0]])
    with pytest.raises(ValueError):
        GeneralProbitModel(D=[[1.0]], m=[0.0, 0.0], x_mean=[0.0], C_x=[[1.0]])


def test_sign_covariance_matches_direct_formula():
    from rasch_lmmse.specfun import binorm_cdf, norm_cdf

    rng = np.random.default_rng(9)
    c = rng.uniform(-6.0, 6.0, size=(60, 2))
    rho = rng.uniform(-1.0, 1.0, size=60)
    # |rho| > 0.925 takes the bivariate CDF's separate expansion.
    rho[40:] = rng.choice([-1.0, 1.0], 20) * rng.uniform(0.925, 1.0, 20)
    samples = [(ci, cj, r) for (ci, cj), r in zip(c, rho)]
    samples += [(0.3, -1.2, 1.0), (0.3, -1.2, -1.0), (6.0, -6.0, 0.5), (0.0, 0.0, 0.0)]
    for ci, cj, rho in samples:
        yi = norm_cdf(ci) - norm_cdf(-ci)
        yj = norm_cdf(cj) - norm_cdf(-cj)
        expected = (
            2.0 * (binorm_cdf(ci, cj, rho) + binorm_cdf(-ci, -cj, rho))
            - 1.0
            - yi * yj
        )
        got = sign_covariance(ci, cj, rho)
        assert got == pytest.approx(expected, abs=1e-14)
        # valid covariance of +-1 variables
        assert abs(got) <= np.sqrt((1 - yi**2) * (1 - yj**2)) + 1e-12
