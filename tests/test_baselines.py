"""MAP, Gibbs, exact posterior mean, and Fisher bound baselines."""

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq
from scipy.special import expit, log_ndtr, ndtr, ndtri, ndtri_exp

from rasch_lmmse import baselines
from rasch_lmmse.baselines import (
    GibbsConfig,
    MapConfig,
    _draw_latent,
    _rasch_gibbs_block,
    _truncated_std_normal,
    fisher_lower_bound,
    fisher_rasch_ability_bound,
    map_fit,
    pm_exact,
    pm_exact_mse,
    pm_gibbs,
    probit_information,
    rasch_pm_gibbs,
)
from rasch_lmmse.data import ResponseSet
from rasch_lmmse.linear_probit import (
    GeneralProbitModel,
    lmmse_fit,
    lmmse_predicted_mse,
)
from rasch_lmmse.rasch import (
    RaschDesign,
    _BipartiteSchur,
    _Incidence,
    rasch_design_matrix,
)

from oracles import MAP_SCALAR_ROOT, PM_SCALAR_ESTIMATE, numeric_gradient


def scalar_model():
    return GeneralProbitModel(D=[[1.0]], m=[0.0], x_mean=[0.0], C_x=[[1.0]])


def random_model(rng, M, N):
    D = rng.normal(size=(M, N))
    A = rng.normal(size=(N, N))
    C_x = 0.5 * (A @ A.T) + N * np.eye(N)
    return GeneralProbitModel(
        D=D, m=rng.normal(size=M), x_mean=rng.normal(size=N), C_x=C_x
    )


def neg_log_posterior(model, y, x, link):
    t = y * (model.D @ x + model.m)
    if link == "probit":
        from scipy.special import log_ndtr

        terms = -log_ndtr(t)
    else:
        terms = np.logaddexp(0.0, -t)
    dx = x - model.x_mean
    return float(terms.sum() + 0.5 * dx @ np.linalg.solve(model.C_x, dx))


def test_map_scalar_probit_root():
    sol = map_fit(scalar_model(), [1.0])
    assert sol[0] == pytest.approx(MAP_SCALAR_ROOT, abs=1e-9)
    sol_neg = map_fit(scalar_model(), [-1.0])
    assert sol_neg[0] == pytest.approx(-MAP_SCALAR_ROOT, abs=1e-9)


def test_map_scalar_logit_root():
    # stationarity condition: sigmoid(-x) = x
    root = brentq(lambda x: expit(-x) - x, 0.0, 1.0, xtol=1e-14)
    sol = map_fit(scalar_model(), [1.0], MapConfig(link="logit"))
    assert sol[0] == pytest.approx(root, abs=1e-9)


def test_map_gradient_vanishes_at_optimum():
    rng = np.random.default_rng(44)
    for link in ("probit", "logit"):
        for _ in range(5):
            model = random_model(rng, M=8, N=3)
            y = np.where(rng.random(8) < 0.5, 1.0, -1.0)
            x_hat = map_fit(model, y, MapConfig(link=link))
            g = numeric_gradient(
                lambda x: neg_log_posterior(model, y, x, link), x_hat
            )
            assert np.max(np.abs(g)) < 1e-6, link


def test_map_zero_design_returns_prior_mean():
    model = GeneralProbitModel(
        D=np.zeros((4, 2)), m=np.zeros(4), x_mean=[0.4, -1.2], C_x=np.eye(2)
    )
    x_hat = map_fit(model, [1.0, -1.0, 1.0, 1.0])
    np.testing.assert_allclose(x_hat, [0.4, -1.2], atol=1e-12)


def test_map_nonconvergence_is_reported(monkeypatch):
    monkeypatch.setattr(baselines, "_MAP_MAX_ITERATIONS", 1)
    rng = np.random.default_rng(0)
    model = GeneralProbitModel(
        D=rng.normal(size=(8, 3)), m=np.zeros(8), x_mean=np.zeros(3), C_x=np.eye(3)
    )
    y = np.where(rng.random(8) < 0.5, 1.0, -1.0)
    with pytest.raises(RuntimeError, match="did not converge"):
        map_fit(model, y)


def test_map_accepts_machine_precision_plateau():
    # Rasch instance whose gradient-norm floor (~2.3e-8) sits above the
    # default tolerance: the objective reaches its float optimum and the
    # solver must report success instead of burning the iteration cap.
    from rasch_lmmse.rasch import RaschDesign, rasch_design_matrix

    sigma2 = 5.0
    design = RaschDesign(U=5, Q=8, sigma2_a=sigma2, sigma2_d=sigma2)
    model = rasch_design_matrix(design)
    rng = np.random.default_rng(np.random.SeedSequence((3, 1, 13)))
    a = rng.normal(scale=np.sqrt(sigma2), size=5)
    d = rng.normal(scale=np.sqrt(sigma2), size=8)
    w = rng.standard_normal((5, 8))
    y = np.where(a[:, None] - d[None, :] + w >= 0, 1.0, -1.0).flatten(order="F")
    x_hat = map_fit(model, y)
    g = numeric_gradient(
        lambda x: neg_log_posterior(model, y, x, "probit"), x_hat
    )
    assert np.max(np.abs(g)) < 1e-6


def test_map_accepts_gradient_floor_cycle():
    # A training-fold fit over the shipped sample data lands in a rounding
    # cycle: the computed gradient norm pins at ~1.7e-8 (above the default
    # tolerance) while the step keeps toggling the iterate, so the solver
    # must accept the floor rather than exhaust the iteration cap.
    from pathlib import Path

    from rasch_lmmse.data import load_triplets
    from rasch_lmmse.experiments import CvConfig, run_cross_validation

    responses = Path(__file__).parent.parent / "sample_data" / "responses.csv"
    result = run_cross_validation(
        load_triplets(responses),
        CvConfig(folds=5, prior_variance_grid=(0.5, 1.0), estimators=("map",)),
    )
    rec = result.per_estimator["map"]
    assert len(rec["acc_per_fold"]) == 5
    assert all(0.0 <= acc <= 1.0 for acc in rec["acc_per_fold"])


def test_map_config_validation():
    with pytest.raises(ValueError):
        MapConfig(link="cauchy")


def test_gibbs_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(2)
    model = random_model(rng, M=6, N=2)
    y = np.where(rng.random(6) < 0.5, 1.0, -1.0)
    cfg = GibbsConfig(burn_in=100, samples=300, seed=5)
    a = pm_gibbs(model, y, cfg)
    b = pm_gibbs(model, y, cfg)
    np.testing.assert_array_equal(a, b)
    c = pm_gibbs(model, y, GibbsConfig(burn_in=100, samples=300, seed=6))
    assert np.any(a != c)


def test_gibbs_zero_design_recovers_prior_mean():
    model = GeneralProbitModel(
        D=np.zeros((3, 2)), m=np.zeros(3), x_mean=[1.0, -2.0], C_x=0.04 * np.eye(2)
    )
    est = pm_gibbs(model, [1.0, 1.0, -1.0], GibbsConfig(burn_in=200, samples=4000, seed=0))
    np.testing.assert_allclose(est, [1.0, -2.0], atol=0.02)


def test_gibbs_matches_exact_posterior_mean():
    rng = np.random.default_rng(7)
    model = random_model(rng, M=4, N=2)
    y = np.where(rng.random(4) < 0.5, 1.0, -1.0)
    exact, _ = pm_exact(model, y)
    est = pm_gibbs(model, y, GibbsConfig(burn_in=2000, samples=50_000, seed=7))
    assert np.max(np.abs(est - exact)) < 0.02


def test_truncated_normal_fast_path_is_bitwise_equal():
    # Without far-tail entries (lower > 8) the draw skips the masked
    # gathers; it must equal the masked evaluation bit for bit.
    rng = np.random.default_rng(21)
    u = 1.0 - rng.random(1000)
    for lower in (rng.normal(scale=3.0, size=1000).clip(max=8.0),
                  rng.normal(scale=6.0, size=1000)):
        tail = lower > 8.0
        masked = np.empty_like(lower)
        masked[~tail] = -ndtri(u[~tail] * ndtr(-lower[~tail]))
        masked[tail] = -ndtri_exp(np.log(u[tail]) + log_ndtr(-lower[tail]))
        assert np.array_equal(_truncated_std_normal(lower, u), masked)
        assert np.all(np.isfinite(masked)) and np.all(masked > lower)


def random_rasch_responses(rng, U, Q, p_observed):
    """A masked Rasch response set with one empty user row and item column."""
    mask = rng.random((U, Q)) < p_observed
    mask[rng.integers(U)] = False
    mask[:, rng.integers(Q)] = False
    users, items = np.nonzero(mask)
    return ResponseSet(
        users=users, items=items,
        responses=np.where(rng.random(users.size) < 0.5, 1.0, -1.0),
        num_users=U, num_items=Q,
    )


def test_rasch_gibbs_matches_dense_chain():
    # More observed users than items: the factor keeps the items, which is
    # the dense sampler's users-first Cholesky, so both chains see the same
    # draws and agree to rounding.
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 12:
        U = int(rng.integers(4, 16))
        data = random_rasch_responses(rng, U, int(rng.integers(2, U // 2 + 2)), 0.6)
        if len(data) == 0:
            continue
        design = RaschDesign(U=U, Q=data.num_items,
                             sigma2_a=float(rng.uniform(0.2, 3.0)),
                             sigma2_d=float(rng.uniform(0.2, 3.0)))
        if np.unique(data.users).size <= np.unique(data.items).size:
            continue  # the factor would keep the users
        config = GibbsConfig(burn_in=30, samples=70, seed=checked)
        est = rasch_pm_gibbs(design, data, config)
        dense = pm_gibbs(rasch_design_matrix(design, observed=data),
                         data.responses, config)
        seen = np.concatenate([
            np.bincount(data.users, minlength=U) > 0,
            np.bincount(data.items, minlength=design.Q) > 0,
        ])
        np.testing.assert_allclose(est[seen], dense[seen], rtol=0, atol=1e-12)
        assert np.all(est[~seen] == 0.0)
        checked += 1


def sparse_reference_rasch_chain(design, data, config):
    """`rasch_pm_gibbs`'s chain with two bincounts for D^T z and the latent
    drawn as mu + y eps by `_truncated_std_normal`."""
    U, Q = design.U, design.Q
    users, items, y = data.users, data.items, data.responses
    degree = np.bincount(np.concatenate([users, U + items]), minlength=U + Q)
    inv_var = np.concatenate(
        [np.full(U, 1.0 / design.sigma2_a), np.full(Q, 1.0 / design.sigma2_d)]
    )
    schur = _BipartiteSchur(degree + inv_var, _Incidence(design, data),
                            np.ones(len(data)))
    h, kept, B = schur._h, schur.kept, schur._B
    c_inv = np.tril(scipy.linalg.lapack.dtrtri(schur._factor[0], lower=1)[0]).T.copy()
    Bt, inv_sqrt_h = B.T.tocsr(), 1.0 / np.sqrt(h)

    rng = np.random.default_rng(config.seed)
    x = np.zeros(U + Q)
    total = np.zeros(U + Q)
    for it in range(config.burn_in + config.samples):
        mu = x[users] + x[U + items]
        u = 1.0 - rng.random(len(y))
        z = mu + y * _truncated_std_normal(-y * mu, u)
        r = np.concatenate([
            np.bincount(users, weights=z, minlength=U),
            np.bincount(items, weights=z, minlength=Q),
        ])
        xi = rng.standard_normal(U + Q)
        x_kept = c_inv @ (c_inv.T @ (r[kept] - B @ (r / h)) + xi[kept])
        x = (r - Bt @ x_kept) / h + inv_sqrt_h * xi
        x[kept] = x_kept
        if it >= config.burn_in:
            total += x
    total[degree == 0] = 0.0
    return total / config.samples


def test_rasch_gibbs_chain_is_bitwise_the_sparse_reference():
    # Fewer observed users than items, so the factor keeps the users (the
    # case no dense chain pins), with an empty user row and item column.
    rng = np.random.default_rng(2024)
    data = random_rasch_responses(rng, 7, 19, 0.5)
    design = RaschDesign(U=7, Q=19, sigma2_a=0.7, sigma2_d=2.3)
    assert np.unique(data.users).size < np.unique(data.items).size
    config = GibbsConfig(burn_in=50, samples=150, seed=5)
    assert np.array_equal(rasch_pm_gibbs(design, data, config),
                          sparse_reference_rasch_chain(design, data, config))

    # The latent draw, with and without far-tail entries (y mu < -8).
    for scale in (2.0, 6.0):
        mu = rng.normal(scale=scale, size=2000)
        y = np.where(rng.random(2000) < 0.5, 1.0, -1.0)
        u = 1.0 - rng.random(2000)
        assert np.array_equal(_draw_latent(mu, y, u),
                              mu + y * _truncated_std_normal(-y * mu, u))


def test_rasch_gibbs_block_matches_single_chains():
    # Two priors (sigma2_a != sigma2_d), three chains each, on a partial
    # mask with an empty user row and item column; the factor keeps the
    # users on the 6 x 15 mask and the items on the 15 x 6 one.  Each row
    # of the block must be, bit for bit, its chain run alone.
    rng = np.random.default_rng(515)
    sides = set()
    for U, Q in ((6, 15), (15, 6)):
        data = random_rasch_responses(rng, U, Q, 0.5)
        unseen = np.concatenate([np.bincount(data.users, minlength=U) == 0,
                                 np.bincount(data.items, minlength=Q) == 0])
        h = np.bincount(np.concatenate([data.users, U + data.items]),
                        minlength=U + Q) + 1.0
        inc = _Incidence(RaschDesign(U, Q, 1.0, 1.0), data)
        sides.add(_BipartiteSchur(h, inc, np.ones(len(data))).side)
        chains = [
            (design, np.where(rng.random(len(data)) < 0.5, 1.0, -1.0),
             GibbsConfig(burn_in=40, samples=80, seed=int(rng.integers(2**32))))
            for design in (RaschDesign(U, Q, 0.6, 2.2), RaschDesign(U, Q, 1.9, 0.4))
            for _ in range(3)
        ]
        block = _rasch_gibbs_block(data, chains)
        for row, (design, y, config) in zip(block, chains):
            alone = rasch_pm_gibbs(design, ResponseSet(
                data.users, data.items, y, num_users=U, num_items=Q), config)
            assert np.array_equal(row, alone)
        assert unseen.sum() >= 2 and np.all(block[:, unseen] == 0.0)
        assert np.all(block[:, ~unseen] != 0.0)
    assert sides == {"users", "items"}
    with pytest.raises(ValueError, match="equal burn_in and samples"):
        _rasch_gibbs_block(data, [chains[0], (*chains[1][:2], GibbsConfig(1, 80))])


def test_rasch_gibbs_matches_exact_posterior_mean_on_tiny_instances():
    # U + Q <= 3, so pm_exact applies; a multi-chain mean within 3 Monte
    # Carlo standard errors, as acceptance criterion 8 checks pm_gibbs.
    # Each instance has no more observed users than items, so the factor
    # keeps the users and the chain is not the dense sampler's (the
    # items-kept case is pinned to it exactly above); the last has a user
    # with no responses.
    rng = np.random.default_rng(303)
    chains = 10
    instances = [(1, 1, [0], [0]), (1, 2, [0, 0], [0, 1]), (2, 1, [1], [0])]
    for k, (U, Q, users, items) in enumerate(instances):
        design = RaschDesign(U=U, Q=Q, sigma2_a=float(rng.uniform(0.3, 3.0)),
                             sigma2_d=float(rng.uniform(0.3, 3.0)))
        data = ResponseSet(
            users=users, items=items,
            responses=np.where(rng.random(len(users)) < 0.5, 1.0, -1.0),
            num_users=U, num_items=Q,
        )
        exact, _ = pm_exact(rasch_design_matrix(design, observed=data),
                            data.responses)
        means = np.array([
            rasch_pm_gibbs(design, data, GibbsConfig(
                burn_in=200, samples=5_000, seed=100 * k + c))
            for c in range(chains)
        ])
        seen = np.concatenate([np.isin(np.arange(U), users),
                               np.isin(np.arange(Q), items)])
        grand = means.mean(axis=0)[seen]
        se = means.std(axis=0, ddof=1)[seen] / np.sqrt(chains)
        assert np.all(np.abs(grand - exact[seen]) <= 3.0 * se)
        assert np.all(means[:, ~seen] == 0.0)


def test_gibbs_config_validation():
    with pytest.raises(ValueError):
        GibbsConfig(burn_in=-1, samples=10)
    with pytest.raises(ValueError):
        GibbsConfig(burn_in=0, samples=0)


@pytest.mark.parametrize("make", [
    lambda: GibbsConfig(samples=20.0),
    lambda: GibbsConfig(burn_in=1.0),
    lambda: GibbsConfig(seed=1.5),
])
def test_config_integer_fields_reject_non_integers(make):
    # A float count or seed would otherwise raise only mid-run.
    with pytest.raises(TypeError):
        make()


def test_config_integer_fields_are_python_ints():
    cfg = GibbsConfig(burn_in=np.int64(3), samples=np.int32(4), seed=np.uint64(7))
    assert [type(v) for v in (cfg.burn_in, cfg.samples, cfg.seed)] == [int] * 3
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        GibbsConfig(seed=-1)


@pytest.mark.parametrize("make", [
    lambda: GibbsConfig(burn_in=True),
    lambda: GibbsConfig(samples=True),
    lambda: GibbsConfig(seed=False),
])
def test_config_integers_reject_bools(make):
    with pytest.raises(TypeError, match="must be an integer, got (True|False)"):
        make()


def test_pm_exact_scalar_facts():
    model = scalar_model()
    est, mse = pm_exact(model, [1.0])
    assert est[0] == pytest.approx(PM_SCALAR_ESTIMATE, abs=1e-10)
    est_neg, _ = pm_exact(model, [-1.0])
    assert est_neg[0] == pytest.approx(-PM_SCALAR_ESTIMATE, abs=1e-10)
    assert mse == pytest.approx(1.0 - 1.0 / np.pi, abs=1e-10)
    # with a single sign observation the posterior mean is linear in y,
    # so it coincides with the linear MMSE estimator exactly
    lin = lmmse_fit(model, [1.0])
    assert est[0] == pytest.approx(lin.estimate[0], abs=1e-10)
    assert pm_exact_mse(model) == pytest.approx(lin.predicted_mse, abs=1e-10)


def test_pm_never_worse_than_lmmse():
    rng = np.random.default_rng(13)
    for _ in range(5):
        model = random_model(rng, M=6, N=2)
        pm_mse = pm_exact_mse(model)
        lin_total, _ = lmmse_predicted_mse(model)
        assert pm_mse <= lin_total + 1e-9


def test_pm_exact_dimension_limits():
    rng = np.random.default_rng(1)
    big_n = random_model(rng, M=3, N=4)
    with pytest.raises(ValueError):
        pm_exact(big_n, np.ones(3))
    design = RaschDesign(U=4, Q=4, sigma2_a=1.0, sigma2_d=1.0)
    model = rasch_design_matrix(design)  # M = 16 > 12
    with pytest.raises(ValueError):
        pm_exact_mse(model)


def test_probit_information_at_zero():
    assert probit_information(0.0) == pytest.approx(2.0 / np.pi, abs=1e-15)
    # decays symmetrically away from zero
    vals = probit_information(np.array([-2.0, 0.0, 2.0]))
    assert vals[0] == pytest.approx(vals[2], rel=1e-12)
    assert vals[1] > vals[0]


def test_fisher_zero_design_is_prior_variance():
    model = GeneralProbitModel(
        D=np.zeros((3, 2)), m=np.zeros(3), x_mean=np.zeros(2),
        C_x=np.diag([2.0, 5.0]),
    )
    fb = fisher_lower_bound(model, np.zeros(2))
    np.testing.assert_allclose(fb, [2.0, 5.0], atol=1e-12)


def test_fisher_known_difficulty_closed_form():
    # Q items at the prior mean: information Q * (2/pi) plus prior precision
    for Q, sigma2 in ((1, 1.0), (5, 0.5), (20, 2.0)):
        model = GeneralProbitModel(
            D=np.ones((Q, 1)), m=np.zeros(Q), x_mean=[0.0], C_x=[[sigma2]]
        )
        fb = fisher_lower_bound(model, np.zeros(1))
        expected = 1.0 / (Q * 2.0 / np.pi + 1.0 / sigma2)
        assert fb[0] == pytest.approx(expected, abs=1e-14)


def test_fisher_rasch_closed_form_matches_dense():
    for (U, Q, s2) in ((1, 1, 1.0), (3, 4, 0.5), (7, 2, 5.0), (20, 50, 0.05)):
        design = RaschDesign(U=U, Q=Q, sigma2_a=s2, sigma2_d=s2)
        model = rasch_design_matrix(design)
        dense = fisher_lower_bound(model, np.zeros(U + Q))
        closed = fisher_rasch_ability_bound(U, Q, s2)
        np.testing.assert_allclose(dense[:U], closed, atol=1e-12)


def test_fisher_bound_below_lmmse_mse():
    from rasch_lmmse.rasch import rasch_closed_form_mse

    for (U, Q, s2) in ((2, 5, 0.5), (10, 10, 1.0), (4, 30, 3.0)):
        mse_a, _ = rasch_closed_form_mse(
            RaschDesign(U=U, Q=Q, sigma2_a=s2, sigma2_d=s2)
        )
        assert fisher_rasch_ability_bound(U, Q, s2) <= mse_a + 1e-12


def test_fisher_result_shape():
    rng = np.random.default_rng(3)
    model = random_model(rng, M=5, N=3)
    point = rng.normal(size=3)
    fb = fisher_lower_bound(model, point)
    assert isinstance(fb, np.ndarray)
    assert fb.shape == (3,)
    assert np.all(fb > 0)
