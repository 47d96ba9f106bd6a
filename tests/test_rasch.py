"""Rasch design: closed-form MSE, structured inverse, Woodbury fit, structured MAP,
known difficulties."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit, log_ndtr

from rasch_lmmse.baselines import (
    _MAP_GRADIENT_TOLERANCE,
    GibbsConfig,
    MapConfig,
    _damped_newton,
    _rasch_gibbs_block,
    map_fit,
    rasch_map_fit,
)
from oracles import known_difficulty_reference
from rasch_lmmse import rasch
from rasch_lmmse.data import ResponseSet
from rasch_lmmse.experiments import _trial_rng, snr_to_sigma2
from rasch_lmmse.linear_probit import (
    GeneralProbitModel,
    linearize,
    lmmse_fit,
    lmmse_predicted_mse,
)
from rasch_lmmse.rasch import (
    _SCHUR_ROW_BLOCK,
    KnownDifficultyModel,
    RaschDesign,
    _BipartiteSampler,
    _BipartiteSchur,
    _decoupled_lmmse_estimate,
    _full_response_set,
    _Incidence,
    known_difficulty_fit,
    known_difficulty_predicted_mse,
    rasch_asymptotic_mse,
    rasch_closed_form_mse,
    rasch_design_matrix,
    rasch_fast_lmmse_fit,
    rasch_lmmse_fit,
    rasch_s,
    split_estimate,
    structured_cy_inverse,
)


def dense_ability_mse(U, Q, sigma2):
    design = RaschDesign(U=U, Q=Q, sigma2_a=sigma2, sigma2_d=sigma2)
    model = rasch_design_matrix(design)
    lin = linearize(model)
    X = np.linalg.solve(lin.C_y, lin.E)
    per_comp = np.diag(model.C_x) - np.einsum("mk,mk->k", lin.E, X)
    return per_comp[:U], per_comp[U:]


def random_responses(rng, U, Q):
    Y = np.where(rng.random((U, Q)) < 0.5, 1.0, -1.0)
    return Y


def test_design_matrix_row_convention():
    design = RaschDesign(U=3, Q=2, sigma2_a=1.0, sigma2_d=1.0)
    model = rasch_design_matrix(design)
    M = 6
    for m in range(M):
        u, i = m % 3, m // 3
        row = model.D[m]
        assert row[u] == 1.0 and row[3 + i] == 1.0
        assert row.sum() == 2.0
    # flatten convention: y for row m is Y[u, i] with column-major flattening
    Y = np.arange(6, dtype=float).reshape(3, 2)
    y_flat = Y.flatten(order="F")
    for m in range(M):
        assert y_flat[m] == Y[m % 3, m // 3]


def test_design_matrix_observed_subset_and_validation():
    design = RaschDesign(U=3, Q=3, sigma2_a=1.0, sigma2_d=1.0)
    from rasch_lmmse.data import ResponseSet

    obs = ResponseSet(
        users=np.array([0, 2]), items=np.array([1, 1]),
        responses=np.array([1.0, -1.0]), num_users=3, num_items=3,
    )
    model = rasch_design_matrix(design, observed=obs)
    assert model.D.shape == (2, 6)
    assert model.D[0, 0] == 1.0 and model.D[0, 4] == 1.0
    assert model.D[1, 2] == 1.0 and model.D[1, 4] == 1.0

    bad = ResponseSet(
        users=np.array([0, 5]), items=np.array([0, 0]),
        responses=np.array([1.0, 1.0]), num_users=6, num_items=1,
    )
    with pytest.raises(ValueError):
        rasch_design_matrix(design, observed=bad)
    # Rasch fits never build a sparse design; the dense one is the reference.
    with pytest.raises(ValueError, match="rasch_pm_gibbs"):
        rasch_design_matrix(design, observed=obs, sparse=True)


def test_design_validation():
    with pytest.raises(ValueError):
        RaschDesign(U=0, Q=3, sigma2_a=1.0, sigma2_d=1.0)
    with pytest.raises(ValueError):
        RaschDesign(U=2, Q=3, sigma2_a=0.0, sigma2_d=1.0)
    assert RaschDesign(U=2, Q=3, sigma2_a=1.0, sigma2_d=2.0).equal_variances is False


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_design_requires_finite_variances(bad):
    with pytest.raises(ValueError, match="finite and positive"):
        RaschDesign(U=2, Q=3, sigma2_a=bad, sigma2_d=1.0)
    with pytest.raises(ValueError, match="finite and positive"):
        RaschDesign(U=2, Q=3, sigma2_a=1.0, sigma2_d=bad)


def test_rasch_s_values():
    assert rasch_s(1.0) == pytest.approx((2 / np.pi) * np.arcsin(1 / 3), abs=1e-16)
    assert rasch_s(0.0) == 0.0
    # bounded strictly below 1/3 for any variance
    for s2 in (0.01, 1.0, 100.0, 1e8):
        assert rasch_s(s2) < 1 / 3
    with pytest.raises(ValueError):
        rasch_s(-0.1)


def test_closed_form_matches_dense_small_grid():
    worst = 0.0
    for U in (1, 2, 3, 5):
        for Q in (1, 2, 4):
            for sigma2 in (0.05, 1.0, 5.0):
                mse_a, mse_d = rasch_closed_form_mse(
                    RaschDesign(U=U, Q=Q, sigma2_a=sigma2, sigma2_d=sigma2)
                )
                per_a, per_d = dense_ability_mse(U, Q, sigma2)
                worst = max(
                    worst,
                    np.max(np.abs(per_a - mse_a)),
                    np.max(np.abs(per_d - mse_d)),
                )
    assert worst < 1e-10


def test_closed_form_symmetry_and_bounds():
    for sigma2 in (0.1, 1.0, 3.0):
        for U, Q in ((2, 7), (4, 4), (9, 3)):
            mse_a, mse_d = rasch_closed_form_mse(
                RaschDesign(U=U, Q=Q, sigma2_a=sigma2, sigma2_d=sigma2)
            )
            mse_a_sw, mse_d_sw = rasch_closed_form_mse(
                RaschDesign(U=Q, Q=U, sigma2_a=sigma2, sigma2_d=sigma2)
            )
            assert mse_d == pytest.approx(mse_a_sw, abs=1e-15)
            assert mse_a == pytest.approx(mse_d_sw, abs=1e-15)
            assert 0.0 < mse_a < sigma2
            assert mse_a >= rasch_asymptotic_mse(sigma2) - 1e-12


def test_closed_form_monotone_in_items():
    sigma2 = 1.0
    values = [
        rasch_closed_form_mse(
            RaschDesign(U=5, Q=Q, sigma2_a=sigma2, sigma2_d=sigma2)
        )[0]
        for Q in (1, 2, 4, 8, 16, 64)
    ]
    assert all(a > b for a, b in zip(values[:-1], values[1:]))


def test_closed_form_requires_equal_variances():
    with pytest.raises(ValueError):
        rasch_closed_form_mse(RaschDesign(U=2, Q=2, sigma2_a=1.0, sigma2_d=2.0))


def test_asymptotic_values():
    assert rasch_asymptotic_mse(0.0) == 0.0
    assert rasch_asymptotic_mse(1.0) == pytest.approx(
        0.019137344825890927, abs=1e-15
    )
    # approaches the closed form as both dimensions grow (gap is O(1/U))
    for U in (10**4, 10**5):
        big = rasch_closed_form_mse(
            RaschDesign(U=U, Q=U, sigma2_a=1.0, sigma2_d=1.0)
        )[0]
        assert abs(big - rasch_asymptotic_mse(1.0)) < 4.0 / U


def test_asymptotic_mse_keeps_precision_at_extreme_priors():
    # sigma2 (1 - x / asin(x)), x = sigma2 / (2 sigma2 + 1): below 1e-6 the
    # leading term sigma2 x^2 / 6 agrees to O(x^2); 1 - x / asin(x) itself
    # cancels to 0.0 there.
    for s2 in (1e-6, 1e-8, 1e-20, 1e-60, 1e-100):
        x = s2 / (2.0 * s2 + 1.0)
        assert rasch_asymptotic_mse(s2) == pytest.approx(s2 * x * x / 6.0, rel=1e-11)
    x = 0.5 / 2.0
    assert rasch_asymptotic_mse(0.5) == pytest.approx(
        0.5 * (1.0 - x / np.arcsin(x)), rel=1e-14
    )
    for s2 in 10.0 ** np.arange(-100, 301, 25):
        value = rasch_asymptotic_mse(s2)
        assert np.isfinite(value) and 0.0 < value < s2


def test_structured_inverse_equations_and_product():
    rng = np.random.default_rng(17)
    for _ in range(25):
        U = int(rng.integers(1, 12))
        Q = int(rng.integers(1, 12))
        sigma2 = float(10 ** rng.uniform(-2, 1))
        design = RaschDesign(U=U, Q=Q, sigma2_a=sigma2, sigma2_d=sigma2)
        inv = structured_cy_inverse(design)
        s, a, b, c, d = inv.s, inv.a, inv.b, inv.c, inv.d
        eqs = [
            a + (U - 1) * s * b + (Q - 1) * s * c - 1.0,
            s * a + ((U - 2) * s + 1) * b + (Q - 1) * s * d,
            s * a + ((Q - 2) * s + 1) * c + (U - 1) * s * d,
            s * b + s * c + ((U + Q - 4) * s + 1) * d,
        ]
        assert np.max(np.abs(eqs)) < 1e-12, (U, Q, sigma2)

        model = rasch_design_matrix(design)
        C_y = linearize(model).C_y
        prod = C_y @ inv.dense()
        assert np.max(np.abs(prod - np.eye(U * Q))) < 1e-10, (U, Q, sigma2)


def test_fast_fit_matches_dense():
    rng = np.random.default_rng(23)
    for (U, Q) in ((1, 1), (1, 5), (5, 1), (2, 2), (4, 7), (8, 3)):
        for sigma2 in (0.2, 1.0, 4.0):
            design = RaschDesign(U=U, Q=Q, sigma2_a=sigma2, sigma2_d=sigma2)
            Y = random_responses(rng, U, Q)
            fast = rasch_fast_lmmse_fit(design, Y)
            model = rasch_design_matrix(design)
            dense = lmmse_fit(model, Y.flatten(order="F"))
            np.testing.assert_allclose(
                fast.estimate, dense.estimate, atol=1e-9
            )
            np.testing.assert_allclose(
                fast.per_component_mse, dense.per_component_mse, atol=1e-9
            )
            assert fast.metadata["path"] == "woodbury"
            assert fast.W is None and fast.b is None


def test_fast_fit_memory_stays_linear():
    # dense C_y would need (U Q)^2 = 4e8 entries; the fast path stays small
    design = RaschDesign(U=100, Q=200, sigma2_a=1.0, sigma2_d=1.0)
    Y = random_responses(np.random.default_rng(0), 100, 200)
    tracemalloc.start()
    rasch_fast_lmmse_fit(design, Y)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 50e6


def test_fast_fit_unequal_variances_falls_back():
    design = RaschDesign(U=3, Q=4, sigma2_a=1.0, sigma2_d=2.0)
    Y = random_responses(np.random.default_rng(1), 3, 4)
    sol = rasch_fast_lmmse_fit(design, Y)
    assert sol.metadata["path"] == "woodbury"
    model = rasch_design_matrix(design)
    dense = lmmse_fit(model, Y.flatten(order="F"))
    np.testing.assert_allclose(sol.estimate, dense.estimate, atol=1e-10)


@st.composite
def masked_instances(draw):
    U = draw(st.integers(1, 8))
    Q = draw(st.integers(1, 8))
    mask = np.array(
        draw(st.lists(st.booleans(), min_size=U * Q, max_size=U * Q))
    ).reshape(U, Q)
    if not mask.any():
        mask[draw(st.integers(0, U - 1)), draw(st.integers(0, Q - 1))] = True
    users, items = np.nonzero(mask)
    signs = draw(
        st.lists(st.booleans(), min_size=users.size, max_size=users.size)
    )
    data = ResponseSet(
        users=users, items=items, responses=np.where(signs, 1.0, -1.0),
        num_users=U, num_items=Q,
    )
    log_var = st.floats(-2.0, 1.3)
    sigma2_a, sigma2_d = 10.0 ** draw(log_var), 10.0 ** draw(log_var)
    return RaschDesign(U=U, Q=Q, sigma2_a=sigma2_a, sigma2_d=sigma2_d), data


@settings(max_examples=200, deadline=None)
@given(masked_instances())
def test_woodbury_fit_matches_dense_on_random_masks(instance):
    design, data = instance
    sol = rasch_lmmse_fit(design, data)
    dense = lmmse_fit(rasch_design_matrix(design, observed=data), data.responses)
    np.testing.assert_allclose(sol.estimate, dense.estimate, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        sol.per_component_mse, dense.per_component_mse, rtol=0, atol=1e-12
    )
    assert sol.predicted_mse == pytest.approx(dense.predicted_mse, abs=1e-11)
    assert sol.metadata["path"] == "woodbury"

    # Users and items without responses keep exactly the prior.
    U = design.U
    unseen = np.concatenate([
        np.bincount(data.users, minlength=U) == 0,
        np.bincount(data.items, minlength=design.Q) == 0,
    ])
    prior = np.concatenate([
        np.full(U, design.sigma2_a), np.full(design.Q, design.sigma2_d)
    ])
    assert np.all(sol.estimate[unseen] == 0.0)
    assert np.all(sol.per_component_mse[unseen] == prior[unseen])


@pytest.mark.parametrize("U, Q, side", [(40, 3, "items"), (3, 40, "users")])
def test_woodbury_fit_eliminates_the_larger_side(U, Q, side, monkeypatch):
    # One side far larger than the other, so the Schur complement keeps
    # the smaller one; a few users and items have no responses at all.  The
    # MSE comes from the inverse Cholesky factor alone: LAPACK's dpotri
    # (which wakes an OpenBLAS worker thread even at n = 20) is never called.
    def no_dpotri(*args, **kwargs):
        raise AssertionError("dpotri called")

    monkeypatch.setattr(scipy.linalg.lapack, "dpotri", no_dpotri)
    rng = np.random.default_rng(U * 100 + Q)
    for sigma2_a, sigma2_d in ((0.3, 4.0), (2.5, 0.5)):
        design = RaschDesign(U=U, Q=Q, sigma2_a=sigma2_a, sigma2_d=sigma2_d)
        mask = rng.random((U, Q)) < 0.6
        mask[rng.integers(U)] = False
        mask[:, rng.integers(Q)] = False
        users, items = np.nonzero(mask)
        data = ResponseSet(
            users=users, items=items,
            responses=np.where(rng.random(users.size) < 0.5, 1.0, -1.0),
            num_users=U, num_items=Q,
        )
        sol = rasch_lmmse_fit(design, data)
        dense = lmmse_fit(rasch_design_matrix(design, observed=data), data.responses)
        np.testing.assert_allclose(sol.estimate, dense.estimate, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            sol.per_component_mse, dense.per_component_mse, rtol=0, atol=1e-12
        )
        kept = np.unique(users if side == "users" else items)
        assert sol.metadata == {
            "path": "woodbury", "schur_side": side, "schur_size": kept.size,
        }


@settings(max_examples=200, deadline=None)
@given(masked_instances(), st.integers(0, 2**32 - 1))
def test_bipartite_sample_matches_dense_cholesky_draw(instance, seed):
    # H = diag(h) + [[0, B], [B^T, 0]] with positive weights, as in a MAP
    # Newton step.  Ordering the eliminated parameters first, the dense draw
    # L^{-T}(L^{-1} r + xi) with H = L L^T is exactly the structured one.
    design, data = instance
    U, N = design.U, design.U + design.Q
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 2.0, size=len(data))
    cols = np.concatenate([data.users, U + data.items])
    h = np.bincount(cols, weights=np.tile(weights, 2), minlength=N) + 0.5
    schur = _BipartiteSchur(h, _Incidence(design, data), weights)
    H = np.diag(h)
    H[data.users, U + data.items] = weights
    H[U + data.items, data.users] = weights
    r, xi = rng.standard_normal(N), rng.standard_normal(N)

    order = np.concatenate([np.setdiff1d(np.arange(N), schur.kept), schur.kept])
    L = np.linalg.cholesky(H[np.ix_(order, order)])
    dense = np.empty(N)
    dense[order] = np.linalg.solve(L.T, np.linalg.solve(L, r[order]) + xi[order])
    draw = _BipartiteSampler([(schur, 1)]).sample(r[None], xi[None])[0]
    np.testing.assert_allclose(draw, dense, rtol=0, atol=1e-10)


def test_incidence_block_rows_are_bitwise_one_row_calls():
    # D x and D^T r of a (T, .) block, T = 1 and 3, against the one-row
    # calls, and each one-row call against its definition (D^T r as one
    # bincount per side), on skewed masks with an empty user and an empty
    # item and the pairs in random order.  The Schur factor keeps the side
    # a count over data's users and items picks (users on a tie).
    rng = np.random.default_rng(2020)
    for U, Q in ((7, 12), (12, 7), (9, 9)):
        users, items = np.nonzero(skewed_mask(rng, U, Q))
        order = rng.permutation(users.size)
        users, items = users[order], items[order]
        data = ResponseSet(users, items, np.ones(users.size), num_users=U, num_items=Q)
        design = RaschDesign(U=U, Q=Q, sigma2_a=0.7, sigma2_d=1.8)
        inc = _Incidence(design, data)
        assert np.array_equal(inc.prior, np.diag(rasch_design_matrix(design).C_x))
        for T in (1, 3, 1):
            X = rng.standard_normal((T, U + Q))
            R = rng.standard_normal((T, users.size))
            block_dx, block_dtr = inc.forward(X), inc.adjoint(R)
            assert block_dx.shape == R.shape and block_dtr.shape == X.shape
            for x, r, dx, dtr in zip(X, R, block_dx, block_dtr):
                one_dx, one_dtr = inc.forward(x), inc.adjoint(r)
                assert np.array_equal(dx, one_dx) and np.array_equal(dtr, one_dtr)
                assert np.array_equal(one_dx, x[users] + x[U + items])
                assert np.array_equal(one_dtr, np.concatenate([
                    np.bincount(users, weights=r, minlength=U),
                    np.bincount(items, weights=r, minlength=Q),
                ]))
        seen_users, seen_items = np.unique(users), np.unique(items)
        assert seen_users.size < U and seen_items.size < Q
        schur = _BipartiteSchur(inc.degree + 1.0, inc, np.ones(users.size))
        if seen_users.size <= seen_items.size:
            assert schur.side == "users" and np.array_equal(schur.kept, seen_users)
        else:
            assert schur.side == "items" and np.array_equal(schur.kept, U + seen_items)


def test_rasch_lmmse_fit_memory_below_dense_k():
    # U + Q = 2000 parameters: the dense K = alpha S^{-1} + D^T D alone
    # would take (U + Q)^2 * 8 = 32 MB.
    U, Q = 600, 1400
    rng = np.random.default_rng(8)
    pairs = rng.choice(U * Q, size=20_000, replace=False)
    data = ResponseSet(
        users=pairs // Q, items=pairs % Q,
        responses=np.where(rng.random(pairs.size) < 0.5, 1.0, -1.0),
        num_users=U, num_items=Q,
    )
    design = RaschDesign(U=U, Q=Q, sigma2_a=1.0, sigma2_d=1.0)
    tracemalloc.start()
    sol = rasch_lmmse_fit(design, data)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < (U + Q) ** 2 * 8
    assert sol.metadata["schur_side"] == "users"


@pytest.mark.parametrize("U, Q, M", [(40, 70, 1500), (300, 120, 20000)])
def test_schur_solve_reads_the_one_transpose_bitwise(U, Q, M):
    # `solve` multiplies by the B^T built with the factor (`_Bt`): bitwise
    # the product with B.T, random weights on random pairs.
    rng = np.random.default_rng(U + Q)
    pairs = rng.choice(U * Q, size=M, replace=False)
    users, items = pairs % U, pairs // U
    data = ResponseSet(users, items, np.ones(M), num_users=U, num_items=Q)
    inc = _Incidence(RaschDesign(U=U, Q=Q, sigma2_a=0.7, sigma2_d=1.8), data)
    weights = rng.uniform(0.1, 2.0, size=M)
    schur = _BipartiteSchur(inc.adjoint(weights) + 1.0 / inc.prior, inc, weights)
    r = rng.standard_normal(U + Q)
    x_kept = scipy.linalg.cho_solve(
        schur._factor, r[schur.kept] - schur._B @ (r / schur._h), check_finite=False
    )
    assert np.array_equal(schur._Bt @ x_kept, schur._B.T @ x_kept)
    expected = (r - schur._B.T @ x_kept) / schur._h
    expected[schur.kept] = x_kept
    assert np.array_equal(schur.solve(r), expected)


def test_diag_inverse_inverts_the_factor_in_its_own_buffer():
    # n^2 >> M: 1000 observed users (the kept side) answer about 10 of 4000
    # items each, so the Schur factor takes 8 MB and everything else
    # diag_inverse holds (one 256-row block of B^T C^{-1}; B^T comes with
    # the factor) about a quarter of that.  A copy of the factor alone
    # would reach n^2 doubles.
    U, Q, M = 1000, 4000, 10_000
    rng = np.random.default_rng(12)
    pairs = rng.choice(U * Q, size=M, replace=False)
    data = ResponseSet(pairs % U, pairs // U, np.ones(M), num_users=U, num_items=Q)
    inc = _Incidence(RaschDesign(U=U, Q=Q, sigma2_a=1.0, sigma2_d=1.0), data)
    schur = _BipartiteSchur(inc.degree + 1.0, inc, np.ones(M))
    n = schur.kept.size
    assert schur.side == "users" and n == U
    tracemalloc.start()
    schur.diag_inverse()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 0.5 * n * n * 8
    with pytest.raises(RuntimeError, match="inverted"):
        schur.solve(np.ones(U + Q))


def schur_factor_formed_whole(h, users, items, U, weights, side):
    """The lower triangle of cho_factor(S) with S = diag(h_s) -
    B diag(h_b)^{-1} B^T formed by one sparse product, as LAPACK reads it:
    S's upper triangle, row i summed over row i of B."""
    kept_of, elim_of = (users, U + items) if side == "users" else (U + items, users)
    kept = np.unique(kept_of)
    B = scipy.sparse.csr_matrix(
        (weights, (np.searchsorted(kept, kept_of), elim_of)), shape=(kept.size, h.size)
    )
    B_scaled = B.copy()
    B_scaled.data /= -h[B_scaled.indices]
    S = (B_scaled @ B.T).toarray()
    S[np.diag_indices_from(S)] += h[kept]
    return np.tril(scipy.linalg.cho_factor(S.T, lower=True, check_finite=False)[0])


@pytest.mark.parametrize("n", [1, _SCHUR_ROW_BLOCK, 2 * _SCHUR_ROW_BLOCK + 3])
@pytest.mark.parametrize("side", ["users", "items"])
@pytest.mark.parametrize("unit_weights", [True, False])
def test_schur_factor_is_bitwise_that_of_s_formed_whole(n, side, unit_weights):
    # Skewed masks with n observed rows on the kept side (one more row
    # unobserved) and 2 n + 5 observed columns on the other, pairs in random
    # order: S assembled a block of rows at a time, each block from its own
    # first column on, factors bitwise as S formed whole.  Non-unit weights
    # (MAP's omega) make S's two triangles round differently.
    rng = np.random.default_rng(1000 * n + 2 * (side == "items") + unit_weights)
    rows, cols = n + 1, 2 * n + 5
    mask = rng.random((rows, cols)) < np.outer(
        np.linspace(0.9, 0.2, rows), np.linspace(1.0, 0.3, cols)
    )
    empty = rng.integers(rows)
    full = np.delete(np.arange(rows), empty)
    mask[full, rng.integers(cols, size=n)] = True
    mask[rng.choice(full, size=cols), np.arange(cols)] = True
    mask[empty] = False
    kept_of, elim_of = np.nonzero(mask)
    order = rng.permutation(kept_of.size)
    kept_of, elim_of = kept_of[order], elim_of[order]
    users, items, U, Q = kept_of, elim_of, rows, cols
    if side == "items":
        users, items, U, Q = elim_of, kept_of, cols, rows
    M = users.size
    weights = np.ones(M) if unit_weights else rng.uniform(0.1, 2.0, size=M)
    data = ResponseSet(users, items, np.ones(M), num_users=U, num_items=Q)
    inc = _Incidence(RaschDesign(U=U, Q=Q, sigma2_a=0.7, sigma2_d=1.8), data)
    h = inc.adjoint(weights) + 1.0 / inc.prior
    schur = _BipartiteSchur(h, inc, weights)
    assert schur.side == side and schur.kept.size == n
    assert np.array_equal(
        np.tril(schur._factor[0]),
        schur_factor_formed_whole(h, users, items, U, weights, side),
    )


def one_build_peak(U, Q, users, items):
    """tracemalloc peak of one `_BipartiteSchur` build, unit weights."""
    data = ResponseSet(users, items, np.ones(users.size), num_users=U, num_items=Q)
    inc = _Incidence(RaschDesign(U=U, Q=Q, sigma2_a=1.0, sigma2_d=1.0), data)
    h, weights = inc.degree + 1.0, np.ones(users.size)
    tracemalloc.start()
    schur = _BipartiteSchur(h, inc, weights)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert schur.side == "users" and schur.kept.size == U
    return peak


def test_schur_build_of_a_dense_s_from_sparse_responses_peaks_below_2_n2():
    # 1000 kept users all answer the same 20 items, so S is dense, and
    # 20k more pairs fall on 2980 other items: M = 40k << n^2.  S formed
    # as one sparse product (12 bytes an entry) and then copied dense peaked
    # at 2.7 n^2 doubles; assembled in its own buffer a block of rows at a
    # time, one build stays near 1.4 n^2.
    U, Q, n = 1000, 3000, 1000
    rng = np.random.default_rng(31)
    pairs = rng.choice(U * (Q - 20), size=20_000, replace=False)
    users = np.concatenate([np.repeat(np.arange(U), 20), pairs % U])
    items = np.concatenate([np.tile(np.arange(20), U), 20 + pairs // U])
    assert one_build_peak(U, Q, users, items) < 2.0 * n * n * 8


def test_schur_build_on_a_dense_design_peaks_below_the_whole_product():
    # 1000 x 1500 at 30 % observed (M = 450k): B and its transpose are
    # each near 0.7 n^2 doubles, so a copy of B per block would show.  S
    # formed as one sparse product peaked at 4.3 n^2 here; assembled a block
    # at a time, one build stays near 3.1 n^2.
    U, Q, n = 1000, 1500, 1000
    users, items = np.nonzero(np.random.default_rng(32).random((U, Q)) < 0.3)
    assert one_build_peak(U, Q, users, items) < 4.0 * n * n * 8


def skewed_mask(rng, U, Q):
    """A U x Q observation mask with skewed user and item popularity and one
    empty user and one empty item."""
    p_observed = np.outer(np.linspace(0.9, 0.25, U), np.linspace(1.0, 0.3, Q))
    mask = rng.random((U, Q)) < p_observed
    mask[rng.integers(U)] = False
    mask[:, rng.integers(Q)] = False
    return mask


def test_predicted_mse_matches_monte_carlo_on_a_partial_mask():
    # The per-component MSE of rasch_lmmse_fit is exact on any observed
    # pattern.  Draw (a, d, w) from the model on a fixed mask with skewed
    # user and item popularity, one empty user and one empty item, and
    # compare each block's empirical squared error with its prediction.
    # The factor keeps the users on the 8 x 20 mask and the items on the
    # 20 x 8 one, so each block is once kept and once eliminated.
    rng = np.random.default_rng(2024)
    n_draws = 4000
    sides = set()
    for U, Q in ((8, 20), (20, 8)):
        sigma2_a, sigma2_d = 0.5, 2.0
        design = RaschDesign(U=U, Q=Q, sigma2_a=sigma2_a, sigma2_d=sigma2_d)
        mask = skewed_mask(rng, U, Q)
        users, items = np.nonzero(mask)
        sq_err = np.empty((n_draws, U + Q))
        for k in range(n_draws):
            a = rng.normal(scale=np.sqrt(sigma2_a), size=U)
            d = rng.normal(scale=np.sqrt(sigma2_d), size=Q)
            z = a[users] - d[items] + rng.standard_normal(users.size)
            sol = rasch_lmmse_fit(design, ResponseSet(
                users, items, np.where(z > 0, 1.0, -1.0), num_users=U, num_items=Q))
            sq_err[k] = (sol.estimate - np.concatenate([a, -d])) ** 2
        sides.add(sol.metadata["schur_side"])
        predicted = sol.per_component_mse
        unseen = np.concatenate([~mask.any(axis=1), ~mask.any(axis=0)])
        prior = np.concatenate([np.full(U, sigma2_a), np.full(Q, sigma2_d)])
        assert unseen.sum() >= 2 and np.all(predicted[unseen] == prior[unseen])
        for block in (slice(0, U), slice(U, U + Q)):
            per_draw = sq_err[:, block].sum(axis=1)
            se = per_draw.std(ddof=1) / np.sqrt(n_draws)
            assert abs(per_draw.mean() - predicted[block].sum()) <= 3.0 * se
    assert sides == {"users", "items"}


def test_gibbs_pm_never_beats_the_lmmse_prediction_on_a_partial_mask():
    # The paper's sandwich on an observed pattern: the posterior mean's MSE
    # is at most the L-MMSE MSE, so the Gibbs PM's empirical ability MSE
    # stays below the exact L-MMSE prediction plus 3 SE.  Same skewed
    # 8 x 20 mask as above (empty user and item, sigma2_a != sigma2_d); one
    # block runs the chains of all draws.
    rng = np.random.default_rng(2024)
    U, Q, sigma2_a, sigma2_d = 8, 20, 0.5, 2.0
    design = RaschDesign(U=U, Q=Q, sigma2_a=sigma2_a, sigma2_d=sigma2_d)
    users, items = np.nonzero(skewed_mask(rng, U, Q))
    n_draws = 1000
    a = rng.normal(scale=np.sqrt(sigma2_a), size=(n_draws, U))
    d = rng.normal(scale=np.sqrt(sigma2_d), size=(n_draws, Q))
    z = a[:, users] - d[:, items] + rng.standard_normal((n_draws, users.size))
    Y = np.where(z > 0, 1.0, -1.0)
    data = ResponseSet(users, items, Y[0], num_users=U, num_items=Q)
    means = _rasch_gibbs_block(data, [
        (design, y, GibbsConfig(burn_in=100, samples=400, seed=k))
        for k, y in enumerate(Y)
    ])
    per_draw = ((means[:, :U] - a) ** 2).sum(axis=1)
    se = per_draw.std(ddof=1) / np.sqrt(n_draws)
    predicted = rasch_lmmse_fit(design, data).per_component_mse[:U].sum()
    assert per_draw.mean() <= predicted + 3.0 * se


def test_woodbury_fit_validation():
    design = RaschDesign(U=2, Q=2, sigma2_a=1.0, sigma2_d=1.0)
    other = ResponseSet(users=[0], items=[0], responses=[1.0],
                        num_users=3, num_items=2)
    with pytest.raises(ValueError, match="design is 2 x 2"):
        rasch_lmmse_fit(design, other)
    empty = ResponseSet(users=[], items=[], responses=[],
                        num_users=2, num_items=2)
    with pytest.raises(ValueError, match="empty"):
        rasch_lmmse_fit(design, empty)


def dense_map_gradient(model, y, x, link):
    """Gradient of the negative log posterior, from the dense design."""
    t = y * (model.D @ x)
    if link == "probit":
        lam = np.exp(-0.5 * t * t - 0.5 * np.log(2.0 * np.pi) - log_ndtr(t))
    else:
        lam = expit(-t)
    return -(model.D.T @ (y * lam)) + x / np.diag(model.C_x)


# On this instance Armijo shrinks a step until x + alpha step == x, which
# passes the test with f unchanged; the solver must then take the full step
# as at the floor, not repeat that step until it gives up.
_ROUNDED_AWAY_STEP = (
    RaschDesign(U=5, Q=5, sigma2_a=1.0, sigma2_d=1.0),
    ResponseSet(
        users=[0, 0, 1, 1, 1, 2, 3, 3, 4, 4, 4],
        items=[1, 3, 0, 2, 3, 1, 3, 4, 0, 3, 4],
        responses=[-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0, -1.0],
        num_users=5, num_items=5,
    ),
)


@settings(max_examples=200, deadline=None)
@given(masked_instances(), st.sampled_from(["probit", "logit"]))
@example(_ROUNDED_AWAY_STEP, "probit")
def test_structured_map_matches_dense_on_random_masks(instance, link):
    # U, Q in 1..8 on both sides of each other with random masks, so the
    # Schur complement runs onto users and onto items.
    design, data = instance
    config = MapConfig(link=link)
    sol = rasch_map_fit(design, data, config)
    model = rasch_design_matrix(design, observed=data)
    dense = map_fit(model, data.responses, config)

    # The Hessian D^T diag(omega) D + C_x^{-1} is at least I / max(sigma2)
    # everywhere, so a point with gradient g lies within |g| max(sigma2) of
    # the optimum, and the two estimates within (|g_s| + |g_d|) max(sigma2)
    # of each other.  The stopping rule gives |g| <= 1e-8 (a solver stopped
    # at the machine-precision floor reports its stalled norm instead), so
    # the tolerance is at most 2e-8 max(sigma2) when both stop on it; 1e-12
    # covers rounding in evaluating the gradients.
    g_dense = np.linalg.norm(dense_map_gradient(model, data.responses, dense, link))
    assert sol.at_floor or sol.gradient_norm <= _MAP_GRADIENT_TOLERANCE
    atol = (sol.gradient_norm + g_dense) * max(design.sigma2_a, design.sigma2_d)
    np.testing.assert_allclose(sol.estimate, dense, rtol=0, atol=atol + 1e-12)

    # Users and items without responses stay exactly at the prior mean.
    unseen = np.concatenate([
        np.bincount(data.users, minlength=design.U) == 0,
        np.bincount(data.items, minlength=design.Q) == 0,
    ])
    assert np.all(sol.estimate[unseen] == 0.0)
    assert np.all(dense[unseen] == 0.0)


@pytest.mark.parametrize("seed, link", [(74, "probit"), (171, "logit")])
def test_structured_map_converges_past_the_precision_floor(seed, link):
    # Seeded partial masks on which the Newton loop reaches the objective's
    # rounding floor with the gradient still above tolerance.  An Armijo
    # search there compares values that differ only by rounding and can
    # reject a sound Newton step; the full step must be taken, so the fit
    # converges instead of stopping at the floor (1.9e-7 and 4.7e-8
    # gradient norms when the search ran there).
    rng = np.random.default_rng(seed)
    U, Q = (int(v) for v in rng.integers(2, 60, size=2))
    mask = rng.random((U, Q)) < rng.uniform(0.05, 1.0)
    sigma2 = float(np.exp(rng.uniform(np.log(0.03), np.log(32.0))))
    users, items = np.nonzero(mask)
    a = rng.normal(scale=np.sqrt(sigma2), size=U)
    d = rng.normal(scale=np.sqrt(sigma2), size=Q)
    y = np.where(a[users] - d[items] + rng.standard_normal(users.size) >= 0, 1.0, -1.0)
    sol = rasch_map_fit(
        RaschDesign(U=U, Q=Q, sigma2_a=sigma2, sigma2_d=sigma2),
        ResponseSet(users, items, y, num_users=U, num_items=Q),
        MapConfig(link=link),
    )
    assert not sol.at_floor
    assert sol.gradient_norm <= _MAP_GRADIENT_TOLERANCE
    assert sol.iterations <= 10


def test_map_stops_when_armijo_passes_on_rounding_alone():
    # simulate's 20 x 20, 10 dB cell at seed 1, trial 173 (`_trial_rng(1,
    # 0, 173)`): Newton reaches the objective's rounding floor at gradient
    # norm 2.7e-7 with a slope of -3.0e-14, just above one ulp of f = 97.9,
    # so the floor test misses it; Armijo then passes only once its
    # sufficient decrease rounds away (alpha near 1e-9), and the same
    # sub-ulp step repeated until the iteration cap raised.  It counts as a
    # stall now, and the fit returns its best iterate at the floor.
    sigma2 = snr_to_sigma2(10.0)
    rng = _trial_rng(1, 0, 173)
    a = rng.normal(scale=np.sqrt(sigma2), size=20)
    d = rng.normal(scale=np.sqrt(sigma2), size=20)
    Y = np.where(a[:, None] - d[None, :] + rng.standard_normal((20, 20)) >= 0, 1.0, -1.0)
    design = RaschDesign(U=20, Q=20, sigma2_a=sigma2, sigma2_d=sigma2)
    sol = rasch_map_fit(design, _full_response_set(design, Y))
    assert sol.at_floor
    assert sol.iterations < 10
    assert sol.gradient_norm < 1e-6


def per_step_factor_map(design, data, config, decoupled_start=True):
    """`rasch_map_fit`'s Newton loop with a Schur factor built and solved
    directly in every Newton step, started at the decoupled L-MMSE estimate
    or at the prior mean 0."""
    inc = _Incidence(design, data)
    inv_var = 1.0 / inc.prior

    def newton_step(omega, grad):
        return _BipartiteSchur(inc.adjoint(omega) + inv_var, inc, omega).solve(-grad)

    zero = np.zeros_like(inv_var)
    x0 = _decoupled_lmmse_estimate(design, inc, data.responses) if decoupled_start else zero
    return _damped_newton(x0, zero, data.responses, 0.0, inc.forward, inc.adjoint,
                          lambda dx: inv_var * dx, newton_step, config)


def prior_mean_start_map(design, data, config):
    """`rasch_map_fit`'s Newton loop started at the prior mean 0."""
    return per_step_factor_map(design, data, config, decoupled_start=False)


@pytest.mark.parametrize("link", ["probit", "logit"])
def test_map_starts_at_the_decoupled_lmmse_estimate(link):
    # Seeded skewed masks with an empty user and an empty item, both sides
    # kept: the start changes the path, not the optimum, and on the larger
    # instances it saves Newton steps.
    rng = np.random.default_rng(77)
    for U, Q in ((7, 12), (12, 7), (200, 400), (400, 200)):
        users, items = np.nonzero(skewed_mask(rng, U, Q))
        a = rng.normal(scale=np.sqrt(0.7), size=U)
        d = rng.normal(scale=np.sqrt(1.8), size=Q)
        y = np.where(a[users] - d[items] + rng.standard_normal(users.size) >= 0, 1.0, -1.0)
        design = RaschDesign(U=U, Q=Q, sigma2_a=0.7, sigma2_d=1.8)
        data = ResponseSet(users, items, y, num_users=U, num_items=Q)
        sol = rasch_map_fit(design, data, MapConfig(link=link))
        ref = prior_mean_start_map(design, data, MapConfig(link=link))
        assert not sol.at_floor and not ref.at_floor
        np.testing.assert_allclose(sol.estimate, ref.estimate, rtol=0, atol=1e-8)
        if U * Q >= 200 * 400:
            assert sol.iterations < ref.iterations
        unseen = np.concatenate([
            np.bincount(users, minlength=U) == 0,
            np.bincount(items, minlength=Q) == 0,
        ])
        assert unseen.sum() >= 2 and np.all(sol.estimate[unseen] == 0.0)


@pytest.mark.parametrize("sigma2", [0.1, 1.0, 100.0])
@pytest.mark.parametrize("link", ["probit", "logit"])
def test_map_held_factor_matches_a_factor_per_step(link, sigma2):
    # Seeded skewed masks with an empty user and an empty item and unequal
    # prior variances, both sides kept.  Newton steps solved by PCG on the
    # held factor take the path of steps that each factor their Hessian:
    # below 32 kept rows the budget is 0 and the fit is that path bit for
    # bit; on the larger masks (149 kept rows, a budget of 4) later steps
    # reuse the factor.
    rng = np.random.default_rng(91)
    for U, Q in ((12, 20), (20, 12), (150, 260), (260, 150)):
        users, items = np.nonzero(skewed_mask(rng, U, Q))
        a = rng.normal(scale=np.sqrt(sigma2), size=U)
        d = rng.normal(scale=np.sqrt(2.5 * sigma2), size=Q)
        y = np.where(a[users] - d[items] + rng.standard_normal(users.size) >= 0, 1.0, -1.0)
        design = RaschDesign(U=U, Q=Q, sigma2_a=sigma2, sigma2_d=2.5 * sigma2)
        data = ResponseSet(users, items, y, num_users=U, num_items=Q)
        sol = rasch_map_fit(design, data, MapConfig(link=link))
        ref = per_step_factor_map(design, data, MapConfig(link=link))
        assert sol.iterations == ref.iterations
        np.testing.assert_allclose(sol.estimate, ref.estimate, rtol=0, atol=1e-10)
        unseen = np.concatenate([
            np.bincount(users, minlength=U) == 0,
            np.bincount(items, minlength=Q) == 0,
        ])
        assert unseen.sum() >= 2 and np.all(sol.estimate[unseen] == 0.0)
        n = min(np.unique(users).size, np.unique(items).size)
        if n < 32:
            assert np.array_equal(sol.estimate, ref.estimate)
            assert (sol.factorizations, sol.cg_iterations) == (sol.iterations, 0)
        if n >= 64:
            assert 1 <= sol.factorizations < sol.iterations
            assert sol.cg_iterations >= sol.iterations - sol.factorizations


def test_map_frees_the_held_factor_before_building_another():
    # 1000 observed users (the kept side) x 4000 items, 40k responses, at a
    # weak prior: the weights move enough between Newton steps that PCG runs
    # out of budget and the fit builds a second factor.  One build peaks
    # near 1.25 n^2 doubles; holding the stale factor through it adds n^2.
    U, Q, M = 1000, 4000, 40_000
    rng = np.random.default_rng(12)
    pairs = rng.choice(U * Q, size=M, replace=False)
    users, items = pairs % U, pairs // U
    a, d = rng.normal(scale=10.0, size=U), rng.normal(scale=10.0, size=Q)
    y = np.where(a[users] - d[items] + rng.standard_normal(M) >= 0, 1.0, -1.0)
    data = ResponseSet(users, items, y, num_users=U, num_items=Q)
    design = RaschDesign(U=U, Q=Q, sigma2_a=100.0, sigma2_d=100.0)
    tracemalloc.start()
    sol = rasch_map_fit(design, data)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    n = U
    assert sol.factorizations >= 2
    assert peak < 2.3 * n * n * 8


def test_fast_fit_response_validation():
    design = RaschDesign(U=2, Q=2, sigma2_a=1.0, sigma2_d=1.0)
    with pytest.raises(ValueError):
        rasch_fast_lmmse_fit(design, np.ones((3, 2)))
    with pytest.raises(ValueError):
        rasch_fast_lmmse_fit(design, np.full((2, 2), 2.0))


def test_split_estimate_negates_difficulty_block():
    design = RaschDesign(U=2, Q=3, sigma2_a=1.0, sigma2_d=1.0)
    est = np.array([1.0, -2.0, 0.5, 0.0, -0.5])
    abilities, difficulties = split_estimate(design, est)
    np.testing.assert_array_equal(abilities, [1.0, -2.0])
    np.testing.assert_array_equal(difficulties, [-0.5, 0.0, 0.5])


def test_known_difficulty_matches_general_path():
    rng = np.random.default_rng(31)
    for _ in range(8):
        Q = int(rng.integers(1, 7))
        d = rng.normal(size=Q)
        x_bar = float(rng.normal())
        sigma2 = float(10 ** rng.uniform(-1, 0.7))
        y = np.where(rng.random(Q) < 0.5, 1.0, -1.0)
        km = KnownDifficultyModel(d=d, x_bar=x_bar, sigma2_x=sigma2)
        fit = known_difficulty_fit(km, y)
        pmse = fit.predicted_mse

        model = GeneralProbitModel(
            D=np.ones((Q, 1)), m=-d, x_mean=[x_bar], C_x=[[sigma2]]
        )
        sol = lmmse_fit(model, y)
        assert fit.estimate.shape == (1,)
        assert fit.estimate[0] == pytest.approx(sol.estimate[0], abs=1e-10)
        assert pmse == pytest.approx(sol.predicted_mse, abs=1e-10)
        assert known_difficulty_predicted_mse(km) == pytest.approx(pmse, abs=1e-15)

        # A block of users takes one fit; each row's estimate is its own.
        Y = np.where(rng.random((3, Q)) < 0.5, 1.0, -1.0)
        block = known_difficulty_fit(km, Y)
        assert block.estimate.shape == (3,)
        assert block.predicted_mse == pmse
        for u in range(3):
            assert block.estimate[u] == pytest.approx(
                lmmse_fit(model, Y[u]).estimate[0], abs=1e-12
            )


def _known_difficulty_models(seed, count):
    """Random known-difficulty models: Q from 1 to 60, difficulties of
    spread 0.5 to 3 about a random centre, in half of them one or two
    outliers 10 to 60 away, x_bar in [-2, 2] and sigma2 log-uniform in
    [1e-3, 1e4].  Then three fixed ones: every item saturated (|c| > 37),
    an item (d = 50 at unit prior) whose Lambda underflows to 0, and an
    item so far above a narrow prior that the panels cover the prior's
    +-9 sigma instead of the empty range between it and the prior."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        Q = int(rng.integers(1, 61))
        d = rng.normal(loc=rng.normal(), scale=rng.uniform(0.5, 3.0), size=Q)
        if rng.random() < 0.5:
            far = rng.integers(0, Q, size=int(rng.integers(1, 3)))
            d[far] += rng.choice([-1.0, 1.0], far.size) * rng.uniform(10.0, 60.0, far.size)
        yield KnownDifficultyModel(
            d=d, x_bar=float(rng.uniform(-2.0, 2.0)),
            sigma2_x=float(10.0 ** rng.uniform(-3.0, 4.0)),
        )
    yield KnownDifficultyModel(d=[60.0, -70.0], x_bar=0.5, sigma2_x=1e-3)
    yield KnownDifficultyModel(d=[0.3, -1.2, 50.0], x_bar=0.0, sigma2_x=1.0)
    yield KnownDifficultyModel(d=[30.0], x_bar=0.0, sigma2_x=1e-2)


def test_known_difficulty_solve_matches_the_dense_moments():
    # The MSE is the dense optimum, and the weights reach it under the
    # dense moments.  Estimates on arbitrary responses are not compared:
    # where C_y is ill-conditioned, weights that reach the same MSE differ
    # widely.  The dense quantities round at about 1e-14 sigma2 near
    # sigma2 = 1e4 (there the dense fit's own weights reach 4.6e-12 above
    # the reference optimum).  The dense path itself solves every model
    # with one Cholesky and reaches the same MSE: C_y's diagonal is the
    # product of the tails, which stays positive for items beyond
    # |c| = 8.3, where 1 - E[y_i]^2 rounds to 0.
    beyond_counts = underflows = 0
    for km in _known_difficulty_models(41, 150):
        fit = known_difficulty_fit(km, np.ones(km.d.size))
        optimum, weight_mse = known_difficulty_reference(km.d, km.x_bar, km.sigma2_x)
        assert fit.predicted_mse == pytest.approx(optimum, abs=1e-10)
        dense, _ = lmmse_predicted_mse(GeneralProbitModel(
            D=np.ones((km.d.size, 1)), m=-km.d, x_mean=[km.x_bar],
            C_x=[[km.sigma2_x]],
        ))
        assert dense == pytest.approx(fit.predicted_mse, abs=1e-10)
        assert weight_mse(fit.W[0]) == pytest.approx(
            optimum, abs=1e-12 + 1e-14 * km.sigma2_x
        )
        meta = fit.metadata
        assert meta["path"] == "quadrature" and meta["closed_form_deviation"] <= 1e-12
        beyond = np.abs(km.x_bar - km.d) > 37.0 * np.sqrt(km.sigma2_x + 1.0)
        assert np.all(fit.W[0][beyond] == 0.0)
        assert meta["saturated"] >= np.count_nonzero(beyond)
        beyond_counts += meta["saturated"] == km.d.size
        underflows += meta["saturated"] > np.count_nonzero(beyond)
    # The sweep reaches an all-saturated model and a Lambda that underflows.
    assert beyond_counts > 0 and underflows > 0


def test_known_difficulty_mse_is_settled_at_the_panel_width(monkeypatch):
    models = list(_known_difficulty_models(41, 150))
    coarse = [known_difficulty_fit(km, np.ones(km.d.size)) for km in models]
    monkeypatch.setattr(rasch, "_PANEL_WIDTH", rasch._PANEL_WIDTH / 2.0)
    for km, sol in zip(models, coarse):
        fine = known_difficulty_fit(km, np.ones(km.d.size))
        assert fine.metadata["nodes"] >= sol.metadata["nodes"]
        assert fine.predicted_mse == pytest.approx(sol.predicted_mse, rel=1e-13)


def test_ability_node_cap_bounds_the_nodes():
    # Worker sizing counts Q _ability_node_cap(sigma2) quadrature entries a
    # cell, so no model may take more nodes than the cap.  Besides the
    # sweep: two difficulties whose windows leave a sliver between them
    # (sigma^2 = 1), and a grid 17.0001 apart across the prior's +-9 sigma
    # (sigma^2 = 1e4); a quadrature split at such gaps would exceed the cap.
    extremes = [
        KnownDifficultyModel(d=np.array([-8.6, 8.6]), x_bar=0.0, sigma2_x=1.0),
        KnownDifficultyModel(d=np.arange(-900.0, 900.0, 17.0001), x_bar=0.0,
                             sigma2_x=1e4),
    ]
    for km in [*_known_difficulty_models(41, 150), *extremes]:
        nodes = known_difficulty_fit(km, np.ones(km.d.size)).metadata["nodes"]
        assert nodes <= rasch._ability_node_cap(km.sigma2_x)


def test_ability_node_cap_counts_without_building_the_nodes():
    # simulate sizes its workers by the cap at each cell's prior variance.
    # At sigma^2 = 1e20 (203 dB) the prior's +-9 sigma holds 7.2e11 nodes,
    # while the window the difficulties leave holds about a hundred.
    km = KnownDifficultyModel(d=np.linspace(-2.0, 2.0, 30), x_bar=0.0, sigma2_x=1e20)
    tracemalloc.start()
    cap = rasch._ability_node_cap(km.sigma2_x)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 100_000
    assert known_difficulty_fit(km, np.ones(30)).metadata["nodes"] < 200 < cap


@pytest.mark.parametrize("sigma2", [0.05, 0.5, 5.0])
def test_known_difficulty_nodes_on_the_benchmark_shape(sigma2):
    # N(0, 1) difficulties, Q = 800, at -10, 0 and 10 dB: 82, 82 and 98
    # nodes with 4-wide panels (146, 146 and 194 with 2-wide ones).
    km = KnownDifficultyModel(
        d=np.random.default_rng(6).normal(size=800), x_bar=0.0, sigma2_x=sigma2
    )
    assert known_difficulty_fit(km, np.ones(800)).metadata["nodes"] <= 98


def test_known_difficulty_quadrature_fails_loudly(monkeypatch):
    # Too few nodes a panel miss the closed forms, and the call says so.
    km = KnownDifficultyModel(d=np.linspace(-2.0, 2.0, 9), x_bar=0.3, sigma2_x=2.0)
    assert known_difficulty_fit(km, np.ones(9)).metadata["closed_form_deviation"] <= 1e-12
    monkeypatch.setattr(rasch, "_PANEL_NODES", 4)
    with pytest.raises(RuntimeError, match="missed its closed forms"):
        known_difficulty_predicted_mse(km)


def test_known_difficulty_predicted_mse_peaks_below_eight_q_g_doubles():
    # The solve holds a few Q x G arrays and never a Q x Q one; the dense
    # reference peaks near 2 Q^2 doubles (10.9 MB here, against 1.9 MB).
    Q = 800
    km = KnownDifficultyModel(
        d=np.random.default_rng(6).normal(size=Q), x_bar=0.0, sigma2_x=1.0
    )
    nodes = known_difficulty_fit(km, np.ones(Q)).metadata["nodes"]
    tracemalloc.start()
    mse = known_difficulty_predicted_mse(km)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak <= 8 * Q * nodes * 8
    assert 0.0 < mse < 1.0


def test_known_difficulty_predicted_mse_at_q_20000_stays_far_below_q2():
    Q = 20_000
    km = KnownDifficultyModel(
        d=np.random.default_rng(7).normal(size=Q), x_bar=0.0, sigma2_x=1.0
    )
    tracemalloc.start()
    mse = known_difficulty_predicted_mse(km)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 0.1 * Q * Q * 8
    assert 0.0 < mse < 1e-3


def test_known_difficulty_single_item_value():
    # one observation at the prior mean with unit variance
    km = KnownDifficultyModel(d=np.zeros(1), x_bar=0.0, sigma2_x=1.0)
    pmse = known_difficulty_fit(km, np.array([1.0])).predicted_mse
    assert pmse == pytest.approx(1.0 - 1.0 / np.pi, abs=1e-14)


def test_known_difficulty_uninformative_items():
    # items far from the ability carry no information
    km = KnownDifficultyModel(d=np.full(3, 1e9), x_bar=0.0, sigma2_x=2.0)
    sol = known_difficulty_fit(km, np.array([-1.0, -1.0, -1.0]))
    assert sol.estimate[0] == pytest.approx(0.0, abs=1e-8)
    assert sol.predicted_mse == pytest.approx(2.0, abs=1e-8)
    # Each of the three responses was taken as deterministic, and the fit
    # records it.
    assert sol.metadata["saturated"] == 3


def test_known_difficulty_validation():
    km = KnownDifficultyModel(d=np.zeros(2), x_bar=0.0, sigma2_x=1.0)
    with pytest.raises(ValueError):
        known_difficulty_fit(km, np.array([1.0]))
    with pytest.raises(ValueError):
        known_difficulty_fit(km, np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        known_difficulty_fit(km, np.array([[1.0, -1.0], [1.0, 0.5]]))
    for shape in ((0, 2), (2, 3), (1, 1, 2)):
        with pytest.raises(ValueError, match="expected"):
            known_difficulty_fit(km, np.ones(shape))
    with pytest.raises(ValueError):
        KnownDifficultyModel(d=np.zeros(2), x_bar=0.0, sigma2_x=0.0)
    for x_bar in (True, "0.5"):  # a bool or a string is not a number
        with pytest.raises(TypeError, match="x_bar"):
            KnownDifficultyModel(d=np.zeros(2), x_bar=x_bar, sigma2_x=1.0)


@pytest.mark.parametrize("field, value", [
    ("d", [0.5, np.nan]), ("d", [np.inf]), ("x_bar", np.nan),
    ("x_bar", -np.inf), ("sigma2_x", np.inf), ("sigma2_x", np.nan),
])
def test_known_difficulty_model_rejects_non_finite_input(field, value):
    kwargs = {"d": np.zeros(2), "x_bar": 0.0, "sigma2_x": 1.0, field: value}
    with pytest.raises(ValueError, match="must be finite"):
        KnownDifficultyModel(**kwargs)
