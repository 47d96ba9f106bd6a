"""Independent reference implementations and frozen constants for the tests.

Everything here but `linearize_whole_triangle` and
`known_difficulty_reference` is deliberately implemented without the
package under test: the bivariate normal probabilities come from
adaptive quadrature in rotated (principal-axis) coordinates, gradients from
central differences, and sign moments from plain Monte Carlo.  The frozen
constants were precomputed with a 40-digit arbitrary-precision integrator.
`linearize_whole_triangle` is the earlier whole-triangle form of
`linear_probit.linearize`, on the package's special functions, which pins
the blocked form bit for bit.  `known_difficulty_reference` is the dense
path's L-MMSE problem for known difficulties (the package's `linearize` on
the one-column model), against which the quadrature solver is pinned.
"""

import numpy as np
from scipy import integrate
from scipy.special import ndtr

from rasch_lmmse.linear_probit import GeneralProbitModel, linearize
from rasch_lmmse.specfun import binorm_cdf, norm_cdf, norm_pdf


def phi2_quad(x, y, rho):
    """P(X <= x, Y <= y) for standard bivariate normals with correlation rho.

    Rotates to independent principal axes U = (X+Y)/sqrt(2), V = (Y-X)/sqrt(2)
    (variances 1+rho and 1-rho) and integrates the exact conditional interval
    probability over U, splitting at the points where either interval endpoint
    crosses zero.  Accurate to ~1e-15 for |rho| <= 0.999; not usable at
    |rho| ~ 1 (the V-variance degenerates), which the frozen constants cover.
    """
    if rho == 0.0:
        return float(ndtr(x) * ndtr(y))
    su = np.sqrt(1.0 + rho)
    sv = np.sqrt(1.0 - rho)
    s2 = np.sqrt(2.0)
    pstar = (x + y) / (s2 * su)
    lo_p, hi_p = -40.0, min(pstar, 40.0)
    if hi_p <= lo_p:
        return 0.0

    def f(p):
        u = su * p
        hi = (s2 * y - u) / sv
        lo = (u - s2 * x) / sv
        return np.exp(-0.5 * p * p) / np.sqrt(2 * np.pi) * (ndtr(hi) - ndtr(lo))

    cuts = sorted(
        {lo_p, hi_p} | {p for p in (s2 * y / su, s2 * x / su) if lo_p < p < hi_p}
    )
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        val, _ = integrate.quad(f, a, b, epsabs=1e-15, epsrel=1e-13, limit=300)
        total += val
    return total


# (x, y, rho) -> Phi2 at correlations beyond the quadrature oracle's range.
PHI2_EXTREME_REFERENCES = {
    (0.5, 0.25, 1 - 1e-8): 0.59870632568292372424,
    (1.0, 1.0, 1 - 1e-10): 0.84134338089486349906,
    (-0.3, 0.8, -(1 - 1e-9)): 0.17023317922765069422,
    (-2.0, -2.0, -(1 - 1e-7)): 0.0,
    (1.97, 1.83, 0.9999999916027938): 0.96637503058037166747,
    (3.0, -3.0, 0.9999): 0.0013498980316300945267,
    (-1.5, -1.5, -0.9999): 0.0,
    (-0.8275361712473681, 0.5780102043803823, -0.928457904184065):
        0.01811502224965218618,
}

# Scalar facts used across the suite.
MAP_SCALAR_ROOT = 0.50605446898918076  # root of pdf(x)/Phi(x) = x
PM_SCALAR_ESTIMATE = 0.5641895835477564  # 1/sqrt(pi)
BINORM_1_M1_03 = 0.14833820905742245


def numeric_gradient(f, x, h=1e-5):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        grad[k] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


def mc_sign_moments(D, m, x_mean, C_x, n_draws, seed):
    """Monte Carlo moments of y = sign(D x + m + w): (y_mean, C_y, E, se_mean).

    E is the cross-covariance E[(y - E y)(x - E x)^T]; se_mean is the
    per-entry standard error of the y_mean estimate (C_y and E errors are
    of the same order).
    """
    D = np.asarray(D, dtype=np.float64)
    M, N = D.shape
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(C_x)
    y_sum = np.zeros(M)
    yy_sum = np.zeros((M, M))
    yx_sum = np.zeros((M, N))
    x_sum = np.zeros(N)
    batch = 200_000
    done = 0
    while done < n_draws:
        b = min(batch, n_draws - done)
        x = x_mean + rng.standard_normal((b, N)) @ L.T
        z = x @ D.T + m + rng.standard_normal((b, M))
        y = np.where(z >= 0, 1.0, -1.0)
        y_sum += y.sum(axis=0)
        yy_sum += y.T @ y
        yx_sum += y.T @ x
        x_sum += x.sum(axis=0)
        done += b
    y_mean = y_sum / n_draws
    C_y = yy_sum / n_draws - np.outer(y_mean, y_mean)
    E = yx_sum / n_draws - np.outer(y_mean, x_sum / n_draws)
    se_mean = np.sqrt(np.maximum(1.0 - y_mean**2, 0.0) / n_draws)
    return y_mean, C_y, E, se_mean


def linearize_whole_triangle(model):
    """(y_mean, C_y, E, saturated) of a GeneralProbitModel, the whole way.

    Forms C_z = (P + P^T) / 2 + I from P = D C_x D^T as its own M x M array
    and evaluates the sign covariance 4 (Phi2(c_i, c_j; rho) - Phi(c_i)
    Phi(c_j)), on each sign's smaller tail, of all M (M - 1) / 2 pairs of
    the upper triangle at once, and each variance as 4 Phi(c) Phi(-c).
    Observations with |c| > 37 are saturated: y_mean is exactly sign(c),
    and their variances and covariances are 0.
    """
    D, C_x = model.D, model.C_x
    M = D.shape[0]
    z_mean = D @ model.x_mean + model.m
    C_z = D @ C_x @ D.T
    C_z = 0.5 * (C_z + C_z.T)
    C_z[np.diag_indices_from(C_z)] += 1.0
    sz = np.sqrt(np.diag(C_z))
    c = z_mean / sz

    y_mean = norm_cdf(c) - norm_cdf(-c)
    saturated = np.abs(c) > 37.0

    E = 2.0 * (norm_pdf(c) / sz)[:, None] * (D @ C_x)

    C_y = np.empty((M, M))
    if M > 1:
        iu, ju = np.triu_indices(M, k=1)
        rho = np.clip(C_z[iu, ju] / (sz[iu] * sz[ju]), -1.0, 1.0)
        # Each sign on its smaller tail: negating a sign with c > 0 negates
        # its c, its correlations and its covariances.
        g = np.where(c > 0, -1.0, 1.0)
        gi, gj = g[iu], g[ju]
        ai, aj, gg = gi * c[iu], gj * c[ju], gi * gj
        off = 4.0 * gg * (binorm_cdf(ai, aj, gg * rho) - norm_cdf(ai) * norm_cdf(aj))
        C_y[iu, ju] = off
        C_y[ju, iu] = off
    np.fill_diagonal(C_y, 4.0 * norm_cdf(c) * norm_cdf(-c))
    if np.any(saturated):
        C_y[saturated, :] = 0.0
        C_y[:, saturated] = 0.0
    return y_mean, C_y, E, saturated


def known_difficulty_reference(d, x_bar, sigma2):
    """(optimum, weight_mse) of the dense known-difficulty problem.

    With e = E and C_y from `linearize` on the one-column model D = 1_Q,
    m = -d, x ~ N(x_bar, sigma2), weight_mse(w) = sigma2 - 2 w^T e +
    w^T C_y w is the MSE that weights w reach (with the matching offset),
    and optimum is its minimum.  Saturated items (|c| > 37), whose
    variance is 0, are left out, the rest are scaled to unit variance,
    and the optimum is taken through a symmetric eigendecomposition that
    drops eigenvalues below 1e-10, independently of the dense path's
    Cholesky solve.  The dropped directions, responses deterministic to
    within the dense moments' rounding, carry below 1e-12 of MSE.
    """
    d = np.asarray(d, dtype=np.float64)
    lin = linearize(GeneralProbitModel(
        D=np.ones((d.size, 1)), m=-d, x_mean=[x_bar], C_x=[[sigma2]]
    ))
    e, C_y = lin.E[:, 0], lin.C_y
    live = np.flatnonzero(np.diag(C_y) > 0.0)
    scale = 1.0 / np.sqrt(np.diag(C_y)[live])
    lam, vec = np.linalg.eigh(scale[:, None] * C_y[np.ix_(live, live)] * scale)
    keep = lam > 1e-10
    proj = vec[:, keep].T @ (scale * e[live])
    optimum = sigma2 - float(np.sum(proj * proj / lam[keep]))

    def weight_mse(w):
        return sigma2 - 2.0 * float(w @ e) + float(w @ C_y @ w)

    return optimum, weight_mse
