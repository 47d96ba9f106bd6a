"""Linear MMSE estimation for one-bit probit observations.

The observation model is y = sign(D x + m + w) with x ~ N(x_mean, C_x) and
w ~ N(0, I).  The estimator is linear in y and comes with an exact,
data-independent MSE expression, built from the first two moments of the
sign vector (computed via the normal CDF and the bivariate normal CDF).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .specfun import _BLOCK, binorm_cdf, norm_cdf, norm_pdf

# Beyond this, Phi(c) is 1 to double precision and the sign is deterministic.
_SATURATION_C = 37.0

# Pairs per row block of `linearize`'s C_y: eight of `binorm_cdf`'s blocks.
_PAIR_BLOCK = 8 * _BLOCK


def _as_float_array(x, name, ndim):
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class GeneralProbitModel:
    """Probit observation model y = sign(D x + m + w), x ~ N(x_mean, C_x)."""

    D: np.ndarray
    m: np.ndarray
    x_mean: np.ndarray
    C_x: np.ndarray

    def __post_init__(self):
        D = _as_float_array(self.D, "D", 2)
        M, N = D.shape
        m = _as_float_array(self.m, "m", 1)
        x_mean = _as_float_array(self.x_mean, "x_mean", 1)
        C_x = _as_float_array(self.C_x, "C_x", 2)
        if m.shape != (M,):
            raise ValueError(f"m has shape {m.shape}, expected ({M},)")
        if x_mean.shape != (N,):
            raise ValueError(f"x_mean has shape {x_mean.shape}, expected ({N},)")
        if C_x.shape != (N, N):
            raise ValueError(f"C_x has shape {C_x.shape}, expected ({N}, {N})")
        if not np.allclose(C_x, C_x.T, rtol=0.0, atol=1e-12):
            raise ValueError("C_x must be symmetric")
        try:
            scipy.linalg.cholesky(C_x, lower=True)
        except scipy.linalg.LinAlgError as err:
            raise ValueError("C_x must be positive definite") from err
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "x_mean", x_mean)
        object.__setattr__(self, "C_x", C_x)

    @property
    def num_observations(self):
        return self.D.shape[0]


@dataclass(frozen=True)
class LinearizedQuantities:
    """The three moments of (y, x) that define the linear estimators.

    y_mean = E[y] and C_y = Cov(y) are the moments of the sign vector, and
    E = E[(y - y_mean)(x - x_mean)^T] is its cross-covariance with x.
    C_y's diagonal is the sign variance 4 Phi(c) Phi(-c) of the
    standardized mean c.  saturated is True for the observations taken as
    deterministic: those with |c| > 37, where Phi(|c|) is 1 in double
    precision; their y_mean is exactly +-1 and their rows and columns of
    C_y are 0.
    """

    y_mean: np.ndarray
    C_y: np.ndarray
    E: np.ndarray
    saturated: np.ndarray


@dataclass(frozen=True)
class LmmseSolution:
    """Result of an L-MMSE fit x_hat = W y + b with its predicted MSE.

    predicted_mse (the exact expected squared error summed over
    components) and per_component_mse are data-independent and always
    set.  W and b are None only from rasch.rasch_lmmse_fit, which never
    forms the N x M weights; a saturated observation (see
    `LinearizedQuantities`) gets a column of W that is exactly 0.  A
    covariance whose factorization fails raises np.linalg.LinAlgError.
    metadata["path"] names the solver.
    """

    estimate: np.ndarray
    predicted_mse: float
    per_component_mse: np.ndarray
    W: np.ndarray | None
    b: np.ndarray | None
    metadata: dict = field(default_factory=dict)


def sign_covariance(c_i, c_j, rho):
    """Covariance of sign(z_i), sign(z_j) for standardized means c and corr rho.

    4 * (Phi2(c_i, c_j; rho) - Phi(c_i) Phi(c_j)): the sign is 2 1{z > 0} - 1
    and P(z_i > 0, z_j > 0) = Phi2(c_i, c_j; rho).  Each sign is taken on
    its smaller tail: for c > 0 the sign is negated, which negates c, the
    correlations and the covariance, so both CDF terms stay small and their
    difference keeps its precision where Phi(c) rounds towards 1 (at
    c <= 0 the values are bitwise those of the formula above).  One
    bivariate CDF evaluation per entry, vectorized over broadcast inputs.
    """
    g_i = np.where(np.asarray(c_i) > 0, -1.0, 1.0)
    g_j = np.where(np.asarray(c_j) > 0, -1.0, 1.0)
    a_i, a_j, g = g_i * c_i, g_j * c_j, g_i * g_j
    return 4.0 * g * (binorm_cdf(a_i, a_j, g * rho) - norm_cdf(a_i) * norm_cdf(a_j))


def linearize(model: GeneralProbitModel) -> LinearizedQuantities:
    """Compute y_mean, C_y and E, the moments that define the linear estimators.

    Forms the latent covariance C_z = D C_x D^T + I and the standardized
    means c = (D x_mean + m) / sqrt(diag C_z), and evaluates the bivariate
    normal CDF once per off-diagonal pair (`sign_covariance`).  One path
    serves every model: at c = 0 the bivariate CDF is Sheppard's orthant
    probability 1/4 + asin(rho) / (2 pi), so C_y is the arcsine law
    (2/pi) asin(rho).

    C_y is filled in the buffer of the product P = D C_x D^T, one block of
    rows at a time (about `_PAIR_BLOCK` pairs): for each pair i < j of the
    block, C_z's entry is (P_ij + P_ji) / 2, and the pair's covariance goes
    to both C_y_ij and C_y_ji.  A pair reads and writes only its own two
    entries, so no block reads what another has written.  Peak memory is
    C_y plus one block of pairs, and every value is that of the whole
    symmetrized C_z.  C_y is a full M x M matrix; for Rasch designs of any
    size use rasch.rasch_lmmse_fit, which never forms C_y.
    """
    D, C_x = model.D, model.C_x
    M = D.shape[0]
    z_mean = D @ model.x_mean + model.m
    DC = D @ C_x
    C_y = DC @ D.T
    sz = np.sqrt(np.diag(C_y) + 1.0)
    c = z_mean / sz

    upper, lower = norm_cdf(c), norm_cdf(-c)
    y_mean = upper - lower
    saturated = np.abs(c) > _SATURATION_C

    E = 2.0 * (norm_pdf(c) / sz)[:, None] * DC

    lo = 0
    while lo < M - 1:
        # Row i holds the M - 1 - i pairs (i, j > i).
        hi = min(M - 1, lo + max(1, _PAIR_BLOCK // (M - 1 - lo)))
        iu, ju = np.triu_indices(hi - lo, k=1, m=M - lo)
        iu += lo
        ju += lo
        cz = 0.5 * (C_y[iu, ju] + C_y[ju, iu])
        rho = np.clip(cz / (sz[iu] * sz[ju]), -1.0, 1.0)
        off = sign_covariance(c[iu], c[ju], rho)
        C_y[iu, ju] = off
        C_y[ju, iu] = off
        lo = hi
    # The product of the tails keeps its precision where 1 - y_mean^2 would
    # round to 0 (|c| above about 8.3).
    np.fill_diagonal(C_y, 4.0 * upper * lower)
    # A saturated sign is deterministic: its covariance with anything is 0.
    C_y[saturated, :] = 0.0
    C_y[:, saturated] = 0.0
    return LinearizedQuantities(y_mean=y_mean, C_y=C_y, E=E, saturated=saturated)


def _check_pm_one(y, M):
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.shape != (M,):
        raise ValueError(f"y has shape {y.shape}, expected ({M},)")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("y entries must be +1 or -1")
    return y


def _lmmse_solve(model, lin):
    """One solve C_y X = E: X and the per-component MSE.

    The per-component MSE is diag(C_x - E^T C_y^{-1} E) = diag(C_x - E^T X).
    A saturated observation gets a row of X that is exactly 0; C_y over
    the others is factored by one Cholesky, and if that fails
    np.linalg.LinAlgError is raised.
    """
    live = np.flatnonzero(~lin.saturated)
    # The live block is a C-ordered copy of a symmetric matrix, so its
    # transpose is the same matrix F-ordered, which LAPACK factors in place.
    X = np.zeros_like(lin.E)
    X[live] = scipy.linalg.cho_solve(
        scipy.linalg.cho_factor(lin.C_y[np.ix_(live, live)].T, overwrite_a=True),
        lin.E[live],
    )
    per_component = np.diag(model.C_x) - np.einsum("mk,mk->k", lin.E, X)
    return X, per_component


def lmmse_fit(model: GeneralProbitModel, y) -> LmmseSolution:
    """L-MMSE estimate x_hat = W y + b with W = E^T C_y^{-1}, b = x_mean - W y_mean.

    Exact among linear estimators of x from the sign vector y.  One solve
    C_y X = E gives the weights W = X^T and the exact MSE together; W and b
    serve every response vector of the model.  metadata["saturated"] counts
    the observations `linearize` took as deterministic, whose weights are 0.
    A failed factorization of C_y raises np.linalg.LinAlgError.
    """
    y = _check_pm_one(y, model.num_observations)
    lin = linearize(model)
    X, per_component = _lmmse_solve(model, lin)
    W = X.T
    b = model.x_mean - W @ lin.y_mean
    return LmmseSolution(
        estimate=W @ y + b,
        predicted_mse=float(np.sum(per_component)),
        per_component_mse=per_component,
        W=W,
        b=b,
        metadata={"path": "dense", "saturated": int(lin.saturated.sum())},
    )


def lmmse_predicted_mse(model: GeneralProbitModel):
    """Exact MSE of the L-MMSE estimator: trace(C_x - E^T C_y^{-1} E).

    Data-independent; the same solve as `lmmse_fit`.  Returns (total,
    per_component).
    """
    per_component = _lmmse_solve(model, linearize(model))[1]
    return float(np.sum(per_component)), per_component
