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

from .specfun import binorm_cdf, norm_cdf, norm_pdf

# Beyond this, Phi(c) is 1 to double precision and the sign is deterministic.
_SATURATION_C = 37.0

_JITTER_START = 1e-10
_JITTER_MAX = 1e-6


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
    """

    y_mean: np.ndarray
    C_y: np.ndarray
    E: np.ndarray


@dataclass(frozen=True)
class LmmseSolution:
    """Result of an L-MMSE fit x_hat = W y + b with its predicted MSE.

    predicted_mse (the exact expected squared error summed over
    components) and per_component_mse are data-independent and always
    set.  W and b are None only from rasch.rasch_lmmse_fit, which never
    forms the N x M weights.  metadata["path"] names the solver.
    """

    estimate: np.ndarray
    predicted_mse: float
    per_component_mse: np.ndarray
    W: np.ndarray | None
    b: np.ndarray | None
    jitter: float = 0.0
    metadata: dict = field(default_factory=dict)


def sign_covariance(c_i, c_j, rho):
    """Covariance of sign(z_i), sign(z_j) for standardized means c and corr rho.

    4 * (Phi2(c_i, c_j; rho) - Phi(c_i) Phi(c_j)): the sign is 2 1{z > 0} - 1
    and P(z_i > 0, z_j > 0) = Phi2(c_i, c_j; rho).  One bivariate CDF
    evaluation per entry, vectorized over broadcast inputs.
    """
    return 4.0 * (binorm_cdf(c_i, c_j, rho) - norm_cdf(c_i) * norm_cdf(c_j))


def linearize(model: GeneralProbitModel) -> LinearizedQuantities:
    """Compute y_mean, C_y and E, the moments that define the linear estimators.

    Forms the latent covariance C_z = D C_x D^T + I and the standardized
    means c = (D x_mean + m) / sqrt(diag C_z), and evaluates the bivariate
    normal CDF once per off-diagonal pair (`sign_covariance`), with the
    correlation taken on the upper triangle only.  One path serves every
    model: at c = 0 the bivariate CDF is Sheppard's orthant probability
    1/4 + asin(rho) / (2 pi), so C_y is the arcsine law (2/pi) asin(rho).
    C_y is a full M x M matrix; for Rasch designs of any size use
    rasch.rasch_lmmse_fit, which never forms C_y.
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
    saturated = np.abs(c) > _SATURATION_C
    y_mean = np.where(saturated, np.sign(c) * (1.0 - 1e-16), y_mean)

    E = 2.0 * (norm_pdf(c) / sz)[:, None] * (D @ C_x)

    C_y = np.empty((M, M))
    if M > 1:
        iu, ju = np.triu_indices(M, k=1)
        rho = np.clip(C_z[iu, ju] / (sz[iu] * sz[ju]), -1.0, 1.0)
        off = sign_covariance(c[iu], c[ju], rho)
        C_y[iu, ju] = off
        C_y[ju, iu] = off
    # Saturated entries are near-deterministic: covariance with anything is 0.
    if np.any(saturated):
        C_y[saturated, :] = 0.0
        C_y[:, saturated] = 0.0
    np.fill_diagonal(C_y, 1.0 - y_mean**2)
    return LinearizedQuantities(y_mean=y_mean, C_y=C_y, E=E)


def _solve_spd(A, B):
    """Solve A X = B for symmetric positive semidefinite A with jitter escalation.

    Returns (X, jitter_used).  The jitter is a multiple of the mean diagonal,
    starting at 1e-10 and escalating by 10x up to 1e-6, after which the
    failure is raised with the attempted level.
    """
    scale = float(np.mean(np.diag(A)))
    if scale <= 0:
        scale = 1.0
    jitter, A_jit = 0.0, A
    while True:
        try:
            return scipy.linalg.cho_solve(scipy.linalg.cho_factor(A_jit), B), jitter
        except scipy.linalg.LinAlgError:
            jitter = _JITTER_START if jitter == 0.0 else jitter * 10.0
            if jitter > _JITTER_MAX:
                raise np.linalg.LinAlgError(
                    "covariance factorization failed even with jitter "
                    f"{_JITTER_MAX:g} * mean(diag)"
                )
            A_jit = A.copy()
            A_jit[np.diag_indices_from(A_jit)] += jitter * scale


def _check_pm_one(y, M):
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.shape != (M,):
        raise ValueError(f"y has shape {y.shape}, expected ({M},)")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("y entries must be +1 or -1")
    return y


def _lmmse_solve(model, lin):
    """One solve C_y X = E: X, the per-component MSE and the jitter used.

    The per-component MSE is diag(C_x - E^T C_y^{-1} E) = diag(C_x - E^T X).
    """
    X, jitter = _solve_spd(lin.C_y, lin.E)
    per_component = np.diag(model.C_x) - np.einsum("mk,mk->k", lin.E, X)
    return X, per_component, jitter


def lmmse_fit(model: GeneralProbitModel, y) -> LmmseSolution:
    """L-MMSE estimate x_hat = W y + b with W = E^T C_y^{-1}, b = x_mean - W y_mean.

    Exact among linear estimators of x from the sign vector y.  One solve
    C_y X = E gives the weights W = X^T and the exact MSE together; W and b
    serve every response vector of the model.
    """
    y = _check_pm_one(y, model.num_observations)
    lin = linearize(model)
    X, per_component, jitter = _lmmse_solve(model, lin)
    W = X.T
    b = model.x_mean - W @ lin.y_mean
    return LmmseSolution(
        estimate=W @ y + b,
        predicted_mse=float(np.sum(per_component)),
        per_component_mse=per_component,
        W=W,
        b=b,
        jitter=jitter,
        metadata={"path": "dense"},
    )


def lmmse_predicted_mse(model: GeneralProbitModel):
    """Exact MSE of the L-MMSE estimator: trace(C_x - E^T C_y^{-1} E).

    Data-independent; the same solve as `lmmse_fit`.  Returns (total,
    per_component).
    """
    per_component = _lmmse_solve(model, linearize(model))[1]
    return float(np.sum(per_component)), per_component
