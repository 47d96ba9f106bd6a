"""Rasch-model specializations of the linear MMSE machinery.

The Rasch (1PL) model observes Y_ui = sign(a_u - d_i + w_ui).  Stacking the
parameters as x = [a; -d] gives the probit model y = sign(D x + w) with the
structured design D = [1_Q (x) I_U, I_Q (x) 1_U].  With equal prior
variances and a full response matrix, the sign covariance C_y has only four
distinct inverse entries, which yields a closed-form MSE.  For any observed
subset and any prior variances, C_y is a scaled identity plus a low-rank
term, so one min(U, Q) Cholesky factorization of a Schur complement
(`_BipartiteSchur`) gives the exact fit and its per-component MSE.  With
known difficulties, the responses are independent given the ability a, so
C_y = Lambda + Cov_a(m) with m_i(a) = 2 Phi(a - d_i) - 1 and Lambda =
diag E_a[1 - m_i^2]: on G quadrature nodes in a it is diagonal plus rank
G, and Woodbury solves it on a G x G core (`_known_difficulty_solve`).  The
general probit model with one column, D = 1_Q and offset m = -d, is the
dense reference for that solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.special import ndtr

from .data import ResponseSet, _as_count, _as_float, _as_variance
from .linear_probit import (
    _SATURATION_C,
    GeneralProbitModel,
    LmmseSolution,
    _check_pm_one,
)
from .specfun import norm_cdf, norm_pdf


@dataclass(frozen=True)
class RaschDesign:
    """Problem dimensions and prior variances for a Rasch instance."""

    U: int
    Q: int
    sigma2_a: float
    sigma2_d: float

    def __post_init__(self):
        for name in ("U", "Q"):
            object.__setattr__(self, name, _as_count(getattr(self, name), name))
        for name in ("sigma2_a", "sigma2_d"):
            object.__setattr__(self, name, _as_variance(getattr(self, name), name))

    @property
    def equal_variances(self):
        return self.sigma2_a == self.sigma2_d


@dataclass(frozen=True)
class StructuredCyInverse:
    """The four distinct entries of C_y^{-1} for the full-response Rasch case.

    C_y^{-1} = 1_{QxQ} (x) A + I_Q (x) B where A has diagonal c and
    off-diagonal d, and B has diagonal a - c and off-diagonal b - d.
    """

    U: int
    Q: int
    s: float
    a: float
    b: float
    c: float
    d: float
    r: float

    def dense(self):
        """Materialize C_y^{-1} (test/debug helper; O((UQ)^2) memory)."""
        U, Q = self.U, self.Q
        eye_u = np.eye(U)
        ones_u = np.ones((U, U))
        A = self.c * eye_u + self.d * (ones_u - eye_u)
        B = (self.a - self.c) * eye_u + (self.b - self.d) * (ones_u - eye_u)
        return np.kron(np.ones((Q, Q)), A) + np.kron(np.eye(Q), B)


@dataclass(frozen=True)
class KnownDifficultyModel:
    """Single-user ability estimation when item difficulties are known."""

    d: np.ndarray
    x_bar: float
    sigma2_x: float

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.float64).ravel()
        x_bar = _as_float(self.x_bar, "x_bar")
        if d.size < 1:
            raise ValueError("need at least one item difficulty")
        if not np.all(np.isfinite(d)):
            bad = d[~np.isfinite(d)][0]
            raise ValueError(f"item difficulties must be finite, got {bad}")
        if not np.isfinite(x_bar):
            raise ValueError(f"x_bar must be finite, got {x_bar}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "x_bar", x_bar)
        object.__setattr__(self, "sigma2_x", _as_variance(self.sigma2_x, "sigma2_x"))


def rasch_design_matrix(
    design: RaschDesign,
    observed: ResponseSet | None = None,
    *,
    sparse: bool = False,
) -> GeneralProbitModel:
    """Build the probit model for a Rasch instance.

    Full response by default: row m corresponds to (user m % U, item m // U),
    matching Y.flatten(order="F") for a U x Q response matrix.  With an
    observed ResponseSet, rows are restricted to its (user, item) pairs in
    order; `ResponseSet` itself rejects out-of-range indices and duplicate
    pairs.  Row (u, i) has ones at columns u and U + i; the second parameter
    block carries -d, so the row computes a_u - d_i.

    The model is dense (M x N D, N x N C_x): it is the reference for the
    structured solvers, which never build it.  sparse=True raises.
    """
    if sparse:
        raise ValueError(
            "sparse Rasch design matrices are not supported; fit Rasch data "
            "with rasch_lmmse_fit, baselines.rasch_map_fit or "
            "baselines.rasch_pm_gibbs"
        )
    U, Q = design.U, design.Q
    if observed is None:
        users = np.tile(np.arange(U), Q)
        items = np.repeat(np.arange(Q), U)
    else:
        _check_observed(design, observed)
        users, items = observed.users, observed.items
    M, N = len(users), U + Q
    D = np.zeros((M, N))
    D[np.arange(M), users] = 1.0
    D[np.arange(M), U + items] = 1.0
    prior_var = np.concatenate(
        [np.full(U, design.sigma2_a), np.full(Q, design.sigma2_d)]
    )
    return GeneralProbitModel(
        D=D, m=np.zeros(M), x_mean=np.zeros(N), C_x=np.diag(prior_var)
    )


def rasch_s(sigma2_x) -> float:
    """Arcsine correlation s = (2/pi) arcsin(sigma2 / (2 sigma2 + 1)).

    Strictly below 1/3 for all finite sigma2 since the argument stays
    below 1/2.
    """
    sigma2_x = _as_variance(sigma2_x, "sigma2_x", zero_ok=True)
    return (2.0 / np.pi) * np.arcsin(sigma2_x / (2.0 * sigma2_x + 1.0))


def _ability_mse(U, Q, sigma2, s):
    # Equals Q * (a + (Q-1) c) of the structured inverse, reduced to a
    # ratio of first-order polynomials in s.
    ratio = (
        Q
        * (s * (Q + U - 3.0) + 1.0)
        / ((s * (Q - 2.0) + 1.0) * (s * (Q + U - 2.0) + 1.0))
    )
    return float(
        sigma2 * (1.0 - (2.0 / np.pi) * (sigma2 / (2.0 * sigma2 + 1.0)) * ratio)
    )


def rasch_closed_form_mse(design: RaschDesign):
    """Exact per-component L-MMSE MSE for the full-response, equal-variance case.

    Returns (mse_ability, mse_difficulty); the difficulty expression is the
    ability one with U and Q swapped.
    """
    if not design.equal_variances:
        raise ValueError("closed form requires sigma2_a == sigma2_d")
    sigma2 = design.sigma2_a
    s = rasch_s(sigma2)
    return (
        _ability_mse(design.U, design.Q, sigma2, s),
        _ability_mse(design.Q, design.U, sigma2, s),
    )


# (-1)^(k+1) / (2k+1)!, k = 11..1: (t - sin t) / t^3 as a polynomial in t^2,
# whose first omitted term is below 1e-27 of the first at t = pi/6.
_T_MINUS_SIN_T = tuple(
    (-1) ** (k + 1) / math.factorial(2 * k + 1) for k in range(11, 0, -1)
)


def rasch_asymptotic_mse(sigma2_x) -> float:
    """Large-problem limit of the ability MSE as U, Q -> infinity,
    sigma2_x (1 - x / asin(x)) with x = sigma2_x / (2 sigma2_x + 1).  With
    t = asin(x), 1 - x / t = (t - sin t) / t is summed as its series, which
    keeps full precision where the difference cancels (small sigma2_x)."""
    sigma2_x = _as_variance(sigma2_x, "sigma2_x", zero_ok=True)
    if sigma2_x == 0.0:
        return 0.0
    t = math.asin(sigma2_x / (2.0 * sigma2_x + 1.0))
    return float(sigma2_x * t * t * np.polyval(_T_MINUS_SIN_T, t * t))


def structured_cy_inverse(design: RaschDesign) -> StructuredCyInverse:
    """Closed-form inverse of the arcsine-law C_y for the full Rasch design.

    The inverse shares the Kronecker structure of C_y and is determined by
    four scalars (a, b, c, d) that are rational cubics in s.
    """
    if not design.equal_variances:
        raise ValueError("structured inverse requires sigma2_a == sigma2_d")
    U, Q = float(design.U), float(design.Q)
    s = rasch_s(design.sigma2_a)
    r = (
        (2.0 * s - 1.0)
        * ((U - 2.0) * s + 1.0)
        * ((Q - 2.0) * s + 1.0)
        * ((Q + U - 2.0) * s + 1.0)
    )
    if r == 0.0:
        raise np.linalg.LinAlgError(
            f"degenerate configuration: zero denominator at U={design.U}, "
            f"Q={design.Q}, s={s}"
        )
    a = (
        (
            3 * U**2
            + 3 * Q**2
            - U**2 * Q
            - U * Q**2
            + 8 * U * Q
            - 15 * U
            - 15 * Q
            + 20
        )
        * s**3
        + (-(U**2) - Q**2 - 3 * U * Q + 11 * U + 11 * Q - 22) * s**2
        + (-2 * U - 2 * Q + 8) * s
        - 1.0
    ) / r
    b = (
        (U * Q + Q**2 - 3 * U - 5 * Q + 8) * s**3
        + (U + 2 * Q - 6) * s**2
        + s
    ) / r
    c = (
        (U * Q + U**2 - 5 * U - 3 * Q + 8) * s**3
        + (2 * U + Q - 6) * s**2
        + s
    ) / r
    d = (-(U + Q - 4) * s**3 - 2 * s**2) / r
    return StructuredCyInverse(
        U=design.U, Q=design.Q, s=s, a=a, b=b, c=c, d=d, r=r
    )


def _check_observed(design: RaschDesign, data: ResponseSet):
    """Reject a ResponseSet that is empty or sized for another design."""
    if (data.num_users, data.num_items) != (design.U, design.Q):
        raise ValueError(
            f"data is {data.num_users} x {data.num_items}, "
            f"design is {design.U} x {design.Q}"
        )
    if len(data) == 0:
        raise ValueError("observed ResponseSet is empty")


class _Incidence:
    """The Rasch model y = sign(D x + w), x = [a; -d], on data's pairs: row
    m of D has ones at columns users[m] and U + items[m], stacked in `cols`;
    `degree` counts each column's ones and `prior` is diag(C_x).  D x and
    D^T r take one row or a (T, .) block of rows, and a block row runs the
    operations of the one-row call, so it is bitwise that call's result.
    """

    def __init__(self, design: RaschDesign, data: ResponseSet):
        _check_observed(design, data)
        U, Q = design.U, design.Q
        self.U, self.cols = U, np.concatenate([data.users, U + data.items])
        self.user_cols, self.item_cols = np.split(self.cols, 2)
        self.degree = np.bincount(self.cols, minlength=U + Q)
        self.prior = np.repeat(np.float64([design.sigma2_a, design.sigma2_d]), [U, Q])
        self._block_cols = self.cols  # the bins of `adjoint` for T = 1

    def forward(self, X):
        """D x per row of X: x[user] + x[U + item] for each response."""
        return np.add(X.take(self.user_cols, axis=-1), X.take(self.item_cols, axis=-1))

    def adjoint(self, R):
        """D^T r per row of R, by one bincount over `cols`: row t's sums land
        in bins t (U + Q) + k, each summed in the one-row order.  The bins
        are built once per block height T."""
        N, rows = self.prior.size, np.atleast_2d(R)
        if self._block_cols.size != 2 * rows.size:
            self._block_cols = (np.arange(len(rows))[:, None] * N + self.cols).ravel()
        return np.bincount(
            self._block_cols, weights=np.concatenate((rows, rows), axis=1).ravel(),
            minlength=len(rows) * N,
        ).reshape(np.shape(R)[:-1] + (N,))


_ROW_BLOCK = 256  # rows of B^T C^{-1} held at once by diag_inverse
# Rows of S assembled at once: one block's sparse product is held beside
# S's buffer.  Build plus factor of a MovieLens-shaped 50k-response fold
# (n = 943; one LAPACK thread, 2-vCPU VM), blocks of 64/128/256/512 rows:
# 34.2/33.5/33.6/36.8 ms CPU at 1.33/1.43/1.62/2.02 n^2 doubles of
# tracemalloc peak.
_SCHUR_ROW_BLOCK = 128


def _squared_row_norms(A):
    # As a call's argument, diag_inverse's block of B^T C^{-1} is freed
    # before the next block is formed.
    return np.einsum("ij,ij->i", A, A)


def _transpose_from(B, lo):
    """B[lo:]^T, as a CSR matrix of B^T's shape whose first lo columns are
    empty; B's own data and indices, read as CSC, are transposed once."""
    start = B.indptr[lo]
    return scipy.sparse.csc_matrix(
        (B.data[start:], B.indices[start:], np.maximum(B.indptr, start) - start),
        shape=B.shape[::-1],
    ).tocsr()


class _BipartiteSchur:
    """H = diag(h) + [[0, B], [B^T, 0]], factored once by block elimination.

    h holds users then items; B is U x Q with weights[m] at the m-th pair
    of the incidence `inc`.  The kept side s is the observed users or
    items (by `inc.degree`), whichever are fewer; all other parameters are
    eliminated, which leaves S = diag(h_s) - B diag(h_b)^{-1} B^T = C^T C
    (C upper triangular), of size n = min(U, Q).  S is assembled, factored
    as L L^T (L = C^T) and inverted in one n x n buffer.  The sparse
    product fills it `_SCHUR_ROW_BLOCK` rows at a time, each block from
    its first row's column on: that covers S's upper triangle, all the
    factorization reads.  No other copy of S, sparse or dense, is made,
    and each entry is summed in the order of one product over all rows, so
    the factor is bitwise that of S formed whole.  B^T is built once
    (`_Bt`), for the assembly, `solve`, `diag_inverse` and
    `_BipartiteSampler`.
    `solve` (MAP Newton steps and their PCG preconditioner, the L-MMSE
    estimate) runs on the Cholesky factor; `diag_inverse` (the exact MSE)
    and `_BipartiteSampler` (the Gibbs x | z draw) run on the inverse
    C^{-1}, since S^{-1} = C^{-1} C^{-T}.  The inverse is formed in the
    factor's buffer, so a `solve` after it raises.
    """

    def __init__(self, h, inc: _Incidence, weights):
        seen = inc.degree > 0
        kept_of, elim_of, self.side = inc.user_cols, inc.item_cols, "users"
        if np.count_nonzero(seen[: inc.U]) > np.count_nonzero(seen[inc.U :]):
            kept_of, elim_of, self.side = elim_of, kept_of, "items"
        seen[elim_of] = False
        self.kept = np.flatnonzero(seen)
        rows = (np.cumsum(seen) - 1)[kept_of]
        self._h, self._B = h, scipy.sparse.csr_matrix(
            (weights, (rows, elim_of)), shape=(self.kept.size, h.size)
        )
        n = self.kept.size
        schur = np.empty((n, n))

        def fill(lo, right):  # rows lo.. of -B diag(h_b)^{-1} B^T, one block
            B_scaled = self._B[lo : lo + _SCHUR_ROW_BLOCK]  # a copy
            B_scaled.data /= -h[B_scaled.indices]
            (B_scaled @ right).toarray(out=schur[lo : lo + _SCHUR_ROW_BLOCK])

        # Each later block needs columns lo.. alone; the first takes B^T
        # itself, built last so that no other transpose is held beside it.
        for lo in range(_SCHUR_ROW_BLOCK, n, _SCHUR_ROW_BLOCK):
            fill(lo, _transpose_from(self._B, lo))
        self._Bt = _transpose_from(self._B, 0)
        fill(0, self._Bt)
        schur[np.diag_indices_from(schur)] += h[self.kept]
        # The buffer is C-ordered: its F-ordered transpose holds S's upper
        # triangle as a lower one, which LAPACK factors in place.
        self._factor = scipy.linalg.cho_factor(
            schur.T, lower=True, overwrite_a=True, check_finite=False
        )

    def _inverse_factor(self):
        """C^{-1}, upper triangular and C-contiguous, by LAPACK dtrtri in the
        factor's buffer: L^{-1} = C^{-T} there, read through its transpose.
        This uses up the factor."""
        if self._factor is None:
            raise RuntimeError("the Schur factor has been inverted")
        factor, self._factor = self._factor[0], None
        l_inv, info = scipy.linalg.lapack.dtrtri(factor, lower=1, overwrite_c=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dtrtri failed (info={info})")
        # cho_factor and dtrtri leave S's entries or zeros in the unused
        # triangle.
        c_inv = l_inv.T
        for i in range(1, c_inv.shape[0]):
            c_inv[i, :i] = 0.0
        return c_inv

    def solve(self, r):
        """H^{-1} r: x_s = S^{-1}(r_s - B r_b / h_b), x_b = (r_b - B^T x_s) / h_b."""
        if self._factor is None:
            raise RuntimeError("the Schur factor has been inverted")
        x_kept = scipy.linalg.cho_solve(
            self._factor, r[self.kept] - self._B @ (r / self._h), check_finite=False
        )
        x = (r - self._Bt @ x_kept) / self._h
        x[self.kept] = x_kept
        return x

    def diag_inverse(self):
        """diag(H^{-1}) exactly (formulas in `rasch_lmmse_fit`), no N x N array.

        With S^{-1} = C^{-1} C^{-T}, diag(S^{-1}) is the row sums of
        C^{-1} * C^{-1}, and b_j^T S^{-1} b_j = ||b_j^T C^{-1}||^2 over the
        rows of B^T C^{-1}.  Uses up the factor (`_inverse_factor`).
        """
        c_inv = self._inverse_factor()
        out = 1.0 / self._h
        for start in range(0, out.size, _ROW_BLOCK):
            block = slice(start, start + _ROW_BLOCK)
            out[block] += _squared_row_norms(self._Bt[block] @ c_inv) / self._h[block] ** 2
        out[self.kept] = _squared_row_norms(c_inv)
        return out


class _BipartiteSampler:
    """The Gibbs x | z draw for a block of chains on one observation pattern.

    runs holds one (schur, n) per run of n consecutive chains (rows) whose
    x | z precision is schur's H; the factors share one pattern and one
    set of weights, so they share the kept side and B, and the sparse
    products of a draw run once for all rows.
    """

    def __init__(self, runs):
        schurs, counts = zip(*runs)
        self.kept, self._B, self._Bt = schurs[0].kept, schurs[0]._B, schurs[0]._Bt
        self._h = np.repeat([schur._h for schur in schurs], counts, axis=0)
        self._inv_sqrt_h = 1.0 / np.sqrt(self._h)
        ends = np.cumsum(counts)
        self._c_inv = [
            (slice(end - n, end), schur._inverse_factor())
            for end, n, schur in zip(ends, counts, schurs)
        ]

    def sample(self, R, XI):
        """Draws from N(H^{-1} r, H^{-1}), one per row r of R, given standard
        normals XI of R's shape (rows of length U + Q, H that of the row).

        x_s = S^{-1} r~ + C^{-1} xi_s with r~ = r_s - B r_b / h_b, then
        x_b = (r_b - B^T x_s) / h_b + xi_b / sqrt(h_b), with S = C^T C the
        row's Schur complement and C^{-1} its inverse factor.  The two sparse
        products run once for all rows, and each row's two products with
        C^{-1} are matrix-vector products, as for a row alone; with unit
        weights (the Gibbs case) a row's draw is bitwise its draw alone.
        With the items kept this is the draw L^{-T}(L^{-1} r + xi) of the
        users-first Cholesky factor H = L L^T.
        """
        kept = self.kept
        r_kept = R[:, kept] - (self._B @ (R / self._h).T).T
        xi_kept = XI[:, kept]
        x_kept = np.empty_like(r_kept)
        for rows, c_inv in self._c_inv:
            x_kept[rows] = (
                (r_kept[rows, None] @ c_inv + xi_kept[rows, None]) @ c_inv.T
            )[:, 0]
        X = (R - (self._Bt @ x_kept.T).T) / self._h + self._inv_sqrt_h * XI
        X[:, kept] = x_kept
        return X


def _woodbury_terms(design: RaschDesign, inc: _Incidence):
    """kappa, s (per parameter), alpha and K's diagonal h = alpha / s +
    degree, as defined in `rasch_lmmse_fit`."""
    v = design.sigma2_a + design.sigma2_d + 1.0
    s = (2.0 / np.pi) * np.arcsin(inc.prior / v)
    alpha = 1.0 - s[0] - s[-1]  # 1 - s_a - s_d
    return np.sqrt(2.0 / np.pi / v), s, alpha, alpha / s + inc.degree


def _decoupled_lmmse_estimate(design: RaschDesign, inc: _Incidence, y):
    """`rasch_lmmse_fit`'s estimate kappa C_x S^{-1} K^{-1} D^T y with K
    taken as its diagonal h, i.e. the user-item coupling B dropped: O(M),
    no factorization.  A parameter without responses gets exactly 0."""
    kappa, s, _, h = _woodbury_terms(design, inc)
    return kappa * inc.prior / s * inc.adjoint(y) / h


def rasch_lmmse_fit(design: RaschDesign, data: ResponseSet) -> LmmseSolution:
    """Exact L-MMSE fit and per-component MSE for any observed subset.

    Every row of D has two ones, so each latent z_m has variance
    v = sigma2_a + sigma2_d + 1, and the arcsine law gives exactly
    C_y = alpha I + D S D^T with S = diag(s_a I_U, s_d I_Q),
    s_. = (2/pi) arcsin(sigma2_. / v) and alpha = 1 - s_a - s_d > 0.  The
    Woodbury identity (Hager 1989) turns the M x M solve into one SPD
    solve with K = alpha S^{-1} + D^T D:

        x_hat = kappa C_x S^{-1} K^{-1} D^T y,
        mse_k = c_k - kappa^2 c_k^2 (1 - alpha [K^{-1}]_kk / s_k) / s_k,

    with kappa = sqrt(2/pi / v) and c = diag(C_x).  K = diag(h) +
    [[0, B], [B^T, 0]] with h = alpha / s + degree and B the U x Q
    incidence block; `_BipartiteSchur` factors it through the Schur
    complement S_K onto the smaller observed side, so diag(K^{-1}) is
    diag(S_K^{-1}) there and 1/h_j + b_j^T S_K^{-1} b_j / h_j^2 on the
    other side (b_j column j of B).  With S_K = C^T C, both terms are
    squared row norms, of C^{-1} and of B^T C^{-1}, from one triangular
    inverse; nothing of size (U+Q)^2 is formed.
    A parameter with no responses decouples: its estimate is the prior
    mean 0 and its MSE the prior variance, both exactly.  metadata names
    the kept side and its size.
    """
    inc = _Incidence(design, data)
    kappa, s, alpha, h = _woodbury_terms(design, inc)
    c = inc.prior
    schur = _BipartiteSchur(h, inc, np.ones(len(data)))
    # The estimate comes first: diag_inverse uses up the factor.
    estimate = kappa * c / s * schur.solve(inc.adjoint(data.responses))
    # (degree > 0) keeps unobserved parameters at exactly the prior variance.
    per_component = c - (inc.degree > 0) * kappa**2 * c**2 * (
        1.0 - alpha * schur.diag_inverse() / s
    ) / s
    return LmmseSolution(
        estimate=estimate,
        predicted_mse=float(np.sum(per_component)),
        per_component_mse=per_component,
        W=None,
        b=None,
        metadata={"path": "woodbury", "schur_side": schur.side,
                  "schur_size": int(schur.kept.size)},
    )


def _full_response_set(design: RaschDesign, Y) -> ResponseSet:
    """A full U x Q response matrix as a ResponseSet, in column-major order."""
    U, Q = design.U, design.Q
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != (U, Q):
        raise ValueError(f"Y has shape {Y.shape}, expected ({U}, {Q})")
    return ResponseSet(
        users=np.tile(np.arange(U), Q),
        items=np.repeat(np.arange(Q), U),
        responses=Y.flatten(order="F"),
        num_users=U,
        num_items=Q,
    )


def rasch_fast_lmmse_fit(design: RaschDesign, Y) -> LmmseSolution:
    """L-MMSE fit of a full U x Q response matrix via `rasch_lmmse_fit`."""
    return rasch_lmmse_fit(design, _full_response_set(design, Y))


def split_estimate(design: RaschDesign, estimate):
    """Split a stacked estimate into (abilities, difficulties).

    The model stacks x = [a; -d], so difficulties are the negated second
    block.
    """
    estimate = np.asarray(estimate, dtype=np.float64).ravel()
    if estimate.shape != (design.U + design.Q,):
        raise ValueError("estimate length does not match design")
    return estimate[: design.U].copy(), -estimate[design.U :]


# The known-difficulty quadrature in the ability a ~ N(x_bar, sigma^2):
# composite Gauss-Legendre panels of `_PANEL_NODES` nodes, each at most
# `_PANEL_WIDTH` min(sigma, 1) wide, over the a within `_PRIOR_REACH`
# prior SDs of x_bar and within `_ITEM_REACH` of some difficulty.  Beyond
# the latter Phi(a - d_i) is 0 or 1 in double precision for every item
# (Phi(-8.5) = 9.5e-18), so each m_i is -1 or +1 there; beyond the former
# lies a prior mass of Phi(-9) = 1.1e-19 per tail.  Each tail is one node,
# its prior mass at its conditional mean.  4 is the widest panel width at
# which the MSE of every model of the tests' sweep moves by at most 1e-13
# relative (or 1e-12) when the width is halved; at 5 one moves by 1.3e-11.
_PANEL_NODES = 16
_PANEL_WIDTH = 4.0
_PRIOR_REACH = 9.0
_ITEM_REACH = 8.5
# Largest deviation the quadrature may show from its three closed forms
# (`_known_difficulty_solve`) before a call raises.
_QUADRATURE_TOLERANCE = 1e-12


def _ability_window(x_bar, sigma, d_lo, d_hi):
    """The window [lo, hi] = [max(x_bar - 9 sigma, d_lo - 8.5), min(x_bar +
    9 sigma, d_hi + 8.5)] of `_ability_nodes` (the prior's +-9 sigma when
    that is empty) and its count of panels."""
    lo = max(x_bar - _PRIOR_REACH * sigma, d_lo - _ITEM_REACH)
    hi = min(x_bar + _PRIOR_REACH * sigma, d_hi + _ITEM_REACH)
    if lo >= hi:
        lo, hi = x_bar - _PRIOR_REACH * sigma, x_bar + _PRIOR_REACH * sigma
    # Rounding can put hi - lo a hair above 18 sigma; the clip keeps every
    # window's panel count within that of the prior's whole +-9 sigma,
    # which `_ability_node_cap` counts.
    span = min(hi - lo, 2.0 * _PRIOR_REACH * sigma)
    return lo, hi, math.ceil(span / (_PANEL_WIDTH * min(sigma, 1.0)))


def _ability_nodes(x_bar, sigma, d_lo, d_hi):
    """Nodes a_g and probability weights w_g of N(x_bar, sigma^2) for items
    whose difficulties span [d_lo, d_hi], and the prior variance the nodes
    miss: panels over the window of `_ability_window`, then each tail as
    one node.
    """
    lo, hi, panels = _ability_window(x_bar, sigma, d_lo, d_hi)
    half = 0.5 * (hi - lo) / panels
    unit, unit_weights = np.polynomial.legendre.leggauss(_PANEL_NODES)
    centres = lo + half * (2.0 * np.arange(panels) + 1.0)
    a = (centres[:, None] + half * unit).ravel()
    w = (half / sigma) * np.tile(unit_weights, panels) * norm_pdf((a - x_bar) / sigma)
    # A tail beyond z in prior SDs has mass Phi(z) and mean -phi(z) / Phi(z)
    # (mirrored for the upper tail); one node there misses its variance,
    # sigma^2 (Phi(z) - z phi(z) - phi(z)^2 / Phi(z)).
    tails = np.array([x_bar - lo, hi - x_bar]) / -sigma
    mass, density = norm_cdf(tails), norm_pdf(tails)
    a_tail = x_bar + sigma * np.array([-1.0, 1.0]) * density / mass
    missed = sigma**2 * float(np.sum(mass - tails * density - density**2 / mass))
    return (np.concatenate(([a_tail[0]], a, [a_tail[1]])),
            np.concatenate(([mass[0]], w, [mass[1]])), missed)


def _ability_node_cap(sigma2):
    """The most nodes `_ability_nodes` gives at prior variance sigma2,
    whatever the difficulties: those of its widest window, the prior's
    whole +-9 sigma, which no difficulty span narrows.  Counted, not built:
    it holds 51 million nodes at sigma^2 = 5e11 (120 dB), where the windows
    the difficulties leave hold about a hundred."""
    panels = _ability_window(0.0, math.sqrt(sigma2), -math.inf, math.inf)[2]
    return _PANEL_NODES * panels + 2


def _known_difficulty_solve(model: KnownDifficultyModel):
    """The known-difficulty L-MMSE weights w (Q,), offset b and MSE, and
    the metadata of the solve; C_y is never formed.

    Given a, the responses are independent with means m_i(a) = 2 Phi(a -
    d_i) - 1, so the law of total covariance gives C_y = Lambda + Cov_a(m)
    with Lambda = diag E_a[1 - m_i^2], and e = Cov(y, a) = Cov_a(m, a).  On
    the quadrature nodes (a_g, w_g) of `_ability_nodes`, with F the
    centred m_i(a_g), Psi = Lambda^{-1/2} F W^{1/2} (Q x G) and v =
    W^{1/2} (a - x_bar), Woodbury on the G x G core I + Psi^T Psi gives

        C_y^{-1} e = Lambda^{-1/2} Psi (I + Psi^T Psi)^{-1} v,
        mse = (sigma^2 - v^T v) + v^T (I + Psi^T Psi)^{-1} v.

    sigma^2 - v^T v is the prior variance that the nodes miss, the tails'
    conditional variances, and is taken in closed form, so the MSE is a
    sum of two nonnegative terms.  The core's eigenvalues are all >= 1, so
    its Cholesky factor needs no jitter.  Each item is evaluated through
    its smaller tail T = Phi(a - d) (Phi(d - a) when d < x_bar), so a
    near-saturated item keeps its relative precision; one ndtr a (item,
    node) pair gives T and 1 - T.  An item with |c| > 37, c = (x_bar - d)
    / sqrt(sigma^2 + 1), or whose Lambda underflows to 0, has weight 0 and
    is counted in metadata["saturated"].  On the same nodes the solve
    reproduces the closed forms E[y_i] = 2 Phi(c_i) - 1, e_i = 2 sigma^2
    phi(c_i) / sqrt(sigma^2 + 1) and sigma^2 = v^T v plus the tails'
    conditional variances, in units of 1, sigma and sigma^2; the largest
    deviation is metadata["closed_form_deviation"], and above
    `_QUADRATURE_TOLERANCE` the call raises.  G is at most
    `_ability_node_cap(sigma^2)`: 82 nodes for N(0, 1) difficulties up to
    sigma^2 = 1, and 98 at sigma^2 = 5.
    """
    d, x_bar, sigma2 = model.d, model.x_bar, model.sigma2_x
    sigma = math.sqrt(sigma2)
    c = (x_bar - d) / math.sqrt(sigma2 + 1.0)
    active = np.abs(c) <= _SATURATION_C
    weights = np.zeros(d.size)
    mse, nodes, deviation, saturated = sigma2, 0, 0.0, d.size
    if np.any(active):
        d_act, c_act = d[active], c[active]
        a, w, tail_variance = _ability_nodes(x_bar, sigma, d_act.min(), d_act.max())
        nodes, da = a.size, a - x_bar
        # T = Phi(side (a - d)) is the item's smaller tail, E[T] = Phi(-|c|).
        # One ndtr a pair: the smaller of T and 1 - T is Phi(-|arg|), the
        # other its complement (bitwise ndtr's own for |arg| >= 1).
        side = np.where(c_act > 0.0, -1.0, 1.0)
        arg = side[:, None] * (a[None, :] - d_act[:, None])
        upper = arg > 0.0
        np.abs(arg, out=arg)
        tail = ndtr(np.negative(arg, out=arg), out=arg)
        other = 1.0 - tail
        lam = 4.0 * np.einsum("ig,ig,g->i", tail, other, w)
        np.copyto(tail, other, where=upper)  # now T
        del arg, other, upper
        tail_mean = tail @ w
        centred = tail
        centred -= tail_mean[:, None]  # m - E m = 2 side (T - E T)
        e = 2.0 * side * (centred @ (w * da))
        deviation = max(
            float(np.max(np.abs(2.0 * (tail_mean - norm_cdf(-np.abs(c_act)))))),
            float(np.max(np.abs(e - 2.0 * sigma2 * norm_pdf(c_act)
                                / math.sqrt(sigma2 + 1.0)))) / sigma,
            abs(float(w @ (da * da)) + tail_variance - sigma2) / sigma2,
        )
        if not deviation <= _QUADRATURE_TOLERANCE:
            raise RuntimeError(
                f"known-difficulty quadrature ({nodes} nodes) missed its closed "
                f"forms by {deviation:.3g}"
            )
        kept = lam > 0.0
        scale = np.zeros_like(lam)
        scale[kept] = 1.0 / np.sqrt(lam[kept])
        psi = centred
        psi *= (2.0 * side * scale)[:, None]
        psi *= np.sqrt(w)
        v = np.sqrt(w) * da
        # psi is C-ordered, so psi.T is F-ordered: dsyrk reads it in place.
        core = scipy.linalg.blas.dsyrk(1.0, psi.T)
        core[np.diag_indices_from(core)] += 1.0
        z = scipy.linalg.cho_solve(
            scipy.linalg.cho_factor(core, lower=False, overwrite_a=True,
                                    check_finite=False),
            v, check_finite=False,
        )
        mse = tail_variance + float(v @ z)
        weights[active] = scale * (psi @ z)
        saturated = int(np.count_nonzero(~active)) + int(np.count_nonzero(~kept))
    mean = norm_cdf(c) - norm_cdf(-c)
    return weights, x_bar - float(weights @ mean), mse, {
        "path": "quadrature", "nodes": nodes, "saturated": saturated,
        "closed_form_deviation": deviation,
    }


def known_difficulty_fit(model: KnownDifficultyModel, Y) -> LmmseSolution:
    """L-MMSE ability estimates against known item difficulties.

    Observes y_i = sign(a - d_i + w_i) with a ~ N(x_bar, sigma2_x).  The
    fit is linear, a_hat = W y + b, and (W, b) depend only on the model:
    one quadrature solve (`_known_difficulty_solve`: C_y is diagonal plus
    rank G on the G quadrature nodes in a, so Woodbury solves it on a
    G x G core, in O(Q G^2) time and O(Q G) memory) gives every row's
    W y_u + b.  Y is one user's (Q,) responses or a (U, Q) block, one row
    per user.  Returns that fit with `estimate` holding one ability per
    row, shape (1,) for one user and (U,) for a block; `predicted_mse`,
    each user's MSE, is data-independent.  W is (1, Q) and b (1,), as
    from the general `lmmse_fit` on the one-column model D = 1_Q, m = -d,
    which stays the reference; metadata holds the path ("quadrature"),
    the node count, the saturated items and the closed-form check.
    """
    Y = np.asarray(Y, dtype=np.float64)
    Q = model.d.size
    if Y.ndim not in (1, 2) or Y.shape[-1] != Q or Y.size == 0:
        raise ValueError(f"Y has shape {Y.shape}, expected ({Q},) or (U, {Q})")
    Y = _check_pm_one(Y, Y.size).reshape(-1, Q)
    weights, b, mse, metadata = _known_difficulty_solve(model)
    return LmmseSolution(
        estimate=Y @ weights + b,
        predicted_mse=mse,
        per_component_mse=np.array([mse]),
        W=weights[None, :],
        b=np.array([b]),
        metadata=metadata,
    )


def known_difficulty_predicted_mse(model: KnownDifficultyModel) -> float:
    """Data-independent MSE of the known-difficulty L-MMSE ability
    estimate, from the quadrature solve of `known_difficulty_fit`."""
    return _known_difficulty_solve(model)[2]
