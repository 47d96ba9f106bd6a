"""Reference estimators and bounds: MAP, Gibbs posterior mean, exact
posterior mean by quadrature for tiny problems, and the Bayesian
Fisher-information lower bound.

These are the comparison points for the linear MMSE estimator: MAP is the
standard convex point estimate, the Gibbs sampler approximates the exact
posterior mean, and the Fisher bound gives an (asymptotic) floor.  All
three carry the Gaussian prior, so every system D^T diag(w) D + C_x^{-1}
they factor is positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np
import scipy.linalg
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

from .data import ResponseSet, _as_count, _as_int, _as_variance
from .linear_probit import GeneralProbitModel, _check_pm_one
from .rasch import (
    RaschDesign,
    _BipartiteSampler,
    _BipartiteSchur,
    _decoupled_lmmse_estimate,
    _Incidence,
)

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
# The damped-Newton MAP solver's iteration cap and gradient-norm tolerance.
_MAP_MAX_ITERATIONS = 100
_MAP_GRADIENT_TOLERANCE = 1e-8
# `rasch_map_fit`'s PCG budget: a Newton step may run one conjugate-gradient
# iteration per this many kept rows of the held Schur factor (n // 32 at n
# kept rows) before it builds a new factor.  An iteration costs O(n^2 + M),
# a build O(n^3) plus a sparse product, so a step that runs out of budget
# costs about two builds.  Below 32 kept rows the budget is 0 and every
# step factors, as in every 20-user simulate cell.  Measured as CPU per
# probit fit (one LAPACK thread, 2-vCPU VM, NumPy 2.4, SciPy 1.17) against
# a factor per step, divisors 8/16/32/64: a MovieLens-shaped 50k-response
# fold 0.60/0.58/0.58/0.73x at sigma2 = 1 and 1.75/1.08/0.86/0.77x at
# sigma2 = 100; a full 400 x 800 design 0.58/0.54/0.63/0.79x at sigma2 = 1
# and 0.44/0.58/0.63/0.87x at sigma2 = 100; a 100 x 200 one 1.09/1.30/
# 1.24/1.39x at sigma2 = 100 (67 ms a fit).
_KEPT_ROWS_PER_PCG_ITERATION = 32
# Latents per step of one Gibbs block, T chains x M responses: bounds each
# (T, M) array of `_rasch_gibbs_block` at 8 MB.
_GIBBS_BLOCK_LATENTS = 1 << 20


@dataclass(frozen=True)
class MapConfig:
    """Settings for the damped-Newton MAP solver: the link, probit or logit."""

    link: str = "probit"

    def __post_init__(self):
        if self.link not in ("probit", "logit"):
            raise ValueError(f"unknown link {self.link!r}")


@dataclass(frozen=True)
class GibbsConfig:
    """Settings for the data-augmentation Gibbs sampler."""

    burn_in: int = 10_000
    samples: int = 20_000
    seed: int = 0

    def __post_init__(self):
        for name in ("burn_in", "seed"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        object.__setattr__(self, "samples", _as_count(self.samples, "samples"))
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def _weighted_gram(D, weights):
    """D^T diag(weights) D as a dense N x N array."""
    return (D * weights[:, None]).T @ D


def _prior_precision(model):
    """C_x^{-1} as a dense N x N array, from the Cholesky factor of C_x."""
    cf = scipy.linalg.cho_factor(model.C_x)
    return scipy.linalg.cho_solve(cf, np.eye(model.C_x.shape[0]))


def _neg_log_lik_terms(t, link):
    """-log g(t) per observation, with g = Phi or the logistic sigmoid."""
    if link == "probit":
        return -log_ndtr(t)
    # -log sigmoid(t) = softplus(-t)
    return np.logaddexp(0.0, -t)


def _lik_weights(t, link):
    """(lambda, omega): gradient weight lambda(t) and Hessian weight omega(t).

    For probit, lambda = phi(t)/Phi(t) and omega = lambda (lambda + t); for
    logit, lambda = sigmoid(-t) and omega = sigmoid(t) sigmoid(-t).  Both
    omegas are positive, so the Newton Hessian is PSD.
    """
    if link == "probit":
        log_phi = -0.5 * t * t - _LOG_SQRT_2PI
        lam = np.exp(log_phi - log_ndtr(t))
        omega = lam * (lam + t)
        return lam, np.maximum(omega, 0.0)
    sig_neg = 0.5 * (1.0 - np.tanh(0.5 * t))  # sigmoid(-t), stable both tails
    return sig_neg, sig_neg * (1.0 - sig_neg)


@dataclass(frozen=True)
class MapSolution:
    """Result of a damped-Newton MAP fit with its solver diagnostics.

    iterations counts the Newton systems solved; gradient_norm is the norm
    of the gradient at the returned estimate; at_floor is true when the
    solver stopped at the machine-precision floor (the objective could no
    longer decrease measurably and the gradient norm had stalled above the
    tolerance) and returned the best iterate seen.  factorizations counts
    the Schur factors `rasch_map_fit` built and cg_iterations the
    preconditioned conjugate-gradient iterations it ran (the shared Newton
    loop alone leaves both 0).
    """

    estimate: np.ndarray
    iterations: int
    gradient_norm: float
    at_floor: bool
    factorizations: int = 0
    cg_iterations: int = 0


def _damped_newton(x0, x_mean, y, m, forward, adjoint, precision, newton_step,
                   config):
    """Damped Newton from x0 on -sum log g(y_m ((D x)_m + m_m)) + prior penalty.

    The design enters only through forward(x) = D x and adjoint(r) = D^T r;
    precision(dx) applies C_x^{-1}, and newton_step(omega, grad) solves
    (D^T diag(omega) D + C_x^{-1}) s = -grad, directly or to a relative
    residual of `_MAP_GRADIENT_TOLERANCE`.  The objective is smooth and
    strictly convex (the prior penalty makes it so), so Newton with Armijo
    backtracking reaches the unique optimum.  Stops when the gradient norm
    falls below `_MAP_GRADIENT_TOLERANCE`, or, once the objective is flat to
    machine precision, when the gradient norm stops improving (the
    gradient-norm floor of an instance can sit above any fixed tolerance).
    """

    def objective(x):
        t = y * (forward(x) + m)
        dx = x - x_mean
        prior = 0.5 * float(dx @ precision(dx))
        return float(np.sum(_neg_log_lik_terms(t, config.link))) + prior

    def gradient(x):
        t = y * (forward(x) + m)
        lam, omega = _lik_weights(t, config.link)
        return precision(x - x_mean) - adjoint(y * lam), omega

    x = x0.copy()
    f = objective(x)
    best_x, best_gnorm = x, np.inf
    stalled = 0
    for it in range(_MAP_MAX_ITERATIONS):
        grad, omega = gradient(x)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= _MAP_GRADIENT_TOLERANCE:
            return MapSolution(x, it, gnorm, False)
        made_progress = gnorm < 0.9 * best_gnorm
        if gnorm < best_gnorm:
            best_x, best_gnorm = x, gnorm
        step = newton_step(omega, grad)
        slope = float(grad @ step)
        # Once -slope/2 (the remaining suboptimality) is below one ulp of
        # the objective, f cannot measurably decrease, and an Armijo search
        # would compare values that differ only by rounding (and could
        # reject a sound step 60 times over).  Newton may still be
        # polishing the gradient, so take the full step, run on while the
        # gradient norm falls at a real rate, and accept the best iterate
        # once it stalls (sub-ulp rounding noise can leave the norm
        # creeping in its tenth digit forever) or the step rounds away.
        at_floor = -slope <= np.finfo(np.float64).eps * (1.0 + abs(f))
        if not at_floor:
            # Armijo backtracking on the Newton direction.
            alpha = 1.0
            for _ in range(60):
                x_new = x + alpha * step
                f_new = objective(x_new)
                if f_new <= f + 1e-4 * alpha * slope:
                    break
                alpha *= 0.5
            # A step shrunk until it rounds away leaves f as it was and so
            # passes the test; the objective is flat to rounding, as at the
            # floor, and backtracking would repeat the same step forever.
            at_floor = np.array_equal(x_new, x)
        if at_floor:
            x_new = x + step
            f_new = objective(x_new)
        stalled = stalled + 1 if at_floor and not made_progress else 0
        if at_floor and (stalled >= 3 or np.array_equal(x_new, x)):
            return MapSolution(best_x, it + 1, best_gnorm, True)
        x, f = x_new, f_new
    grad, _ = gradient(x)
    gnorm = float(np.linalg.norm(grad))
    if gnorm <= _MAP_GRADIENT_TOLERANCE:
        return MapSolution(x, _MAP_MAX_ITERATIONS, gnorm, False)
    raise RuntimeError(
        f"MAP did not converge in {_MAP_MAX_ITERATIONS} iterations "
        f"(gradient norm {gnorm:.3e})"
    )


def map_fit(model: GeneralProbitModel, y, config: MapConfig | None = None):
    """MAP estimate by damped Newton.

    Minimizes -sum log g(y_m (d_m^T x + m_m)) plus the Gaussian prior
    penalty, with the stopping rules of the shared Newton loop (gradient
    tolerance, machine-precision floor).  This is the general-model path:
    each iteration factors the dense N x N Hessian
    D^T diag(omega) D + C_x^{-1}, which the prior makes positive definite;
    a factorization that fails anyway raises LinAlgError.  Rasch data take
    `rasch_map_fit`, which runs the same loop on structured algebra.
    """
    if config is None:
        config = MapConfig()
    D = model.D
    y = _check_pm_one(y, D.shape[0])
    prec = _prior_precision(model)

    def newton_step(omega, grad):
        cf = scipy.linalg.cho_factor(_weighted_gram(D, omega) + prec)
        return -scipy.linalg.cho_solve(cf, grad)

    return _damped_newton(
        model.x_mean, model.x_mean, y, model.m, lambda x: D @ x, lambda r: D.T @ r,
        lambda dx: prec @ dx, newton_step, config,
    ).estimate


def _pcg(apply, precondition, b, max_iterations):
    """Preconditioned conjugate gradients for A s = b from s = 0, A SPD.

    apply(v) = A v and precondition(r) = M r with M SPD.  Returns (s,
    iterations) once the residual norm is at most `_MAP_GRADIENT_TOLERANCE`
    times ||b||, or (None, max_iterations) if max_iterations (>= 1) do not
    get there.
    """
    s = np.zeros_like(b)
    r = b.copy()
    p = z = precondition(r)
    rz = float(r @ z)
    target = _MAP_GRADIENT_TOLERANCE * float(np.linalg.norm(b))
    for k in range(1, max_iterations + 1):
        q = apply(p)
        alpha = rz / float(p @ q)
        s += alpha * p
        r -= alpha * q
        if float(np.linalg.norm(r)) <= target:
            return s, k
        z = precondition(r)
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    return None, max_iterations


def rasch_map_fit(
    design: RaschDesign, data: ResponseSet, config: MapConfig | None = None
) -> MapSolution:
    """MAP estimate of x = [a; -d] from observed Rasch responses.

    Runs the Newton loop of `map_fit` on the Rasch structure, without a
    design matrix: D x, D^T r and the diagonal prior come from
    `rasch._Incidence`.  The Hessian H_k = diag(h) + [[0, B], [B^T, 0]],
    B holding one weight omega_m per response, changes between Newton
    steps only through omega.  The first step factors it by
    `rasch._BipartiteSchur` (a sparse product and one min(U, Q)^2 Cholesky
    factorization; nothing of size (U+Q)^2 or U Q) and solves directly;
    the fit holds that factor, and each later step solves H_k s = -g_k to
    a relative residual of `_MAP_GRADIENT_TOLERANCE` by conjugate gradients
    preconditioned with it (`_pcg`; H_k v = v / sigma2 + D^T(omega D v), no
    matrix is built).  A step whose PCG has not converged within n // 32
    iterations (n the factor's kept-side size; `_KEPT_ROWS_PER_PCG_ITERATION`)
    drops the held factor, factors H_k and solves directly, as does every
    step when n < 32.  On a MovieLens-shaped crossval fold one fit builds
    one factor.  Newton starts at the L-MMSE estimate with the user-item
    coupling dropped (`rasch._decoupled_lmmse_estimate`, O(M) and no
    factorization), which saves about two of the seven steps the prior
    mean 0 takes on a MovieLens-shaped set.  Users and items with no
    responses start at exactly 0.0 and stay there.  The prior also fixes
    the direction [1_U; -1_Q], along which the Rasch likelihood is flat.
    The returned `MapSolution` counts the factors built and the PCG
    iterations run.
    """
    if config is None:
        config = MapConfig()
    inc = _Incidence(design, data)
    inv_var = 1.0 / inc.prior
    held, work = None, {"factorizations": 0, "cg_iterations": 0}

    def newton_step(omega, grad):
        nonlocal held
        budget = 0 if held is None else held.kept.size // _KEPT_ROWS_PER_PCG_ITERATION
        if budget:
            step, iterations = _pcg(
                lambda v: inv_var * v + inc.adjoint(omega * inc.forward(v)),
                held.solve, -grad, budget,
            )
            work["cg_iterations"] += iterations
            if step is not None:
                return step
        held = None  # freed before its replacement is built
        held = _BipartiteSchur(inc.adjoint(omega) + inv_var, inc, omega)
        work["factorizations"] += 1
        return held.solve(-grad)

    sol = _damped_newton(
        _decoupled_lmmse_estimate(design, inc, data.responses), np.zeros_like(inv_var),
        data.responses, 0.0, inc.forward, inc.adjoint,
        lambda dx: inv_var * dx, newton_step, config,
    )
    return replace(sol, **work)


def _truncated_std_normal(lower, u):
    """Standard normal truncated to (lower, inf), via inverse CDF.

    u is uniform on (0, 1].  The far-tail entries (lower > 8) are drawn in
    log space to keep the quantile finite; `_draw_latent` calls this only
    when some entry is that far out.
    """
    tail = lower > 8.0
    out = np.empty_like(lower)
    out[~tail] = -ndtri(u[~tail] * ndtr(-lower[~tail]))
    out[tail] = -ndtri_exp(np.log(u[tail]) + log_ndtr(-lower[tail]))
    return out


def _draw_latent(mu, y, u):
    """z ~ N(mu, 1) truncated to sign(z) = y: z = mu - y ndtri(u ndtr(y mu)).

    u is uniform on (0, 1].  When some y mu < -8 (the far tail), the draw
    takes `_truncated_std_normal`'s log-space branch instead; both forms
    give the same bits where both are finite.
    """
    t = y * mu
    if (t < -8.0).any():
        return mu + y * _truncated_std_normal(-t, u)
    return mu - y * ndtri(u * ndtr(t))


def _gibbs_chains(Y, configs, x0, forward, adjoint, draw):
    """Data-augmentation Gibbs loop (Albert & Chib 1993) over a block of chains.

    Chain t is row t of every (T, .) array: its responses Y[t] (+-1, one per
    observation), its generator default_rng(configs[t].seed) and its state.
    Each step draws, per chain, M uniforms and then N standard normals, so a
    chain sees the same random numbers in any block.  The design enters only
    through forward(X) = D x + m per row, adjoint(Z) = the right-hand side
    r of the x | z draw per row, and draw(R, XI), one draw from
    N(A^{-1} r, A^{-1}) per row given standard normals xi.  All chains start
    at x0 and share burn-in and sample counts; returns the (T, N) post-burn-in
    sample means.
    """
    burn_in, samples = configs[0].burn_in, configs[0].samples
    if any((c.burn_in, c.samples) != (burn_in, samples) for c in configs):
        raise ValueError("chains of one block need equal burn_in and samples")
    rngs = [np.random.default_rng(c.seed) for c in configs]
    u = np.empty(Y.shape)
    xi = np.empty((len(rngs), x0.size))
    X = np.tile(x0, (len(rngs), 1))
    total = np.zeros_like(X)
    for it in range(burn_in + samples):
        for rng, row in zip(rngs, u):
            rng.random(out=row)
        # 1 - u is in (0, 1], which keeps the logs of the far tail finite.
        Z = _draw_latent(forward(X), Y, 1.0 - u)
        R = adjoint(Z)
        for rng, row in zip(rngs, xi):
            rng.standard_normal(out=row)
        X = draw(R, xi)
        if it >= burn_in:
            total += X
    return total / samples


def pm_gibbs(model: GeneralProbitModel, y, config: GibbsConfig | None = None):
    """Posterior mean by data-augmentation Gibbs sampling (probit link).

    Alternates z | x, y (truncated normals on the side given by y) and
    x | z (Gaussian with fixed covariance A^{-1} = (D^T D + C_x^{-1})^{-1},
    drawn through the dense Cholesky factor A = L L^T as
    L^{-T}(L^{-1} r + xi)).  Returns the post-burn-in sample mean; fully
    reproducible from the seed.  Each step draws M uniforms, then N standard
    normals.  This is the general dense sampler and the reference for
    `rasch_pm_gibbs`, which Rasch data take; both run the chain loop
    `_gibbs_chains`, here with one chain.
    """
    if config is None:
        config = GibbsConfig()
    D = model.D
    M = D.shape[0]
    y = _check_pm_one(y, M)

    prec = _prior_precision(model)
    L = scipy.linalg.cholesky(_weighted_gram(D, np.ones(M)) + prec, lower=True)
    prior_pull = prec @ model.x_mean

    def draw(R, XI):
        W = scipy.linalg.solve_triangular(L, R.T, lower=True, check_finite=False)
        return scipy.linalg.solve_triangular(
            L, W + XI.T, lower=True, trans="T", check_finite=False
        ).T

    return _gibbs_chains(
        y[None], [config], model.x_mean,
        lambda X: X @ D.T + model.m,
        lambda Z: (Z - model.m) @ D + prior_pull,
        draw,
    )[0]


def rasch_pm_gibbs(
    design: RaschDesign, data: ResponseSet, config: GibbsConfig | None = None
):
    """Posterior mean of x = [a; -d] from observed Rasch responses, by Gibbs.

    The sampler of `pm_gibbs` on the Rasch structure, without a design
    matrix: D x and D^T z come from `rasch._Incidence`, and the fixed x | z
    precision H = diag(degree + 1/sigma2) + [[0, B], [B^T, 0]] is factored
    once by `rasch._BipartiteSchur`, from which `rasch._BipartiteSampler`
    draws x | z.  Each step draws M uniforms, then U + Q standard normals,
    as `pm_gibbs` does; when the items are the kept side of the factor
    the chain is `pm_gibbs`'s on the dense design, up to rounding.
    Users and items with no responses return exactly the prior mean 0.
    This is one chain of `_rasch_gibbs_block`, which runs many chains on
    one observation pattern together.
    """
    if config is None:
        config = GibbsConfig()
    return _rasch_gibbs_block(data, [(design, data.responses, config)])[0]


def _rasch_gibbs_block(data: ResponseSet, chains):
    """`rasch_pm_gibbs` for a block of chains on data's (user, item) pairs.

    chains holds one (design, responses, config) per chain: the prior, the
    chain's own +-1 responses on data's pairs (data's own responses are not
    used), and its Gibbs settings (its own seed; one burn-in and sample
    count for the block).  The chains run as the rows of (T, M) and
    (T, U + Q) arrays through `_gibbs_chains` and the block forms of
    `rasch._Incidence`'s D x and D^T z, so a step costs a fixed number of
    array operations whatever T; each run of consecutive chains with one
    prior has one incidence and one Schur factor (`rasch._BipartiteSampler`).
    The chains run in consecutive blocks of at most `_GIBBS_BLOCK_LATENTS`
    latents per step (T M), at least one chain each.  Every operation on a
    row is the one a lone chain would run, so row t is bitwise
    `rasch_pm_gibbs(design_t, data with responses_t, config_t)` in any
    block.  Returns the (T, U + Q) posterior means.
    """
    n = max(1, _GIBBS_BLOCK_LATENTS // max(1, len(data)))
    if len(chains) > n:
        return np.concatenate([
            _rasch_gibbs_block(data, chains[s : s + n])
            for s in range(0, len(chains), n)
        ])
    runs = []
    for design, run in groupby(c[0] for c in chains):
        inc = _Incidence(design, data)
        schur = _BipartiteSchur(inc.degree + 1.0 / inc.prior, inc, np.ones(len(data)))
        runs.append((schur, len(list(run))))
    means = _gibbs_chains(
        np.array([_check_pm_one(c[1], len(data)) for c in chains]),
        [c[2] for c in chains], np.zeros_like(inc.prior),
        inc.forward, inc.adjoint, _BipartiteSampler(runs).sample,
    )
    means[:, inc.degree == 0] = 0.0
    return means


def _gh_grid(order, dim):
    """Tensor Gauss-Hermite grid (probabilists'), normalized to N(0, I)."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(order)
    weights = weights / np.sqrt(2.0 * np.pi)
    grids = np.meshgrid(*([nodes] * dim), indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    w = np.ones(len(pts))
    wg = np.meshgrid(*([weights] * dim), indexing="ij")
    for g in wg:
        w *= g.ravel()
    return pts, w


_GH_ORDERS = (40, 80, 160)
_GRID_CHUNK = 65536
_PATTERN_CHUNK = 256


def pm_exact(model: GeneralProbitModel, y):
    """Exact posterior mean for tiny problems (N <= 3, M <= 12).

    Returns (estimate, mse): E[x | y] and the exact PM MSE, both from the
    one enumeration of all 2^M response patterns that `pm_exact_mse` runs;
    the estimate is the row of y's pattern (bit m set where y_m = +1).
    """
    y = _check_pm_one(y, model.num_observations)
    means, mse = _pm_patterns(model)
    return means[int((y > 0) @ (1 << np.arange(y.size)))], mse


def pm_exact_mse(model: GeneralProbitModel):
    """Exact MSE of the posterior-mean estimator by full enumeration.

    Uses MSE = E||x||^2 - sum_y P(y) ||E[x|y]||^2 with E||x||^2 =
    trace(C_x) + ||x_mean||^2, enumerating all 2^M response patterns.
    Requires N <= 3 and M <= 12.
    """
    return _pm_patterns(model)[1]


def _pm_patterns(model):
    """E[x | pattern] for all 2^M response patterns, and the exact PM MSE.

    Pattern p has y_m = +1 where bit m of p is set.  Each P(pattern) and
    E[x | pattern] is a Gauss-Hermite integral over x; the order is doubled
    until the MSE settles, and the means are those at that order (NaN for
    a pattern whose probability underflows to 0).
    """
    D = model.D
    M, N = D.shape
    if N > 3:
        raise ValueError("pm_exact supports at most 3 parameters")
    if M > 12:
        raise ValueError("pm_exact supports at most 12 observations")

    Lx = scipy.linalg.cholesky(model.C_x, lower=True)
    base = D @ model.x_mean + model.m
    G = D @ Lx
    num_patterns = 2**M
    signs01 = np.array(
        [[(p >> m) & 1 for m in range(M)] for p in range(num_patterns)],
        dtype=np.float64,
    )

    prev = None
    for order in _GH_ORDERS:
        pts, w = _gh_grid(order, N)
        Z = np.zeros(num_patterns)
        M1 = np.zeros((num_patterns, N))
        for glo in range(0, len(pts), _GRID_CHUNK):
            pts_c = pts[glo : glo + _GRID_CHUNK]
            w_c = w[glo : glo + _GRID_CHUNK]
            T = base[None, :] + pts_c @ G.T
            A = log_ndtr(T)
            B = log_ndtr(-T)
            AB = A - B
            row_b = B.sum(axis=1)
            for plo in range(0, num_patterns, _PATTERN_CHUNK):
                S = signs01[plo : plo + _PATTERN_CHUNK]
                post = np.exp(AB @ S.T + row_b[:, None]) * w_c[:, None]
                Z[plo : plo + len(S)] += post.sum(axis=0)
                M1[plo : plo + len(S)] += post.T @ pts_c
        total_prob = float(Z.sum())
        if abs(total_prob - 1.0) > 1e-6:
            raise RuntimeError(
                f"pattern probabilities sum to {total_prob}, quadrature too coarse"
            )
        keep = Z > 0
        means = np.full((num_patterns, N), np.nan)
        means[keep] = model.x_mean[None, :] + (M1[keep] / Z[keep, None]) @ Lx.T
        mse = float(
            np.trace(model.C_x)
            + model.x_mean @ model.x_mean
            - Z[keep] @ np.sum(means[keep] ** 2, axis=1)
        )
        if prev is not None and abs(mse - prev) <= 1e-8 * (1.0 + abs(mse)):
            break
        prev = mse
    return means, mse


def probit_information(t):
    """Per-observation probit Fisher information lambda(t) = phi(t)^2 / (Phi(t) Phi(-t)).

    Evaluated in the log domain; lambda(0) = 2/pi.
    """
    t = np.asarray(t, dtype=np.float64)
    log_phi = -0.5 * t * t - _LOG_SQRT_2PI
    return np.exp(2.0 * log_phi - log_ndtr(t) - log_ndtr(-t))


def fisher_rasch_ability_bound(U, Q, sigma2_x) -> float:
    """Bayesian Fisher bound on the ability MSE for the full design, at the prior mean.

    The information matrix at x = 0 is (2/pi) D^T D + I/sigma2_x; its ability
    block inverts in closed form through the Schur complement of the
    difficulty block, so the bound costs O(1) at any size.  That complement,
    alpha - lambda^2 U Q / beta, is taken as its cancellation-free form
    (lambda (U + Q) + 1/sigma2_x) / (sigma2_x beta), exact at any prior.
    """
    U, Q = _as_count(U, "U"), _as_count(Q, "Q")
    sigma2_x = _as_variance(sigma2_x, "sigma2_x")
    lam0 = 2.0 / np.pi
    alpha = lam0 * Q + 1.0 / sigma2_x
    return float(
        1.0 / alpha
        + (lam0 * lam0 * Q / alpha) * (sigma2_x / (lam0 * (U + Q) + 1.0 / sigma2_x))
    )


def fisher_known_difficulty_bound(d, sigma2_x) -> float:
    """Bayesian Fisher bound on one user's ability MSE against known
    difficulties d, at the prior mean a = 0.

    The information there is sum_i lambda(-d_i) + 1/sigma2_x, with lambda
    the probit information of each response.
    """
    sigma2_x = _as_variance(sigma2_x, "sigma2_x")
    return float(1.0 / (probit_information(-d).sum() + 1.0 / sigma2_x))


def fisher_lower_bound(model: GeneralProbitModel, evaluation_point) -> np.ndarray:
    """Bayesian Fisher-information lower bound on per-component MSE.

    Forms I = D^T diag(lambda) D + C_x^{-1} with the probit item
    information lambda(t) = phi(t)^2 / (Phi(t) Phi(-t)) at the evaluation
    point and returns the diagonal of its inverse.  The prior precision
    makes I positive definite for any design.
    """
    theta = np.asarray(evaluation_point, dtype=np.float64).ravel()
    N = model.D.shape[1]
    if theta.shape != (N,):
        raise ValueError(f"evaluation_point has shape {theta.shape}, expected ({N},)")
    t = np.asarray(model.D @ theta).ravel() + model.m
    info = _weighted_gram(model.D, probit_information(t)) + _prior_precision(model)
    cf = scipy.linalg.cho_factor(info)
    return np.diag(scipy.linalg.cho_solve(cf, np.eye(N))).copy()
