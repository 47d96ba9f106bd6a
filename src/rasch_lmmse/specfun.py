"""Normal-distribution special functions.

The univariate CDF is scipy.special.ndtr.  The bivariate CDF is a
vectorized port of the classic Gauss-Legendre scheme (Genz 2004) with a
separate expansion for |rho| > 0.925; absolute error is below 1e-12
everywhere on [-1, 1] (measured ~1e-16).  It runs in fixed-size blocks of
pairs, so memory stays bounded at any size.
"""

from __future__ import annotations

import numpy as np
from scipy import special

__all__ = ["norm_pdf", "norm_cdf", "binorm_cdf"]

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# 20-point Gauss-Legendre rule on (-1, 1); same rule as the published
# tables for the bivariate CDF scheme, to machine precision.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)

_BLOCK = 4096  # finite pairs per block, each holding a few (_BLOCK, 20) arrays


def norm_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def norm_cdf(x):
    """Standard normal CDF."""
    return special.ndtr(np.asarray(x, dtype=float))


def binorm_cdf(x, y, rho):
    """P(X <= x, Y <= y) for standard bivariate normal variables.

    x and y broadcast together and may contain +-inf sentinels; rho may be a
    float or an array and must lie in the closed interval [-1, 1], where the
    endpoints use the exact degenerate limits.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(~np.isfinite(rho)) or np.any(np.abs(rho) > 1.0):
        raise ValueError("rho must be finite with |rho| <= 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = _bvn_upper(-x, -y, rho)
    if out.ndim == 0:
        return float(out)
    return out


def _bvn_upper(dh, dk, r):
    """P(X > dh, Y > dk); the CDF follows by negating both bounds."""
    dh, dk, r = np.broadcast_arrays(dh, dk, r)
    shape = dh.shape
    h = dh.ravel().astype(float)
    k = dk.ravel().astype(float)
    rho = r.ravel().astype(float)
    res = np.empty(h.shape, dtype=float)

    inf_mask = np.isinf(h) | np.isinf(k)
    if np.any(inf_mask):
        hi_, ki_ = h[inf_mask], k[inf_mask]
        v = np.zeros(hi_.shape)
        v[(hi_ == -np.inf) & (ki_ == -np.inf)] = 1.0
        m = (hi_ == -np.inf) & np.isfinite(ki_)
        v[m] = special.ndtr(-ki_[m])
        m = (ki_ == -np.inf) & np.isfinite(hi_)
        v[m] = special.ndtr(-hi_[m])
        # any +inf lower bound leaves zero probability, already set
        res[inf_mask] = v

    fin = np.flatnonzero(~inf_mask)
    for idx in (fin[i : i + _BLOCK] for i in range(0, fin.size, _BLOCK)):
        res[idx] = _bvn_upper_finite(h[idx], k[idx], rho[idx])
    return res.reshape(shape)


def _bvn_upper_finite(h, k, rho):
    val = np.empty(h.shape, dtype=float)

    unit = np.abs(rho) >= 1.0
    if np.any(unit):
        hu, ku, ru = h[unit], k[unit], rho[unit]
        val[unit] = np.where(
            ru > 0,
            special.ndtr(-np.maximum(hu, ku)),
            np.maximum(0.0, 1.0 - special.ndtr(hu) - special.ndtr(ku)),
        )

    mod = (~unit) & (np.abs(rho) <= 0.925)
    if np.any(mod):
        val[mod] = _bvn_moderate(h[mod], k[mod], rho[mod])

    big = (~unit) & (np.abs(rho) > 0.925)
    if np.any(big):
        val[big] = _bvn_near_unit(h[big], k[big], rho[big])
    return val


def _bvn_moderate(h, k, rho):
    # integrate the density over theta in (0, asin rho); exact anchor at rho=0
    hk = h * k
    hs = (h * h + k * k) / 2.0
    asr = np.arcsin(rho) / 2.0
    sn = np.sin(asr[:, None] * (1.0 + _GL_NODES[None, :]))
    quad = np.sum(
        _GL_WEIGHTS[None, :]
        * np.exp((sn * hk[:, None] - hs[:, None]) / (1.0 - sn * sn)),
        axis=1,
    )
    return quad * asr / (2.0 * np.pi) + special.ndtr(-h) * special.ndtr(-k)


def _bvn_near_unit(h, k, rho):
    # Taylor expansion about |rho| = 1 plus a correction integral; negative
    # rho is reduced to the positive case through the complement in k
    kk = k.copy()
    neg = rho < 0
    kk[neg] = -kk[neg]
    hk = h * kk
    bvn = np.zeros(h.shape)

    ass = (1.0 - rho) * (1.0 + rho)
    a = np.sqrt(ass)
    bs = (h - kk) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr = -(bs / ass + hk) / 2.0
    m = asr > -100.0
    bvn[m] = (
        a[m]
        * np.exp(asr[m])
        * (1.0 - c[m] * (bs[m] - ass[m]) * (1.0 - d[m] * bs[m] / 5.0) / 3.0
           + c[m] * d[m] * ass[m] ** 2 / 5.0)
    )
    m = -hk < 100.0
    b = np.sqrt(bs)
    sp = _SQRT_2PI * special.ndtr(-b / a)
    bvn[m] -= np.exp(-hk[m] / 2.0) * sp[m] * b[m] * (
        1.0 - c[m] * bs[m] * (1.0 - d[m] * bs[m] / 5.0) / 3.0
    )

    a2 = a / 2.0
    xs = (a2[:, None] * (1.0 + _GL_NODES[None, :])) ** 2
    rs = np.sqrt(1.0 - xs)
    asr_q = -(bs[:, None] / xs + hk[:, None]) / 2.0
    sp_q = 1.0 + c[:, None] * xs * (1.0 + d[:, None] * xs)
    ep_q = np.exp(-hk[:, None] * xs / (2.0 * (1.0 + rs) ** 2)) / rs
    with np.errstate(over="ignore", invalid="ignore"):
        term = np.where(asr_q > -100.0, np.exp(asr_q) * (ep_q - sp_q), 0.0)
    bvn += a2 * np.sum(_GL_WEIGHTS[None, :] * term, axis=1)
    bvn = -bvn / (2.0 * np.pi)

    out = np.empty(h.shape)
    pos = ~neg
    out[pos] = bvn[pos] + special.ndtr(-np.maximum(h[pos], kk[pos]))
    if np.any(neg):
        hn, kn = h[neg], kk[neg]
        # Phi(-h) - Phi(-kn), evaluated on the smaller tail side
        lo = np.where(hn < 0, special.ndtr(kn) - special.ndtr(hn),
                      special.ndtr(-hn) - special.ndtr(-kn))
        out[neg] = np.maximum(0.0, lo) - bvn[neg]
    return out
