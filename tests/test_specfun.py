"""Normal special functions: frozen values, identities, and oracle sweeps."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rasch_lmmse import specfun
from rasch_lmmse.specfun import (
    binorm_cdf,
    norm_cdf,
    norm_pdf,
)

from oracles import (
    BINORM_1_M1_03,
    PHI2_EXTREME_REFERENCES,
    phi2_quad,
)


def test_univariate_frozen_values():
    assert norm_pdf(0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-16)
    assert norm_cdf(0.0) == 0.5
    assert norm_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)


def test_binorm_frozen_value():
    assert binorm_cdf(1.0, -1.0, 0.3) == pytest.approx(BINORM_1_M1_03, abs=1e-15)


def test_binorm_extreme_correlations():
    for (x, y, rho), ref in PHI2_EXTREME_REFERENCES.items():
        got = binorm_cdf(x, y, rho)
        assert got == pytest.approx(ref, abs=5e-15), (x, y, rho)


def test_binorm_independence_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.normal(scale=2, size=2)
        assert binorm_cdf(x, y, 0.0) == pytest.approx(
            norm_cdf(x) * norm_cdf(y), abs=1e-15
        )


def test_binorm_degenerate_limits():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, y = rng.normal(scale=2, size=2)
        assert binorm_cdf(x, y, 1.0) == pytest.approx(
            norm_cdf(min(x, y)), abs=1e-15
        )
        assert binorm_cdf(x, y, -1.0) == pytest.approx(
            max(0.0, norm_cdf(x) + norm_cdf(y) - 1.0), abs=1e-15
        )


def test_binorm_orthant_arcsine():
    for rho in (-0.99, -0.5, -0.1, 0.2, 0.7, 0.999):
        assert binorm_cdf(0.0, 0.0, rho) == pytest.approx(
            0.25 + np.arcsin(rho) / (2 * np.pi), abs=1e-15
        )


def test_binorm_symmetry_and_reflection():
    rng = np.random.default_rng(2)
    for _ in range(100):
        x, y = rng.normal(scale=1.5, size=2)
        rho = rng.uniform(-0.999, 0.999)
        assert binorm_cdf(x, y, rho) == pytest.approx(
            binorm_cdf(y, x, rho), abs=1e-15
        )
        # P(X<=x, Y<=y) + P(X<=x, Y>y) = Phi(x); the second term is the CDF
        # of (X, -Y), which has correlation -rho.
        assert binorm_cdf(x, y, rho) + binorm_cdf(x, -y, -rho) == pytest.approx(
            norm_cdf(x), abs=2e-15
        )


def test_binorm_infinite_sentinels():
    assert binorm_cdf(np.inf, 0.7, 0.4) == pytest.approx(norm_cdf(0.7), abs=1e-16)
    assert binorm_cdf(0.7, np.inf, -0.4) == pytest.approx(norm_cdf(0.7), abs=1e-16)
    assert binorm_cdf(np.inf, np.inf, 0.9) == 1.0
    assert binorm_cdf(-np.inf, 1.0, 0.2) == 0.0
    assert binorm_cdf(1.0, -np.inf, 0.2) == 0.0


def test_binorm_rho_validation():
    with pytest.raises(ValueError):
        binorm_cdf(0.0, 0.0, 1.2)
    with pytest.raises(ValueError):
        binorm_cdf(0.0, 0.0, np.nan)


def test_binorm_vectorized():
    x = np.array([0.3, -1.2, 2.0])
    y = np.array([-0.5, 0.1, 0.7])
    rho = np.array([0.2, -0.8, 0.95])
    out = binorm_cdf(x, y, rho)
    assert out.shape == (3,)
    for k in range(3):
        assert out[k] == pytest.approx(binorm_cdf(x[k], y[k], rho[k]), abs=1e-16)


def mixed_binorm_inputs(n, seed):
    """n pairs mixing +-inf sentinels, |rho| <= 0.925, |rho| > 0.925, rho = +-1."""
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=2.0, size=n)
    y = rng.normal(scale=2.0, size=n)
    rho = rng.uniform(-0.925, 0.925, size=n)
    near = rng.random(n) < 0.4
    rho[near] = rng.choice([-1.0, 1.0], near.sum()) * (
        1.0 - 10.0 ** rng.uniform(-4.0, np.log10(0.075), near.sum())
    )
    rho[rng.random(n) < 0.05] = 1.0
    rho[rng.random(n) < 0.05] = -1.0
    for arr, frac in ((x, 0.03), (y, 0.03)):
        arr[rng.random(n) < frac] = np.inf
        arr[rng.random(n) < frac] = -np.inf
    return x, y, rho


def test_binorm_blocks_do_not_change_values():
    # About three blocks plus 7 pairs in one call, against the same pairs
    # cut into pieces that fall on other block boundaries, and one pair at
    # a time: every value must be bitwise equal.
    n = 3 * specfun._BLOCK + 7
    x, y, rho = mixed_binorm_inputs(n, 11)
    whole = binorm_cdf(x, y, rho)
    cuts = [0, 1, 8, 1000, specfun._BLOCK + 3, 2 * specfun._BLOCK + 500, n]
    pieces = np.concatenate([
        binorm_cdf(x[a:b], y[a:b], rho[a:b]) for a, b in zip(cuts, cuts[1:])
    ])
    assert np.array_equal(whole, pieces)
    for k in range(0, n, 409):
        assert whole[k] == binorm_cdf(x[k], y[k], rho[k])
    assert np.isin(rho, [-1.0, 1.0]).any() and np.isinf(x).any()
    assert ((np.abs(rho) > 0.925) & (np.abs(rho) < 1.0)).any()

    # Pairs that share one correlation: each value must equal the same pair
    # evaluated among pairs of other correlations (interleaved, so no block
    # there has one rho).
    m = 2 * specfun._BLOCK + 5
    for seed, r in enumerate((0.3, -0.6, 0.96, -0.97, 1.0, -1.0)):
        xo, yo, _ = mixed_binorm_inputs(m, 20 + seed)
        one = binorm_cdf(xo, yo, r)
        xm, ym, rm = np.empty(2 * m), np.empty(2 * m), np.empty(2 * m)
        xm[0::2], ym[0::2], rm[0::2] = xo, yo, r
        xm[1::2], ym[1::2], rm[1::2] = x[:m], y[:m], rho[:m]
        assert np.array_equal(one, binorm_cdf(xm, ym, rm)[0::2]), r
        assert np.isinf(xo).any() and np.isinf(yo).any()

    # Mixed correlations whose first and last agree, in both quadrature
    # branches, against one pair at a time.
    xs, ys, rs = mixed_binorm_inputs(300, 13)
    xs[[0, 1, -2, -1]] = ys[[0, 1, -2, -1]] = 0.5
    rs[[0, 1, -2, -1]] = [0.3, 0.96, 0.96, 0.3]
    singles = [binorm_cdf(a, b, c) for a, b, c in zip(xs, ys, rs)]
    assert np.array_equal(binorm_cdf(xs, ys, rs), singles)


def test_binorm_memory_is_bounded():
    # One unblocked pass over these 200k pairs peaked near 1 GB; blocks of
    # specfun._BLOCK pairs keep the peak near the inputs and outputs.
    x, y, rho = mixed_binorm_inputs(200_000, 12)
    tracemalloc.start()
    binorm_cdf(x, y, rho)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 40e6


def test_binorm_against_quadrature_sweep():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        x, y = rng.normal(scale=2.0, size=2)
        if rng.random() < 0.5:
            rho = rng.uniform(-0.999, 0.999)
        else:
            # push into the near-unit Taylor branch
            rho = float(rng.choice([-1, 1])) * (1 - 10 ** rng.uniform(-3.0, -0.5))
        ref = phi2_quad(x, y, rho)
        worst = max(worst, abs(binorm_cdf(x, y, rho) - ref))
    assert worst < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(-6, 6),
    y=st.floats(-6, 6),
    rho=st.floats(-0.9999, 0.9999),
)
def test_binorm_bounds_property(x, y, rho):
    v = binorm_cdf(x, y, rho)
    upper = min(norm_cdf(x), norm_cdf(y))
    lower = max(0.0, norm_cdf(x) + norm_cdf(y) - 1.0)
    assert lower - 1e-14 <= v <= upper + 1e-14


@settings(max_examples=100, deadline=None)
@given(
    x=st.floats(-4, 4),
    dx=st.floats(0.01, 2.0),
    y=st.floats(-4, 4),
    rho=st.floats(-0.999, 0.999),
)
def test_binorm_monotone_in_x(x, dx, y, rho):
    assert binorm_cdf(x + dx, y, rho) >= binorm_cdf(x, y, rho) - 1e-14
