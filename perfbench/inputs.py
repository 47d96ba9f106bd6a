"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed.  The program under
test only ever sees the files these functions write; the true parameters
stay with the benchmark for its accuracy metric.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtri

# MovieLens-100k shape (Harper & Konstan 2015, ACM TiiS 5:19): 943 users,
# 1682 items, 100,000 ratings, at least 20 ratings per user.  In u.data the
# most active user (id 405) has 737 ratings and the most rated item (id 50)
# has 583; the generator pins the first and is tuned to the second.
ML_USERS = 943
ML_ITEMS = 1682
ML_RESPONSES = 100_000
ML_MIN_PER_USER = 20
ML_MAX_PER_USER = 737
ML_MAX_PER_ITEM = 583
# Zipf-like item popularity w_r = (r + offset)^-exponent over popularity
# rank r.  With exponent 1 the offset sets how much the top item draws:
# 24 gives a most rated item of 565-589 responses over seeds 1-5.
ML_ZIPF_EXPONENT = 1.0
ML_ZIPF_OFFSET = 24.0
# Prior variance of abilities and difficulties; `fit` uses --sigma2 1.0.
ML_SIGMA2 = 1.0


def _user_degrees(num_users, total, min_per_user, max_per_user):
    """Lognormal activity profile with a fixed total, minimum and maximum.

    Degrees are lognormal quantiles rather than draws, so the sum of squared
    degrees (and with it the number of nonzeros of C_y, which sets the
    solver's cost) is the same for every seed; the seed decides only which
    user gets which degree and which items each user answers.  The most
    active user gets `max_per_user` and the spread sigma is solved so the
    degrees, floored at `min_per_user`, sum to `total`.
    """
    z = ndtri((np.arange(num_users) + 0.5) / num_users)

    def profile(sigma):
        return np.maximum(min_per_user, max_per_user * np.exp(sigma * (z - z[-1])))

    # The sum falls monotonically as sigma grows with the top degree fixed.
    exact = profile(brentq(lambda s: profile(s).sum() - total, 1e-3, 10.0))
    deg = np.floor(exact).astype(np.int64)
    # Hand the rounding remainder to the largest fractional parts.
    deg[np.argsort(deg - exact, kind="stable")[: total - int(deg.sum())]] += 1
    return deg


def movielens_like(seed):
    """MovieLens-100k-shaped Rasch response set.

    Returns a dict with the dense triplets (users, items, responses), the
    original IDs, and the true abilities `a` and difficulties `d`.
    Responses follow the probit Rasch model y = sign(a_u - d_i + w).
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 100)))
    U, Q = ML_USERS, ML_ITEMS
    deg = rng.permutation(
        _user_degrees(U, ML_RESPONSES, ML_MIN_PER_USER, ML_MAX_PER_USER)
    )
    popularity = rng.permutation(
        (np.arange(Q) + ML_ZIPF_OFFSET) ** -ML_ZIPF_EXPONENT
    )
    # Weighted sampling without replacement per user: the deg[u] largest
    # Gumbel-perturbed log weights (Gumbel top-k).
    keys = np.log(popularity)[None, :] + rng.gumbel(size=(U, Q))
    ranks = np.argsort(np.argsort(-keys, axis=1), axis=1)
    users, items = np.nonzero(ranks < deg[:, None])

    a = rng.normal(scale=np.sqrt(ML_SIGMA2), size=U)
    d = rng.normal(scale=np.sqrt(ML_SIGMA2), size=Q)
    w = rng.standard_normal(users.size)
    responses = np.where(a[users] - d[items] + w >= 0, 1, -1)

    # Rows go out in random order, so the CLI's first-appearance ID order
    # differs from the generator's index order.
    order = rng.permutation(users.size)
    user_ids = rng.permutation(U) + 1
    item_ids = rng.permutation(Q) + 1
    return {
        "users": users[order],
        "items": items[order],
        "responses": responses[order],
        "user_ids": user_ids,
        "item_ids": item_ids,
        "a": a,
        "d": d,
    }


def skewed_small(seed, num_users=9, num_items=12):
    """Small response set with strongly skewed user and item degrees.

    Used to pin the `fit` command against the dense exact L-MMSE path.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 200)))
    p_user = np.linspace(0.9, 0.1, num_users)[:, None]
    p_item = np.linspace(1.0, 0.2, num_items)[None, :]
    mask = rng.random((num_users, num_items)) < p_user * p_item
    users, items = np.nonzero(mask)
    a = rng.standard_normal(num_users)
    d = rng.standard_normal(num_items)
    responses = np.where(
        a[users] - d[items] + rng.standard_normal(users.size) >= 0, 1, -1
    )
    return {
        "users": users,
        "items": items,
        "responses": responses,
        "user_ids": np.arange(num_users) + 1,
        "item_ids": np.arange(num_items) + 1,
    }


def known_difficulties(seed, num_items):
    """Known item difficulties d ~ N(0, 1) for `analyze --difficulty-file`."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 300, num_items)))
    return rng.standard_normal(num_items)


def shape_summary(data):
    """Response count, max degrees and sum of squared degrees.

    The maximum degrees of the real MovieLens-100k ride along for
    comparison.

    nnz(C_y) = sum_u deg_u^2 + sum_i deg_i^2 - M for a Rasch design: two
    responses correlate exactly when they share a user or an item.
    """
    du = np.bincount(data["users"], minlength=len(data["user_ids"]))
    di = np.bincount(data["items"], minlength=len(data["item_ids"]))
    m = int(data["users"].size)
    sq_u, sq_i = int(np.sum(du**2)), int(np.sum(di**2))
    return {
        "responses": m,
        "users_with_data": int(np.count_nonzero(du)),
        "items_with_data": int(np.count_nonzero(di)),
        "max_user_degree": int(du.max()),
        "min_user_degree": int(du.min()),
        "max_item_degree": int(di.max()),
        "ml100k_max_user_degree": ML_MAX_PER_USER,
        "ml100k_max_item_degree": ML_MAX_PER_ITEM,
        "sum_user_degree_sq": sq_u,
        "sum_item_degree_sq": sq_i,
        "cy_nnz": sq_u + sq_i - m,
    }


def write_triplets(path, data):
    """Write the headered `user,item,response` CSV the CLI reads."""
    uid = data["user_ids"][data["users"]]
    iid = data["item_ids"][data["items"]]
    lines = ["user,item,response"]
    lines += [f"{u},{i},{y}" for u, i, y in zip(uid.tolist(), iid.tolist(),
                                                  data["responses"].tolist())]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def write_difficulties(path, d):
    with open(path, "w") as handle:
        handle.write("\n".join(repr(float(v)) for v in d) + "\n")
