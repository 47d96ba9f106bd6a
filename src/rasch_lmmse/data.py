"""Response-data ingestion: triplet CSV files and MovieLens-format ratings.

Observations are (user, item, response) with responses in {-1, +1}.
Original IDs of arbitrary string form are densified to 0-based indices in
first-appearance order, which makes loading deterministic.
"""

from __future__ import annotations

import csv
import logging
import math
import numbers
import operator
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)


# The checks of every number a caller passes in, here because every other
# module imports this one: a bool is not a number (JSON's true is not 1),
# nor is a numeric string.


def _as_int(value, name):
    """`value` as an exact int; TypeError for a bool or a non-integer."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _as_float(value, name):
    """`value` as a float; TypeError for a bool or a non-number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def _as_count(value, name, zero_ok=False):
    """`value` as an int (`_as_int`) of at least 1, or 0 where `zero_ok`;
    ValueError otherwise."""
    value = _as_int(value, name)
    if value < (0 if zero_ok else 1):
        sign = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"{name} must be {sign}, got {value}")
    return value


def _as_variance(value, name, zero_ok=False):
    """`value` as a float (`_as_float`) that is finite and positive, or 0
    where `zero_ok`; ValueError otherwise."""
    value = _as_float(value, name)
    if not (math.isfinite(value) and (value > 0 or (zero_ok and value == 0))):
        sign = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"{name} must be finite and {sign}, got {value}")
    return value


class _DuplicatePair(ValueError):
    """A repeated (user, item) pair; `row` is the first row that repeats one."""

    def __init__(self, message, row):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class ResponseSet:
    """Sparse set of one-bit responses with dense 0-based index maps.

    users, items, responses are parallel arrays; user_ids / item_ids map a
    dense index back to the original ID (first-appearance order).
    num_users and num_items are ints (`_as_count`), 0 allowed.
    """

    users: np.ndarray
    items: np.ndarray
    responses: np.ndarray
    num_users: int
    num_items: int
    user_ids: tuple = ()
    item_ids: tuple = ()

    def __post_init__(self):
        for name in ("num_users", "num_items"):
            count = _as_count(getattr(self, name), name, zero_ok=True)
            object.__setattr__(self, name, count)
        users = np.asarray(self.users, dtype=np.int64).ravel()
        items = np.asarray(self.items, dtype=np.int64).ravel()
        responses = np.asarray(self.responses, dtype=np.float64).ravel()
        user_ids, item_ids = tuple(self.user_ids), tuple(self.item_ids)
        n = len(users)
        if len(items) != n or len(responses) != n:
            raise ValueError("users, items, responses must have equal length")
        if n:
            if users.min() < 0 or users.max() >= self.num_users:
                raise ValueError("user index out of range")
            if items.min() < 0 or items.max() >= self.num_items:
                raise ValueError("item index out of range")
            if not np.all(np.abs(responses) == 1.0):
                raise ValueError("responses must be +1 or -1")
            _, first = np.unique(users * self.num_items + items, return_index=True)
            if len(first) != n:
                repeat = np.ones(n, dtype=bool)
                repeat[first] = False
                k = int(np.argmax(repeat))
                u, i = users[k], items[k]
                where = f"dense indices ({u}, {i})"
                if u < len(user_ids) and i < len(item_ids):
                    where += f", IDs (user={user_ids[u]!r}, item={item_ids[i]!r})"
                raise _DuplicatePair(f"duplicate (user, item) pair at {where}", k)
        object.__setattr__(self, "users", users)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "responses", responses)
        object.__setattr__(self, "user_ids", user_ids)
        object.__setattr__(self, "item_ids", item_ids)

    def __len__(self):
        return len(self.users)

# Response token -> +1/-1 per label convention; `save_triplets` writes the
# first token listed for each sign.
_LABELS = {
    "pm_one": {"1": 1.0, "-1": -1.0, "+1": 1.0},
    "zero_one": {"1": 1.0, "0": -1.0},
}


def _label_table(label_convention):
    try:
        return _LABELS[label_convention]
    except KeyError:
        raise ValueError(f"unknown label_convention {label_convention!r}") from None


def _densify(ids):
    """Dense 0-based indices of `ids` and the distinct IDs, in first-appearance order."""
    index = {key: k for k, key in enumerate(dict.fromkeys(ids))}
    dense = np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids))
    return dense, tuple(index)


def _from_ids(uids, iids, responses):
    """A ResponseSet of rows (uids[k], iids[k], responses[k]), IDs densified."""
    users, user_ids = _densify(uids)
    items, item_ids = _densify(iids)
    return ResponseSet(
        users, items, responses, num_users=len(user_ids), num_items=len(item_ids),
        user_ids=user_ids, item_ids=item_ids,
    )


def load_triplets(path, label_convention: str = "pm_one") -> ResponseSet:
    """Read a headered CSV `user,item,response` into a ResponseSet.

    With label_convention "zero_one", 0 maps to -1 and 1 to +1.  IDs are
    arbitrary strings, densified in first-appearance order.  Malformed rows
    and duplicate pairs raise ValueError naming the line; rows are checked
    in file order before any pair is compared.  A leading UTF-8 byte-order
    mark, as Excel's "CSV UTF-8" writes, is skipped.  While it reads, the
    loader holds one string per distinct user ID and item ID (each row's
    token maps to the first instance read) and the rows' line numbers in
    a typed array, so no row keeps Python objects of its own.
    """
    labels = _label_table(label_convention)
    uids, iids, responses, lines = [], [], [], array("q")
    intern = {}.setdefault
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected header user,item,response")
        if [h.strip() for h in header] != ["user", "item", "response"]:
            raise ValueError(
                f"{path}, line 1: expected header user,item,response, got {header!r}"
            )
        # Errors name the physical line a record starts on: a quoted field
        # may hold line breaks, so records and lines are counted apart.
        start = reader.line_num + 1
        for row in reader:
            line_no, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(
                    f"{path}, line {line_no}: expected 3 fields, got {len(row)}"
                )
            token = row[2].strip()
            value = labels.get(token)
            if value is None:
                raise ValueError(
                    f"{path}, line {line_no}: unknown response value {token!r} "
                    f"for convention {label_convention!r}"
                )
            uid, iid = row[0].strip(), row[1].strip()
            uids.append(intern(uid, uid))
            iids.append(intern(iid, iid))
            responses.append(value)
            lines.append(line_no)
    try:
        return _from_ids(uids, iids, responses)
    except _DuplicatePair as err:
        k = err.row
        raise ValueError(
            f"{path}, line {lines[k]}: duplicate pair "
            f"(user={uids[k]!r}, item={iids[k]!r})"
        ) from None


def save_triplets(data: ResponseSet, path, label_convention: str = "pm_one"):
    """Write a ResponseSet as a headered CSV (round-trips with load_triplets)."""
    labels = _label_table(label_convention)
    token = {value: tok for tok, value in reversed(labels.items())}
    user_ids = data.user_ids or range(data.num_users)
    item_ids = data.item_ids or range(data.num_items)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", "item", "response"])
        writer.writerows(
            (user_ids[u], item_ids[i], token[r])
            for u, i, r in zip(
                data.users.tolist(), data.items.tolist(), data.responses.tolist()
            )
        )


def load_movielens(path) -> list:
    """Read a MovieLens-format ratings file (tab-separated user, item, rating, timestamp).

    Returns a list of (user_id, item_id, rating) with integer ratings
    validated to lie in 1..5.  The canonical ml-100k u.data file yields
    100,000 rows over 943 users and 1682 items.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(
                    f"{path}, line {line_no}: expected 4 tab-separated fields, "
                    f"got {len(parts)}"
                )
            try:
                uid, iid, rating = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise ValueError(f"{path}, line {line_no}: non-integer field")
            if not 1 <= rating <= 5:
                raise ValueError(
                    f"{path}, line {line_no}: rating {rating} outside 1..5"
                )
            rows.append((uid, iid, rating))
    return rows


def binarize_ratings(ratings) -> ResponseSet:
    """Binarize ratings against the global mean: +1 above, -1 below, ties dropped.

    The mean is taken over all input rows; rows with rating exactly equal
    to the mean are dropped (warned, with the count).  Indices are
    densified over the retained rows only.
    """
    if not ratings:
        raise ValueError("ratings list is empty")
    values = np.array([r[2] for r in ratings], dtype=np.float64)
    mu = float(values.mean())
    keep = values != mu
    dropped = len(ratings) - int(np.count_nonzero(keep))
    kept = [r for r, k in zip(ratings, keep) if k]
    if dropped:
        warnings.warn(
            f"dropped {dropped} rating(s) exactly equal to the global mean {mu:g}",
            stacklevel=2,
        )
    out = _from_ids(
        [r[0] for r in kept], [r[1] for r in kept], np.where(values[keep] > mu, 1.0, -1.0)
    )
    logger.info(
        "binarized %d ratings at mean %.4f: retained %d (+1: %d, -1: %d), "
        "users %d, items %d",
        len(ratings), mu, len(out),
        int(np.sum(out.responses > 0)), int(np.sum(out.responses < 0)),
        out.num_users, out.num_items,
    )
    return out
