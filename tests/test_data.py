"""Triplet and ratings I/O: parsing, validation, binarization."""

import csv
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rasch_lmmse.data import (
    ResponseSet,
    binarize_ratings,
    load_movielens,
    load_triplets,
    save_triplets,
)


def make_set():
    return ResponseSet(
        users=np.array([0, 0, 1, 2]),
        items=np.array([0, 1, 1, 0]),
        responses=np.array([1.0, -1.0, 1.0, -1.0]),
        num_users=3,
        num_items=2,
        user_ids=("alice", "bob", "carol"),
        item_ids=("q1", "q2"),
    )


def test_response_set_basics():
    data = make_set()
    assert len(data) == 4
    assert data.user_ids == ("alice", "bob", "carol")
    assert data.item_ids == ("q1", "q2")


def test_response_set_validation():
    with pytest.raises(ValueError):
        ResponseSet(
            users=np.array([0]), items=np.array([0]),
            responses=np.array([0.5]), num_users=1, num_items=1,
        )
    with pytest.raises(ValueError):
        ResponseSet(
            users=np.array([0, 1]), items=np.array([0]),
            responses=np.array([1.0, 1.0]), num_users=2, num_items=1,
        )
    with pytest.raises(ValueError):
        ResponseSet(
            users=np.array([3]), items=np.array([0]),
            responses=np.array([1.0]), num_users=2, num_items=1,
        )
    with pytest.raises(ValueError):  # duplicate pair
        ResponseSet(
            users=np.array([1, 1]), items=np.array([0, 0]),
            responses=np.array([1.0, -1.0]), num_users=2, num_items=1,
        )


@pytest.mark.parametrize("num_users, num_items, error, name", [
    (2.5, 1, TypeError, "num_users"), (2, True, TypeError, "num_items"),
    ("2", 1, TypeError, "num_users"), (np.float64(2.0), 1, TypeError, "num_users"),
    (-3, 0, ValueError, "num_users"), (2, -1, ValueError, "num_items"),
])
def test_response_set_counts_are_nonnegative_ints(num_users, num_items, error, name):
    with pytest.raises(error, match=name):
        ResponseSet(users=[], items=[], responses=[],
                    num_users=num_users, num_items=num_items)
    empty = ResponseSet(users=[], items=[], responses=[],
                        num_users=np.int64(0), num_items=0)
    assert type(empty.num_users) is int and empty.num_users == 0


def test_response_set_duplicate_names_original_ids():
    with pytest.raises(ValueError) as err:
        ResponseSet(
            users=[0, 1, 1], items=[1, 0, 0], responses=[1.0, 1.0, -1.0],
            num_users=2, num_items=2, user_ids=(7, 3), item_ids=("q1", "q2"),
        )
    assert "dense indices (1, 0)" in str(err.value)
    assert "user=3, item='q1'" in str(err.value)
    with pytest.raises(ValueError) as err:  # no IDs: dense indices only
        ResponseSet(users=[1, 1], items=[0, 0], responses=[1.0, -1.0],
                    num_users=2, num_items=1)
    assert str(err.value).endswith("dense indices (1, 0)")


def test_triplet_round_trip(tmp_path):
    data = make_set()
    path = tmp_path / "resp.csv"
    save_triplets(data, path)
    loaded = load_triplets(path)
    np.testing.assert_array_equal(loaded.users, data.users)
    np.testing.assert_array_equal(loaded.items, data.items)
    np.testing.assert_array_equal(loaded.responses, data.responses)
    assert loaded.user_ids == data.user_ids
    assert loaded.item_ids == data.item_ids


def test_load_triplets_skips_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" files begin with a UTF-8 byte-order mark.
    sample = Path(__file__).parent.parent / "sample_data" / "responses.csv"
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + sample.read_bytes())
    want, got = load_triplets(sample), load_triplets(path)
    for name in ("users", "items", "responses"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert (got.num_users, got.num_items) == (want.num_users, want.num_items)
    assert (got.user_ids, got.item_ids) == (want.user_ids, want.item_ids)


def test_triplet_round_trip_zero_one(tmp_path):
    data = make_set()
    path = tmp_path / "resp01.csv"
    save_triplets(data, path, label_convention="zero_one")
    text = path.read_text()
    assert "-1" not in text
    loaded = load_triplets(path, label_convention="zero_one")
    np.testing.assert_array_equal(loaded.users, data.users)
    np.testing.assert_array_equal(loaded.items, data.items)
    np.testing.assert_array_equal(loaded.responses, data.responses)
    assert loaded.user_ids == data.user_ids
    assert loaded.item_ids == data.item_ids


@pytest.mark.parametrize("convention", ["pm_one", "zero_one"])
def test_save_load_round_trip_random(tmp_path, convention):
    rng = np.random.default_rng(5)
    U, Q = 9, 7
    pairs = rng.permutation(U * Q)[:40]
    data = ResponseSet(
        users=pairs // Q, items=pairs % Q,
        responses=rng.choice([-1.0, 1.0], size=40),
        num_users=U, num_items=Q,
        user_ids=tuple(f"u {k}" for k in range(U)),
        item_ids=tuple(f"i,{k}" for k in range(Q)),  # quoted on write
    )
    path = tmp_path / "r.csv"
    save_triplets(data, path, label_convention=convention)
    loaded = load_triplets(path, label_convention=convention)
    # load densifies in first-appearance order: map back through the IDs
    assert [loaded.user_ids[u] for u in loaded.users] == [
        data.user_ids[u] for u in data.users
    ]
    assert [loaded.item_ids[i] for i in loaded.items] == [
        data.item_ids[i] for i in data.items
    ]
    np.testing.assert_array_equal(loaded.responses, data.responses)
    tokens = {row[2] for row in csv.reader(path.read_text().splitlines()[1:])}
    assert tokens == ({"1", "-1"} if convention == "pm_one" else {"1", "0"})


def test_load_triplets_parsing(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("user,item,response\nu1,i1,+1\nu2,i1,-1\n\nu1,i2,1\n")
    data = load_triplets(path)
    assert len(data) == 3  # blank line skipped
    assert data.num_users == 2 and data.num_items == 2
    np.testing.assert_array_equal(data.responses, [1.0, -1.0, 1.0])


def test_load_triplets_zero_one(tmp_path):
    path = tmp_path / "t01.csv"
    path.write_text("user,item,response\nu1,i1,1\nu2,i1,0\n")
    data = load_triplets(path, label_convention="zero_one")
    np.testing.assert_array_equal(data.responses, [1.0, -1.0])


def test_load_triplets_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b,c\n1,1,1\n")
    with pytest.raises(ValueError, match="header"):
        load_triplets(bad_header)

    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_triplets(empty)

    short_row = tmp_path / "s.csv"
    short_row.write_text("user,item,response\nu1,i1\n")
    with pytest.raises(ValueError, match="2"):
        load_triplets(short_row)

    bad_token = tmp_path / "b.csv"
    bad_token.write_text("user,item,response\nu1,i1,maybe\n")
    with pytest.raises(ValueError, match="line 2"):
        load_triplets(bad_token)

    dup = tmp_path / "d.csv"
    dup.write_text("user,item,response\nu1,i1,1\nu2,i1,1\nu1,i1,-1\n")
    with pytest.raises(ValueError) as err:
        load_triplets(dup)
    assert "u1" in str(err.value) and "i1" in str(err.value)
    assert "4" in str(err.value)  # line number of the duplicate


def test_load_triplets_bad_convention(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("user,item,response\nu1,i1,1\n")
    with pytest.raises(ValueError):
        load_triplets(path, label_convention="spins")


def test_unknown_convention_raises_without_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("user,item,response\n")
    with pytest.raises(ValueError, match="unknown label_convention 'spins'"):
        load_triplets(path, label_convention="spins")
    empty = ResponseSet(users=[], items=[], responses=[], num_users=0, num_items=0)
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="unknown label_convention 'spins'"):
        save_triplets(empty, out, label_convention="spins")
    assert not out.exists()


def test_duplicate_after_blank_lines_reports_its_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("user,item,response\nu1,i1,1\n\n\nu2,i1,1\n\nu1, i1,-1\n")
    with pytest.raises(ValueError, match=r"line 7: duplicate pair "
                                         r"\(user='u1', item='i1'\)"):
        load_triplets(path)


def test_errors_name_the_physical_line_after_a_multiline_id(tmp_path):
    # A quoted ID may hold a line break: the record on lines 2-3 shifts
    # every later line away from the record count.
    path = tmp_path / "d.csv"
    path.write_text('user,item,response\n"u\n1",i1,1\nu2,i1,1\nu2,i1,-1\n')
    with pytest.raises(ValueError, match=r"line 5: duplicate pair "
                                         r"\(user='u2', item='i1'\)"):
        load_triplets(path)
    path.write_text('user,item,response\n\nu2,i1,1\n"u\n1",i1,7\nu3,i1,1\n')
    with pytest.raises(ValueError, match=r"line 4: unknown response value '7'"):
        load_triplets(path)
    path.write_text('user,item,response\n"u\n1",i1,1\n\nu3,i1\n')
    with pytest.raises(ValueError, match=r"line 5: expected 3 fields, got 2"):
        load_triplets(path)


def test_load_triplets_keeps_no_objects_per_row(tmp_path):
    # 20k rows over 200 users x 300 items.  Holding one string per distinct
    # ID and the line numbers in a typed array, a load peaks near its lists
    # of references and the dense arrays (about 110 traced bytes a row); a
    # string per row and token and an int per line number take it past 240.
    rows = 20_000
    rng = np.random.default_rng(11)
    pairs = rng.choice(200 * 300, size=rows, replace=False).tolist()
    signs = rng.choice(["1", "-1"], size=rows).tolist()
    path = tmp_path / "d.csv"
    path.write_text("user,item,response\n" + "".join(
        f"u{p // 300},i{p % 300},{s}\n" for p, s in zip(pairs, signs)
    ))
    load_triplets(path)  # one-time allocations (caches, lazy imports) first
    tracemalloc.start()
    try:
        data = load_triplets(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(data) == rows and data.num_users == 200
    assert peak <= 150 * rows, peak / rows


def _reference_load_triplets(path, label_convention="pm_one"):
    """Row-by-row triplet loader: a per-row token branch, a per-row
    densifier and a set of seen pairs.  The reference the vectorized
    `load_triplets` must match in arrays, IDs and error messages."""
    tokens = {"pm_one": {"1": 1.0, "+1": 1.0, "-1": -1.0},
              "zero_one": {"1": 1.0, "0": -1.0}}
    index_u, index_i = {}, {}
    users, items, responses, seen = [], [], [], set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected header user,item,response")
        if [h.strip() for h in header] != ["user", "item", "response"]:
            raise ValueError(
                f"{path}, line 1: expected header user,item,response, got {header!r}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(
                    f"{path}, line {line_no}: expected 3 fields, got {len(row)}"
                )
            uid, iid, token = row[0].strip(), row[1].strip(), row[2].strip()
            if label_convention not in tokens:
                raise ValueError(f"unknown label_convention {label_convention!r}")
            if token not in tokens[label_convention]:
                raise ValueError(
                    f"{path}, line {line_no}: unknown response value {token!r} "
                    f"for convention {label_convention!r}"
                )
            if (uid, iid) in seen:
                raise ValueError(
                    f"{path}, line {line_no}: duplicate pair (user={uid!r}, item={iid!r})"
                )
            seen.add((uid, iid))
            users.append(index_u.setdefault(uid, len(index_u)))
            items.append(index_i.setdefault(iid, len(index_i)))
            responses.append(tokens[label_convention][token])
    return users, items, responses, tuple(index_u), tuple(index_i)


def _random_triplet_file(rng, path, fault):
    """A triplet file with padded and quoted IDs, blank lines, every token
    spelling of a random convention, and the named fault injected once."""
    convention = str(rng.choice(["pm_one", "zero_one"]))
    spellings = {"pm_one": (["1", "+1", " 1 "], ["-1", " -1"]),
                 "zero_one": (["1", "1 "], ["0", " 0"])}[convention]
    U, Q = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    n = int(rng.integers(1, U * Q + 1))
    pairs = rng.permutation(U * Q)[:n]
    user_names = [str(rng.choice([f"u{k}", f"user {k}", f"u,{k}", f"{k}"]))
                  for k in range(U)]
    item_names = [str(rng.choice([f"i{k}", f"it,{k}", f"{100 + k}"]))
                  for k in range(Q)]
    rows = [[user_names[p // Q], item_names[p % Q],
             str(rng.choice(spellings[int(rng.integers(2))]))] for p in pairs]
    at = int(rng.integers(len(rows)))
    if fault == "duplicate" and len(rows) > 1:
        rows.insert(int(rng.integers(1, len(rows) + 1)),
                    [rows[at][0], rows[at][1], spellings[0][0]])
    elif fault == "short":
        rows[at] = rows[at][:int(rng.integers(1, 3))]
    elif fault == "long":
        rows[at] = rows[at] + ["x"]
    elif fault == "token":
        other = "+1" if convention == "zero_one" else "0"
        rows[at][2] = str(rng.choice(["2", "yes", "", other]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["user", "item", "response"]
        if rng.random() < 0.3:
            header = [" user", "item ", " response"]
        if fault == "header":
            header = header[:2] + ["label"]
        writer.writerow(header)
        for row in rows:
            if rng.random() < 0.15:
                fh.write("\n")
            pad = " " * int(rng.integers(0, 2))
            writer.writerow([row[0] + pad, *(pad + f for f in row[1:2]), *row[2:]])
    return convention


def test_load_triplets_matches_row_by_row_reference(tmp_path):
    rng = np.random.default_rng(2024)
    faults = ["none", "none", "duplicate", "short", "long", "token", "header"]
    errors = 0
    for k in range(150):
        path = tmp_path / f"t{k}.csv"
        convention = _random_triplet_file(rng, path, faults[k % len(faults)])
        try:
            want = _reference_load_triplets(path, convention)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                load_triplets(path, label_convention=convention)
            assert str(got.value) == str(err), path.read_text()
            errors += 1
            continue
        data = load_triplets(path, label_convention=convention)
        np.testing.assert_array_equal(data.users, want[0])
        np.testing.assert_array_equal(data.items, want[1])
        np.testing.assert_array_equal(data.responses, want[2])
        assert (data.user_ids, data.item_ids) == want[3:]
        assert (data.num_users, data.num_items) == (len(want[3]), len(want[4]))
    assert errors >= 60  # the injected faults did reach the loader


def test_load_movielens(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t10\t5\t874965758\n2\t10\t1\t876893171\n1\t20\t3\t878542960\n")
    rows = load_movielens(path)
    assert rows == [(1, 10, 5), (2, 10, 1), (1, 20, 3)]

    empty = tmp_path / "empty.data"
    empty.write_text("")
    assert load_movielens(empty) == []


def test_load_movielens_errors(tmp_path):
    bad_rating = tmp_path / "r.data"
    bad_rating.write_text("1\t10\t9\t874965758\n")
    with pytest.raises(ValueError, match="line 1"):
        load_movielens(bad_rating)

    bad_fields = tmp_path / "f.data"
    bad_fields.write_text("1\t10\t5\n")
    with pytest.raises(ValueError):
        load_movielens(bad_fields)

    bad_int = tmp_path / "i.data"
    bad_int.write_text("1\tten\t5\t874965758\n")
    with pytest.raises(ValueError):
        load_movielens(bad_int)


def test_binarize_ratings_signs_and_ties():
    # mean is 3: the ratings equal to it are dropped with a warning
    ratings = [(1, 10, 5), (1, 20, 3), (2, 10, 1), (2, 20, 4), (3, 10, 2)]
    with pytest.warns(UserWarning, match="1 rating"):
        data = binarize_ratings(ratings)
    assert len(data) == 4
    np.testing.assert_array_equal(data.responses, [1.0, -1.0, 1.0, -1.0])
    # densified ids follow first appearance among retained rows
    assert data.user_ids == (1, 2, 3)
    assert data.item_ids == (10, 20)


def test_binarize_ratings_no_ties_no_warning(recwarn):
    data = binarize_ratings([(1, 1, 5), (2, 1, 1)])
    assert len(recwarn) == 0
    assert len(data) == 2
    np.testing.assert_array_equal(data.responses, [1.0, -1.0])


def test_binarize_empty_raises():
    with pytest.raises(ValueError):
        binarize_ratings([])
