"""Synthetic grid study, scoring metrics, and cross-validation."""

import json
import logging
import sys
import threading
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from oracles import known_difficulty_reference
from rasch_lmmse import baselines, experiments, rasch
from rasch_lmmse.baselines import pm_gibbs
from rasch_lmmse.data import ResponseSet, load_triplets
from rasch_lmmse.experiments import (
    CvConfig,
    SyntheticConfig,
    accuracy,
    auc,
    fit_response_set,
    run_cross_validation,
    run_synthetic,
    snr_to_sigma2,
)
from rasch_lmmse.linear_probit import lmmse_fit
from rasch_lmmse.rasch import (
    KnownDifficultyModel,
    RaschDesign,
    known_difficulty_fit,
    known_difficulty_predicted_mse,
    rasch_closed_form_mse,
    rasch_design_matrix,
)

SAMPLE_DATA = Path(__file__).parent.parent / "sample_data"


def simulate_response_set(U, Q, seed, drop=()):
    """Full U x Q response set from the generative model, minus `drop` pairs."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(U)
    d = rng.standard_normal(Q)
    users, items, responses = [], [], []
    for i in range(Q):
        for u in range(U):
            if (u, i) in drop:
                continue
            users.append(u)
            items.append(i)
            responses.append(1.0 if a[u] - d[i] + rng.standard_normal() >= 0 else -1.0)
    return ResponseSet(
        users=np.array(users),
        items=np.array(items),
        responses=np.array(responses),
        num_users=U,
        num_items=Q,
    )


def test_snr_mapping():
    assert snr_to_sigma2(0.0) == 0.5
    assert np.isclose(snr_to_sigma2(-10.0), 0.05)
    assert np.isclose(snr_to_sigma2(10.0), 5.0)


@pytest.mark.parametrize("snr_db", [4000.0, -4000.0, float("nan"), float("inf")])
def test_snr_mapping_rejects_unusable_variance(snr_db):
    # 4000 dB overflows, -4000 dB underflows to sigma2 = 0
    with pytest.raises(ValueError, match="finite and positive"):
        snr_to_sigma2(snr_db)
    with pytest.raises(ValueError, match="finite and positive"):
        SyntheticConfig(users_grid=(2,), items_grid=(2,), snr_db_grid=(0.0, snr_db))


def test_cv_config_rejects_infinite_variance():
    for grid in ((float("inf"), 1.0), (1.0, float("nan"))):
        with pytest.raises(ValueError, match="finite and positive"):
            CvConfig(prior_variance_grid=grid)


def test_estimators_must_be_a_list_not_a_string():
    with pytest.raises(TypeError, match="list of names"):
        SyntheticConfig(users_grid=(2,), items_grid=(2,), snr_db_grid=(0.0,),
                        estimators="map")
    with pytest.raises(TypeError, match="list of names"):
        CvConfig(estimators="lmmse")


def test_synthetic_config_validation():
    ok = dict(users_grid=(2,), items_grid=(3,), snr_db_grid=(0.0,))
    SyntheticConfig(**ok)
    with pytest.raises(ValueError):
        SyntheticConfig(users_grid=(), items_grid=(3,), snr_db_grid=(0.0,))
    with pytest.raises(ValueError):
        SyntheticConfig(**ok, trials=0)
    with pytest.raises(ValueError):
        SyntheticConfig(**ok, estimators=("lmmse", "oracle"))
    with pytest.raises(ValueError):
        SyntheticConfig(users_grid=(0,), items_grid=(3,), snr_db_grid=(0.0,))
    # Gibbs settings are checked whichever estimators are selected
    with pytest.raises(ValueError, match="samples must be positive"):
        SyntheticConfig(**ok, gibbs_samples=0)
    with pytest.raises(ValueError, match="burn_in must be nonnegative"):
        SyntheticConfig(**ok, gibbs_burn_in=-1)
    # an ill-typed setting is rejected, not coerced
    for bad in (dict(trials=2.5), dict(trials="5"), dict(users_grid=(2.5,)),
                dict(known_difficulties="false"), dict(trials=True),
                dict(seed=False), dict(users_grid=(True,)), dict(items_grid=(2, True)),
                dict(snr_db_grid=(True,)), dict(snr_db_grid=("0",)),
                dict(gibbs_samples=True)):
        with pytest.raises(TypeError):
            SyntheticConfig(**{**ok, **bad})
    # estimator list is normalized to a sorted, deduplicated tuple
    cfg = SyntheticConfig(**ok, estimators=("map", "lmmse", "map"))
    assert cfg.estimators == ("lmmse", "map")


def test_cv_config_validation():
    CvConfig(folds=2, prior_variance_grid=(1.0,))
    with pytest.raises(ValueError):
        CvConfig(folds=1)
    with pytest.raises(ValueError):
        CvConfig(prior_variance_grid=(1.0, -0.5))
    with pytest.raises(ValueError):
        CvConfig(prior_variance_grid=())
    with pytest.raises(ValueError, match="folds >= 3"):
        CvConfig(folds=2, prior_variance_grid=(0.5, 1.0))
    with pytest.raises(ValueError):  # bound, not a predictor
        CvConfig(estimators=("fisher_bound",))
    with pytest.raises(ValueError, match="samples must be positive"):
        CvConfig(gibbs_samples=0)
    with pytest.raises(ValueError, match="burn_in must be nonnegative"):
        CvConfig(gibbs_burn_in=-1)
    with pytest.raises(TypeError):
        CvConfig(folds=3.0)
    # JSON's true is not the number 1, nor is a numeric string
    for bad in (dict(folds=True), dict(seed=False), dict(gibbs_burn_in=True),
                dict(prior_variance_grid=(True,)), dict(prior_variance_grid=("1",))):
        with pytest.raises(TypeError):
            CvConfig(**bad)


def test_run_synthetic_deterministic_across_threads():
    config = SyntheticConfig(
        users_grid=(2, 3),
        items_grid=(2,),
        snr_db_grid=(0.0, 10.0),
        trials=20,
        estimators=("lmmse", "map", "pm_gibbs"),
        seed=3,
        gibbs_burn_in=20,
        gibbs_samples=50,
    )
    r1 = run_synthetic(config, threads=1)
    r4 = run_synthetic(config, threads=4)
    assert r1.to_csv() == r4.to_csv()
    assert len(r1.cells) == 4


def test_empirical_matches_analytical():
    config = SyntheticConfig(
        users_grid=(4,), items_grid=(6,), snr_db_grid=(0.0,), trials=300
    )
    cell = run_synthetic(config).cells[0]
    assert cell["error"] is None
    mse_a, _ = rasch_closed_form_mse(RaschDesign(U=4, Q=6, sigma2_a=0.5, sigma2_d=0.5))
    assert cell["analytical_lmmse_mse"] == pytest.approx(mse_a)
    z = abs(cell["empirical_lmmse_mse"] - mse_a) / cell["empirical_lmmse_stderr"]
    assert z <= 3.0


def test_known_difficulty_mode():
    config = SyntheticConfig(
        users_grid=(8,),
        items_grid=(10,),
        snr_db_grid=(0.0,),
        trials=200,
        estimators=("lmmse", "fisher_bound"),
        known_difficulties=True,
    )
    cell = run_synthetic(config).cells[0]
    assert cell["error"] is None
    z = (
        abs(cell["empirical_lmmse_mse"] - cell["analytical_lmmse_mse"])
        / cell["empirical_lmmse_stderr"]
    )
    assert z <= 3.0
    assert 0.0 < cell["fisher_bound"] <= cell["analytical_lmmse_mse"] + 1e-12

    with pytest.raises(ValueError, match="lmmse estimator only"):
        SyntheticConfig(
            users_grid=(2,),
            items_grid=(2,),
            snr_db_grid=(0.0,),
            trials=2,
            estimators=("map",),
            known_difficulties=True,
        )


def test_known_difficulty_cell_reports_the_largest_saturation_count(monkeypatch):
    config = SyntheticConfig(
        users_grid=(3,), items_grid=(4,), snr_db_grid=(0.0,), trials=3,
        known_difficulties=True,
    )
    result = run_synthetic(config)
    assert result.cells[0]["lmmse_saturated"] == 0
    assert json.loads(result.to_json())["cells"][0]["lmmse_saturated"] == 0
    assert "lmmse_saturated" not in result.csv_columns()
    assert "saturated" not in result.to_csv()

    # The cell keeps the largest count any trial's fit took as deterministic.
    counts = iter([1, 3, 2])
    solve = rasch._known_difficulty_solve

    def saturating_solve(model):
        weights, b, mse, metadata = solve(model)
        return weights, b, mse, {**metadata, "saturated": next(counts)}

    monkeypatch.setattr(rasch, "_known_difficulty_solve", saturating_solve)
    assert run_synthetic(config).cells[0]["lmmse_saturated"] == 3


def test_error_cells_recorded_not_raised(monkeypatch):
    # a failing fit must be recorded in its cell, and the run must continue
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(experiments, "fit_response_set", singular)
    config = SyntheticConfig(
        users_grid=(3,), items_grid=(2, 4), snr_db_grid=(0.0,), trials=2,
    )
    result = run_synthetic(config)
    assert len(result.cells) == 2
    for cell in result.cells:
        assert cell["error"].startswith("LinAlgError")
    # serialization still works with the empirical columns absent
    csv_text = result.to_csv()
    assert csv_text.splitlines()[0].split(",")[-1] == "error"


def test_standard_cell_matches_dense_references():
    # Simulate fits each trial as a ResponseSet; the dense design orders its
    # rows the same way (column-major), so the Gibbs chain sees the same
    # uniform draw per response.  U != Q so a transposed order would show.
    U, Q, sigma2 = 4, 3, snr_to_sigma2(0.0)
    config = SyntheticConfig(
        users_grid=(U,), items_grid=(Q,), snr_db_grid=(0.0,), trials=3,
        estimators=("lmmse", "pm_gibbs"), gibbs_burn_in=50, gibbs_samples=100,
        seed=7,
    )
    cell = run_synthetic(config).cells[0]
    assert cell["error"] is None

    model = rasch_design_matrix(RaschDesign(U=U, Q=Q, sigma2_a=sigma2, sigma2_d=sigma2))
    errs = {"lmmse": [], "pm": []}
    for trial in range(config.trials):
        rng = experiments._trial_rng(config.seed, 0, trial)
        a = rng.normal(scale=np.sqrt(sigma2), size=U)
        d = rng.normal(scale=np.sqrt(sigma2), size=Q)
        w = rng.standard_normal((U, Q))
        y = np.where(a[:, None] - d[None, :] + w >= 0, 1.0, -1.0).flatten(order="F")
        gibbs = experiments._gibbs_config(config, 0, trial, 1)
        errs["lmmse"].append(np.mean((lmmse_fit(model, y).estimate[:U] - a) ** 2))
        errs["pm"].append(np.mean((pm_gibbs(model, y, gibbs)[:U] - a) ** 2))
    for stem, e in errs.items():
        assert cell[f"empirical_{stem}_mse"] == pytest.approx(np.mean(e), abs=1e-9)


def test_failure_aborts_its_cell_and_a_block_failure_its_pattern(monkeypatch):
    # The two SNR cells of a (U, Q) pattern share one Gibbs block: a MAP
    # failure aborts only its cell, a block failure only its pattern's cells.
    config = SyntheticConfig(
        users_grid=(3,), items_grid=(2, 4), snr_db_grid=(0.0, 10.0), trials=2,
        estimators=("map", "pm_gibbs"), gibbs_burn_in=10, gibbs_samples=20,
    )
    fit, block = experiments.fit_response_set, experiments._rasch_gibbs_block

    def fit_failing_at_10_db(data, name, sigma2_x, **kwargs):
        if data.num_items == 2 and sigma2_x == snr_to_sigma2(10.0):
            raise RuntimeError("no convergence")
        return fit(data, name, sigma2_x=sigma2_x, **kwargs)

    def block_failing_at_q4(data, chains):
        if data.num_items == 4:
            raise np.linalg.LinAlgError("singular")
        return block(data, chains)

    monkeypatch.setattr(experiments, "fit_response_set", fit_failing_at_10_db)
    errors = [c["error"] for c in run_synthetic(config, threads=2).cells]
    assert errors == [None, "RuntimeError: no convergence", None, None]
    monkeypatch.setattr(experiments, "_rasch_gibbs_block", block_failing_at_q4)
    cells = run_synthetic(config, threads=2).cells
    assert [c["error"] for c in cells] == [
        None, "RuntimeError: no convergence",
        "LinAlgError: singular", "LinAlgError: singular",
    ]
    assert cells[0]["empirical_pm_mse"] > 0.0


def test_gibbs_block_size_leaves_results_unchanged(monkeypatch):
    config = SyntheticConfig(
        users_grid=(3,), items_grid=(4,), snr_db_grid=(0.0, 10.0), trials=3,
        estimators=("pm_gibbs",), gibbs_burn_in=10, gibbs_samples=20, seed=2,
    )
    one_block = run_synthetic(config).cells
    monkeypatch.setattr(baselines, "_GIBBS_BLOCK_LATENTS", 25)  # 2 chains
    blocks = run_synthetic(config).cells
    for cell in one_block + blocks:
        del cell["wall_time_seconds"]
    assert blocks == one_block


def test_gibbs_phase_sizes_its_workers_to_the_latents(monkeypatch):
    # 9 chains per (U, Q) pattern, 126 latents per step in all: far below
    # one worker's share, so threads=2 runs every block on the calling
    # thread.  With the share forced down to 1 latent, each pattern's
    # chains are cut into two slices (4 and 5 chains) on two threads, one
    # of them the calling thread.
    config = SyntheticConfig(
        users_grid=(3,), items_grid=(2, 5), snr_db_grid=(-5.0, 0.0, 10.0),
        trials=3, estimators=("lmmse", "pm_gibbs"), gibbs_burn_in=10,
        gibbs_samples=20, seed=6,
    )
    block = experiments._rasch_gibbs_block
    calls, meet_first = [], False
    meet = threading.Barrier(2, timeout=30)

    def recording_block(data, chains):
        ident = threading.get_ident()
        if meet_first and ident not in {c[0] for c in calls}:
            meet.wait()  # each slice starts on its own thread
        calls.append((ident, data.num_items, len(chains)))
        return block(data, chains)

    def outputs(result):
        cells = json.loads(result.to_json())["cells"]
        for cell in cells:
            del cell["wall_time_seconds"]
        return result.to_csv(), json.dumps(cells)

    serial = outputs(run_synthetic(config, threads=1))
    monkeypatch.setattr(experiments, "_rasch_gibbs_block", recording_block)
    assert outputs(run_synthetic(config, threads=2)) == serial
    assert {c[0] for c in calls} == {threading.get_ident()}
    assert [c[1:] for c in calls] == [(2, 9), (5, 9)]

    calls.clear()
    meet_first = True
    monkeypatch.setattr(experiments, "_WORKER_ENTRIES", 1)
    assert outputs(run_synthetic(config, threads=2)) == serial
    threads = {c[0] for c in calls}
    assert len(threads) == 2 and threading.get_ident() in threads
    for Q in (2, 5):
        slices = sorted(n for _, q, n in calls if q == Q)
        assert slices == [4, 5]

    # A block failure in one slice of the Q = 5 pattern aborts exactly
    # that pattern's cells.
    def failing_block(data, chains):
        if data.num_items == 5 and len(chains) == 5:
            raise np.linalg.LinAlgError("singular")
        return block(data, chains)

    monkeypatch.setattr(experiments, "_rasch_gibbs_block", failing_block)
    cells = run_synthetic(config, threads=2).cells
    assert [c["error"] for c in cells] == [None] * 3 + ["LinAlgError: singular"] * 3
    assert [c["empirical_pm_mse"] for c in cells[:3]] == [
        c["empirical_pm_mse"] for c in json.loads(serial[1])[:3]
    ]


def test_a_cell_split_across_slices_reports_its_first_failing_trial(monkeypatch):
    # Three cells of two trials, cut into two slices of pairs [0, 3) and
    # [3, 6): the 0 dB cell's trial 0 is fit in the first slice and its
    # trial 1 in the second.  Both fail, with different messages; the record
    # names trial 0's, as on one thread.
    config = SyntheticConfig(
        users_grid=(3,), items_grid=(2,), snr_db_grid=(-5.0, 0.0, 10.0),
        trials=2, estimators=("lmmse", "map"), seed=5,
    )
    trial_rng, fit = experiments._trial_rng, experiments.fit_response_set
    drawn, raised = threading.local(), []

    def recording_rng(seed, cell_idx, trial):
        drawn.pair = (cell_idx, trial)
        return trial_rng(seed, cell_idx, trial)

    def fit_failing_in_cell_1(data, name, **kwargs):
        cell_idx, trial = drawn.pair
        if cell_idx == 1:
            raised.append(trial)
            raise RuntimeError(f"trial {trial} failed")
        return fit(data, name, **kwargs)

    def outputs(result):
        cells = json.loads(result.to_json())["cells"]
        for cell in cells:
            cell.pop("wall_time_seconds", None)
        return result.to_csv(), json.dumps(cells)

    monkeypatch.setattr(experiments, "_trial_rng", recording_rng)
    monkeypatch.setattr(experiments, "fit_response_set", fit_failing_in_cell_1)
    serial = run_synthetic(config, threads=1)
    assert raised == [0]
    errors = [c["error"] for c in serial.cells]
    assert errors == [None, "RuntimeError: trial 0 failed", None]

    raised.clear()
    monkeypatch.setattr(experiments, "_WORKER_ENTRIES", 1)
    split = run_synthetic(config, threads=2)
    assert sorted(raised) == [0, 1]
    assert outputs(split) == outputs(serial)


def _synthetic_outputs(**kwargs):
    """Criterion 3's (U, Q, SNR) patterns at 2 trials: a run's CSV and its
    JSON cells without wall times, by thread count."""
    config = SyntheticConfig(
        users_grid=(20,), items_grid=(20, 50), snr_db_grid=(-10.0, 0.0, 10.0),
        trials=2, seed=3, **kwargs,
    )

    def run(threads):
        result = run_synthetic(config, threads=threads)
        cells = json.loads(result.to_json())["cells"]
        for cell in cells:
            del cell["wall_time_seconds"]
        return result.to_csv(), cells

    return run


def _crossval_outputs(threads):
    """3-fold crossval on sample_data: CSV and JSON without runtimes."""
    data = load_triplets(SAMPLE_DATA / "responses.csv")
    config = CvConfig(folds=3, seed=4, estimators=("lmmse", "map"))
    result = run_cross_validation(data, config, threads=threads)
    payload = json.loads(result.to_json())
    for rec in payload["per_estimator"].values():
        del rec["runtime_seconds"]
    return result.to_csv(), payload


@pytest.mark.parametrize("wrapped, run", [
    ("fit_response_set", _synthetic_outputs(estimators=("lmmse", "map"))),
    ("known_difficulty_fit", _synthetic_outputs(known_difficulties=True)),
    ("fit_response_set", _crossval_outputs),
], ids=["fit_phase", "known_difficulty", "crossval"])
def test_fits_and_folds_size_their_workers_to_their_arrays(monkeypatch, wrapped, run):
    # The pattern tasks hold 2.2k array entries, the known-difficulty cells
    # 28.1k and the folds 1.3k: far below one worker's share, so
    # threads=2 runs every fit on the calling thread.  With the share
    # forced down to 1 entry, the fits run on two threads, one of them the
    # calling thread.
    serial = run(1)
    fit = getattr(experiments, wrapped)
    calls, meet_first = [], False
    meet = threading.Barrier(2, timeout=30)

    def recording_fit(*args, **kwargs):
        ident = threading.get_ident()
        if meet_first and ident not in calls:
            meet.wait()  # two tasks start, each on its own thread
        calls.append(ident)
        return fit(*args, **kwargs)

    monkeypatch.setattr(experiments, wrapped, recording_fit)
    assert run(2) == serial
    assert calls and set(calls) == {threading.get_ident()}

    calls.clear()
    meet_first = True
    monkeypatch.setattr(experiments, "_WORKER_ENTRIES", 1)
    assert run(2) == serial
    assert len(set(calls)) == 2 and threading.get_ident() in calls


def test_thread_map_runs_each_task_once_in_task_order():
    # 7 tasks on 3 workers: each thread's first task waits until all three
    # hold one, so the calling thread and both pool threads run tasks.
    ran, lock = [], threading.Lock()
    meet = threading.Barrier(3, timeout=30)

    def square(k):
        ident = threading.get_ident()
        with lock:
            first = all(ident != t for _, t in ran)
            ran.append((k, ident))
        if first:
            meet.wait()
        return k * k

    assert experiments._thread_map(square, range(7), 3) == [k * k for k in range(7)]
    assert sorted(k for k, _ in ran) == list(range(7))
    threads = {t for _, t in ran}
    assert len(threads) == 3 and threading.get_ident() in threads

    # Tasks 2 and 5 fail, 5 first: task 2's error is raised, after it ran.
    failed = threading.Event()
    ran.clear()

    def failing(k):
        ran.append(k)
        if k == 2:
            assert failed.wait(timeout=30)
            raise ValueError("task 2")
        if k == 5:
            failed.set()
            raise ValueError("task 5")
        return k

    with pytest.raises(ValueError, match="task 2"):
        experiments._thread_map(failing, range(7), 3)
    assert set(range(6)) <= set(ran)


def test_thread_map_counter_loses_no_task_under_contention():
    # More workers than cores and a short switch interval: a lost update
    # of the shared counter would run a task twice or skip one.
    runs = [0] * 2000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def task(k):
            runs[k] += 1
            return k
        assert experiments._thread_map(task, range(2000), 4) == list(range(2000))
    finally:
        sys.setswitchinterval(interval)
    assert runs == [1] * 2000


class _Stopped(Exception):
    pass


@pytest.mark.parametrize("run", ["known_difficulty", "crossval"])
def test_pool_runs_log_their_workers(caplog, monkeypatch, run):
    # Logged at INFO before any task runs, with the count the pool gets.
    pools = []

    def stop(func, tasks, workers):
        pools.append(workers)
        raise _Stopped

    monkeypatch.setattr(experiments, "_thread_map", stop)
    monkeypatch.setattr(experiments, "_WORKER_ENTRIES", 1)
    if run == "crossval":
        data = load_triplets(SAMPLE_DATA / "responses.csv")
        entries = 3 * (len(data) + min(data.num_users, data.num_items) ** 2)
        want = f"crossval: 3 fold(s) on 2 worker(s), {entries} entries"
        call = partial(run_cross_validation, data,
                       CvConfig(folds=3, estimators=("lmmse",)), threads=2)
    else:
        config = SyntheticConfig(
            users_grid=(2,), items_grid=(3,), snr_db_grid=(0.0, 10.0), trials=1,
            estimators=("lmmse",), known_difficulties=True,
        )
        entries = sum(6 + 3 * rasch._ability_node_cap(snr_to_sigma2(snr))
                      for snr in (0.0, 10.0))
        want = (f"simulate --known-difficulties: 2 cell(s) on 2 worker(s), "
                f"{entries} entries")
        call = partial(run_synthetic, config, threads=2)
    with caplog.at_level(logging.INFO, logger="rasch_lmmse"), pytest.raises(_Stopped):
        call()
    assert pools == [2]
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("rasch_lmmse.experiments", "INFO", want)
    ]


def test_small_known_difficulty_run_takes_one_worker(monkeypatch):
    # 50 users x 200 items at -10, 0 and 10 dB: 30k responses plus 200 x
    # (82 + 82 + 178) quadrature entries, 98.4k in all, one worker's share
    # (2^16) but not two, so threads=2 runs one worker.
    pools = []

    def stop(func, tasks, workers):
        pools.append(workers)
        raise _Stopped

    monkeypatch.setattr(experiments, "_thread_map", stop)
    config = SyntheticConfig(
        users_grid=(50,), items_grid=(200,), snr_db_grid=(-10.0, 0.0, 10.0),
        trials=2, estimators=("lmmse",), known_difficulties=True,
    )
    with pytest.raises(_Stopped):
        run_synthetic(config, threads=2)
    assert pools == [1]


def test_known_difficulty_solves_once_per_trial(monkeypatch):
    solve = rasch._known_difficulty_solve
    fit = experiments.known_difficulty_fit
    calls, fits = [], []

    def counting(model):
        calls.append(model)
        return solve(model)

    def counting_fit(model, Y):
        fits.append((model, Y, fit(model, Y)))
        return fits[-1][2]

    monkeypatch.setattr(rasch, "_known_difficulty_solve", counting)
    monkeypatch.setattr(experiments, "known_difficulty_fit", counting_fit)
    U, Q, snr_db = 6, 5, 0.0
    config = SyntheticConfig(
        users_grid=(U,), items_grid=(Q,), snr_db_grid=(snr_db,), trials=3,
        known_difficulties=True, seed=4,
    )
    cell = run_synthetic(config).cells[0]
    assert cell["error"] is None
    assert len(calls) == config.trials
    assert len(fits) == config.trials
    monkeypatch.undo()

    # Each trial's weights reach the dense optimum under the dense moments
    # of its one-column model, and each user's estimate is W y_u + b.
    sigma2 = snr_to_sigma2(snr_db)
    for model, Y, sol in fits:
        optimum, weight_mse = known_difficulty_reference(model.d, 0.0, sigma2)
        assert weight_mse(sol.W[0]) == pytest.approx(optimum, abs=1e-12)
        assert sol.predicted_mse == pytest.approx(optimum, abs=1e-12)
        assert Y.shape == (U, Q)
        np.testing.assert_array_equal(sol.estimate, Y @ sol.W[0] + sol.b[0])

    predicted, errs = [], []
    for trial in range(config.trials):
        # The same draws as the cell: d, then a, then the noise.
        rng = experiments._trial_rng(config.seed, 0, trial)
        d = rng.standard_normal(Q)
        a = rng.normal(scale=np.sqrt(sigma2), size=U)
        Y = np.where(a[:, None] - d[None, :] + rng.standard_normal((U, Q)) >= 0, 1.0, -1.0)
        model = KnownDifficultyModel(d=d, x_bar=0.0, sigma2_x=sigma2)
        predicted.append(known_difficulty_predicted_mse(model))
        a_hat = [known_difficulty_fit(model, Y[u]).estimate[0] for u in range(U)]
        errs.append(np.mean((np.array(a_hat) - a) ** 2))
    assert cell["analytical_lmmse_mse"] == pytest.approx(np.mean(predicted), abs=1e-12)
    assert cell["empirical_lmmse_mse"] == pytest.approx(np.mean(errs), abs=1e-12)


def test_result_serialization():
    config = SyntheticConfig(
        users_grid=(2,), items_grid=(2,), snr_db_grid=(0.0,), trials=3,
        estimators=("lmmse", "fisher_bound"),
    )
    result = run_synthetic(config)
    header = result.to_csv().splitlines()[0].split(",")
    assert header == [
        "U", "Q", "snr_db", "sigma2_x", "analytical_lmmse_mse",
        "empirical_lmmse_mse", "empirical_lmmse_stderr",
        "fisher_bound", "error",
    ]
    # timing lives in the JSON payload only; CSV stays byte-reproducible
    assert "wall" not in result.to_csv()
    payload = json.loads(result.to_json())
    assert payload["schema_version"] == 1
    assert "wall_time_seconds" in payload["cells"][0]
    assert payload["config"]["estimators"] == ["fisher_bound", "lmmse"]


def test_every_cell_carries_the_csv_columns(monkeypatch):
    # Both modes build a finished cell's record in one place: exactly the
    # CSV columns plus the JSON-only keys.  An aborted cell's record is the
    # columns every record starts with.  A finished cell times exactly the
    # selected estimators, in both modes.
    head = {"U", "Q", "snr_db", "sigma2_x", "error"}
    grid = {"users_grid": (3,), "items_grid": (2, 4), "snr_db_grid": (0.0,),
            "trials": 2}
    standard = SyntheticConfig(
        **grid, estimators=("lmmse", "pm_gibbs", "map", "fisher_bound"),
        gibbs_burn_in=5, gibbs_samples=10,
    )
    known = SyntheticConfig(
        **grid, estimators=("lmmse", "fisher_bound"), known_difficulties=True
    )
    known_fisher = SyntheticConfig(
        **grid, estimators=("fisher_bound",), known_difficulties=True
    )

    def check(config, json_only, aborted=()):
        result = run_synthetic(config)
        columns = set(result.csv_columns())
        assert head <= columns
        for cell in result.cells:
            if cell["Q"] in aborted:
                assert set(cell) == head and cell["error"].startswith("RuntimeError")
            else:
                assert set(cell) == columns | json_only and cell["error"] is None
                assert set(cell["wall_time_seconds"]) == set(config.estimators)

    check(standard, {"wall_time_seconds"})
    known_keys = {"wall_time_seconds", "lmmse_saturated"}
    check(known, known_keys)
    check(known_fisher, known_keys)

    fit, known_fit = experiments.fit_response_set, experiments.known_difficulty_fit

    def fit_failing_at_q4(data, name, **kwargs):
        if data.num_items == 4:
            raise RuntimeError("forced")
        return fit(data, name, **kwargs)

    def known_fit_failing_at_q4(model, Y):
        if model.d.size == 4:
            raise RuntimeError("forced")
        return known_fit(model, Y)

    monkeypatch.setattr(experiments, "fit_response_set", fit_failing_at_q4)
    monkeypatch.setattr(experiments, "known_difficulty_fit", known_fit_failing_at_q4)
    check(standard, {"wall_time_seconds"}, aborted=(4,))
    check(known, known_keys, aborted=(4,))
    check(known_fisher, known_keys, aborted=(4,))


def test_csv_text_cells():
    from rasch_lmmse.experiments import _csv_text

    rows = [[None, 0.1, np.float64(1 / 3)], ["x,y", 2, None]]
    text = _csv_text(["a", "b", "c"], rows)
    assert text == 'a,b,c\n,0.1,0.3333333333333333\n"x,y",2,\n'


def test_accuracy_and_auc():
    assert accuracy([0.6, 0.4, 0.5], [1, -1, 1]) == 1.0
    assert accuracy([0.6, 0.4], [-1, -1]) == 0.5
    with pytest.raises(ValueError):
        accuracy([1.2], [1])
    with pytest.raises(ValueError):
        accuracy([], [])
    with pytest.raises(ValueError):
        accuracy([0.5, 0.5], [1])

    assert auc([0.9, 0.1, 0.8, 0.2], [1, -1, 1, -1]) == 1.0
    assert auc([0.1, 0.9], [1, -1]) == 0.0
    # ties get midranks
    assert auc([0.5, 0.5, 0.2, 0.8], [1, -1, -1, 1]) == 0.875
    # heavy ties: exactly the Mann-Whitney statistic on scipy's midranks
    rng = np.random.default_rng(13)
    for n in (10, 1000, 100_000):
        predictions = np.round(rng.random(n), 2)
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        labels[:2] = (1.0, -1.0)
        pos = labels > 0
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        ranks = scipy.stats.rankdata(predictions)
        expected = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        assert auc(predictions, labels) == expected
    # a NaN prediction (a diverged estimate) has no rank: the AUC is NaN
    assert np.isnan(auc([0.2, np.nan, 0.8], [1, -1, 1]))
    with pytest.raises(ValueError, match="both classes"):
        auc([0.5, 0.6], [1, 1])
    with pytest.raises(ValueError):
        auc([0.5], [1, -1])


def test_cross_validation_runs_and_is_deterministic():
    data = simulate_response_set(10, 6, seed=11)
    config = CvConfig(folds=3, seed=5, prior_variance_grid=(1.0,),
                      estimators=("lmmse", "map", "pm_gibbs"),
                      gibbs_burn_in=20, gibbs_samples=50)
    r1 = run_cross_validation(data, config, threads=1)
    r3 = run_cross_validation(data, config, threads=3)
    assert r1.to_csv() == r3.to_csv()
    for rec in r1.per_estimator.values():
        assert len(rec["acc_per_fold"]) == 3
        assert 0.0 <= rec["acc_mean"] <= 1.0
        assert rec["selected_sigma2_x"] == [1.0, 1.0, 1.0]
    assert len(r1.fallback_counts) == 3
    table = r1.summary_table()
    assert "lmmse" in table and "map" in table and "pm_gibbs" in table


def test_crossval_reports_each_lmmse_folds_predicted_mse():
    data = load_triplets(SAMPLE_DATA / "responses.csv")
    config = CvConfig(folds=3, seed=4, prior_variance_grid=(0.5,),
                      estimators=("lmmse", "map"))
    result = run_cross_validation(data, config)
    folds = np.array_split(
        np.random.default_rng(config.seed).permutation(len(data)), config.folds
    )
    expected = []
    for f in range(config.folds):
        train = np.concatenate([folds[k] for k in range(config.folds) if k != f])
        fit = fit_response_set(
            ResponseSet(data.users[train], data.items[train], data.responses[train],
                        num_users=data.num_users, num_items=data.num_items),
            "lmmse", sigma2_x=0.5,
        )
        per_comp = fit["per_component_mse"]
        expected.append((float(np.mean(per_comp[: data.num_users])),
                         float(np.mean(per_comp[data.num_users :]))))
    rec = result.per_estimator["lmmse"]
    assert list(zip(rec["predicted_mse_ability_mean_per_fold"],
                    rec["predicted_mse_difficulty_mean_per_fold"])) == expected
    assert all(0.0 < v < 0.5 for pair in expected for v in pair)
    assert "predicted_mse_ability_mean_per_fold" not in result.per_estimator["map"]
    payload = json.loads(result.to_json())["per_estimator"]["lmmse"]
    assert payload["predicted_mse_difficulty_mean_per_fold"] == [e[1] for e in expected]


def test_crossval_reports_each_folds_final_solver():
    # Each estimator's record carries the solver record of each fold's final
    # fit.  sample_data has 12 items, below 32 kept rows, so every MAP
    # Newton step builds its own factor and runs no PCG.
    data = load_triplets(SAMPLE_DATA / "responses.csv")
    config = CvConfig(folds=3, seed=4, prior_variance_grid=(0.5,),
                      estimators=("lmmse", "map"))
    result = run_cross_validation(data, config)
    folds = np.array_split(
        np.random.default_rng(config.seed).permutation(len(data)), config.folds
    )
    payload = json.loads(result.to_json())["per_estimator"]
    for name in config.estimators:
        expected = []
        for f in range(config.folds):
            train = np.concatenate([folds[k] for k in range(config.folds) if k != f])
            expected.append(fit_response_set(
                ResponseSet(data.users[train], data.items[train], data.responses[train],
                            num_users=data.num_users, num_items=data.num_items),
                name, sigma2_x=0.5,
            )["solver"])
        assert result.per_estimator[name]["solver_per_fold"] == expected
        assert payload[name]["solver_per_fold"] == expected
    for solver in result.per_estimator["map"]["solver_per_fold"]:
        assert solver["path"] == "rasch_newton"
        assert solver["factorizations"] == solver["iterations"] >= 1
        assert solver["cg_iterations"] == 0


def test_cross_validation_tuning_and_fallback():
    # user 9 has a single response: the fold holding it cannot see the user
    drop = {(9, i) for i in range(1, 6)}
    data = simulate_response_set(10, 6, seed=2, drop=drop)
    config = CvConfig(folds=3, seed=1, prior_variance_grid=(0.25, 1.0))
    result = run_cross_validation(data, config)
    rec = result.per_estimator["lmmse"]
    assert all(s in (0.25, 1.0) for s in rec["selected_sigma2_x"])
    assert sum(result.fallback_counts) >= 1

    # exact counts: test pairs whose user or item has no training response
    folds = np.array_split(
        np.random.default_rng(config.seed).permutation(len(data)), config.folds
    )
    expected = []
    for f, test in enumerate(folds):
        train = np.concatenate([folds[k] for k in range(config.folds) if k != f])
        seen_u, seen_i = set(data.users[train]), set(data.items[train])
        expected.append(sum(
            data.users[m] not in seen_u or data.items[m] not in seen_i for m in test
        ))
    assert result.fallback_counts == expected

    with pytest.raises(ValueError, match="more folds"):
        run_cross_validation(
            simulate_response_set(2, 1, seed=0), CvConfig(folds=5)
        )
    with pytest.raises(ValueError, match="more folds"):
        run_cross_validation(
            simulate_response_set(2, 1, seed=0, drop={(0, 0), (1, 0)}),
            CvConfig(folds=2, prior_variance_grid=(1.0,)),
        )


def test_fit_response_set():
    data = simulate_response_set(8, 5, seed=4)
    out = fit_response_set(data, estimator="lmmse", sigma2_x=1.0)
    assert out["abilities"].shape == (8,)
    assert out["difficulties"].shape == (5,)
    assert out["predicted_mse"] is not None
    assert out["per_component_mse"].shape == (13,)
    assert out["wall_time_seconds"] >= 0.0

    out_map = fit_response_set(data, estimator="map")
    assert out_map["predicted_mse"] is None
    assert np.all(np.isfinite(out_map["abilities"]))

    for name in ("ridge", "ls"):
        with pytest.raises(ValueError, match="unknown estimator"):
            fit_response_set(data, estimator=name)
    empty = ResponseSet(users=np.array([], dtype=int), items=np.array([], dtype=int),
                        responses=np.array([]), num_users=3, num_items=2)
    for name in ("lmmse", "map", "pm_gibbs"):
        with pytest.raises(ValueError, match="empty"):
            fit_response_set(empty, estimator=name)


def test_fit_response_set_map_memory_below_dense_precision():
    # U + Q = 2000 parameters: a dense N x N precision, Hessian or C_x alone
    # would take (U + Q)^2 * 8 = 32 MB.
    U, Q = 600, 1400
    rng = np.random.default_rng(8)
    pairs = rng.choice(U * Q, size=20_000, replace=False)
    data = ResponseSet(
        users=pairs // Q, items=pairs % Q,
        responses=np.where(rng.random(pairs.size) < 0.5, 1.0, -1.0),
        num_users=U, num_items=Q,
    )
    tracemalloc.start()
    out = fit_response_set(data, estimator="map")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < (U + Q) ** 2 * 8
    assert out["solver"]["path"] == "rasch_newton"
