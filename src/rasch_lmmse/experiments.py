"""Experiment harnesses: synthetic MSE studies and k-fold cross-validation.

The synthetic study sweeps (users, items, SNR) cells, draws Rasch instances,
runs the selected estimators, and reports empirical ability MSEs next to
the analytical values.  Cross-validation holds out response folds, tunes
the prior variance on a validation fold, and scores held-out predictions
with ACC and AUC.

All randomness derives from per-(cell, trial) or per-fold seed sequences,
so results are independent of thread scheduling.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from itertools import groupby, product

import numpy as np

from .baselines import (
    GibbsConfig,
    MapConfig,
    _rasch_gibbs_block,
    fisher_known_difficulty_bound,
    fisher_rasch_ability_bound,
    rasch_map_fit,
    rasch_pm_gibbs,
)
from .data import ResponseSet, _as_count, _as_float, _as_int, _as_variance
from .rasch import (
    KnownDifficultyModel,
    RaschDesign,
    _full_response_set,
    known_difficulty_fit,
    rasch_closed_form_mse,
    rasch_lmmse_fit,
    split_estimate,
)
from .specfun import norm_cdf

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

SYNTHETIC_ESTIMATORS = ("lmmse", "pm_gibbs", "map", "fisher_bound")
CV_ESTIMATORS = ("lmmse", "pm_gibbs", "map", "logit_map")

# Column name stem per estimator in result records.
_STEM = {"lmmse": "lmmse", "pm_gibbs": "pm", "map": "map"}


def snr_to_sigma2(snr_db) -> float:
    """Map an SNR in dB to the prior variance sigma2_x.

    Convention: the per-observation signal power Var(a_u - d_i) = 2 sigma2_x
    against unit noise power, so sigma2_x = 10^(snr_db/10) / 2.  Raises
    TypeError unless snr_db is a number and ValueError unless that
    variance is finite and positive.
    """
    try:
        sigma2 = 10.0 ** (_as_float(snr_db, "snr_db") / 10.0) / 2.0
    except OverflowError:
        sigma2 = math.inf
    return _as_variance(sigma2, f"sigma2_x of snr_db {snr_db!r}")


def _check_types(config, ints, bools=()):
    """Replace each field in `ints` by its exact int value and require each
    field in `bools` to be a bool; TypeError otherwise, also for a bool
    where an int is expected."""
    for name in ints:
        object.__setattr__(config, name, _as_int(getattr(config, name), name))
    for name in bools:
        if not isinstance(getattr(config, name), bool):
            raise TypeError(f"{name} must be true or false")


def _normalize_estimators(estimators, allowed):
    if isinstance(estimators, str):
        raise TypeError(
            f"estimators must be a list of names, not the string {estimators!r}"
        )
    est = tuple(sorted(set(estimators)))
    for name in est:
        if name not in allowed:
            raise ValueError(
                f"unknown estimator {name!r}; allowed: {', '.join(allowed)}"
            )
    if not est:
        raise ValueError("at least one estimator required")
    return est


@dataclass(frozen=True)
class SyntheticConfig:
    """Grid configuration for the synthetic MSE study.

    The one place that holds the study's defaults and checks: the CLI
    builds it from its flags or from a JSON config file with these field
    names, and every setting is checked here, so no cell fails because of
    one.  Integer settings must be integers, the SNRs numbers and flags
    bools (TypeError otherwise; a bool is not a number).  The Gibbs settings and the seed are checked as
    `GibbsConfig` checks them, whichever estimators are selected.
    `known_difficulties` runs the lmmse estimator (and `fisher_bound`) only.
    """

    users_grid: tuple
    items_grid: tuple
    snr_db_grid: tuple
    trials: int = 100
    estimators: tuple = ("lmmse",)
    seed: int = 0
    known_difficulties: bool = False
    gibbs_burn_in: int = GibbsConfig.burn_in
    gibbs_samples: int = GibbsConfig.samples

    def __post_init__(self):
        for name in ("users_grid", "items_grid"):
            object.__setattr__(
                self, name, tuple(_as_count(v, name) for v in getattr(self, name))
            )
        object.__setattr__(
            self,
            "snr_db_grid",
            tuple(_as_float(s, "snr_db_grid") for s in self.snr_db_grid),
        )
        for snr_db in self.snr_db_grid:
            snr_to_sigma2(snr_db)
        object.__setattr__(self, "trials", _as_count(self.trials, "trials"))
        _check_types(
            self, ("seed", "gibbs_burn_in", "gibbs_samples"), ("known_difficulties",)
        )
        if not (self.users_grid and self.items_grid and self.snr_db_grid):
            raise ValueError("grids must be nonempty")
        object.__setattr__(
            self,
            "estimators",
            _normalize_estimators(self.estimators, SYNTHETIC_ESTIMATORS),
        )
        GibbsConfig(
            burn_in=self.gibbs_burn_in, samples=self.gibbs_samples, seed=self.seed
        )
        if self.known_difficulties and set(self.estimators) - {"lmmse", "fisher_bound"}:
            raise ValueError(
                "known_difficulties mode supports the lmmse estimator only"
            )


@dataclass
class ExperimentResult:
    """Per-cell records of a synthetic run, serializable to CSV and JSON."""

    config: dict
    cells: list

    def csv_columns(self):
        cols = [
            "U",
            "Q",
            "snr_db",
            "sigma2_x",
            "analytical_lmmse_mse",
        ]
        for name in self.config["estimators"]:
            if name == "fisher_bound":
                continue
            stem = _STEM[name]
            cols += [f"empirical_{stem}_mse", f"empirical_{stem}_stderr"]
        if "fisher_bound" in self.config["estimators"]:
            cols.append("fisher_bound")
        cols.append("error")
        return cols

    def to_csv(self) -> str:
        cols = self.csv_columns()
        return _csv_text(cols, ([cell.get(c) for c in cols] for cell in self.cells))

    def summary_table(self) -> str:
        """One line per cell: the analytical MSE, then each estimator's MSE
        and standard error and the Fisher bound, as in `csv_columns`."""
        shown = []  # (column, heading, width, format)
        for col in self.csv_columns():
            if col == "fisher_bound":
                shown.append((col, "fisher", 10, ".6f"))
            elif col.startswith("empirical_"):
                stem, stat = col[len("empirical_") :].rsplit("_", 1)
                shown.append(
                    (col, f"{stem} mse", 12, ".6f") if stat == "mse"
                    else (col, f"{stem} se", 10, ".2e")
                )
        lines = [
            f"{'U':>6} {'Q':>6} {'snr_db':>8} {'sigma2':>9} {'analytical':>12}"
            + "".join(f" {heading:>{width}}" for _, heading, width, _ in shown)
        ]
        for cell in self.cells:
            line = (
                f"{cell['U']:>6} {cell['Q']:>6} {cell['snr_db']:>8g} "
                f"{cell['sigma2_x']:>9.4g} "
            )
            if cell.get("error"):
                lines.append(f"{line}failed: {cell['error']}")
                continue
            line += f"{cell['analytical_lmmse_mse']:>12.6f}"
            for col, _, width, fmt in shown:
                value = cell.get(col)
                line += f" {'' if value is None else format(value, fmt):>{width}}"
            lines.append(line)
        return "\n".join(lines)

    def to_json(self) -> str:
        return _json_text({"config": self.config, "cells": self.cells})


def _format_cell_value(v):
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v


def _csv_text(header, rows):
    """The CSV of every output file: a header line, then one line per row,
    with None as an empty cell and floats written as their repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_format_cell_value(v) for v in row] for row in rows)
    return buf.getvalue()


def _json_text(payload):
    """The JSON of every output file: `payload` plus the schema version."""
    return json.dumps(
        {"schema_version": SCHEMA_VERSION, **payload}, indent=2, sort_keys=True
    )


# CPU seconds of a Gibbs step per (U, Q) pattern (a block's fixed array
# calls) and per latent, for `run_synthetic`'s runtime warning.  Measured
# with one LAPACK thread and 300 steps on a 2-vCPU Intel Xeon VM (Python
# 3.11, NumPy 2.4, OpenBLAS 0.3.31): within 25 % of the CPU of full designs
# from 2 x 2 to 200 x 200 (8 to 40k latents per step).
_GIBBS_STEP_SECONDS = 4.0e-5
_GIBBS_LATENT_SECONDS = 5.5e-8
_GIBBS_WARN_SECONDS = 60.0
# Array entries that a simulate or crossval run's concurrent calls must
# hold per worker thread (`_workers`).  Below this the calls are too short
# for two threads to overlap: they pass the interpreter lock back and
# forth and cost CPU for little wall time.  Measured with pm_gibbs on
# 20 x 20 and 20 x 50 designs at 3 SNRs on a 2-vCPU VM (Python 3.11, NumPy
# 2.4, OpenBLAS 0.3.31), two workers against one: at 8.4k latents per step
# 2.5x the CPU and 1.7x the wall time; at 34k, +25-40 % CPU for 9-21 % less
# wall; at 67k, +11 % CPU for 33 % less wall; at 134k (67k per worker)
# equal CPU for 44 % less wall; at 630k equal CPU for 40 % less wall.  The
# fits and folds cross over alike (README, "Threads").
_WORKER_ENTRIES = 1 << 16


def _workers(threads, entries):
    """Worker threads for a run whose concurrent calls hold `entries` array
    entries in all: one per `_WORKER_ENTRIES`, at least one and at most
    `threads` (the CPU count when None)."""
    if threads is None:
        threads = os.cpu_count() or 1
    return max(1, min(threads, entries // _WORKER_ENTRIES))


def _thread_map(func, tasks, workers):
    """[func(t) for t in tasks], on the calling thread for one worker and on
    a pool of `workers` threads otherwise."""
    if workers == 1:
        return [func(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, tasks))


def _trial_rng(seed, cell_idx, trial_idx):
    return np.random.default_rng(np.random.SeedSequence((seed, cell_idx, trial_idx)))


def _gibbs_config(config, *key):
    """The GibbsConfig of one pm_gibbs chain of the study `config`: its
    burn-in and samples, and the first 64-bit word of
    SeedSequence((config.seed, *key)) as seed.  A simulate trial's chain
    has key (cell, trial, 1) and a crossval fold's (fold, 2); the last
    entry keeps them apart from `_trial_rng`'s (seed, cell, trial)."""
    ss = np.random.SeedSequence((config.seed, *key))
    return GibbsConfig(
        burn_in=config.gibbs_burn_in,
        samples=config.gibbs_samples,
        seed=int(ss.generate_state(1, dtype=np.uint64)[0]),
    )


def _cell_head(U, Q, snr_db, err=None):
    """The keys every cell record starts with; `error` names `err`, the
    estimator failure that aborted the cell, and is None for a finished
    cell, whose `_cell_record` adds the rest.  An aborted cell's record
    is its head alone."""
    return {
        "U": U,
        "Q": Q,
        "snr_db": snr_db,
        "sigma2_x": snr_to_sigma2(snr_db),
        "error": None if err is None else f"{type(err).__name__}: {err}",
    }


def _cell_record(U, Q, snr_db, analytical, errs, times, fisher):
    """The record of a finished cell, in both simulate modes.

    `analytical` is the cell's analytical L-MMSE ability MSE, `errs` maps
    each point estimator to its per-trial ability MSEs and `times` to its
    wall time (JSON only); `fisher` is the Fisher bound, None unless
    selected.  Each estimator gets its mean MSE and that mean's standard
    error (None for one trial).
    """
    cell = _cell_head(U, Q, snr_db)
    cell["analytical_lmmse_mse"] = analytical
    for name, e in errs.items():
        stem = _STEM[name]
        cell[f"empirical_{stem}_mse"] = float(np.mean(e))
        cell[f"empirical_{stem}_stderr"] = (
            float(np.std(e, ddof=1) / np.sqrt(len(e))) if len(e) > 1 else None
        )
    if fisher is not None:
        cell["fisher_bound"] = fisher
    cell["wall_time_seconds"] = {k: round(v, 6) for k, v in times.items()}
    return cell


def _run_standard_slice(config, cells, lo, hi):
    """Pairs [lo, hi) of one full U x Q pattern's (cell, trial) pairs in
    cell-major order: cells holds the pattern's (cell_idx, U, Q, snr_db),
    and pair p is trial p % trials of cells[p // trials].

    Each pair draws its trial (`_trial_rng`) as one ResponseSet, which
    lmmse and map fit through `fit_response_set`, and collects its pm_gibbs
    chain: its cell's prior and its own seed (`_gibbs_config`).  A fit
    failure stops its cell's trials in the slice and drops the cell's
    chains.  The slice's chains then run in one call of
    `baselines._rasch_gibbs_block`, which cuts them into blocks; a chain's
    draws do not depend on its block or slice.  A cell's pm_gibbs wall
    time is its chains' share of the call's wall time.

    Returns (parts, gibbs_err): parts maps each cell of the slice to the
    failure that aborted it or to (errs, times), its per-trial ability
    MSEs and wall times per estimator, over its trials in the slice;
    gibbs_err is the blocks' failure, None if they ran.
    """
    point = [e for e in config.estimators if e != "fisher_bound"]
    fitted = [e for e in point if e != "pm_gibbs"]
    T = config.trials
    parts, chains, reached = {}, [], []
    for k in range(lo // T, -(-hi // T)):
        cell_idx, U, Q, snr_db = cells[k]
        trials = range(max(lo - k * T, 0), min(hi - k * T, T))
        sigma2 = snr_to_sigma2(snr_db)
        design = RaschDesign(U=U, Q=Q, sigma2_a=sigma2, sigma2_d=sigma2)
        errs = {e: np.empty(len(trials)) for e in point}
        times = dict.fromkeys(point, 0.0)
        truth, own = [], []
        try:
            for j, trial in enumerate(trials):
                rng = _trial_rng(config.seed, cell_idx, trial)
                a = rng.normal(scale=np.sqrt(sigma2), size=U)
                d = rng.normal(scale=np.sqrt(sigma2), size=Q)
                w = rng.standard_normal((U, Q))
                Y = np.where(a[:, None] - d[None, :] + w >= 0, 1.0, -1.0)
                data = _full_response_set(design, Y)
                for name in fitted:
                    out = fit_response_set(data, name, sigma2_x=sigma2)
                    times[name] += out["wall_time_seconds"]
                    errs[name][j] = float(np.mean((out["abilities"] - a) ** 2))
                if "pm_gibbs" in point:
                    truth.append(a)
                    own.append((design, data.responses,
                                _gibbs_config(config, cell_idx, trial, 1)))
        except Exception as err:  # recorded, not raised: other cells continue
            parts[cell_idx] = err
            continue
        parts[cell_idx] = (errs, times)
        if own:
            chains += own
            reached.append((errs, times, truth))
    if chains:
        t0 = time.perf_counter()
        try:
            # Every trial's ResponseSet has the pattern; the last one drawn serves.
            means = _rasch_gibbs_block(data, chains)
        except Exception as err:  # recorded, not raised: other patterns continue
            return parts, err
        per_chain = (time.perf_counter() - t0) / len(chains)
        rows = iter(means)
        for errs, times, truth in reached:
            errs["pm_gibbs"][:] = [np.mean((next(rows)[:U] - a) ** 2) for a in truth]
            times["pm_gibbs"] = per_chain * len(truth)
    return parts, None


def _standard_cell(config, U, Q, snr_db, parts, gibbs_err):
    """The record of a standard cell from `parts`, its slices' parts in
    trial order (`_run_standard_slice`), and `gibbs_err`, the first Gibbs
    failure among its pattern's slices.  A fit failure aborts the cell with
    its first failing trial's error; a Gibbs failure aborts every cell of
    the pattern that no fit failure aborted.  The analytical MSE and the
    Fisher bound are computed here."""
    err = next((p for p in parts if isinstance(p, Exception)), gibbs_err)
    if err is not None:
        return _cell_head(U, Q, snr_db, err)
    errs = {e: np.concatenate([p[0][e] for p in parts]) for e in parts[0][0]}
    times = {e: sum(p[1][e] for p in parts) for e in parts[0][1]}
    sigma2 = snr_to_sigma2(snr_db)
    fisher = None
    if "fisher_bound" in config.estimators:
        t0 = time.perf_counter()
        fisher = fisher_rasch_ability_bound(U, Q, sigma2)
        times["fisher_bound"] = time.perf_counter() - t0
    design = RaschDesign(U=U, Q=Q, sigma2_a=sigma2, sigma2_d=sigma2)
    return _cell_record(
        U, Q, snr_db, rasch_closed_form_mse(design)[0], errs, times, fisher
    )


def _run_known_difficulty_cell(config, cell_idx, U, Q, snr_db):
    """Known-difficulty variant: d ~ N(0,1) treated as known, abilities estimated.

    Each trial's abilities come from one `known_difficulty_fit` of its
    U x Q responses; that fit also gives the analytical MSE, so it runs
    even when only the Fisher bound is selected.  The record carries the
    errors and wall times of the selected estimators only, as a standard
    cell's does.  `lmmse_jitter` is the largest jitter those fits added to
    C_y's diagonal, as a multiple of its mean (0.0 when none was needed).
    """
    sigma2 = snr_to_sigma2(snr_db)
    errs = np.empty(config.trials)
    predicted = np.empty(config.trials)
    fisher = np.empty(config.trials)
    times = dict.fromkeys(("lmmse", "fisher_bound"), 0.0)
    jitter = 0.0
    for trial in range(config.trials):
        rng = _trial_rng(config.seed, cell_idx, trial)
        d = rng.standard_normal(Q)
        a = rng.normal(scale=np.sqrt(sigma2), size=U)
        w = rng.standard_normal((U, Q))
        Y = np.where(a[:, None] - d[None, :] + w >= 0, 1.0, -1.0)
        model = KnownDifficultyModel(d=d, x_bar=0.0, sigma2_x=sigma2)
        t0 = time.perf_counter()
        sol = known_difficulty_fit(model, Y)
        t1 = time.perf_counter()
        if "fisher_bound" in config.estimators:
            fisher[trial] = fisher_known_difficulty_bound(d, sigma2)
        times["lmmse"] += t1 - t0
        times["fisher_bound"] += time.perf_counter() - t1
        jitter = max(jitter, sol.jitter)
        errs[trial] = float(np.mean((sol.estimate - a) ** 2))
        predicted[trial] = sol.predicted_mse
    selected = [e for e in times if e in config.estimators]
    cell = _cell_record(
        U, Q, snr_db, float(np.mean(predicted)),
        {"lmmse": errs} if "lmmse" in selected else {},
        {e: times[e] for e in selected},
        float(np.mean(fisher)) if "fisher_bound" in selected else None,
    )
    cell["lmmse_jitter"] = jitter
    return cell


def run_synthetic(config: SyntheticConfig, threads: int | None = None) -> ExperimentResult:
    """Run the synthetic grid study.

    Each (U, Q, snr) cell draws `trials` Rasch instances and accumulates
    per-trial mean squared errors on the ability components.  In
    known-difficulty mode each cell is its own task, holding its C_y and
    one trial's responses, U Q + Q^2 array entries.  In the standard mode
    each (U, Q) pattern holds U Q + min(U, Q)^2 entries, one trial's
    responses and its Schur complement, plus U Q latents per step for each
    of its pm_gibbs chains (cells x trials); its (cell, trial) pairs are
    cut into w near-equal contiguous slices, and each slice is one task
    that fits and samples its pairs (`_run_standard_slice`).  Either way
    the tasks run on w = `_workers(threads, entries)` threads, entries
    summed over the run.  The same count of latents projects the run's
    Gibbs CPU, (burn-in + samples) x (patterns x `_GIBBS_STEP_SECONDS` +
    latents x `_GIBBS_LATENT_SECONDS`); its wall time is about that over
    w.  A projection above `_GIBBS_WARN_SECONDS` is logged at WARNING
    before any task runs.  An estimator failure aborts its cell (recorded
    in the cell's `error` field) without stopping the run.  Deterministic
    for a given config, whatever the thread count; `threads` defaults to
    the CPU count.
    """
    indexed = [
        (cell_idx, *spec)
        for cell_idx, spec in enumerate(
            product(config.users_grid, config.items_grid, config.snr_db_grid)
        )
    ]
    if config.known_difficulties:
        def run_cell(cell):
            try:
                return _run_known_difficulty_cell(config, *cell)
            except Exception as err:  # recorded, not raised: other cells continue
                return _cell_head(*cell[1:], err)

        entries = sum(U * Q + Q * Q for _, U, Q, _ in indexed)
        cells = _thread_map(run_cell, indexed, _workers(threads, entries))
        return ExperimentResult(config=asdict(config), cells=cells)

    patterns = [list(run) for _, run in groupby(indexed, key=lambda c: c[1:3])]
    entries = latents = 0
    for pattern in patterns:
        _, U, Q, _ = pattern[0]
        entries += U * Q + min(U, Q) ** 2
        if "pm_gibbs" in config.estimators:
            latents += len(pattern) * config.trials * U * Q
    workers = _workers(threads, entries + latents)
    projected = (config.gibbs_burn_in + config.gibbs_samples) * (
        len(patterns) * _GIBBS_STEP_SECONDS + latents * _GIBBS_LATENT_SECONDS
    )
    if latents and projected > _GIBBS_WARN_SECONDS:
        logger.warning(
            "pm_gibbs with burn-in %d and %d samples projects to roughly "
            "%.1f minutes of sampling",
            config.gibbs_burn_in, config.gibbs_samples, projected / 60,
        )
    tasks = []
    for pattern in patterns:
        # Slice k of a pattern with n pairs is pairs [k n // w, (k + 1) n // w).
        n = len(pattern) * config.trials
        tasks += [(pattern, n * k // workers, n * (k + 1) // workers)
                  for k in range(workers)]
    logger.info(
        "simulate: %d pattern(s) in %d slice(s) on %d worker(s), %d entries "
        "(%d Gibbs latents per step)",
        len(patterns), len(tasks), workers, entries + latents, latents,
    )
    done = _thread_map(lambda task: _run_standard_slice(config, *task), tasks, workers)
    cells = []
    for i, pattern in enumerate(patterns):
        slices = done[i * workers : (i + 1) * workers]
        gibbs_err = next((e for _, e in slices if e is not None), None)
        for cell_idx, U, Q, snr_db in pattern:
            parts = [p[cell_idx] for p, _ in slices if cell_idx in p]
            cells.append(_standard_cell(config, U, Q, snr_db, parts, gibbs_err))
    return ExperimentResult(config=asdict(config), cells=cells)


def accuracy(predictions, labels) -> float:
    """Fraction of correct sign predictions at the p >= 0.5 threshold."""
    predictions = np.asarray(predictions, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if len(predictions) == 0:
        raise ValueError("empty input")
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels must have equal length")
    if np.any((predictions < 0) | (predictions > 1)):
        raise ValueError("predictions must be probabilities in [0, 1]")
    predicted_sign = np.where(predictions >= 0.5, 1.0, -1.0)
    return float(np.mean(predicted_sign == labels))


def auc(predictions, labels) -> float:
    """Area under the ROC curve via the rank (Mann-Whitney) statistic."""
    predictions = np.asarray(predictions, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels must have equal length")
    pos = labels > 0
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC requires both classes present")
    if np.isnan(predictions).any():
        return float("nan")  # no ranking; as scipy.stats.rankdata's NaN ranks
    # Average ranks of tied values (as scipy.stats.rankdata), 1-based.
    _, tie_group, counts = np.unique(
        predictions, return_inverse=True, return_counts=True
    )
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[tie_group]
    return float(
        (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    )


@dataclass(frozen=True)
class CvConfig:
    """Configuration for k-fold cross-validation over response pairs.

    Like `SyntheticConfig`, the one place that holds the study's defaults
    and checks, built by the CLI from its flags or from a JSON config file.
    Integer settings must be integers and the variances numbers (TypeError
    otherwise; a bool is not a number), and the Gibbs settings and the seed
    are checked as `GibbsConfig` checks them, so no fold fails because of
    a setting.
    """

    folds: int = 10
    seed: int = 0
    prior_variance_grid: tuple = (0.1, 0.25, 0.5, 1.0, 2.0)
    estimators: tuple = ("lmmse",)
    gibbs_burn_in: int = GibbsConfig.burn_in
    gibbs_samples: int = GibbsConfig.samples

    def __post_init__(self):
        _check_types(self, ("folds", "seed", "gibbs_burn_in", "gibbs_samples"))
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        grid = tuple(
            _as_variance(v, "prior_variance_grid") for v in self.prior_variance_grid
        )
        if not grid:
            raise ValueError("prior_variance_grid must be nonempty")
        object.__setattr__(self, "prior_variance_grid", grid)
        object.__setattr__(
            self, "estimators", _normalize_estimators(self.estimators, CV_ESTIMATORS)
        )
        if len(grid) > 1 and self.folds < 3:
            raise ValueError(
                "tuning over a variance grid needs folds >= 3 (one validation "
                "fold inside the training split)"
            )
        GibbsConfig(
            burn_in=self.gibbs_burn_in, samples=self.gibbs_samples, seed=self.seed
        )


@dataclass
class CvResult:
    """Cross-validation scores per estimator, plus fold-level diagnostics."""

    config: dict
    per_estimator: dict
    fallback_counts: list

    def to_json(self) -> str:
        return _json_text(
            {
                "config": self.config,
                "per_estimator": self.per_estimator,
                "fallback_counts": self.fallback_counts,
            }
        )

    def to_csv(self) -> str:
        return _csv_text(
            ["estimator", "fold", "acc", "auc", "selected_sigma2_x", "fallback_count"],
            (
                [name, f, *fold, self.fallback_counts[f]]
                for name, rec in self.per_estimator.items()
                for f, fold in enumerate(
                    zip(rec["acc_per_fold"], rec["auc_per_fold"], rec["selected_sigma2_x"])
                )
            ),
        )

    def summary_table(self) -> str:
        lines = [f"{'estimator':<12} {'ACC':>16} {'AUC':>16}"]
        for name, rec in self.per_estimator.items():
            acc = f"{rec['acc_mean']:.4f} ± {rec['acc_std']:.4f}"
            if rec["auc_mean"] is None:
                roc = "undefined"
            elif rec["auc_std"] is None:
                roc = f"{rec['auc_mean']:.4f}"
            else:
                roc = f"{rec['auc_mean']:.4f} ± {rec['auc_std']:.4f}"
            lines.append(f"{name:<12} {acc:>16} {roc:>16}")
        return "\n".join(lines)


def _subset(data, idx):
    return (
        data.users[idx],
        data.items[idx],
        data.responses[idx],
    )


def _training_set(data, idx):
    """data's responses at idx, as a ResponseSet of data's dimensions."""
    users, items, responses = _subset(data, idx)
    return ResponseSet(
        users=users,
        items=items,
        responses=responses,
        num_users=data.num_users,
        num_items=data.num_items,
    )


def _predict(fit, users, items):
    """P(y = +1) for each (user, item) pair under `fit_response_set`'s fit."""
    return norm_cdf(fit["abilities"][users] - fit["difficulties"][items])


def fit_response_set(
    data: ResponseSet,
    estimator: str = "lmmse",
    sigma2_x: float = 1.0,
    gibbs_config: GibbsConfig | None = None,
) -> dict:
    """Fit abilities and difficulties to an observed ResponseSet.

    The one estimator dispatch of `fit`, `crossval` and `simulate`.  lmmse
    runs the exact Woodbury solver (`rasch_lmmse_fit`); map and
    logit_map run the structured Newton solver (`rasch_map_fit`, probit or
    logit link); pm_gibbs runs the structured Gibbs sampler
    (`rasch_pm_gibbs`).  None of them builds a design matrix, and each
    returns exactly the prior mean 0 for users and items with no
    responses.  Empty data raises ValueError in the solver.

    Returns a dict with `abilities`, `difficulties`, `predicted_mse`
    (total; exact for lmmse, None for the other estimators),
    `per_component_mse` when available, `solver` (the solver path; for
    lmmse the side kept by its Schur complement and that side's size; for
    MAP its Newton iterations, final gradient norm, whether it stopped
    at the machine-precision floor, the Schur factors it built and its PCG
    iterations) and `wall_time_seconds`.
    """
    if estimator not in CV_ESTIMATORS:
        raise ValueError(
            f"unknown estimator {estimator!r}; allowed: {', '.join(CV_ESTIMATORS)}"
        )
    design = RaschDesign(
        U=data.num_users, Q=data.num_items, sigma2_a=sigma2_x, sigma2_d=sigma2_x
    )
    predicted_mse = None
    per_component = None
    t0 = time.perf_counter()
    if estimator == "lmmse":
        sol = rasch_lmmse_fit(design, data)
        est = sol.estimate
        predicted_mse = sol.predicted_mse
        per_component = sol.per_component_mse
        solver = dict(sol.metadata)
    elif estimator == "pm_gibbs":
        est = rasch_pm_gibbs(design, data, gibbs_config)
        solver = {"path": "rasch_gibbs"}
    else:
        link = "logit" if estimator == "logit_map" else "probit"
        sol = rasch_map_fit(design, data, MapConfig(link=link))
        est = sol.estimate
        solver = {
            "path": "rasch_newton",
            "iterations": sol.iterations,
            "gradient_norm": sol.gradient_norm,
            "at_floor": sol.at_floor,
            "factorizations": sol.factorizations,
            "cg_iterations": sol.cg_iterations,
        }
    wall = time.perf_counter() - t0
    abilities, difficulties = split_estimate(design, est)
    return {
        "abilities": abilities,
        "difficulties": difficulties,
        "predicted_mse": predicted_mse,
        "per_component_mse": per_component,
        "solver": solver,
        "wall_time_seconds": wall,
    }


def _score_auc_or_acc(pred, labels):
    """AUC when defined, ACC otherwise (single-class validation folds)."""
    try:
        return auc(pred, labels)
    except ValueError:
        return accuracy(pred, labels)


def run_cross_validation(
    data: ResponseSet, config: CvConfig, threads: int | None = None
) -> CvResult:
    """K-fold cross-validation of response prediction on held-out pairs.

    For each fold: the fold is the test set; the next fold (cyclically)
    inside the training split is the validation set used to select
    sigma2_x per estimator (by AUC); the estimator is refit on the full
    training split at the selected variance and scored on the test fold
    with ACC and AUC.  Users/items absent from training fall back to the
    prior mean 0 (counted per fold).  Each estimator's record holds the
    `solver` record of each fold's final fit (`solver_per_fold`), and
    lmmse's record also holds, per fold,
    the mean exact predicted MSE of the final fit's abilities and of its
    difficulties (from its `per_component_mse`).  The folds run on `_workers(threads,
    entries)` threads, each fold holding len(data) + min(num_users,
    num_items)^2 entries: its responses and its Schur complement;
    `threads` defaults to the CPU count.
    """
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(data))
    fold_idx = np.array_split(perm, config.folds)
    if any(len(f) == 0 for f in fold_idx):
        raise ValueError("more folds than observations")

    def run_fold(f):
        test = fold_idx[f]
        val_f = (f + 1) % config.folds
        train_folds = [k for k in range(config.folds) if k != f]
        tune_folds = [k for k in train_folds if k != val_f]
        # One training set per split, shared by every estimator and variance.
        train = _training_set(data, np.concatenate([fold_idx[k] for k in train_folds]))
        grid = config.prior_variance_grid
        if len(grid) > 1:
            tune = _training_set(data, np.concatenate([fold_idx[k] for k in tune_folds]))
            val_u, val_i, val_y = _subset(data, fold_idx[val_f])

        test_u, test_i, test_y = _subset(data, test)
        seen_u = np.bincount(train.users, minlength=data.num_users) > 0
        seen_i = np.bincount(train.items, minlength=data.num_items) > 0
        fallback = int(np.count_nonzero(~(seen_u[test_u] & seen_i[test_i])))

        fold_out = {}
        gibbs_config = _gibbs_config(config, f, 2)
        for name in config.estimators:
            if len(grid) > 1:
                scores = []
                for sigma2 in grid:
                    out = fit_response_set(
                        tune, name, sigma2_x=sigma2, gibbs_config=gibbs_config
                    )
                    pred = _predict(out, val_u, val_i)
                    scores.append(_score_auc_or_acc(pred, val_y))
                selected = grid[int(np.argmax(scores))]
            else:
                selected = grid[0]

            t0 = time.perf_counter()
            out = fit_response_set(train, name, sigma2_x=selected, gibbs_config=gibbs_config)
            pred = _predict(out, test_u, test_i)
            runtime = time.perf_counter() - t0
            acc_val = accuracy(pred, test_y)
            try:
                auc_val = auc(pred, test_y)
            except ValueError:
                auc_val = None
            fold_out[name] = {
                "acc": acc_val,
                "auc": auc_val,
                "selected_sigma2_x": selected,
                "runtime_seconds": runtime,
                "per_component_mse": out["per_component_mse"],
                "solver": out["solver"],
            }
        return fold_out, fallback

    entries = config.folds * (len(data) + min(data.num_users, data.num_items) ** 2)
    results = _thread_map(run_fold, range(config.folds), _workers(threads, entries))

    fallback_counts = [r[1] for r in results]
    per_estimator = {}
    for name in config.estimators:
        accs = [r[0][name]["acc"] for r in results]
        aucs = [r[0][name]["auc"] for r in results]
        defined = [v for v in aucs if v is not None]
        per_estimator[name] = {
            "acc_mean": float(np.mean(accs)),
            "acc_std": float(np.std(accs, ddof=1)),
            "auc_mean": float(np.mean(defined)) if defined else None,
            "auc_std": (
                float(np.std(defined, ddof=1)) if len(defined) > 1 else None
            ),
            "acc_per_fold": accs,
            "auc_per_fold": aucs,
            "selected_sigma2_x": [r[0][name]["selected_sigma2_x"] for r in results],
            "runtime_seconds": [r[0][name]["runtime_seconds"] for r in results],
            "solver_per_fold": [r[0][name]["solver"] for r in results],
            "auc_undefined_folds": [
                f for f, v in enumerate(aucs) if v is None
            ],
        }
        if name == "lmmse":
            # The exact predicted MSE of each fold's final fit, averaged per
            # block: users first, then items.
            per_comp = [r[0][name]["per_component_mse"] for r in results]
            per_estimator[name].update(
                predicted_mse_ability_mean_per_fold=[
                    float(np.mean(p[: data.num_users])) for p in per_comp
                ],
                predicted_mse_difficulty_mean_per_fold=[
                    float(np.mean(p[data.num_users :])) for p in per_comp
                ],
            )
    return CvResult(
        config=asdict(config),
        per_estimator=per_estimator,
        fallback_counts=fallback_counts,
    )
