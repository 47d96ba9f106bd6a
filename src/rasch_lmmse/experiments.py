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
import operator
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
from .data import ResponseSet
from .linear_probit import lmmse_fit
from .rasch import (
    KnownDifficultyModel,
    RaschDesign,
    _full_response_set,
    _one_column_model,
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
    ValueError unless that variance is finite and positive.
    """
    try:
        sigma2 = 10.0 ** (float(snr_db) / 10.0) / 2.0
    except OverflowError:
        sigma2 = math.inf
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(
            f"snr_db {snr_db!r} gives sigma2_x {sigma2!r}; "
            "the prior variance must be finite and positive"
        )
    return sigma2


def _check_types(config, ints, bools=()):
    """Replace each field in `ints` by its exact int value and require each
    field in `bools` to be a bool; TypeError otherwise."""
    for name in ints:
        object.__setattr__(config, name, operator.index(getattr(config, name)))
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
    one.  Integer settings must be integers and flags bools (TypeError
    otherwise).  The Gibbs settings and the seed are checked as
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
    gibbs_burn_in: int = 10_000
    gibbs_samples: int = 20_000
    include_difficulty_mse: bool = False

    def __post_init__(self):
        for name in ("users_grid", "items_grid"):
            object.__setattr__(
                self, name, tuple(operator.index(v) for v in getattr(self, name))
            )
        object.__setattr__(
            self, "snr_db_grid", tuple(float(s) for s in self.snr_db_grid)
        )
        for snr_db in self.snr_db_grid:
            snr_to_sigma2(snr_db)
        _check_types(
            self,
            ("trials", "seed", "gibbs_burn_in", "gibbs_samples"),
            ("known_difficulties", "include_difficulty_mse"),
        )
        if not (self.users_grid and self.items_grid and self.snr_db_grid):
            raise ValueError("grids must be nonempty")
        if any(u < 1 for u in self.users_grid) or any(q < 1 for q in self.items_grid):
            raise ValueError("users and items must be positive")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
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
            "predicted_lmmse_mse",
        ]
        for name in self.config["estimators"]:
            if name == "fisher_bound":
                continue
            stem = _STEM[name]
            cols += [f"empirical_{stem}_mse", f"empirical_{stem}_stderr"]
        if "fisher_bound" in self.config["estimators"]:
            cols.append("fisher_bound")
        if self.config.get("include_difficulty_mse"):
            cols.append("analytical_difficulty_mse")
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


# Latents per step of one Gibbs block, T chains x M responses: bounds each
# (T, M) array of a simulate block at 8 MB.
_GIBBS_BLOCK_LATENTS = 1 << 20
# Array entries that a simulate or crossval stage's concurrent calls must
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
    """Worker threads for a stage whose concurrent calls hold `entries`
    array entries in all: one per `_WORKER_ENTRIES`, at least one and at
    most `threads`."""
    return max(1, min(threads or 1, entries // _WORKER_ENTRIES))


def _thread_map(func, tasks, workers):
    """[func(t) for t in tasks], on the calling thread for one worker and on
    a pool of `workers` threads otherwise."""
    if workers == 1:
        return [func(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, tasks))


def _trial_rng(seed, cell_idx, trial_idx):
    return np.random.default_rng(np.random.SeedSequence((seed, cell_idx, trial_idx)))


def _gibbs_seed(seed, cell_idx, trial_idx):
    ss = np.random.SeedSequence((seed, cell_idx, trial_idx, 1))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _error_cell(U, Q, snr_db, err):
    """The record of a cell that an estimator failure aborted."""
    return {
        "U": U,
        "Q": Q,
        "snr_db": snr_db,
        "sigma2_x": snr_to_sigma2(snr_db),
        "error": f"{type(err).__name__}: {err}",
    }


class _Pattern:
    """One (U, Q) pattern between the fit and the Gibbs phases: its cells
    (cell_idx, U, Q, snr_db), the records of its failed cells, the cells
    that reached the Gibbs phase, their pm_gibbs chains and the pattern's
    ResponseSet (None until a chain is collected)."""

    def __init__(self, cells):
        self.cells = cells
        self.records = {}
        self.reached = []
        self.chains = []
        self.data = None

    def finish(self, config):
        """The pattern's cell records, in the order of its cells."""
        for cell_idx, snr_db, design, errs, times, _ in self.reached:
            self.records[cell_idx] = _standard_record(config, snr_db, design, errs, times)
        return [self.records[cell[0]] for cell in self.cells]


def _run_standard_pattern(config, cells):
    """Draws and fits of every SNR cell of one full U x Q design; cells holds
    (cell_idx, U, Q, snr_db).

    Each trial's U x Q responses become one ResponseSet, which lmmse and
    map fit through `fit_response_set`.  pm_gibbs is left to the Gibbs
    phase (`_run_gibbs_phase`): the pattern's chains are collected here,
    one per trial, with its cell's prior and the trial's own seed, each
    cell's chains a contiguous run.  A failure aborts its cell.  Returns
    the pattern's `_Pattern`.
    """
    point = [e for e in config.estimators if e != "fisher_bound"]
    fitted = [e for e in point if e != "pm_gibbs"]
    pattern = _Pattern(cells)
    for cell_idx, U, Q, snr_db in cells:
        sigma2 = snr_to_sigma2(snr_db)
        design = RaschDesign(U=U, Q=Q, sigma2_a=sigma2, sigma2_d=sigma2)
        errs = {e: np.empty(config.trials) for e in point}
        times = dict.fromkeys(point, 0.0)
        truth, responses = [], []
        try:
            for trial in range(config.trials):
                rng = _trial_rng(config.seed, cell_idx, trial)
                a = rng.normal(scale=np.sqrt(sigma2), size=U)
                d = rng.normal(scale=np.sqrt(sigma2), size=Q)
                w = rng.standard_normal((U, Q))
                Y = np.where(a[:, None] - d[None, :] + w >= 0, 1.0, -1.0)
                data = _full_response_set(design, Y)
                for name in fitted:
                    out = fit_response_set(data, name, sigma2_x=sigma2)
                    times[name] += out["wall_time_seconds"]
                    errs[name][trial] = float(np.mean((out["abilities"] - a) ** 2))
                truth.append(a)
                responses.append(data.responses)
        except Exception as err:  # recorded, not raised: other cells continue
            pattern.records[cell_idx] = _error_cell(U, Q, snr_db, err)
            continue
        pattern.reached.append((cell_idx, snr_db, design, errs, times, truth))
        if "pm_gibbs" in point:
            # Every trial's ResponseSet has the pattern; the last one drawn serves.
            pattern.data = data
            pattern.chains += [
                (design, y, GibbsConfig(
                    burn_in=config.gibbs_burn_in,
                    samples=config.gibbs_samples,
                    seed=_gibbs_seed(config.seed, cell_idx, trial),
                ))
                for trial, y in enumerate(responses)
            ]
    return pattern


def _run_gibbs_phase(config, patterns, threads):
    """Run the pm_gibbs chains of every pattern and store each cell's errors.

    The phase's entries are L, the latents per step over all chains
    (chains x responses, summed over patterns), and `_workers` sizes it.
    With one worker each pattern's blocks run one after another on the
    calling thread; with w > 1 each pattern's chains are cut into w
    near-equal contiguous slices and worker k runs slice k of every
    pattern.  Each slice runs in blocks of at most
    `_GIBBS_BLOCK_LATENTS` latents (`baselines._rasch_gibbs_block`).  A
    chain's draws do not depend on its block or slice, so neither do the
    results.  A cell's pm_gibbs wall time is its share of the phase's wall
    time, in proportion to its latents per step.  A failure in any slice
    aborts every cell of its pattern that reached the phase, and only
    those; with several, the first slice's failure is recorded.
    """
    work = [p for p in patterns if p.chains]
    if not work:
        return
    latents = sum(len(p.chains) * len(p.data) for p in work)
    workers = _workers(threads, latents)
    # Slice k of a pattern with n chains is chains [k n // w, (k + 1) n // w).
    bounds = [
        [len(p.chains) * k // workers for k in range(workers + 1)] for p in work
    ]
    per_block = [max(1, _GIBBS_BLOCK_LATENTS // len(p.data)) for p in work]
    logger.info(
        "gibbs phase: %d worker(s), %d latents per step, %d block(s)",
        workers, latents,
        sum(-(-(hi - lo) // n) for b, n in zip(bounds, per_block)
            for lo, hi in zip(b, b[1:])),
    )

    def run_slice(k):
        out = []
        for p, b, n in zip(work, bounds, per_block):
            try:
                out.append([
                    _rasch_gibbs_block(p.data, p.chains[start : min(start + n, b[k + 1])])
                    for start in range(b[k], b[k + 1], n)
                ])
            except Exception as err:  # recorded, not raised: other patterns continue
                out.append(err)
        return out

    t0 = time.perf_counter()
    slices = _thread_map(run_slice, range(workers), workers)
    per_latent = (time.perf_counter() - t0) / latents
    for j, p in enumerate(work):
        parts = [s[j] for s in slices]
        err = next((e for e in parts if isinstance(e, Exception)), None)
        if err is not None:
            for cell_idx, snr_db, design, *_ in p.reached:
                p.records[cell_idx] = _error_cell(design.U, design.Q, snr_db, err)
            p.reached = []
            continue
        means = np.concatenate([m for part in parts for m in part])
        for k, (_, _, design, errs, times, truth) in enumerate(p.reached):
            rows = means[k * config.trials : (k + 1) * config.trials, : design.U]
            errs["pm_gibbs"][:] = [np.mean((x - a) ** 2) for x, a in zip(rows, truth)]
            times["pm_gibbs"] = per_latent * config.trials * len(p.data)


def _standard_record(config, snr_db, design, errs, times):
    """A full-design cell's record from its per-trial ability errors."""
    U, Q, sigma2 = design.U, design.Q, design.sigma2_a
    mse_a, mse_d = rasch_closed_form_mse(design)
    cell = {
        "U": U,
        "Q": Q,
        "snr_db": snr_db,
        "sigma2_x": sigma2,
        "analytical_lmmse_mse": mse_a,
        "predicted_lmmse_mse": mse_a,
        "error": None,
    }
    if config.include_difficulty_mse:
        cell["analytical_difficulty_mse"] = mse_d
    for name, e in errs.items():
        stem = _STEM[name]
        cell[f"empirical_{stem}_mse"] = float(np.mean(e))
        cell[f"empirical_{stem}_stderr"] = (
            float(np.std(e, ddof=1) / np.sqrt(config.trials))
            if config.trials > 1
            else None
        )
    if "fisher_bound" in config.estimators:
        t0 = time.perf_counter()
        cell["fisher_bound"] = fisher_rasch_ability_bound(U, Q, sigma2)
        times["fisher_bound"] = time.perf_counter() - t0
    cell["wall_time_seconds"] = {k: round(v, 6) for k, v in times.items()}
    return cell


def _run_known_difficulty_cell(config, cell_idx, U, Q, snr_db):
    """Known-difficulty variant: d ~ N(0,1) treated as known, abilities estimated.

    Each user's ability is the general L-MMSE fit on the one-column model
    D = 1_Q, m = -d.  The fit is linear, a_hat = W y + b, and (W, b) depend
    only on d, so one fit per trial gives the weights for all U users.
    """
    sigma2 = snr_to_sigma2(snr_db)
    errs = np.empty(config.trials)
    predicted = np.empty(config.trials)
    fisher = np.empty(config.trials)
    t_lmmse = 0.0
    for trial in range(config.trials):
        rng = _trial_rng(config.seed, cell_idx, trial)
        d = rng.standard_normal(Q)
        a = rng.normal(scale=np.sqrt(sigma2), size=U)
        w = rng.standard_normal((U, Q))
        Y = np.where(a[:, None] - d[None, :] + w >= 0, 1.0, -1.0)
        model = _one_column_model(
            KnownDifficultyModel(d=d, x_bar=0.0, sigma2_x=sigma2)
        )
        t0 = time.perf_counter()
        sol = lmmse_fit(model, Y[0])
        a_hat = Y @ sol.W[0] + sol.b[0]
        t_lmmse += time.perf_counter() - t0
        errs[trial] = float(np.mean((a_hat - a) ** 2))
        predicted[trial] = sol.predicted_mse
        if "fisher_bound" in config.estimators:
            fisher[trial] = fisher_known_difficulty_bound(d, sigma2)
    cell = {
        "U": U,
        "Q": Q,
        "snr_db": snr_db,
        "sigma2_x": sigma2,
        "analytical_lmmse_mse": float(np.mean(predicted)),
        "predicted_lmmse_mse": float(np.mean(predicted)),
        "empirical_lmmse_mse": float(np.mean(errs)),
        "empirical_lmmse_stderr": (
            float(np.std(errs, ddof=1) / np.sqrt(config.trials))
            if config.trials > 1
            else None
        ),
        "error": None,
        "wall_time_seconds": {"lmmse": round(t_lmmse, 6)},
    }
    if "fisher_bound" in config.estimators:
        cell["fisher_bound"] = float(np.mean(fisher))
    return cell




def run_synthetic(config: SyntheticConfig, threads: int | None = None) -> ExperimentResult:
    """Run the synthetic grid study.

    Each (U, Q, snr) cell draws `trials` Rasch instances and accumulates
    per-trial mean squared errors on the ability components.  The standard
    mode runs in two phases.  First one task per (U, Q) pattern draws
    every SNR cell of a full U x Q design, fits lmmse and map and collects
    the pm_gibbs chains (`_run_standard_pattern`).  Then one Gibbs phase
    runs the chains of every pattern (`_run_gibbs_phase`).  In
    known-difficulty mode each cell is its own task.  Each stage runs on
    `_workers(threads, entries)` threads, entries summing over its tasks
    one trial's responses and its Schur complement, U Q + min(U, Q)^2 per
    pattern, or its C_y, U Q + Q^2 per known-difficulty cell.  An
    estimator failure aborts its cell (recorded in the cell's `error`
    field) without stopping the run.  Deterministic for a given config,
    regardless of thread count.
    """
    indexed = [
        (cell_idx, *spec)
        for cell_idx, spec in enumerate(
            product(config.users_grid, config.items_grid, config.snr_db_grid)
        )
    ]
    if config.known_difficulties:
        tasks = indexed
        entries = sum(U * Q + Q * Q for _, U, Q, _ in tasks)

        def run_task(cell):
            try:
                return _run_known_difficulty_cell(config, *cell)
            except Exception as err:  # recorded, not raised: other cells continue
                return _error_cell(*cell[1:], err)
    else:
        tasks = [list(run) for _, run in groupby(indexed, key=lambda c: c[1:3])]
        entries = sum(U * Q + min(U, Q) ** 2 for (_, U, Q, _), *_ in tasks)

        def run_task(cells):
            return _run_standard_pattern(config, cells)

    done = _thread_map(run_task, tasks, _workers(threads, entries))
    if not config.known_difficulties:
        _run_gibbs_phase(config, done, threads)
        done = [cell for pattern in done for cell in pattern.finish(config)]
    return ExperimentResult(config=asdict(config), cells=done)


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
    Integer settings must be integers, and the Gibbs settings and the seed
    are checked as `GibbsConfig` checks them, so no fold fails because of
    a setting.
    """

    folds: int = 10
    seed: int = 0
    prior_variance_grid: tuple = (0.1, 0.25, 0.5, 1.0, 2.0)
    estimators: tuple = ("lmmse",)
    gibbs_burn_in: int = 10_000
    gibbs_samples: int = 20_000

    def __post_init__(self):
        _check_types(self, ("folds", "seed", "gibbs_burn_in", "gibbs_samples"))
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        grid = tuple(float(v) for v in self.prior_variance_grid)
        if not grid or not all(math.isfinite(v) and v > 0 for v in grid):
            raise ValueError(
                "prior_variance_grid must be nonempty, finite and positive"
            )
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


def _fit_estimator(name, data, idx, sigma2_x, gibbs_config):
    """Fit one estimator on data[idx]; returns (abilities, difficulties)."""
    users, items, responses = _subset(data, idx)
    train = ResponseSet(
        users=users,
        items=items,
        responses=responses,
        num_users=data.num_users,
        num_items=data.num_items,
    )
    out = fit_response_set(
        train, name, sigma2_x=sigma2_x, gibbs_config=gibbs_config
    )
    return out["abilities"], out["difficulties"]


def _predict(abilities, difficulties, users, items):
    return norm_cdf(abilities[users] - difficulties[items])


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
    MAP its Newton iterations, final gradient norm and whether it stopped
    at the machine-precision floor) and `wall_time_seconds`.
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
    prior mean 0 (counted per fold).  The folds run on `_workers(threads,
    entries)` threads, each fold holding len(data) + min(num_users,
    num_items)^2 entries: its responses and its Schur complement.
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
        train_all = np.concatenate([fold_idx[k] for k in train_folds])
        grid = config.prior_variance_grid
        if len(grid) > 1:
            tune_train = np.concatenate([fold_idx[k] for k in tune_folds])
            val = fold_idx[val_f]
        else:
            tune_train = train_all
            val = None

        test_u, test_i, test_y = _subset(data, test)
        seen_u = np.bincount(data.users[train_all], minlength=data.num_users) > 0
        seen_i = np.bincount(data.items[train_all], minlength=data.num_items) > 0
        fallback = int(np.count_nonzero(~(seen_u[test_u] & seen_i[test_i])))

        fold_out = {}
        for name in config.estimators:
            gibbs_config = GibbsConfig(
                burn_in=config.gibbs_burn_in,
                samples=config.gibbs_samples,
                seed=int(
                    np.random.SeedSequence((config.seed, f, 2)).generate_state(
                        1, dtype=np.uint64
                    )[0]
                ),
            )
            if val is not None:
                scores = []
                val_u, val_i, val_y = _subset(data, val)
                for sigma2 in grid:
                    ab, diff = _fit_estimator(
                        name, data, tune_train, sigma2, gibbs_config
                    )
                    pred = _predict(ab, diff, val_u, val_i)
                    scores.append(_score_auc_or_acc(pred, val_y))
                selected = grid[int(np.argmax(scores))]
            else:
                selected = grid[0]

            t0 = time.perf_counter()
            ab, diff = _fit_estimator(
                name, data, train_all, selected, gibbs_config
            )
            pred = _predict(ab, diff, test_u, test_i)
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
            "auc_undefined_folds": [
                f for f, v in enumerate(aucs) if v is None
            ],
        }
    return CvResult(
        config=asdict(config),
        per_estimator=per_estimator,
        fallback_counts=fallback_counts,
    )
