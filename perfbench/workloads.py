"""The benchmark's workloads: inputs, timed CLI commands and output checks.

Each workload writes its inputs once per set-up (`make_inputs`), names the
CLI commands its timed section runs (`commands`), and checks one
repetition's outputs afterwards (`check`).  Checks report one entry per
operation: a CLI command, a simulate cell, or a crossval fold x estimator.

Why these workloads (the layers each stresses and bypasses):

- ml100k_like: `fit` and `crossval` on a MovieLens-100k-shaped response
  set, the only large sparse instance.  `linear_probit.sparse_cy` plus CG
  dominates `fit`; `crossval` adds `baselines.map_fit` at N = 2625 and the
  fold thread pool.  `specfun` and `pm_gibbs` never run here.
- sim_gibbs: the full-design simulate study with the Gibbs posterior mean.
  `baselines.pm_gibbs` dominates and the `experiments` thread pool decides
  CPU use.  The full-data fit takes the Kronecker path, so the sparse
  solver is bypassed.
- sim_known_d: the known-difficulty simulate study plus `analyze` on
  difficulty files: hundreds of small dense solves, and the only workload
  where `specfun.binorm_cdf` runs.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import inputs
from rasch_lmmse.baselines import GibbsConfig, pm_exact, pm_gibbs
from rasch_lmmse.data import ResponseSet
from rasch_lmmse.experiments import snr_to_sigma2
from rasch_lmmse.linear_probit import (
    GeneralProbitModel,
    lmmse_fit,
    lmmse_predicted_mse,
)
from rasch_lmmse.rasch import (
    RaschDesign,
    rasch_closed_form_mse,
    rasch_design_matrix,
    rasch_fast_lmmse_fit,
)

# Tolerances fixed by what each path guarantees: the sparse fit solves
# with CG to relative residual 1e-10; the known-difficulty MSE and the
# one-column general model share every formula but the order of sums.
FIT_VS_DENSE_ATOL = 1e-7
KNOWN_D_MSE_ATOL = 1e-10
# The Kronecker fit and the dense fit are both exact; only rounding differs.
KRON_VS_DENSE_ATOL = 1e-9
# With 10,000 draws the Gibbs mean of the two-parameter check model stayed
# within 5.3 % (median 1.4 %) of the exact posterior mean over seeds 1-40;
# a sampler stuck at the prior mean misses it by 100 %.
GIBBS_VS_EXACT_RTOL = 0.2
# Per simulate cell, the MSE of PM (the MMSE estimator) and of MAP over
# 2 trials x 20 users stayed within 0.52-1.10 of L-MMSE's on seeds 1-4;
# a sampler returning the prior mean scored 3.2-19 times it (seed 3).
EST_VS_LMMSE_MAX_RATIO = 1.5


class Checks:
    """Operations attempted and the failure messages of each.

    An operation is a CLI command, a simulate cell or a crossval
    fold x estimator.  Reporting again under the same label adds to the
    same operation, so a command fails on its exit code or on any check
    of its outputs.  `prefix` tells the repetitions of a run apart.
    """

    def __init__(self):
        self.ops = {}
        self.prefix = ""

    def op(self, label, ok, message=""):
        failures = self.ops.setdefault(self.prefix + label, [])
        if not ok:
            failures.append(message)
        return ok

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failures(self):
        return [f"{label}: {'; '.join(m)}" for label, m in self.ops.items() if m]


def _finite(v):
    return v is not None and math.isfinite(v)


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _check_simulate(checks, path, label, extra=None):
    """One op per simulate cell; returns the cells that passed."""
    with open(path) as handle:
        cells = json.load(handle)["cells"]
    stems = {"lmmse": "lmmse", "map": "map", "pm_gibbs": "pm"}
    good = []
    for cell in cells:
        name = f"{label} cell U={cell['U']} Q={cell['Q']} snr={cell['snr_db']}"
        if cell.get("error") is not None:
            checks.op(name, False, f"error {cell['error']}")
            continue
        bad = [
            key for key in (f"empirical_{stems[e]}_mse" for e in stems)
            if key in cell and not _finite(cell[key])
        ]
        if "empirical_lmmse_mse" not in cell:
            bad.append("empirical_lmmse_mse missing")
        message = extra(cell) if extra and not bad else ""
        if checks.op(name, not bad and not message, "; ".join(bad) or message):
            good.append(cell)
    return cells, good


def _sim_rmse(cells):
    # sqrt of the mean empirical L-MMSE ability MSE over the grid cells.
    return math.sqrt(float(np.mean([c["empirical_lmmse_mse"] for c in cells])))


class Workload:
    """Defaults for a workload without inputs, references or extra checks."""

    def make_inputs(self, seed, directory):
        return {}

    def prepare(self, seed, in_dir):
        return {}

    def extra_ops(self, seed, in_dir, out_dir, run_cli, checks):
        pass


class MovieLensLike(Workload):
    name = "ml100k_like"
    folds = 2
    estimators = ("lmmse", "map")

    def make_inputs(self, seed, directory):
        data = inputs.movielens_like(seed)
        inputs.write_triplets(os.path.join(directory, "responses.csv"), data)
        np.savez(
            os.path.join(directory, "truth.npz"),
            a=data["a"], d=data["d"],
            user_ids=data["user_ids"], item_ids=data["item_ids"],
        )
        inputs.write_triplets(os.path.join(directory, "small.csv"),
                              inputs.skewed_small(seed))
        return {"shape": inputs.shape_summary(data)}

    def commands(self, seed, in_dir, out_dir):
        data = os.path.join(in_dir, "responses.csv")
        return [
            ("fit", ["fit", "--data", data, "--estimator", "lmmse",
                     "--output", os.path.join(out_dir, "fit.csv")]),
            ("crossval", ["crossval", "--data", data,
                          "--estimators", ",".join(self.estimators),
                          "--folds", str(self.folds), "--sigma2-grid", "1.0",
                          "--seed", str(seed), "--format", "json",
                          "--output", os.path.join(out_dir, "crossval.json")]),
        ]

    def check(self, seed, in_dir, out_dir, checks, cache):
        """Fit rows and IDs, crossval folds, and the accuracy metrics."""
        truth = np.load(os.path.join(in_dir, "truth.npz"))
        want = {
            "ability": dict(zip(map(str, truth["user_ids"]), truth["a"])),
            "difficulty": dict(zip(map(str, truth["item_ids"]), truth["d"])),
        }
        rows = _read_csv(os.path.join(out_dir, "fit.csv"))
        got = {"ability": {}, "difficulty": {}}
        for row in rows:
            got.setdefault(row["kind"], {})[row["id"]] = float(row["estimate"])
        seen_u, seen_i = cache["seen"]
        problems = []
        if len(rows) != len(seen_u) + len(seen_i):
            problems.append(f"{len(rows)} rows, expected {len(seen_u) + len(seen_i)}")
        if set(got["ability"]) != seen_u or set(got["difficulty"]) != seen_i:
            problems.append("IDs differ from the input's")
        if not all(math.isfinite(v) for kind in got.values() for v in kind.values()):
            problems.append("non-finite estimate")
        metrics = {}
        if checks.op("fit", not problems, "; ".join(problems)):
            err = [got[k][i] - want[k][i] for k in got for i in got[k]]
            metrics["lmmse_rmse"] = math.sqrt(float(np.mean(np.square(err))))

        with open(os.path.join(out_dir, "crossval.json")) as handle:
            per_est = json.load(handle)["per_estimator"]
        for name in self.estimators:
            aucs = per_est.get(name, {}).get("auc_per_fold", [])
            for f in range(self.folds):
                v = aucs[f] if f < len(aucs) else None
                checks.op(f"crossval {name} fold {f}",
                          v is not None and 0.5 < v <= 1.0, f"AUC {v}")
        if "lmmse" in per_est and per_est["lmmse"]["auc_mean"] is not None:
            metrics["cv_auc"] = per_est["lmmse"]["auc_mean"]
        return metrics

    def prepare(self, seed, in_dir):
        """Reference data shared by the checks of every repetition."""
        rows = _read_csv(os.path.join(in_dir, "responses.csv"))
        return {"seen": ({r["user"] for r in rows}, {r["item"] for r in rows})}

    def extra_ops(self, seed, in_dir, out_dir, run_cli, checks):
        """`fit` on a small skewed set equals the dense exact L-MMSE fit."""
        path = os.path.join(in_dir, "small.csv")
        out = os.path.join(out_dir, "small_fit.csv")
        label = "fit small skewed vs dense lmmse_fit"
        rc = run_cli(["fit", "--data", path, "--estimator", "lmmse", "--output", out])
        if not checks.op(label, rc == 0, f"exit {rc}"):
            return
        rows = _read_csv(path)
        user_ids = sorted({r["user"] for r in rows}, key=int)
        item_ids = sorted({r["item"] for r in rows}, key=int)
        uix = {u: k for k, u in enumerate(user_ids)}
        iix = {i: k for k, i in enumerate(item_ids)}
        data = ResponseSet(
            users=[uix[r["user"]] for r in rows],
            items=[iix[r["item"]] for r in rows],
            responses=[float(r["response"]) for r in rows],
            num_users=len(user_ids), num_items=len(item_ids),
        )
        design = RaschDesign(U=data.num_users, Q=data.num_items,
                             sigma2_a=1.0, sigma2_d=1.0)
        model = rasch_design_matrix(design, observed=data, sparse=False)
        est = lmmse_fit(model, data.responses).estimate
        want = {("ability", u): est[k] for u, k in uix.items()}
        want.update({("difficulty", i): -est[data.num_users + k]
                     for i, k in iix.items()})
        got = {(r["kind"], r["id"]): float(r["estimate"]) for r in _read_csv(out)}
        worst = max((abs(got[key] - v) for key, v in want.items() if key in got),
                    default=math.inf)
        checks.op(label, got.keys() == want.keys() and worst <= FIT_VS_DENSE_ATOL,
                  f"max |diff| {worst:.3g}, {len(got)} rows for {len(want)} parameters")


class SimGibbs(Workload):
    name = "sim_gibbs"

    def commands(self, seed, in_dir, out_dir):
        return [
            ("simulate", ["simulate", "--users", "20", "--items", "20,50",
                          "--snr-db", "-10,0,10", "--trials", "2",
                          "--estimators", "lmmse,map,pm_gibbs,fisher_bound",
                          "--gibbs-burnin", "1000", "--gibbs-samples", "2000",
                          "--seed", str(seed), "--format", "json",
                          "--output", os.path.join(out_dir, "simulate.json")]),
        ]

    def check(self, seed, in_dir, out_dir, checks, cache):
        def closed_form(cell):
            s2 = cell["sigma2_x"]
            want = rasch_closed_form_mse(RaschDesign(cell["U"], cell["Q"], s2, s2))[0]
            got = cell["analytical_lmmse_mse"]
            if not (_finite(got) and math.isclose(got, want, rel_tol=1e-12)):
                return f"analytical {got} != rasch_closed_form_mse {want}"
            if not _finite(cell.get("fisher_bound")):
                return "fisher_bound not finite"
            for stem in ("pm", "map"):
                ratio = cell[f"empirical_{stem}_mse"] / cell["empirical_lmmse_mse"]
                if not ratio <= EST_VS_LMMSE_MAX_RATIO:
                    return f"empirical_{stem}_mse is {ratio:.3g} x the L-MMSE one"
            return ""

        cells, good = _check_simulate(
            checks, os.path.join(out_dir, "simulate.json"), "simulate", closed_form
        )
        if cells and len(good) == len(cells):
            return {"lmmse_rmse": _sim_rmse(cells)}
        return {}

    def extra_ops(self, seed, in_dir, out_dir, run_cli, checks):
        """The Kronecker fit and the Gibbs sampler against exact references.

        The simulate output pins neither estimate, so both layers also run
        directly on small seeded instances.
        """
        rng = np.random.default_rng(np.random.SeedSequence((seed, 400)))
        design = RaschDesign(U=6, Q=8, sigma2_a=1.0, sigma2_d=1.0)
        a, d = rng.standard_normal(design.U), rng.standard_normal(design.Q)
        Y = np.where(a[:, None] - d[None, :] + rng.standard_normal((6, 8)) >= 0,
                     1.0, -1.0)
        fast = rasch_fast_lmmse_fit(design, Y)
        dense = lmmse_fit(rasch_design_matrix(design), Y.flatten(order="F"))
        worst = float(np.max(np.abs(fast.estimate - dense.estimate)))
        checks.op("rasch_fast_lmmse_fit vs dense lmmse_fit",
                  worst <= KRON_VS_DENSE_ATOL, f"max |diff| {worst:.3g}")

        D = 1.5 * rng.standard_normal((8, 2))
        y = np.where(D @ np.array([1.0, -1.0]) + rng.standard_normal(8) >= 0,
                     1.0, -1.0)
        model = GeneralProbitModel(D=D, m=np.zeros(8), x_mean=np.zeros(2),
                                   C_x=np.eye(2))
        exact, _ = pm_exact(model, y)
        est = pm_gibbs(model, y, GibbsConfig(burn_in=500, samples=10_000, seed=seed))
        err = float(np.linalg.norm(est - exact))
        checks.op("pm_gibbs vs pm_exact", err <= GIBBS_VS_EXACT_RTOL * np.linalg.norm(exact),
                  f"|gibbs - exact| {err:.3g} for |exact| {np.linalg.norm(exact):.3g}")


class SimKnownD(Workload):
    name = "sim_known_d"
    analyze_items = (200, 400, 800)
    snr_db = (-10.0, 0.0, 10.0)

    def _dfile(self, in_dir, q):
        return os.path.join(in_dir, f"difficulties_{q}.txt")

    def make_inputs(self, seed, directory):
        for q in self.analyze_items:
            inputs.write_difficulties(self._dfile(directory, q),
                                      inputs.known_difficulties(seed, q))
        return {}

    def commands(self, seed, in_dir, out_dir):
        snr = ",".join(f"{v:g}" for v in self.snr_db)
        cmds = [
            ("simulate", ["simulate", "--known-difficulties", "--users", "50",
                          "--items", "200", "--snr-db", snr, "--trials", "2",
                          "--seed", str(seed), "--format", "json",
                          "--output", os.path.join(out_dir, "simulate.json")]),
        ]
        for q in self.analyze_items:
            cmds.append((f"analyze Q={q}", [
                "analyze", "--known-difficulties", "--users", "1",
                "--items", str(q), "--snr-db", snr,
                "--difficulty-file", self._dfile(in_dir, q),
                "--output", os.path.join(out_dir, f"analyze_{q}.csv"),
            ]))
        return cmds

    def prepare(self, seed, in_dir):
        """Known-difficulty MSE from the equivalent one-column general model."""
        ref = {}
        for q in self.analyze_items:
            d = np.loadtxt(self._dfile(in_dir, q), ndmin=1)
            for snr in self.snr_db:
                s2 = snr_to_sigma2(snr)
                model = GeneralProbitModel(
                    D=np.ones((q, 1)), m=-d, x_mean=np.zeros(1),
                    C_x=np.array([[s2]]),
                )
                ref[(q, snr)] = lmmse_predicted_mse(model)[0]
        return {"analyze": ref}

    def check(self, seed, in_dir, out_dir, checks, cache):
        cells, good = _check_simulate(
            checks, os.path.join(out_dir, "simulate.json"), "simulate"
        )
        for q in self.analyze_items:
            rows = _read_csv(os.path.join(out_dir, f"analyze_{q}.csv"))
            problems = []
            if len(rows) != len(self.snr_db):
                problems.append(f"{len(rows)} rows, expected {len(self.snr_db)}")
            for row in rows:
                key = (int(row["Q"]), float(row["snr_db"]))
                got = float(row["mse_ability_closed_form"])
                want = cache["analyze"].get(key)
                if want is None or not abs(got - want) <= KNOWN_D_MSE_ATOL:
                    problems.append(f"Q={key[0]} snr={key[1]:g}: {got} vs {want}")
            checks.op(f"analyze Q={q}", not problems, "; ".join(problems))
        if cells and len(good) == len(cells):
            return {"lmmse_rmse": _sim_rmse(cells)}
        return {}


WORKLOADS = {w.name: w for w in (MovieLensLike(), SimGibbs(), SimKnownD())}
