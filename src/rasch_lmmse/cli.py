"""Command-line interface: analyze, simulate, fit, and crossval subcommands.

Exit codes: 0 on success, 1 on runtime errors (bad data, failed fits),
2 on usage errors.  File outputs are written atomically (temp file in the
target directory, then rename), with the mode open() gives a new file.
Relative output paths resolve against RASCH_LMMSE_OUTPUT_DIR when set,
else the working directory.  While a command runs, SciPy's OpenBLAS runs
on one thread (`_one_lapack_thread`).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import json
import logging
import math
import os
import re
import sys

import numpy as np
import scipy

from .baselines import (
    GibbsConfig,
    fisher_known_difficulty_bound,
    fisher_rasch_ability_bound,
)
from .data import (
    _as_count,
    _as_variance,
    binarize_ratings,
    load_movielens,
    load_triplets,
)
from .experiments import (
    CV_ESTIMATORS,
    SYNTHETIC_ESTIMATORS,
    CvConfig,
    SyntheticConfig,
    _csv_text,
    _json_text,
    fit_response_set,
    run_cross_validation,
    run_synthetic,
    snr_to_sigma2,
)
from .rasch import (
    KnownDifficultyModel,
    RaschDesign,
    known_difficulty_predicted_mse,
    rasch_asymptotic_mse,
    rasch_closed_form_mse,
)

ANALYZE_COLUMNS = [
    "U",
    "Q",
    "snr_db",
    "sigma2_x",
    "mse_ability_closed_form",
    "mse_difficulty_closed_form",
    "mse_asymptotic",
    "fisher_bound",
]

logger = logging.getLogger(__name__)


class UsageError(Exception):
    """Command-line usage problem: reported on stderr, exit code 2."""


def _int_list(text):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _float_list(text):
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _positive_int(text):
    try:
        return _as_count(int(text), "value")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _estimator_list(text):
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _scipy_openblas():
    """SciPy's bundled OpenBLAS, as (path, library), if this process has
    loaded it; else None.

    It is the library behind scipy.linalg's LAPACK (cho_factor, cho_solve,
    cholesky, dtrtri).  A wheel keeps it in `scipy.libs` beside the package;
    RTLD_NOLOAD finds it only when it is already loaded.  NumPy's own copy
    (`numpy.libs`, 64-bit symbols) is not matched.
    """
    site = glob.escape(os.path.dirname(os.path.dirname(scipy.__file__)))
    pattern = os.path.join(site, "scipy.libs", "libscipy_openblas-*.so")
    for path in sorted(glob.glob(pattern)):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            get_threads = lib.scipy_openblas_get_num_threads
            set_threads = lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return path, lib
    return None


@contextlib.contextmanager
def _one_lapack_thread():
    """Run SciPy's OpenBLAS on one thread inside the block, then set back
    the thread count it had.

    A threaded factorization wakes OpenBLAS's worker, which then spins
    through the non-BLAS work that follows, and the thread count moves
    results in the last bits.  The commands' parallelism is their own
    thread pools (`experiments._workers`).  Without the library the block
    runs as it is.
    """
    found = _scipy_openblas()
    if found is None:
        logger.info("SciPy's OpenBLAS is not loaded; LAPACK threads left as they are")
        yield
        return
    path, lib = found
    previous = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(1)
    logger.info("LAPACK on 1 thread: %s (was %d)", os.path.basename(path), previous)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads(previous)


def _output_path(args, extension="csv"):
    """`--output`, by default `<command>.<extension>`; a relative path
    resolves against RASCH_LMMSE_OUTPUT_DIR when set."""
    path = args.output or f"{args.command}.{extension}"
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get("RASCH_LMMSE_OUTPUT_DIR", "."), path)


def _atomic_write(path, text):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    # Created with the mode open() gives a new file (0o666 less the umask),
    # which the rename keeps.  The random suffix keeps concurrent writers
    # apart, and O_EXCL never reuses an existing file.
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_difficulties(path):
    values = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            token = line.strip()
            if not token:
                continue
            try:
                value = float(token)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}:{line_no}: expected one finite difficulty per line, "
                    f"got {token!r}"
                )
            values.append(value)
    if not values:
        raise ValueError(f"{path}: no difficulties found")
    return np.array(values)


def _known_difficulty_fields(d, sigma2):
    """The known-difficulty analyze fields of difficulties d at prior
    variance sigma2."""
    return dict(
        mse_ability_closed_form=known_difficulty_predicted_mse(
            KnownDifficultyModel(d=d, x_bar=0.0, sigma2_x=sigma2)
        ),
        mse_difficulty_closed_form=None,
        mse_asymptotic=None,
        fisher_bound=fisher_known_difficulty_bound(d, sigma2),
    )


def _cmd_analyze(args):
    if args.known_difficulties:
        if (args.difficulty_file is None) == (args.difficulty_sigma2 is None):
            raise UsageError(
                "--known-difficulties requires exactly one of "
                "--difficulty-file / --difficulty-sigma2"
            )
    elif args.difficulty_file is not None or args.difficulty_sigma2 is not None:
        raise UsageError(
            "--difficulty-file / --difficulty-sigma2 require --known-difficulties"
        )
    for flag, values in (("--users", args.users), ("--items", args.items),
                         ("--snr-db", args.snr_db), ("--sigma2", args.sigma2)):
        if values is not None and not values:
            raise ValueError(f"{flag} must list at least one value")
    seed = _as_count(0 if args.seed is None else args.seed, "--seed", zero_ok=True)
    if args.difficulty_sigma2 is not None:
        _as_variance(args.difficulty_sigma2, "--difficulty-sigma2", zero_ok=True)
    if args.snr_db is not None:
        levels = [(snr, snr_to_sigma2(snr)) for snr in args.snr_db]
    else:
        levels = [
            (None, _as_variance(s2, "--sigma2", zero_ok=True)) for s2 in args.sigma2
        ]
    users = [_as_count(U, "--users") for U in args.users]
    items = [_as_count(Q, "--items") for Q in args.items]
    file_d = (
        _load_difficulties(args.difficulty_file)
        if args.difficulty_file is not None
        else None
    )

    rows, from_file = [], {}
    row_idx = 0
    for U in users:
        for Q in items:
            for snr_field, sigma2 in levels:
                row = {"U": U, "Q": Q, "snr_db": snr_field, "sigma2_x": sigma2}
                if sigma2 == 0.0:
                    # Degenerate prior: parameters are known to be zero.
                    row.update(
                        mse_ability_closed_form=0.0,
                        mse_difficulty_closed_form=None if args.known_difficulties else 0.0,
                        mse_asymptotic=None if args.known_difficulties else 0.0,
                        fisher_bound=0.0,
                    )
                elif args.known_difficulties:
                    if file_d is None:
                        rng = np.random.default_rng(
                            np.random.SeedSequence((seed, row_idx))
                        )
                        fields = _known_difficulty_fields(
                            rng.normal(scale=np.sqrt(args.difficulty_sigma2), size=Q),
                            sigma2,
                        )
                    else:
                        if file_d.size != Q:
                            raise ValueError(
                                f"difficulty file has {file_d.size} entries, "
                                f"but Q={Q} was requested"
                            )
                        # The file fixes d and Q, so the fields depend on
                        # sigma2 alone, whatever U.
                        if sigma2 not in from_file:
                            from_file[sigma2] = _known_difficulty_fields(file_d, sigma2)
                        fields = from_file[sigma2]
                    row.update(fields)
                else:
                    design = RaschDesign(
                        U=U, Q=Q, sigma2_a=sigma2, sigma2_d=sigma2
                    )
                    mse_a, mse_d = rasch_closed_form_mse(design)
                    row.update(
                        mse_ability_closed_form=mse_a,
                        mse_difficulty_closed_form=mse_d,
                        mse_asymptotic=rasch_asymptotic_mse(sigma2),
                        fisher_bound=fisher_rasch_ability_bound(U, Q, sigma2),
                    )
                rows.append(row)
                row_idx += 1

    path = _output_path(args)
    _atomic_write(
        path,
        _csv_text(ANALYZE_COLUMNS, ([row[c] for c in ANALYZE_COLUMNS] for row in rows)),
    )
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _write_result(args, result):
    """Write a simulate or crossval result in `--format` to `--output`,
    which defaults to `<command>.<format>`."""
    path = _output_path(args, args.format)
    _atomic_write(path, result.to_json() if args.format == "json" else result.to_csv())
    print(f"wrote {path}")


def _study_config(args, cls):
    """Build the study config `cls` from its flags or from --config, never both.

    Each config flag's dest is a field of `cls` and defaults to None, so the
    flags given are the ones not None, and `cls` supplies every default and
    every check.  `args.config_flags` maps those dests to flag names.
    """
    given = {
        dest: getattr(args, dest)
        for dest in args.config_flags
        if getattr(args, dest) is not None
    }
    if args.config is None:
        missing = [
            args.config_flags[f.name]
            for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING and f.name not in given
        ]
        if missing:
            raise UsageError(f"missing required flags: {', '.join(missing)}")
        return cls(**given)
    if given:
        flags = ", ".join(args.config_flags[dest] for dest in given)
        raise UsageError(f"--config is mutually exclusive with {flags}")
    with open(args.config) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as err:
            raise ValueError(f"{args.config}: invalid JSON ({err})")
    if not isinstance(payload, dict):
        raise ValueError(f"{args.config}: expected a JSON object")
    try:
        return cls(**payload)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{args.config}: {err}")


def _cmd_simulate(args):
    cfg = _study_config(args, SyntheticConfig)
    result = run_synthetic(cfg, threads=args.threads)
    print(result.summary_table())
    _write_result(args, result)
    return 0


def _load_dataset(args):
    if (args.data is None) == (args.movielens is None):
        raise UsageError("exactly one of --data / --movielens is required")
    if args.data is not None:
        return load_triplets(args.data, label_convention=args.label_convention)
    return binarize_ratings(load_movielens(args.movielens))


def _cmd_fit(args):
    _as_variance(args.sigma2, "--sigma2")
    data = _load_dataset(args)
    given = {"burn_in": args.gibbs_burn_in, "samples": args.gibbs_samples,
             "seed": args.seed}
    gibbs = GibbsConfig(**{k: v for k, v in given.items() if v is not None})
    out = fit_response_set(
        data, estimator=args.estimator, sigma2_x=args.sigma2, gibbs_config=gibbs
    )

    user_ids = data.user_ids or range(data.num_users)
    item_ids = data.item_ids or range(data.num_items)
    per_comp = out["per_component_mse"]
    mse = [None] * (data.num_users + data.num_items) if per_comp is None else per_comp
    rows = [
        *(("ability", u, v, e) for u, v, e in
          zip(user_ids, out["abilities"], mse[: data.num_users], strict=True)),
        *(("difficulty", i, v, e) for i, v, e in
          zip(item_ids, out["difficulties"], mse[data.num_users :], strict=True)),
    ]
    path = _output_path(args)
    _atomic_write(path, _csv_text(["kind", "id", "estimate", "predicted_mse"], rows))

    sidecar = {
        "estimator": args.estimator,
        "sigma2_x": args.sigma2,
        "num_users": data.num_users,
        "num_items": data.num_items,
        "num_responses": len(data),
        "predicted_mse": (
            None if out["predicted_mse"] is None else float(out["predicted_mse"])
        ),
        "predicted_mse_ability_mean": (
            None
            if per_comp is None
            else float(np.mean(per_comp[: data.num_users]))
        ),
        "predicted_mse_difficulty_mean": (
            None
            if per_comp is None
            else float(np.mean(per_comp[data.num_users :]))
        ),
        "solver": out["solver"],
        "wall_time_seconds": out["wall_time_seconds"],
    }
    sidecar_path = os.path.splitext(path)[0] + ".json"
    _atomic_write(sidecar_path, _json_text(sidecar))
    print(
        f"fit {args.estimator} on {len(data)} responses "
        f"({data.num_users} users, {data.num_items} items) "
        f"in {out['wall_time_seconds']:.3f}s"
    )
    if out["predicted_mse"] is not None:
        print(f"predicted total MSE: {out['predicted_mse']:.6f}")
    print(f"wrote {path} and {sidecar_path}")
    return 0


def _cmd_crossval(args):
    for s2 in args.prior_variance_grid or ():
        _as_variance(s2, "--sigma2-grid")
    cfg = _study_config(args, CvConfig)
    data = _load_dataset(args)
    result = run_cross_validation(data, cfg, threads=args.threads)
    print(result.summary_table())
    for name, rec in result.per_estimator.items():
        for f in rec["auc_undefined_folds"]:
            print(f"note: {name} fold {f}: AUC undefined (single-class test fold)")
    _write_result(args, result)
    return 0


# Lets "--snr-db -10,0,10" parse: argparse only treats a leading-dash token
# as a value when it looks like a negative number, so widen that test to
# cover comma-separated lists.
_NEGATIVE_LIST = re.compile(r"^-\d+[\d.,eE+-]*$")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rasch-lmmse",
        description=(
            "Linear MMSE estimation of Rasch model parameters from one-bit "
            "responses, with closed-form MSE analysis and baselines."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each flag that several commands take is declared once, in a parent.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log-level", default="WARNING",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                        help="stderr logging threshold (default: WARNING)")
    common.add_argument("--seed", type=int, help="seed of random draws (default: 0)")
    common.add_argument("--output", help="output file (default: <command>.csv or .<format>)")
    gibbs = argparse.ArgumentParser(add_help=False)
    gibbs.add_argument("--gibbs-burnin", dest="gibbs_burn_in", type=int)
    gibbs.add_argument("--gibbs-samples", type=int)
    study = argparse.ArgumentParser(add_help=False)
    study.add_argument("--format", choices=("csv", "json"), default="csv")
    study.add_argument("--threads", type=_positive_int,
                       help="at most this many worker threads; results are "
                            "identical for any value (default: machine parallelism)")
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--data", help="triplet CSV (user,item,response)")
    dataset.add_argument("--movielens", help="MovieLens u.data style ratings file")
    dataset.add_argument("--label-convention", choices=("pm_one", "zero_one"),
                         default="pm_one")

    p_analyze = sub.add_parser(
        "analyze", parents=[common],
        help="closed-form MSE and Fisher bound tables (no data needed)",
    )
    p_analyze.add_argument("--users", type=_int_list, required=True,
                           help="comma-separated user counts")
    p_analyze.add_argument("--items", type=_int_list, required=True,
                           help="comma-separated item counts")
    level = p_analyze.add_mutually_exclusive_group(required=True)
    level.add_argument("--snr-db", type=_float_list,
                       help="comma-separated SNRs in dB")
    level.add_argument("--sigma2", type=_float_list,
                       help="comma-separated prior variances")
    p_analyze.add_argument("--known-difficulties", action="store_true",
                           help="single-user analysis with known item difficulties")
    p_analyze.add_argument("--difficulty-file",
                           help="file with one known difficulty per line")
    p_analyze.add_argument("--difficulty-sigma2", type=float,
                           help="draw known difficulties from N(0, s2)")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_sim = sub.add_parser(
        "simulate", parents=[common, gibbs, study],
        help="synthetic MSE study over a (users, items, SNR) grid",
    )
    p_sim.add_argument("--users", dest="users_grid", type=_int_list)
    p_sim.add_argument("--items", dest="items_grid", type=_int_list)
    p_sim.add_argument("--snr-db", dest="snr_db_grid", type=_float_list)
    p_sim.add_argument("--trials", type=int)
    p_sim.add_argument("--estimators", type=_estimator_list,
                       help=f"comma-separated from: {', '.join(SYNTHETIC_ESTIMATORS)}")
    p_sim.add_argument("--known-difficulties", action="store_true", default=None)
    p_sim.add_argument("--config",
                       help="JSON file with SyntheticConfig's fields "
                            "(conflicts with every config flag)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_fit = sub.add_parser("fit", parents=[common, gibbs, dataset],
                           help="fit abilities/difficulties to a dataset")
    p_fit.add_argument("--estimator", choices=CV_ESTIMATORS, default="lmmse")
    p_fit.add_argument("--sigma2", type=float, default=1.0,
                       help="prior variance for both parameter blocks")
    p_fit.set_defaults(func=_cmd_fit)

    p_cv = sub.add_parser(
        "crossval", parents=[common, gibbs, study, dataset],
        help="k-fold response prediction with ACC/AUC",
    )
    p_cv.add_argument("--folds", type=int)
    p_cv.add_argument("--estimators", type=_estimator_list,
                      help=f"comma-separated from: {', '.join(CV_ESTIMATORS)}")
    p_cv.add_argument("--sigma2-grid", dest="prior_variance_grid", type=_float_list)
    p_cv.add_argument("--config",
                      help="JSON file with CvConfig's fields "
                           "(conflicts with every config flag)")
    p_cv.set_defaults(func=_cmd_crossval)

    for p, cls in ((p_sim, SyntheticConfig), (p_cv, CvConfig)):
        fields = {f.name for f in dataclasses.fields(cls)}
        p.set_defaults(config_flags={
            a.dest: a.option_strings[0] for a in p._actions if a.dest in fields
        })
    for p in (parser, p_analyze, p_sim, p_fit, p_cv):
        p._negative_number_matcher = _NEGATIVE_LIST
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The package's log records go to stderr for this command only.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    package_logger = logging.getLogger("rasch_lmmse")
    level = package_logger.level
    package_logger.addHandler(handler)
    package_logger.setLevel(args.log_level)
    try:
        with _one_lapack_thread():
            return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError, np.linalg.LinAlgError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        package_logger.removeHandler(handler)
        package_logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
