"""Every entry that takes a prior variance or a user/item count rejects a
value that is not one, and its message names the argument.

A variance is a finite number > 0, and 0 only where a degenerate prior
(the parameter is known to be 0) is meaningful; a count is an int >= 1.
A bool or a numeric string is not a number.
"""

import math

import numpy as np
import pytest

from rasch_lmmse import (
    CvConfig,
    KnownDifficultyModel,
    RaschDesign,
    ResponseSet,
    fisher_known_difficulty_bound,
    fisher_rasch_ability_bound,
    fit_response_set,
    rasch_asymptotic_mse,
    rasch_s,
    snr_to_sigma2,
)
from rasch_lmmse.cli import build_parser

NOT_A_VARIANCE = (math.inf, math.nan, -1.0, True, "1")
NOT_A_COUNT = (0, -1, 2.5, True, "1")
# A command-line value is text that argparse parses as a number, so a bool
# or a string never reaches the check there.
NOT_A_VARIANCE_TEXT = (math.inf, math.nan, -1.0)
NOT_A_COUNT_TEXT = (0, -1)


def _analyze(*argv):
    """`analyze` with the value's text in place of "{}"; it writes its table
    to the working directory."""

    def run(value):
        args = build_parser().parse_args(
            ["analyze", *(str(value) if a == "{}" else a for a in argv)]
        )
        return args.func(args)

    return run


_TWO_RESPONSES = ResponseSet(users=[0, 1], items=[0, 1], responses=[1.0, -1.0],
                             num_users=2, num_items=2)

# entry -> (call with the value, the argument its message names, the values
# it must reject)
ENTRIES = {
    "RaschDesign sigma2_a": (lambda v: RaschDesign(U=2, Q=3, sigma2_a=v, sigma2_d=1.0),
                             "sigma2_a", NOT_A_VARIANCE),
    "RaschDesign sigma2_d": (lambda v: RaschDesign(U=2, Q=3, sigma2_a=1.0, sigma2_d=v),
                             "sigma2_d", NOT_A_VARIANCE),
    "KnownDifficultyModel": (
        lambda v: KnownDifficultyModel(d=np.zeros(2), x_bar=0.0, sigma2_x=v),
        "sigma2_x", NOT_A_VARIANCE),
    "rasch_s": (rasch_s, "sigma2_x", NOT_A_VARIANCE),
    "rasch_asymptotic_mse": (rasch_asymptotic_mse, "sigma2_x", NOT_A_VARIANCE),
    "fisher_rasch_ability_bound": (lambda v: fisher_rasch_ability_bound(2, 3, v),
                                   "sigma2_x", NOT_A_VARIANCE),
    "fisher_known_difficulty_bound": (
        lambda v: fisher_known_difficulty_bound(np.zeros(3), v),
        "sigma2_x", NOT_A_VARIANCE),
    "CvConfig": (lambda v: CvConfig(prior_variance_grid=(1.0, v)),
                 "prior_variance_grid", NOT_A_VARIANCE),
    # fit_response_set's sigma2_x is both blocks' prior in its RaschDesign.
    "fit_response_set": (lambda v: fit_response_set(_TWO_RESPONSES, sigma2_x=v),
                         "sigma2_a", NOT_A_VARIANCE),
    "analyze --sigma2": (_analyze("--users", "2", "--items", "3", "--sigma2", "{}"),
                         "--sigma2", NOT_A_VARIANCE_TEXT),
    "analyze --difficulty-sigma2": (
        _analyze("--users", "2", "--items", "3", "--sigma2", "1",
                 "--known-difficulties", "--difficulty-sigma2", "{}"),
        "--difficulty-sigma2", NOT_A_VARIANCE_TEXT),
    # An SNR in dB is any real number; -4000 dB underflows to variance 0.
    "snr_to_sigma2": (snr_to_sigma2, "snr_db",
                      (math.inf, math.nan, -4000.0, True, "1")),
    "RaschDesign U": (lambda n: RaschDesign(U=n, Q=3, sigma2_a=1.0, sigma2_d=1.0),
                      "U", NOT_A_COUNT),
    "RaschDesign Q": (lambda n: RaschDesign(U=2, Q=n, sigma2_a=1.0, sigma2_d=1.0),
                      "Q", NOT_A_COUNT),
    "fisher_rasch_ability_bound U": (lambda n: fisher_rasch_ability_bound(n, 3, 1.0),
                                     "U", NOT_A_COUNT),
    "fisher_rasch_ability_bound Q": (lambda n: fisher_rasch_ability_bound(2, n, 1.0),
                                     "Q", NOT_A_COUNT),
    "analyze --users": (_analyze("--users", "{}", "--items", "3", "--sigma2", "1"),
                        "--users", NOT_A_COUNT_TEXT),
    "analyze --items": (_analyze("--users", "2", "--items", "{}", "--sigma2", "1"),
                        "--items", NOT_A_COUNT_TEXT),
}
VARIANCE_ENTRIES = [e for e, (_, _, bad) in ENTRIES.items()
                    if bad in (NOT_A_VARIANCE, NOT_A_VARIANCE_TEXT)]
# The entries where a zero variance, a parameter known to be 0, has a value.
ZERO_VARIANCE_OK = {"rasch_s", "rasch_asymptotic_mse", "analyze --sigma2",
                    "analyze --difficulty-sigma2"}


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RASCH_LMMSE_OUTPUT_DIR", raising=False)


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}={value!r}")
    for entry, (_, _, bad) in ENTRIES.items() for value in bad
])
def test_entry_rejects_the_value_by_name(entry, value):
    call, name, _ = ENTRIES[entry]
    with pytest.raises((ValueError, TypeError)) as err:
        call(value)
    assert name in str(err.value).split(), str(err.value)


@pytest.mark.parametrize("entry", VARIANCE_ENTRIES)
def test_zero_variance_is_accepted_exactly_where_listed(entry):
    call, name, _ = ENTRIES[entry]
    if entry in ZERO_VARIANCE_OK:
        call(0.0)
        return
    with pytest.raises(ValueError) as err:
        call(0.0)
    assert name in str(err.value).split(), str(err.value)
