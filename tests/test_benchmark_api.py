"""The benchmark harness under perfbench/ still runs against the library.

perfbench/ is imported read-only: each workload writes its seeded inputs,
builds its references and runs its direct checks (the library calls and
the CLI commands outside the timed section).  A library API change that
would break the harness fails here first.
"""

import os

import pytest

from rasch_lmmse import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
WORKLOAD_NAMES = ("ml100k_like", "sim_gibbs", "sim_known_d")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_reference_checks_pass(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    assert set(workloads.WORKLOADS) == set(WORKLOAD_NAMES)
    wl = workloads.WORKLOADS[name]
    seed = 7
    in_dir, out_dir = tmp_path / "inputs", tmp_path / "out"
    in_dir.mkdir()
    out_dir.mkdir()
    wl.make_inputs(seed, str(in_dir))
    wl.prepare(seed, str(in_dir))
    checks = workloads.Checks()
    wl.extra_ops(seed, str(in_dir), str(out_dir), cli.main, checks)
    assert checks.failures == []


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_commands_parse(name, tmp_path, monkeypatch):
    # A renamed or removed flag that a timed command passes fails here,
    # not only in a benchmark run.
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    parser = cli.build_parser()
    wl = workloads.WORKLOADS[name]
    for label, argv in wl.commands(7, str(tmp_path / "inputs"), str(tmp_path / "out")):
        assert parser.parse_args(argv).command == argv[0], label
