"""One timed repetition of a workload, run in a fresh interpreter by run.py.

Each repetition gets its own process, as each CLI invocation does for a
user: a warm process runs some commands markedly faster (the
known-difficulty simulate took a third less time after `analyze` had run
in the same process).  The import is not timed; the commands are.  With
TRACE set to 1 the package's layer functions are wrapped (spans.py) for
this repetition and the spans are written to TRACE_PATH.

Prints one JSON line: wall and CPU seconds of the commands, each command's
label, wall seconds and exit code, this process's peak RSS, the minor page
faults of the commands and, when traced, the per-span summary.

Usage: python3 rep.py WORKLOAD SEED IN_DIR OUT_DIR SRC TRACE RUN_ID TRACE_PATH
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def run_cli(cli, argv):
    """`rasch-lmmse argv` in-process with its output captured; the exit code.

    An exception the CLI does not handle counts as exit code 1, so a crash
    in the program fails that command instead of ending the benchmark.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = 1
    if rc:
        sys.stderr.write(f"rasch-lmmse {' '.join(argv)}: exit {rc}\n{err.getvalue()[-2000:]}")
    return rc


def main(argv):
    workload, seed, in_dir, out_dir, src = argv[0], int(argv[1]), argv[2], argv[3], argv[4]
    trace, run_id, trace_path = argv[5] == "1", argv[6], argv[7]
    sys.path.insert(0, src)
    from rasch_lmmse import cli

    import workloads
    from spans import Tracer, cpu_seconds

    os.makedirs(out_dir, exist_ok=True)
    commands = workloads.WORKLOADS[workload].commands(seed, in_dir, out_dir)
    tracer = Tracer(run_id) if trace else None
    if tracer:
        tracer.install()
    per_command = []
    t0, cpu0 = time.perf_counter(), cpu_seconds()
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for label, cmd in commands:
        c0 = time.perf_counter()
        rc = run_cli(cli, cmd)
        per_command.append((label, time.perf_counter() - c0, rc))
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "wall_s": wall,
        "cpu_s": cpu,
        "commands": per_command,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "minor_faults": usage.ru_minflt - faults0,
    }
    if tracer:
        tracer.uninstall()
        record["layers"] = tracer.summary()
        record["spans"] = len(tracer.spans)
        tracer.write(trace_path)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
