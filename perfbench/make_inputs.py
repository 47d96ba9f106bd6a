"""One benchmark set-up, run in a fresh interpreter by run.py.

Times what a user of the CLI pays before any command runs (importing the
package) plus writing the workload's seeded inputs, and prints one JSON
line: {"setup_s": ..., "setup_wall_s": ..., "import_s": ..., "summary": {...}}.
`setup_s` is CPU time (user plus system, all threads), like the timed
commands' `cpu_s`: hypervisor steal inflates the wall time of the short
set-up without the program doing more work.

Usage: python3 make_inputs.py WORKLOAD SEED OUT_DIR SRC_DIR
"""

import json
import os
import sys
import time


def main(argv):
    workload, seed, out_dir, src = argv[0], int(argv[1]), argv[2], argv[3]
    t0, cpu0 = time.perf_counter(), time.process_time()
    sys.path.insert(0, src)
    import rasch_lmmse.cli  # noqa: F401  (the import every CLI run pays)

    t_import = time.perf_counter() - t0
    import workloads

    os.makedirs(out_dir, exist_ok=True)
    summary = workloads.WORKLOADS[workload].make_inputs(seed, out_dir)
    setup_cpu, setup_wall = time.process_time() - cpu0, time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_cpu, "setup_wall_s": setup_wall,
                      "import_s": t_import, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
