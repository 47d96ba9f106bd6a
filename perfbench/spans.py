"""Span tracing around the package's layer functions, for traced runs only.

`Tracer.install` replaces each traced function at every name the package's
modules look it up by (for example `rasch_lmmse.experiments.pm_gibbs` and
`rasch_lmmse.linear_probit.binorm_cdf`) with a wrapper that records a span:
name, start, end, parent span, thread id and run id, plus the work counts
taken at the same boundary.  Spans stay in memory until `write` at the end
of the run.  `uninstall` restores the original functions.

A function that a later refactor removes is skipped and reported as zero
calls.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time
from collections import defaultdict


def cpu_seconds():
    """User plus system CPU of this process and its waited-for children.

    Children count so that work moved into worker processes still shows.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _evals(args, kwargs, result):
    # binorm_cdf returns one value per broadcast (x, y, rho) entry.
    return {"evals": int(getattr(result, "size", 1))}


def _nnz(args, kwargs, result):
    return {"nnz": int(result.nnz)}


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _gibbs_steps(args, kwargs, result):
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    if config is None:
        from rasch_lmmse.baselines import GibbsConfig

        config = GibbsConfig()
    return {"steps": int(config.burn_in + config.samples)}


# (span name, defining module, attribute, work counter)
TARGETS = (
    ("specfun.binorm_cdf", "rasch_lmmse.specfun", "binorm_cdf", _evals),
    ("linear_probit.sign_covariance", "rasch_lmmse.linear_probit", "sign_covariance", None),
    ("linear_probit.sparse_cy", "rasch_lmmse.linear_probit", "sparse_cy", _nnz),
    ("linear_probit.lmmse_fit_sparse", "rasch_lmmse.linear_probit", "lmmse_fit_sparse", None),
    ("rasch.rasch_design_matrix", "rasch_lmmse.rasch", "rasch_design_matrix", None),
    ("rasch.rasch_fast_lmmse_fit", "rasch_lmmse.rasch", "rasch_fast_lmmse_fit", None),
    ("rasch.known_difficulty_fit", "rasch_lmmse.rasch", "known_difficulty_fit", None),
    ("rasch.known_difficulty_predicted_mse", "rasch_lmmse.rasch",
     "known_difficulty_predicted_mse", None),
    ("baselines.pm_gibbs", "rasch_lmmse.baselines", "pm_gibbs", _gibbs_steps),
    ("baselines.map_fit", "rasch_lmmse.baselines", "map_fit", None),
    ("data.load_triplets", "rasch_lmmse.data", "load_triplets", _rows),
    ("experiments.run_synthetic", "rasch_lmmse.experiments", "run_synthetic", None),
    ("experiments.run_cross_validation", "rasch_lmmse.experiments",
     "run_cross_validation", None),
    ("experiments.fit_response_set", "rasch_lmmse.experiments", "fit_response_set", None),
    ("cli.main", "rasch_lmmse.cli", "main", None),
)


class Tracer:
    """Records spans from wrapped functions of one workload run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._lock = threading.Lock()
        self._next_id = 1
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._patched = []

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A worker thread's outermost span belongs to whatever the main
        # thread has open: the program's pools are all started from there.
        main_stack = self._stacks.get(self._main)
        return main_stack[-1] if main_stack else None

    def _wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = tracer._stacks.setdefault(tid, [])
            parent = tracer._parent(stack)
            with tracer._lock:
                sid = tracer._next_id
                tracer._next_id += 1
            stack.append(sid)
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1, cpu1 = time.perf_counter(), cpu_seconds()
                stack.pop()
                counts = {}
                if counter is not None and result is not None:
                    counts = counter(args, kwargs, result)
                with tracer._lock:
                    tracer.spans.append(
                        (sid, name, t0, t1, parent, tid, tracer.run_id,
                         cpu1 - cpu0, counts)
                    )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "rasch_lmmse" or key.startswith("rasch_lmmse."))
        ]
        for name, home, attr, counter in TARGETS:
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def summary(self):
        """Per span name: calls, total and self seconds, CPU seconds, counts.

        Self time is the span's duration minus the part of it covered by
        its child spans (children on worker threads overlap, so the union
        of their intervals is subtracted, not the sum).
        """
        children = defaultdict(list)
        for sid, _, t0, t1, parent, *_ in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out = defaultdict(lambda: defaultdict(float))
        for sid, name, t0, t1, _, _, _, cpu, counts in self.spans:
            covered, reach = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            rec = out[name]
            rec["calls"] += 1
            rec["wall_s"] += t1 - t0
            rec["self_s"] += (t1 - t0) - covered
            rec["cpu_s"] += cpu
            for key, value in counts.items():
                rec[key] += value
        return {name: dict(rec) for name, rec in out.items()}

    def write(self, path):
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "thread",
                               "run_id", "cpu_s", "counts"],
                    "spans": self.spans,
                },
                handle,
            )
