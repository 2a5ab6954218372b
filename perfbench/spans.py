"""Per-layer spans recorded from outside the program.

The tracer replaces the layers' public functions with timing wrappers in
the module namespaces where their callers look them up (for example
``relaycap.bounds.partitions``, which the constraint table calls). No
library source changes. Each call becomes a span: name, op id, parent span,
start and duration. Generators (``partitions``, ``subsets``) get one span
per generator whose duration is the time spent producing items, and whose
item count is recorded. Spans stay in memory until the run ends.

A wrap target that no longer exists is returned by name from ``install``,
never silently read as zero.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from collections import defaultdict
from pathlib import Path

# (module where the caller looks the name up, attribute, span name).
# The layers are the modules; a span name is "<layer>.<function>".
TARGETS = (
    ("relaycap.cli", "cmd_bound", "cli.cmd"),
    ("relaycap.cli", "cmd_cfrate", "cli.cmd"),
    ("relaycap.cli", "cmd_sweep", "cli.cmd"),
    ("relaycap.cli", "cmd_verify", "cli.cmd"),
    ("relaycap.cli", "load_config", "cli.load_config"),
    ("relaycap.cli", "network_from_config", "cli.network_from_config"),
    ("relaycap.cli", "from_gains", "topology.from_gains"),
    ("relaycap.cli", "validate", "topology.validate"),
    ("relaycap.bounds", "scaled", "topology.scaled"),
    ("relaycap.bounds", "subsets", "enumeration.subsets"),
    ("relaycap.bounds", "partitions", "enumeration.partitions"),
    ("relaycap.cli", "build_rate_report", "bounds.build_rate_report"),
    ("relaycap.cli", "convergence_sweep", "bounds.convergence_sweep"),
    ("relaycap.cli", "cut_rate_table", "bounds.cut_rate_table"),
    ("relaycap.bounds", "optimize_quantization", "bounds.optimize_quantization"),
    ("relaycap.bounds", "cf_feasible", "bounds.cf_feasible"),
    ("relaycap.bounds", "cf_rate", "bounds.cf_rate"),
    ("relaycap.bounds", "source_cut_bound", "bounds.source_cut_bound"),
    ("relaycap.bounds", "min_cut_bound", "bounds.min_cut_bound"),
    ("relaycap.bounds", "cut_rate_table", "bounds.cut_rate_table"),
    ("relaycap.bounds", "cut_rate", "bounds.cut_rate"),
    ("relaycap.bounds", "conditional_mi_bits", "gaussian.conditional_mi_bits"),
    ("relaycap.bounds", "joint_covariance", "gaussian.joint_covariance"),
    ("relaycap.bounds", "conditional_covariance", "gaussian.conditional_covariance"),
    ("relaycap.bounds", "log2_det", "gaussian.log2_det"),
    ("relaycap.gaussian", "log2_det", "gaussian.log2_det"),
    ("relaycap.selftest", "run_all", "selftest.run_all"),
    ("relaycap.selftest", "alpha_suite", "selftest.alpha_suite"),
    ("relaycap.selftest", "beta_suite", "selftest.beta_suite"),
    ("relaycap.selftest", "determinant_lemma_suite", "selftest.determinant_lemma_suite"),
    ("relaycap.selftest", "monotonicity_suite", "selftest.monotonicity_suite"),
    ("relaycap.selftest", "achievability_suite", "selftest.achievability_suite"),
    ("relaycap.selftest", "verify_single_relay_independence",
     "bounds.verify_single_relay_independence"),
    ("relaycap.selftest", "verify_relay_correlation_invariance",
     "bounds.verify_relay_correlation_invariance"),
    ("relaycap.selftest", "quantized_covariance_det", "bounds.quantized_covariance_det"),
    ("relaycap.selftest", "optimize_quantization", "bounds.optimize_quantization"),
    ("relaycap.selftest", "cf_feasible", "bounds.cf_feasible"),
    ("relaycap.selftest", "cf_rate", "bounds.cf_rate"),
    ("relaycap.selftest", "source_cut_bound", "bounds.source_cut_bound"),
)

GENERATORS = {"enumeration.subsets", "enumeration.partitions"}

#: Spans whose time is table work: building or querying the constraint
#: family (cf_feasible builds a table and runs one margin pass).
TABLE_SIDE = ("bounds.cf_feasible", "enumeration.partitions", "enumeration.subsets")

OP = "op"

# Span record fields.
NAME, OP_ID, PARENT, START, DUR, ITEMS = range(6)


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the
    wrappers in and out of the target modules."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._op_id, parent, time.perf_counter(), 0.0, 0])
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        span = self.spans[sid]
        span[DUR] = time.perf_counter() - span[START]
        self._stack.pop()

    def op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as the root span of op ``op_id``."""
        self._op_id = op_id
        sid = self._open(OP)
        try:
            return fn(*args)
        finally:
            self._close(sid)

    def _wrap(self, fn, name: str):
        tracer = self

        if name in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                parent = tracer._stack[-1] if tracer._stack else -1
                span = [name, tracer._op_id, parent, time.perf_counter(), 0.0, 0]
                tracer.spans.append(span)
                return _timed_items(fn(*args, **kwargs), span)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)
        return wrapper

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the missing ones by name."""
        missing = []
        for module_name, attr, name in self.targets:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        return missing

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    # -- reporting -------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write all spans as gzipped CSV: name,op,parent,start_s,dur_s,items."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,op,parent,start_s,dur_s,items\n")
            for sid, s in enumerate(self.spans):
                fh.write(f"{sid},{s[NAME]},{s[OP_ID]},{s[PARENT]},"
                         f"{s[START] - t0:.9f},{s[DUR]:.9f},{s[ITEMS]}\n")


def _timed_items(items, span):
    """Yield from ``items``, adding the time spent inside it and the number
    of items produced to ``span``."""
    it = iter(items)
    clock = time.perf_counter
    busy = 0.0
    count = 0
    try:
        while True:
            t0 = clock()
            try:
                item = next(it)
            except StopIteration:
                busy += clock() - t0
                return
            busy += clock() - t0
            count += 1
            yield item
    finally:
        span[DUR] += busy
        span[ITEMS] += count


def summarize(spans: list[list]) -> dict:
    """Totals over all spans.

    ``layers`` maps each span name to its calls, inclusive seconds, self
    seconds (duration minus the durations of its child spans) and items
    yielded. ``derived`` holds seconds that need the tree: ``table_side``,
    time covered by TABLE_SIDE spans that have no table-side ancestor; and
    the time of ``cf_rate`` and of the generators under
    ``optimize_quantization``.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[DUR]
    layers: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "yielded": 0})
    derived = {"table_side_s": 0.0, "cf_rate_in_optimize_s": 0.0,
               "enumeration_in_optimize_s": 0.0}
    for sid, s in enumerate(spans):
        agg = layers[s[NAME]]
        agg["calls"] += 1
        agg["s"] += s[DUR]
        agg["self_s"] += s[DUR] - child[sid]
        agg["yielded"] += s[ITEMS]
        ancestors = _ancestors(spans, sid)
        if s[NAME] in TABLE_SIDE and ancestors.isdisjoint(TABLE_SIDE):
            derived["table_side_s"] += s[DUR]
        if "bounds.optimize_quantization" in ancestors:
            if s[NAME] == "bounds.cf_rate":
                derived["cf_rate_in_optimize_s"] += s[DUR]
            elif s[NAME] in GENERATORS:
                derived["enumeration_in_optimize_s"] += s[DUR]
    return {"layers": dict(layers), "derived": derived}


def _ancestors(spans: list[list], sid: int) -> set[str]:
    names = set()
    parent = spans[sid][PARENT]
    while parent >= 0:
        names.add(spans[parent][NAME])
        parent = spans[parent][PARENT]
    return names
