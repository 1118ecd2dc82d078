"""Span tracing of hashlearn from outside the library.

For a traced operation, ``Tracer.installed()`` replaces chosen hashlearn
functions with timing wrappers in every hashlearn module namespace that
holds them (so ``from x import f`` aliases are covered too), and restores
the originals afterwards.  Spans (name, start, end, parent) stay in memory;
``layer_metrics`` turns them into per-layer times and counts.

A span's self time is its duration minus the time covered by its direct
child spans.  ``.s`` metrics are inclusive times, ``.self_s`` self times,
``.calls`` and the COUNTERS are counts.  A layer that a workload bypasses
reads 0 there.  ``trace.self_sum_s`` sums the self times of all spans, which
is the traced operation's time spent inside hashlearn.
"""

import contextlib
import functools
import os
import sys
import time
from collections import Counter

import numpy as np

# (module, function): the layer boundaries the traced operations cross.
# evaluation.evaluate has no metric of its own; its span keeps its loop out of
# cli.self_s.
TRACED = [
    ("initialization", "itq_init"),
    ("initialization", "init_network"),
    ("network", "forward"),
    ("unsupervised", "loss"),
    ("unsupervised", "grad"),
    ("unsupervised", "b_step"),
    ("supervised", "build_pairwise"),
    ("supervised", "loss"),
    ("supervised", "grad"),
    ("supervised", "b_step"),
    ("lbfgs", "minimize"),
    ("trainer", "train_unsupervised"),
    ("trainer", "train_supervised"),
    ("trainer", "encode"),
    ("evaluation", "euclidean_knn_gt"),
    ("evaluation", "evaluate"),
    ("evaluation", "mean_average_precision"),
    ("evaluation", "precision_at_radius"),
    ("dataio", "load_dataset"),
    ("dataio", "load_model"),
    ("dataio", "save_codes"),
    ("dataio", "load_codes"),
    ("dataio", "save_gt"),
    ("dataio", "load_gt"),
    ("cli", "main"),
]

# inclusive times ("s"), self times ("self_s") and call counts ("calls")
LAYER_TIMES = [
    ("initialization.itq_init", "s"),
    ("initialization.init_network", "s"),
    ("network.forward", "calls"),
    ("network.forward", "s"),
    ("unsupervised.loss", "calls"),
    ("unsupervised.loss", "self_s"),
    ("unsupervised.grad", "calls"),
    ("unsupervised.grad", "self_s"),
    ("unsupervised.b_step", "s"),
    ("supervised.build_pairwise", "s"),
    ("supervised.loss", "calls"),
    ("supervised.loss", "self_s"),
    ("supervised.grad", "calls"),
    ("supervised.grad", "self_s"),
    ("lbfgs.minimize", "calls"),
    ("lbfgs.minimize", "self_s"),
    ("trainer.train", "self_s"),
    ("trainer.objective", "self_s"),
    ("trainer.encode", "self_s"),
    ("evaluation.euclidean_knn_gt", "s"),
    ("evaluation.mean_average_precision", "s"),
    ("evaluation.precision_at_radius", "calls"),
    ("evaluation.precision_at_radius", "s"),
    ("dataio.load_dataset", "s"),
    ("dataio.load_model", "s"),
    ("dataio.save_codes", "s"),
    ("dataio.load_codes", "s"),
    ("dataio.save_gt", "s"),
    ("dataio.load_gt", "s"),
    ("cli", "self_s"),
]

# counters recorded at the boundaries
COUNTERS = [
    "unsupervised.b_step.bits_flipped",
    "supervised.b_step.bits_flipped",
    "lbfgs.evals",
    "lbfgs.accepted_steps",
    "lbfgs.line_search_failed",
    "dataio.bytes_read",
    "dataio.bytes_written",
]

# spans named other than module.function
_SPAN_NAMES = {"trainer.train_unsupervised": "trainer.train", "trainer.train_supervised": "trainer.train",
               "cli.main": "cli"}


class Tracer:
    """Spans and counters of one traced operation."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._last_codes = None
        self.metrics = None    # layer_metrics() once the traced operation is done

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            self._observe(name, args, out)
            return out
        return timed

    def _observe(self, name, args, out):
        """Counters read from a call's arguments and result, outside its span."""
        c = self.counts
        if name == "initialization.itq_init":
            self._last_codes = out
        elif name == "unsupervised.b_step":
            c["unsupervised.b_step.bits_flipped"] += int(np.count_nonzero(out != args[3]))
        elif name == "supervised.b_step":
            # the code step sees only activations; compare with the previous codes
            c["supervised.b_step.bits_flipped"] += int(np.count_nonzero(out != self._last_codes))
            self._last_codes = out
        elif name == "lbfgs.minimize":
            c["lbfgs.accepted_steps"] += len(out.history) - 1
            c["lbfgs.line_search_failed"] += int(out.status == "line-search-failed")
        elif name.startswith("dataio.load_"):
            c["dataio.bytes_read"] += os.path.getsize(args[0])
        elif name.startswith("dataio.save_"):
            c["dataio.bytes_written"] += os.path.getsize(args[1])

    def _wrap_minimize(self, fn):
        objective_span = self._wrap("trainer.objective", lambda f, v: f(v))

        @functools.wraps(fn)
        def minimize(fun, x0, config=None):
            def counted(v):
                self.counts["lbfgs.evals"] += 1
                return objective_span(fun, v)
            return fn(counted, x0, config)
        return self._wrap("lbfgs.minimize", minimize)

    @contextlib.contextmanager
    def installed(self):
        """Swap every TRACED function for its wrapper while the block runs."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hashlearn" or name.startswith("hashlearn."))]
        swapped = []
        for mod_name, fn_name in TRACED:
            orig = getattr(sys.modules["hashlearn." + mod_name], fn_name)
            span = _SPAN_NAMES.get("%s.%s" % (mod_name, fn_name), "%s.%s" % (mod_name, fn_name))
            if span == "lbfgs.minimize":
                wrapper = self._wrap_minimize(orig)
            else:
                wrapper = self._wrap(span, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        swapped.append((mod, attr, orig))
        try:
            yield self
        finally:
            for mod, attr, orig in swapped:
                setattr(mod, attr, orig)

    def layer_metrics(self):
        """Per-layer times and counts of every span recorded so far."""
        calls = Counter()
        total = Counter()
        self_time = Counter()
        for name, start, end, parent in self.spans:
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_time[name] += dur
            if parent >= 0:
                self_time[self.spans[parent][0]] -= dur
        out = {}
        for span, kind in LAYER_TIMES:
            value = {"s": total, "self_s": self_time, "calls": calls}[kind][span]
            out["%s.%s" % (span, kind)] = value
        for name in COUNTERS:
            out[name] = self.counts[name]
        evals = self.counts["lbfgs.evals"]
        out["lbfgs.accept_ratio"] = self.counts["lbfgs.accepted_steps"] / evals if evals else 0.0
        out["trace.self_sum_s"] = sum(self_time.values())
        return out


# per-layer metrics that count work; they must repeat exactly between operations
COUNTS = ["%s.calls" % span for span, kind in LAYER_TIMES if kind == "calls"] + COUNTERS
