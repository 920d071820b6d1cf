"""Per-layer spans, recorded from outside the program by wrapping its public functions.

Each layer is one ``shiftbench`` module.  A wrapped call records its
duration ("busy") and its self time: busy time minus the time covered by the
wrapped calls it made.  Spans are aggregated in memory per name; nothing is
written until the process ends.

Process-pool workers are forked and inherit the wrappers.  An after-fork hook
resets the worker's accumulators and registers a finaliser that writes them,
with the worker's fork and exit times, to ``<trace_dir>/worker-<pid>.json``
when the worker exits, so the parent can merge them after the pool has shut
down and set each worker's spans against its lifetime.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from multiprocessing import util
from pathlib import Path
from time import perf_counter

import numpy as np


def _docs(tracer, args, kwargs, result):
    tracer.count("datagen.vectorise.docs", len(args[0]))


def _rows(tracer, args, kwargs, result):
    tracer.count("classifier.predict_proba.rows", args[1].shape[0])
    if tracer.inside("quantifiers.quantify."):
        tracer.count("classifier.predict_proba.in_quantify", 1)


def _em(tracer, args, kwargs, result):
    _, converged, iterations = result
    tracer.count("quantifiers.em.iterations", iterations)
    tracer.count("quantifiers.em.cap_hits", int(not converged))


def _exact(tracer, args, kwargs, result):
    from shiftbench.evaluation import EXACT_LIMIT

    nonzero = int(np.count_nonzero(np.asarray(args[0], float) - np.asarray(args[1], float)))
    tracer.count("evaluation.wilcoxon_signed_rank.exact_calls", int(5 <= nonzero <= EXACT_LIMIT))


#: span name -> (module, attribute, counter hook or None)
TARGETS = {
    "core.sample_at_prevalence": ("core", "sample_at_prevalence", None),
    "core.binarise_dataset": ("core", "binarise_dataset", None),
    "core.split_stratified": ("core", "split_stratified", None),
    "datagen.fit_vocabulary": ("datagen", "fit_vocabulary", None),
    "datagen.vectorise": ("datagen", "vectorise", _docs),
    "classifier.train": ("classifier", "train", None),
    "classifier.oof_posteriors_kfold": ("classifier", "oof_posteriors_kfold", None),
    "classifier.predict_proba": ("classifier", "predict_proba", _rows),
    "quantifiers.fit_evidence": ("quantifiers", "fit_evidence", None),
    "quantifiers.mixture_fit_alpha": ("quantifiers", "mixture_fit_alpha", None),
    "quantifiers.em": ("quantifiers", "expectation_maximisation_prevalence", _em),
    "protocols.run_protocol": ("protocols", "run_protocol", None),
    "protocols.merge_samples": ("protocols", "merge_samples", None),
    # the per-repetition task; in pool workers its busy time is worker busy time
    "protocols.worker": ("protocols", "_repetition_worker", None),
    "evaluation.write_records_csv": ("evaluation", "write_records_csv", None),
    "evaluation.read_records_csv": ("evaluation", "read_records_csv", None),
    "evaluation.wilcoxon_signed_rank": ("evaluation", "wilcoxon_signed_rank", _exact),
    "reporting.render_markdown": ("reporting", "render_markdown", None),
    "reporting.render_plotdata": ("reporting", "render_plotdata", None),
}


class Tracer:
    """In-memory span aggregates for one process."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.missing: list[str] = []
        self.reset()

    def reset(self):
        self.stack: list[list] = []  # [span name, child time]
        self.spans: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.counts: dict[str, int] = {}

    def count(self, name: str, n: int):
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def inside(self, prefix: str) -> bool:
        return any(frame[0].startswith(prefix) for frame in self.stack)

    def wrap(self, name, fn, hook=None):
        """``fn`` recorded as span ``name`` (a string, or a function of the call's
        first argument that returns one)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(args[0])
            frame = [span, 0.0]
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][1] += busy
                agg = tracer.spans.setdefault(span, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += busy
                agg[2] += busy - frame[1]
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target in every loaded ``shiftbench`` module that refers to it."""
        import shiftbench.classifier as classifier
        import shiftbench.cli  # noqa: F401  (loads every module the CLI uses)
        import shiftbench.quantifiers as quantifiers

        modules = [m for n, m in list(sys.modules.items())
                   if n == "shiftbench" or n.startswith("shiftbench.")]
        for span, (module, attr, hook) in TARGETS.items():
            original = getattr(sys.modules[f"shiftbench.{module}"], attr, None)
            if original is None:
                self.missing.append(span)
                continue
            wrapped = self.wrap(span, original, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        for cls in vars(quantifiers).values():
            if (isinstance(cls, type) and issubclass(cls, quantifiers.Quantifier)
                    and "quantify" in vars(cls)):
                cls.quantify = self.wrap(
                    lambda q: f"quantifiers.quantify.{q.method}", vars(cls)["quantify"])
        classifier.optimize = _CountingOptimize(classifier.optimize, self)
        util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self):
        self.reset()
        self.forked = perf_counter()
        util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self):
        path = self.trace_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts,
                                    "forked": self.forked, "exited": perf_counter()}))

    def worker_dumps(self) -> list[dict]:
        return [json.loads(p.read_text()) for p in sorted(self.trace_dir.glob("worker-*.json"))]


class _CountingOptimize:
    """Stands in for ``scipy.optimize`` inside ``shiftbench.classifier`` and counts
    the iterations and failures of each ``minimize`` result."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._module, name)

    def minimize(self, *args, **kwargs):
        result = self._module.minimize(*args, **kwargs)
        self._tracer.count("classifier.lbfgs.iterations", result.nit)
        self._tracer.count("classifier.lbfgs.nonconverged", int(not result.success))
        return result
