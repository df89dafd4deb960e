"""Layer timing for the grid benchmark, recorded from outside the package.

``Tracer.install`` replaces the names through which each module of
``platformtrial`` calls the next (``simharness.generate_trial``,
``analysis.ols_fit``, ``mixed_model.reml_fit``, ...) with timing wrappers,
and ``Tracer.restore`` puts the originals back. The package itself carries
no instrumentation.

Each wrapped call adds its duration to the layer's busy time and to the
child time of the innermost wrapped call around it, so a layer's self time
is its busy time minus the time of wrapped calls made inside it.

Worker processes are forked from the benchmark process, so they inherit the
wrappers. The wrapped ``ProcessPoolExecutor`` sends every task through
``_call_in_worker``, which returns the worker's layer times with the task's
result; the parent merges them.
"""
from __future__ import annotations

import dataclasses
import itertools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from platformtrial import analysis, mixed_model, regression_engine, simharness
from platformtrial.design import ConfigError
from platformtrial.mixed_model import DegenerateRandomDesign
from platformtrial.regression_engine import RankDeficiencyError

# The known statistical failures. ``run_replicate`` counts any exception as a
# failed fit; any other class is a programming error and fails the benchmark.
KNOWN_FIT_ERRORS = (RankDeficiencyError, DegenerateRandomDesign, ConfigError, np.linalg.LinAlgError)
KNOWN_FIT_ERROR_NAMES = tuple(cls.__name__ for cls in KNOWN_FIT_ERRORS)

# gamma = sigma2_random / sigma2 at or below this counts as a boundary
# (gamma -> 0) REML solution. reml_fit clips log(gamma) at -34, where
# boundary fits end (gamma ~ 1.7e-15); interior optima on the bundled grids
# lie well above this threshold.
BOUNDARY_GAMMA = 1e-6

# (module, attribute, layer name). Each entry is a name a caller looks up at
# call time, so replacing it on that module is seen by the caller.
TIMED_NAMES = (
    (simharness, "run_scenario", "simharness.run_scenario"),
    (simharness, "run_replicate", "simharness.run_replicate"),
    (simharness, "generate_trial", "datagen.generate_trial"),
    (simharness, "slice_for_arm", "datagen.slice_for_arm"),
    (simharness, "fit", "analysis.fit"),
    (analysis, "build_design", "regression_engine.build_design"),
    (analysis, "ols_fit", "regression_engine.ols_fit"),
    (analysis, "wald_test", "regression_engine.wald_test"),
    # mixed_wald_test imports wald_test from regression_engine on each call
    (regression_engine, "wald_test", "regression_engine.wald_test"),
    (regression_engine, "basis_matrix", "spline.basis_matrix"),
    (mixed_model, "build_random_design", "mixed_model.build_random_design"),
    (mixed_model, "reml_fit", "mixed_model.reml_fit"),
)

_active: "Tracer | None" = None  # the installed tracer, found by forked workers


class Tracer:
    """Busy/self times and counters per layer, plus the wrappers that feed them."""

    def __init__(self, timed: bool = True):
        self.timed = timed
        self._saved: list[tuple[object, str, object]] = []
        self.busy: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.replicate_ms: list[float] = []
        self.reml_evals: dict[str, list[int]] = defaultdict(list)
        self.unknown_errors: Counter = Counter()
        self.generated: list = []  # (scenario, replicate) per generate_trial call
        self.fitted: list = []  # ((scenario, replicate), spec) per fit call
        self.worker_snapshots: list[dict] = []  # returned by pool tasks
        self._stack: list[float] = []  # child time of each open wrapped call
        self._replicate = None  # (scenario, replicate) being run
        self._estimator = None  # label of the fit being run

    def reset(self):
        """Clear all records in place; the installed wrappers keep working."""
        for store in (self.busy, self.child, self.calls, self.counts, self.replicate_ms,
                      self.reml_evals, self.unknown_errors, self.generated, self.fitted,
                      self.worker_snapshots, self._stack):
            store.clear()

    # -- recording -----------------------------------------------------------

    def _timer(self, name, fn, samples_ms=None):
        """``fn`` wrapped to add its wall time to ``name`` and to its caller's child time."""
        stack, calls, busy, child = self._stack, self.calls, self.busy, self.child

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                calls[name] += 1
                busy[name] += dt
                child[name] += inner
                if samples_ms is not None:
                    samples_ms.append(1000.0 * dt)

        return timed

    def snapshot(self) -> dict:
        """All records, with those of pool workers merged and distinct keys resolved."""
        data_keys: dict[int, int] = {}
        fit_keys: dict = {}

        def data_key(replicate):
            scenario, index = replicate
            if id(scenario) not in data_keys:
                data_keys[id(scenario)] = simharness.scenario_data_key(scenario)
            return data_keys[id(scenario)], index

        def fit_key(spec):
            # drop c_length when the estimator accepts a spec without it
            if spec not in fit_keys:
                try:
                    fit_keys[spec] = dataclasses.replace(spec, c_length=None)
                except ConfigError:
                    fit_keys[spec] = spec
            return fit_keys[spec]

        snap = {
            "busy": dict(self.busy), "child": dict(self.child), "calls": dict(self.calls),
            "counts": dict(self.counts), "replicate_ms": list(self.replicate_ms),
            "reml_evals": {k: list(v) for k, v in self.reml_evals.items()},
            "unknown_errors": dict(self.unknown_errors),
            "data_keys": {data_key(r) for r in self.generated},
            "fit_keys": {(data_key(r), fit_key(spec)) for r, spec in self.fitted},
        }
        for worker in self.worker_snapshots:
            self.merge(snap, worker)
        return snap

    @staticmethod
    def merge(into: dict, snap: dict):
        """Add the records of ``snap`` to the snapshot ``into``."""
        for key in ("busy", "child", "calls", "counts", "unknown_errors"):
            for name, v in snap[key].items():
                into[key][name] = into[key].get(name, 0) + v
        into["replicate_ms"].extend(snap["replicate_ms"])
        for est, v in snap["reml_evals"].items():
            into["reml_evals"].setdefault(est, []).extend(v)
        into["data_keys"] |= snap["data_keys"]
        into["fit_keys"] |= snap["fit_keys"]

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, module, attr, name):
        orig = getattr(module, attr)
        if attr == "fit":
            return self._wrap_fit(orig)
        if attr == "run_replicate":
            timed = self._timer(name, orig, self.replicate_ms)

            def wrapper(scenario, index, *a, **k):
                self._replicate = (scenario, index)
                return timed(scenario, index, *a, **k)
        elif attr == "generate_trial":
            timed = self._timer(name, orig)

            def wrapper(*a, **k):
                self.generated.append(self._replicate)
                return timed(*a, **k)
        elif attr == "reml_fit":
            timed = self._timer(name, orig)

            def wrapper(*a, **k):
                res = timed(*a, **k)
                self.reml_evals[self._estimator].append(int(res.iterations))
                if res.sigma2_random <= BOUNDARY_GAMMA * res.sigma2:
                    self.counts["mixed_model.boundary_hits"] += 1
                if not res.converged:
                    self.counts["mixed_model.nonconverged"] += 1
                return res
        else:
            wrapper = self._timer(name, orig)
        return wrapper

    def _wrap_fit(self, orig):
        def guarded(*a, **k):
            return self._guard(orig, a, k)

        if not self.timed:
            return guarded
        timers: dict = {}

        def wrapper(dataset, m, spec, *a, **k):
            label = spec.label
            if label not in timers:
                timers[label] = self._timer(f"analysis.fit.{label}", guarded)
            self._estimator = label
            self.fitted.append((self._replicate, spec))
            res = timers[label](dataset, m, spec, *a, **k)
            if not res.diagnostics.get("converged", True):
                self.counts["analysis.fit.nonconverged"] += 1
            return res

        return wrapper

    def _guard(self, orig, args, kwargs):
        try:
            return orig(*args, **kwargs)
        except KNOWN_FIT_ERRORS as exc:
            self.counts[f"analysis.fit.errors.{type(exc).__name__}"] += 1
            raise
        except Exception as exc:
            self.unknown_errors[f"{type(exc).__module__}.{type(exc).__name__}: {exc}"] += 1
            raise

    def _pool_class(self):
        base = simharness.ProcessPoolExecutor
        tracer = self

        class TracedPool(base):
            def __init__(self, *a, **k):
                tracer.counts["simharness.pools_started"] += 1
                super().__init__(*a, **k)

            def map(self, fn, *iterables, **k):
                results = super().map(_call_in_worker, itertools.repeat(fn), *iterables, **k)
                for value, snap in results:
                    tracer.worker_snapshots.append(snap)
                    yield value

        return TracedPool

    # -- install / restore ---------------------------------------------------

    def _replace(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        """Wrap the layer boundaries; with ``timed=False`` only the fit guard.

        The pool is wrapped in both cases, so that workers report unknown
        fit exceptions back to the benchmark process.
        """
        global _active
        if _active is not None:
            raise RuntimeError("a tracer is already installed")
        if self.timed:
            for module, attr, name in TIMED_NAMES:
                self._replace(module, attr, self._wrap(module, attr, name))
        else:
            self._replace(simharness, "fit", self._wrap_fit(simharness.fit))
        self._replace(simharness, "ProcessPoolExecutor", self._pool_class())
        _active = self

    def restore(self):
        global _active
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)
        _active = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()


def _call_in_worker(fn, *args):
    """Run one pool task in a worker; return its result with the worker's times."""
    tracer = _active
    if tracer is None:
        raise RuntimeError("worker has no installed tracer; the pool must fork its workers")
    tracer.reset()
    t0 = perf_counter()
    value = fn(*args)
    tracer.counts["simharness.worker_busy_s"] += perf_counter() - t0
    return value, tracer.snapshot()
