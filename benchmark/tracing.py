"""Per-layer tracing of cauchydos from outside the package.

The tracer replaces public functions at the module binding each caller looks
up (for example ``spectra.eigvals_sym`` for the estimators and
``checks.eigvals_sym`` for the free control of the continuum check) with
wrappers that record spans. Nothing under ``src/`` is edited. A binding that
a later refactor removes is skipped, so its layer reports 0 calls.

Spans carry the thread that ran them and a logical parent, so samples run by
the sample pool are attributed to the estimator that started them. Self times
partition the traced wall time: at each instant the time is split equally
among the innermost spans that are running, where a span waiting on its own
children in other threads does not count as running.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field

import numpy as np
from cauchydos.measures import EnergyGrid

# (module, binding, layer) of every wrapped public function.
BINDINGS = [
    ("cauchydos.cli", "main", "cli"),
    ("cauchydos.cli", "dos_mc", "spectra.estimator"),
    ("cauchydos.cli", "charfn_mc", "spectra.estimator"),
    ("cauchydos.checks", "dos_mc", "spectra.estimator"),
    ("cauchydos.checks", "ids_mc", "spectra.estimator"),
    ("cauchydos.checks", "charfn_mc", "spectra.estimator"),
    ("cauchydos.checks", "check_semigroup", "checks"),
    ("cauchydos.checks", "check_analytic_strip", "checks"),
    ("cauchydos.checks", "check_charfn_identity", "checks"),
    ("cauchydos.checks", "check_dos_identity", "checks"),
    ("cauchydos.checks", "check_bethe_dos", "checks"),
    ("cauchydos.checks", "check_continuum_ids", "checks"),
    ("cauchydos.checks", "grid_convolve", "measures.convolve"),
    ("cauchydos.checks", "build_continuum", "ensemble.build"),
    ("cauchydos.checks", "eigvals_sym", "spectra.dense"),
    ("cauchydos.checks", "empirical_ids", "spectra.count"),
    ("cauchydos.spectra", "draw_sample", "ensemble.draw"),
    ("cauchydos.spectra", "build_operator", "ensemble.build"),
    ("cauchydos.spectra", "eigvals_sym", "spectra.dense"),
    ("cauchydos.spectra", "eig_sym", "spectra.dense"),
    ("cauchydos.spectra", "empirical_ids", "spectra.count"),
    ("cauchydos.spectra", "chebyshev_evolve", "spectra.cheb"),
    ("cauchydos.spectra", "bessel_j_sequence", "free_models.bessel_seq"),
] + [
    ("cauchydos.free_models", name, "free_models.exact")
    for name in ("lattice_dos_curve", "lattice_dos_smoothed", "bethe_dos_curve",
                 "bethe_dos_smoothed", "kesten_mckay_density", "continuum_ids_smoothed",
                 "continuum_free_ids", "truncated_tree_mean_stieltjes",
                 "truncated_tree_root_stieltjes", "lattice_free_charfn",
                 "lattice_offdiag_charfn")
]

# The private sample loop, wrapped only to time each sample; skipped if absent.
SAMPLE_LOOP = ("cauchydos.spectra", "_run_samples")

# layer -> self-time metric; the partition assigns every instant to one of these
SELF_METRIC = {
    "ensemble.draw": "ensemble.draw_s",
    "ensemble.build": "ensemble.build_s",
    "spectra.dense": "spectra.dense_s",
    "spectra.cheb": "spectra.cheb_s",
    "spectra.count": "spectra.count_s",
    "spectra.estimator": "spectra.estimator_self_s",
    "free_models.exact": "free_models.exact_s",
    "free_models.bessel_seq": "free_models.bessel_seq_s",
    "measures.convolve": "measures.convolve_s",
    "checks": "checks.self_s",
    "cli": "cli.self_s",
    "bench": "bench.self_s",
}

CALL_METRIC = {
    "ensemble.draw": "ensemble.draw_calls",
    "ensemble.build": "ensemble.build_calls",
    "spectra.dense": "spectra.dense_calls",
    "spectra.cheb": "spectra.cheb_calls",
    "free_models.exact": "free_models.exact_calls",
    "free_models.bessel_seq": "free_models.bessel_seq_calls",
}

# name -> unit, in the order they are printed.
LAYER_METRICS = {
    "bench.wall_s": "s",
    "bench.self_s": "s",
    "trace.overhead_s": "s",
    "cli.self_s": "s",
    "checks.self_s": "s",
    "ensemble.draw_s": "s",
    "ensemble.draw_calls": "count",
    "ensemble.omega_absmax": "energy",
    "ensemble.build_s": "s",
    "ensemble.build_calls": "count",
    "spectra.dense_s": "s",
    "spectra.dense_calls": "count",
    "spectra.dense_gflop": "GFLOP-computed",
    "spectra.cheb_s": "s",
    "spectra.cheb_calls": "count",
    "spectra.cheb_radius_p50": "energy",
    "spectra.cheb_radius_max": "energy",
    "spectra.count_s": "s",
    "spectra.estimator_self_s": "s",
    "spectra.sample_calls": "count",
    "spectra.sample_p50_ms": "ms",
    "spectra.sample_p90_ms": "ms",
    "spectra.sample_max_ms": "ms",
    "spectra.parallel_eff": "ratio",
    "free_models.exact_s": "s",
    "free_models.exact_calls": "count",
    "free_models.exact_points": "count",
    "free_models.bessel_seq_s": "s",
    "free_models.bessel_seq_calls": "count",
    "measures.convolve_s": "s",
}


@dataclass
class Span:
    ident: int
    layer: str
    thread: int
    parent: int | None
    start: float
    end: float = 0.0
    workers: int = 0  # estimator spans: pool size of the sample loop they ran


@dataclass
class Tracer:
    """Records spans and layer counters while installed; keep one per process."""

    spans: list = field(default_factory=list)
    calls: dict = field(default_factory=dict)
    gflop: float = 0.0
    exact_points: int = 0
    omega_absmax: float = 0.0
    radii: list = field(default_factory=list)
    extra_s: float = 0.0  # time spent computing diagnostics inside wrappers
    per_call_s: float = 0.0
    _ids: itertools.count = field(default_factory=itertools.count)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _restore: list = field(default_factory=list)

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, layer: str, parent: Span | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(next(self._ids), layer, threading.get_ident(),
                    parent.ident if parent else None, time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def traced(self, layer: str, fn, on_call=None):
        """Wrap ``fn`` so each call is a span of ``layer``."""

        def wrapper(*args, **kwargs):
            span = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            extra = 0.0
            if on_call is not None:
                t0 = time.perf_counter()
                on_call(args, kwargs, result)
                extra = time.perf_counter() - t0
            with self._lock:
                self.calls[layer] = self.calls.get(layer, 0) + 1
                self.extra_s += extra
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-layer diagnostics ------------------------------------------------

    def _on_draw(self, args, kwargs, sample):
        peak = float(np.max(np.abs(sample.omegas)))
        with self._lock:
            self.omega_absmax = max(self.omega_absmax, peak)

    def _on_dense(self, args, kwargs, result):
        n = args[0].n
        with self._lock:
            self.gflop += (4.0 / 3.0) * n ** 3 * 1e-9

    def _on_cheb(self, args, kwargs, result):
        op = args[0]
        if getattr(self._local, "last_op", None) is not op:
            self._local.last_op = op
            lo, hi = op.gershgorin_interval()
            with self._lock:
                self.radii.append(0.5 * (hi - lo))

    def _on_exact(self, args, kwargs, result):
        grids = [a for a in args if isinstance(a, EnergyGrid)]
        points = grids[0].count if grids else int(np.size(args[-1] if args else 0.0))
        with self._lock:
            self.exact_points += points

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        hooks = {"ensemble.draw": self._on_draw, "spectra.dense": self._on_dense,
                 "spectra.cheb": self._on_cheb, "free_models.exact": self._on_exact}
        for module_name, name, layer in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, name, None)
            if fn is None:
                continue
            self._restore.append((module, name, fn))
            setattr(module, name, self.traced(layer, fn, hooks.get(layer)))
        module = importlib.import_module(SAMPLE_LOOP[0])
        loop = getattr(module, SAMPLE_LOOP[1], None)
        if loop is not None:
            self._restore.append((module, SAMPLE_LOOP[1], loop))
            setattr(module, SAMPLE_LOOP[1], self._traced_sample_loop(module, loop))
        self.per_call_s = self._calibrate()

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._restore):
            setattr(module, name, fn)
        self._restore.clear()

    def _traced_sample_loop(self, spectra, loop):
        def run_samples(per_sample, n_samples, workers=None, *args, **kwargs):
            estimator = self.current()
            pool = spectra.worker_count() if workers is None else max(1, workers)
            if estimator is not None:
                estimator.workers = min(pool, n_samples)

            def timed(i):
                span = self.open("spectra.sample", parent=estimator)
                try:
                    return per_sample(i)
                finally:
                    self.close(span)

            return loop(timed, n_samples, workers, *args, **kwargs)

        return run_samples

    def _calibrate(self, n: int = 2000) -> float:
        """Wrapper cost per call, measured on a no-op; the spans are discarded."""

        def noop():
            return None

        wrapped = self.traced("calibration", noop)
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped()
        cost = time.perf_counter() - t0
        self.spans.clear()
        self.calls.clear()
        return max(0.0, (cost - bare) / n)

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per layer; the values sum to the duration of the root spans."""
        by_id = {s.ident: s for s in self.spans}
        events = sorted([(s.start, 1, s.ident) for s in self.spans]
                        + [(s.end, 0, s.ident) for s in self.spans])
        open_by_thread: dict[int, list] = {}
        totals = dict.fromkeys(SELF_METRIC, 0.0)
        last = None
        for t, is_start, ident in events:
            if last is not None and t > last:
                tops = [stack[-1] for stack in open_by_thread.values() if stack]
                waiting = set()
                for span in tops:
                    parent = span.parent
                    while parent is not None and parent not in waiting:
                        waiting.add(parent)
                        parent = by_id[parent].parent
                running = [s for s in tops if s.ident not in waiting]
                share = (t - last) / len(running) if running else 0.0
                for span in running:
                    layer = "spectra.estimator" if span.layer == "spectra.sample" else span.layer
                    totals[layer] += share
            span = by_id[ident]
            stack = open_by_thread.setdefault(span.thread, [])
            if is_start:
                stack.append(span)
            else:
                stack.remove(span)
            last = t
        return totals

    def metrics(self, rounds: int) -> dict:
        """Per-round layer metrics, every name in LAYER_METRICS."""
        per_round = 1.0 / max(rounds, 1)
        out = dict.fromkeys(LAYER_METRICS, 0.0)
        for layer, seconds in self.self_times().items():
            out[SELF_METRIC[layer]] = seconds * per_round
        out["bench.wall_s"] = sum(s.end - s.start for s in self.spans
                                  if s.layer == "bench") * per_round
        for layer, name in CALL_METRIC.items():
            out[name] = self.calls.get(layer, 0) * per_round
        n_calls = sum(self.calls.values()) + sum(1 for s in self.spans
                                                 if s.layer == "spectra.sample")
        out["trace.overhead_s"] = (n_calls * self.per_call_s + self.extra_s) * per_round
        out["ensemble.omega_absmax"] = self.omega_absmax
        out["spectra.dense_gflop"] = self.gflop * per_round
        out["free_models.exact_points"] = self.exact_points * per_round
        if self.radii:
            out["spectra.cheb_radius_p50"] = float(np.median(self.radii))
            out["spectra.cheb_radius_max"] = float(np.max(self.radii))
        samples = [s.end - s.start for s in self.spans if s.layer == "spectra.sample"]
        if samples:
            ms = 1e3 * np.asarray(samples)
            out["spectra.sample_calls"] = ms.size * per_round
            out["spectra.sample_p50_ms"] = float(np.percentile(ms, 50))
            out["spectra.sample_p90_ms"] = float(np.percentile(ms, 90))
            out["spectra.sample_max_ms"] = float(ms.max())
            capacity = sum((s.end - s.start) * s.workers for s in self.spans
                           if s.layer == "spectra.estimator" and s.workers)
            out["spectra.parallel_eff"] = float(sum(samples) / capacity) if capacity else 0.0
        return out
