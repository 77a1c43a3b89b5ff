"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: the benchmark replaces, for
the duration of a traced pass, the module attributes that warpdens looks
up at call time, and restores them afterwards.  Each span keeps its name,
start, end, parent span and thread.  The objective function is too hot to
record one span per call, so its calls are aggregated into the enclosing
``estimator.minimize`` span instead.
"""

from __future__ import annotations

import contextlib
import math
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

# a restart "hits" the best optimum of its J sweep when it ends this close to it
BEST_HIT_NATS = 1e-6


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._adopter: int | None = None

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, adopt: bool = False):
        """Record a span; with ``adopt``, spans opened on threads that have
        no open span of their own (pool workers) become its children."""
        stack = self._stack()
        parent = stack[-1].id if stack else self._adopter
        previous_adopter = self._adopter
        with self._lock:
            sp = Span(len(self.spans), name, parent, threading.get_ident(),
                      time.perf_counter())
            self.spans.append(sp)
        stack.append(sp)
        if adopt:
            self._adopter = sp.id
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if adopt:
                self._adopter = previous_adopter

    def wrap(self, name: str, func, on_result=None):
        """``func`` wrapped in a span; ``on_result(span, result)`` may add attributes."""

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = func(*args, **kwargs)
                if on_result is not None:
                    on_result(sp, result)
            return result

        return traced

    def wrap_minimize(self, minimize):
        """``scipy.optimize.minimize`` in a span that also aggregates the
        calls, busy time and non-finite values of the objective it drives."""

        def traced(fun, x0, *args, **kwargs):
            calls = 0
            busy = 0.0
            nonfinite = 0

            def objective(theta, *fargs):
                nonlocal calls, busy, nonfinite
                t0 = time.perf_counter()
                value = fun(theta, *fargs)
                busy += time.perf_counter() - t0
                calls += 1
                f = value[0] if isinstance(value, tuple) else value
                if not math.isfinite(f):
                    nonfinite += 1
                return value

            with self.span("estimator.minimize") as sp:
                res = minimize(objective, x0, *args, **kwargs)
            maxiter = (kwargs.get("options") or {}).get("maxiter")
            sp.attrs.update(
                obj_calls=calls,
                obj_s=busy,
                obj_nonfinite=nonfinite,
                nfev=int(res.nfev),
                fun=float(res.fun),
                hit_maxiter=maxiter is not None and int(res.nit) >= maxiter,
            )
            return res

        return traced

    def to_json(self) -> list[dict]:
        return [asdict(sp) for sp in self.spans]


@contextlib.contextmanager
def patched(replacements):
    """Set ``module.name = value`` for each triple; restore on exit."""
    saved = []
    try:
        for module, name, value in replacements:
            saved.append((module, name, getattr(module, name)))
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)


def _record_weights(sp: Span, w) -> None:
    kept = w > 0
    sp.attrs["kept_frac"] = float(kept.mean())
    sp.attrs["n_eff"] = float(1.0 / (w[kept] ** 2).sum())


def traced_layers(tracer: Tracer, estimator, conditional, bench):
    """Replacements that trace every layer boundary named in README.md."""
    t = tracer
    return patched([
        (estimator, "fit_fixed_j", t.wrap("estimator.fit_fixed_j", estimator.fit_fixed_j)),
        (estimator, "minimize", t.wrap_minimize(estimator.minimize)),
        (estimator, "count_modes", t.wrap("templates.count_modes", estimator.count_modes)),
        (estimator, "build_template",
         t.wrap("templates.build_template", estimator.build_template)),
        (estimator, "coeffs_to_warp",
         t.wrap("geometry.coeffs_to_warp", estimator.coeffs_to_warp)),
        # conditional.py reaches the estimator as ``estimator.fit``
        (estimator, "fit", t.wrap("estimator.fit", estimator.fit)),
        (conditional, "adaptive_bandwidth",
         t.wrap("conditional.bandwidth", conditional.adaptive_bandwidth)),
        (conditional, "compute_weights",
         t.wrap("conditional.weights", conditional.compute_weights, _record_weights)),
        (bench, "_run_replicate", t.wrap("bench.replicate", bench._run_replicate)),
        (bench, "error_norms", t.wrap("bench.error_norms", bench.error_norms)),
    ])


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and seconds from one traced pass."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)
        children[sp.parent].append(sp)

    def total_s(name):
        return sum(sp.seconds for sp in by_name[name])

    def mean_attr(name, key):
        # fsum: spans from pool threads arrive in any order
        vals = [sp.attrs[key] for sp in by_name[name]]
        return math.fsum(vals) / len(vals) if vals else 0.0

    runs = by_name["estimator.minimize"]
    sweeps = by_name["estimator.fit_fixed_j"]
    calls = sum(sp.attrs["obj_calls"] for sp in runs)
    obj_s = sum(sp.attrs["obj_s"] for sp in runs)

    hits = 0
    shrink_iters = 0
    shrink_fired = 0
    shrink_s = 0.0
    for sweep in sweeps:
        funs = [c.attrs["fun"] for c in children[sweep.id] if c.name == "estimator.minimize"]
        finite = [f for f in funs if math.isfinite(f)]
        if finite:
            best = min(finite)
            hits += sum(1 for f in finite if f - best <= BEST_HIT_NATS)
        # the first count_modes call per J is the check; each further one
        # is an iteration of the shape-guarantee shrink
        checks = [c for c in children[sweep.id] if c.name == "templates.count_modes"]
        if len(checks) > 1:
            shrink_fired += 1
            shrink_iters += len(checks) - 1
            shrink_s += checks[-1].end - checks[0].end

    def frac(num, den):
        return num / den if den else 0.0

    return {
        "estimator.j_sweep.count": len(sweeps),
        "estimator.j_sweep.s": total_s("estimator.fit_fixed_j"),
        "estimator.nelder_mead.runs": len(runs),
        "estimator.nelder_mead.nfev": sum(sp.attrs["nfev"] for sp in runs),
        "estimator.nelder_mead.maxiter_frac": frac(
            sum(sp.attrs["hit_maxiter"] for sp in runs), len(runs)),
        "estimator.nelder_mead.best_hit_frac": frac(hits, len(runs)),
        "estimator.nelder_mead.overhead_s": total_s("estimator.minimize") - obj_s,
        "estimator.objective.calls": calls,
        "estimator.objective.s": obj_s,
        "estimator.objective.us_per_call": 1e6 * frac(obj_s, calls),
        "estimator.objective.inf_frac": frac(
            sum(sp.attrs["obj_nonfinite"] for sp in runs), calls),
        "estimator.shrink.iters": shrink_iters,
        "estimator.shrink.fired_frac": frac(shrink_fired, len(sweeps)),
        "estimator.shrink.s": shrink_s,
        "geometry.coeffs_to_warp.calls": len(by_name["geometry.coeffs_to_warp"]),
        "geometry.coeffs_to_warp.s": total_s("geometry.coeffs_to_warp"),
        "templates.build_template.calls": len(by_name["templates.build_template"]),
        "templates.build_template.s": total_s("templates.build_template"),
        "templates.count_modes.calls": len(by_name["templates.count_modes"]),
        "templates.count_modes.s": total_s("templates.count_modes"),
        "conditional.bandwidth.s": total_s("conditional.bandwidth"),
        "conditional.weights.s": total_s("conditional.weights"),
        "conditional.kept_frac": mean_attr("conditional.weights", "kept_frac"),
        "conditional.n_eff": mean_attr("conditional.weights", "n_eff"),
        "bench.replicate.s": total_s("bench.replicate"),
        "bench.error_norms.s": total_s("bench.error_norms"),
    }


def busy_frac(spans: list[Span], workers: int) -> float:
    """Summed replicate wall time over workers x run_benchmark wall time."""
    runs = [sp for sp in spans if sp.name == "bench.run_benchmark"]
    elapsed = sum(sp.seconds for sp in runs)
    busy = sum(sp.seconds for sp in spans if sp.name == "bench.replicate")
    return busy / (workers * elapsed) if elapsed else 0.0

