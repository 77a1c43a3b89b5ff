"""warpdens benchmark: fit latency, throughput and accuracy.

    python3 perfbench/run.py --workload fit-n1000 --seed 1 --seconds 45 --trace 0

Workloads (README.md says why each exists):

* ``fit-n1000``: serial ``warpdens.fit`` on fresh bimodal and trimodal
  datasets of n=1000 with the registry settings;
* ``cfit-mc``: ``warpdens.run_benchmark`` on cond-bimodal at n=1000 with
  one worker per CPU, the Monte Carlo table path.

With ``--trace 0`` the run repeats its workload unit (a pair of fits, or
one ``run_benchmark`` call) until ``--seconds`` is spent and
reports the end-to-end metrics listed in BENCHMARK.json.  With
``--trace 1`` it runs a fixed number of units untraced, then the same
units with every layer boundary traced, and reports the per-layer
metrics; the spans go to ``perfbench/out/``.  The traced run ignores
``--seconds``: it makes a fixed number of units, so its counts repeat
exactly for a seed.  Every estimate is checked
(requested mode count, integral 1 within 1e-6, finite log-likelihood).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import fmean, median

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_warpdens():
    if not (SRC / "warpdens" / "__init__.py").is_file():
        sys.exit(f"perfbench: no warpdens sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import warpdens as wd

    return wd


warpdens = _import_warpdens()
from warpdens import bench, conditional, estimator  # noqa: E402

import spans  # noqa: E402


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Problem sizes: FULL is the benchmark, TOY serves the self-tests."""

    n: int = 1000
    restarts: int | None = None  # None keeps the registry setting
    j_max: int | None = None
    setup_probes: int = 5


FULL = Sizes()
TOY = Sizes(n=60, restarts=1, j_max=2, setup_probes=1)

WORKLOADS = ("fit-n1000", "cfit-mc")
MIN_UNITS = 2  # units every run makes; the accuracy metric covers exactly these
REPLICATES = 2  # per run_benchmark call in cfit-mc
FIT_SCENARIOS = ("bimodal", "trimodal")  # one fit of each per fit-n1000 unit


@dataclasses.dataclass
class Outcome:
    """One fit (or one Monte Carlo replicate) and what its checks found."""

    label: str
    seconds: float
    problems: list[str]
    raised: bool = False
    loglik: float = math.nan
    l2: float = math.nan
    loglik_per_obs: float = math.nan  # mean log density in data units


@dataclasses.dataclass
class Unit:
    elapsed: float
    outcomes: list[Outcome]
    key: tuple  # everything deterministic about the results


def check_estimate(est, n_modes: int) -> list[str]:
    """The headline guarantees of one estimate; empty when all hold."""
    problems = []
    if not math.isfinite(est.loglik):
        problems.append(f"log-likelihood {est.loglik!r} is not finite")
    total = float(np.trapezoid(est.p, est.t))
    if not abs(total - 1.0) <= 1e-6:
        problems.append(f"density integrates to {total!r}, not 1")
    try:
        modes = warpdens.count_modes(est.unit_density())
    except warpdens.WarpdensError as exc:
        problems.append(f"mode count failed: {exc}")
    else:
        if modes != n_modes:
            problems.append(f"{modes} modes, {n_modes} requested")
    return problems


def _raised(label: str, seconds: float) -> Outcome:
    traceback.print_exc(file=sys.stderr)
    exc = sys.exc_info()[1]
    return Outcome(label, seconds, [f"raised {type(exc).__name__}: {exc}"], raised=True)


def registry_spec(name: str, sizes: Sizes, **changes):
    if sizes.restarts is not None:
        changes["restarts"] = sizes.restarts
    if sizes.j_max is not None:
        changes["j_max"] = sizes.j_max
    return dataclasses.replace(warpdens.BENCHMARKS[name], **changes)


def fit_inputs(seed: int, unit: int, sizes: Sizes):
    """(label, spec, sample, config) for each fit of one fit-n1000 unit."""
    n = sizes.n
    inputs = []
    for k, name in enumerate(FIT_SCENARIOS):
        spec = registry_spec(name, sizes)
        rng = np.random.default_rng([seed, unit, k])
        cfg = warpdens.FitConfig(
            shape=spec.shape,
            restarts=spec.restarts,
            j_max=spec.j_max,
            support=spec.support,
            seed=int(rng.integers(2**31)),
        )
        inputs.append((f"{name} n={n} unit {unit}", spec, spec.true_density.sample(n, rng), cfg))
    return inputs


def cfit_spec(seed: int, unit: int, sizes: Sizes):
    unit_seed = int(np.random.default_rng([seed, unit]).integers(2**31))
    return registry_spec("cond-bimodal", sizes, seed=unit_seed, replicates=REPLICATES)


def run_fits(seed, unit, sizes, tracer=None) -> Unit:
    start = time.perf_counter()
    outcomes = []
    for label, spec, x, cfg in fit_inputs(seed, unit, sizes):
        t0 = time.perf_counter()
        try:
            with tracer.span("fit") if tracer else contextlib.nullcontext():
                est = warpdens.fit(x, cfg)
        except Exception:  # a fit that raises is a failed fit; keep measuring
            outcomes.append(_raised(label, time.perf_counter() - t0))
            continue
        seconds = time.perf_counter() - t0
        a, b = est.support
        outcomes.append(Outcome(
            label,
            seconds,
            check_estimate(est, spec.shape.n_modes),
            loglik=est.loglik,
            l2=warpdens.error_norms(est, spec.true_density)[1],
            loglik_per_obs=est.loglik / x.size - math.log(b - a),
        ))
    key = tuple((o.label, o.loglik, o.l2) for o in outcomes)
    return Unit(time.perf_counter() - start, outcomes, key)


def run_cfit(seed, unit, sizes, workers, tracer=None) -> Unit:
    """One run_benchmark call; its estimates are captured for the checks."""
    spec = cfit_spec(seed, unit, sizes)
    original = bench.fit_conditional
    captured = []

    def capture(x, y, cfg):
        est = original(x, y, cfg)
        captured.append((est, math.ceil(cfg.neighbor_fraction * len(x))))
        return est

    start = time.perf_counter()
    try:
        with spans.patched([(bench, "fit_conditional", capture)]), (
            tracer.span("bench.run_benchmark", adopt=True) if tracer else contextlib.nullcontext()
        ):
            summary = warpdens.run_benchmark(spec, sizes.n, workers=workers)
    except Exception:  # one replicate's error aborts the call: all of them failed
        elapsed = time.perf_counter() - start
        first = _raised(f"run_benchmark unit {unit}", elapsed)
        outcomes = [dataclasses.replace(first, label=f"unit {unit} replicate {r}")
                    for r in range(spec.replicates)]
        return Unit(elapsed, outcomes, ())
    elapsed = time.perf_counter() - start

    order = [rec.replicate for rec in summary.records]
    batch_problems = []
    if order != sorted(set(order)):
        batch_problems.append(f"records out of replicate order: {order}")
    outcomes = []
    for rec in summary.records:
        label = f"unit {unit} replicate {rec.replicate}"
        matches = [(est, m) for est, m in captured
                   if (est.loglik, est.aic, est.j) == (rec.loglik, rec.aic, rec.j)]
        if not matches:
            outcomes.append(Outcome(label, rec.wall_ms / 1000.0,
                                    batch_problems + ["no estimate matches the record"]))
            continue
        est, m = matches[0]
        a, b = est.support
        outcomes.append(Outcome(
            label,
            rec.wall_ms / 1000.0,
            batch_problems + check_estimate(est, spec.shape.n_modes),
            loglik=rec.loglik,
            l2=rec.l2,
            loglik_per_obs=est.loglik / m - math.log(b - a),
        ))
    for r in sorted(set(range(spec.replicates)) - set(order)):
        outcomes.append(Outcome(f"unit {unit} replicate {r}", math.nan,
                                ["replicate failed inside run_benchmark"], raised=True))
    key = tuple(dataclasses.replace(rec, wall_ms=0.0) for rec in summary.records)
    return Unit(elapsed, outcomes, key)


def workers_available() -> int:
    return len(os.sched_getaffinity(0))


def unit_runner(workload: str, seed: int, sizes: Sizes, workers: int):
    if workload == "cfit-mc":
        return lambda i, tracer=None, workers=workers: run_cfit(seed, i, sizes, workers, tracer)
    return lambda i, tracer=None: run_fits(seed, i, sizes, tracer)


def machine_facts() -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            with contextlib.suppress(OSError, AttributeError):
                threads = int(getattr(ctypes.CDLL(lib), sym)())
                break
    return {
        "nproc": os.cpu_count(),
        "workers": workers_available(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process (Linux: KiB).  The workload runs in threads;
    the only child processes are the set-up probes, which are not counted."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(workload: str, seed: int) -> None:
    """In a fresh interpreter: import, load the registry and make the first
    unit's inputs, then print the wall clock."""
    if workload == "cfit-mc":
        spec = cfit_spec(seed, 0, FULL)
        rng = np.random.default_rng([spec.seed, 0])
        rng.integers(2**31)
        x = spec.conditional.sample_x(FULL.n, rng)
        spec.conditional.sample_y(x, rng)
    else:
        fit_inputs(seed, 0, FULL)
    print(repr(time.time()))


def measure_setup(workload: str, seed: int, probes: int) -> float:
    """Median seconds from interpreter start to the first timed fit."""
    times = []
    for _ in range(probes):
        t0 = time.time()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.split()[-1]) - t0)
    return median(times)


def _median(values) -> float:
    values = [v for v in values if math.isfinite(v)]
    return median(values) if values else math.nan


def _mean(values) -> float:
    values = [v for v in values if math.isfinite(v)]
    return fmean(values) if values else math.nan


def completed(units) -> list[Outcome]:
    return [o for u in units for o in u.outcomes if not o.raised]


def run_untraced(runner, seconds: float):
    """Repeat units while the next one is expected to end less than half a
    unit past ``seconds``, so a run measures ``seconds`` on average."""
    units = []
    start = time.perf_counter()
    while True:
        units.append(runner(len(units)))
        elapsed = time.perf_counter() - start
        if len(units) >= MIN_UNITS and elapsed + median(u.elapsed for u in units) / 2 > seconds:
            break
    # accuracy from the units every run makes, so it depends on the seed only
    accurate = [o for u in units[:MIN_UNITS] for o in u.outcomes if not o.problems]
    done = completed(units)
    metrics = {
        "fit_s_p50": _median(o.seconds for o in done),
        "fits_per_s": len(done) / elapsed,
        "loglik_per_obs": _mean(o.loglik_per_obs for o in accurate),
    }
    return units, metrics, [], len(done)


def run_traced(workload, runner, workers: int, out_path: Path, facts: dict):
    """Untraced then traced passes over the same units; per-layer metrics."""
    problems = []
    plain = [runner(i) for i in range(MIN_UNITS)]
    tracer = spans.Tracer()
    with spans.traced_layers(tracer, estimator, conditional, bench):
        traced = [runner(i, tracer) for i in range(MIN_UNITS)]
    if [u.key for u in traced] != [u.key for u in plain]:
        problems.append("traced results differ from untraced results")
    metrics = spans.layer_metrics(tracer.spans)
    units = plain + traced
    passes = {"traced": tracer.to_json()}

    speedup = 0.0
    if workload == "cfit-mc":
        serial_tracer = spans.Tracer()
        with spans.traced_layers(serial_tracer, estimator, conditional, bench):
            serial = [runner(i, serial_tracer, workers=1) for i in range(MIN_UNITS)]
        if [u.key for u in serial] != [u.key for u in traced]:
            problems.append("serial records differ from parallel records beyond wall_ms")
        speedup = sum(u.elapsed for u in serial) / sum(u.elapsed for u in traced)
        units += serial
        passes["serial"] = serial_tracer.to_json()
    metrics["bench.worker_busy_frac"] = spans.busy_frac(tracer.spans, workers)
    metrics["bench.parallel_speedup"] = speedup

    fps_plain = len(completed(plain)) / sum(u.elapsed for u in plain)
    fps_traced = len(completed(traced)) / sum(u.elapsed for u in traced)
    metrics["trace.fits_per_s_untraced"] = fps_plain
    metrics["trace.fits_per_s_traced"] = fps_traced
    metrics["trace.overhead_frac"] = fps_plain / fps_traced - 1.0 if fps_traced else math.nan
    metrics["estimate.l2_err_p50"] = _median(
        o.l2 for u in traced for o in u.outcomes if not o.problems)

    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps({"facts": facts, "passes": passes}) + "\n")
    return units, metrics, problems, len(completed(traced))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None, sizes: Sizes = FULL) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    defs = spec["per_layer"] if args.trace else spec["end_to_end"]
    workers = workers_available()
    facts = machine_facts()
    runner = unit_runner(args.workload, args.seed, sizes, workers)

    if args.trace:
        out_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        units, metrics, problems, samples = run_traced(
            args.workload, runner, workers, out_path, facts)
    else:
        setup_s = measure_setup(args.workload, args.seed, sizes.setup_probes)
        units, metrics, problems, samples = run_untraced(runner, args.seconds)
        metrics["setup_s"] = setup_s

    outcomes = [o for u in units for o in u.outcomes]
    failed = sum(1 for o in outcomes if o.problems)
    metrics["ok_frac"] = 1.0 - failed / len(outcomes)
    metrics["peak_rss_mb"] = peak_rss_mb()

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} workers={workers}")
    print("machine " + json.dumps(facts))
    for o in outcomes:
        print(f"{'FAILED' if o.problems else 'ok':<6} {o.label}: {o.seconds:.3f} s "
              f"loglik {o.loglik!r} L2 {o.l2!r} {'; '.join(o.problems)}")
    for p in problems:
        print(f"FAILED {p}")
    print(f"fail_frac {failed / len(outcomes)!r} ({failed} of {len(outcomes)} fits); "
          f"{samples} timed fits in the measured pass")
    result_metrics = {}
    for d in defs:
        value = float(metrics[d["name"]])
        print(f"{d['name']:<38} {value:<22.10g} {d['unit']:<6} ({d['better']} is better)")
        result_metrics[d["name"]] = {"value": value if math.isfinite(value) else 0.0,
                                     "unit": d["unit"]}
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
