"""Benchmark densities, error norms, and the replicated runner.

The registry mirrors the simulation scenarios used to evaluate the
method: unimodal / bimodal / trimodal normal mixtures, a Beta density
with known support, monotone truncated normals, a trapezoid with a flat
mode, and two conditional setups.  Mixture parameters are read as
(mean, variance).  Every density has ``pdf(x)`` and ``sample(n, rng)``.
The components are small closed-form laws whose ``sample`` draws from a
numpy Generator exactly as scipy.stats' frozen ``rvs`` does, so the
library needs nothing from scipy.stats.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .conditional import ConditionalFitConfig, fit_conditional
from .errors import DomainError, WarpdensError
from .estimator import DensityEstimate, FitConfig, fit
from .templates import ShapeSpec


_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Normal:
    loc: float
    scale: float

    def pdf(self, x):
        z = (np.asarray(x, float) - self.loc) / self.scale
        return np.exp(-z * z / 2.0) / _SQRT_2PI / self.scale

    def sample(self, n, rng):
        return rng.standard_normal(n) * self.scale + self.loc


@dataclass(frozen=True)
class Laplace:
    loc: float
    scale: float

    def pdf(self, x):
        z = (np.asarray(x, float) - self.loc) / self.scale
        return np.exp(-np.abs(z)) / 2.0 / self.scale

    def sample(self, n, rng):
        return rng.laplace(0.0, 1.0, n) * self.scale + self.loc


@dataclass(frozen=True)
class Beta:
    """Beta(a, b) on (0, 1); the pdf is 0 outside it (meant for a, b > 1)."""

    a: float
    b: float

    def pdf(self, x):
        x = np.asarray(x, float)
        inside = (x > 0.0) & (x < 1.0)
        u = np.where(inside, x, 0.5)
        a, b = self.a, self.b
        log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        logp = log_norm + (a - 1.0) * np.log(u) + (b - 1.0) * np.log1p(-u)
        return np.where(inside, np.exp(logp), 0.0)

    def sample(self, n, rng):
        return rng.beta(self.a, self.b, n)


@dataclass(frozen=True)
class Mixture:
    """Mixture of components with ``pdf`` and ``sample``."""

    weights: tuple[float, ...]
    components: tuple

    def pdf(self, x):
        x = np.asarray(x, float)
        out = np.zeros_like(x)
        for w, comp in zip(self.weights, self.components):
            out += w * comp.pdf(x)
        return out

    def sample(self, n, rng):
        counts = rng.multinomial(n, self.weights)
        draws = [comp.sample(k, rng) for k, comp in zip(counts, self.components)]
        x = np.concatenate([d for d in draws if d.size] or [np.empty(0)])
        rng.shuffle(x)
        return x


def normal_mixture(*parts: tuple[float, float, float]) -> Mixture:
    """Mixture from (weight, mean, variance) triples."""
    ws = tuple(p[0] for p in parts)
    comps = tuple(Normal(p[1], math.sqrt(p[2])) for p in parts)
    return Mixture(ws, comps)


@dataclass(frozen=True)
class Truncated:
    """A base density restricted to [lo, hi], sampled by rejection."""

    base: Mixture
    lo: float
    hi: float

    def _mass(self) -> float:
        grid = np.linspace(self.lo, self.hi, 4097)
        return float(np.trapezoid(self.base.pdf(grid), grid))

    def pdf(self, x):
        x = np.asarray(x, float)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, self.base.pdf(x) / self._mass(), 0.0)

    def sample(self, n, rng):
        out = np.empty(0)
        while out.size < n:
            draw = self.base.sample(2 * n + 16, rng)
            out = np.concatenate([out, draw[(draw >= self.lo) & (draw <= self.hi)]])
        return out[:n]


@dataclass(frozen=True)
class Trapezoid:
    """Density proportional to x, 1/3, (1-x) on thirds of [0,1]."""

    def pdf(self, x):
        x = np.asarray(x, float)
        raw = np.where(
            x < 0, 0.0,
            np.where(
                x <= 1 / 3, x,
                np.where(x <= 2 / 3, 1 / 3, np.where(x <= 1, 1.0 - x, 0.0)),
            ),
        )
        return raw / (2.0 / 9.0)

    def sample(self, n, rng):
        out = np.empty(0)
        while out.size < n:
            cand = rng.uniform(0.0, 1.0, 2 * n + 16)
            accept = rng.uniform(0.0, 1.5, cand.size) < self.pdf(cand)
            out = np.concatenate([out, cand[accept]])
        return out[:n]


class ConditionalSetup:
    """Standard normal covariates; subclasses give ``sample_y(x, rng)`` and
    ``true_conditional(x0)``, the response law given the covariate."""

    def sample_x(self, n, rng):
        return Normal(0.0, 1.0).sample(n, rng)


class _BimodalConditional(ConditionalSetup):
    def sample_y(self, x, rng):
        locs = np.where(rng.uniform(size=x.size) < 0.5, x - 1.5, x + 1.5)
        return rng.normal(locs, 0.5)

    def true_conditional(self, x0):
        return Mixture(
            (0.5, 0.5), (Normal(x0 - 1.5, 0.5), Normal(x0 + 1.5, 0.5))
        )


class _UnimodalConditional(ConditionalSetup):
    # DExp(loc, scale) read as the Laplace density
    def sample_y(self, x, rng):
        return rng.laplace((2.0 * x - 1.0) ** 2, 1.0)

    def true_conditional(self, x0):
        return Laplace((2.0 * x0 - 1.0) ** 2, 1.0)


@dataclass(frozen=True)
class BenchmarkSpec:
    name: str
    shape: ShapeSpec
    true_density: Mixture | Truncated | Trapezoid | None = None
    conditional: ConditionalSetup | None = None
    support: tuple[float, float] | None = None
    sample_sizes: tuple[int, ...] = (100, 500, 1000)
    replicates: int = 20
    seed: int = 0
    restarts: int = 8
    j_max: int = 10
    x0_quantile: float = 0.5


BENCHMARKS: dict[str, BenchmarkSpec] = {}


def _register(spec: BenchmarkSpec) -> None:
    BENCHMARKS[spec.name] = spec


_register(BenchmarkSpec(
    name="symmetric-unimodal",
    shape=ShapeSpec.modes(1),
    true_density=normal_mixture((0.8, 0.0, 4.0), (0.2, 0.0, 0.5)),
))
_register(BenchmarkSpec(
    name="skewed-unimodal",
    shape=ShapeSpec.modes(1),
    true_density=Mixture((1.0,), (Beta(9, 3),)),
    support=(0.0, 1.0),
))
_register(BenchmarkSpec(
    name="contaminated-unimodal",
    shape=ShapeSpec.modes(1),
    true_density=normal_mixture((0.95, 0.0, 0.5), (0.05, 3.0, 1.0)),
))
_register(BenchmarkSpec(
    name="bimodal",
    shape=ShapeSpec.modes(2),
    true_density=normal_mixture((1 / 3, -1.0, 1.0), (2 / 3, 1.0, 0.3)),
))
_register(BenchmarkSpec(
    name="trimodal",
    shape=ShapeSpec.modes(3),
    true_density=normal_mixture(
        (1 / 3, -1.0, 0.25), (1 / 3, 0.0, 0.25), (1 / 3, 2.0, 0.3)
    ),
))
# the source disagrees on the truncated-normal variance; both are provided
_register(BenchmarkSpec(
    name="monotone-n01",
    shape=ShapeSpec(("dec",), free_boundaries=True),
    true_density=Truncated(normal_mixture((1.0, 0.0, 1.0)), 0.0, 1.0),
    support=(0.0, 1.0),
    sample_sizes=(500,),
))
_register(BenchmarkSpec(
    name="monotone-n04",
    shape=ShapeSpec(("dec",), free_boundaries=True),
    true_density=Truncated(normal_mixture((1.0, 0.0, 0.4)), 0.0, 1.0),
    support=(0.0, 1.0),
    sample_sizes=(500,),
))
_register(BenchmarkSpec(
    name="flat-mode",
    shape=ShapeSpec(("inc", "flat", "dec")),
    true_density=Trapezoid(),
    support=(0.0, 1.0),
    sample_sizes=(500,),
))
_register(BenchmarkSpec(
    name="cond-unimodal",
    shape=ShapeSpec.modes(1),
    conditional=_UnimodalConditional(),
    sample_sizes=(1000,),
))
_register(BenchmarkSpec(
    name="cond-bimodal",
    shape=ShapeSpec.modes(2),
    conditional=_BimodalConditional(),
    sample_sizes=(1000,),
))


def error_norms(est: DensityEstimate, true_density) -> tuple[float, float, float]:
    """(L1, L2, Linf) of the estimate minus the truth, in data units."""
    a, b = est.support
    grid = np.linspace(a, b, 1024)
    diff = est.pdf(grid) - true_density.pdf(grid)
    l1 = float(np.trapezoid(np.abs(diff), grid))
    l2 = float(math.sqrt(np.trapezoid(diff * diff, grid)))
    linf = float(np.max(np.abs(diff)))
    return l1, l2, linf


@dataclass(frozen=True)
class ReplicateRecord:
    replicate: int
    n: int
    l1: float
    l2: float
    linf: float
    j: int
    loglik: float
    aic: float
    wall_ms: float


@dataclass(frozen=True)
class ErrorSummary:
    name: str
    n: int
    replicates: int
    failures: int
    failed: tuple[tuple[int, str], ...]  # (replicate, error class name)
    mean: dict[str, float]
    sd: dict[str, float]
    wall_ms_mean: float
    records: tuple[ReplicateRecord, ...]


def _fit_config(spec: BenchmarkSpec, seed: int) -> FitConfig:
    return FitConfig(
        shape=spec.shape,
        restarts=spec.restarts,
        j_max=spec.j_max,
        support=spec.support,
        seed=seed,
    )


def _run_replicate(spec: BenchmarkSpec, n: int, rep: int) -> ReplicateRecord:
    rng = np.random.default_rng([spec.seed, rep])
    fit_seed = int(rng.integers(2**31))
    start = time.perf_counter()
    if spec.conditional is not None:
        x = spec.conditional.sample_x(n, rng)
        y = spec.conditional.sample_y(x, rng)
        x0 = float(np.quantile(x, spec.x0_quantile))
        cfg = ConditionalFitConfig(base=_fit_config(spec, fit_seed), x0=x0)
        est = fit_conditional(x, y, cfg)
        truth = spec.conditional.true_conditional(x0)
    else:
        x = spec.true_density.sample(n, rng)
        est = fit(x, _fit_config(spec, fit_seed))
        truth = spec.true_density
    wall_ms = (time.perf_counter() - start) * 1000.0
    l1, l2, linf = error_norms(est, truth)
    return ReplicateRecord(rep, n, l1, l2, linf, est.j, est.loglik, est.aic, wall_ms)


def run_benchmark(
    spec: BenchmarkSpec,
    n: int,
    out_dir: str | None = None,
    workers: int = 1,
) -> ErrorSummary:
    """Replicated fit + error norms; deterministic for a fixed seed.

    Replicates run serially in the calling thread, each on its own RNG
    stream keyed by (seed, index).  A replicate that raises a
    ``WarpdensError`` is counted and recorded in ``failed``; all failing
    raises ``DomainError``.  ``workers`` is accepted and ignored: threads
    ran replicates about 3x slower, as the fit's small numpy calls
    contend for the interpreter lock, and each fit already runs its
    starts on every CPU (``estimator.fit_fixed_j``).  A process pool of
    replicates stays out too: the benchmark harness captures each
    estimate by wrapping ``fit_conditional`` in its own process.
    """
    for name, value, least in (("n", n, 1), ("seed", spec.seed, 0),
                               ("replicates", spec.replicates, 1)):
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise DomainError(f"{name} must be >= {least}, got {value}")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)  # fail before any replicate runs
    ok: list[ReplicateRecord] = []
    failed: list[tuple[int, str]] = []
    for r in range(spec.replicates):
        try:
            ok.append(_run_replicate(spec, n, r))
        except WarpdensError as exc:
            failed.append((r, type(exc).__name__))
    if not ok:
        kinds = ", ".join(sorted({name for _, name in failed}))
        raise DomainError(f"benchmark {spec.name}: every replicate failed ({kinds})")
    arr = {
        "L1": np.array([r.l1 for r in ok]),
        "L2": np.array([r.l2 for r in ok]),
        "Linf": np.array([r.linf for r in ok]),
    }
    summary = ErrorSummary(
        name=spec.name,
        n=n,
        replicates=len(ok),
        failures=len(failed),
        failed=tuple(failed),
        mean={k: float(v.mean()) for k, v in arr.items()},
        sd={k: float(v.std(ddof=1)) if v.size > 1 else 0.0 for k, v in arr.items()},
        wall_ms_mean=float(np.mean([r.wall_ms for r in ok])),
        records=tuple(ok),
    )
    if out_dir is not None:
        write_outputs(summary, out_dir)
    return summary


def _atomic_write(path: str, data: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    except OSError as exc:  # name the target, not the temp file
        raise OSError(exc.errno, f"cannot write {path}: {exc.strerror}") from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_outputs(summary: ErrorSummary, out_dir: str) -> tuple[str, str]:
    """Emit the per-replicate CSV and summary JSON; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{summary.name}-n{summary.n}"
    csv_path = os.path.join(out_dir, f"{stem}-replicates.csv")
    lines = ["replicate,n,L1,L2,Linf,J,loglik,aic,wall_ms"]
    for r in summary.records:
        lines.append(
            f"{r.replicate},{r.n},{r.l1!r},{r.l2!r},{r.linf!r},"
            f"{r.j},{r.loglik!r},{r.aic!r},{r.wall_ms!r}"
        )
    _atomic_write(csv_path, "\n".join(lines) + "\n")
    json_path = os.path.join(out_dir, f"{stem}-summary.json")
    payload = {
        "schema": 1,
        "name": summary.name,
        "n": summary.n,
        "replicates": summary.replicates,
        "failures": summary.failures,
        "failed": [{"replicate": r, "error": e} for r, e in summary.failed],
        "mean": summary.mean,
        "sd": summary.sd,
        "wall_ms_mean": summary.wall_ms_mean,
    }
    _atomic_write(json_path, json.dumps(payload, indent=2) + "\n")
    return csv_path, json_path
