"""Tests for the benchmark harness: samplers, norms, replication, outputs."""

import csv
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy import stats

import warpdens

from warpdens import (
    BENCHMARKS,
    DomainError,
    OptimizationError,
    bench,
    conditional,
    error_norms,
    estimator,
    run_benchmark,
)
from warpdens.bench import (
    Beta,
    Laplace,
    Normal,
    Trapezoid,
    _run_replicate,
    normal_mixture,
    write_outputs,
)


def small_spec(**overrides):
    base = dataclasses.replace(
        BENCHMARKS["symmetric-unimodal"], replicates=2, restarts=2, j_max=4
    )
    return dataclasses.replace(base, **overrides)


class TestSamplers:
    def test_single_component_is_pure(self):
        mix = normal_mixture((1.0, 2.0, 0.25))
        x = mix.sample(20000, np.random.default_rng(0))
        assert abs(x.mean() - 2.0) < 0.02
        assert abs(x.std() - 0.5) < 0.02

    def test_mixture_mean(self):
        # 1/3 N(-1,1) + 2/3 N(1,0.3): analytic mean 1/3 (variance reading)
        mix = normal_mixture((1 / 3, -1.0, 1.0), (2 / 3, 1.0, 0.3))
        x = mix.sample(100000, np.random.default_rng(1))
        var = (1 / 3) * (1.0 + 1.0) + (2 / 3) * (0.3 + 1.0) - (1 / 3) ** 2
        se = math.sqrt(var / x.size)
        assert abs(x.mean() - 1 / 3) < 3 * se

    def test_beta_support(self):
        spec = BENCHMARKS["skewed-unimodal"]
        x = spec.true_density.sample(5000, np.random.default_rng(2))
        assert x.min() > 0.0 and x.max() < 1.0

    def test_trapezoid_density_normalized(self):
        trap = Trapezoid()
        t = np.linspace(0, 1, 4001)
        assert abs(np.trapezoid(trap.pdf(t), t) - 1.0) < 1e-6
        x = trap.sample(20000, np.random.default_rng(3))
        assert np.all((x >= 0) & (x <= 1))


class TestComponents:
    """The closed-form components against scipy.stats as the reference."""

    CASES = [
        (Normal(0.7, 1.3), stats.norm(0.7, 1.3), np.linspace(-12.0, 12.0, 2001)),
        (Laplace(1.2, 0.8), stats.laplace(1.2, 0.8), np.linspace(-20.0, 20.0, 2001)),
    ] + [
        (Beta(a, b), stats.beta(a, b), np.linspace(-0.25, 1.25, 2001))
        for a, b in [(9, 3), (2, 2), (5, 12), (12, 5)]
    ]

    @pytest.mark.parametrize("ours, ref, grid", CASES)
    def test_matches_scipy(self, ours, ref, grid):
        for size in (0, 1, 777):
            rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
            drawn = ours.sample(size, rng_a)
            assert np.array_equal(drawn, ref.rvs(size=size, random_state=rng_b))
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
        got, want = ours.pdf(grid), ref.pdf(grid)
        assert np.array_equal(got == 0.0, want == 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_import_and_fit_load_no_scipy():
    # in a fresh interpreter: the library's run-time dependency is numpy alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(warpdens.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, numpy as np, warpdens; "
        "x = np.random.default_rng(0).beta(2, 5, 60); "
        "cfg = warpdens.FitConfig(shape=warpdens.ShapeSpec.modes(1), restarts=1, j_max=2); "
        "warpdens.fit(x, cfg); "
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout.split()
    assert out == []


def test_names_the_benchmark_tracer_patches_exist():
    """perfbench/spans.py wraps these module attributes by name, and
    perfbench/run.py passes ``workers=`` to ``run_benchmark``; a rename
    would break only the benchmark.  ROADMAP item 3 deletes this test, once
    the tracer reads the estimate's diagnostics instead of patching names."""
    patched = {
        estimator: ("fit_fixed_j", "minimize", "count_modes", "build_template",
                    "coeffs_to_warp", "fit"),
        conditional: ("adaptive_bandwidth", "compute_weights", "estimator"),
        bench: ("_run_replicate", "error_norms", "fit_conditional"),
    }
    for module, names in patched.items():
        for name in names:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    assert "workers" in inspect.signature(run_benchmark).parameters


class TestErrorNorms:
    class _Flat:
        def pdf(self, x):
            return np.ones_like(np.asarray(x, float))

    class _Triangle:
        def pdf(self, x):
            return 2.0 - 4.0 * np.abs(np.asarray(x, float) - 0.5)

    class _Estimate:
        """Duck-typed stand-in for DensityEstimate."""

        def __init__(self, fn, support=(0.0, 1.0)):
            self._fn = fn
            self.support = support

        def pdf(self, x):
            return self._fn(x)

    def test_zero_error_for_identical(self):
        flat = self._Flat()
        est = self._Estimate(flat.pdf)
        l1, l2, linf = error_norms(est, flat)
        assert l1 < 1e-10 and l2 < 1e-10 and linf < 1e-10

    def test_constant_offset(self):
        flat = self._Flat()
        est = self._Estimate(lambda x: flat.pdf(x) + 0.1)
        l1, l2, linf = error_norms(est, flat)
        assert abs(l1 - 0.1) < 1e-8
        assert abs(l2 - 0.1) < 1e-8
        assert abs(linf - 0.1) < 1e-12

    def test_triangle_vs_uniform(self):
        # closed form: L1 = 0.5, Linf = 1.0
        est = self._Estimate(self._Triangle().pdf)
        l1, _, linf = error_norms(est, self._Flat())
        assert abs(l1 - 0.5) < 1e-3
        assert abs(linf - 1.0) < 1e-9


def strip_wall(records):
    """Replicate records without the timing field (never deterministic)."""
    return [dataclasses.replace(r, wall_ms=0.0) for r in records]


class TestRunBenchmark:
    def test_deterministic_summary(self):
        spec = small_spec()
        a = run_benchmark(spec, 60)
        b = run_benchmark(spec, 60)
        assert strip_wall(a.records) == strip_wall(b.records)
        assert a.mean == b.mean

    def test_parallel_matches_single(self):
        spec = small_spec()
        a = run_benchmark(spec, 60, workers=1)
        b = run_benchmark(spec, 60, workers=3)
        assert strip_wall(a.records) == strip_wall(b.records)

    def test_replicates_run_in_calling_thread(self, monkeypatch):
        threads = []
        real = bench._run_replicate

        def record_thread(*args):
            threads.append(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(bench, "_run_replicate", record_thread)
        run_benchmark(small_spec(), 60, workers=3)
        assert threads == [threading.current_thread()] * 2

    def test_failed_replicate_is_recorded(self, monkeypatch, tmp_path):
        real = bench.fit
        calls = []

        def fail_first(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise OptimizationError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(bench, "fit", fail_first)
        summary = run_benchmark(small_spec(), 60, out_dir=str(tmp_path))
        assert summary.failures == 1
        assert summary.failed == ((0, "OptimizationError"),)
        assert [r.replicate for r in summary.records] == [1]
        with open(tmp_path / "symmetric-unimodal-n60-summary.json") as fh:
            payload = json.load(fh)
        assert payload["failed"] == [{"replicate": 0, "error": "OptimizationError"}]

    def test_every_replicate_failed_raises(self, monkeypatch):
        def always_fail(*args, **kwargs):
            raise OptimizationError("injected")

        monkeypatch.setattr(bench, "fit", always_fail)
        with pytest.raises(DomainError, match=r"every replicate failed \(Optim"):
            run_benchmark(small_spec(), 60)

    @pytest.mark.parametrize(
        "change, n, match",
        [
            ({"seed": -1}, 60, "seed"),
            ({"replicates": 0}, 60, "replicates"),
            ({}, 0, "n must be >= 1"),
        ],
        ids=["seed", "replicates", "n"],
    )
    def test_invalid_spec_rejected_before_any_replicate(
        self, monkeypatch, tmp_path, change, n, match
    ):
        ran = []
        monkeypatch.setattr(bench, "_run_replicate", lambda *args: ran.append(args))
        with pytest.raises(DomainError, match=match):
            run_benchmark(small_spec(**change), n, out_dir=str(tmp_path / "out"))
        assert ran == []
        assert list(tmp_path.iterdir()) == []

    def test_single_replicate_zero_sd(self):
        summary = run_benchmark(small_spec(replicates=1), 60)
        assert summary.sd["L2"] == 0.0

    def test_summary_mean_matches_records(self):
        out = run_benchmark(small_spec(), 60)
        assert out.mean["L2"] == np.mean([r.l2 for r in out.records])

    def test_records_finite_nonnegative(self):
        out = run_benchmark(small_spec(), 60)
        for r in out.records:
            assert r.l1 >= 0 and r.l2 >= 0 and r.linf >= 0
            assert math.isfinite(r.aic)

    def test_replicate_rng_independent_of_order(self):
        spec = small_spec()
        r1 = _run_replicate(spec, 60, 1)
        r0 = _run_replicate(spec, 60, 0)
        r1_again = _run_replicate(spec, 60, 1)
        assert r1.l2 == r1_again.l2
        assert r1.l2 != r0.l2


class TestOutputs:
    def test_csv_and_json_written(self, tmp_path):
        summary = run_benchmark(small_spec(), 60)
        csv_path, json_path = write_outputs(summary, str(tmp_path))

        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "replicate", "n", "L1", "L2", "Linf", "J", "loglik", "aic", "wall_ms",
        ]
        assert len(rows) == 1 + 2

        with open(json_path) as fh:
            payload = json.load(fh)
        assert payload["schema"] == 1
        assert payload["name"] == summary.name
        assert payload["mean"]["L2"] == summary.mean["L2"]

    def test_registry_names(self):
        for name in (
            "symmetric-unimodal",
            "bimodal",
            "trimodal",
            "cond-bimodal",
            "flat-mode",
        ):
            assert name in BENCHMARKS
