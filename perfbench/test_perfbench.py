"""Self-tests of the benchmark at toy size (n=60, restarts=1, j_max=2).

    python3 -m pytest perfbench -q
"""

import dataclasses
import json

import numpy as np
import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def toy_run(capsys, workload, trace, seed=3, seconds=0.5):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    assert run.main(args, sizes=run.TOY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_unit_and_direction(capsys, workload, trace):
    result, report = toy_run(capsys, workload, trace)
    defs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [d["name"] for d in defs]
    for d in defs:
        assert result["metrics"][d["name"]]["unit"] == d["unit"]
        assert any(line.split()[:1] == [d["name"]] and d["unit"] in line
                   and f"({d['better']} is better)" in line for line in report)


def test_same_seed_gives_identical_counts(capsys):
    counts = ("estimator.nelder_mead.nfev", "estimator.objective.calls",
              "estimator.nelder_mead.runs", "estimator.shrink.iters",
              "templates.count_modes.calls")
    first, _ = toy_run(capsys, "fit-n1000", 1, seed=11)
    second, _ = toy_run(capsys, "fit-n1000", 1, seed=11)
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name]
    assert first["metrics"]["estimator.nelder_mead.nfev"]["value"] > 0


def test_non_default_seed_runs_clean(capsys):
    result, report = toy_run(capsys, "cfit-mc", 0, seed=987654)
    assert result["correct"] and result["failed"] == 0
    assert not [line for line in report if line.startswith("FAILED")]


def test_wrong_mode_count_trips_the_check():
    label, spec, x, cfg = run.fit_inputs(0, 0, run.TOY)[0]
    est = run.warpdens.fit(x, cfg)
    assert run.check_estimate(est, spec.shape.n_modes) == []
    tent = 1.0 - np.abs(2.0 * est.t - 1.0)  # one mode, integrates to 1/2
    one_mode = dataclasses.replace(est, p=2.0 * tent)
    assert run.check_estimate(one_mode, spec.shape.n_modes) == ["1 modes, 2 requested"]
    unnormalized = dataclasses.replace(est, p=2.0 * est.p)
    assert any("integrates" in p for p in run.check_estimate(unnormalized, 2))


def test_raising_fit_counts_as_failed(capsys, monkeypatch):
    def broken(x, cfg):
        raise run.warpdens.OptimizationError("all starts failed")

    monkeypatch.setattr(run.warpdens, "fit", broken)
    result, report = toy_run(capsys, "fit-n1000", 0, seconds=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == run.MIN_UNITS * len(run.FIT_SCENARIOS)
    assert any("OptimizationError" in line for line in report)


def test_aborted_run_benchmark_counts_every_replicate_as_failed(capsys, monkeypatch):
    # run_benchmark lets OptimizationError escape, aborting the whole call
    def abort(x, y, cfg):
        raise run.warpdens.OptimizationError("all starts failed")

    monkeypatch.setattr(run.bench, "fit_conditional", abort)
    result, report = toy_run(capsys, "cfit-mc", 0, seconds=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == run.MIN_UNITS * run.REPLICATES
    assert any("OptimizationError" in line for line in report)
