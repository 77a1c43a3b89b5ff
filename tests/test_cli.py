"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from warpdens import ConditionalFitConfig, FitConfig, GridDensity, bench, count_modes
from warpdens.cli import _write_curve_csv, build_parser, main


def write_sample_csv(path, values, header=None):
    lines = [header] if header else []
    lines += [f"{float(v)!r}" for v in values]
    path.write_text("\n".join(lines) + "\n")


def write_xy_csv(path, x, y, header=None):
    lines = [header] if header else []
    lines += [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def sample_csv(tmp_path):
    rng = np.random.default_rng(0)
    p = tmp_path / "sample.csv"
    write_sample_csv(p, rng.normal(0, 1, 300), header="value")
    return p


class TestFitCommand:
    def test_fit_writes_unimodal_json(self, sample_csv, tmp_path):
        out = tmp_path / "fit.json"
        code = main(
            [
                "fit", str(sample_csv), "-o", str(out),
                "--modes", "1", "--restarts", "2", "--jmax", "4",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        xs = np.array([pt["x"] for pt in payload["curve"]])
        ps = np.array([pt["p"] for pt in payload["curve"]])
        # curve re-integrates to 1 within 1e-5 in data units
        assert abs(np.trapezoid(ps, xs) - 1.0) < 1e-5
        # transfer to the unit interval to count modes
        a, b = payload["support"]
        unit = GridDensity.from_values((xs - a) / (b - a), ps * (b - a))
        assert count_modes(unit) == 1

    def test_headerless_csv(self, tmp_path):
        rng = np.random.default_rng(1)
        src = tmp_path / "raw.csv"
        write_sample_csv(src, rng.normal(0, 1, 120))
        out = tmp_path / "fit.json"
        code = main(
            [
                "fit", str(src), "-o", str(out),
                "--modes", "1", "--restarts", "1", "--jmax", "2",
            ]
        )
        assert code == 0

    def test_empty_file_exit_2(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("")
        code = main(["fit", str(src), "-o", str(tmp_path / "x.json"), "--modes", "1"])
        assert code == 2

    def test_modes_and_shape_exclusive(self, sample_csv, tmp_path):
        code = main(
            [
                "fit", str(sample_csv), "-o", str(tmp_path / "x.json"),
                "--modes", "2", "--shape", "inc,dec",
            ]
        )
        assert code == 64

    def test_unknown_shape_piece_exit_4(self, sample_csv, tmp_path, capsys):
        code = main(
            [
                "fit", str(sample_csv), "-o", str(tmp_path / "x.json"),
                "--shape", "inc,up",
            ]
        )
        assert code == 4
        assert "unknown piece kind 'up'" in capsys.readouterr().err

    def test_more_pieces_than_grid_steps_exit_4(self, sample_csv, tmp_path, capsys):
        # modes(512) has 1024 pieces, one more than the 1024-point grid has steps
        out = tmp_path / "x.json"
        code = main(["fit", str(sample_csv), "-o", str(out), "--modes", "512"])
        assert code == 4
        assert "1024 pieces" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_shape_flags(self, sample_csv, tmp_path):
        code = main(["fit", str(sample_csv), "-o", str(tmp_path / "x.json")])
        assert code == 64

    def test_support_with_three_values_exit_64(self, sample_csv, tmp_path, capsys):
        code = main(
            [
                "fit", str(sample_csv), "-o", str(tmp_path / "x.json"),
                "--modes", "1", "--support", "1,2,3",
            ]
        )
        assert code == 64
        assert "error: " in capsys.readouterr().err

    def test_negative_support_with_equals_sign(self, sample_csv, tmp_path):
        out = tmp_path / "fit.json"
        code = main(
            [
                "fit", str(sample_csv), "-o", str(out), "--modes", "1",
                "--restarts", "1", "--jmax", "2", "--support=-5,5",
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["support"] == [-5.0, 5.0]

    @pytest.mark.parametrize("support", ["-inf,5", "-5,inf", "nan,5", "5,-5"])
    def test_invalid_support_exit_4(self, support, sample_csv, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main(["fit", str(sample_csv), "-o", str(out), "--modes", "1",
                     f"--support={support}"])
        assert code == 4
        assert "finite values A < B" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exit_4(self, sample_csv, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main(["fit", str(sample_csv), "-o", str(out), "--modes", "1",
                     "--seed", "-1"])
        assert code == 4
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--jmax", "1"], ["--jmax"]),
            (["--restarts", "0"], ["--restarts"]),
        ],
        ids=["jmax-below-step", "restarts"],
    )
    def test_config_error_names_the_flag_exit_4(
        self, flags, named, sample_csv, tmp_path, capsys
    ):
        out = tmp_path / "x.json"
        code = main(["fit", str(sample_csv), "-o", str(out), "--modes", "1", *flags])
        assert code == 4
        err = capsys.readouterr().err
        assert all(flag in err for flag in named), err
        assert not out.exists()

    @pytest.mark.parametrize("curve", [False, True], ids=["output", "curve-csv"])
    def test_unwritable_output_exit_2(self, curve, sample_csv, tmp_path, capsys):
        bad = str(tmp_path / "missing" / "out")
        out = str(tmp_path / "fit.json") if curve else bad
        extra = ["--curve-csv", bad] if curve else []
        code = main(
            ["fit", str(sample_csv), "-o", out, *extra]
            + ["--modes", "1", "--restarts", "1", "--jmax", "2"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and bad in err
        left = sorted(p.name for p in tmp_path.iterdir())
        assert left == (["fit.json", "sample.csv"] if curve else ["sample.csv"])


@pytest.mark.parametrize("command", ["fit", "cfit"])
@pytest.mark.parametrize(
    "flags", [["--grid", "1024"], ["--jmin", "2"], ["--omega", "0.001"]],
    ids=["grid", "jmin", "omega"],
)
def test_fixed_settings_are_not_flags_exit_64(command, flags, sample_csv, tmp_path):
    # the fit's grid, first J and template floor are constants
    out = tmp_path / "x.json"
    code = main([command, str(sample_csv), "-o", str(out), "--modes", "1", *flags])
    assert code == 64
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "cfit"])
@pytest.mark.parametrize("shape", ["inc,flat,inc", "flat"])
def test_bad_shape_exit_4_before_reading_data(command, shape, tmp_path, capsys):
    # a shoulder or an all-flat shape is refused before the input is opened
    missing = tmp_path / "missing.csv"
    code = main([command, str(missing), "-o", str(tmp_path / "x.json"), "--shape", shape])
    assert code == 4
    assert f"shape {shape} " in capsys.readouterr().err


def test_flag_defaults_are_the_config_defaults():
    parse = build_parser().parse_args
    for command in ("fit", "cfit"):
        args = parse([command, "in.csv", "-o", "out.json", "--modes", "1"])
        assert (args.jmax, args.restarts, args.seed) == (
            FitConfig.j_max, FitConfig.restarts, FitConfig.seed
        )
    assert args.frac == ConditionalFitConfig.neighbor_fraction
    args = parse(["bench", "bimodal"])
    assert (args.reps, args.seed) == (
        bench.BenchmarkSpec.replicates, bench.BenchmarkSpec.seed
    )


def test_failed_curve_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "curve.csv"
    target.mkdir()  # replacing a directory with a file fails
    with pytest.raises(OSError):
        _write_curve_csv(str(target), {"curve": [{"x": 0.0, "p": 1.0}]})
    assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]


class TestCfitCommand:
    def test_cfit_end_to_end(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 200
        x = rng.normal(0, 1, n)
        y = np.where(
            rng.uniform(size=n) < 0.5,
            rng.normal(x - 1.5, 0.5),
            rng.normal(x + 1.5, 0.5),
        )
        src = tmp_path / "xy.csv"
        write_xy_csv(src, x, y, header="x,y")
        out = tmp_path / "cfit.json"
        code = main(
            [
                "cfit", str(src), "-o", str(out),
                "--modes", "2", "--restarts", "2", "--jmax", "4",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["x0"] == pytest.approx(float(np.median(x)))
        assert payload["bandwidth"] > 0
        assert payload["n_eff"] > 1

    def test_missing_second_column_exit_2(self, tmp_path):
        src = tmp_path / "one.csv"
        write_sample_csv(src, np.arange(30.0))
        code = main(
            ["cfit", str(src), "-o", str(tmp_path / "x.json"), "--modes", "1"]
        )
        assert code == 2

    def test_x0_outside_range_exit_4(self, tmp_path):
        rng = np.random.default_rng(3)
        src = tmp_path / "xy.csv"
        write_xy_csv(src, rng.normal(0, 1, 60), rng.normal(0, 1, 60))
        code = main(
            [
                "cfit", str(src), "-o", str(tmp_path / "x.json"),
                "--modes", "1", "--x0", "99.0",
            ]
        )
        assert code == 4


    @pytest.mark.parametrize("x0", [None, "0.1"], ids=["median", "x0"])
    def test_non_finite_covariate_exit_2(self, x0, tmp_path, capsys):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, 60)
        x[5] = np.nan
        src = tmp_path / "xy.csv"
        write_xy_csv(src, x, rng.normal(0, 1, 60))
        extra = [] if x0 is None else ["--x0", x0]
        code = main(
            ["cfit", str(src), "-o", str(tmp_path / "x.json"), "--modes", "1", *extra]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: covariates and responses must be finite\n"
        )


class TestBenchCommand:
    def test_list(self, capsys):
        assert main(["bench", "list"]) == 0
        names = capsys.readouterr().out.split()
        assert "symmetric-unimodal" in names and "bimodal" in names

    def test_unknown_name_exit_64(self, capsys):
        assert main(["bench", "no-such-benchmark"]) == 64
        assert "valid names" in capsys.readouterr().err

    def test_unknown_workers_flag_exit_64(self):
        assert main(["bench", "list", "--workers", "2"]) == 64

    def test_unwritable_out_dir_exit_2(self, tmp_path, capsys, monkeypatch):
        ran = []
        real = bench._run_replicate

        def record(*args):
            ran.append(args)
            return real(*args)

        monkeypatch.setattr(bench, "_run_replicate", record)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(
            [
                "bench", "symmetric-unimodal", "--n", "60", "--reps", "1",
                "--out-dir", str(blocker / "out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker / "out") in err
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert ran == []  # failed before fitting any replicate

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "error: seed must be >= 0, got -1\n"),
            (["--reps", "0"], "error: replicates must be >= 1, got 0\n"),
            (["--n", "-1"], "error: n must be >= 1, got -1\n"),
        ],
        ids=["seed", "reps", "n"],
    )
    def test_invalid_run_exit_4(self, tmp_path, capsys, flags, message):
        code = main(["bench", "symmetric-unimodal", "--n", "60",
                     "--out-dir", str(tmp_path / "out"), *flags])
        assert code == 4
        assert capsys.readouterr().err == message
        assert list(tmp_path.iterdir()) == []

    def test_size_beyond_memory_exit_4(self, tmp_path, capsys):
        # 10^15 samples take petabytes: numpy refuses the array before it
        # touches memory, and the CLI reports that as an invalid setting
        code = main(["bench", "bimodal", "--n", str(10**15), "--reps", "1",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 4
        assert capsys.readouterr().err.startswith("error: out of memory: ")

    def test_small_run_writes_outputs(self, tmp_path, capsys):
        code = main(
            [
                "bench", "symmetric-unimodal", "--n", "60", "--reps", "1",
                "--seed", "7", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == [
            "symmetric-unimodal-n60-replicates.csv",
            "symmetric-unimodal-n60-summary.json",
        ]


class TestOracleCommand:
    def test_bimodal_reconstruction(self, tmp_path):
        out = tmp_path / "oracle.json"
        code = main(["oracle", "bimodal", "-o", str(out), "--modes", "2"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["reconstruction_linf"] <= 1e-3
        assert len(payload["lambda"]) == 2

    def test_template_identity_warp(self, tmp_path):
        out = tmp_path / "oracle.json"
        code = main(["oracle", "template", "-o", str(out), "--modes", "2"])
        assert code == 0
        payload = json.loads(out.read_text())
        gam = payload["gamma"]
        err = max(abs(pt["g"] - pt["t"]) for pt in gam)
        assert err < 1e-6

    def test_grid_beyond_memory_exit_4(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main(["oracle", "beta22", "-o", str(out), "--modes", "1",
                     "--grid", str(10**15)])
        assert code == 4
        assert capsys.readouterr().err.startswith("error: out of memory: ")
        assert not out.exists()

    def test_mode_mismatch_exit_4(self, tmp_path):
        code = main(
            ["oracle", "bimodal", "-o", str(tmp_path / "x.json"), "--modes", "1"]
        )
        assert code == 4
