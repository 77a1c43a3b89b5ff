"""The input contract: every input the API or CLI accepts either keeps the
headline guarantee (exactly the requested mode count, and a density that
integrates to 1) or is rejected with a typed ``WarpdensError`` and a
documented exit code.

The cases first pin inputs that once escaped the contract (an overflowing
spread or support width, NaN scalars and samples).  The properties then
draw every argument from one grammar: finite, huge and non-finite floats,
ints, bools, strings, complex numbers, and empty, 0-d and 2-D arrays.
Fits run at ``j_max=2`` with one restart, on at most 200 values.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpdens import (
    BENCHMARKS,
    CoefficientVector,
    ConditionalFitConfig,
    ConstraintError,
    DegenerateSampleError,
    DomainError,
    FitConfig,
    GridDensity,
    InvalidSrsfError,
    InvalidWarpError,
    ShapeError,
    ShapeSpec,
    SrsfGrid,
    TangentVector,
    WarpdensError,
    WarpingGrid,
    adaptive_bandwidth,
    build_template,
    coeffs_to_warp,
    compute_weights,
    count_modes,
    estimate_support,
    exp_map,
    fit,
    fit_conditional,
    fit_fixed_j,
    fourier_basis,
    height_ratios_of,
    log_likelihood,
    oracle_reconstruct_warp,
    pilot_bandwidth,
    rescale_to_unit,
    run_benchmark,
)
from warpdens.cli import main
from warpdens.templates import level_heights

_BIG = np.array([1e308, -1e308] + [0.0] * 20)  # its sd overflows
_XS = np.random.default_rng(0).normal(0.0, 1.0, 40)
_CFG = FitConfig(shape=ShapeSpec.modes(1), j_max=2, restarts=1)
_ZS = np.linspace(0.05, 0.95, 20)  # a unit-interval sample
_T, _B1 = fourier_basis(2).t, fourier_basis(2).b[0]  # the 1024-point grid, sqrt(2) sin
_TENT = GridDensity.from_values(_T, np.minimum(_T, 1.0 - _T))  # one mode, at 1/2


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: fit(_BIG, _CFG), DegenerateSampleError),
        (lambda: fit_conditional(_BIG, _XS[:22], ConditionalFitConfig(_CFG, 0.0)),
         DegenerateSampleError),
        (lambda: FitConfig(shape=ShapeSpec.modes(1), support=(-1e308, 1e308)),
         ConstraintError),
        (lambda: rescale_to_unit([0.5], -1e308, 1e308), DomainError),
        (lambda: estimate_support([1.0, 2.0, math.nan]), DegenerateSampleError),
        (lambda: estimate_support([1.0, 2.0, math.inf]), DegenerateSampleError),
        (lambda: estimate_support([[1.0, 2.0], [3.0, 5.0]]), DegenerateSampleError),
        (lambda: pilot_bandwidth(np.where(np.arange(20) == 3, math.nan, _XS[:20])),
         DegenerateSampleError),
        (lambda: pilot_bandwidth(np.tile([1e300, -1e300], 10)), DegenerateSampleError),
        (lambda: rescale_to_unit([0.5, math.nan], 0.0, 1.0), DomainError),
        (lambda: adaptive_bandwidth(_XS, math.nan, 1.0), DomainError),
        (lambda: compute_weights(_XS, math.nan, 1.0, 0.5), DomainError),
        (lambda: log_likelihood([0.5], CoefficientVector([1e308, 0.0]), [], _CFG),
         DomainError),
        (lambda: coeffs_to_warp(CoefficientVector([1e308, 0.0]), fourier_basis(2)),
         DomainError),
        (lambda: fit_fixed_j(np.linspace(2.0, 3.0, 20), 2, _CFG), DomainError),
        (lambda: fit_fixed_j(np.where(np.arange(20) == 3, math.nan, _ZS), 2, _CFG),
         DegenerateSampleError),
        (lambda: fit_fixed_j(["a"] * 20, 2, _CFG), DegenerateSampleError),
        (lambda: fit_fixed_j(_ZS[:9], 2, _CFG), DegenerateSampleError),
        (lambda: fit_fixed_j(_ZS, 1, _CFG), ConstraintError),
        (lambda: fit_fixed_j(_ZS, 1023, _CFG), ConstraintError),
        (lambda: fit_fixed_j(_ZS, 2.0, _CFG), ConstraintError),
        (lambda: ShapeSpec.modes(10**30), ShapeError),
        (lambda: ShapeSpec.modes(10**9), ShapeError),
        (lambda: FitConfig(shape=ShapeSpec.modes(1), restarts=10**15), ConstraintError),
        (lambda: exp_map(TangentVector(_T, 1e160 * _B1)), DomainError),
        (lambda: SrsfGrid(_T, np.full(_T.size, 1e200)), InvalidSrsfError),
        (lambda: fit_conditional(_XS, _XS[:30], ConditionalFitConfig(_CFG, 0.0)),
         DegenerateSampleError),
        (lambda: coeffs_to_warp(CoefficientVector([0.1, 0.0]), fourier_basis(4)),
         DomainError),
        (lambda: WarpingGrid(_T, _T[:-1]), InvalidWarpError),
        (lambda: level_heights(ShapeSpec.modes(2), [0.5], 1e-3), ConstraintError),
        (lambda: build_template(ShapeSpec.modes(2), [0.5, 0.4], 1e-3), ConstraintError),
        (lambda: height_ratios_of(GridDensity(_T, 2.0 * _T)), ShapeError),
        (lambda: oracle_reconstruct_warp(_TENT, ShapeSpec(("inc", "flat", "dec"))),
         ShapeError),
        (lambda: oracle_reconstruct_warp(_TENT, ShapeSpec(("inc", "dec"), True)),
         ShapeError),
    ],
    ids=["fit-sd-overflow", "cfit-sd-overflow", "support-width-overflow",
         "rescale-width-overflow", "support-nan", "support-inf", "support-2d",
         "pilot-nan", "pilot-sd-overflow", "rescale-nan", "adaptive-nan-x0",
         "weights-nan-x0", "loglik-norm-overflow", "warp-norm-overflow",
         "fixed-j-outside-unit", "fixed-j-nan", "fixed-j-strings", "fixed-j-nine",
         "fixed-j-below-step", "fixed-j-beyond-grid", "fixed-j-float",
         "modes-beyond-index", "modes-billion", "restarts-beyond-memory",
         "exp-map-norm-overflow",
         "srsf-norm-overflow", "cfit-lengths-differ", "warp-basis-of-other-j",
         "warp-grid-lengths-differ", "heights-wrong-length", "piece-not-increasing",
         "ratios-without-interior-mode", "oracle-flat-piece", "oracle-free-boundaries"],
)
def test_escaped_input_raises_typed_error(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "argv, values, code",
    [
        (["--support=-1e308,1e308"], _XS, 4),
        ([], _BIG, 2),
    ],
    ids=["support-width-overflow", "sample-sd-overflow"],
)
def test_escaped_cli_input_exits_with_its_code(tmp_path, argv, values, code):
    src = tmp_path / "x.csv"
    src.write_text("".join(f"{float(v)!r}\n" for v in values))
    out = tmp_path / "x.json"
    flags = ["--modes", "1", "--jmax", "2", "--restarts", "1", *argv]
    assert main(["fit", str(src), "-o", str(out), *flags]) == code
    assert not out.exists()


def test_mode_count_beyond_an_index_exits_4(tmp_path, capsys):
    # refused before the 2M-piece tuple is built, which overflowed here
    src = tmp_path / "x.csv"
    src.write_text("".join(f"{float(v)!r}\n" for v in _XS))
    out = tmp_path / "x.json"
    assert main(["fit", str(src), "-o", str(out), "--modes", str(10**30)]) == 4
    assert "pieces" in capsys.readouterr().err
    assert not out.exists()


def test_warp_takes_its_angle_from_the_coefficients():
    # ||c||^2 = 1.69e308 is finite, but v = c B squares past the float
    # range on the grid; the angle comes from ||c||, as in the kernel
    warp = coeffs_to_warp(CoefficientVector([1.3e154, 0.0]), fourier_basis(2))
    assert warp.gamma[0] == 0.0 and warp.gamma[-1] == 1.0
    assert np.all(np.diff(warp.gamma) > 0.0)


def test_norm_that_squares_past_the_float_range_is_inf():
    # 1e160 is finite, but its square is not: the norm says so without a warning
    assert TangentVector(_T, 1e160 * _B1).norm == math.inf
    assert TangentVector(_T, 1e150 * _B1).norm < math.inf


@pytest.mark.parametrize("value", [1e308, 1e-320], ids=["huge", "subnormal"])
def test_constant_values_normalize_to_the_uniform_density(value):
    # the values are scaled to a largest value of 1 before they are integrated,
    # so neither the huge sum nor the subnormal one loses the density
    p = GridDensity.from_values(_T, np.full(_T.size, value)).p
    assert np.allclose(p, 1.0, rtol=1e-12, atol=0.0)
    with pytest.raises(ShapeError):
        GridDensity.from_values(_T, np.zeros(_T.size))


# -- the grammar ------------------------------------------------------------

floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e300, -1e300, 1e308, -1e308]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
strings = st.one_of(
    st.sampled_from(["", "a", "1", "nan", "-1e999", "1,2"]),
    st.text(alphabet="ab0123.,-e ", max_size=6),
)
complexes = st.complex_numbers(max_magnitude=1e3, allow_nan=False)
others = st.one_of(floats, st.booleans(), strings, complexes)  # all but ints
scalars = st.one_of(
    others, st.integers(-3, 200), st.sampled_from([2**63, -(2**63), 10**400])
)


def either(valid, grammar=scalars):
    """A usable value three times in four, else a grammar value."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else grammar)


def count(lo: int, hi: int):
    """A count in [lo, hi] three times in four, else a scalar other than an
    int: a huge count is never drawn, as it only asks for a huge allocation."""
    return either(st.integers(lo, hi), others)


@st.composite
def samples(draw, size=st.integers(0, 200)):
    """An array or sequence argument: mostly a usable sample, with grammar
    values planted in it, or a grammar value of its own."""
    kind = draw(st.integers(0, 7))
    if kind <= 4:  # a bimodal normal sample, planted with up to two values
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(size)
        x = np.where(rng.random(n) < 0.5, -1.5, 1.5) + rng.normal(0.0, 0.6, n)
        if kind <= 2 or n == 0:
            return x
        x = list(x)
        for _ in range(draw(st.integers(1, 2))):
            x[draw(st.integers(0, n - 1))] = draw(scalars)
        return x
    if kind == 5:
        return np.array(draw(st.lists(floats, max_size=200)))
    if kind == 6:
        return draw(st.lists(scalars, max_size=6))
    return draw(st.one_of(scalars, st.sampled_from(
        [np.empty(0), np.array(0.5), np.zeros((0, 3)), np.ones((3, 20))]
    )))


def attempt(call):
    """call(), or None when it raises a ``WarpdensError``."""
    try:
        return call()
    except WarpdensError:
        return None


def check_estimate(est, n_modes: int) -> None:
    """The requested mode count, and a data-unit pdf that integrates to 1."""
    assert count_modes(est.unit_density()) == n_modes
    a, b = est.support
    xs = np.linspace(a, b, est.t.size)
    assert abs(np.trapezoid(est.pdf(xs), xs) - 1.0) <= 1e-6


def examples(n: int):
    """Settings for n examples, derandomized and with no example database."""
    return settings(max_examples=n, deadline=None, derandomize=True, database=None)


# -- the API ----------------------------------------------------------------

@examples(150)
@given(x=samples(st.integers(10, 200)), modes=st.integers(1, 2),
       seed=either(st.integers(0, 2**32)),
       support=st.one_of(st.none(), st.none(), st.none(), st.none(),
                         st.sampled_from([(-10, 10), (-1e300, 1e300), [-8.0, 8.0]]),
                         st.tuples(floats, floats), st.tuples(scalars, scalars)),
       weights=st.one_of(st.none(), st.just("dirichlet"), samples()))
def test_fit(x, modes, seed, support, weights):
    cfg = attempt(lambda: FitConfig(ShapeSpec.modes(modes), j_max=2, restarts=1,
                                    seed=seed, support=support))
    if cfg is None:
        return
    if isinstance(weights, str):  # one weight per value, summing to 1
        weights = np.random.default_rng(1).dirichlet(np.ones(max(np.size(x), 1)))
    est = attempt(lambda: fit(x, cfg, weights))
    if est is not None:
        check_estimate(est, modes)


@examples(120)
@given(n=st.integers(15, 120), x0=either(st.floats(-2.0, 2.0)),
       frac=either(st.floats(0.05, 1.0)), data=st.data())
def test_fit_conditional(n, x0, frac, data):
    cfg = attempt(lambda: ConditionalFitConfig(_CFG, x0, frac))
    if cfg is None:
        return
    x, y = data.draw(samples(st.just(n))), data.draw(samples(st.just(n)))
    est = attempt(lambda: fit_conditional(x, y, cfg))
    if est is not None:
        check_estimate(est, 1)


@examples(100)
@given(x=samples(st.integers(10, 200)), unit=st.integers(0, 3).map(lambda k: k < 3),
       j=st.one_of(st.integers(2, 4), others), modes=st.integers(1, 2),
       weights=st.one_of(st.none(), st.none(), st.just("dirichlet"), samples()))
def test_fit_fixed_j(x, unit, j, modes, weights):
    cfg = FitConfig(ShapeSpec.modes(modes), j_max=2, restarts=1)
    support = attempt(lambda: estimate_support(x)) if unit else None
    if support is not None:  # three draws in four: the sample mapped into [0, 1]
        x = rescale_to_unit(x, *support)
    if isinstance(weights, str):  # one weight per value, summing to 1
        weights = np.random.default_rng(1).dirichlet(np.ones(max(np.size(x), 1)))
    got = attempt(lambda: fit_fixed_j(x, j, cfg, weights))
    if got is not None:
        _, _, ll, dens = got
        assert math.isfinite(ll) and count_modes(dens) == modes
        assert abs(np.trapezoid(dens.p, dens.t) - 1.0) <= 1e-6


@examples(100)
@given(z=st.one_of(st.lists(st.floats(0.0, 1.0), max_size=50), samples()),
       c=st.one_of(st.lists(floats, min_size=2, max_size=2), samples()),
       lam=st.one_of(st.lists(floats, min_size=2, max_size=2), samples()),
       weights=st.one_of(st.none(), samples()))
def test_log_likelihood(z, c, lam, weights):
    cfg = FitConfig(ShapeSpec.modes(2), j_max=2, restarts=1)
    coeffs = attempt(lambda: CoefficientVector(c))
    if coeffs is not None:
        ll = attempt(lambda: log_likelihood(z, coeffs, lam, cfg, weights))
        assert ll is None or math.isfinite(ll)


_EST = fit(_XS, _CFG)


@examples(100)
@given(points=samples())
def test_pdf(points):
    p = attempt(lambda: _EST.pdf(points))
    if p is not None:
        assert np.all(np.isnan(p) | (p >= 0.0))


@examples(200)
@given(x=samples(), a=either(st.floats(-5.0, -1.0)), b=either(st.floats(1.0, 5.0)),
       x0=either(st.floats(-2.0, 2.0)), h=either(st.floats(0.01, 10.0)),
       frac=either(st.floats(0.05, 1.0)))
def test_sample_maps(x, a, b, x0, h, frac):
    support = attempt(lambda: estimate_support(x))
    if support is not None:
        assert support[0] < support[1] and math.isfinite(support[1] - support[0])
    z = attempt(lambda: rescale_to_unit(x, a, b))
    if z is not None:
        assert np.all((z >= 0.0) & (z <= 1.0))
    bandwidth = attempt(lambda: pilot_bandwidth(x))
    if bandwidth is not None:
        assert math.isfinite(bandwidth) and bandwidth > 0.0
    w = attempt(lambda: compute_weights(x, x0, h, frac))
    if w is not None:
        assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-9


@examples(50)
@given(n=count(-2, 60), seed=either(st.integers(0, 2**32)), replicates=count(0, 2))
def test_run_benchmark(n, seed, replicates):
    spec = dataclasses.replace(BENCHMARKS["symmetric-unimodal"], seed=seed,
                               replicates=replicates, restarts=1, j_max=2)
    summary = attempt(lambda: run_benchmark(spec, n))
    if summary is not None:
        assert summary.replicates + summary.failures == replicates


@examples(200)
@given(pieces=st.one_of(st.lists(st.sampled_from(["inc", "dec", "flat"]), max_size=6)
                        .map(tuple), scalars),
       free=either(st.booleans()), modes=count(-2, 12), j_max=either(st.integers(2, 8)),
       restarts=either(st.integers(1, 4)), seed=either(st.integers(0, 2**32)),
       support=scalars, ends=st.tuples(scalars, scalars), x0=scalars, frac=scalars)
def test_configs(pieces, free, modes, j_max, restarts, seed, support, ends, x0, frac):
    shape = attempt(lambda: ShapeSpec(pieces, free_boundaries=free))
    attempt(lambda: ShapeSpec.modes(modes))
    for s in (support, ends, list(ends), np.array(ends, dtype=object)):
        attempt(lambda: FitConfig(ShapeSpec.modes(1), support=s))
    cfg = attempt(lambda: FitConfig(shape, j_max=j_max, restarts=restarts, seed=seed))
    if cfg is not None:
        again = dataclasses.replace(cfg)
        assert cfg == again and hash(cfg) == hash(again)
        attempt(lambda: ConditionalFitConfig(cfg, x0, frac))


# -- the command line -------------------------------------------------------

def _token(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@examples(120)
@given(command=st.sampled_from(["fit", "cfit", "bench", "oracle"]), data=st.data())
def test_cli_exit_codes(workdir, command, data):
    out = workdir / "out.json"
    out.unlink(missing_ok=True)
    draw = data.draw
    if command == "bench":
        argv = ["bench", "symmetric-unimodal", "--n", _token(draw(count(-2, 9))),
                "--reps", "1"]
    elif command == "oracle":
        density = draw(st.sampled_from(["beta22", "bimodal", "template", "x"]))
        argv = ["oracle", density, "-o", str(out), "--modes", _token(draw(count(0, 3))),
                "--grid", _token(draw(count(-2, 600)))]
    else:
        n = draw(st.integers(15, 120))
        x, y = draw(samples(st.just(n))), draw(samples(st.just(n)))
        x, y = np.atleast_1d(x).ravel(), np.atleast_1d(y).ravel()
        rows = [_token(v) for v in x] if command == "fit" else [
            f"{_token(a)},{_token(b)}" for a, b in zip(x, y)]
        src = workdir / "in.csv"
        src.write_text("".join(row + "\n" for row in rows))
        argv = [command, str(src), "-o", str(out), "--jmax", "2", "--restarts", "1",
                "--modes", _token(draw(count(1, 2)))]
        flag = st.integers(0, 2).map(lambda k: k == 0)  # each flag once in three
        if draw(flag):
            a, b = draw(either(st.tuples(st.floats(-20.0, -5.0), st.floats(5.0, 20.0)),
                               st.tuples(scalars, scalars)))
            argv.append(f"--support={_token(a)},{_token(b)}")
        if draw(flag):
            argv += ["--seed", _token(draw(either(st.integers(0, 2**32))))]
        if command == "cfit" and draw(flag):
            argv += ["--x0", _token(draw(either(st.floats(-2.0, 2.0)))),
                     "--frac", _token(draw(either(st.floats(0.05, 1.0))))]
    code = main(argv)
    assert code in {0, 2, 3, 4, 64}
    if code == 0 and command in ("fit", "cfit"):
        curve = json.loads(out.read_text())["curve"]
        xs, ps = (np.array([pt[k] for pt in curve]) for k in ("x", "p"))
        assert np.all(np.isfinite(xs)) and np.all(np.isfinite(ps))
        assert abs(np.trapezoid(ps, xs) - 1.0) <= 1e-3  # 512 points of the curve
