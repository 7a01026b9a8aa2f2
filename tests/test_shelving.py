import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from cavgate.hilbert import basis_state, build_basis
from cavgate.propagator import plan, propagate
from cavgate.shelving import (
    ShelvingParams,
    build_generator_shelving,
    dark_time,
    fit_dark_time,
    survival_probability,
    validate_regime_shelving,
)


def test_generator_matrix():
    g = build_generator_shelving(ShelvingParams(0.2, 1.4, 0.6)).matrix
    h = 1j * g
    expected = np.array([
        [0.0, 0.1, 0.0],
        [0.1, 0.0, 0.7],
        [0.0, 0.7, -0.3j],
    ])
    assert np.abs(h - expected).max() <= 1e-15


def test_strong_drive_and_decay_default_to_one():
    assert ShelvingParams(0.02) == ShelvingParams(0.02, 1.0, 1.0)


def test_generator_scheme_check():
    with pytest.raises(ValueError, match="^expected a 'shelving' basis, got 'lambda'$"):
        build_generator_shelving(ShelvingParams(0.1, 1.0, 1.0), build_basis("lambda", 1))


def test_two_level_rabi_transfer():
    # without the strong drive the weak laser empties A after t = pi/omega_w
    om_w = 0.05
    g = build_generator_shelving(ShelvingParams(om_w, 0.0, 0.0)).matrix
    u = scipy.linalg.expm(g * (np.pi / om_w))
    out = u @ np.array([1.0, 0.0, 0.0])
    assert abs(out[0]) <= 1e-12
    assert abs(out[1]) == pytest.approx(1.0, abs=1e-12)


def test_stationary_without_weak_drive():
    g = build_generator_shelving(ShelvingParams(0.0, 1.0, 1.0)).matrix
    for t in (1.0, 100.0):
        out = scipy.linalg.expm(g * t) @ np.array([1.0, 0.0, 0.0])
        assert np.abs(out - [1.0, 0.0, 0.0]).max() <= 1e-12


def test_all_rates_zero_gives_identity():
    g = build_generator_shelving(ShelvingParams(0.0, 0.0, 0.0)).matrix
    assert np.abs(scipy.linalg.expm(g * 5.0) - np.eye(3)).max() <= 1e-15


def test_dark_time_values_and_scalings():
    assert dark_time(ShelvingParams(0.01, 1.0, 1.0)) == pytest.approx(1e4, rel=1e-12)
    base = dark_time(ShelvingParams(0.02, 1.0, 1.0))
    assert dark_time(ShelvingParams(0.04, 1.0, 1.0)) == pytest.approx(base / 4.0, rel=1e-12)
    assert dark_time(ShelvingParams(0.02, 2.0, 1.0)) == pytest.approx(base * 4.0, rel=1e-12)
    with pytest.raises(ValueError):
        dark_time(ShelvingParams(0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        dark_time(ShelvingParams(0.02, 1.0, 0.0))


def test_survival_probability_basics():
    params = ShelvingParams(0.02, 1.0, 1.0)
    ts, p0 = survival_probability(params, 5000.0, 199)
    assert ts.shape == p0.shape == (200,)
    assert p0[0] == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.diff(p0) <= 1e-12)
    for t_max in (-1.0, 0.0):
        with pytest.raises(ValueError, match="t_max"):
            survival_probability(params, t_max, 10)


def test_survival_probability_refuses_more_than_2_20_intervals_at_once():
    # the bound limits the output and the run time (about 7 s at 2**20)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^n_outputs=1048577 exceeds the 2\*\*20 survival intervals"):
        survival_probability(ShelvingParams(0.02), 5000.0, 2 ** 20 + 1)
    assert time.perf_counter() - start < 1.0


def test_survival_probability_keeps_no_state_per_sample():
    # one float per sample plus the grid's temporaries; a kept state traces near 300 bytes
    n = 2 ** 14
    survival_probability(ShelvingParams(0.02), 5000.0, 16)  # caches and imports warm
    tracemalloc.start()
    try:
        survival_probability(ShelvingParams(0.02), 5000.0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100 * n


@pytest.mark.parametrize("t_max,n", [(5000.0, 500), (1000.0, 20), (1234.5, 1)])
def test_survival_probability_is_propagate_over_its_even_grid(t_max, n):
    # the curve builds the grid its callers used to pass, and keeps every bit
    params = ShelvingParams(0.02, 1.0, 1.0)
    ts, p0 = survival_probability(params, t_max, n)
    p = plan(build_generator_shelving(params), t_max, n_outputs=n)
    grid = np.linspace(0.0, t_max, n + 1)
    states = propagate(p, basis_state(p.generator.basis, 0, "A"), grid)
    assert np.array_equal(ts, grid)
    assert np.array_equal(p0, [s.squared_norm() for s in states])


def test_fitted_dark_time_matches_estimate():
    params = ShelvingParams(0.02, 1.0, 1.0)
    fitted = fit_dark_time(params)
    assert 2500.0 / 2.0 <= fitted <= 2500.0 * 2.0


def test_fitted_dark_time_keeps_its_201_samples():
    assert fit_dark_time(ShelvingParams(0.02)) == pytest.approx(2500.0004001593784, rel=1e-12)


# relative distance of the fit from the slow-eigenvalue time -1/(2 Re lambda):
# roundoff deep in the dark-period regime, a bias once omega_w nears gamma_s
@pytest.mark.parametrize("omega_w,low,high", [(0.02, 0.0, 1e-12), (0.2, 0.01, 0.02), (0.3, 0.05, 0.06)])
def test_fitted_dark_time_against_the_slow_eigenvalue(omega_w, low, high):
    params = ShelvingParams(omega_w)
    eigenvalues = np.linalg.eigvals(build_generator_shelving(params).matrix)
    slow = -1.0 / (2.0 * eigenvalues.real.max())
    assert low <= abs(fit_dark_time(params) - slow) / slow <= high


# far outside the dark-period regime the survival over [T_dark/10, 2 T_dark]
# falls by roundoff only (1e-9 and below), or rises by it at omega_w = 100
@pytest.mark.parametrize("params", [ShelvingParams(10.0), ShelvingParams(1e3), ShelvingParams(1e4),
                                    ShelvingParams(1.0, gamma_s=1e6), ShelvingParams(100.0)], ids=repr)
def test_fit_refuses_a_window_that_sees_only_roundoff(params):
    with pytest.raises(ArithmeticError, match=r"^log P0 fell by \S+ over the fit window, "
                                              r"not more than the roundoff bound 1e-06$"):
        fit_dark_time(params)


def test_fitted_dark_time_scalings():
    base = fit_dark_time(ShelvingParams(0.02, 1.0, 1.0))
    double_w = fit_dark_time(ShelvingParams(0.04, 1.0, 1.0))
    double_s = fit_dark_time(ShelvingParams(0.02, 2.0, 1.0))
    assert abs(double_w / base - 0.25) <= 0.25 * 0.2
    assert abs(double_s / base - 4.0) <= 4.0 * 0.2
    # shelving beats plain Rabi transfer by a wide margin
    assert base >= 10.0 * np.pi / 0.02


def test_validate_regime_shelving():
    good = validate_regime_shelving(ShelvingParams(0.02, 1.0, 1.0))
    assert good.exit_code == 0
    bad = validate_regime_shelving(ShelvingParams(0.5, 1.0, 1.0))
    assert bad.exit_code == 1
    undefined = validate_regime_shelving(ShelvingParams(0.02, 1.0, 0.0))
    assert undefined.exit_code == 2


def test_params_validation():
    with pytest.raises(ValueError):
        ShelvingParams(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        ShelvingParams(0.1, np.inf, 1.0)
