import numpy as np
import pytest
import scipy.linalg

from cavgate.hilbert import SchemeMismatchError, build_basis
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
    with pytest.raises(SchemeMismatchError):
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
    ts = np.linspace(0.0, 5000.0, 200)
    p0 = survival_probability(params, ts)
    assert p0[0] == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.diff(p0) <= 1e-12)
    with pytest.raises(ValueError):
        survival_probability(params, [-1.0])


def test_survival_probability_rejects_an_uneven_grid():
    # one exponential serves an even grid only; an uneven one is an error, not a slow path
    # the message names t_grid and its contract, not a plan the caller never built
    params = ShelvingParams(0.02, 1.0, 1.0)
    contract = (r"^t_grid must be the even grid k\*t_max/n, k = 0\.\.n, from 0 to a positive "
                r"finite t_max, or one positive time; got \[")
    for t_grid in ([0.0, 1.0, 3.0], [0.0, 2500.0, 1000.0], [0, 3, 10], [0.0]):
        with pytest.raises(ValueError, match=contract):
            survival_probability(params, t_grid)


def test_fitted_dark_time_matches_estimate():
    params = ShelvingParams(0.02, 1.0, 1.0)
    fitted = fit_dark_time(params)
    assert 2500.0 / 2.0 <= fitted <= 2500.0 * 2.0


@pytest.mark.parametrize("n_points", [1, 0, -5])
def test_fit_dark_time_needs_two_points(n_points):
    with pytest.raises(ValueError, match="n_points >= 2"):
        fit_dark_time(ShelvingParams(0.02, 1.0, 1.0), n_points)


def test_fit_dark_time_takes_an_integral_count():
    params = ShelvingParams(0.02, 1.0, 1.0)
    with pytest.raises(ValueError, match="n_points"):
        fit_dark_time(params, 2.5)
    assert fit_dark_time(params, 2.0) == fit_dark_time(params, 2)


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
    assert good.all_pass
    bad = validate_regime_shelving(ShelvingParams(0.5, 1.0, 1.0))
    assert bad.exit_code == 1
    undefined = validate_regime_shelving(ShelvingParams(0.02, 1.0, 0.0))
    assert undefined.exit_code == 2


def test_params_validation():
    with pytest.raises(ValueError):
        ShelvingParams(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        ShelvingParams(0.1, np.inf, 1.0)
