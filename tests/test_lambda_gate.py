import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from cavgate.hilbert import ConditionalGenerator, basis_state, build_basis
from cavgate.lambda_gate import (
    EffectiveRates,
    LambdaParams,
    _dfs_block_matrix,
    _hamiltonian_matrix,
    _symmetrizer,
    build_generator_lambda,
    cavity_coupling,
    effective_dfs_evolution,
    effective_rates,
    first_order_gate_matrix,
    first_order_success_probability,
    pulse_duration,
    validate_regime_lambda,
)
from cavgate.propagator import expm, output_times, plan, propagate
from cavgate.raman_gate import RamanParams, build_generator_effective
from oracles import W_SYM, transcribed_generator


@pytest.mark.parametrize("omega0,kappa,gamma,n_max", [
    (0.1, 1.0, 0.0, 2),
    (0.1, 1.0, 0.0, 3),
    (0.05, 0.7, 1e-3, 2),
    (0.3, 2.0, 0.2, 1),
    (0.02, 1.0, 1e-4, 4),
])
def test_generator_matches_transcribed_equations(omega0, kappa, gamma, n_max):
    basis = build_basis("lambda", n_max)
    params = LambdaParams(omega0=omega0, kappa=kappa, gamma=gamma)
    g = build_generator_lambda(params, basis).matrix
    oracle = transcribed_generator(1.0, omega0, kappa, gamma, n_max)
    # interior rows carry every coefficient of the equations
    interior = slice(0, n_max * 9)
    assert np.abs(g[interior, :] - oracle[interior, :]).max() <= 1e-12
    # top-sector rows match on all retained columns
    assert np.abs(g - oracle).max() <= 1e-12


def test_bus_coupling_element():
    basis = build_basis("lambda", 1)
    params = LambdaParams(omega0=0.2)
    g = build_generator_lambda(params, basis).matrix
    om = params.omega
    assert g[basis.index(0, "a"), basis.index(0, "10")] == pytest.approx(-0.5j * om, abs=1e-15)


def test_laser_off_freezes_zero_photon_sector():
    basis = build_basis("lambda", 2)
    g = build_generator_lambda(LambdaParams(omega0=0.0, kappa=1.0, gamma=0.0), basis).matrix
    assert np.abs(g[:9, :9]).max() == 0.0


def test_symmetrization_matrix_is_unitary():
    w = _symmetrizer(1)
    assert np.abs(w.conj().T @ w - np.eye(9)).max() <= 1e-14


@pytest.mark.parametrize("n_sectors", [1, 2, 3, 4])
def test_symmetrizer_is_the_oracle_rotation_in_every_photon_sector(n_sectors):
    w = _symmetrizer(n_sectors)
    assert not w.flags.writeable
    assert w.tobytes() == np.kron(np.eye(n_sectors), W_SYM).tobytes()  # zero signs too


@pytest.mark.parametrize("n_max", [0, 1, 2, 3])
def test_cavity_coupling_is_the_generator_with_drive_and_losses_off(n_max):
    b = build_basis("lambda", n_max)
    hc = cavity_coupling(b)
    assert isinstance(hc, ConditionalGenerator)
    off = build_generator_lambda(LambdaParams(omega0=0.0, kappa=0.0, gamma=0.0), b).matrix
    assert hc.matrix.tobytes() == off.tobytes()
    assert hc.matrix.tobytes() == (-1j * _hamiltonian_matrix(1.0, 0.0, 0.0, 0.0, b)).tobytes()


def test_generator_rejects_wrong_scheme():
    with pytest.raises(ValueError, match="^expected a 'lambda' basis, got 'raman'$"):
        build_generator_lambda(LambdaParams(omega0=0.1), build_basis("raman", 1))
    with pytest.raises(ValueError, match="^expected a 'lambda' basis, got 'raman'$"):
        cavity_coupling(build_basis("raman", 1))


def test_decay_part_is_negative_semidefinite():
    basis = build_basis("lambda", 2)
    h = 1j * build_generator_lambda(LambdaParams(omega0=0.1, kappa=1.0, gamma=0.01), basis).matrix
    v = 1j * (h - h.conj().T)  # 2x the decay operator
    assert np.abs(v - v.conj().T).max() <= 1e-14
    assert np.linalg.eigvalsh(v).min() >= -1e-12


@pytest.mark.parametrize("model,n_max", [("lambda", 2), ("lambda", 3), ("effective", 2), ("effective", 3)])
def test_loss_is_kappa_per_photon_plus_gamma_per_atom_in_level_2(model, n_max):
    # -(G + G') is the loss rate of each basis state, counted from its label;
    # the reduced raman model has no gamma, so its shifts and coupling add none
    basis = build_basis("lambda", n_max)
    if model == "lambda":
        params = LambdaParams(omega0=0.1, kappa=0.7, gamma=0.3)
        g, kappa, gamma = build_generator_lambda(params, basis).matrix, params.kappa, params.gamma
    else:
        params = RamanParams(kappa=0.01)
        g, kappa, gamma = build_generator_effective(params, basis).matrix, params.kappa, 0.0
    in_level_2 = [{"a": 1, "s": 1}.get(config, config.count("2")) for _, config in basis.labels]
    expected = np.diag([kappa * n + gamma * k for (n, _), k in zip(basis.labels, in_level_2)])
    assert np.abs(-(g + g.conj().T) - expected).max() <= 1e-14


def test_pulse_duration():
    assert pulse_duration(LambdaParams(omega0=0.1)) == pytest.approx(62.83185307179586, rel=1e-12)
    assert pulse_duration(LambdaParams(omega0=0.02)) == pytest.approx(314.1592653589793, rel=1e-12)
    assert pulse_duration(LambdaParams(omega0=0.2)) == pytest.approx(
        pulse_duration(LambdaParams(omega0=0.1)) / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        pulse_duration(LambdaParams(omega0=0.0))
    # 2 pi / 1e-310 overflows
    with pytest.raises(ValueError, match="not finite at omega0=1e-310$"):
        pulse_duration(LambdaParams(omega0=1e-310))


def test_effective_rates_values():
    r = effective_rates(LambdaParams(omega0=0.1, kappa=1.0, gamma=0.0))
    assert r.k1 == pytest.approx(3.125e-4, rel=1e-12)
    assert r.k2 == pytest.approx(2.8125e-3, rel=1e-12)
    r2 = effective_rates(LambdaParams(omega0=0.02, kappa=1.0, gamma=0.0))
    assert r2.k1 == pytest.approx(1.25e-5, rel=1e-12)
    assert r2.k2 == pytest.approx(1.125e-4, rel=1e-12)
    tiny = effective_rates(LambdaParams(omega0=1e-8, kappa=1.0))
    assert tiny.k1 < 1e-17 and tiny.k2 < 1e-16
    assert r.k2 >= r.k1 >= 0.0
    with pytest.raises(ValueError):
        effective_rates(LambdaParams(omega0=0.1, kappa=0.0))



def test_effective_rates_that_overflow_name_the_rates():
    with pytest.raises(ValueError, match=r"omega0=1e\+200, kappa=1.0$"):
        effective_rates(LambdaParams(omega0=1e200))


def test_effective_dfs_evolution_lossless_pulse_is_a_swap():
    # with k1 = k2 = 0 the three coupled amplitudes (c_10, c_11, c_a) rotate
    # about (1,1,0); after a full pulse the driven pair is exactly exchanged
    params = LambdaParams(omega0=0.1, kappa=1.0, gamma=0.0)
    t = pulse_duration(params)
    lossless = expm(_dfs_block_matrix(params.omega, EffectiveRates(0.0, 0.0)) * t)
    assert np.abs(lossless @ [1, 0, 0] - np.array([0, 1, 0])).max() <= 1e-12
    assert np.abs(lossless @ [0, 1, 0] - np.array([1, 0, 0])).max() <= 1e-12


def test_effective_dfs_evolution_against_direct_exponential():
    params = LambdaParams(omega0=0.08, kappa=1.3, gamma=2e-4)
    r = effective_rates(params)
    om = params.omega
    m = -0.5 * np.array([
        [10 * r.k1, 2 * r.k1, 1j * om],
        [2 * r.k1, 2 * r.k1, -1j * om],
        [1j * om, -1j * om, 2 * r.k2],
    ])
    rng = np.random.default_rng(3)
    v0 = rng.normal(size=5) + 1j * rng.normal(size=5)
    v0 /= np.linalg.norm(v0)
    for t in (0.0, 7.3, 41.0):
        got = effective_dfs_evolution(v0, params, t)
        expected = v0.copy()
        expected[0] = v0[0] * np.exp(-4 * r.k1 * t)
        expected[2:] = scipy.linalg.expm(m * t) @ v0[2:]
        assert np.abs(got - expected).max() <= 1e-12


def test_effective_dfs_evolution_conserved_components():
    params = LambdaParams(omega0=0.1, kappa=1.0, gamma=0.0)
    r = effective_rates(params)
    for t in (0.0, 10.0, 200.0):
        out = effective_dfs_evolution([0, 1, 0, 0, 0], params, t)
        assert out[1] == pytest.approx(1.0, abs=1e-15)
        out2 = effective_dfs_evolution([1, 0, 0, 0, 0], params, t)
        assert out2[0] == pytest.approx(np.exp(-4 * r.k1 * t), rel=1e-12)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_effective_dfs_evolution_rejects_an_unusable_time(t):
    with pytest.raises(ValueError, match="^t must be"):
        effective_dfs_evolution([0, 0, 1, 0, 0], LambdaParams(omega0=0.1), t)


def test_effective_dfs_evolution_takes_five_amplitudes():
    with pytest.raises(ValueError, match=r"^expected 5 decoherence-free amplitudes, got shape \(4,\)$"):
        effective_dfs_evolution([0, 0, 1, 0], LambdaParams(omega0=0.1), 1.0)


@pytest.mark.parametrize("initial", [[math.nan, 0, 1, 0, 0], [0, 0, 1, 0, math.inf],
                                     [0, 0, 1, 1j * math.inf, 0]])
def test_effective_dfs_evolution_rejects_non_finite_amplitudes(initial):
    # a non-finite amplitude would come back as NaN without an error
    with pytest.raises(ValueError, match="^initial amplitudes must be finite"):
        effective_dfs_evolution(initial, LambdaParams(omega0=0.1), 1.0)


def test_effective_dfs_evolution_takes_the_physical_rates_only():
    with pytest.raises(TypeError, match="rates"):
        effective_dfs_evolution([0, 0, 1, 0, 0], LambdaParams(omega0=0.1), 1.0,
                                rates=EffectiveRates(0.0, 0.0))


def test_first_order_gate_matrix():
    params = LambdaParams(omega0=0.1, kappa=1.0, gamma=0.0)
    u = first_order_gate_matrix(params)
    assert u[0, 0].real == pytest.approx(1 - 0.07853981633974483, rel=1e-10)
    assert u[1, 1] == 1.0
    # negligible damping limit reduces to the exact CNOT
    u0 = first_order_gate_matrix(LambdaParams(omega0=1e-9, kappa=1.0))
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert np.abs(u0 - cnot).max() <= 1e-7


def test_first_order_success_probability_values():
    params = LambdaParams(omega0=0.1, kappa=1.0, gamma=0.0)
    p10 = first_order_success_probability([0, 0, 1, 0], params)
    assert p10 == pytest.approx(1.0 - 0.18653206380689975, rel=1e-10)
    assert first_order_success_probability([0, 1, 0, 0], params) == 1.0
    p00 = first_order_success_probability([1, 0, 0, 0], params)
    assert p00 == pytest.approx(1.0 - 0.15707963267948966, rel=1e-10)


def test_first_order_success_probability_is_unclamped():
    # far outside the weak-driving regime the expansion leaves [0, 1]; it is
    # returned as computed, and only validate_regime_lambda judges the regime
    params = LambdaParams(omega0=0.9, kappa=1.0, gamma=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = first_order_success_probability([0, 0, 1, 0], params)
    assert p == -1.5514532002592105
    assert validate_regime_lambda(params).exit_code == 1


def test_first_order_success_probability_input_validation():
    params = LambdaParams(omega0=0.1)
    with pytest.raises(ValueError):
        first_order_success_probability([1, 0, 0], params)
    with pytest.raises(ValueError):
        first_order_success_probability([1, 0, 0, 1], params)
    with pytest.raises(ValueError, match=r"unit norm, got \|psi\|\^2 = nan$"):
        first_order_success_probability([np.nan, 0, 0, 0], params)


def test_validate_regime_lambda():
    rep = validate_regime_lambda(LambdaParams(omega0=0.1, kappa=1.0, gamma=0.0))
    assert rep.exit_code == 0
    ratios = [c.ratio for c in rep.checks]
    assert ratios[0] == 0.0
    assert ratios[1] == pytest.approx(0.07071, rel=1e-3)
    assert ratios[2] == pytest.approx(0.07071, rel=1e-3)

    om = LambdaParams(omega0=0.1, kappa=1.0, gamma=0.1 / np.sqrt(2))
    rep2 = validate_regime_lambda(om)
    assert {c.name: c.level for c in rep2.checks}["gamma_much_less_than_omega"] == "warn"
    assert rep2.exit_code == 1

    rep3 = validate_regime_lambda(LambdaParams(omega0=0.1, kappa=0.0))
    assert rep3.exit_code == 2


def test_hermitian_limit_conserves_norm():
    basis = build_basis("lambda", 2)
    params = LambdaParams(omega0=0.1, kappa=0.0, gamma=0.0)
    gen = build_generator_lambda(params, basis)
    h = 1j * gen.matrix
    assert np.abs(h - h.conj().T).max() <= 1e-14
    t = pulse_duration(params)
    p = plan(gen, t, n_outputs=100)
    state = basis_state(basis, 0, "10")
    for out in propagate(p, state, output_times(p)):
        assert abs(out.squared_norm() - 1.0) <= 1e-10


def test_full_dynamics_tracks_reduced_model():
    # deep in the weak-driving regime the five protected amplitudes from
    # the 27-dimensional propagation stay within 2e-2 of the closed model
    params = LambdaParams(omega0=0.05, kappa=1.0, gamma=1e-4)
    basis = build_basis("lambda", 3)
    gen = build_generator_lambda(params, basis)
    t = pulse_duration(params)
    p = plan(gen, t, n_outputs=120)
    traj = propagate(p, basis_state(basis, 0, "10"), output_times(p))
    sup = 0.0
    for state, tj in zip(traj, output_times(p)):
        full = np.array([state.amplitude(0, c) for c in ("00", "01", "10", "11", "a")])
        reduced = effective_dfs_evolution([0, 0, 1, 0, 0], params, tj)
        sup = max(sup, np.abs(full - reduced).max())
    assert sup <= 2e-2


def test_relaxed_gate_matches_first_order_matrix():
    # after the laser-free window drains the bus state, the final qubit
    # amplitudes reproduce the first-order gate matrix, including all
    # three correction coefficients, up to second-order terms
    from cavgate.hilbert import qubit_indices
    from cavgate.metrics import gate_run

    params = LambdaParams(omega0=0.02, kappa=1.0, gamma=1e-3)
    u = first_order_gate_matrix(params)
    basis = build_basis("lambda", 3)
    for col, psi in ((2, [0, 0, 1, 0]), (0, [1, 0, 0, 0])):
        res = gate_run("lambda", params, psi, relax_window=True)
        numeric = res.final_state.amplitudes[list(qubit_indices(basis))]
        assert np.abs(numeric - u[:, col]).max() <= 5e-3


def test_numeric_tracks_first_order_probability():
    params = LambdaParams(omega0=0.02, kappa=1.0, gamma=0.0)
    basis = build_basis("lambda", 2)
    gen = build_generator_lambda(params, basis)
    t = pulse_duration(params)
    p = plan(gen, t, n_outputs=50)
    p0 = propagate(p, basis_state(basis, 0, "10"), [t])[0].squared_norm()
    assert abs(p0 - first_order_success_probability([0, 0, 1, 0], params)) <= 5e-3
