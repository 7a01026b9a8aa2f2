import re

import numpy as np
import pytest

from cavgate.hilbert import SchemeMismatchError, basis_state, build_basis
from cavgate.lambda_gate import _hamiltonian_matrix
from cavgate.metrics import gate_run
from cavgate.propagator import output_times, plan, propagate
from cavgate.raman_gate import (
    RamanParams,
    build_generator_effective,
    build_generator_raman,
    effective_lambda_view,
    raman_pulse_duration,
    validate_regime_raman,
)
from oracles import align_phase, kron_shift_hamiltonian

REFERENCE = dict(delta=1000.0, omega_diag=2.0, omega20=0.05, omega21=0.05)


def reference_params(**overrides):
    kw = {**REFERENCE, **overrides}
    return RamanParams(**kw)


def test_params_validation():
    with pytest.raises(ValueError):
        RamanParams(delta=(1000.0, 0.0, 1000.0))
    with pytest.raises(ValueError):
        RamanParams(delta=-5.0)
    with pytest.raises(ValueError):
        RamanParams(omega20=-0.1)
    p = RamanParams(delta=500.0, gamma=0.2)
    assert p.delta == (500.0, 500.0, 500.0)
    assert p.gamma == (0.2, 0.2, 0.2)


def test_omega21_defaults_to_omega20_and_a_given_value_is_kept():
    # the gate needs a balanced drive: with omega21 = 0.05 atom 1 was driven
    # five times harder than atom 2, and F was 0.0147
    p = RamanParams(omega20=0.01)
    assert p.omega21 == 0.01
    assert gate_run("raman", p, [0.0, 0.0, 1.0, 0.0]).fidelity == pytest.approx(0.99993, abs=1e-5)
    assert RamanParams(omega20=0.01, omega21=0.02).omega21 == 0.02


def test_kappa_defaults_to_the_effective_cavity_coupling():
    p = RamanParams(delta=500.0)
    assert p.kappa == abs(effective_lambda_view(p).g_eff) == 0.002
    assert RamanParams(delta=500.0, kappa=1e-3).kappa == 1e-3


@pytest.mark.parametrize("name,value,message", [
    ("delta", (1.0, 2.0), "delta must be a scalar or a 3-tuple"),
    ("delta", float("inf"), "delta[0] must be a finite non-negative rate, got inf"),
    ("delta", (1.0, 0.0, 1.0), "delta entries must be positive"),
    ("omega_diag", float("nan"), "omega_diag[0] must be a finite non-negative rate, got nan"),
    ("omega_diag", -1.0, "omega_diag[0] must be a finite non-negative rate, got -1.0"),
    ("gamma", (0.0, -1.0, 0.0), "gamma[1] must be a finite non-negative rate, got -1.0"),
], ids=["delta-pair", "delta-inf", "delta-zero", "omega_diag-nan", "omega_diag-negative",
        "gamma-negative"])
def test_per_state_fields_name_themselves_when_rejected(name, value, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        RamanParams(**{name: value})


def test_ground_configurations_stationary_without_lasers():
    params = RamanParams(kappa=1e-3, omega_diag=0.0, omega20=0.0, omega21=0.0, gamma=0.0)
    basis = build_basis("raman", 1)
    g = build_generator_raman(params, basis).matrix
    for x1 in "012":
        for x2 in "012":
            i = basis.index(0, x1 + x2)
            assert np.abs(g[i, :]).max() == 0.0
            assert np.abs(g[:, i]).max() == 0.0


def test_weak_laser_matrix_element():
    params = reference_params(omega21=0.07)
    basis = build_basis("raman", 0)
    h = build_generator_raman(params, basis).hamiltonian
    # atom 1 weak field: <e1 0| H |2 0> = omega21 / 2
    assert h[basis.index(0, "e10"), basis.index(0, "20")] == pytest.approx(0.035, abs=1e-15)
    # atom 2 weak field: <0 e0| H |0 2> = omega20 / 2
    assert h[basis.index(0, "0e0"), basis.index(0, "02")] == pytest.approx(0.025, abs=1e-15)


def test_decay_part_reads_off_the_damping_terms():
    # the anti-Hermitian part must be exactly the damping terms: nothing
    # else in the build may leak an imaginary diagonal
    params = reference_params(gamma=(0.1, 0.2, 0.3), kappa=0.01)
    basis = build_basis("raman", 2)
    h = build_generator_raman(params, basis).hamiltonian
    anti = (h - h.conj().T) / 2.0
    assert np.abs(anti - _expected_decay(params, basis)).max() <= 1e-14


def _count_level(config: str, level: str) -> int:
    x1, x2 = _split_config(config)
    return int(x1 == level) + int(x2 == level)


def _split_config(config: str):
    # levels are "0","1","2","e0","e1","e2"; an 'e' always opens a 2-char label
    if config[0] == "e":
        return config[:2], config[2:]
    return config[:1], config[1:]


def _expected_decay(params, basis):
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for i, (n, config) in enumerate(basis.labels):
        total = params.kappa * n
        for j, gam in enumerate(params.gamma):
            total += gam * _count_level(config, f"e{j}")
        out[i, i] = -0.5j * total
    return out


def test_effective_lambda_view_values():
    view = effective_lambda_view(reference_params())
    assert view.omega0_eff == pytest.approx(-5e-5, rel=1e-12)
    assert view.omega1_eff == pytest.approx(-5e-5, rel=1e-12)
    assert view.g_eff == pytest.approx(-1e-3, rel=1e-12)
    assert view.cavity_shift == pytest.approx(1e-3, rel=1e-12)
    assert view.ground_shift[0] == pytest.approx(1e-3, rel=1e-12)
    assert view.weak_shift_atom2 == pytest.approx(6.25e-7, rel=1e-12)
    off = effective_lambda_view(reference_params(omega20=0.0))
    assert off.omega0_eff == 0.0


def test_effective_generator_shift_entries():
    params = reference_params()
    basis = build_basis("lambda", 1)
    h = build_generator_effective(params, basis).hamiltonian
    view = effective_lambda_view(params)
    # both atoms in their shifted ground states: diagonal shift of -2e-3
    i00 = basis.index(0, "00")
    assert h[i00, i00] == pytest.approx(-2.0 * view.ground_shift[0], rel=1e-12)
    # one photon adds the cavity shift on each atom in level 1
    i11_1 = basis.index(1, "11")
    expected = -2.0 * view.ground_shift[1] - 2.0 * view.cavity_shift
    assert h[i11_1, i11_1].real == pytest.approx(expected, rel=1e-12)
    # level 2 of atom 2 carries the extra weak-field shift
    i02 = basis.index(0, "02")
    assert h[i02, i02] == pytest.approx(
        -view.ground_shift[0] - view.ground_shift[2] - view.weak_shift_atom2, rel=1e-12)


def test_equal_ground_shifts_by_construction():
    view = effective_lambda_view(reference_params())
    assert view.ground_shift[0] == view.ground_shift[1] == view.ground_shift[2]


def test_effective_generator_without_shifts_is_three_level_structure():
    params = reference_params()
    basis = build_basis("lambda", 2)
    view = effective_lambda_view(params)
    shifts = -1j * kron_shift_hamiltonian(view, basis.n_max)
    got = build_generator_effective(params, basis).matrix - shifts
    expected = -1j * _hamiltonian_matrix(view.g_eff, view.omega0_eff, params.kappa, 0.0, basis)
    assert np.abs(got - expected).max() <= 1e-15


def test_effective_generator_sign_convention_is_a_parity_conjugation():
    # the reduced couplings come out negative; flipping both signs is the
    # conjugation by (-1)^(atoms in level 2), so the reduced generator is
    # unitarily equivalent to the positive-coupling three-level one
    params = reference_params()
    basis = build_basis("lambda", 2)
    view = effective_lambda_view(params)
    got = -1j * _hamiltonian_matrix(view.g_eff, view.omega0_eff, params.kappa, 0.0, basis)

    from cavgate.lambda_gate import LambdaParams, build_generator_lambda

    positive = build_generator_lambda(
        LambdaParams(omega0=abs(view.omega0_eff), kappa=params.kappa,
                     gamma=0.0, g=abs(view.g_eff)),
        basis,
    ).matrix
    count2 = {"00": 0, "01": 0, "10": 0, "11": 0, "02": 1, "20": 1,
              "a": 1, "s": 1, "22": 2}
    parity = np.diag([(-1.0) ** count2[c] for _, c in basis.labels])
    assert np.abs(got - parity @ positive @ parity).max() <= 1e-15


def test_effective_generator_always_adds_the_light_shifts():
    with pytest.raises(TypeError, match="include_shifts"):
        build_generator_effective(reference_params(), build_basis("lambda", 1), include_shifts=False)


def test_effective_generator_rejects_unbalanced_drive():
    params = reference_params(omega21=0.04)
    with pytest.raises(ValueError):
        build_generator_effective(params, build_basis("lambda", 1))


def test_generator_scheme_checks():
    params = reference_params()
    with pytest.raises(SchemeMismatchError):
        build_generator_raman(params, build_basis("lambda", 1))
    with pytest.raises(SchemeMismatchError):
        build_generator_effective(params, build_basis("raman", 1))


def test_raman_pulse_duration():
    assert raman_pulse_duration(reference_params()) == pytest.approx(1.2566370614359172e5, rel=1e-10)
    base = raman_pulse_duration(reference_params())
    assert raman_pulse_duration(reference_params(omega20=0.1, omega21=0.1)) == pytest.approx(base / 2, rel=1e-12)
    assert raman_pulse_duration(reference_params(delta=2000.0)) == pytest.approx(base * 2, rel=1e-12)
    with pytest.raises(ValueError):
        raman_pulse_duration(reference_params(omega20=0.0, omega21=0.0))
    # 2 pi / |omega0_eff| overflows, and at 5e-324 omega0_eff itself underflows to 0
    for weak in (1e-310, 5e-324):
        with pytest.raises(ValueError, match=f"not finite at omega20={weak!r}, "
                                             r"omega_diag\[0\]=2.0, delta\[0\]=1000.0$"):
            raman_pulse_duration(reference_params(omega20=weak, omega21=weak))


def test_validate_regime_reference_point():
    report = validate_regime_raman(reference_params())
    warned = [c.name for c in report.checks if c.level != "pass"]
    assert warned == ["g_much_less_than_omega22"]
    assert report.check("g_much_less_than_omega22").ratio == pytest.approx(0.5, rel=1e-12)
    assert report.exit_code == 1


def test_validate_regime_unbalanced_weak_fields_is_violation():
    report = validate_regime_raman(reference_params(omega21=0.04))
    assert report.check("omega0_eff_equals_omega1_eff").level == "violation"
    assert report.exit_code == 2


def test_validate_regime_unequal_shifts_warn():
    report = validate_regime_raman(reference_params(omega_diag=(2.0, 2.0, 1.0)))
    assert report.check("equal_ground_shifts_2").level == "warn"


def test_common_shift_is_a_global_phase():
    # with equal omega_jj^2/delta_j the ground shifts act as c * identity on
    # the reduced space; removing them only multiplies states by a phase and
    # leaves every modulus-based quantity untouched
    params = reference_params()
    basis = build_basis("lambda", 2)
    view = effective_lambda_view(params)
    common = 2.0 * view.ground_shift[0]

    gen = build_generator_effective(params, basis)
    stripped_matrix = gen.matrix - 1j * common * np.eye(basis.dim)
    t = raman_pulse_duration(params)
    p_full = plan(gen, t, n_outputs=40)
    from cavgate.hilbert import ConditionalGenerator

    p_stripped = plan(ConditionalGenerator(basis, stripped_matrix), t, n_outputs=40)
    psi0 = basis_state(basis, 0, "10")
    for tj in (0.25 * t, t):
        a = propagate(p_full, psi0, [tj])[0]
        b = propagate(p_stripped, psi0, [tj])[0]
        phase = np.exp(1j * common * tj)
        assert np.abs(a.amplitudes * phase - b.amplitudes).max() <= 1e-10
        assert abs(a.squared_norm() - b.squared_norm()) <= 1e-10
        ref = basis_state(basis, 0, "11")
        fa = abs(ref.overlap(a)) ** 2 / a.squared_norm()
        fb = abs(ref.overlap(b)) ** 2 / b.squared_norm()
        assert abs(fa - fb) <= 1e-10


def test_full_dynamics_tracks_effective_model():
    # qubit amplitudes of the 108-dimensional run stay within 2e-2 of the
    # reduced model over the whole pulse, after removing the global phase
    params = reference_params()
    full_basis = build_basis("raman", 2)
    red_basis = build_basis("lambda", 2)
    t = raman_pulse_duration(params)
    n_out = 60
    p_full = plan(build_generator_raman(params, full_basis), t, n_outputs=n_out)
    p_red = plan(build_generator_effective(params, red_basis), t, n_outputs=n_out)
    traj_full = propagate(p_full, basis_state(full_basis, 0, "10"), output_times(p_full))
    traj_red = propagate(p_red, basis_state(red_basis, 0, "10"), output_times(p_red))
    sup = 0.0
    for sf, sr in zip(traj_full, traj_red):
        qf = np.array([sf.amplitude(0, c) for c in ("00", "01", "10", "11")])
        qr = np.array([sr.amplitude(0, c) for c in ("00", "01", "10", "11")])
        sup = max(sup, np.abs(align_phase(qf) - align_phase(qr)).max())
    assert sup <= 2e-2


def test_fidelity_insensitive_to_decay_but_not_to_drive():
    # conditional fidelity barely moves with the excited-state decay (the
    # whole point of the Raman construction) but falls once the weak drive
    # leaves the validated range
    psi = np.array([0, 0, 1, 0], dtype=complex)
    f_low = gate_run("raman", reference_params(gamma=0.0), psi).fidelity
    f_high = gate_run("raman", reference_params(gamma=0.5), psi).fidelity
    assert abs(f_low - f_high) <= 1e-3
    f_fast = gate_run("raman", reference_params(omega20=0.1, omega21=0.1), psi).fidelity
    assert f_fast < f_low


def test_excited_state_population_stays_negligible():
    params = reference_params()
    basis = build_basis("raman", 2)
    t = raman_pulse_duration(params)
    p = plan(build_generator_raman(params, basis), t, n_outputs=50)
    excited = [i for i, (n, c) in enumerate(basis.labels) if "e" in c]
    bound = (max(params.omega_diag) / (2.0 * min(params.delta))) ** 2 * 10.0
    traj = propagate(p, basis_state(basis, 0, "10"), output_times(p))
    worst = max(float(np.sum(np.abs(s.amplitudes[excited]) ** 2)) for s in traj)
    assert worst <= bound
