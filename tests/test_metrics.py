import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavgate import metrics
from cavgate.hilbert import StateVector, basis_state, build_basis
from cavgate.lambda_gate import LambdaParams, pulse_duration, validate_regime_lambda
from cavgate.metrics import (
    CNOT_MATRIX,
    cnot_target,
    conditional_fidelity,
    embed_qubit_state,
    gate_run,
)
from cavgate.raman_gate import RamanParams, raman_pulse_duration

E00 = np.array([1, 0, 0, 0], dtype=complex)
E01 = np.array([0, 1, 0, 0], dtype=complex)
E10 = np.array([0, 0, 1, 0], dtype=complex)
E11 = np.array([0, 0, 0, 1], dtype=complex)


def test_cnot_action():
    assert np.allclose(cnot_target(E10), E11)
    assert np.allclose(cnot_target(E00), E00)
    bell_in = (E00 + E10) / np.sqrt(2)
    assert np.allclose(cnot_target(bell_in), (E00 + E11) / np.sqrt(2))


def test_cnot_rejects_non_unit_input():
    with pytest.raises(ValueError):
        cnot_target([1, 0, 0, 1])
    with pytest.raises(ValueError):
        cnot_target([1, 0, 0])


def test_cnot_unitarity():
    assert np.allclose(CNOT_MATRIX @ CNOT_MATRIX, np.eye(4))
    assert np.allclose(CNOT_MATRIX, CNOT_MATRIX.conj().T)
    assert np.linalg.det(CNOT_MATRIX).real == pytest.approx(-1.0, abs=1e-12)


def test_cnot_matrix_is_read_only():
    # every fidelity in the process scores against it; the write keeps its value
    with pytest.raises(ValueError):
        CNOT_MATRIX[2, 3] = 1.0


def test_embed_qubit_state():
    basis = build_basis("raman", 1)
    s = embed_qubit_state(basis, (E00 + 1j * E11) / np.sqrt(2))
    assert s.amplitude(0, "00") == pytest.approx(1 / np.sqrt(2))
    assert s.amplitude(0, "11") == pytest.approx(1j / np.sqrt(2))
    assert s.squared_norm() == pytest.approx(1.0)


def test_conditional_fidelity_phase_invariance():
    basis = build_basis("lambda", 1)
    target = basis_state(basis, 0, "11")
    final = basis_state(basis, 0, "11")
    final.amplitudes *= 0.9 * np.exp(0.7j)
    fid, unc, p0 = conditional_fidelity(target, final)
    assert fid == pytest.approx(1.0, abs=1e-12)
    assert p0 == pytest.approx(0.81, abs=1e-12)
    assert unc == pytest.approx(0.81, abs=1e-12)


@given(phase=st.floats(min_value=-np.pi, max_value=np.pi))
@settings(max_examples=25, deadline=None)
def test_conditional_fidelity_phase_invariance_property(phase):
    basis = build_basis("lambda", 0)
    rng = np.random.default_rng(1)
    target = embed_qubit_state(basis, E11)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    from cavgate.hilbert import StateVector

    final = StateVector(basis, 0.3 * amps)
    rotated = StateVector(basis, final.amplitudes * np.exp(1j * phase))
    f1, u1, p1 = conditional_fidelity(target, final)
    f2, u2, p2 = conditional_fidelity(target, rotated)
    assert f1 == pytest.approx(f2, rel=1e-12)
    assert u1 == pytest.approx(u2, rel=1e-12)
    assert p1 == pytest.approx(p2, rel=1e-12)


def test_conditional_fidelity_zero_norm_is_nan():
    basis = build_basis("lambda", 0)
    from cavgate.hilbert import StateVector

    empty = StateVector(basis, np.zeros(basis.dim))
    fid, unc, p0 = conditional_fidelity(embed_qubit_state(basis, E00), empty)
    assert np.isnan(fid)
    assert p0 == 0.0 and unc == 0.0


def test_gate_run_lambda_reference_point():
    params = LambdaParams(omega0=0.1, kappa=1.0, gamma=0.0)
    res = gate_run("lambda", params, E10)
    assert res.fidelity >= 0.99
    assert res.p0 == pytest.approx(0.830, abs=5e-3)
    assert res.gate_time == pytest.approx(62.83185307179586, rel=1e-12)
    assert res.p0 * res.fidelity <= 1.0 + 1e-12
    assert res.fidelity_unconditional == pytest.approx(res.fidelity * res.p0, rel=1e-12)
    assert validate_regime_lambda(params).exit_code == 0


def test_gate_run_stationary_input_is_exact():
    res = gate_run("lambda", LambdaParams(omega0=0.37, kappa=2.0, gamma=0.4), E01)
    assert abs(res.p0 - 1.0) <= 1e-10
    assert abs(res.fidelity - 1.0) <= 1e-10


def test_gate_run_raman_reference_point():
    res = gate_run("raman", RamanParams(omega20=0.05, omega21=0.05), E10)
    assert res.fidelity > 0.998
    assert res.gate_time == pytest.approx(1.2566370614359172e5, rel=1e-10)


def test_gate_run_gamma_ladder_ordering():
    p0s = [
        gate_run("lambda", LambdaParams(omega0=0.1, kappa=1.0, gamma=g), E10).p0
        for g in (0.0, 1e-4, 1e-3)
    ]
    assert p0s[0] > p0s[1] > p0s[2]


def test_gate_run_success_collapses_at_comparable_decay():
    # once atomic decay reaches the drive strength the bus state dies
    # within one pulse and the success probability caves in
    omega0 = 0.1
    mild = gate_run("lambda", LambdaParams(omega0=omega0, kappa=1.0, gamma=0.01 * omega0), E10).p0
    harsh = gate_run("lambda", LambdaParams(omega0=omega0, kappa=1.0, gamma=omega0), E10).p0
    assert harsh <= mild - 0.1


def test_gate_run_relax_window():
    params = LambdaParams(omega0=0.1, kappa=1.0, gamma=1e-3)
    plain = gate_run("lambda", params, E10)
    relaxed = gate_run("lambda", params, E10, relax_window=True)
    # the window drains residual bus population; scored quantities move a
    # little and stay physical
    assert relaxed.p0 <= plain.p0 + 1e-12
    assert 0.0 <= relaxed.fidelity <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        gate_run("lambda", LambdaParams(omega0=0.1, kappa=1.0, gamma=0.0), E10, relax_window=True)


def test_gate_run_input_validation():
    with pytest.raises(TypeError):
        gate_run("lambda", RamanParams(), E10)
    with pytest.raises(TypeError):
        gate_run("raman", LambdaParams(omega0=0.1), E10)
    with pytest.raises(ValueError):
        gate_run("shelving", LambdaParams(omega0=0.1), E10)
    with pytest.raises(ValueError):
        gate_run("lambda", LambdaParams(omega0=0.1), [1, 1, 0, 0])
    # non-finite amplitudes give a NaN norm (or inf, by the BLAS build), which
    # only a NaN-safe comparison rejects; p0 and the fidelities would read nan
    for psi in ([np.nan, 0, 0, 0], [np.inf, 0, 0, 0], [1, 0, 1j * np.inf, 0]):
        with pytest.raises(ValueError, match=r"unit norm, got \|psi\|\^2 = (nan|inf)$"):
            gate_run("lambda", LambdaParams(omega0=0.1), psi)
    with pytest.raises(ValueError):
        gate_run("raman", RamanParams(), E10, relax_window=True)
    # only shape (4,) is a qubit state, not any array holding 4 entries
    with pytest.raises(ValueError, match=r"got shape \(2, 2\)$"):
        gate_run("lambda", LambdaParams(omega0=0.1), [[0, 0], [1, 0]])


@pytest.mark.parametrize("scheme,params,kw,error,message", [
    ("shelving", LambdaParams(omega0=0.1), {}, ValueError, "no gate is defined for scheme 'shelving'"),
    ("raman", LambdaParams(omega0=0.1), {}, TypeError, "scheme 'raman' needs RamanParams, got LambdaParams"),
    ("lambda", RamanParams(), {}, TypeError, "scheme 'lambda' needs LambdaParams, got RamanParams"),
    ("raman", RamanParams(), {"relax_window": True}, ValueError,
     "the relaxation window applies to the lambda scheme only"),
    ("lambda", LambdaParams(omega0=0.1, gamma=0.0), {"relax_window": True}, ValueError,
     "relax window 5/gamma is not finite at gamma=0.0"),
    # 5/gamma overflows, and is refused by name before the pulse runs
    ("lambda", LambdaParams(omega0=0.1, gamma=1e-320), {"relax_window": True}, ValueError,
     "relax window 5/gamma is not finite at gamma=1e-320"),
], ids=["unknown_scheme", "lambda_params_to_raman", "raman_params_to_lambda", "relax_raman", "relax_gamma_0",
        "relax_gamma_1e-320"])
def test_gate_run_refusal_messages(scheme, params, kw, error, message):
    with pytest.raises(error) as exc:
        gate_run(scheme, params, E10, **kw)
    assert str(exc.value) == message


RAMAN_PULSE = "pulse length 2 pi/|omega0_eff| is not finite at "


# a zero drive gives an infinite pulse, refused by the same check and message as one that overflows
@pytest.mark.parametrize("duration,params,message", [
    (pulse_duration, LambdaParams(omega0=0.0), "pulse length 2 pi/omega0 is not finite at omega0=0.0"),
    (pulse_duration, LambdaParams(omega0=1e-310), "pulse length 2 pi/omega0 is not finite at omega0=1e-310"),
    (raman_pulse_duration, RamanParams(omega20=0.0),
     RAMAN_PULSE + "omega20=0.0, omega_diag[0]=2.0, delta[0]=1000.0"),
    (raman_pulse_duration, RamanParams(omega_diag=(0.0, 2.0, 2.0)),
     RAMAN_PULSE + "omega20=0.05, omega_diag[0]=0.0, delta[0]=1000.0"),
    (raman_pulse_duration, RamanParams(omega20=1e-320),
     RAMAN_PULSE + "omega20=1e-320, omega_diag[0]=2.0, delta[0]=1000.0"),
], ids=["lambda_omega0_0", "lambda_omega0_1e-310", "raman_omega20_0", "raman_omega00_0", "raman_omega20_1e-320"])
def test_pulse_length_refusal_messages(duration, params, message):
    with pytest.raises(ValueError) as exc:
        duration(params)
    assert str(exc.value) == message


def test_gate_run_superposition_input():
    psi = (E00 + E10) / np.sqrt(2)
    res = gate_run("lambda", LambdaParams(omega0=0.05, kappa=1.0), psi)
    # the ideal output is the Bell state; conditional fidelity stays high
    assert res.fidelity >= 0.99
    assert 0.0 <= res.p0 <= 1.0


@pytest.mark.parametrize("weak,message", [
    # T = 6.3e15: the leaves' 1-norms reach 3.9e13, and u times that is 4e-3
    (1e-12, "u\\*\\|G t\\|_1 = 0.00421 exceeds 1e-06 on a block of 18 states"),
    # T = 6.3e303: about 1000 squarings overflow
    (1e-300, "matrix exponential overflows: 1-norm 3.79e\\+301, 1000 squarings"),
], ids=["p0_above_one", "squarings_overflow"])
def test_gate_run_refuses_a_result_swamped_by_roundoff(weak, message):
    with pytest.raises(ArithmeticError, match=message):
        gate_run("raman", RamanParams(omega20=weak, omega21=weak), E10)


@pytest.mark.parametrize("growth,refused", [(1e-10, False), (1e-8, True)])
def test_gate_run_refuses_p0_above_one(monkeypatch, growth, refused):
    # a conditioned norm cannot grow, so p0 past 1 + 1e-9 is roundoff, not a result
    real = metrics.propagate

    def grown(p, state, t_grid):
        return [StateVector(s.basis, s.amplitudes * math.sqrt(1.0 + growth))
                for s in real(p, state, t_grid)]

    monkeypatch.setattr(metrics, "propagate", grown)
    if refused:
        with pytest.raises(ArithmeticError, match=r"p0 = 1\.00000001\d* exceeds 1 by more than 1e-09"):
            gate_run("lambda", LambdaParams(omega0=0.1), E01)
    else:
        p0 = gate_run("lambda", LambdaParams(omega0=0.1), E01).p0
        assert p0 == pytest.approx(1.0 + growth, abs=1e-15)
