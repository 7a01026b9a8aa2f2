import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavgate.hilbert import (
    DFS_LABELS,
    LAMBDA_CONFIGS,
    RAMAN_CONFIGS,
    SchemeMismatchError,
    basis_state,
    build_basis,
    dfs_projector,
    fock_lowering,
    lambda_symmetrization_matrix,
    qubit_indices,
)
from cavgate.lambda_gate import LambdaParams, cavity_coupling, laser_coupling
from cavgate.metrics import gate_run
from cavgate.raman_gate import RamanParams
from cavgate.shelving import ShelvingParams


def test_dimensions():
    assert build_basis("lambda", 2).dim == 27
    assert build_basis("raman", 1).dim == 72
    assert build_basis("lambda", 0).dim == 9
    assert build_basis("raman", 0).dim == 36
    assert build_basis("shelving", 0).dim == 3


def test_shelving_dimension_ignores_cutoff():
    assert build_basis("shelving", 3).dim == 3


def test_label_ordering_is_photon_major():
    b = build_basis("lambda", 2)
    assert b.labels[:9] == tuple((0, c) for c in LAMBDA_CONFIGS)
    assert b.labels[9:18] == tuple((1, c) for c in LAMBDA_CONFIGS)
    assert b.labels[0] == (0, "00")
    assert b.labels[9] == (1, "00")


@pytest.mark.parametrize("scheme,n_max", [
    ("lambda", 0), ("lambda", 2), ("raman", 0), ("raman", 1), ("shelving", 0),
])
def test_index_round_trip(scheme, n_max):
    b = build_basis(scheme, n_max)
    for i, (n, c) in enumerate(b.labels):
        assert b.index(n, c) == i


@given(n_max=st.integers(min_value=0, max_value=4),
       scheme=st.sampled_from(["lambda", "raman", "shelving"]))
@settings(max_examples=20, deadline=None)
def test_index_round_trip_property(scheme, n_max):
    b = build_basis(scheme, n_max)
    assert len(set(b.labels)) == b.dim
    for i in range(b.dim):
        n, c = b.labels[i]
        assert b.index(n, c) == i


def test_invalid_inputs():
    with pytest.raises(ValueError):
        build_basis("lambda", -1)
    with pytest.raises(ValueError):
        build_basis("rydberg", 2)


def test_basis_state_examples():
    b = build_basis("lambda", 1)
    s = basis_state(b, 0, "10")
    assert s.amplitude(0, "10") == 1.0
    assert s.squared_norm() == pytest.approx(1.0)
    assert np.count_nonzero(s.amplitudes) == 1

    sa = basis_state(b, 0, "a")
    assert sa.amplitudes[b.index(0, "a")] == 1.0

    br = build_basis("raman", 1)
    sr = basis_state(br, 1, "1e2")
    assert sr.amplitudes[36 + RAMAN_CONFIGS.index("1e2")] == 1.0


def test_unknown_label_names_the_label():
    b = build_basis("lambda", 1)
    with pytest.raises(ValueError, match="12"):
        basis_state(b, 0, "12")
    with pytest.raises(ValueError, match="n=5"):
        basis_state(b, 5, "00")
    # labels are strings only: ("1", "e2") is not the label "1e2"
    with pytest.raises(ValueError, match=r"config=\('1', 'e2'\)"):
        build_basis("raman", 2).index(1, ("1", "e2"))
    with pytest.raises(ValueError, match=r"config=\['0', '0'\]"):
        build_basis("raman", 2).index(0, ["0", "0"])


def test_raman_configs_are_unambiguous():
    assert len(RAMAN_CONFIGS) == 36
    assert len(set(RAMAN_CONFIGS)) == 36
    assert "0e0" in RAMAN_CONFIGS and "e00" in RAMAN_CONFIGS


def test_qubit_indices_order():
    b = build_basis("lambda", 2)
    assert qubit_indices(b) == tuple(b.index(0, c) for c in ("00", "01", "10", "11"))
    with pytest.raises(SchemeMismatchError):
        qubit_indices(build_basis("shelving", 0))


def test_dfs_projector_structure():
    b = build_basis("lambda", 2)
    p = dfs_projector(b).matrix
    assert np.abs(p @ p - p).max() <= 1e-12
    assert np.abs(p - p.conj().T).max() <= 1e-12
    assert np.trace(p).real == pytest.approx(5.0, abs=1e-12)


def test_dfs_projector_action():
    b = build_basis("lambda", 2)
    p = dfs_projector(b)
    v10 = basis_state(b, 0, "10")
    assert np.allclose(p.matrix @ v10.amplitudes, v10.amplitudes, atol=1e-14)
    assert not np.any(p.matrix @ basis_state(b, 0, "s").amplitudes)
    assert not np.any(p.matrix @ basis_state(b, 1, "00").amplitudes)


def test_dfs_projector_rejects_other_schemes():
    with pytest.raises(SchemeMismatchError):
        dfs_projector(build_basis("raman", 1))


def test_atom_cavity_coupling_annihilates_dfs():
    b = build_basis("lambda", 2)
    hc = cavity_coupling(b).matrix
    for n, c in DFS_LABELS:
        v = basis_state(b, n, c).amplitudes
        assert np.linalg.norm(hc @ v) <= 1e-12
    # the symmetric combination is not decoherence-free
    vs = basis_state(b, 0, "s").amplitudes
    assert np.linalg.norm(hc @ vs) > 1.0


def test_projected_laser_drive_couples_bus_only():
    # inside the protected subspace the drive reduces to a 10 <-> a <-> 11
    # ladder with amplitudes +omega/2 and -omega/2
    b = build_basis("lambda", 1)
    omega0 = 0.3
    p = dfs_projector(b).matrix
    h = p @ laser_coupling(b, omega0).matrix @ p
    om = omega0 / np.sqrt(2.0)
    expected = np.zeros_like(h)
    i10, i11, ia = b.index(0, "10"), b.index(0, "11"), b.index(0, "a")
    expected[i10, ia] = expected[ia, i10] = om / 2.0
    expected[ia, i11] = expected[i11, ia] = -om / 2.0
    assert np.abs(h - expected).max() <= 1e-12


def test_symmetrization_matrix_is_unitary():
    w = lambda_symmetrization_matrix()
    assert np.abs(w.conj().T @ w - np.eye(9)).max() <= 1e-14


def test_basis_equality_and_sharing():
    a = build_basis("lambda", 2)
    b = build_basis("lambda", 2)
    assert a == b
    assert a != build_basis("lambda", 3)


def test_non_integral_cutoffs_and_photon_numbers_are_rejected():
    # truncating would quietly run a different cutoff or address another sector
    with pytest.raises(ValueError, match="n_max"):
        build_basis("lambda", 2.7)
    with pytest.raises(ValueError, match="n_max"):
        build_basis("lambda", "3")
    with pytest.raises(ValueError, match="n_max"):
        gate_run("lambda", LambdaParams(0.1), [0, 0, 1, 0], n_max=3.9)
    with pytest.raises(ValueError, match="^n must be an integer"):
        build_basis("lambda", 2).index(1.9, "00")
    with pytest.raises(ValueError, match="n_max"):
        fock_lowering(2.7)
    # integral floats still name the integer
    assert build_basis("raman", 1.0) is build_basis("raman", 1)
    assert build_basis("lambda", 2).index(1.0, "00") == 9


RATE_FIELDS = [(LambdaParams, {"omega0": 0.1}, name) for name in ("omega0", "kappa", "gamma", "g")]
RATE_FIELDS += [(RamanParams, {}, name) for name in ("g", "kappa", "omega20", "omega21")]
RATE_FIELDS += [(ShelvingParams, {"omega_w": 0.02, "omega_s": 1.0, "gamma_s": 1.0}, name)
                for name in ("omega_w", "omega_s", "gamma_s")]
# one entry of a per-excited-state triple, the other two left at 2
RATE_FIELDS += [(RamanParams, {}, f"{name}[1]")
                for name in ("delta", "omega_diag", "gamma")]


@pytest.mark.parametrize("cls,base,name", RATE_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, _, n in RATE_FIELDS])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_every_scalar_rate_must_be_finite_and_non_negative(cls, base, name, value):
    field, _, entry = name.partition("[")

    def make(v):
        return cls(**{**base, field: (2.0, v, 2.0) if entry else v})

    with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be a finite non-negative rate")):
        make(value)
    assert getattr(make(2), field) == ((2.0, 2.0, 2.0) if entry else 2.0)
