import dataclasses
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
    fock_lowering,
    lambda_symmetrization_matrix,
    qubit_indices,
)
from cavgate.lambda_gate import LambdaParams, build_generator_lambda, cavity_coupling
from cavgate.metrics import gate_run
from cavgate.propagator import plan, propagate
from cavgate.raman_gate import RamanParams
from cavgate.shelving import ShelvingParams, build_generator_shelving


def test_dimensions():
    assert build_basis("lambda", 2).dim == 27
    assert build_basis("raman", 1).dim == 72
    assert build_basis("lambda", 0).dim == 9
    assert build_basis("raman", 0).dim == 36
    assert build_basis("shelving", 0).dim == 3


def test_shelving_dimension_ignores_cutoff():
    assert build_basis("shelving", 3).dim == 3


def test_a_shelving_basis_is_one_basis_whatever_the_cutoff():
    # the cutoff is checked, then stored as 0: a state built on one cutoff
    # propagates under a generator built on another
    assert build_basis("shelving", 2) == build_basis("shelving", 0)
    assert build_basis("shelving", 2).n_max == 0
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        build_basis("shelving", -1)
    params = ShelvingParams(omega_w=0.02, omega_s=1.0, gamma_s=1.0)
    gen = build_generator_shelving(params, build_basis("shelving", 0))
    (out,) = propagate(plan(gen, 10.0), basis_state(build_basis("shelving", 2), 0, "A"), [10.0])
    assert 0.0 < out.squared_norm() < 1.0


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


@pytest.mark.parametrize("kappa", [0.3, 1.0, 100.0])
@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_dfs_labels_are_the_states_the_undriven_generator_leaves_alone(n_max, kappa):
    # kappa > 0: an ideal cavity also leaves photon states and truncation
    # artefacts such as (1, 00) and (2, 22) alone
    b = build_basis("lambda", n_max)
    g = build_generator_lambda(LambdaParams(omega0=0.0, kappa=kappa, gamma=0.0), b).matrix
    alone = np.flatnonzero(~g.any(axis=0) & ~g.any(axis=1))
    assert alone.tolist() == [b.index(n, c) for n, c in DFS_LABELS]


def test_atom_cavity_coupling_annihilates_dfs():
    b = build_basis("lambda", 2)
    hc = cavity_coupling(b).matrix
    for n, c in DFS_LABELS:
        v = basis_state(b, n, c).amplitudes
        assert np.linalg.norm(hc @ v) <= 1e-12
    # the symmetric combination is not decoherence-free
    vs = basis_state(b, 0, "s").amplitudes
    assert np.linalg.norm(hc @ vs) > 1.0


@pytest.mark.parametrize("gamma", [0.0, 1e-3])
def test_projected_laser_drive_couples_bus_only(gamma):
    # inside the protected subspace the generator reduces to a 10 <-> a <-> 11
    # ladder with amplitudes +omega/2 and -omega/2, and the bus state a alone
    # decays, at the direct gamma/2 of k2
    b = build_basis("lambda", 1)
    omega0 = 0.3
    idx = [b.index(n, c) for n, c in DFS_LABELS]
    g = build_generator_lambda(LambdaParams(omega0=omega0, kappa=1.0, gamma=gamma), b).matrix
    h = 1j * g[np.ix_(idx, idx)]
    om = omega0 / np.sqrt(2.0)
    expected = np.zeros_like(h)
    i10, i11, ia = (DFS_LABELS.index((0, c)) for c in ("10", "11", "a"))
    expected[i10, ia] = expected[ia, i10] = om / 2.0
    expected[ia, i11] = expected[i11, ia] = -om / 2.0
    expected[ia, ia] = -0.5j * gamma
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
    # a bool is a flag, not a count: n_max=True would quietly run at cutoff 1,
    # also where the cutoff-1 basis is cached
    build_basis("lambda", 1)
    with pytest.raises(ValueError, match="^n_max must be an integer, got True$"):
        build_basis("lambda", True)
    with pytest.raises(ValueError, match="^n_max must be an integer, got True$"):
        gate_run("lambda", LambdaParams(0.1), [0, 0, 1, 0], n_max=True)
    with pytest.raises(ValueError, match="^n must be an integer, got True$"):
        build_basis("lambda", 2).index(True, "00")
    with pytest.raises(ValueError, match="^min_substeps must be an integer, got True$"):
        gate_run("lambda", LambdaParams(0.1), [0, 0, 1, 0], min_substeps=True)
    with pytest.raises(ValueError, match="^n_outputs must be an integer, got True$"):
        plan(build_generator_shelving(ShelvingParams(0.02)), 1.0, n_outputs=True)
    # integral floats still name the integer
    assert build_basis("raman", 1.0) is build_basis("raman", 1)
    assert build_basis("lambda", 2).index(1.0, "00") == 9


def test_g_is_the_unit_and_no_parameter_sets_it():
    assert tuple(f.name for f in dataclasses.fields(LambdaParams)) == ("omega0", "kappa", "gamma")
    assert tuple(f.name for f in dataclasses.fields(RamanParams)) == (
        "kappa", "delta", "omega_diag", "omega20", "omega21", "gamma")
    with pytest.raises(TypeError):
        LambdaParams(omega0=0.1, g=1.0)
    with pytest.raises(TypeError):
        RamanParams(g=1.0)
    with pytest.raises(TypeError):  # keyword-only: no rate binds by position
        RamanParams(1e-3)
    with pytest.raises(TypeError):
        cavity_coupling(build_basis("lambda", 1), g=2.0)


RATE_FIELDS = [(LambdaParams, {"omega0": 0.1}, name) for name in ("omega0", "kappa", "gamma")]
RATE_FIELDS += [(RamanParams, {}, name) for name in ("kappa", "omega20", "omega21")]
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
