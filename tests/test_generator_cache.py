"""Generators assembled from cached terms, and the caches behind a gate run.

The cached-term builders must reproduce the dense kron builders of
``oracles.py`` bit for bit (``np.array_equal``, not a tolerance): the p0
error of a raman run is roundoff-bound, so a reordered operation that
changes any rounding would move it.  Only sums whose order cannot change
the bits may be reordered: lambda adds its terms in another order than
its dense builder, since each entry receives at most two of them.  The
parameter points are those of the benchmark workloads in
``perfbench/workloads.py`` plus seeded random ones.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from cavgate import lambda_gate, metrics, propagator, raman_gate
from cavgate.hilbert import QUBIT_CONFIGS, build_basis
from cavgate.lambda_gate import LambdaParams, _hamiltonian_matrix, build_generator_lambda
from cavgate.metrics import gate_run
from cavgate.raman_gate import RamanParams, build_generator_effective, build_generator_raman
from oracles import (
    kron_generator_lambda,
    kron_generator_raman,
    kron_hamiltonian_lambda,
    kron_shift_hamiltonian,
    reference_expm,
)


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
BENCH_RAMAN = [pt.params for name in ("raman_grid", "raman_long_pulse")
               for pt in WORKLOADS.WORKLOADS[name][1]]
PARAMS = {"lambda": LambdaParams, "raman": RamanParams}


def _rate(rng, hi):
    # one rate in ten is exactly zero, which changes the sparsity pattern
    return 0.0 if rng.random() < 0.1 else rng.uniform(0.0, hi)


def random_raman(rng):
    return RamanParams(
        kappa=_rate(rng, 0.1),
        delta=tuple(10.0 ** rng.uniform(1.0, 5.0, 3)),
        omega_diag=tuple(_rate(rng, 30.0) for _ in range(3)),
        omega20=_rate(rng, 0.2), omega21=_rate(rng, 0.2),
        gamma=tuple(_rate(rng, 1.0) for _ in range(3)),
    )


def random_lambda(rng):
    return LambdaParams(omega0=_rate(rng, 1.0), kappa=_rate(rng, 2.0), gamma=_rate(rng, 1.0))


def anchor_run(name):
    spec = WORKLOADS.ANCHORS[name]
    psi = np.zeros(4, dtype=np.complex128)
    psi[QUBIT_CONFIGS.index(spec["input"])] = 1.0
    return spec["scheme"], PARAMS[spec["scheme"]](**spec["params"]), psi


@pytest.mark.parametrize("n_max", [0, 1, 2, 3])
def test_raman_generator_bitwise_equals_kron_builder(n_max):
    basis = build_basis("raman", n_max)
    rng = np.random.default_rng(2024)
    cases = [RamanParams(**kw) for kw in BENCH_RAMAN] + [random_raman(rng) for _ in range(100)]
    for params in cases:
        cached = build_generator_raman(params, basis).matrix
        assert np.array_equal(cached, kron_generator_raman(params, basis).matrix), params


@pytest.mark.parametrize("n_max", [0, 1, 2, 3])
def test_lambda_generator_bitwise_equals_kron_builder(n_max):
    basis = build_basis("lambda", n_max)
    rng = np.random.default_rng(2025)
    cases = ([LambdaParams(**WORKLOADS.ANCHORS["W1"]["params"])]
             + [random_lambda(rng) for _ in range(100)])
    for params in cases:
        cached = build_generator_lambda(params, basis).matrix
        assert np.array_equal(cached, kron_generator_lambda(params, basis).matrix), params
    # signed couplings, as the reduced raman model passes them
    for g, omega0, kappa, gamma in rng.uniform(-2.0, 2.0, (20, 4)):
        args = (g, omega0, abs(kappa), abs(gamma), basis)
        assert np.array_equal(_hamiltonian_matrix(*args), kron_hamiltonian_lambda(*args))


def test_effective_generator_bitwise_equals_kron_builder(monkeypatch):
    rng = np.random.default_rng(2026)
    cases = []
    for _ in range(30):
        weak = rng.uniform(0.005, 0.2)
        cases.append(RamanParams(kappa=rng.uniform(1e-4, 0.1),
                                 delta=10.0 ** rng.uniform(2.0, 4.0), omega_diag=rng.uniform(0.5, 10.0),
                                 omega20=weak, omega21=weak))
    runs = [(p, build_basis("lambda", n)) for p in cases for n in range(4)]
    cached = [build_generator_effective(p, b).matrix for p, b in runs]
    monkeypatch.setattr(raman_gate, "_three_level_hamiltonian", kron_hamiltonian_lambda)
    monkeypatch.setattr(raman_gate, "_shift_hamiltonian", kron_shift_hamiltonian)
    for (p, b), matrix in zip(runs, cached):
        assert np.array_equal(matrix, build_generator_effective(p, b).matrix)


@pytest.mark.parametrize("anchor", ["W1", "W2", "long_3e4"])
def test_gate_run_bitwise_equals_kron_builder_and_out_of_place_expm(anchor, monkeypatch):
    scheme, params, psi = anchor_run(anchor)
    cached = gate_run(scheme, params, psi)
    monkeypatch.setattr(metrics, "build_generator_raman", kron_generator_raman)
    monkeypatch.setattr(metrics, "build_generator_lambda", kron_generator_lambda)
    monkeypatch.setattr(propagator, "expm", reference_expm)
    dense = gate_run(scheme, params, psi)
    assert cached.p0 == dense.p0
    assert cached.fidelity == dense.fidelity
    assert cached.fidelity_unconditional == dense.fidelity_unconditional
    assert np.array_equal(cached.final_state.amplitudes, dense.final_state.amplitudes)


def _build(anchor):
    """A gate run's final state at an anchor, or the shifted reduced generator of RamanParams()."""
    if anchor == "effective":
        basis = build_basis("lambda", 2)
        return lambda: build_generator_effective(RamanParams(), basis).matrix
    scheme, params, psi = anchor_run(anchor)
    return lambda: gate_run(scheme, params, psi).final_state.amplitudes


@pytest.mark.parametrize("anchor,caches", [
    ("W1", (lambda_gate._product_terms, lambda_gate._symmetrizer)),
    ("W2", (raman_gate._raman_terms,)),
    ("effective", (lambda_gate._product_terms, lambda_gate._symmetrizer, raman_gate._shift_terms)),
])
def test_second_gate_run_builds_no_operator_structure(anchor, caches, monkeypatch):
    build = _build(anchor)
    calls = []
    real_kron = np.kron
    monkeypatch.setattr(np, "kron", lambda *a, **k: calls.append("kron") or real_kron(*a, **k))
    for cache in caches + (propagator._components,):
        cache.cache_clear()
    first = build()
    # a gate run finds its components once; the reduced generator is not propagated
    misses = propagator._components.cache_info().misses
    assert "kron" in calls and misses == (anchor != "effective")
    calls.clear()
    second = build()
    assert calls == [] and propagator._components.cache_info().misses == misses
    assert np.array_equal(second, first)


def test_cached_arrays_are_read_only_and_generators_are_not():
    assert build_basis("raman", 2) == build_basis("raman", 2)
    assert hash(build_basis("raman", 2)) == hash(build_basis("raman", 2))
    basis = build_basis("raman", 2)
    g = build_generator_raman(RamanParams(), basis).matrix
    support = np.zeros(basis.dim, dtype=bool)
    support[basis.index(0, "10")] = True
    blocks = propagator._reachable(g, support)
    other = build_generator_raman(RamanParams(omega20=0.02, omega21=0.02, gamma=0.3), basis).matrix
    assert propagator._reachable(other, support) is blocks
    assert [len(block) for block in blocks] == [72]
    cached = [*blocks, lambda_gate._symmetrizer(4)]
    cached += [a for term in raman_gate._raman_terms(2) + raman_gate._shift_terms(2) for a in term]
    cached += [a for term in lambda_gate._product_terms(3) for a in term]
    for a in cached:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0
    g[:] = 0.0  # each generator is the caller's own array
    assert np.array_equal(build_generator_raman(RamanParams(), basis).matrix,
                          kron_generator_raman(RamanParams(), basis).matrix)
