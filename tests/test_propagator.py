import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from cavgate import lambda_gate, propagator
from cavgate.hilbert import ConditionalGenerator, StateVector, basis_state, build_basis
from cavgate.lambda_gate import (
    EffectiveRates,
    LambdaParams,
    build_generator_lambda,
    pulse_duration,
)
from cavgate.metrics import gate_run
from cavgate.propagator import (
    expm,
    output_times,
    plan,
    propagate,
)
from cavgate.raman_gate import RamanParams, build_generator_raman, raman_pulse_duration
from cavgate.shelving import ShelvingParams, build_generator_shelving, fit_dark_time
from oracles import reference_expm


def random_matrix(rng, dim, scale):
    return scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


@pytest.mark.parametrize("scale", [1e-3, 0.3, 2.0, 50.0])
def test_expm_matches_scipy(scale):
    rng = np.random.default_rng(11)
    a = random_matrix(rng, 12, scale / 12.0)
    ours = expm(a)
    ref = scipy.linalg.expm(a)
    denom = np.linalg.norm(ref)
    assert np.linalg.norm(ours - ref) / denom <= 1e-10


@pytest.mark.parametrize("scale", [1e2, 1e5])
def test_expm_matches_scipy_large_antihermitian(scale):
    # exponentials only stay bounded at huge norms for (near-)dissipative
    # matrices; the anti-Hermitian case exercises the deep squaring phase
    rng = np.random.default_rng(13)
    h = random_matrix(rng, 10, 1.0)
    h = scale * (h + h.conj().T) / np.linalg.norm(h + h.conj().T, 2)
    a = -1j * h
    ours = expm(a)
    ref = scipy.linalg.expm(a)
    assert np.linalg.norm(ours - ref) / np.linalg.norm(ref) <= 1e-9


def test_expm_dissipative_generator_large_time():
    # the step matrices of real runs: contractive, very large norm * time
    basis = build_basis("raman", 1)
    params = RamanParams(omega20=0.05, omega21=0.05)
    g = build_generator_raman(params, basis).matrix
    t = 300.0  # |G t| ~ 1e6
    ours = expm(g * t)
    ref = scipy.linalg.expm(g * t)
    assert np.linalg.norm(ours - ref) / np.linalg.norm(ref) <= 1e-9
    # contractive up to the roundoff of ~20 squarings
    assert np.linalg.norm(ours, 2) <= 1.0 + 1e-9


def _gate_block(params):
    basis = build_basis("raman", 2)
    g = build_generator_raman(params, basis).matrix
    block = propagator._reachable(g, basis_state(basis, 0, "10").amplitudes != 0.0)
    return g[np.ix_(block, block)] * raman_pulse_duration(params)


W2 = RamanParams(omega20=0.05, omega21=0.05)
LONG_3E4 = RamanParams(delta=3e4, omega_diag=20.0 * np.sqrt(0.3), kappa=1e-4, omega20=0.01, omega21=0.01)


@pytest.mark.parametrize("case", ["W2", "long_3e4", "leaves", "random", "random_antihermitian"])
def test_expm_bitwise_equals_out_of_place_reference(monkeypatch, case):
    # expm is the reference's algorithm with every operation in the same
    # order, so results must be identical, not merely close
    rng = np.random.default_rng(17)
    if case == "W2":
        # u |A|_1 = 2.8e-8 after 26 squarings: the deepest accepted whole block
        mats = [_gate_block(W2)]
    elif case == "long_3e4":
        # 36 squarings of the whole block carry u |A|_1 = 2.29e-5, past the
        # bound, so expm refuses it; propagation exponentiates its leaves
        with pytest.raises(ArithmeticError, match="u\\*\\|G t\\|_1 = 2.29e-05 exceeds 1e-06 "
                                                  "on a block of 72 states"):
            expm(_gate_block(LONG_3E4))
        return
    elif case == "leaves":
        # the shifted cluster leaves that propagate exponentiates
        mats = []
        monkeypatch.setattr(propagator, "expm", lambda a: mats.append(a.copy()) or expm(a))
        for params in (W2, LONG_3E4):
            gate_run("raman", params, [0.0, 0.0, 1.0, 0.0])
        assert [a.shape[0] for a in mats] == [18, 36, 18, 18, 36, 18]
    elif case == "random":
        mats = [random_matrix(rng, dim, scale / dim)
                for dim in (5, 24, 72) for scale in (1.0, 4.0, 30.0, 1e3)]
    else:
        h = random_matrix(rng, 40, 1.0)
        mats = [-1j * scale * (h + h.conj().T) for scale in (0.5, 1e2, 1e5)]
    for a in mats:
        assert np.array_equal(expm(a), reference_expm(a))


def test_each_leaf_is_normed_once(monkeypatch):
    # expm takes the 1-norm it scales by and checks the roundoff bound on
    # it, so nothing norms a leaf a second time
    sizes = []
    real = propagator._norm_mu
    monkeypatch.setattr(propagator, "_norm_mu", lambda a: sizes.append(a.shape[0]) or real(a))
    gate_run("raman", W2, [0.0, 0.0, 1.0, 0.0])
    assert sorted(sizes) == [18, 18, 36]


def test_expm_trivial_and_errors():
    assert np.abs(expm(np.zeros((4, 4))) - np.eye(4)).max() == 0.0
    with pytest.raises(ValueError):
        expm(np.ones((2, 3)))
    with pytest.raises(ValueError):
        expm(np.array([[np.nan, 0], [0, 1.0]]))


@pytest.mark.parametrize("a,error,message", [
    # finite entries whose 1-norm overflows
    (np.full((2, 2), 1e308), ValueError, "1-norm is inf"),
    # e^1000 is beyond the largest double: the squarings overflow
    (np.diag([1000.0]), ArithmeticError, "1-norm 1e\\+03, 8 squarings"),
], ids=["norm_overflows", "squarings_overflow"])
def test_expm_refuses_what_it_cannot_represent(a, error, message):
    with pytest.raises(error, match=message):
        expm(a)


@pytest.mark.parametrize("a", [
    np.diag([-746.0, -746.0, -1e6]),
    # non-normal, mu = max(-1000 + 250, -750) = -750
    np.array([[-1000.0, 250.0], [0.0, -750.0]]),
], ids=["diagonal", "non_normal"])
def test_expm_underflow_is_exact_zero_without_pade(a, exponentials):
    out = expm(a)
    assert out.shape == a.shape and not np.any(out)
    assert exponentials.pade == []


def test_expm_near_underflow_still_evaluates(exponentials):
    # mu = -745 lies just above -1075 ln 2: e^-745 rounds to the smallest
    # subnormal, not to zero
    assert expm(np.diag([-745.0]))[0, 0] == 5e-324
    assert expm(np.diag([-700.0]))[0, 0] == pytest.approx(np.exp(-700.0), rel=1e-14)
    assert exponentials.pade == [1, 1]


@pytest.mark.parametrize("norms,bound", [
    (np.geomspace(1e-4, 1.0, 9), 1e-14),
    (np.geomspace(1.0, 500.0, 9), 1e-12),
], ids=["norm_to_1", "norm_to_500"])
def test_expm_accuracy_against_scipy(norms, bound):
    # degree 13 scaled to theta_13 has backward error at unit roundoff at
    # every norm, small ones included
    rng = np.random.default_rng(5)
    for norm in norms:
        for dim in (4, 12, 36):
            a = random_matrix(rng, dim, 1.0)
            a *= norm / np.linalg.norm(a, 1)
            ref = scipy.linalg.expm(a)
            assert np.linalg.norm(expm(a) - ref) / np.linalg.norm(ref) <= bound


def test_plan_diagonal_decay_is_exact():
    basis = build_basis("shelving", 0)
    g = np.diag([-0.5, -0.5, -0.5]).astype(complex)
    from cavgate.hilbert import ConditionalGenerator

    gen = ConditionalGenerator(basis, g)
    p = plan(gen, 10.0, n_outputs=10)
    expected = np.exp(-0.5 * p.dt)
    step = expm(p.generator.matrix * p.dt)
    assert np.abs(np.diag(step) - expected).max() <= 1e-12 * expected


def test_plan_unitary_step_for_hermitian_limit():
    basis = build_basis("lambda", 2)
    gen = build_generator_lambda(LambdaParams(omega0=0.1, kappa=0.0, gamma=0.0), basis)
    p = plan(gen, 50.0, n_outputs=100)
    e = expm(p.generator.matrix * p.dt)
    assert np.abs(e.conj().T @ e - np.eye(basis.dim)).max() <= 1e-8


def test_plan_long_horizon_step_budget(exponentials):
    # the longest supported pulse: six-level gate at its weakest drive is
    # one exponential per decoupled cluster, however long the pulse
    basis = build_basis("raman", 2)
    params = RamanParams(omega20=0.01, omega21=0.01)
    gen = build_generator_raman(params, basis)
    t = raman_pulse_duration(params)
    assert t == pytest.approx(6.283185307179586e5, rel=1e-12)
    propagate(plan(gen, t), basis_state(basis, 0, "10"), [t])
    assert len(exponentials.expm) <= 3


def test_plan_input_validation():
    basis = build_basis("shelving", 0)
    from cavgate.hilbert import ConditionalGenerator

    gen = ConditionalGenerator(basis, -np.eye(3, dtype=complex))
    # plain floats in the message, not numpy reprs
    with pytest.raises(ValueError, match=r"^t_total must be positive and finite, got 0\.0$"):
        plan(gen, np.float64(0.0))
    with pytest.raises(ValueError):
        plan(gen, 1.0, n_outputs=0)
    # counts must be integers: a fractional one would leave the grid short
    # of t_total (n_outputs) or be silently truncated (min_substeps)
    with pytest.raises(ValueError, match="n_outputs"):
        plan(gen, 1.0, n_outputs=2.7)
    with pytest.raises(ValueError, match="min_substeps"):
        plan(gen, 1.0, min_substeps=1.5)
    bad = ConditionalGenerator(basis, np.full((3, 3), np.inf + 0j))
    with pytest.raises(ValueError):
        plan(bad, 1.0)


def test_plan_refuses_a_step_below_the_smallest_normal_float():
    # at 5e-324 the step rounds to 0 and propagate would divide by it; a subnormal
    # step would leave too few digits to tell an off-grid time
    gen = build_generator_shelving(ShelvingParams(0.02, 1.0, 1.0))
    for t_total in (5e-324, 1e-305):
        with pytest.raises(ValueError, match=rf"^t_total={t_total!r} over 500 grid steps gives a step "):
            plan(gen, t_total)
    p = plan(gen, 1e-305, n_outputs=10)
    state = basis_state(gen.basis, 0, "A")
    with pytest.raises(ValueError, match=r"^time 1\.5e-308 is not a multiple of the plan step dt=1e-306;"):
        propagate(p, state, [1.5e-308])
    assert propagate(p, state, [1e-306])[0].squared_norm() == pytest.approx(1.0, abs=1e-15)


def test_propagate_stationary_configuration():
    # the 01 configuration couples to neither laser nor cavity
    basis = build_basis("lambda", 2)
    params = LambdaParams(omega0=0.17, kappa=0.8, gamma=0.02)
    p = plan(build_generator_lambda(params, basis), 40.0, n_outputs=40)
    state = basis_state(basis, 0, "01")
    for out in propagate(p, state, output_times(p)):
        assert np.abs(out.amplitudes - state.amplitudes).max() <= 1e-12
        assert abs(out.squared_norm() - 1.0) <= 1e-12


def test_propagate_norm_conservation_hermitian_limit():
    basis = build_basis("lambda", 2)
    gen = build_generator_lambda(LambdaParams(omega0=0.1, kappa=0.0, gamma=0.0), basis)
    p = plan(gen, 100.0, n_outputs=200)
    out = propagate(p, basis_state(basis, 0, "10"), [100.0])[0]
    assert abs(out.squared_norm() - 1.0) <= 1e-10


def test_propagate_matches_first_order_probability():
    params = LambdaParams(omega0=0.1, kappa=1.0, gamma=0.0)
    basis = build_basis("lambda", 2)
    t = pulse_duration(params)
    p = plan(build_generator_lambda(params, basis), t, n_outputs=100)
    p0 = propagate(p, basis_state(basis, 0, "10"), [t])[0].squared_norm()
    assert p0 == pytest.approx(0.81347, abs=5e-2)


def test_propagate_grid_validation():
    basis = build_basis("shelving", 0)
    gen = build_generator_shelving(ShelvingParams(0.02, 1.0, 1.0), basis)
    p = plan(gen, 10.0, n_outputs=10)
    state = basis_state(basis, 0, "A")
    with pytest.raises(ValueError):
        propagate(p, state, [5.0, 2.0])
    with pytest.raises(ValueError, match=r"got range \[11\.0, 11\.0\]$"):
        propagate(p, state, [11.0])
    with pytest.raises(ValueError, match=r"^time 0\.123456 is not a multiple of the plan step dt=1\.0;"):
        propagate(p, state, [0.123456])
    with pytest.raises(ValueError):
        propagate(p, state, [])
    # a NaN passes every comparison, and would cast to INT64_MIN steps
    for t_grid, shown in (([np.nan], "nan"), ([0.0, np.nan, 10.0], "nan"), ([0.0, np.inf], "inf")):
        with pytest.raises(ValueError, match=f"^t_grid must hold finite times, got {shown}$"):
            propagate(p, state, t_grid)


def test_propagate_refuses_times_before_zero_on_a_short_run():
    # an absolute slack of 1e-12 took 99 steps backwards here, to p0 > 1
    basis = build_basis("shelving", 0)
    gen = ConditionalGenerator(basis, np.diag([-1.0, -2.0, -3.0]).astype(complex))
    p = plan(gen, 1e-14, n_outputs=1)
    state = basis_state(basis, 0, "A")
    with pytest.raises(ValueError, match=r"got range \[-9\.9e-13, 1e-14\]$"):
        propagate(p, state, [-9.9e-13, 1e-14])
    # the slack is relative to t_total: -1e-27 still snaps onto time 0
    assert np.array_equal(propagate(p, state, [-1e-27])[0].amplitudes, state.amplitudes)


@pytest.mark.parametrize("t_grid", [[-9e-13, 1.0 + 9e-13], [0.0, 1.0 + 1e-13], [0.0, 1e308]],
                         ids=["nine-steps-each-side", "one-step-past", "overflowing-steps"])
def test_propagate_refuses_whole_steps_outside_a_fine_grid(t_grid):
    # on 1e13 steps a relative slack of 1e-12 covered 10 whole steps beyond
    # each end: [-9e-13, 1 + 9e-13] gave p0 = 1 + 1.8e-12
    basis = build_basis("shelving", 0)
    gen = ConditionalGenerator(basis, np.diag([-1.0, -2.0, -3.0]).astype(complex))
    p = plan(gen, 1.0, n_outputs=10**13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 1e308/dt overflows, and must only read as out of range
        with pytest.raises(ValueError, match=r"^t_grid must lie within \[0, t_total=1\.0\], got range "
                                             + re.escape(f"[{t_grid[0]!r}, {t_grid[1]!r}]") + "$"):
            propagate(p, basis_state(basis, 0, "A"), t_grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "-infj"])
def test_propagate_refuses_non_finite_initial_amplitudes(bad):
    basis = build_basis("lambda", 3)
    params = LambdaParams(omega0=0.1)
    p = plan(build_generator_lambda(params, basis), pulse_duration(params))
    amps = basis_state(basis, 0, "10").amplitudes
    amps[basis.index(1, "01")] = bad
    amps[basis.index(0, "10")] = bad
    with pytest.raises(ValueError, match=rf"^initial amplitude at \(0, '10'\) is not finite, got "
                                         rf"{re.escape(repr(complex(bad)))}$"):
        propagate(p, StateVector(basis, amps), [p.t_total])


def test_plan_refuses_grids_whose_step_indices_are_not_exact_floats():
    # at 1e17 substeps the int64 cast of the step count overflowed, and the
    # gate time read as "not a multiple of the plan step"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^n_outputs=500 times min_substeps=100000000000000000 "
                                             r"exceeds 2\*\*53 grid steps"):
            gate_run("lambda", LambdaParams(0.1), [0, 0, 1, 0], min_substeps=10**17)
    basis = build_basis("shelving", 0)
    gen = ConditionalGenerator(basis, np.diag([-1.0, -2.0, -3.0]).astype(complex))
    with pytest.raises(ValueError, match=r"^n_outputs=2 times min_substeps=4503599627370497 exceeds"):
        plan(gen, 1.0, n_outputs=2, min_substeps=2**52 + 1)
    p = plan(gen, 1.0, n_outputs=2**53)  # the finest grid accepted
    (out,) = propagate(p, basis_state(basis, 0, "A"), [0.5])
    assert out.squared_norm() == pytest.approx(np.exp(-1.0), rel=1e-14)


def test_propagate_rejects_foreign_basis():
    basis = build_basis("lambda", 2)
    other = build_basis("lambda", 3)
    gen = build_generator_lambda(LambdaParams(omega0=0.1), basis)
    p = plan(gen, 1.0, n_outputs=4)
    with pytest.raises(ValueError):
        propagate(p, basis_state(other, 0, "10"), [1.0])


def _random_lambda_run(n_outputs):
    rng = np.random.default_rng(0)
    basis = build_basis("lambda", 2)
    gen = build_generator_lambda(LambdaParams(omega0=0.1, kappa=1.0, gamma=1e-3), basis)
    p = plan(gen, 30.0, n_outputs=n_outputs)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return p, StateVector(basis, amps / np.linalg.norm(amps))


def test_propagate_matches_step_matrix_powers():
    p, state = _random_lambda_run(25)
    ks = [0, 1, 6, 23, 25]
    out = propagate(p, state, [k * p.dt for k in ks])
    step = expm(p.generator.matrix * p.dt)
    for k, s in zip(ks, out):
        expected = np.linalg.matrix_power(step, k) @ state.amplitudes
        assert np.abs(s.amplitudes - expected).max() <= 1e-10


@pytest.mark.parametrize("scheme", ["lambda", "raman"])
def test_propagate_zero_state_stays_zero(scheme):
    # an all-zero state reaches no states: the block is empty
    basis = build_basis(scheme, 2)
    if scheme == "lambda":
        gen = build_generator_lambda(LambdaParams(omega0=0.1), basis)
    else:
        gen = build_generator_raman(RamanParams(), basis)
    p = plan(gen, 10.0, n_outputs=5)
    out = propagate(p, StateVector(basis, np.zeros(basis.dim, dtype=complex)), output_times(p))
    assert len(out) == 6
    assert all(not np.any(s.amplitudes) for s in out)


def test_propagate_repeated_time_returns_identical_state():
    p, state = _random_lambda_run(10)
    t = 3 * p.dt
    out = propagate(p, state, [0.0, 0.0, t, t, t])
    assert np.array_equal(out[0].amplitudes, state.amplitudes)
    assert np.array_equal(out[1].amplitudes, out[0].amplitudes)
    assert np.array_equal(out[3].amplitudes, out[2].amplitudes)
    assert np.array_equal(out[4].amplitudes, out[2].amplitudes)


def test_output_grid_is_one_exponential_on_the_reachable_block(exponentials):
    # |10> reaches 24 of the 36 lambda states; the other 12 stay exactly zero
    basis = build_basis("lambda", 3)
    gen = build_generator_lambda(LambdaParams(omega0=0.1, kappa=1.0, gamma=1e-3), basis)
    p = plan(gen, 30.0, n_outputs=30)
    traj = propagate(p, basis_state(basis, 0, "10"), output_times(p))
    assert exponentials.expm == [24]
    assert all(np.count_nonzero(s.amplitudes) <= 24 for s in traj)


def _gate_run_and_whole_block(params):
    """gate_run's final state from |10>, and exp(G T) on the whole reachable block."""
    basis = build_basis("raman", 2)
    gen = build_generator_raman(params, basis)
    v = basis_state(basis, 0, "10").amplitudes
    block = propagator._reachable(gen.matrix, v != 0.0)
    t = output_times(plan(gen, raman_pulse_duration(params)))[-1]
    whole = np.zeros_like(v)
    whole[block] = expm(gen.matrix[np.ix_(block, block)] * t) @ v[block]
    final = gate_run("raman", params, [0.0, 0.0, 1.0, 0.0]).final_state.amplitudes
    return final, whole


def test_near_resonance_raman_is_one_exponential_of_the_whole_block(exponentials):
    # at delta=5 the excited states lie within the coupling spread of the
    # ground states: no cluster splits off, and the run is the undecoupled one
    final, whole = _gate_run_and_whole_block(RamanParams(kappa=1e-3, delta=5.0))
    assert exponentials.expm == [72]
    assert np.array_equal(final, whole)


def test_unconverged_sweeps_fall_back_to_the_whole_block(monkeypatch, exponentials):
    # one sweep cannot reach roundoff, so W2 takes the undecoupled path
    monkeypatch.setattr(propagator, "_SWEEPS", 1)
    final, whole = _gate_run_and_whole_block(RamanParams(omega20=0.05, omega21=0.05))
    assert exponentials.expm == [72]
    assert np.array_equal(final, whole)


def test_refused_split_falls_back_to_the_whole_block(monkeypatch, exponentials):
    # at _SEP = 2 the delta = 30 block cuts 18/36/18, but the first Riccati
    # sweep estimates a contraction q = 0.72 >= 1/2, so the split is refused
    monkeypatch.setattr(propagator, "_SEP", 2.0)
    final, whole = _gate_run_and_whole_block(RamanParams(kappa=1e-3, delta=30.0))
    assert exponentials.expm == [72]
    assert np.array_equal(final, whole)


def test_refused_sylvester_sweep_falls_back_to_the_whole_block(monkeypatch, exponentials):
    # a gate run's second fixed point is the first split's Y: refusing it
    # leaves W2 unsplit, after its Riccati sweep has converged
    real, calls = propagator._fixed_point, []

    def fixed_point(*args):
        calls.append(args)
        return None if len(calls) == 2 else real(*args)

    monkeypatch.setattr(propagator, "_fixed_point", fixed_point)
    final, whole = _gate_run_and_whole_block(RamanParams(omega20=0.05, omega21=0.05))
    assert len(calls) == 2
    assert exponentials.expm == [72]
    assert np.array_equal(final, whole)


def test_decoupled_output_grid_matches_scipy(exponentials):
    params = RamanParams(omega20=0.05, omega21=0.05)
    basis = build_basis("raman", 2)
    gen = build_generator_raman(params, basis)
    p = plan(gen, raman_pulse_duration(params) / 100, n_outputs=10)
    state = basis_state(basis, 0, "10")
    traj = propagate(p, state, output_times(p))
    assert sorted(exponentials.expm) == [18, 18, 36]
    # scipy's own squarings of the whole generator err by up to about
    # u |G|_1 t, which bounds the comparison (it is 1.9e-11 off at the last
    # output; the decoupled states match the 50-digit p0 at W2 to 3e-14)
    step = scipy.linalg.expm(gen.matrix * (p.t_total / 10))
    g_norm = np.linalg.norm(gen.matrix, 1)
    ref = state.amplitudes
    for t, s in zip(output_times(p), traj):
        assert np.abs(s.amplitudes - ref).max() <= 1e-12 + 2.0 ** -53 * g_norm * t
        ref = step @ ref


def test_decomposition_block_diagonalises_the_reachable_block():
    basis = build_basis("raman", 2)
    g = build_generator_raman(RamanParams(omega20=0.05, omega21=0.05), basis).matrix
    v = basis_state(basis, 0, "10").amplitudes
    d = propagator._decompose(g, v != 0.0)
    assert len(d.block) == 72
    assert [m.shape[0] for _, m, _ in d.leaves] == [18, 36, 18]
    assert len(d.splits) == 2
    # G out(c) = out(L c), L the leaves, for three columns at once (axis 0)
    rng = np.random.default_rng(21)
    c = rng.normal(size=(72, 3)) + 1j * rng.normal(size=(72, 3))
    lc = np.concatenate([m @ c[part] for part, m, _ in d.leaves])
    like = np.zeros((len(v), 3), dtype=complex)
    g_norm = np.linalg.norm(g[np.ix_(d.block, d.block)], 1)
    assert np.abs(g @ d.out(c, like) - d.out(lc, like)).max() <= 1e-13 * g_norm * np.abs(c).max()
    w = np.zeros_like(v)
    w[d.block] = rng.normal(size=72) + 1j * rng.normal(size=72)
    assert np.abs(d.out(d.into(w), w) - w).max() <= 1e-14


@pytest.mark.parametrize("n_outputs", [1, 10])
def test_a_trajectory_decomposes_its_block_once(monkeypatch, n_outputs):
    real, calls = propagator._split, []
    monkeypatch.setattr(propagator, "_split", lambda g, s: calls.append(s) or real(g, s))
    params = RamanParams(omega20=0.05, omega21=0.05)
    basis = build_basis("raman", 2)
    p = plan(build_generator_raman(params, basis), raman_pulse_duration(params), n_outputs=n_outputs)
    propagate(p, basis_state(basis, 0, "10"), output_times(p))
    assert calls == [18, 36]


def test_decaying_excited_clusters_skip_the_pade_core(monkeypatch, exponentials):
    # with atomic decay gamma = 0.5 over the pulse, both excited clusters
    # have mu T below -1e4: their exponentials are exact zeros, and only
    # the 18-state ground cluster reaches the Pade core
    params = RamanParams(delta=1000.0, omega_diag=2.0, kappa=1e-3,
                         omega20=0.05, omega21=0.05, gamma=0.5)
    psi = [0.0, 0.0, 1.0, 0.0]
    final = gate_run("raman", params, psi).final_state.amplitudes
    assert sorted(exponentials.expm) == [18, 18, 36]
    assert exponentials.pade == [18]
    monkeypatch.setattr(propagator, "_UNDERFLOW", -np.inf)
    evaluated = gate_run("raman", params, psi).final_state.amplitudes
    assert sorted(exponentials.pade[1:]) == [18, 18, 36]
    assert np.array_equal(final, evaluated)


@pytest.mark.parametrize("run,message", [
    # p0 read 0.99805 against the first-order 0.9999999999981
    (lambda: gate_run("lambda", LambdaParams(omega0=1e-12), [0.0, 0.0, 1.0, 0.0]),
     "u\\*\\|G t\\|_1 = 0.0038 exceeds 1e-06 on a block of 24 states"),
    # the squarings end in a zero matrix, and p0 read 0.0
    (lambda: gate_run("lambda", LambdaParams(omega0=1e-300), [0.0, 0.0, 1.0, 0.0]),
     "u\\*\\|G t\\|_1 = 3.8e\\+285 exceeds 1e-06"),
    # the fit read 5.12e15 against the estimate 1e16
    (lambda: fit_dark_time(ShelvingParams(omega_w=1e-8, omega_s=1.0, gamma_s=1.0)),
     "u\\*\\|G t\\|_1 = 0.0111 exceeds 1e-06 on a block of 3 states"),
    # the relax window of 5/gamma = 5e9 takes the dark block whole; splitting
    # off the decoherence-free states would give the answer, to check here then
    (lambda: gate_run("lambda", LambdaParams(omega0=0.1, gamma=1e-9), [0.0, 0.0, 1.0, 0.0],
                      relax_window=True),
     "u\\*\\|G t\\|_1 = 3.03e-06 exceeds 1e-06 on a block of 24 states"),
    # no decay and no underflow: 1e12 time units, about 1.6e10 pulses
    (lambda: expm(lambda_gate._dfs_block_matrix(LambdaParams(omega0=0.1).omega,
                                                EffectiveRates(0.0, 0.0)) * 1e12),
     "u\\*\\|G t\\|_1 = 7.85e-06 exceeds 1e-06 on a block of 3 states"),
], ids=["lambda_1e-12", "lambda_1e-300", "shelving_1e-8", "relax_window_gamma_1e-9",
        "dfs_lossless_1e12"])
def test_propagation_refuses_squarings_whose_roundoff_exceeds_the_bound(run, message):
    with pytest.raises(ArithmeticError, match=message):
        run()


def test_exact_underflow_is_exempt_from_the_roundoff_bound():
    # u |G t|_1 = 1.1e-3, but mu t = -1e13 lies far below -1075 ln 2, so
    # the zero that expm returns is exact
    basis = build_basis("shelving", 0)
    gen = ConditionalGenerator(basis, np.diag([-1.0, -2.0, -3.0]).astype(complex))
    assert propagate(plan(gen, 1e13), basis_state(basis, 0, "A"), [1e13])[0].squared_norm() == 0.0


def test_no_photon_probability_basics():
    basis = build_basis("shelving", 0)
    gen = build_generator_shelving(ShelvingParams(0.02, 1.0, 1.0), basis)
    p = plan(gen, 5000.0, n_outputs=500)
    state = basis_state(basis, 0, "A")
    p_start, p_mid = (out.squared_norm() for out in propagate(p, state, [0.0, 2500.0]))
    assert p_start == pytest.approx(1.0, abs=1e-12)
    assert np.exp(-1.0) / 2.0 <= p_mid <= np.exp(-1.0) * 2.0


def test_norm_monotone_on_output_grid():
    rng = np.random.default_rng(42)
    basis = build_basis("lambda", 2)
    params = LambdaParams(omega0=0.1, kappa=1.0, gamma=1e-3)
    p = plan(build_generator_lambda(params, basis), 60.0, n_outputs=60)
    for _ in range(10):
        amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        amps /= np.linalg.norm(amps)
        traj = propagate(p, StateVector(basis, amps), output_times(p))
        norms = np.array([s.squared_norm() for s in traj])
        assert np.all(np.diff(norms) <= 1e-12)


def test_step_halving_changes_little():
    params = LambdaParams(omega0=0.1, kappa=1.0, gamma=0.0)
    basis = build_basis("lambda", 2)
    gen = build_generator_lambda(params, basis)
    t = pulse_duration(params)
    base = plan(gen, t, n_outputs=100)
    halved = plan(gen, t, n_outputs=100, min_substeps=2 * base.n_sub)
    s0 = propagate(base, basis_state(basis, 0, "10"), [t])[0]
    s1 = propagate(halved, basis_state(basis, 0, "10"), [t])[0]
    assert np.abs(s0.amplitudes - s1.amplitudes).max() <= 1e-8


def test_output_times_span_the_run():
    basis = build_basis("shelving", 0)
    gen = build_generator_shelving(ShelvingParams(0.02, 1.0, 1.0), basis)
    # W1's pulse length on the default 500 outputs: 500 * (T / 500) != T
    for t_total, n_outputs in [(123.0, 41), (pulse_duration(LambdaParams(omega0=0.1)), 500)]:
        p = plan(gen, t_total, n_outputs=n_outputs)
        ts = output_times(p)
        assert len(ts) == n_outputs + 1
        assert ts[0] == 0.0
        assert ts[-1] == t_total
        propagate(p, basis_state(basis, 0, "A"), ts)
