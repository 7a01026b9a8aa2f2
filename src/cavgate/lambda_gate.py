"""Conditional dynamics of two driven three-level atoms in a lossy cavity.

One laser drives the 1-2 transition of atom 1 and another the 0-2
transition of atom 2, both with Rabi frequency omega0; the 1-2 transition
of each atom couples to the cavity mode with strength g.  Under the
no-emission condition the state evolves with the non-Hermitian generator
built here.  A pulse of duration 2*pi/omega0 then realizes a CNOT between
the two atoms (control = atom 1), mediated by the cavity-decoupled
antisymmetric bus state while the cavity stays empty.

The module also carries the closed five-amplitude model of the
decoherence-free dynamics (valid deep in the weak-driving regime) and the
first-order expressions for the gate matrix and the no-emission
probability, which serve as analytic cross-checks for the full numerics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    CNOT_MATRIX,
    LAMBDA_CONFIGS,
    Basis,
    ConditionalGenerator,
    assemble,
    cavity_terms,
    ket_bra,
    qubit_state,
    set_rates,
    two_atom,
)
from .propagator import expm
from .regime import (
    DEFAULT_THRESHOLD,
    RegimeReport,
    ratio_check,
)

__all__ = [
    "LambdaParams",
    "EffectiveRates",
    "build_generator_lambda",
    "cavity_coupling",
    "pulse_duration",
    "effective_rates",
    "effective_dfs_evolution",
    "first_order_gate_matrix",
    "first_order_success_probability",
    "validate_regime_lambda",
]


@dataclass(frozen=True)
class LambdaParams:
    """Physical rates of the three-level scheme, in units of the coupling g.

    omega0 is the Rabi frequency of both lasers; the reduced Rabi frequency
    omega0/sqrt(2) is what enters the effective dynamics.
    """

    omega0: float
    kappa: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        set_rates(self, ("omega0", "kappa", "gamma"))

    @property
    def omega(self) -> float:
        """Reduced Rabi frequency omega0 / sqrt(2)."""
        return self.omega0 / math.sqrt(2.0)


@dataclass(frozen=True)
class EffectiveRates:
    """Damping constants of the reduced decoherence-free dynamics.

    k1 is the cavity-leakage rate scale of the driven qubit amplitudes,
    k1 = omega^2 kappa / 16 (g = 1); k2 adds the direct loss channels of the
    bus amplitude, k2 = k1 + omega^2/(2 kappa) + gamma/2.  Always k2 >= k1.
    """

    k1: float
    k2: float


@functools.lru_cache(maxsize=8)
def _symmetrizer(n_sectors: int) -> np.ndarray:
    """kron(I, W) over n_sectors photon sectors (read-only).

    W's columns are the ``LAMBDA_CONFIGS`` vectors over the product
    configurations, x1x2 at index 3*x1 + x2 (atom 1 major): a unit entry
    for each of the seven labels the two share, and (|12> -+ |21>)/sqrt(2)
    for a and s.  ``W' h W`` rotates a product-basis operator into the
    stored basis.
    """
    r = 1.0 / np.sqrt(2.0)
    w = np.zeros((9, 9), dtype=np.complex128)
    for j, c in enumerate(LAMBDA_CONFIGS):
        if c in ("a", "s"):
            w[[5, 7], j] = r, (-r if c == "a" else r)  # |12>, |21>
        else:
            w[3 * int(c[0]) + int(c[1]), j] = 1.0
    w = np.kron(np.eye(n_sectors, dtype=np.complex128), w)
    w.flags.writeable = False
    return w


def _to_symmetrized(h_product: np.ndarray, n_sectors: int) -> np.ndarray:
    w = _symmetrizer(n_sectors)
    return w.conj().T @ h_product @ w


@functools.lru_cache(maxsize=8)
def _product_terms(n_max: int) -> tuple:
    """Constant terms of the three-level Hamiltonian in the product basis.

    In the order ``_hamiltonian_matrix`` scales and adds them: the laser
    drive |0>_2<2| + |1>_1<2| + h.c., the level-2 population of both
    atoms, the cavity coupling i sum_i (|2>_i<1| b - h.c.) and the photon
    number.  Read-only sparse terms from ``cavity_terms``, built on first
    use of a cutoff.
    """
    lower = two_atom(ket_bra(3, 1, 2), ket_bra(3, 0, 2))
    p2, jump = ket_bra(3, 2, 2), ket_bra(3, 2, 1)
    return cavity_terms(n_max, (lower + lower.conj().T, two_atom(p2, p2)),
                        coupling=two_atom(jump, jump))


def _hamiltonian_matrix(g: float, omega0: float, kappa: float, gamma: float,
                        basis: Basis) -> np.ndarray:
    """Conditional Hamiltonian in the symmetrized basis.

    Accepts signed g and omega0 so reduced models with negative effective
    couplings can reuse the same structure.  The product-basis terms of
    ``basis.n_max`` are cached; each call only scales and adds them.
    """
    basis.require_scheme("lambda")
    h = assemble(basis.dim, (omega0 / 2.0, -0.5j * gamma, g, -0.5j * kappa),
                 _product_terms(basis.n_max))
    return _to_symmetrized(h, basis.n_max + 1)


def build_generator_lambda(params: LambdaParams, basis: Basis) -> ConditionalGenerator:
    """Generator G = -i H of the no-emission dynamics.

    H carries the atom-cavity coupling, the two laser drives, the cavity
    damping -(i/2) kappa b'b and the atomic decay -(i/2) gamma per atom in
    level 2.  The decay part makes i(H - H') positive semidefinite, so the
    evolved squared norm (the no-photon probability) never increases.
    """
    h = _hamiltonian_matrix(1.0, params.omega0, params.kappa, params.gamma, basis)
    return ConditionalGenerator(basis, -1j * h)


def cavity_coupling(basis: Basis) -> ConditionalGenerator:
    """-i H_c, the generator with drive and losses off: it annihilates the DFS."""
    return build_generator_lambda(LambdaParams(omega0=0.0, kappa=0.0, gamma=0.0), basis)


def pulse_duration(params: LambdaParams) -> float:
    """Gate pulse length T = 2 pi / omega0, infinite at omega0 = 0; a
    ValueError naming omega0 is raised unless it is finite."""
    t = 2.0 * math.pi / params.omega0 if params.omega0 > 0.0 else math.inf
    if not math.isfinite(t):
        raise ValueError(f"pulse length 2 pi/omega0 is not finite at omega0={params.omega0!r}")
    return t


def effective_rates(params: LambdaParams) -> EffectiveRates:
    """Damping constants k1, k2 of the reduced dynamics."""
    if params.kappa <= 0.0:
        raise ValueError("effective rates require kappa > 0 (regime violation: "
                         "the dissipative gate mechanism needs a leaky cavity)")
    om2 = params.omega * params.omega
    k1 = om2 * params.kappa / 16.0
    k2 = k1 + om2 / (2.0 * params.kappa) + params.gamma / 2.0
    if not math.isfinite(k2):  # k2 >= k1 >= 0, so k1 is finite too
        raise ValueError(f"effective rates k1, k2 overflow at omega0={params.omega0!r}, "
                         f"kappa={params.kappa!r}")
    return EffectiveRates(k1=k1, k2=k2)


def _dfs_block_matrix(omega: float, rates: EffectiveRates) -> np.ndarray:
    """Coefficient matrix of the coupled (c_10, c_11, c_a) amplitudes."""
    k1, k2 = rates.k1, rates.k2
    return -0.5 * np.array(
        [
            [10.0 * k1, 2.0 * k1, 1j * omega],
            [2.0 * k1, 2.0 * k1, -1j * omega],
            [1j * omega, -1j * omega, 2.0 * k2],
        ],
        dtype=np.complex128,
    )


def effective_dfs_evolution(initial, params: LambdaParams, t: float) -> np.ndarray:
    """Evolve the five decoherence-free amplitudes for a time t.

    ``initial`` holds the finite amplitudes (c_00, c_01, c_10, c_11, c_a),
    in ``hilbert.DFS_LABELS`` order.
    With k1, k2 = ``effective_rates(params)``, c_01 is conserved, c_00
    decays as exp(-4 k1 t), and the remaining three amplitudes follow the
    closed linear system solved here by exact matrix exponentiation.
    Raises ArithmeticError where ``propagator.expm`` refuses the exponential.
    """
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    v = np.asarray(initial, dtype=np.complex128)
    if v.shape != (5,):
        raise ValueError(f"expected 5 decoherence-free amplitudes, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"initial amplitudes must be finite, got {v.tolist()!r}")
    rates = effective_rates(params)
    out = v.copy()
    out[0] = v[0] * np.exp(-4.0 * rates.k1 * t)
    out[2:5] = expm(_dfs_block_matrix(params.omega, rates) * t) @ v[2:5]
    return out


def first_order_gate_matrix(params: LambdaParams) -> np.ndarray:
    """Gate matrix on the qubit subspace, to first order in k1*T and k2*T.

    Equals the ideal CNOT minus three small corrections proportional to
    (6k1 - k2)T/4, (10k1 + k2)T/4 and 4k1*T; the 01 column is exact.
    Rows/columns are ordered 00, 01, 10, 11.
    """
    rates = effective_rates(params)
    t = pulse_duration(params)
    k1, k2 = rates.k1, rates.k2
    u = CNOT_MATRIX.copy()
    u[2, 2] -= 0.25 * (6.0 * k1 - k2) * t
    u[3, 3] -= 0.25 * (6.0 * k1 - k2) * t
    u[2, 3] -= 0.25 * (10.0 * k1 + k2) * t
    u[3, 2] -= 0.25 * (10.0 * k1 + k2) * t
    u[0, 0] -= 4.0 * k1 * t
    return u


def first_order_success_probability(psi, params: LambdaParams) -> float:
    """No-emission probability of a full pulse, to first order in k_i*T.

    ``psi`` is a unit-norm amplitude vector over (00, 01, 10, 11), checked
    by ``qubit_state`` as ``gate_run`` checks it.
    p = 1 - 2 Re <CNOT psi, (CNOT - M) psi> is |M psi|^2 to first order in
    CNOT - M, M being ``first_order_gate_matrix(params)``.  The expansion is
    returned as computed: outside the weak-driving regime it can leave
    [0, 1], and ``validate_regime_lambda`` is what judges the regime.
    """
    v = qubit_state(psi)
    p = 1.0 - 2.0 * np.vdot(CNOT_MATRIX @ v, (CNOT_MATRIX - first_order_gate_matrix(params)) @ v).real
    return float(p)


def validate_regime_lambda(params: LambdaParams,
                           threshold: float = DEFAULT_THRESHOLD) -> RegimeReport:
    """Advisory report on gamma << omega << g^2/kappa and omega << kappa (g = 1).

    Each condition is one ratio, omega << g^2/kappa taken as omega*kappa
    against 1, so kappa = 0 passes it and is reported once, as the
    violation of omega << kappa.  omega0 = 0, which leaves the pulse
    length undefined, is a violation of gamma << omega.
    """
    om = params.omega
    return RegimeReport(scheme="lambda", checks=(
        ratio_check("gamma_much_less_than_omega", params.gamma, om, threshold,
                    hard_denominator=True),
        ratio_check("omega_much_less_than_g2_over_kappa", om * params.kappa, 1.0, threshold),
        ratio_check("omega_much_less_than_kappa", om, params.kappa, threshold,
                    hard_denominator=True),
    ))
