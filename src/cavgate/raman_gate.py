"""Conditional dynamics of two six-level atoms with Raman-coupled transitions.

Each transition of the three-level gate is replaced by a two-photon Raman
route through a far-detuned excited state e_j (detuning delta_j, decay
gamma_j): three strong fields omega_jj dress the j-e_j transitions of both
atoms, one weak field omega21 addresses the 2-e1 transition of atom 1,
another weak field omega20 the 2-e0 transition of atom 2, and the cavity
couples to 1-e2 with strength g.  Because the excited states are barely
populated, spontaneous emission is strongly suppressed while the reduced
dynamics reproduces the three-level gate with effective couplings

    omega_j_eff = -omega_2j * omega_jj / (2 delta_j),
    g_eff       = -g * omega_22 / (2 delta_2),

plus four light-shift terms.  Both the full 36-configuration generator and
the reduced (adiabatically eliminated) generator are provided; the reduced
one reuses the three-level machinery and serves as a cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    Basis,
    ConditionalGenerator,
    RAMAN_LEVELS,
    as_rate,
    assemble,
    fock_lowering,
    ket_bra,
    set_rates,
    sparse_term,
    two_atom,
)
from .lambda_gate import _hamiltonian_matrix as _three_level_hamiltonian, _to_symmetrized
from .regime import (
    DEFAULT_THRESHOLD,
    LEVEL_PASS,
    RegimeReport,
    equality_check,
    ratio_check,
)

__all__ = [
    "RamanParams",
    "EffectiveLambdaView",
    "build_generator_raman",
    "effective_lambda_view",
    "build_generator_effective",
    "raman_pulse_duration",
    "validate_regime_raman",
]

_LEV = {name: i for i, name in enumerate(RAMAN_LEVELS)}


def _triple(value, name: str) -> tuple:
    """Broadcast a scalar to a 3-tuple of rates, entry j checked by
    ``as_rate`` under the name ``name[j]``."""
    if np.isscalar(value):
        value = (value, value, value)
    out = tuple(value)
    if len(out) != 3:
        raise ValueError(f"{name} must be a scalar or a 3-tuple, got {value!r}")
    return tuple(as_rate(f"{name}[{j}]", v) for j, v in enumerate(out))


@dataclass(frozen=True)
class RamanParams:
    """Rates of the six-level scheme, in units of g.

    ``delta``, ``omega_diag`` and ``gamma`` hold one entry per excited state
    (j = 0, 1, 2); scalars broadcast to all three.  Detunings must be
    positive, everything else non-negative.  Defaults: g = 1, delta = 1000,
    omega_diag = 2, omega20 = 0.05, gamma = 0, omega21 = omega20 (the balanced
    drive the gate needs) and kappa = |g_eff| = g omega_22 / (2 delta_2).
    """

    g: float = 1.0
    kappa: float | None = None
    delta: tuple = (1000.0, 1000.0, 1000.0)
    omega_diag: tuple = (2.0, 2.0, 2.0)
    omega20: float = 0.05
    omega21: float | None = None
    gamma: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "delta", _triple(self.delta, "delta"))
        object.__setattr__(self, "omega_diag", _triple(self.omega_diag, "omega_diag"))
        object.__setattr__(self, "gamma", _triple(self.gamma, "gamma"))
        if self.omega21 is None:
            object.__setattr__(self, "omega21", self.omega20)
        set_rates(self, [n for n in ("g", "kappa", "omega20", "omega21") if getattr(self, n) is not None])
        if 0.0 in self.delta:
            raise ValueError(f"delta entries must be positive, got {self.delta!r}")
        if self.kappa is None:  # after the delta check, so that g_eff is a number
            object.__setattr__(self, "kappa", as_rate("kappa", abs(effective_lambda_view(self).g_eff)))


@dataclass(frozen=True)
class EffectiveLambdaView:
    """Signed effective couplings and light-shift magnitudes of the reduction.

    The shifts enter the reduced Hamiltonian with a minus sign:
    ``cavity_shift`` multiplies (atoms in level 1) x (photon number),
    ``ground_shift[j]`` lowers level j of each atom, and the two
    ``weak_shift_*`` terms lower level 2 of one specific atom.
    """

    omega0_eff: float
    omega1_eff: float
    g_eff: float
    cavity_shift: float
    ground_shift: tuple
    weak_shift_atom1: float
    weak_shift_atom2: float


def effective_lambda_view(params: RamanParams) -> EffectiveLambdaView:
    """All effective rates of the adiabatic elimination, signs preserved."""
    d0, d1, d2 = params.delta
    o00, o11, o22 = params.omega_diag
    return EffectiveLambdaView(
        omega0_eff=-params.omega20 * o00 / (2.0 * d0),
        omega1_eff=-params.omega21 * o11 / (2.0 * d1),
        g_eff=-params.g * o22 / (2.0 * d2),
        cavity_shift=params.g * params.g / d2,
        ground_shift=(o00 * o00 / (4.0 * d0), o11 * o11 / (4.0 * d1), o22 * o22 / (4.0 * d2)),
        weak_shift_atom1=params.omega21 * params.omega21 / (4.0 * d1),
        weak_shift_atom2=params.omega20 * params.omega20 / (4.0 * d0),
    )


@functools.lru_cache(maxsize=8)
def _raman_terms(n_max: int) -> tuple:
    """Constant operator terms of the six-level Hamiltonian, one per rate.

    In the order ``build_generator_raman`` scales and adds them: the weak
    drive of atom 1 and of atom 2, then for j = 0, 1, 2 the strong drive
    of both atoms and their projector on e_j, then the cavity coupling and
    the photon number.  Each is a read-only ``sparse_term`` over the
    (n_max+1)*36 basis, built on first use of a cutoff.
    """
    nf = n_max + 1
    b = fock_lowering(n_max)
    sectors = np.eye(nf, dtype=np.complex128)

    def hermitian(op):
        return op + op.conj().T

    atomic = [hermitian(two_atom(ket_bra(6, _LEV["2"], _LEV["e1"]))),
              hermitian(two_atom(atom2=ket_bra(6, _LEV["2"], _LEV["e0"])))]
    for j in range(3):
        drive = ket_bra(6, _LEV[str(j)], _LEV[f"e{j}"])
        proj = ket_bra(6, _LEV[f"e{j}"], _LEV[f"e{j}"])
        atomic += [hermitian(two_atom(drive, drive)), two_atom(proj, proj)]
    terms = [np.kron(sectors, op) for op in atomic]
    jump = ket_bra(6, _LEV["e2"], _LEV["1"])
    terms.append(hermitian(1j * np.kron(b, two_atom(jump, jump))))
    terms.append(np.kron(b.conj().T @ b, np.eye(36, dtype=np.complex128)))
    return tuple(sparse_term(t) for t in terms)


def build_generator_raman(params: RamanParams, basis: Basis) -> ConditionalGenerator:
    """Generator G = -i H of the full six-level no-emission dynamics.

    H carries the 1-e2 cavity coupling of each atom, the two weak drives,
    the three strong drives on both atoms, the detuning of each excited
    state, the cavity damping and the excited-state decay.  It is the sum
    of the cached constant terms of ``basis.n_max``, each scaled by its rate.
    """
    basis.require_scheme("raman")
    coefficients = [params.omega21 / 2.0, params.omega20 / 2.0]
    for j in range(3):
        coefficients += [params.omega_diag[j] / 2.0, params.delta[j] - 0.5j * params.gamma[j]]
    coefficients += [params.g, -0.5j * params.kappa]
    h = assemble(basis.dim, coefficients, _raman_terms(basis.n_max))
    h *= -1j  # G = -i H in place; exact, it only swaps and negates parts
    return ConditionalGenerator(basis, h)


@functools.lru_cache(maxsize=8)
def _shift_terms(n_max: int) -> tuple:
    """Constant light-shift terms of the reduced model in the product basis.

    In the order ``_shift_hamiltonian`` scales and adds them: the level-j
    population of both atoms for j = 0, 1, 2, the level-2 population of
    atom 1 and of atom 2, then the photon number times the level-1
    population of both atoms.  Read-only ``sparse_term``s over the
    (n_max+1)*9 basis, built on first use of a cutoff.
    """
    b = fock_lowering(n_max)
    both = [two_atom(ket_bra(3, j, j), ket_bra(3, j, j)) for j in range(3)]
    p2 = ket_bra(3, 2, 2)
    sectors = np.eye(n_max + 1, dtype=np.complex128)
    terms = [np.kron(sectors, op) for op in both + [two_atom(p2), two_atom(atom2=p2)]]
    terms.append(np.kron(b.conj().T @ b, both[1]))
    return tuple(sparse_term(t) for t in terms)


def _shift_hamiltonian(view: EffectiveLambdaView, n_max: int) -> np.ndarray:
    """Light-shift terms of the reduced model, in the symmetrized basis."""
    coefficients = [-s for s in view.ground_shift]
    coefficients += [-view.weak_shift_atom1, -view.weak_shift_atom2, -view.cavity_shift]
    h = assemble(9 * (n_max + 1), coefficients, _shift_terms(n_max))
    return _to_symmetrized(h, n_max + 1)


def build_generator_effective(params: RamanParams, basis: Basis) -> ConditionalGenerator:
    """Reduced generator after eliminating the excited states.

    Lives on a three-level (lambda-scheme) basis: the gate terms are the
    three-level ones at (g_eff, omega_eff, gamma = 0) plus the four
    light-shift terms.  The two weak effective Rabi frequencies must be
    equal, since the reduced model is only used for the balanced gate drive.
    """
    basis.require_scheme("lambda")
    view = effective_lambda_view(params)
    balanced = equality_check("omega0_eff_equals_omega1_eff", view.omega0_eff, view.omega1_eff)
    if balanced.level != LEVEL_PASS:
        raise ValueError(
            f"effective weak Rabi frequencies differ "
            f"({view.omega0_eff!r} vs {view.omega1_eff!r}); "
            "the reduced generator assumes a balanced drive"
        )
    h = _three_level_hamiltonian(view.g_eff, view.omega0_eff, params.kappa, 0.0, basis)
    h = h + _shift_hamiltonian(view, basis.n_max)
    return ConditionalGenerator(basis, -1j * h)


def raman_pulse_duration(params: RamanParams) -> float:
    """Weak-field pulse length T = 2 pi / |omega0_eff|, with omega0_eff =
    -omega20 omega_diag[0] / (2 delta[0]); a ValueError naming those three
    rates is raised unless it is finite."""
    if params.omega20 <= 0.0 or params.omega_diag[0] <= 0.0:
        raise ValueError("pulse duration requires omega20 > 0 and omega_diag[0] > 0")
    omega = abs(effective_lambda_view(params).omega0_eff)
    t = 2.0 * math.pi / omega if omega > 0.0 else math.inf
    if not math.isfinite(t):
        raise ValueError(f"pulse length 2 pi/|omega0_eff| is not finite at omega20={params.omega20!r}, "
                         f"omega_diag[0]={params.omega_diag[0]!r}, delta[0]={params.delta[0]!r}")
    return t


def validate_regime_raman(params: RamanParams,
                          threshold: float = DEFAULT_THRESHOLD) -> RegimeReport:
    """Advisory report on the conditions behind the adiabatic reduction.

    Checks, in order: equal effective weak Rabi frequencies (a violation
    when broken, since the pulse length is built on it), the weak drive
    against g_eff^2/kappa and kappa, each weak field against its strong
    partner, g against omega_22, equality of the omega_jj^2/delta_j shifts
    (warning when broken) and the separation of the detunings from every
    other rate.
    """
    view = effective_lambda_view(params)
    o00, o11, o22 = params.omega_diag
    d0, d1, d2 = params.delta
    checks = [
        equality_check("omega0_eff_equals_omega1_eff",
                       view.omega0_eff, view.omega1_eff, hard=True),
    ]
    if params.kappa <= 0.0:
        checks.append(ratio_check(
            "omega_eff_much_less_than_geff2_over_kappa",
            abs(view.omega0_eff), 0.0, threshold, hard_denominator=True,
            note="kappa must be positive"))
    else:
        checks.append(ratio_check(
            "omega_eff_much_less_than_geff2_over_kappa",
            abs(view.omega0_eff) * params.kappa, view.g_eff * view.g_eff, threshold,
            hard_denominator=True))
    checks += [
        ratio_check("omega_eff_much_less_than_kappa",
                    abs(view.omega0_eff), params.kappa, threshold,
                    hard_denominator=True),
        ratio_check("omega20_much_less_than_omega00", params.omega20, o00, threshold),
        ratio_check("omega21_much_less_than_omega11", params.omega21, o11, threshold),
        ratio_check("g_much_less_than_omega22", params.g, o22, threshold),
        equality_check("equal_ground_shifts",
                       o00 * o00 / d0, o11 * o11 / d1,
                       note="omega_00^2/delta_0 != omega_11^2/delta_1"),
        equality_check("equal_ground_shifts_2",
                       o11 * o11 / d1, o22 * o22 / d2,
                       note="omega_11^2/delta_1 != omega_22^2/delta_2"),
        ratio_check("delta_much_greater_than_other_rates",
                    max(params.g, params.kappa, o00, o11, o22,
                        params.omega20, params.omega21, *params.gamma),
                    min(params.delta), threshold),
    ]
    return RegimeReport(scheme="raman", checks=tuple(checks))
