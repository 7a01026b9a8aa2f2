"""Three-level electron-shelving model with a macroscopic dark period.

A metastable state A is weakly driven to B (Rabi frequency omega_w) while
B is strongly driven to a rapidly decaying state C (omega_s, decay
gamma_s).  Without the strong drive the atom moves to B within pi/omega_w;
with it, the A population is shelved and survives for roughly
T_dark = omega_s^2 / (omega_w^2 gamma_s), which is the same interplay of a
weak drive with a strongly monitored complement that powers the cavity
gate schemes.  Both drives are taken resonant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import Basis, ConditionalGenerator, basis_state, build_basis, set_rates
from .propagator import _ROUNDOFF_BOUND, _amplitudes, plan
from .regime import DEFAULT_THRESHOLD, RegimeReport, ratio_check

__all__ = [
    "ShelvingParams",
    "build_generator_shelving",
    "dark_time",
    "survival_probability",
    "fit_dark_time",
    "validate_regime_shelving",
]

_MAX_INTERVALS = 2 ** 20  # bounds the output and the run time: about 7 s at 2**20 samples


@dataclass(frozen=True)
class ShelvingParams:
    """Weak drive (required), strong drive and upper-level decay (default 1), in units of g."""

    omega_w: float
    omega_s: float = 1.0
    gamma_s: float = 1.0

    def __post_init__(self):
        set_rates(self, ("omega_w", "omega_s", "gamma_s"))


def build_generator_shelving(params: ShelvingParams, basis: Basis | None = None) -> ConditionalGenerator:
    """3x3 no-emission generator G = -i H over the states A, B, C."""
    if basis is None:
        basis = build_basis("shelving", 0)
    basis.require_scheme("shelving")
    h = np.array(
        [
            [0.0, params.omega_w / 2.0, 0.0],
            [params.omega_w / 2.0, 0.0, params.omega_s / 2.0],
            [0.0, params.omega_s / 2.0, -0.5j * params.gamma_s],
        ],
        dtype=np.complex128,
    )
    return ConditionalGenerator(basis, -1j * h)


def dark_time(params: ShelvingParams) -> float:
    """Order-of-magnitude estimate of the mean time to the first emission.

    T_dark = omega_s^2 / (omega_w^2 gamma_s); a ValueError naming the three
    rates is raised unless it is finite and positive.
    """
    w, s, g = params.omega_w, params.omega_s, params.gamma_s
    denominator = w * w * g
    td = s * s / denominator if denominator > 0.0 else math.inf
    if not (math.isfinite(td) and td > 0.0):
        raise ValueError(f"dark time omega_s^2/(omega_w^2 gamma_s) must be finite and positive, "
                         f"got omega_w={w!r}, omega_s={s!r}, gamma_s={g!r}")
    return td


def survival_probability(params: ShelvingParams, t_max: float, n_outputs: int) -> tuple:
    """``(ts, p0)``: the no-emission probability of the initial state A at the
    even times ``ts = np.linspace(0, t_max, n_outputs + 1)``.

    The curve takes one exponential, over one grid step.  A ``t_max`` that
    is not positive and finite raises ValueError, and so does a count that
    ``plan`` refuses or one above 2**20.  The dark-period regime is not
    checked: outside it the survival need not be a single exponential,
    which ``validate_regime_shelving`` reports.
    """
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    p = plan(build_generator_shelving(params), t_max, n_outputs=n_outputs)
    if p.n_outputs > _MAX_INTERVALS:
        raise ValueError(f"n_outputs={p.n_outputs} exceeds the 2**20 survival intervals a curve keeps")
    ts = np.linspace(0.0, p.t_total, p.n_outputs + 1)
    amps = _amplitudes(p, basis_state(p.generator.basis, 0, "A"), ts)
    return ts, np.fromiter((np.vdot(a, a).real for a in amps), float, ts.size)


def fit_dark_time(params: ShelvingParams) -> float:
    """Dark time from a single-exponential fit of the survival decay.

    The survival curve is sampled once, on the 201 even times over
    [0, 2 T_dark] around the analytic estimate.  The samples from T_dark/10
    on give the returned -1/slope of a least-squares line through log P0(t).
    An ArithmeticError is raised unless log P0 falls along that line by more
    than the roundoff bound of an exponential across the window.
    """
    ts, p0 = (a[10:] for a in survival_probability(params, 2.0 * dark_time(params), 200))
    if np.any(p0 <= 0.0):
        raise ArithmeticError("survival vanished inside the fit window")
    design = np.column_stack([ts, np.ones_like(ts)])
    slope, _ = np.linalg.lstsq(design, np.log(p0), rcond=None)[0]
    decay = -slope * (ts[-1] - ts[0])
    if not decay > _ROUNDOFF_BOUND:
        raise ArithmeticError(f"log P0 fell by {decay:.3g} over the fit window, not more than "
                              f"the roundoff bound {_ROUNDOFF_BOUND:g}")
    return float(-1.0 / slope)


def validate_regime_shelving(params: ShelvingParams,
                             threshold: float = DEFAULT_THRESHOLD) -> RegimeReport:
    """Advisory report on omega_w << omega_s^2/gamma_s and omega_w << gamma_s.

    The first condition is one ratio, omega_w*gamma_s against omega_s^2: a
    zero omega_s violates it, while gamma_s = 0 passes it and is reported
    once, as the violation of omega_w << gamma_s.  omega_w = 0, which makes
    the dark time infinite, is a violation of omega_w << gamma_s too.
    """
    return RegimeReport(scheme="shelving", checks=(
        ratio_check("omega_w_much_less_than_omega_s2_over_gamma_s",
                    params.omega_w * params.gamma_s, params.omega_s * params.omega_s, threshold,
                    hard_denominator=True),
        ratio_check("omega_w_much_less_than_gamma_s",
                    params.omega_w, params.gamma_s, threshold,
                    hard_denominator=True, hard_numerator=True),
    ))
