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

from .hilbert import Basis, ConditionalGenerator, as_integer, basis_state, build_basis, set_rates
from .propagator import plan, propagate
from .regime import DEFAULT_THRESHOLD, RegimeReport, ratio_check

__all__ = [
    "ShelvingParams",
    "build_generator_shelving",
    "dark_time",
    "survival_probability",
    "fit_dark_time",
    "validate_regime_shelving",
]


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
    if not (0.0 < td < math.inf):
        raise ValueError(f"dark time omega_s^2/(omega_w^2 gamma_s) must be finite and positive, "
                         f"got omega_w={w!r}, omega_s={s!r}, gamma_s={g!r}")
    return td


def survival_probability(params: ShelvingParams, t_grid) -> np.ndarray:
    """No-emission probability of the initial state A at each grid time.

    ``t_grid`` is the even grid k*t_max/n from 0 to t_max (as
    ``np.linspace(0, t_max, n + 1)`` gives it), evaluated with one
    exponential, or a single positive time; anything else raises
    ValueError.  The dark-period regime is not checked: outside it the
    survival need not be a single exponential, which
    ``validate_regime_shelving`` reports.
    """
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    t_max, n = ts.max(initial=0.0), max(ts.size - 1, 1)
    if ts.ndim != 1 or not 0.0 < t_max < math.inf or ts.size > 1 and (
            np.abs(ts - t_max * (np.arange(n + 1) / n)).max() > 1e-6 * t_max / n):
        raise ValueError("t_grid must be the even grid k*t_max/n, k = 0..n, from 0 to a positive "
                         f"finite t_max, or one positive time; got {np.array2string(ts, threshold=6)}")
    p = plan(build_generator_shelving(params), t_max, n_outputs=n)
    return np.array([s.squared_norm() for s in propagate(p, basis_state(p.generator.basis, 0, "A"), ts)])


def fit_dark_time(params: ShelvingParams, n_points: int = 200) -> float:
    """Dark time from a single-exponential fit of the survival decay.

    The survival curve is sampled once, on the n_points + 1 even times over
    [0, 2 T_dark] around the analytic estimate.  The samples from index
    n_points // 20 on (from T_dark/10 when 20 divides n_points) give the
    returned -1/slope of a least-squares line through log P0(t).
    """
    n_points = as_integer("n_points", n_points)
    if n_points < 2:
        raise ValueError(f"a fit needs n_points >= 2, got {n_points!r}")
    td = dark_time(params)
    ts = np.linspace(0.0, 2.0 * td, n_points + 1)
    p0 = survival_probability(params, ts)
    ts, p0 = ts[n_points // 20:], p0[n_points // 20:]
    if np.any(p0 <= 0.0):
        raise ArithmeticError("survival vanished inside the fit window")
    design = np.column_stack([ts, np.ones_like(ts)])
    slope, _ = np.linalg.lstsq(design, np.log(p0), rcond=None)[0]
    if slope >= 0.0:
        raise ArithmeticError("survival did not decay over the fit window")
    return float(-1.0 / slope)


def validate_regime_shelving(params: ShelvingParams,
                             threshold: float = DEFAULT_THRESHOLD) -> RegimeReport:
    """Advisory report on omega_w << omega_s^2/gamma_s and omega_w << gamma_s."""
    checks = []
    if params.gamma_s <= 0.0 or params.omega_s <= 0.0:
        checks.append(ratio_check(
            "omega_w_much_less_than_omega_s2_over_gamma_s",
            params.omega_w, 0.0, threshold, hard_denominator=True,
            note="omega_s and gamma_s must be positive"))
    else:
        checks.append(ratio_check(
            "omega_w_much_less_than_omega_s2_over_gamma_s",
            params.omega_w * params.gamma_s, params.omega_s * params.omega_s, threshold))
    checks.append(ratio_check(
        "omega_w_much_less_than_gamma_s",
        params.omega_w, params.gamma_s, threshold, hard_denominator=True))
    return RegimeReport(scheme="shelving", checks=tuple(checks))
