"""Gate-level observables: CNOT target, success probability, fidelity.

A gate run embeds a computational two-qubit state at zero photons,
propagates it with the scheme's conditional generator for the scheme's
pulse length T and reports

* p0, the squared norm of the conditioned final state (the probability
  that no photon was emitted during the pulse, i.e. the success rate),
* the conditional fidelity |<target|final>|^2 / p0 against the ideal CNOT
  output embedded at zero photons, and
* the unconditional fidelity, the bare numerator |<target|final>|^2.  It
  is the no-emission branch's share of the channel fidelity
  <target|rho(T)|target> and so only a lower bound on it: a run in which
  the cavity emits can still end on the target (lambda at omega0 = 0.1,
  kappa = 1, gamma = 0, from |10>: 0.8287, where the Lindblad channel
  gives 0.9233).

Residual population in bus, excited or photon-carrying states lowers the
fidelity by construction, since the target has support only on the
computational configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import CNOT_MATRIX, Basis, StateVector, build_basis, qubit_indices, qubit_state
from .lambda_gate import LambdaParams, build_generator_lambda, pulse_duration
from .propagator import plan, propagate
from .raman_gate import RamanParams, build_generator_raman, raman_pulse_duration

__all__ = [
    "CNOT_MATRIX",
    "DEFAULT_N_MAX",
    "cnot_target",
    "embed_qubit_state",
    "conditional_fidelity",
    "GateResult",
    "gate_run",
]

#: Photon cutoffs that pass the n_max -> n_max + 1 convergence bound of
#: 1e-6 on p0 where the regime report passes.  Outside it the bound can
#: fail: at omega0 = 0.1, kappa = 0.3, where omega << kappa warns (ratio
#: 0.2357), the lambda delta is 4.2e-6.  The three-level scheme
#: needs one sector more: its drive is stronger relative to the cavity
#: coupling, so two-photon amplitudes are not quite negligible.
DEFAULT_N_MAX = {"lambda": 3, "raman": 2}

# a conditioned norm cannot grow, so p0 beyond 1 + _P0_SLACK is roundoff, not a
# result; perfbench's probability check allows the same slack
_P0_SLACK = 1e-9


def cnot_target(psi) -> np.ndarray:
    """Ideal CNOT image of a unit-norm qubit state (control first)."""
    return CNOT_MATRIX @ qubit_state(psi)


def embed_qubit_state(basis: Basis, psi) -> StateVector:
    """Place qubit amplitudes on the zero-photon computational configurations."""
    v = qubit_state(psi)
    amps = np.zeros(basis.dim, dtype=np.complex128)
    for idx, amp in zip(qubit_indices(basis), v):
        amps[idx] = amp
    return StateVector(basis, amps)


def conditional_fidelity(target: StateVector, final: StateVector) -> tuple:
    """(conditional fidelity, unconditional fidelity, p0) of a final state.

    ``final`` is the unnormalized conditioned state; ``target`` the ideal
    unit-norm output.  The unconditional fidelity |<target|final>|^2 is the
    no-emission branch's share of the channel fidelity, a lower bound on it.
    Both fidelities are moduli, so they are invariant under global phases of
    either state.  When p0 vanishes the conditional fidelity is undefined
    and reported as NaN.
    """
    p0 = final.squared_norm()
    unconditional = abs(target.overlap(final)) ** 2
    conditional = unconditional / p0 if p0 > 0.0 else math.nan
    return conditional, unconditional, p0


@dataclass(frozen=True)
class GateResult:
    """Outcome of one conditioned gate run (final_state is unnormalized).

    ``fidelity`` is the conditional fidelity; ``fidelity_unconditional`` is
    |<target|final_state>|^2, the no-emission branch's share of the channel
    fidelity and so only a lower bound on it.

    It carries no regime report: ``validate_regime_lambda`` or
    ``validate_regime_raman`` gives one, at a threshold of the caller's choice.
    """

    p0: float
    fidelity: float
    fidelity_unconditional: float
    gate_time: float
    final_state: StateVector


def gate_run(scheme: str, params, psi, *, n_max: int | None = None,
             min_substeps: int = 1, relax_window: bool = False) -> GateResult:
    """Run one CNOT pulse and measure success probability and fidelity.

    Parameters
    ----------
    scheme : {"lambda", "raman"}
    params : LambdaParams or RamanParams
        Must match the scheme.
    psi : array_like
        Unit-norm amplitudes over (00, 01, 10, 11), control atom first.
    n_max : int, optional
        Photon cutoff; defaults per scheme (see ``DEFAULT_N_MAX``).
    min_substeps : int
        Only refines the time grid of the plan (see ``propagator.plan``): the
        pulse and the relax window are each one exponential at exactly their
        length, so every value gives bitwise the same result.
    relax_window : bool
        Three-level scheme only: after the pulse, evolve for a further
        5/gamma with the lasers off so residual bus population decays
        before the state is scored.

    Raises ValueError, before anything is propagated, when a time derived
    from the rates is not finite: the pulse length, or the relax window
    5/gamma (infinite at gamma = 0).  Raises ArithmeticError when an
    exponential overflows or p0 exceeds 1 by more than 1e-9, where the
    roundoff of the squarings swamps the result.
    The parameter regime is not checked here: a run outside it is still
    simulated, and the caller asks ``validate_regime_*`` for the report.
    """
    v = qubit_state(psi)
    # read at each call, so that a module-level name replaced later (a tracer) is the one run
    gates = {"lambda": (LambdaParams, pulse_duration, build_generator_lambda),
             "raman": (RamanParams, raman_pulse_duration, build_generator_raman)}
    if scheme not in gates:
        raise ValueError(f"no gate is defined for scheme {scheme!r}")
    kind, duration, build_generator = gates[scheme]
    if not isinstance(params, kind):
        raise TypeError(f"scheme {scheme!r} needs {kind.__name__}, got {type(params).__name__}")
    if relax_window and kind is not LambdaParams:
        raise ValueError("the relaxation window applies to the lambda scheme only")
    if relax_window:
        t_relax = 5.0 / params.gamma if params.gamma > 0.0 else math.inf
        if not math.isfinite(t_relax):
            raise ValueError(f"relax window 5/gamma is not finite at gamma={params.gamma!r}")
    t_gate = duration(params)
    basis = build_basis(scheme, DEFAULT_N_MAX[scheme] if n_max is None else n_max)
    gen = build_generator(params, basis)

    p = plan(gen, t_gate, min_substeps=min_substeps)
    final = propagate(p, embed_qubit_state(basis, v), [t_gate])[0]

    if relax_window:
        dark = build_generator_lambda(LambdaParams(omega0=0.0, kappa=params.kappa, gamma=params.gamma), basis)
        final = propagate(plan(dark, t_relax, min_substeps=min_substeps), final, [t_relax])[0]

    target = embed_qubit_state(basis, cnot_target(v))
    fid, fid_unc, p0 = conditional_fidelity(target, final)
    if p0 > 1.0 + _P0_SLACK:
        raise ArithmeticError(f"p0 = {p0!r} exceeds 1 by more than {_P0_SLACK:g}: "
                              "the roundoff of the exponentials swamps the result")
    return GateResult(
        p0=p0, fidelity=fid, fidelity_unconditional=fid_unc,
        gate_time=t_gate, final_state=final,
    )
