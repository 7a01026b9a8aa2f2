"""Dissipation-assisted two-qubit gates for atoms in a lossy cavity.

Simulates the conditional (no-photon-emission) dynamics of two driven
atoms coupled to a damped cavity mode, for a three-level scheme, a
six-level Raman variant that suppresses spontaneous emission, and the
related three-level shelving model with macroscopic dark periods.
Provides gate success probabilities, conditional CNOT fidelities, the
analytic weak-driving cross-checks and a scan/validation CLI.
"""

from .hilbert import (
    Basis,
    ConditionalGenerator,
    StateVector,
    basis_state,
    build_basis,
    qubit_indices,
)
from .lambda_gate import (
    EffectiveRates,
    LambdaParams,
    build_generator_lambda,
    effective_dfs_evolution,
    effective_rates,
    first_order_gate_matrix,
    first_order_success_probability,
    pulse_duration,
    validate_regime_lambda,
)
from .metrics import (
    CNOT_MATRIX,
    GateResult,
    cnot_target,
    conditional_fidelity,
    embed_qubit_state,
    gate_run,
)
from .propagator import (
    PropagatorPlan,
    expm,
    output_times,
    plan,
    propagate,
)
from .raman_gate import (
    EffectiveLambdaView,
    RamanParams,
    build_generator_effective,
    build_generator_raman,
    effective_lambda_view,
    raman_pulse_duration,
    validate_regime_raman,
)
from .regime import RegimeReport
from .shelving import (
    ShelvingParams,
    build_generator_shelving,
    dark_time,
    fit_dark_time,
    survival_probability,
    validate_regime_shelving,
)

__version__ = "0.1.0"
