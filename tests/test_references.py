"""The default gate run against high-precision references.

``perfbench/references.json`` holds p0 and the conditional fidelity of the
two reference points and of the far-detuned anchor delta=3e4, computed with
``mpmath.eig`` at 50 digits by ``perfbench/reference.py``.  The tolerances
sit above the errors the default path has today (W1: 7.2e-15 and 1.1e-16;
W2: 2.9e-14 and 1.1e-16; delta=3e4: 9.4e-15 and 1.6e-14), so a change that
costs accuracy by more than that fails here.  W3, the far-detuned point
delta=1e5, is checked against the ``mpmath.eig`` p0 quoted in ROADMAP.md
(error today 3.6e-14).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cavgate.hilbert import QUBIT_CONFIGS
from cavgate.lambda_gate import LambdaParams
from cavgate.metrics import gate_run
from cavgate.raman_gate import RamanParams

REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text()
)
PARAMS = {"lambda": LambdaParams, "raman": RamanParams}


def fingerprint(result):
    """Every number of a gate run, for bitwise comparison."""
    return (result.p0, result.fidelity, result.fidelity_unconditional,
            (result.final_state.amplitudes + 0.0).tobytes())


# min_substeps only refines the time grid: the pulse is one exponential at
# exactly T on every grid, so the result is bitwise that of the default grid
@pytest.mark.parametrize("min_substeps", [1, 2, 3, 7])
@pytest.mark.parametrize("name,p0_tol,fidelity_tol", [
    ("W1", 1e-12, 1e-12),
    ("W2", 1e-12, 1e-12),
    ("long_3e4", 1e-12, 1e-12),
])
def test_default_gate_run_matches_reference(name, p0_tol, fidelity_tol, min_substeps):
    ref = REFERENCES[name]
    psi = np.zeros(4, dtype=np.complex128)
    psi[QUBIT_CONFIGS.index(ref["input"])] = 1.0
    params = PARAMS[ref["scheme"]](**ref["params"])
    result = gate_run(ref["scheme"], params, psi, min_substeps=min_substeps)
    assert abs(result.p0 - float(ref["p0"])) <= p0_tol
    assert abs(result.fidelity - float(ref["fidelity"])) <= fidelity_tol
    assert fingerprint(result) == fingerprint(gate_run(ref["scheme"], params, psi))


@pytest.mark.parametrize("min_substeps", [2, 3, 7])
def test_relax_window_is_the_same_on_every_grid(min_substeps):
    # the pulse and the laser-free window are each one exponential at
    # exactly their length, whatever the grid
    params = LambdaParams(omega0=0.1, gamma=1e-3)
    psi = [0.0, 0.0, 1.0, 0.0]
    result = gate_run("lambda", params, psi, relax_window=True, min_substeps=min_substeps)
    assert fingerprint(result) == fingerprint(gate_run("lambda", params, psi, relax_window=True))


def test_far_detuned_cost_does_not_grow_with_pulse_length(exponentials):
    # W3's pulse is 50x W2's and its detuning 100x: the whole reachable
    # block has |G|_1 T = 1.3e12 against 2.5e8.  Both runs make the same
    # exponentials, one per detuning cluster (18 states with no atom
    # excited, 36 with one, 18 with two), each of 1-norm 2.4e3 at most.
    # Without atomic decay none of them underflows, so each reaches the
    # Pade core.
    gate_run("raman", RamanParams(**REFERENCES["W2"]["params"]), [0.0, 0.0, 1.0, 0.0])
    w2_sizes, w2_pade = list(exponentials.expm), list(exponentials.pade)
    params = RamanParams(delta=1e5, omega_diag=20.0, kappa=1e-4, omega20=0.01, omega21=0.01)
    result = gate_run("raman", params, [0.0, 0.0, 1.0, 0.0])
    assert exponentials.expm[len(w2_sizes):] == w2_sizes
    assert sorted(w2_sizes) == [18, 18, 36]
    assert sorted(w2_pade) == sorted(exponentials.pade[len(w2_pade):]) == [18, 18, 36]
    assert max(exponentials.norms) <= 1e4
    assert abs(result.p0 - 0.98256926062431600233) <= 1e-10
