"""The default gate run against high-precision references.

``perfbench/references.json`` holds p0 and the conditional fidelity of the
two reference points and of the far-detuned anchor delta=3e4, computed with
``mpmath.eig`` at 50 digits by ``perfbench/reference.py``.  The tolerances
sit above the errors the default path has today (W1: 7.2e-15 and 1.1e-16;
W2: 4.4e-9 and 5.3e-11; delta=3e4: 1.26e-5 and 4.4e-10), so a change that
costs accuracy by more than that fails here.  W3, the far-detuned point
delta=1e5, is checked against the ``mpmath.eig`` p0 quoted in ROADMAP.md
(error today 1.4e-5).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cavgate import propagator
from cavgate.hilbert import QUBIT_CONFIGS
from cavgate.lambda_gate import LambdaParams
from cavgate.metrics import gate_run
from cavgate.raman_gate import RamanParams

REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text()
)
PARAMS = {"lambda": LambdaParams, "raman": RamanParams}


@pytest.mark.parametrize("name,p0_tol,fidelity_tol", [
    ("W1", 1e-12, 1e-12),
    ("W2", 1e-6, 1e-8),
    ("long_3e4", 3e-5, 1e-8),
])
def test_default_gate_run_matches_reference(name, p0_tol, fidelity_tol):
    ref = REFERENCES[name]
    psi = np.zeros(4, dtype=np.complex128)
    psi[QUBIT_CONFIGS.index(ref["input"])] = 1.0
    result = gate_run(ref["scheme"], PARAMS[ref["scheme"]](**ref["params"]), psi)
    assert abs(result.p0 - float(ref["p0"])) <= p0_tol
    assert abs(result.fidelity - float(ref["fidelity"])) <= fidelity_tol


def test_far_detuned_w3_is_one_exponential(monkeypatch):
    calls = []
    real = propagator.expm

    def counted(a, **kwargs):
        calls.append(a.shape)
        return real(a, **kwargs)

    monkeypatch.setattr(propagator, "expm", counted)
    params = RamanParams(delta=1e5, omega_diag=20.0, kappa=1e-4, omega20=0.01, omega21=0.01)
    result = gate_run("raman", params, [0.0, 0.0, 1.0, 0.0])
    assert abs(result.p0 - 0.98256926062431600233) <= 1e-4
    assert len(calls) == 1
