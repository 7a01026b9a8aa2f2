"""The default gate run against the committed high-precision references.

``perfbench/references.json`` holds p0 and the conditional fidelity of the
two reference points, computed with ``mpmath.eig`` at 50 digits by
``perfbench/reference.py``.  The tolerances sit more than ten times above
the errors the default path has today (W1: 1.8e-14 and 1.6e-15; W2: 6.1e-8
and 3.8e-10), so a change that costs accuracy by more than that fails here.
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


@pytest.mark.parametrize("name,p0_tol,fidelity_tol", [
    ("W1", 1e-12, 1e-12),
    ("W2", 1e-6, 1e-8),
])
def test_default_gate_run_matches_reference(name, p0_tol, fidelity_tol):
    ref = REFERENCES[name]
    psi = np.zeros(4, dtype=np.complex128)
    psi[QUBIT_CONFIGS.index(ref["input"])] = 1.0
    result = gate_run(ref["scheme"], PARAMS[ref["scheme"]](**ref["params"]), psi)
    assert abs(result.p0 - float(ref["p0"])) <= p0_tol
    assert abs(result.fidelity - float(ref["fidelity"])) <= fidelity_tol
