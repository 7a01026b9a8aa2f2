"""SHA-256 digests of the benchmark's gate numbers and CLI output.

    python tools/gate_digest.py ROOT

imports cavgate from ROOT/src and the workloads from ROOT/perfbench, so
two checkouts can be compared line by line.  Every ``gate_run`` call of
lambda_grid, raman_grid and raman_long_pulse, in the order of
``perfbench/workloads.py``, contributes
``(final_state.amplitudes + 0.0).tobytes()`` and then
``repr((p0, fidelity, fidelity_unconditional))``; one digest is printed per
workload and one over all calls.  Each cli_cold command, and then
``--help``, runs as a cold ``python -m cavgate`` process, and its exit code
and a digest of its stdout are printed.  The digests depend on numpy and
BLAS builds, so they compare two checkouts on one machine, not machines.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

GATE_WORKLOADS = ("lambda_grid", "raman_grid", "raman_long_pulse")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: gate_digest.py ROOT", file=sys.stderr)
        return 2
    root = Path(args[0]).resolve()
    src = root / "src"
    sys.path[:0] = [str(src), str(root / "perfbench")]
    import numpy as np
    import workloads
    from cavgate.lambda_gate import LambdaParams
    from cavgate.metrics import gate_run
    from cavgate.raman_gate import RamanParams

    kinds = {"lambda": LambdaParams, "raman": RamanParams}
    total, calls = hashlib.sha256(), 0
    for name in GATE_WORKLOADS:
        digest, n = hashlib.sha256(), 0
        for pt in workloads.WORKLOADS[name][1]:
            params = kinds[pt.scheme](**pt.params)
            for label in pt.inputs:
                psi = np.zeros(4, dtype=np.complex128)
                psi[workloads.QUBIT_INPUTS.index(label)] = 1.0
                res = gate_run(pt.scheme, params, psi)
                for chunk in ((res.final_state.amplitudes + 0.0).tobytes(),
                              repr((res.p0, res.fidelity, res.fidelity_unconditional)).encode()):
                    digest.update(chunk)
                    total.update(chunk)
                n += 1
        calls += n
        print(f"{name:<18} {n:>4} calls  {digest.hexdigest()}")
    print(f"{'all':<18} {calls:>4} calls  {total.hexdigest()}")

    env = dict(os.environ, PYTHONPATH=str(src))
    for label, argv in [*((cmd.label, cmd.argv) for cmd in workloads.CLI_SESSION), ("help", ("--help",))]:
        proc = subprocess.run([sys.executable, "-m", "cavgate", *argv], cwd=root, env=env,
                              capture_output=True, check=False)
        print(f"{label:<18} exit {proc.returncode}  {hashlib.sha256(proc.stdout).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
