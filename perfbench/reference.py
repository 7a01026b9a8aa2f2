"""High-precision p0 and conditional fidelity at the benchmark's anchor points.

For each anchor in ``workloads.ANCHORS`` the script takes the float64
conditional generator that cavgate builds (each entry converted to mpmath
exactly), restricts it to the block reachable from the input configuration,
diagonalizes that block with ``mpmath.eig`` and evaluates
psi(T) = V exp(Lambda T) V^-1 psi(0) at the pulse length T that cavgate uses.
It does so at 50 and at 40 digits and records both the 50-digit values and
how far the 40-digit ones differ from them.

The reference therefore checks the propagation (plan, expm, propagate) and
the scoring, not the functions that build the generators, which it shares
with the program.

Runs offline, never inside the timed loop or the test suite; about a minute
per Raman anchor.  Writes ``references.json`` next to this file:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import ANCHORS  # noqa: E402

from cavgate.hilbert import QUBIT_CONFIGS, build_basis  # noqa: E402
from cavgate.lambda_gate import LambdaParams, build_generator_lambda, pulse_duration  # noqa: E402
from cavgate.metrics import DEFAULT_N_MAX, cnot_target, embed_qubit_state  # noqa: E402
from cavgate.raman_gate import RamanParams, build_generator_raman, raman_pulse_duration  # noqa: E402

DIGITS = (50, 40)


def anchor_problem(anchor: dict):
    """Float64 generator, pulse length, initial state and CNOT target of an anchor."""
    scheme = anchor["scheme"]
    basis = build_basis(scheme, DEFAULT_N_MAX[scheme])
    if scheme == "lambda":
        params = LambdaParams(**anchor["params"])
        gen, t_gate = build_generator_lambda(params, basis), pulse_duration(params)
    else:
        params = RamanParams(**anchor["params"])
        gen, t_gate = build_generator_raman(params, basis), raman_pulse_duration(params)
    psi = np.zeros(4, dtype=np.complex128)
    psi[QUBIT_CONFIGS.index(anchor["input"])] = 1.0
    psi0 = embed_qubit_state(basis, psi).amplitudes
    target = embed_qubit_state(basis, cnot_target(psi)).amplitudes
    return gen.matrix, t_gate, psi0, target


def reachable_block(g: np.ndarray, start: int) -> list:
    """Indices connected to ``start`` through nonzero generator entries."""
    linked = (g != 0) | (g.T != 0)
    seen, frontier = {start}, [start]
    while frontier:
        i = frontier.pop()
        for j in np.flatnonzero(linked[i]):
            if int(j) not in seen:
                seen.add(int(j))
                frontier.append(int(j))
    return sorted(seen)


def evolve(g: np.ndarray, t_gate: float, psi0: np.ndarray, target: np.ndarray, dps: int):
    """(p0, conditional fidelity) from an eigendecomposition at ``dps`` digits."""
    block = reachable_block(g, int(np.flatnonzero(psi0)[0]))
    with mp.workdps(dps):
        a = mp.matrix([[mp.mpc(float(g[i, j].real), float(g[i, j].imag)) for j in block]
                       for i in block])
        vals, vecs = mp.eig(a)
        coeffs = mp.lu_solve(vecs, mp.matrix([mp.mpc(complex(psi0[i])) for i in block]))
        t = mp.mpf(t_gate)
        final = vecs * mp.matrix([coeffs[k] * mp.exp(vals[k] * t) for k in range(len(block))])
        p0 = mp.fsum(abs(final[k]) ** 2 for k in range(len(block)))
        overlap = mp.fsum(mp.conj(mp.mpc(complex(target[i]))) * final[k]
                          for k, i in enumerate(block))
        return +p0, abs(overlap) ** 2 / p0, len(block)


def main() -> None:
    out = {}
    for name, anchor in ANCHORS.items():
        g, t_gate, psi0, target = anchor_problem(anchor)
        start = time.perf_counter()
        results = {dps: evolve(g, t_gate, psi0, target, dps) for dps in DIGITS}
        (p0, fid, dim), (p0_lo, fid_lo, _) = results[DIGITS[0]], results[DIGITS[1]]
        with mp.workdps(DIGITS[0]):
            out[name] = {
                **anchor,
                "p0": mp.nstr(p0, 30),
                "fidelity": mp.nstr(fid, 30),
                "block_dim": dim,
                "digits": DIGITS[0],
                "p0_diff_vs_40_digits": mp.nstr(abs(p0 - p0_lo), 3),
                "fidelity_diff_vs_40_digits": mp.nstr(abs(fid - fid_lo), 3),
            }
        print(f"{name}: p0={out[name]['p0']} fidelity={out[name]['fidelity']} "
              f"block={dim} ({time.perf_counter() - start:.0f} s)", flush=True)
    path = HERE / "references.json"
    path.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
