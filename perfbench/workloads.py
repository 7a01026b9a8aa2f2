"""Workloads of the cavgate benchmark: parameter points, anchors and CLI sessions.

Everything here is plain data; nothing imports cavgate, so the reference
script, the harness and the set-up probes share one definition of every
point.  A seed only permutes the order in which points are visited; the
points themselves, and the anchors checked against the committed
references, never depend on it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

QUBIT_INPUTS = ("00", "01", "10", "11")

# W1 and W2 are the two reference points of the roadmap; the far-detuned
# anchor is the longest rung of raman_long_pulse (W3 itself, delta = 1e5,
# takes about 20 s per call and is left out).
LONG_DELTAS = (3e3, 1e4, 3e4)


def long_pulse_params(delta: float) -> dict:
    """Far-detuned Raman ladder: omega_diag = 20 sqrt(delta/1e5) keeps W3's light shift."""
    return {"delta": delta, "omega_diag": 20.0 * math.sqrt(delta / 1e5),
            "kappa": 1e-4, "omega20": 0.01, "omega21": 0.01, "gamma": 0.0}


def lambda_params(omega0: float, gamma: float) -> dict:
    return {"omega0": omega0, "kappa": 1.0, "gamma": gamma}


def raman_params(omega_weak: float, gamma: float) -> dict:
    return {"delta": 1000.0, "omega_diag": 2.0, "kappa": 1e-3,
            "omega20": omega_weak, "omega21": omega_weak, "gamma": gamma}


ANCHORS = {
    "W1": {"scheme": "lambda", "params": lambda_params(0.1, 0.0), "input": "10"},
    "W2": {"scheme": "raman", "params": raman_params(0.05, 0.0), "input": "10"},
    "long_3e4": {"scheme": "raman", "params": long_pulse_params(3e4), "input": "10"},
}


@dataclass(frozen=True)
class Point:
    """One parameter point; its inputs run consecutively, as a scan runs them."""

    scheme: str
    params: dict
    inputs: tuple
    anchor: str | None = None


@dataclass(frozen=True)
class Command:
    """One cold CLI process of a cli_cold session."""

    label: str
    argv: tuple
    rows: int          # CSV data rows expected on stdout
    anchor: str | None = None


def _geomspace(start: float, stop: float, count: int) -> list:
    ratio = math.log(stop / start) / (count - 1)
    return [start * math.exp(ratio * k) for k in range(count)]


def _linspace(start: float, stop: float, count: int) -> list:
    return [start + (stop - start) * k / (count - 1) for k in range(count)]


def _lambda_grid() -> list:
    points = [Point("lambda", lambda_params(om, gam), QUBIT_INPUTS)
              for gam in (0.0, 1e-4, 1e-3) for om in _geomspace(0.005, 0.2, 40)]
    points.append(Point("lambda", ANCHORS["W1"]["params"], QUBIT_INPUTS, "W1"))
    return points


def _raman_grid() -> list:
    points = [Point("raman", raman_params(om, gam), ("10",))
              for gam in (0.0, 0.1, 0.5) for om in _linspace(0.01, 0.1, 20)]
    points.append(Point("raman", ANCHORS["W2"]["params"], ("10",), "W2"))
    return points


def _raman_long_pulse() -> list:
    return [Point("raman", long_pulse_params(d), ("10",), "long_3e4" if d == 3e4 else None)
            for d in LONG_DELTAS]


CLI_SESSION = (
    Command("run_lambda", ("run", "--scheme", "lambda", "--omega0", "0.1"), 1, "W1"),
    Command("scan_lambda", ("scan", "--scheme", "lambda", "--sweep", "omega0", "--start", "0.005",
                            "--stop", "0.2", "--count", "40", "--spacing", "log"), 40),
    Command("scan_raman", ("scan", "--scheme", "raman", "--sweep", "omega-weak", "--start", "0.01",
                           "--stop", "0.1", "--count", "20"), 20),
    Command("run_shelving", ("run", "--scheme", "shelving", "--omega-w", "0.02", "--omega-s", "1",
                             "--gamma-s", "1"), 1),
)

# name -> (kind, items of one pass); a cli_cold operation is a whole pass
WORKLOADS = {
    "lambda_grid": ("gate", _lambda_grid()),
    "raman_grid": ("gate", _raman_grid()),
    "raman_long_pulse": ("gate", _raman_long_pulse()),
    "cli_cold": ("cli", list(CLI_SESSION)),
}


def passes(items: list, seed: int):
    """Endless sequence of passes; each visits every item once in a seeded order."""
    rng = random.Random(seed)
    while True:
        order = list(items)
        rng.shuffle(order)
        yield order
