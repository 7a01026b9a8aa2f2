"""Shared test plumbing: a recorder that prints one line per acceptance
criterion in the terminal summary, pass or fail, and a fixture that counts
the matrix exponentials a test makes."""

from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from cavgate import propagator

_LINES = []


@contextmanager
def criterion(cid: str, description: str):
    try:
        yield
    except BaseException:
        _LINES.append(f"criterion {cid} FAIL: {description}")
        raise
    _LINES.append(f"criterion {cid} PASS: {description}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINES:
        terminalreporter.section("acceptance criteria")
        for line in _LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def exponentials(monkeypatch):
    """From now on in the test, the size of every matrix given to
    ``propagator.expm`` (``.expm``, with its 1-norm in ``.norms``) and of
    every matrix its Pade core evaluates (``.pade``), in call order."""
    record = SimpleNamespace(expm=[], norms=[], pade=[])
    real_expm, real_pade = propagator.expm, propagator._pade13_uv

    def expm(a):
        record.expm.append(a.shape[0])
        record.norms.append(float(np.linalg.norm(a, 1)))
        return real_expm(a)

    def pade(a):
        record.pade.append(a.shape[0])
        return real_pade(a)

    monkeypatch.setattr(propagator, "expm", expm)
    monkeypatch.setattr(propagator, "_pade13_uv", pade)
    return record
