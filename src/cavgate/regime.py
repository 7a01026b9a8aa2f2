"""Advisory parameter-regime reports.

Each scheme is derived under "much smaller than" conditions.  The final
authority on gate quality is the simulation itself, so these checks never
block a run; they classify each condition as

``pass``
    the ratio is at or below the threshold,
``warn``
    the ratio exceeds the threshold (the scheme may still work, degraded),
``violation``
    the parameters make the scheme structurally undefined (for example a
    zero decay rate appearing in a denominator, or unequal effective Rabi
    frequencies that break the gate construction).

The thresholds encode how strictly "much smaller" is read; the default of
0.1 means one order of magnitude.  No simulation routine makes a report
or warns, the first-order expansions included: the caller that holds the
threshold asks ``validate_regime_*`` for one, as the command line does once
per run at ``--threshold``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "LEVEL_PASS",
    "LEVEL_WARN",
    "LEVEL_VIOLATION",
    "DEFAULT_THRESHOLD",
    "RegimeCheck",
    "RegimeReport",
    "ratio_check",
    "equality_check",
]

LEVEL_PASS = "pass"
LEVEL_WARN = "warn"
LEVEL_VIOLATION = "violation"

DEFAULT_THRESHOLD = 0.1

# the only map from a check's level to the command line's exit code
_EXIT_CODES = {LEVEL_PASS: 0, LEVEL_WARN: 1, LEVEL_VIOLATION: 2}

# relative difference below which ``equality_check`` counts two rates as equal
_EQUALITY_RTOL = 1e-12


@dataclass(frozen=True)
class RegimeCheck:
    name: str
    ratio: float
    threshold: float
    level: str
    note: str = ""

    def line(self) -> str:
        ratio = "n/a" if math.isnan(self.ratio) else f"{self.ratio:.4g}"
        txt = f"[{self.level:>9}] {self.name}: ratio={ratio} threshold={self.threshold:g}"
        if self.note:
            txt += f" ({self.note})"
        return txt


@dataclass(frozen=True)
class RegimeReport:
    scheme: str
    checks: tuple

    @property
    def exit_code(self) -> int:
        """0 all pass, 1 warnings only, 2 at least one violation."""
        return max((_EXIT_CODES[c.level] for c in self.checks), default=0)

    def lines(self) -> list:
        code = self.exit_code
        warned = sum(c.level == LEVEL_WARN for c in self.checks)
        head = f"regime report ({self.scheme}): " + (
            "all conditions satisfied" if code == 0 else
            f"{warned} warning(s)" + (", violation" if code == 2 else "")
        )
        return [head] + [c.line() for c in self.checks]


def ratio_check(name: str, numerator: float, denominator: float, threshold: float,
                hard_denominator: bool = False, hard_numerator: bool = False) -> RegimeCheck:
    """Classify the condition numerator << denominator.

    A condition whose limit is infinite is written cross-multiplied (omega
    << g^2/kappa as omega*kappa against g^2), so a zero rate in it passes.
    A non-positive denominator is a violation when ``hard_denominator`` is
    set (the quantity is structurally required), otherwise a warning; its
    ratio is infinite, or NaN (printed ``n/a``) when the numerator is 0 too.
    Past that, a zero numerator is a violation when ``hard_numerator`` is
    set (a drive whose inverse sets the run's time scale); otherwise it
    passes.
    """
    if denominator <= 0.0:
        level = LEVEL_VIOLATION if hard_denominator else LEVEL_WARN
        ratio = math.nan if numerator == 0.0 else math.inf
        return RegimeCheck(name, ratio, threshold, level, "denominator is not positive")
    ratio = numerator / denominator
    if hard_numerator and numerator <= 0.0:
        return RegimeCheck(name, ratio, threshold, LEVEL_VIOLATION, "numerator is not positive")
    level = LEVEL_PASS if ratio <= threshold else LEVEL_WARN
    return RegimeCheck(name, ratio, threshold, level)


def equality_check(name: str, lhs: float, rhs: float,
                   hard: bool = False, note: str = "") -> RegimeCheck:
    """Classify an exact-equality condition; mismatch warns or violates."""
    scale = max(abs(lhs), abs(rhs), 1e-300)
    diff = abs(lhs - rhs) / scale
    if diff <= _EQUALITY_RTOL:
        return RegimeCheck(name, 0.0, _EQUALITY_RTOL, LEVEL_PASS)
    level = LEVEL_VIOLATION if hard else LEVEL_WARN
    return RegimeCheck(name, diff, _EQUALITY_RTOL, level,
                       note or f"{lhs!r} != {rhs!r}")
