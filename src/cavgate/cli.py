"""Command-line front end: single runs, parameter scans, regime validation
and convergence studies, with deterministic CSV output.

All rates are entered and printed in units of the atom-cavity coupling g,
and times in units of 1/g.  Exit codes: 0 success, 1 the run finished but
the regime report carries warnings, 2 invalid input or a regime violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .hilbert import QUBIT_CONFIGS, SCHEMES
from .lambda_gate import LambdaParams, validate_regime_lambda
from .metrics import DEFAULT_N_MAX, gate_run
from .propagator import DEFAULT_OUTPUTS
from .raman_gate import RamanParams, validate_regime_raman
from .regime import DEFAULT_THRESHOLD, LEVEL_PASS
from .shelving import (
    ShelvingParams,
    dark_time,
    fit_dark_time,
    survival_probability,
    validate_regime_shelving,
)

CSV_COLUMNS = (
    "scheme", "omega0_or_omega20", "kappa", "gamma", "delta",
    "omega_strong", "n_max", "T", "p0", "fidelity_conditional",
    "fidelity_unconditional",
)

COMMANDS = ("run", "scan", "validate", "converge")
_GATES = tuple(DEFAULT_N_MAX)
_SCHEMES_OF = dict(zip(COMMANDS, (SCHEMES, _GATES, SCHEMES, _GATES)))  # the schemes each command runs
_LAMBDA, _RAMAN, _SHELVING = ("lambda",), ("raman",), ("shelving",)
_INITIAL = "10"  # the control atom in 1, the target in 0
_GATE_RUNS = ("run", "scan", "converge")  # commands that run a gate
_WRITERS = ("run", "scan")  # commands that print result rows


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return "nan" if math.isnan(x) else repr(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _argtype(convert, accept, expected: str):
    """An argparse type: ``convert`` the text, and refuse it unless ``accept`` holds."""
    def parse(text: str):
        try:
            x = convert(text)
        except ValueError:
            x = None
        if x is None or not accept(x):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return x
    return parse


_positive = _argtype(float, lambda x: math.isfinite(x) and x > 0.0, "a positive finite number")
_count = _argtype(int, lambda n: n >= 1, "an integer >= 1")


class _Option(NamedTuple):
    """One row of ``_OPTIONS``: read by ``commands`` under ``schemes``, rejected elsewhere.

    A rate row fills ``field`` of the scheme's parameter dataclass, entry ``j`` of
    a triple if given; a run option has a ``default``.  Both are echoed in ``# params:``.
    """

    flag: str
    schemes: tuple
    commands: tuple
    help: str
    kwargs: dict = {}  # further argparse keywords
    field: str | None = None
    j: int | None = None
    default: object = None

    @property
    def dest(self) -> str:
        """The flag name with underscores: the name in ``# params:``."""
        return self.flag[2:].replace("-", "_")

    def used(self, command: str, scheme: str) -> bool:
        return command in self.commands and scheme in self.schemes


def _rate(flag: str, schemes: tuple, help: str, field: str | None = None, j: int | None = None):
    """A rate in units of g, read by every command that runs its schemes."""
    commands = tuple(c for c in COMMANDS if set(schemes) <= set(_SCHEMES_OF[c]))
    return _Option(flag, schemes, commands, help, {"type": float}, field or flag[2:].replace("-", "_"), j)


def _per_j(flag: str, field: str, what: str) -> tuple:
    return tuple(_rate(flag.format(j=j), _RAMAN, f"{what} of e_{j}, overriding the broadcast value",
                       field, j) for j in range(3))


_OPTIONS = (
    _Option("--scheme", SCHEMES, COMMANDS, "level scheme", {"choices": SCHEMES}),
    # rates: fields of LambdaParams, RamanParams and ShelvingParams
    _rate("--omega0", _LAMBDA, "laser Rabi frequency"),
    _rate("--omega20", _RAMAN, f"weak field on atom 2 (default {RamanParams.omega20:g})"),
    _rate("--omega21", _RAMAN, "weak field on atom 1 (default omega20)"),
    _rate("--kappa", _GATES, f"cavity decay (default {LambdaParams.kappa:g} for lambda, |g_eff| for raman)"),
    _rate("--delta", _RAMAN, f"detuning broadcast over j (default {RamanParams.delta[0]:g})"),
    *_per_j("--delta{j}", "delta", "detuning"),
    _rate("--omega-strong", _RAMAN,
          f"strong Rabi frequency broadcast over j (default {RamanParams.omega_diag[0]:g})", "omega_diag"),
    *_per_j("--omega{j}{j}", "omega_diag", "strong Rabi frequency"),
    _rate("--gamma", _GATES, f"atomic decay (default {LambdaParams.gamma:g}; broadcast over j for raman)"),
    *_per_j("--gamma{j}", "gamma", "atomic decay"),
    _rate("--omega-w", _SHELVING, "weak Rabi frequency"),
    _rate("--omega-s", _SHELVING, f"strong Rabi frequency (default {ShelvingParams.omega_s:g})"),
    _rate("--gamma-s", _SHELVING, f"upper-level decay (default {ShelvingParams.gamma_s:g})"),
    # run options
    _Option("--initial", _GATES, _GATE_RUNS, f"initial qubit configuration (default {_INITIAL})",
            {"choices": QUBIT_CONFIGS}, default=_INITIAL),
    _Option("--n-max", _GATES, _GATE_RUNS, "photon-number cutoff (default {lambda:g} for lambda, "
            "{raman:g} for raman)".format_map(DEFAULT_N_MAX), {"type": int}, default=DEFAULT_N_MAX),
    _Option("--relax-window", _LAMBDA, _GATE_RUNS, "append a laser-free window of 5/gamma before scoring",
            {"action": "store_true", "default": None}, default=False),
    _Option("--n-outputs", _SHELVING, ("run",), f"--samples-out holds N+1 samples over [0, tmax] "
            f"(default N={DEFAULT_OUTPUTS})", {"type": _count, "metavar": "N"}, default=DEFAULT_OUTPUTS),
    _Option("--threshold", SCHEMES, COMMANDS, f"regime ratio threshold (default {DEFAULT_THRESHOLD:g})",
            {"type": _positive}, default=DEFAULT_THRESHOLD),
    # outputs, the shelving horizon and the sweep
    _Option("--output", SCHEMES, _WRITERS, "write the result CSV to this path"),
    _Option("--tmax", _SHELVING, ("run",), "survival horizon (default 2 T_dark)", {"type": _positive}),
    _Option("--samples-out", _SHELVING, ("run",), "write t,p0 survival samples to this path"),
    _Option("--sweep", _GATES, ("scan",), "rate to sweep (omega-weak sets omega20 and omega21)"),
    _Option("--start", _GATES, ("scan",), "first sweep value", {"type": float}),
    _Option("--stop", _GATES, ("scan",), "last sweep value", {"type": float}),
    _Option("--count", _GATES, ("scan",), "number of sweep values", {"type": _count}),
    _Option("--spacing", _GATES, ("scan",), "spacing (default linear)", {"choices": ("linear", "log")}),
)

_PARAMS = {"lambda": LambdaParams, "raman": RamanParams, "shelving": ShelvingParams}


class _Parser(argparse.ArgumentParser):
    """argparse that reads each line of ``@FILE`` as one flag: ``key=value`` or a bare switch."""

    def convert_arg_line_to_args(self, arg_line: str) -> list:
        line = arg_line.strip()
        if not line or line.startswith("#"):
            return []
        key, eq, value = line.partition("=")
        return [f"--{key.strip()}{eq}{value.strip()}"]


def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser.

    Every command takes every option of the table, so that an option set
    where the run would not read it reaches ``_reject_unused``.  Flags match
    only when spelled in full, on the command line and in ``@FILE`` alike.
    """
    parser = _Parser(
        prog="cavgate",
        description="Conditional no-emission gate dynamics for atoms in a lossy cavity.",
        epilog="@FILE reads arguments from FILE: one key=value or bare switch per line, "
               "# for comments; later arguments override earlier ones.",
        allow_abbrev=False,
        fromfile_prefix_chars="@",
    )
    parser.add_argument("--version", action="version", version=f"cavgate {__version__}")
    parser.add_argument("command", choices=COMMANDS, help="; ".join(
        f"{command}: {text}" for command, text in zip(COMMANDS, (
            "single gate run (or shelving survival run)",
            "sweep one lambda or raman rate, one CSV row per point",
            "print the regime report and exit accordingly",
            "report n_max -> n_max+1 deltas"))))
    for row in _OPTIONS:
        where = (", ".join(row.schemes) if row.schemes != SCHEMES else "all schemes",
                 ", ".join(row.commands) if row.commands != COMMANDS else "all commands")
        parser.add_argument(row.flag, help=f"{row.help} [{'; '.join(where)}]", **row.kwargs)
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """Every option of ``_OPTIONS``: the value given, else the row's default
    (the scheme's entry where the default is per scheme; None if unset)."""
    values = {row.dest: row.default if getattr(args, row.dest) is None else getattr(args, row.dest)
              for row in _OPTIONS}
    scheme = values["scheme"]  # only a default is a dict, with one entry per scheme
    return {dest: v.get(scheme) if isinstance(v, dict) else v for dest, v in values.items()}


def _require(values: dict, dest: str):
    if values[dest] is None:
        flag = "--" + dest.replace("_", "-")
        raise ValueError(f"missing required parameter {flag!r} for this scheme/command")
    return values[dest]


def _swept(values: dict, scheme: str) -> tuple:
    """The dests a scan sets at each point: one broadcast rate, or omega-weak."""
    sweep = _require(values, "sweep")
    rates = {row.flag[2:]: (row.dest,) for row in _OPTIONS
             if row.field and row.j is None and scheme in row.schemes}
    if scheme == "raman":
        rates["omega-weak"] = ("omega20", "omega21")
    if sweep not in rates:
        raise ValueError(f"cannot sweep {sweep!r} in the {scheme} scheme; choose one of {tuple(rates)}")
    return rates[sweep]


def _reject_unused(args: argparse.Namespace, values: dict, scheme: str) -> None:
    """Raise ValueError naming every option set that this run would not read."""
    swept = _swept(values, scheme) if args.command == "scan" else ()
    stray = [
        f"{row.flag}{' (--sweep sets it)' if row.dest in swept else ''}"
        for row in _OPTIONS
        if getattr(args, row.dest) is not None and (not row.used(args.command, scheme) or row.dest in swept)
    ]
    if stray:
        raise ValueError(f"{args.command} --scheme {scheme} does not read " + ", ".join(stray))


def _build_params(scheme: str, values: dict):
    """The scheme's parameter dataclass from the resolved ``values``."""
    kw = {f.name: f.default for f in dataclasses.fields(_PARAMS[scheme])}
    for row in (r for r in _OPTIONS if r.field and scheme in r.schemes):
        value = values[row.dest]
        if value is not None and row.j is not None:  # one entry of the triple its broadcast row set
            kw[row.field] = kw[row.field][:row.j] + (value,) + kw[row.field][row.j + 1:]
        elif value is not None:
            kw[row.field] = (value,) * 3 if isinstance(kw.get(row.field), tuple) else value
        elif kw.get(row.field) is dataclasses.MISSING:
            raise ValueError(f"missing required parameter {row.flag!r} for the {scheme} scheme")
    return _PARAMS[scheme](**kw)


def _join_per_j(vals: tuple) -> str:
    if all(v == vals[0] for v in vals):
        return _fmt(vals[0])
    return ";".join(_fmt(v) for v in vals)


def _echo_line(command: str, scheme: str, params, values: dict, extra: dict) -> str:
    """The ``# params:`` line: every rate and run option the run reads."""
    pairs = [("scheme", scheme)]
    for row in _OPTIONS:
        if row.field and row.j is None and scheme in row.schemes:
            value = getattr(params, row.field)
            pairs.append((row.dest, ";".join(map(_fmt, value)) if isinstance(value, tuple) else value))
        elif row.default is not None and row.used(command, scheme):
            pairs.append((row.dest, values[row.dest]))
    pairs += extra.items()
    return "# params: " + " ".join(f"{k}={_fmt(v)}" for k, v in pairs)


def _gate_row(scheme: str, params, result, values: dict) -> list:
    if scheme == "lambda":
        weak, gamma, delta, strong = params.omega0, params.gamma, None, None
    else:
        weak = _join_per_j((params.omega20, params.omega21))
        gamma, delta, strong = (_join_per_j(v) for v in (params.gamma, params.delta, params.omega_diag))
    return [
        scheme, _fmt(weak), _fmt(params.kappa), _fmt(gamma), _fmt(delta), _fmt(strong),
        str(values["n_max"]), _fmt(result.gate_time),
        _fmt(result.p0), _fmt(result.fidelity), _fmt(result.fidelity_unconditional),
    ]


def _shelving_row(params: ShelvingParams, tmax: float, p0_final: float) -> list:
    return [
        "shelving", _fmt(params.omega_w), "", _fmt(params.gamma_s), "", _fmt(params.omega_s), "",
        _fmt(tmax), _fmt(p0_final), "", "",
    ]


def _emit_csv(lines: list, output: str | None, before: tuple = ()) -> None:
    """Write ``lines`` to ``output``, then print ``before`` and ``lines``.

    The file comes first, so that an unwritable path exits 2 with nothing on stdout.
    """
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    sys.stdout.write("".join(line + "\n" for line in before) + text)


def _validate(scheme: str, values: dict) -> tuple:
    """``(params, report)``: the scheme's parameters from ``values`` and their regime report."""
    params = _build_params(scheme, values)
    # read at each call, so that a module-level name replaced later (a tracer) is the one run
    validators = {"lambda": validate_regime_lambda, "raman": validate_regime_raman,
                  "shelving": validate_regime_shelving}
    return params, validators[scheme](params, values["threshold"])


def _gate(scheme: str, point: dict) -> tuple:
    """``(params, result, report)`` of one gate run at a resolved point."""
    params, report = _validate(scheme, point)
    initial = np.eye(4)[QUBIT_CONFIGS.index(point["initial"])]
    result = gate_run(scheme, params, initial, n_max=point["n_max"], relax_window=point["relax_window"])
    return params, result, report


def cmd_run(values: dict, scheme: str) -> int:
    """One gate or shelving run: its CSV on stdout, then its regime report on stderr."""
    if scheme != "shelving":
        params, result, report = _gate(scheme, values)
        _emit_csv([_echo_line("run", scheme, params, values, {}), ",".join(CSV_COLUMNS),
                   ",".join(_gate_row(scheme, params, result, values))], values["output"])
    else:
        params, report = _validate(scheme, values)
        td = dark_time(params)
        tmax = values["tmax"] or 2.0 * td
        ts, p0s = survival_probability(params, tmax, values["n_outputs"])
        row = _shelving_row(params, tmax, float(p0s[-1]))
        before = (_echo_line("run", scheme, params, values, {"tmax": tmax}),
                  f"dark_time_estimate={_fmt(td)}",
                  f"fitted_dark_time={_fmt(fit_dark_time(params))}",
                  f"p0_final={_fmt(float(p0s[-1]))}")
        if values["samples_out"]:
            samples = [f"{_fmt(float(t))},{_fmt(float(p))}\n" for t, p in zip(ts, p0s)]
            with open(values["samples_out"], "w", encoding="utf-8", newline="") as fh:
                fh.write("t,p0\n" + "".join(samples))
        _emit_csv([",".join(CSV_COLUMNS), ",".join(row)], values["output"], before)
    for line in report.lines():
        print(line, file=sys.stderr)
    return report.exit_code


def _sweep_values(values: dict, spacing: str) -> np.ndarray:
    start, stop, count = (_require(values, dest) for dest in ("start", "stop", "count"))
    if spacing == "log" and (start <= 0.0 or stop <= 0.0):
        raise ValueError("log spacing requires positive --start and --stop")
    if spacing == "log":
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def cmd_scan(values: dict, scheme: str) -> int:
    """One gate run per point: the CSV on stdout, then each point's failing checks on stderr."""
    swept = _swept(values, scheme)
    spacing = values["spacing"] or "linear"
    points = _sweep_values(values, spacing)
    outcomes = [_gate(scheme, {**values, **dict.fromkeys(swept, v)}) for v in points.tolist()]
    sweep_echo = {
        "sweep": values["sweep"], "start": points[0], "stop": points[-1],
        "count": len(points), "spacing": spacing,
    }
    lines = [
        _echo_line("scan", scheme, outcomes[0][0], values, sweep_echo),
        ",".join(CSV_COLUMNS),
    ]
    lines += [",".join(_gate_row(scheme, params, result, values))
              for params, result, _ in outcomes]
    _emit_csv(lines, values["output"])
    for v, (_, _, report) in zip(points.tolist(), outcomes):
        for check in report.checks:
            if check.level != LEVEL_PASS:
                print(f"{values['sweep']}={_fmt(v)}: {check.line()}", file=sys.stderr)
    return max(report.exit_code for _, _, report in outcomes)


def cmd_validate(values: dict, scheme: str) -> int:
    _, report = _validate(scheme, values)
    for line in report.lines():
        print(line)
    return report.exit_code


def cmd_converge(values: dict, scheme: str) -> int:
    """The p0 and fidelity of a gate run at n_max and n_max + 1, and their distance."""
    n = values["n_max"]
    (_, base, report), (_, finer_n, _) = (_gate(scheme, point)
                                          for point in (values, {**values, "n_max": n + 1}))
    rows = [
        (f"p0 n_max {n} -> {n + 1}", base.p0, finer_n.p0),
        (f"fidelity n_max {n} -> {n + 1}", base.fidelity, finer_n.fidelity),
    ]
    print(f"{'quantity':<38} {'base':<24} {'refined':<24} |delta|")
    for name, a, b in rows:
        print(f"{name:<38} {_fmt(float(a)):<24} {_fmt(float(b)):<24} {abs(b - a):.3e}")
    for line in report.lines():
        print(line, file=sys.stderr)
    return report.exit_code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        values = _resolve(args)
        scheme = _require(values, "scheme")
        if scheme not in _SCHEMES_OF[args.command]:
            supported = " and ".join(_SCHEMES_OF[args.command])
            raise ValueError(f"{args.command} supports the {supported} schemes; use run for {scheme}")
        _reject_unused(args, values, scheme)
        handler = dict(zip(COMMANDS, (cmd_run, cmd_scan, cmd_validate, cmd_converge)))
        return handler[args.command](values, scheme)
    except (ValueError, TypeError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
