"""Command-line front end: single runs, parameter scans, regime validation
and convergence studies, with deterministic CSV output.

All rates are entered in units of the atom-cavity coupling g.  The ``--g``
flag only relabels the output units (rates are multiplied, times divided);
it never changes the physics.  Exit codes: 0 success, 1 the run finished
but the regime report carries warnings, 2 invalid input or a regime
violation.
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
from .regime import DEFAULT_THRESHOLD
from .shelving import (
    ShelvingParams,
    dark_time,
    fit_dark_time,
    survival_probability,
    validate_regime_shelving,
)

CSV_COLUMNS = (
    "scheme", "omega0_or_omega20", "kappa", "gamma", "g", "delta",
    "omega_strong", "n_max", "T", "p0", "fidelity_conditional",
    "fidelity_unconditional",
)

COMMANDS = ("run", "scan", "validate", "converge")
_GATES = ("lambda", "raman")
_LAMBDA, _RAMAN, _SHELVING = ("lambda",), ("raman",), ("shelving",)
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


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _positive(text: str) -> float:
    """argparse type of a unit scale, threshold or horizon."""
    x = float(text)
    if not (math.isfinite(x) and x > 0.0):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return x


def _count(text: str) -> int:
    """argparse type of a number of samples or scan points."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return n


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
        """The config-file key with underscores: the name in ``# params:``."""
        return self.flag[2:].replace("-", "_")

    def used(self, command: str, scheme: str) -> bool:
        return command in self.commands and scheme in self.schemes


def _rate(flag: str, schemes: tuple, help: str, field: str | None = None, j: int | None = None):
    """A rate in units of g, read by every command of its schemes."""
    return _Option(flag, schemes, COMMANDS, help, {"type": float}, field or flag[2:].replace("-", "_"), j)


def _per_j(flag: str, field: str, what: str) -> tuple:
    return tuple(_rate(flag.format(j=j), _RAMAN, f"{what} of e_{j}, overriding the broadcast value",
                       field, j) for j in range(3))


_OPTIONS = (
    _Option("--config", SCHEMES, COMMANDS, "flat key=value file; command-line flags override it"),
    _Option("--scheme", SCHEMES, COMMANDS, "level scheme", {"choices": SCHEMES}),
    # rates: fields of LambdaParams, RamanParams and ShelvingParams
    _rate("--omega0", _LAMBDA, "laser Rabi frequency"),
    _rate("--omega20", _RAMAN, "weak field on atom 2 (default 0.05)"),
    _rate("--omega21", _RAMAN, "weak field on atom 1 (default omega20)"),
    _rate("--kappa", _GATES, "cavity decay (default 1 for lambda, |g_eff| for raman)"),
    _rate("--delta", _RAMAN, "detuning broadcast over j (default 1000)"),
    *_per_j("--delta{j}", "delta", "detuning"),
    _rate("--omega-strong", _RAMAN, "strong Rabi frequency broadcast over j (default 2)", "omega_diag"),
    *_per_j("--omega{j}{j}", "omega_diag", "strong Rabi frequency"),
    _rate("--gamma", _GATES, "atomic decay (default 0; broadcast over j for raman)"),
    *_per_j("--gamma{j}", "gamma", "atomic decay"),
    _rate("--omega-w", _SHELVING, "weak Rabi frequency"),
    _rate("--omega-s", _SHELVING, "strong Rabi frequency (default 1)"),
    _rate("--gamma-s", _SHELVING, "upper-level decay (default 1)"),
    # run options
    _Option("--initial", _GATES, _GATE_RUNS, "initial qubit configuration (default 10)",
            {"choices": QUBIT_CONFIGS}, default="10"),
    _Option("--n-max", _GATES, _GATE_RUNS, "photon-number cutoff (default 3 for lambda, 2 for raman)",
            {"type": int}, default=DEFAULT_N_MAX),
    _Option("--relax-window", _LAMBDA, _GATE_RUNS, "append a laser-free window of 5/gamma before scoring",
            {"action": "store_true", "default": None}, default=False),
    _Option("--n-outputs", _SHELVING, ("run",), f"--samples-out holds N+1 samples over [0, tmax] "
            f"(default N={DEFAULT_OUTPUTS})", {"type": _count, "metavar": "N"}, default=DEFAULT_OUTPUTS),
    _Option("--threshold", SCHEMES, COMMANDS, f"regime ratio threshold (default {DEFAULT_THRESHOLD:g})",
            {"type": _positive}, default=DEFAULT_THRESHOLD),
    _Option("--g", SCHEMES, _WRITERS, "unit scale for output columns only (default 1)",
            {"type": _positive}, default=1.0),
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


def _build_parser() -> tuple:
    """The command-line parser, and the keys a --config file may set.

    Every command takes every option of the table, so that an option set
    where the run would not read it reaches ``_reject_unused`` from a flag
    or from a file alike.  A config key is a long option without its
    dashes, mapped to the option's action.
    """
    parser = argparse.ArgumentParser(
        prog="cavgate",
        description="Conditional no-emission gate dynamics for atoms in a lossy cavity.",
    )
    parser.add_argument("--version", action="version", version=f"cavgate {__version__}")
    parser.add_argument("command", choices=COMMANDS, help="; ".join(
        f"{command}: {text}" for command, text in zip(COMMANDS, (
            "single gate run (or shelving survival run)",
            "sweep one lambda or raman rate, one CSV row per point",
            "print the regime report and exit accordingly",
            "report n_max -> n_max+1 deltas"))))
    config_keys = {}
    for row in _OPTIONS:
        where = (", ".join(row.schemes) if row.schemes != SCHEMES else "all schemes",
                 ", ".join(row.commands) if row.commands != COMMANDS else "all commands")
        config_keys[row.flag[2:]] = parser.add_argument(
            row.flag, help=f"{row.help} [{'; '.join(where)}]", **row.kwargs)
    del config_keys["config"]
    return parser, config_keys


def _config_value(action: argparse.Action, text: str):
    """Convert and check a config-file value as the parser would the flag's."""
    if action.nargs == 0:  # store_true
        return _parse_bool(text)
    value = action.type(text) if action.type else text
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(repr(c) for c in action.choices)
        raise ValueError(f"invalid choice {value!r} (choose from {choices})")
    return value


def _load_config_file(path: str, config_keys: dict) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            action = config_keys.get(key)
            if action is None:
                raise ValueError(f"{path}:{lineno}: unknown configuration key {key!r}")
            try:
                values[action.dest] = _config_value(action, val.strip())
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace, config_keys: dict) -> tuple:
    """Every option of ``_OPTIONS``, resolved once: ``(values, sources)``.

    A flag overrides the config file, and the file overrides the row's default
    (the scheme's entry where the default is per scheme; None if unset).
    ``sources[dest]`` says where each option that was set came from: "flag",
    "config file", or both.
    """
    layers = (("flag", vars(args)),
              ("config file", _load_config_file(args.config, config_keys) if args.config else {}))
    values, sources = {}, {}
    for row in _OPTIONS:
        given = [(name, layer[row.dest]) for name, layer in layers if layer.get(row.dest) is not None]
        if given:
            sources[row.dest] = " and ".join(name for name, _ in given)
        values[row.dest] = given[0][1] if given else row.default
    scheme = values["scheme"]  # only a default is a dict, with one entry per scheme
    return {dest: v.get(scheme) if isinstance(v, dict) else v for dest, v in values.items()}, sources


def _require(values: dict, dest: str):
    if values[dest] is None:
        flag = "--" + dest.replace("_", "-")
        raise ValueError(f"missing required parameter {flag!r} for this scheme/command")
    return values[dest]


def _swept(values: dict, scheme: str) -> tuple:
    """The dests a scan sets at each point: one broadcast rate, or omega-weak."""
    if scheme == "shelving":
        raise ValueError("scan supports the lambda and raman schemes; use run for shelving")
    sweep = _require(values, "sweep")
    rates = {row.flag[2:]: (row.dest,) for row in _OPTIONS
             if row.field and row.j is None and scheme in row.schemes}
    if scheme == "raman":
        rates["omega-weak"] = ("omega20", "omega21")
    if sweep not in rates:
        raise ValueError(f"cannot sweep {sweep!r} in the {scheme} scheme; choose one of {tuple(rates)}")
    return rates[sweep]


def _reject_unused(values: dict, sources: dict, command: str, scheme: str) -> None:
    """Raise ValueError naming every option set that this run would not read."""
    swept = _swept(values, scheme) if command == "scan" else ()
    stray = [
        f"{row.flag} ({sources[row.dest]}{'; --sweep sets it' if row.dest in swept else ''})"
        for row in _OPTIONS
        if row.dest in sources and (not row.used(command, scheme) or row.dest in swept)
    ]
    if stray:
        raise ValueError(f"{command} --scheme {scheme} does not read " + ", ".join(stray))


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


def _join_per_j(vals: tuple, gs: float) -> str:
    scaled = [v * gs for v in vals]
    if all(v == scaled[0] for v in scaled):
        return _fmt(scaled[0])
    return ";".join(_fmt(v) for v in scaled)


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
    gs = values["g"]
    if scheme == "lambda":
        weak, gamma, delta, strong = params.omega0 * gs, params.gamma * gs, None, None
    else:
        weak = _join_per_j((params.omega20, params.omega21), gs)
        gamma, delta, strong = (_join_per_j(v, gs)
                                for v in (params.gamma, params.delta, params.omega_diag))
    return [
        scheme, _fmt(weak), _fmt(params.kappa * gs), _fmt(gamma), _fmt(gs), _fmt(delta), _fmt(strong),
        str(values["n_max"]), _fmt(result.gate_time / gs), _fmt(result.p0),
        _fmt(result.fidelity), _fmt(result.fidelity_unconditional),
    ]


def _shelving_row(params: ShelvingParams, tmax: float, p0_final: float, values: dict) -> list:
    gs = values["g"]
    return [
        "shelving", _fmt(params.omega_w * gs), "", _fmt(params.gamma_s * gs),
        _fmt(gs), "", _fmt(params.omega_s * gs), "", _fmt(tmax / gs),
        _fmt(p0_final), "", "",
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


def _validate(scheme: str, params, threshold: float):
    if scheme == "lambda":
        return validate_regime_lambda(params, threshold)
    if scheme == "raman":
        return validate_regime_raman(params, threshold)
    return validate_regime_shelving(params, threshold)


def _gate(scheme: str, point: dict) -> tuple:
    """``(params, result, report)`` of one gate run at a resolved point."""
    params = _build_params(scheme, point)
    report = _validate(scheme, params, point["threshold"])
    initial = np.zeros(4, dtype=np.complex128)
    initial[QUBIT_CONFIGS.index(point["initial"])] = 1.0
    result = gate_run(scheme, params, initial, n_max=point["n_max"], relax_window=point["relax_window"])
    return params, result, report


def cmd_run(values: dict, scheme: str) -> int:
    """One gate or shelving run: its CSV on stdout, then its regime report on stderr."""
    if scheme != "shelving":
        params, result, report = _gate(scheme, values)
        _emit_csv([_echo_line("run", scheme, params, values, {}), ",".join(CSV_COLUMNS),
                   ",".join(_gate_row(scheme, params, result, values))], values["output"])
    else:
        params = _build_params(scheme, values)
        report = _validate(scheme, params, values["threshold"])
        td = dark_time(params)
        tmax = values["tmax"] or 2.0 * td
        ts = np.linspace(0.0, tmax, values["n_outputs"] + 1)
        p0s = survival_probability(params, ts)
        fitted = fit_dark_time(params)
        gs = values["g"]
        if values["samples_out"]:
            with open(values["samples_out"], "w", encoding="utf-8", newline="") as fh:
                fh.write("t,p0\n")
                for t, p in zip(ts, p0s):
                    fh.write(f"{_fmt(t / gs)},{_fmt(float(p))}\n")
        row = _shelving_row(params, tmax, float(p0s[-1]), values)
        _emit_csv([",".join(CSV_COLUMNS), ",".join(row)], values["output"],
                  (_echo_line("run", scheme, params, values, {"tmax": tmax}),
                   f"dark_time_estimate={_fmt(td / gs)}",
                   f"fitted_dark_time={_fmt(fitted / gs)}",
                   f"p0_final={_fmt(float(p0s[-1]))}"))
    for line in report.lines():
        print(line, file=sys.stderr)
    return report.exit_code


def _sweep_values(values: dict, spacing: str) -> np.ndarray:
    start, stop, count = (_require(values, dest) for dest in ("start", "stop", "count"))
    if count == 1:
        return np.array([start])
    if spacing == "log":
        if start <= 0.0 or stop <= 0.0:
            raise ValueError("log spacing requires positive --start and --stop")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def cmd_scan(values: dict, scheme: str) -> int:
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
    return max(report.exit_code for _, _, report in outcomes)


def cmd_validate(values: dict, scheme: str) -> int:
    report = _validate(scheme, _build_params(scheme, values), values["threshold"])
    for line in report.lines():
        print(line)
    return report.exit_code


def cmd_converge(values: dict, scheme: str) -> int:
    if scheme == "shelving":
        # the shelving model has no photon cutoff, so only the fit refines
        params = _build_params(scheme, values)
        report = _validate(scheme, params, values["threshold"])
        rows = [
            ("fitted_dark_time fit_points -> 2x", fit_dark_time(params),
             fit_dark_time(params, n_points=400)),
        ]
    else:
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
    return report.exit_code


def main(argv=None) -> int:
    parser, config_keys = _build_parser()
    args = parser.parse_args(argv)
    try:
        values, sources = _resolve(args, config_keys)
        scheme = _require(values, "scheme")
        _reject_unused(values, sources, args.command, scheme)
        handler = dict(zip(COMMANDS, (cmd_run, cmd_scan, cmd_validate, cmd_converge)))
        return handler[args.command](values, scheme)
    except (ValueError, TypeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
