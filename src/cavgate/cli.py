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
# CLI defaults that differ from the dataclass defaults, from the fields resolved before them
_CLI_DEFAULTS = {
    "raman": {"omega21": lambda kw: kw["omega20"],
              "kappa": lambda kw: abs(kw["omega_diag"][2] / (2.0 * kw["delta"][2]))},  # |g_eff| at g = 1
    "shelving": {"omega_s": lambda kw: 1.0, "gamma_s": lambda kw: 1.0},
}


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
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    for row in _OPTIONS:
        where = (", ".join(row.schemes) if row.schemes != SCHEMES else "all schemes",
                 ", ".join(row.commands) if row.commands != COMMANDS else "all commands")
        common.add_argument(row.flag, help=f"{row.help} [{'; '.join(where)}]", **row.kwargs)
    for command, text in zip(COMMANDS, ("single gate run (or shelving survival run)",
                                        "sweep one lambda or raman rate, one CSV row per point",
                                        "print the regime report and exit accordingly",
                                        "report n_max -> n_max+1 deltas")):
        sub.add_parser(command, parents=[common], help=text)
    config_keys = {
        opt[2:]: action
        for action in common._actions
        for opt in action.option_strings
        if opt != "--config"
    }
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


class _Settings:
    """Merged view of command-line flags, config-file values and defaults."""

    def __init__(self, args: argparse.Namespace, config_keys: dict):
        self._cli = vars(args)
        self._file = _load_config_file(args.config, config_keys) if args.config else {}

    def get(self, dest: str, default=None):
        v = self._cli.get(dest)
        if v is None:
            v = self._file.get(dest)
        return default if v is None else v

    def require(self, dest: str, flag: str):
        v = self.get(dest)
        if v is None:
            raise ValueError(f"missing required parameter {flag!r} for this scheme/command")
        return v

    def source(self, dest: str) -> str:
        """Where a value was set: 'flag', 'config file', both, or '' if unset."""
        return " and ".join(name for name, values in (("flag", self._cli), ("config file", self._file))
                            if values.get(dest) is not None)


def _swept(s: _Settings, scheme: str) -> tuple:
    """The dests a scan sets at each point: one broadcast rate, or omega-weak."""
    if scheme == "shelving":
        raise ValueError("scan supports the lambda and raman schemes; use run for shelving")
    sweep = s.require("sweep", "--sweep")
    rates = {row.flag[2:]: (row.dest,) for row in _OPTIONS
             if row.field and row.j is None and scheme in row.schemes}
    if scheme == "raman":
        rates["omega-weak"] = ("omega20", "omega21")
    if sweep not in rates:
        raise ValueError(f"cannot sweep {sweep!r} in the {scheme} scheme; choose one of {tuple(rates)}")
    return rates[sweep]


def _reject_unused(s: _Settings, command: str, scheme: str) -> None:
    """Raise ValueError naming every option set that this run would not read."""
    swept = _swept(s, scheme) if command == "scan" else ()
    stray = [
        f"{row.flag} ({s.source(row.dest)}{'; --sweep sets it' if row.dest in swept else ''})"
        for row in _OPTIONS
        if s.source(row.dest) and (not row.used(command, scheme) or row.dest in swept)
    ]
    if stray:
        raise ValueError(f"{command} --scheme {scheme} does not read " + ", ".join(stray))


def _resolve_run_options(s: _Settings, scheme: str) -> dict:
    """Every run option (a row with a default): flag, else file, else default."""
    return {
        row.dest: s.get(row.dest, row.default.get(scheme) if isinstance(row.default, dict) else row.default)
        for row in _OPTIONS if row.default is not None
    }


def _build_params(scheme: str, get):
    """The scheme's parameter dataclass from ``get(dest)``, None where unset."""
    cls, cli_defaults = _PARAMS[scheme], _CLI_DEFAULTS.get(scheme, {})
    kw = {f.name: f.default for f in dataclasses.fields(cls) if f.name not in cli_defaults}
    for row in (r for r in _OPTIONS if r.field and scheme in r.schemes):
        value = get(row.dest)
        if value is not None and row.j is not None:  # one entry of the triple its broadcast row set
            kw[row.field] = kw[row.field][:row.j] + (value,) + kw[row.field][row.j + 1:]
        elif value is not None:
            kw[row.field] = (value,) * 3 if isinstance(kw.get(row.field), tuple) else value
        elif kw.get(row.field) is dataclasses.MISSING:
            raise ValueError(f"missing required parameter {row.flag!r} for the {scheme} scheme")
    for field, default in cli_defaults.items():
        if field not in kw:
            kw[field] = default(kw)
    return cls(**kw)


def _join_per_j(vals: tuple, gs: float) -> str:
    scaled = [v * gs for v in vals]
    if all(v == scaled[0] for v in scaled):
        return _fmt(scaled[0])
    return ";".join(_fmt(v) for v in scaled)


def _echo_line(command: str, scheme: str, params, opts: dict, extra: dict) -> str:
    """The ``# params:`` line: every rate and run option the run reads."""
    pairs = [("scheme", scheme)]
    for row in _OPTIONS:
        if row.field and row.j is None and scheme in row.schemes:
            value = getattr(params, row.field)
            pairs.append((row.dest, ";".join(map(_fmt, value)) if isinstance(value, tuple) else value))
        elif row.default is not None and row.used(command, scheme):
            pairs.append((row.dest, opts[row.dest]))
    pairs += extra.items()
    return "# params: " + " ".join(f"{k}={_fmt(v)}" for k, v in pairs)


def _initial_vector(label: str) -> np.ndarray:
    v = np.zeros(4, dtype=np.complex128)
    v[QUBIT_CONFIGS.index(label)] = 1.0
    return v


def _gate_row(scheme: str, params, result, opts: dict) -> list:
    gs = opts["g"]
    if scheme == "lambda":
        weak, gamma, delta, strong = params.omega0 * gs, params.gamma * gs, None, None
    else:
        weak = _join_per_j((params.omega20, params.omega21), gs)
        gamma, delta, strong = (_join_per_j(v, gs)
                                for v in (params.gamma, params.delta, params.omega_diag))
    return [
        scheme, _fmt(weak), _fmt(params.kappa * gs), _fmt(gamma), _fmt(gs), _fmt(delta), _fmt(strong),
        str(opts["n_max"]), _fmt(result.gate_time / gs), _fmt(result.p0),
        _fmt(result.fidelity), _fmt(result.fidelity_unconditional),
    ]


def _shelving_row(params: ShelvingParams, tmax: float, p0_final: float, opts: dict) -> list:
    gs = opts["g"]
    return [
        "shelving", _fmt(params.omega_w * gs), "", _fmt(params.gamma_s * gs),
        _fmt(gs), "", _fmt(params.omega_s * gs), "", _fmt(tmax / gs),
        _fmt(p0_final), "", "",
    ]


def _emit_csv(lines: list, output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _run_one_gate(scheme: str, params, opts: dict):
    return gate_run(
        scheme, params, _initial_vector(opts["initial"]),
        n_max=opts["n_max"], relax_window=opts["relax_window"],
    )


def _validate(scheme: str, params, threshold: float):
    if scheme == "lambda":
        return validate_regime_lambda(params, threshold)
    if scheme == "raman":
        return validate_regime_raman(params, threshold)
    return validate_regime_shelving(params, threshold)


def cmd_run(s: _Settings, scheme: str, opts: dict) -> int:
    params = _build_params(scheme, s.get)
    report = _validate(scheme, params, opts["threshold"])

    if scheme == "shelving":
        td = dark_time(params)
        tmax = s.get("tmax", 2.0 * td)
        ts = np.linspace(0.0, tmax, opts["n_outputs"] + 1)
        p0s = survival_probability(params, ts)
        fitted = fit_dark_time(params)
        gs = opts["g"]
        print(_echo_line("run", scheme, params, opts, {"tmax": tmax}))
        print(f"dark_time_estimate={_fmt(td / gs)}")
        print(f"fitted_dark_time={_fmt(fitted / gs)}")
        print(f"p0_final={_fmt(float(p0s[-1]))}")
        samples_out = s.get("samples_out")
        if samples_out:
            with open(samples_out, "w", encoding="utf-8", newline="") as fh:
                fh.write("t,p0\n")
                for t, p in zip(ts, p0s):
                    fh.write(f"{_fmt(t / gs)},{_fmt(float(p))}\n")
        _emit_csv([",".join(CSV_COLUMNS),
                   ",".join(_shelving_row(params, tmax, float(p0s[-1]), opts))],
                  s.get("output"))
        return report.exit_code

    result = _run_one_gate(scheme, params, opts)
    lines = [
        _echo_line("run", scheme, params, opts, {}),
        ",".join(CSV_COLUMNS),
        ",".join(_gate_row(scheme, params, result, opts)),
    ]
    _emit_csv(lines, s.get("output"))
    for line in report.lines():
        print(line, file=sys.stderr)
    return report.exit_code


def _sweep_values(s: _Settings) -> np.ndarray:
    start = float(s.require("start", "--start"))
    stop = float(s.require("stop", "--stop"))
    count = int(s.require("count", "--count"))
    spacing = s.get("spacing", "linear")
    if count == 1:
        return np.array([start])
    if spacing == "log":
        if start <= 0.0 or stop <= 0.0:
            raise ValueError("log spacing requires positive --start and --stop")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def cmd_scan(s: _Settings, scheme: str, opts: dict) -> int:
    swept = _swept(s, scheme)
    points = _sweep_values(s)

    def run_point(value: float):
        params = _build_params(scheme, lambda dest: value if dest in swept else s.get(dest))
        report = _validate(scheme, params, opts["threshold"])
        result = _run_one_gate(scheme, params, opts)
        return params, result, report

    outcomes = [run_point(float(v)) for v in points]

    sweep_echo = {
        "sweep": s.get("sweep"), "start": points[0], "stop": points[-1],
        "count": len(points), "spacing": s.get("spacing", "linear"),
    }
    lines = [
        _echo_line("scan", scheme, outcomes[0][0], opts, sweep_echo),
        ",".join(CSV_COLUMNS),
    ]
    lines += [",".join(_gate_row(scheme, params, result, opts))
              for params, result, _ in outcomes]
    _emit_csv(lines, s.get("output"))
    return max(report.exit_code for _, _, report in outcomes)


def cmd_validate(s: _Settings, scheme: str, opts: dict) -> int:
    params = _build_params(scheme, s.get)
    report = _validate(scheme, params, opts["threshold"])
    for line in report.lines():
        print(line)
    return report.exit_code


def cmd_converge(s: _Settings, scheme: str, opts: dict) -> int:
    params = _build_params(scheme, s.get)
    report = _validate(scheme, params, opts["threshold"])

    if scheme == "shelving":
        # the shelving model has no photon cutoff, so only the fit refines
        rows = [
            ("fitted_dark_time fit_points -> 2x", fit_dark_time(params),
             fit_dark_time(params, n_points=400)),
        ]
    else:
        base = _run_one_gate(scheme, params, opts)
        finer_n = _run_one_gate(scheme, params, {**opts, "n_max": opts["n_max"] + 1})
        rows = [
            (f"p0 n_max {opts['n_max']} -> {opts['n_max'] + 1}", base.p0, finer_n.p0),
            (f"fidelity n_max {opts['n_max']} -> {opts['n_max'] + 1}", base.fidelity, finer_n.fidelity),
        ]

    print(f"{'quantity':<38} {'base':<24} {'refined':<24} |delta|")
    for name, a, b in rows:
        print(f"{name:<38} {_fmt(float(a)):<24} {_fmt(float(b)):<24} {abs(b - a):.3e}")
    return report.exit_code


def main(argv=None) -> int:
    parser, config_keys = _build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _Settings(args, config_keys)
        scheme = settings.require("scheme", "--scheme")
        _reject_unused(settings, args.command, scheme)
        handler = dict(zip(COMMANDS, (cmd_run, cmd_scan, cmd_validate, cmd_converge)))
        return handler[args.command](settings, scheme, _resolve_run_options(settings, scheme))
    except (ValueError, TypeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
