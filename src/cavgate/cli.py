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
import math
import sys

import numpy as np

from . import __version__
from .hilbert import QUBIT_CONFIGS
from .lambda_gate import LambdaParams, validate_regime_lambda
from .metrics import DEFAULT_N_MAX, gate_run
from .propagator import DEFAULT_EPS, DEFAULT_OUTPUTS
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

_SWEEPABLE = {
    "lambda": ("omega0", "kappa", "gamma"),
    "raman": ("omega20", "omega21", "omega-weak", "kappa", "gamma", "delta", "omega-strong"),
}


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


def _build_parser() -> tuple:
    """The command-line parser, and the keys a --config file may set.

    A config key is a long option without its dashes, mapped to the option's
    action.  The scan parser holds every option of the other commands, so
    its actions give all keys.
    """
    parser = argparse.ArgumentParser(
        prog="cavgate",
        description="Conditional no-emission gate dynamics for atoms in a lossy cavity.",
    )
    parser.add_argument("--version", action="version", version=f"cavgate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value file; command-line flags override it")
    common.add_argument("--scheme", choices=("lambda", "raman", "shelving"))
    common.add_argument("--g", dest="g_scale", type=float,
                        help="unit scale for output columns only (default 1)")
    common.add_argument("--n-max", type=int, help="photon-number cutoff")
    common.add_argument("--eps", type=float, help=f"propagator accuracy target (default {DEFAULT_EPS:g})")
    common.add_argument("--n-outputs", type=int, metavar="N",
                        help=f"shelving: --samples-out holds N+1 survival samples evenly spaced over "
                             f"[0, tmax] (default N={DEFAULT_OUTPUTS}); lambda and raman: only fixes "
                             "the time grid and never changes a result")
    common.add_argument("--threshold", type=float,
                        help=f"regime ratio threshold (default {DEFAULT_THRESHOLD:g})")
    common.add_argument("--initial", choices=QUBIT_CONFIGS, help="initial qubit configuration (default 10)")
    common.add_argument("--output", help="write the result CSV to this path")
    # three-level scheme
    common.add_argument("--omega0", type=float, help="lambda: laser Rabi frequency")
    common.add_argument("--kappa", type=float,
                        help="cavity decay (default 1 for lambda, |g_eff| for raman)")
    common.add_argument("--gamma", type=float, help="atomic decay (broadcast over e_j for raman)")
    common.add_argument("--relax-window", action="store_true", default=None,
                        help="lambda: append a laser-free window of 5/gamma before scoring")
    # six-level scheme
    common.add_argument("--delta", type=float, help="raman: detuning broadcast over j (default 1000)")
    common.add_argument("--delta0", type=float)
    common.add_argument("--delta1", type=float)
    common.add_argument("--delta2", type=float)
    common.add_argument("--omega-strong", type=float,
                        help="raman: strong Rabi frequency broadcast over j (default 2)")
    common.add_argument("--omega00", type=float)
    common.add_argument("--omega11", type=float)
    common.add_argument("--omega22", type=float)
    common.add_argument("--omega20", type=float, help="raman: weak field on atom 2 (default 0.05)")
    common.add_argument("--omega21", type=float, help="raman: weak field on atom 1 (default omega20)")
    common.add_argument("--gamma0", type=float)
    common.add_argument("--gamma1", type=float)
    common.add_argument("--gamma2", type=float)
    # shelving
    common.add_argument("--omega-w", type=float, help="shelving: weak Rabi frequency")
    common.add_argument("--omega-s", type=float, help="shelving: strong Rabi frequency (default 1)")
    common.add_argument("--gamma-s", type=float, help="shelving: upper-level decay (default 1)")
    common.add_argument("--tmax", type=float, help="shelving: survival horizon (default 2 T_dark)")
    common.add_argument("--samples-out", help="shelving: write t,p0 survival samples to this path")

    sub.add_parser("run", parents=[common], help="single gate run (or shelving survival run)")

    scan = sub.add_parser("scan", parents=[common], help="sweep one parameter, one CSV row per point")
    scan.add_argument("--sweep", help="parameter to sweep (omega-weak sets omega20 and omega21)")
    scan.add_argument("--start", type=float)
    scan.add_argument("--stop", type=float)
    scan.add_argument("--count", type=int)
    scan.add_argument("--spacing", choices=("linear", "log"))

    sub.add_parser("validate", parents=[common], help="print the regime report and exit accordingly")
    sub.add_parser("converge", parents=[common], help="report n_max -> n_max+1 deltas")
    config_keys = {
        opt[2:]: action
        for action in scan._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt not in ("--help", "--config")
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
            except ValueError as exc:
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


def _resolve_run_options(s: _Settings, scheme: str) -> dict:
    return {
        "n_max": int(s.get("n_max", DEFAULT_N_MAX.get(scheme, 0))),
        "eps": float(s.get("eps", DEFAULT_EPS)),
        "n_outputs": int(s.get("n_outputs", DEFAULT_OUTPUTS)),
        "threshold": float(s.get("threshold", DEFAULT_THRESHOLD)),
        "initial": str(s.get("initial", "10")),
        "g_scale": float(s.get("g_scale", 1.0)),
        "relax_window": bool(s.get("relax_window", False)),
    }


def _lambda_params(values: dict) -> LambdaParams:
    if values.get("omega0") is None:
        raise ValueError("missing required parameter '--omega0' for the lambda scheme")
    return LambdaParams(
        omega0=float(values["omega0"]),
        kappa=float(values.get("kappa") if values.get("kappa") is not None else 1.0),
        gamma=float(values.get("gamma") if values.get("gamma") is not None else 0.0),
    )


def _raman_params(values: dict) -> RamanParams:
    def per_j(base: str, default: float) -> tuple:
        broad = values.get(base)
        broad = default if broad is None else float(broad)
        keys = {
            "delta": ("delta0", "delta1", "delta2"),
            "omega_strong": ("omega00", "omega11", "omega22"),
            "gamma": ("gamma0", "gamma1", "gamma2"),
        }[base]
        return tuple(
            float(values[k]) if values.get(k) is not None else broad for k in keys
        )

    delta = per_j("delta", 1000.0)
    om_diag = per_j("omega_strong", 2.0)
    gam = per_j("gamma", 0.0)
    omega20 = float(values.get("omega20") if values.get("omega20") is not None else 0.05)
    omega21 = float(values.get("omega21") if values.get("omega21") is not None else omega20)
    kappa = values.get("kappa")
    if kappa is None:
        kappa = abs(-1.0 * om_diag[2] / (2.0 * delta[2]))  # |g_eff| at g = 1
    return RamanParams(
        g=1.0, kappa=float(kappa), delta=delta, omega_diag=om_diag,
        omega20=omega20, omega21=omega21, gamma=gam,
    )


def _shelving_params(values: dict) -> ShelvingParams:
    if values.get("omega_w") is None:
        raise ValueError("missing required parameter '--omega-w' for the shelving scheme")
    return ShelvingParams(
        omega_w=float(values["omega_w"]),
        omega_s=float(values.get("omega_s") if values.get("omega_s") is not None else 1.0),
        gamma_s=float(values.get("gamma_s") if values.get("gamma_s") is not None else 1.0),
    )


def _param_values(s: _Settings) -> dict:
    """Raw (pre-defaulting) physical parameter values from flags and file."""
    keys = (
        "omega0", "kappa", "gamma", "delta", "delta0", "delta1", "delta2",
        "omega_strong", "omega00", "omega11", "omega22", "omega20", "omega21",
        "gamma0", "gamma1", "gamma2", "omega_w", "omega_s", "gamma_s", "tmax",
    )
    return {k: s.get(k) for k in keys}


def _join_per_j(vals: tuple, gs: float) -> str:
    scaled = [v * gs for v in vals]
    if all(v == scaled[0] for v in scaled):
        return _fmt(scaled[0])
    return ";".join(_fmt(v) for v in scaled)


def _echo_pairs(scheme: str, params, opts: dict, extra: dict | None = None) -> list:
    pairs = [("scheme", scheme)]
    if scheme == "lambda":
        pairs += [("omega0", params.omega0), ("kappa", params.kappa),
                  ("gamma", params.gamma)]
    elif scheme == "raman":
        pairs += [
            ("omega20", params.omega20), ("omega21", params.omega21),
            ("kappa", params.kappa),
            ("delta", ";".join(_fmt(d) for d in params.delta)),
            ("omega_strong", ";".join(_fmt(v) for v in params.omega_diag)),
            ("gamma", ";".join(_fmt(v) for v in params.gamma)),
        ]
    else:
        pairs += [("omega_w", params.omega_w), ("omega_s", params.omega_s),
                  ("gamma_s", params.gamma_s)]
    if scheme in ("lambda", "raman"):
        pairs += [("initial", opts["initial"]), ("n_max", opts["n_max"])]
        if scheme == "lambda":
            pairs += [("relax_window", opts["relax_window"])]
    pairs += [
        ("eps", opts["eps"]), ("n_outputs", opts["n_outputs"]),
        ("threshold", opts["threshold"]), ("g", opts["g_scale"]),
    ]
    for k, v in (extra or {}).items():
        pairs.append((k, v))
    return pairs


def _echo_line(pairs: list) -> str:
    return "# params: " + " ".join(
        f"{k}={v if isinstance(v, str) else _fmt(v)}" for k, v in pairs
    )


def _initial_vector(label: str) -> np.ndarray:
    v = np.zeros(4, dtype=np.complex128)
    v[QUBIT_CONFIGS.index(label)] = 1.0
    return v


def _gate_row(scheme: str, params, result, opts: dict) -> list:
    gs = opts["g_scale"]
    if scheme == "lambda":
        weak, delta, strong = params.omega0 * gs, None, None
        kappa, gamma = params.kappa * gs, _fmt(params.gamma * gs)
    else:
        weak = params.omega20 * gs if params.omega21 == params.omega20 else \
            f"{_fmt(params.omega20 * gs)};{_fmt(params.omega21 * gs)}"
        kappa = params.kappa * gs
        gamma = _join_per_j(params.gamma, gs)
        delta = _join_per_j(params.delta, gs)
        strong = _join_per_j(params.omega_diag, gs)
    return [
        scheme, _fmt(weak), _fmt(kappa), gamma, _fmt(gs),
        delta if isinstance(delta, str) else _fmt(delta),
        strong if isinstance(strong, str) else _fmt(strong),
        str(opts["n_max"]), _fmt(result.gate_time / gs), _fmt(result.p0),
        _fmt(result.fidelity), _fmt(result.fidelity_unconditional),
    ]


def _shelving_row(params: ShelvingParams, tmax: float, p0_final: float, opts: dict) -> list:
    gs = opts["g_scale"]
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
        n_max=opts["n_max"], n_outputs=opts["n_outputs"], eps=opts["eps"],
        relax_window=opts["relax_window"],
    )


def _validate(scheme: str, params, threshold: float):
    if scheme == "lambda":
        return validate_regime_lambda(params, threshold)
    if scheme == "raman":
        return validate_regime_raman(params, threshold)
    return validate_regime_shelving(params, threshold)


def _build_params(scheme: str, values: dict):
    if scheme == "lambda":
        return _lambda_params(values)
    if scheme == "raman":
        return _raman_params(values)
    return _shelving_params(values)


def cmd_run(s: _Settings) -> int:
    scheme = s.require("scheme", "--scheme")
    opts = _resolve_run_options(s, scheme)
    values = _param_values(s)
    params = _build_params(scheme, values)
    report = _validate(scheme, params, opts["threshold"])

    if scheme == "shelving":
        td = dark_time(params)
        tmax = float(values["tmax"]) if values.get("tmax") is not None else 2.0 * td
        ts = np.linspace(0.0, tmax, opts["n_outputs"] + 1)
        p0s = survival_probability(params, ts)
        fitted = fit_dark_time(params)
        gs = opts["g_scale"]
        print(_echo_line(_echo_pairs(scheme, params, opts, {"tmax": tmax})))
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
        _echo_line(_echo_pairs(scheme, params, opts)),
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
    if count < 1:
        raise ValueError("--count must be >= 1")
    if count == 1:
        return np.array([start])
    if spacing == "log":
        if start <= 0.0 or stop <= 0.0:
            raise ValueError("log spacing requires positive --start and --stop")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def cmd_scan(s: _Settings) -> int:
    scheme = s.require("scheme", "--scheme")
    if scheme == "shelving":
        raise ValueError("scan supports the lambda and raman schemes; use run for shelving")
    opts = _resolve_run_options(s, scheme)
    sweep = s.require("sweep", "--sweep")
    if sweep not in _SWEEPABLE[scheme]:
        raise ValueError(
            f"cannot sweep {sweep!r} in the {scheme} scheme; "
            f"choose one of {_SWEEPABLE[scheme]}"
        )
    values = _param_values(s)
    points = _sweep_values(s)

    def assign(base: dict, value: float) -> dict:
        out = dict(base)
        if sweep == "omega-weak":
            out["omega20"] = value
            out["omega21"] = value
        else:
            out[sweep.replace("-", "_")] = value
        return out

    def run_point(value: float):
        params = _build_params(scheme, assign(values, float(value)))
        report = _validate(scheme, params, opts["threshold"])
        result = _run_one_gate(scheme, params, opts)
        return params, result, report

    outcomes = [run_point(v) for v in points]

    sweep_echo = {
        "sweep": sweep, "start": points[0], "stop": points[-1],
        "count": len(points), "spacing": s.get("spacing", "linear"),
    }
    lines = [
        _echo_line(_echo_pairs(scheme, outcomes[0][0], opts, sweep_echo)),
        ",".join(CSV_COLUMNS),
    ]
    lines += [",".join(_gate_row(scheme, params, result, opts))
              for params, result, _ in outcomes]
    _emit_csv(lines, s.get("output"))
    return max(report.exit_code for _, _, report in outcomes)


def cmd_validate(s: _Settings) -> int:
    scheme = s.require("scheme", "--scheme")
    opts = _resolve_run_options(s, scheme)
    params = _build_params(scheme, _param_values(s))
    report = _validate(scheme, params, opts["threshold"])
    for line in report.lines():
        print(line)
    return report.exit_code


def cmd_converge(s: _Settings) -> int:
    scheme = s.require("scheme", "--scheme")
    opts = _resolve_run_options(s, scheme)
    params = _build_params(scheme, _param_values(s))
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
        handler = {
            "run": cmd_run,
            "scan": cmd_scan,
            "validate": cmd_validate,
            "converge": cmd_converge,
        }[args.command]
        return handler(settings)
    except (ValueError, TypeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
