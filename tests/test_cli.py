import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cavgate
from cavgate.cli import _OPTIONS, COMMANDS, CSV_COLUMNS, SCHEMES, _build_params, _build_parser, _fmt, main
from cavgate.lambda_gate import LambdaParams
from cavgate.metrics import gate_run
from cavgate.propagator import DEFAULT_OUTPUTS
from cavgate.raman_gate import RamanParams, validate_regime_raman
from cavgate.shelving import ShelvingParams, dark_time, survival_probability


def run_cli(capsys, *argv):
    """Exit code, stdout and stderr of one command line (argparse errors included)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_rows(out: str):
    lines = out.splitlines()
    start = lines.index(",".join(CSV_COLUMNS))
    rows = [ln for ln in lines[start + 1:] if ln and not ln.startswith("#")]
    return [dict(zip(CSV_COLUMNS, ln.split(","))) for ln in rows]


def test_run_lambda_reference(capsys):
    code, out, err = run_cli(
        capsys, "run", "--scheme", "lambda", "--omega0", "0.1",
        "--kappa", "1", "--gamma", "0", "--initial", "10",
    )
    assert code == 0
    (row,) = parse_rows(out)
    assert row["scheme"] == "lambda"
    assert abs(float(row["p0"]) - 0.81) <= 0.05
    assert float(row["fidelity_conditional"]) >= 0.99
    assert row["delta"] == "" and row["omega_strong"] == ""
    assert "regime report" in err


def test_run_stationary_initial(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--scheme", "lambda", "--omega0", "0.1", "--initial", "01",
    )
    assert code == 0
    (row,) = parse_rows(out)
    assert float(row["p0"]) == pytest.approx(1.0, abs=1e-10)


def test_run_shelving_fit(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--scheme", "shelving", "--omega-w", "0.02",
        "--omega-s", "1", "--gamma-s", "1", "--tmax", "5000",
    )
    assert code == 0
    fitted = float(next(ln for ln in out.splitlines() if ln.startswith("fitted_dark_time=")).split("=")[1])
    assert 1250.0 <= fitted <= 5000.0
    (row,) = parse_rows(out)
    assert row["scheme"] == "shelving"
    assert float(row["T"]) == 5000.0
    assert float(row["p0"]) == pytest.approx(np.exp(-2.0), rel=0.5)


def test_shelving_survival_and_fit_are_one_exponential_each(capsys, exponentials):
    code, _, _ = run_cli(capsys, "run", "--scheme", "shelving", "--omega-w", "0.02")
    assert code == 0
    assert len(exponentials.expm) <= 2


@pytest.mark.parametrize("command", ["scan", "converge"])
def test_scan_and_converge_refuse_shelving_before_any_exponential(capsys, exponentials, command):
    code, _, _ = run_cli(capsys, command, "--scheme", "shelving", "--omega-w", "0.02")
    assert code == 2
    assert exponentials.expm == []


@pytest.mark.parametrize("threshold,code,head", [
    ((), 1, "regime report (shelving): 2 warning(s)"),
    (("--threshold", "10"), 0, "regime report (shelving): all conditions satisfied"),
])
def test_shelving_run_outside_the_dark_regime_reports_once(capsys, threshold, code, head):
    # the run finishes with its row; its one report, at --threshold, goes to stderr
    # after the CSV, and no Python warning is raised, not even as an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_cli(capsys, "run", "--scheme", "shelving", "--omega-w", "0.5",
                                "--omega-s", "1", "--gamma-s", "1", *threshold)
    assert got == code
    (row,) = parse_rows(out)
    assert row["scheme"] == "shelving"
    assert err.splitlines()[0] == head
    assert err.count("regime report") == 1


def test_each_scan_point_is_validated_once(capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return validate_regime_raman(*args, **kwargs)

    for module in (cavgate.cli, cavgate.metrics):
        monkeypatch.setattr(module, "validate_regime_raman", counted, raising=False)
    code, out, _ = run_cli(capsys, "scan", "--scheme", "raman", "--sweep", "omega-weak",
                           "--start", "0.01", "--stop", "0.1", "--count", "20")
    assert code == 1
    assert len(parse_rows(out)) == 20
    assert len(calls) == 20


def test_scan_names_each_point_that_fails_a_check(capsys):
    code, out, err = run_cli(capsys, "scan", "--scheme", "lambda", "--sweep", "omega0",
                             "--start", "0.05", "--stop", "0.2", "--count", "2")
    assert code == 1
    assert len(parse_rows(out)) == 2
    assert err.splitlines() == [
        "omega0=0.2: [     warn] omega_much_less_than_g2_over_kappa: ratio=0.1414 threshold=0.1",
        "omega0=0.2: [     warn] omega_much_less_than_kappa: ratio=0.1414 threshold=0.1",
    ]


def test_run_shelving_samples_file(capsys, tmp_path):
    samples = tmp_path / "samples.csv"
    code, out, _ = run_cli(
        capsys, "run", "--scheme", "shelving", "--omega-w", "0.02",
        "--tmax", "1000", "--n-outputs", "20", "--samples-out", str(samples),
    )
    assert code == 0
    lines = samples.read_text().splitlines()
    assert lines[0] == "t,p0"
    assert len(lines) == 22
    p0s = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert p0s[0] == 1.0
    assert all(b <= a + 1e-12 for a, b in zip(p0s, p0s[1:]))


def test_run_writes_output_file(capsys, tmp_path):
    out_path = tmp_path / "row.csv"
    code, out, _ = run_cli(
        capsys, "run", "--scheme", "lambda", "--omega0", "0.05",
        "--output", str(out_path),
    )
    assert code == 0
    assert out_path.read_text() in out or out_path.read_text() == out


def test_scan_lambda_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = (
        "scan", "--scheme", "lambda", "--sweep", "omega0",
        "--start", "0.02", "--stop", "0.1", "--count", "4",
        "--spacing", "log", "--gamma", "0.0001",
    )
    code1, _, _ = run_cli(capsys, *args, "--output", str(a))
    code2, _, _ = run_cli(capsys, *args, "--output", str(b))
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()
    rows = parse_rows(a.read_text())
    assert len(rows) == 4
    sweeps = [float(r["omega0_or_omega20"]) for r in rows]
    assert sweeps == sorted(sweeps)
    assert all(r["gamma"] == "0.0001" for r in rows)


@pytest.mark.parametrize("start,stop,spacing", [
    ("0.1", "0.1", "linear"), ("0.05", "0.2", "linear"), ("0.05", "0.2", "log")])
def test_scan_single_point_degenerates_to_run(capsys, start, stop, spacing):
    # one point is --start, whatever --stop and the spacing
    code, out, _ = run_cli(
        capsys, "scan", "--scheme", "lambda", "--sweep", "omega0",
        "--start", start, "--stop", stop, "--count", "1", "--spacing", spacing,
    )
    assert code == 0
    (row,) = parse_rows(out)
    assert row["omega0_or_omega20"] == start
    code2, out2, _ = run_cli(capsys, "run", "--scheme", "lambda", "--omega0", start)
    (row2,) = parse_rows(out2)
    assert row == row2


def test_scan_raman_weak_fields(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--scheme", "raman", "--sweep", "omega-weak",
        "--start", "0.03", "--stop", "0.05", "--count", "2",
    )
    assert code == 1  # g << omega22 warns at the reference point
    rows = parse_rows(out)
    assert len(rows) == 2
    for row in rows:
        assert float(row["fidelity_conditional"]) > 0.998
        assert row["delta"] == "1000.0"
        assert row["omega_strong"] == "2.0"
        assert float(row["kappa"]) == pytest.approx(1e-3)


def test_scan_curve_shapes(capsys):
    # without spontaneous emission the success probability falls with the
    # drive; with it, slow gates lose to atomic decay and a maximum appears
    # at intermediate drive strength
    args = ("scan", "--scheme", "lambda", "--sweep", "omega0",
            "--start", "0.005", "--stop", "0.2", "--count", "5", "--spacing", "log")
    code, out, _ = run_cli(capsys, *args, "--gamma", "0")
    p0_free = [float(r["p0"]) for r in parse_rows(out)]
    assert all(a > b for a, b in zip(p0_free, p0_free[1:]))

    code, out, _ = run_cli(capsys, *args, "--gamma", "0.001")
    p0_damped = [float(r["p0"]) for r in parse_rows(out)]
    peak = int(np.argmax(p0_damped))
    assert 0 < peak < len(p0_damped) - 1


def test_run_relax_window_flag(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--scheme", "lambda", "--omega0", "0.1",
        "--gamma", "0.001", "--relax-window",
    )
    assert code == 0
    (row,) = parse_rows(out)
    assert 0.0 < float(row["p0"]) < 1.0
    assert "relax_window=True" in out


def test_scan_rejects_unknown_sweep(capsys):
    code, _, err = run_cli(
        capsys, "scan", "--scheme", "lambda", "--sweep", "delta",
        "--start", "1", "--stop", "2", "--count", "2",
    )
    assert code == 2
    assert "sweep" in err


def test_validate_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "validate", "--scheme", "lambda", "--omega0", "0.01")
    assert code == 0
    code, out, _ = run_cli(capsys, "validate", "--scheme", "raman", "--omega20", "0.05")
    assert code == 1
    assert "g_much_less_than_omega22" in out
    code, _, _ = run_cli(capsys, "validate", "--scheme", "lambda", "--omega0", "0.1", "--kappa", "0")
    assert code == 2


@pytest.mark.parametrize("argv,violated", [
    (("lambda", "--omega0", "0.1", "--kappa", "0"), ["omega_much_less_than_kappa"]),
    (("raman", "--kappa", "0"), ["omega_eff_much_less_than_kappa"]),
    (("shelving", "--omega-w", "0.02", "--gamma-s", "0"), ["omega_w_much_less_than_gamma_s"]),
    (("shelving", "--omega-w", "0.02", "--omega-s", "0"),
     ["omega_w_much_less_than_omega_s2_over_gamma_s"]),
    # g_eff = 0, and the kappa derived from it is 0 too: two causes
    (("raman", "--omega22", "0"),
     ["omega_eff_much_less_than_geff2_over_kappa", "omega_eff_much_less_than_kappa"]),
    # a zero drive leaves the pulse length or the dark time undefined, as run refuses it
    (("lambda", "--omega0", "0"), ["gamma_much_less_than_omega"]),
    (("raman", "--omega20", "0"), ["omega20_much_less_than_omega00"]),
    (("shelving", "--omega-w", "0"), ["omega_w_much_less_than_gamma_s"]),
    # omega0_eff = 0 also unbalances the effective drives: two causes
    (("raman", "--omega00", "0"), ["omega0_eff_equals_omega1_eff", "omega20_much_less_than_omega00"]),
], ids=" ".join)
def test_validate_reports_each_zero_rate_once(capsys, argv, violated):
    code, out, err = run_cli(capsys, "validate", "--scheme", *argv)
    assert (code, err) == (2, "")
    assert [ln.split(":")[0][12:] for ln in out.splitlines() if ln.startswith("[violation]")] == violated


@pytest.mark.parametrize("argv,line", [
    (("raman", "--omega22", "0"), "[violation] omega_eff_much_less_than_geff2_over_kappa: ratio=n/a "),
    (("lambda", "--omega0", "0", "--gamma", "0"), "[violation] gamma_much_less_than_omega: ratio=n/a "),
], ids=["raman", "lambda"])
def test_validate_prints_a_zero_over_zero_ratio_as_na(capsys, argv, line):
    _, out, _ = run_cli(capsys, "validate", "--scheme", *argv)
    assert line in out


@pytest.mark.parametrize("flag,code,check,level", [
    ("--omega00", 2, "omega0_eff_equals_omega1_eff", "violation"),
    ("--omega22", 1, "equal_ground_shifts_2", "warn"),
])
def test_validate_raman_strong_field_whose_square_overflows(capsys, flag, code, check, level):
    # omega_jj^2 / delta_j is inf: the report still names the condition it breaks
    got, out, err = run_cli(capsys, "validate", "--scheme", "raman", flag, "1e200", "--kappa", "1")
    assert (got, err) == (code, "")
    assert f"[{level:>9}] {check}:" in out



DARK_TIME_NOT_FINITE = [
    ("run", "--omega-w", "0.02", "--omega-s", "1e200"),
    ("run", "--omega-w", "1e-200"),
    ("run", "--omega-w", "0"),
    ("run", "--omega-w", "0.02", "--omega-s", "0"),
    ("run", "--omega-w", "0.02", "--gamma-s", "1e-320"),
]


@pytest.mark.parametrize("argv", DARK_TIME_NOT_FINITE, ids=" ".join)
def test_shelving_dark_time_not_finite_and_positive_names_the_rates(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "--scheme", "shelving", *argv[1:])
    rates = {"omega_s": 1.0, "gamma_s": 1.0,
             **{flag[2:].replace("-", "_"): float(v) for flag, v in zip(argv[1::2], argv[2::2])}}
    assert (code, out) == (2, "")
    assert err == ("error: dark time omega_s^2/(omega_w^2 gamma_s) must be finite and positive, got "
                   + ", ".join(f"{k}={rates[k]!r}" for k in ("omega_w", "omega_s", "gamma_s")) + "\n")


def test_validate_shelving_strong_drive_whose_square_overflows(capsys):
    # omega_s^2 is inf, so omega_w << omega_s^2/gamma_s holds with ratio 0
    code, out, err = run_cli(capsys, "validate", "--scheme", "shelving", "--omega-w", "0.02",
                             "--omega-s", "1e200")
    assert (code, err) == (0, "")
    assert "[     pass] omega_w_much_less_than_omega_s2_over_gamma_s: ratio=0 " in out

def test_converge_lambda(capsys):
    code, out, _ = run_cli(capsys, "converge", "--scheme", "lambda", "--omega0", "0.1")
    assert code == 0
    deltas = {}
    for ln in out.splitlines()[1:]:
        parts = ln.split()
        deltas[" ".join(parts[:-3])] = float(parts[-1])
    assert deltas["p0 n_max 3 -> 4"] <= 1e-6


def test_converge_without_cavity_sector_is_wrong(capsys):
    # dropping the photon channel entirely changes the physics: the delta
    # against n_max = 1 must be large
    code, out, _ = run_cli(
        capsys, "converge", "--scheme", "lambda", "--omega0", "0.1", "--n-max", "0",
    )
    assert code == 0
    line = next(ln for ln in out.splitlines() if ln.startswith("p0 n_max 0 -> 1"))
    assert float(line.split()[-1]) > 1e-2


def test_converge_that_exits_1_prints_its_report_on_stderr(capsys):
    code, out, err = run_cli(capsys, "converge", "--scheme", "raman", "--omega20", "0.05")
    assert code == 1
    assert out.splitlines()[0] == CONVERGE_HEADER
    assert err.startswith("regime report (raman): 1 warning(s)\n")
    assert "[     warn] g_much_less_than_omega22:" in err


def test_argument_file_and_flag_override(capsys, tmp_path):
    args = tmp_path / "w.args"
    args.write_text("scheme=lambda\n omega0 = 0.05 \nthreshold=0.2\n")
    code, out, _ = run_cli(capsys, "run", f"@{args}")
    assert code == 0
    assert (code, out) == run_cli(capsys, "run", "--scheme", "lambda", "--omega0", "0.05", "--threshold", "0.2")[:2]
    code, out, _ = run_cli(capsys, "run", f"@{args}", "--omega0", "0.1")
    (row,) = parse_rows(out)
    assert row["omega0_or_omega20"] == "0.1"


def test_argument_file_unknown_key(capsys, tmp_path):
    args = tmp_path / "w.args"
    args.write_text("omega_zero=0.1\n")
    code, out, err = run_cli(capsys, "run", f"@{args}")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --omega_zero=0.1" in err


@pytest.mark.parametrize("key,value,message", [
    ("spacing", "logg", "argument --spacing: invalid choice: 'logg'"),
    ("initial", "xx", "argument --initial: invalid choice: 'xx'"),
    ("threshold", "nan", "argument --threshold: expected a positive finite number"),
    ("n-outputs", "0", "argument --n-outputs: expected an integer >= 1"),
    ("count", "0", "argument --count: expected an integer >= 1"),
    # a switch is a bare line; "no" is not read as off
    ("relax-window", "no", "argument --relax-window: ignored explicit argument 'no'"),
])
def test_argument_file_value_outside_choices(capsys, tmp_path, key, value, message):
    args = tmp_path / "w.args"
    args.write_text(f"{key}={value}\n")
    code, out, err = run_cli(
        capsys, "scan", f"@{args}", "--scheme", "lambda", "--sweep", "omega0",
        "--start", "0.05", "--stop", "0.1", "--count", "2",
    )
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("switch,echoed", [
    ("  relax-window  \n", "relax_window=True"),
    ("", "relax_window=False"),
], ids=["bare", "absent"])
def test_argument_file_comments_and_bare_switch(capsys, tmp_path, switch, echoed):
    args = tmp_path / "w.args"
    args.write_text(f"# a comment line\n\nscheme=lambda\nomega0=0.1\ngamma=0.001\n{switch}")
    code, out, _ = run_cli(capsys, "run", f"@{args}")
    assert code == 0
    assert echoed in out.splitlines()[0]
    (row,) = parse_rows(out)
    assert row["gamma"] == "0.001"


@pytest.mark.parametrize("flag", [("--thr", "0.2"), ("--tm", "9"), ("--rel",)], ids=" ".join)
def test_flags_match_only_when_spelled_in_full(capsys, flag):
    # each is a unique prefix of one flag (--threshold, --tmax, --relax-window)
    code, out, err = run_cli(capsys, "run", "--scheme", "lambda", "--omega0", "0.1", *flag)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in err


SWEEP = ("--sweep", "omega0", "--start", "0.05", "--stop", "0.1", "--count", "2")
INVALID = [
    (("run", "--omega0", "0.1"), "", "missing required parameter '--scheme'"),
    # the shelving model has no photon cutoff and nothing to sweep
    # and the scheme is refused before its rates and flags are read
    *(((command, "--scheme", "shelving", *extra), "",
       f"error: {command} supports the lambda and raman schemes; use run for shelving\n")
      for command, extra in (
          ("scan", ("--omega-w", "0.02")),
          ("scan", ("--sweep", "omega-w", "--start", "0.01", "--stop", "0.02", "--count", "2")),
          ("converge", ("--omega-w", "0.02")),
          ("converge", ("--omega-w", "0.02", "--tmax", "1000")),
          ("converge", ("--omega-w", "1e-200")),
          ("converge", ("--omega-w", "1e-9")))),
    (("scan", "--scheme", "lambda", "--sweep", "omega0", "--start", "0", "--stop", "0.1",
      "--count", "2", "--spacing", "log"), "", "log spacing requires positive --start and --stop"),
    (("scan", "--scheme", "lambda", "--omega0", "0.1", "--sweep", "gamma", "--start", "0", "--stop", "0.01",
      "--count", "1", "--spacing", "log"), "", "log spacing requires positive --start and --stop"),
    (("run", "@{cfg}"), "scheme=lambda\nomega0 0.1\n", "unrecognized arguments: --omega0 0.1"),
    (("run", "@{cfg}.missing"), "", "No such file or directory: '"),
    (("run", "--scheme", "raman", "--omega20", "1e-300", "--omega21", "1e-300"), "",
     "matrix exponential overflows"),
    *((("scan", "--scheme", "lambda", *SWEEP[:i], *SWEEP[i + 2:]), "",
       f"missing required parameter {SWEEP[i]!r}") for i in range(0, len(SWEEP), 2)),
    (("run", "--scheme", "shelving", "--omega-w", "0.02", "--tmax", "5e-324"), "",
     "error: t_total=5e-324 over 500 grid steps gives a step dt=0.0 below the smallest normal float"),
    # numpy refuses this 6.94 EiB grid at once, so nothing is allocated
    (("scan", "--scheme", "lambda", "--sweep", "omega0", "--start", "0.005", "--stop", "0.2",
      "--count", "1000000000000000000"), "", "error: Unable to allocate"),
    # and plan refuses a survival curve of more steps than floats count exactly, before any grid
    (("run", "--scheme", "shelving", "--omega-w", "0.02", "--n-outputs", "1000000000000000000"), "",
     "exceeds 2**53 grid steps"),
    # and survival_probability a curve of more samples than it keeps, before any is propagated
    (("run", "--scheme", "shelving", "--omega-w", "0.02", "--n-outputs", "100000000"), "",
     "error: n_outputs=100000000 exceeds the 2**20 survival intervals a curve keeps\n"),
    # a cutoff too large for a dense generator is refused before any basis is built
    (("run", "--scheme", "lambda", "--omega0", "0.1", "--n-max", "100000000"), "",
     "n_max=100000000 gives a lambda basis of 900000009 states"),
    # a value that does not parse names the expected type, not a helper's name
    (("scan", "--scheme", "lambda", "--sweep", "omega0", "--start", "0.01", "--stop", "0.1", "--count", "1.5"), "",
     "argument --count: expected an integer >= 1, got '1.5'\n"),
    (("run", "--scheme", "shelving", "--omega-w", "0.02", "--n-outputs", "x"), "",
     "argument --n-outputs: expected an integer >= 1, got 'x'\n"),
    (("run", "--scheme", "lambda", "--omega0", "0.1", "--threshold", "abc"), "",
     "argument --threshold: expected a positive finite number, got 'abc'\n"),
    (("run", "--scheme", "shelving", "--omega-w", "0.02", "--tmax", "abc"), "",
     "argument --tmax: expected a positive finite number, got 'abc'\n"),
    # a zero drive, which validate reports as a violation
    (("run", "--scheme", "lambda", "--omega0", "0"), "",
     "error: pulse length 2 pi/omega0 is not finite at omega0=0.0\n"),
    (("run", "--scheme", "raman", "--omega20", "0"), "",
     "error: pulse length 2 pi/|omega0_eff| is not finite at omega20=0.0, omega_diag[0]=2.0, delta[0]=1000.0\n"),
    (("run", "--scheme", "raman", "--omega00", "0"), "",
     "error: pulse length 2 pi/|omega0_eff| is not finite at omega20=0.05, omega_diag[0]=0.0, delta[0]=1000.0\n"),
    (("run", "--scheme", "raman", "--delta2", "0"), "", "delta entries must be positive"),
    (("run", "--scheme", "raman", "--delta", "1e-310"), "",
     "error: kappa defaults to |g_eff| = omega_diag[2]/(2 delta[2]), which is not finite "
     "at omega_diag[2]=2.0, delta[2]=1e-310\n"),
    (("validate", "--scheme", "raman", "--delta", "0"), "", "delta entries must be positive"),
    (("run", "--scheme", "raman", "--omega22", "1e200"), "", "matrix exponential overflows"),
    (("run", "--scheme", "lambda", "--omega0", "1e-310"), "",
     "error: pulse length 2 pi/omega0 is not finite at omega0=1e-310\n"),
    (("run", "--scheme", "raman", "--omega20", "1e-310", "--omega21", "1e-310"), "",
     "not finite at omega20=1e-310, omega_diag[0]=2.0, delta[0]=1000.0\n"),
    *(((command, "--scheme", scheme, flag, value), "", "roundoff of the squarings u*|G t|_1 = ")
      for command, scheme, flag, value in (
          ("run", "lambda", "--omega0", "1e-300"),
          ("run", "lambda", "--omega0", "1e-12"),
          ("run", "shelving", "--omega-w", "1e-8"),
          ("run", "shelving", "--omega-w", "1e-9"))),
    # the survival falls by roundoff only, so no dark time can be fitted
    (("run", "--scheme", "shelving", "--omega-w", "1e4"), "",
     " over the fit window, not more than the roundoff bound 1e-06\n"),
]


@pytest.mark.parametrize("argv,config,message", INVALID, ids=[" ".join(r[0]) for r in INVALID])
def test_invalid_input_exits_2_with_its_message(capsys, tmp_path, argv, config, message):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config)
    code, out, err = run_cli(capsys, *(a.replace("{cfg}", str(cfg)) for a in argv))
    assert code == 2
    assert out == ""
    assert message in err


def test_an_error_without_text_is_named_by_its_type(capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError()
    monkeypatch.setattr("cavgate.cli.gate_run", out_of_memory)
    assert run_cli(capsys, "run", "--scheme", "lambda", "--omega0", "0.1") == (2, "", "error: MemoryError\n")


def test_run_raman_unequal_weak_fields_row(capsys):
    # the unequal drive is a regime violation, but the run still reports its row
    code, out, _ = run_cli(capsys, "run", "--scheme", "raman", "--omega20", "0.05", "--omega21", "0.06")
    assert code == 2
    (row,) = parse_rows(out)
    assert row["omega0_or_omega20"] == "0.05;0.06"


def test_missing_required_parameter(capsys):
    code, _, err = run_cli(capsys, "run", "--scheme", "lambda")
    assert code == 2
    assert "omega0" in err


@pytest.mark.parametrize("scheme,cls,dest,value", [
    ("lambda", LambdaParams, "omega0", 0.1),
    ("raman", RamanParams, "omega20", 0.01),
    ("shelving", ShelvingParams, "omega_w", 0.02),
])
def test_unset_rates_take_the_dataclass_defaults(scheme, cls, dest, value):
    values = dict.fromkeys((row.dest for row in _OPTIONS), None)
    values[dest] = value
    assert _build_params(scheme, values) == cls(**{dest: value})


@pytest.mark.parametrize("flag,value,params", [
    ("--omega20", "0.01", {"omega20": 0.01}),
    ("--delta", "500", {"delta": 500.0}),
])
def test_raman_cli_and_library_runs_spelled_alike_agree_bitwise(capsys, flag, value, params):
    _, out, _ = run_cli(capsys, "run", "--scheme", "raman", flag, value)
    (row,) = parse_rows(out)
    result = gate_run("raman", RamanParams(**params), [0.0, 0.0, 1.0, 0.0])
    assert (row["p0"], row["fidelity_conditional"]) == (_fmt(result.p0), _fmt(result.fidelity))


def test_shelving_cli_and_library_runs_spelled_alike_agree_bitwise(capsys):
    _, out, _ = run_cli(capsys, "run", "--scheme", "shelving", "--omega-w", "0.02")
    params = ShelvingParams(0.02)
    _, p0 = survival_probability(params, 2.0 * dark_time(params), DEFAULT_OUTPUTS)
    assert f"p0_final={_fmt(float(p0[-1]))}" in out.splitlines()


def test_unwritable_output_path(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "--scheme", "lambda", "--omega0", "0.1",
        "--output", str(tmp_path / "missing_dir" / "x.csv"),
    )
    assert code == 2
    assert "missing_dir" in err


LAMBDA = ("--scheme", "lambda", "--omega0", "0.1")
SHELVING = ("--scheme", "shelving", "--omega-w", "0.02")
SCAN = ("scan", "--scheme", "lambda", "--sweep", "omega0", "--start", "0.05", "--stop", "0.1",
        "--count", "2")


@pytest.mark.parametrize("argv,points", [
    (("run", *LAMBDA), [LambdaParams(0.1)]),
    (("run", *LAMBDA, "--kappa", "2", "--gamma", "0.001"), [LambdaParams(0.1, kappa=2.0, gamma=0.001)]),
    (SCAN, [LambdaParams(0.05), LambdaParams(0.1)]),
    (("run", "--scheme", "raman", "--omega20", "0.01"), [RamanParams(omega20=0.01)]),
], ids=["lambda", "lambda-rates", "scan", "raman"])
def test_rows_print_the_rates_and_gate_time_the_run_used(capsys, argv, points):
    # g is the unit: no printed rate or time is rescaled
    _, out, _ = run_cli(capsys, *argv)
    rows = parse_rows(out)
    assert len(rows) == len(points)
    for row, params in zip(rows, points):
        result = gate_run(row["scheme"], params, [0.0, 0.0, 1.0, 0.0])
        weak = params.omega0 if row["scheme"] == "lambda" else params.omega20
        assert (row["omega0_or_omega20"], row["kappa"], row["T"]) == (
            _fmt(weak), _fmt(params.kappa), _fmt(result.gate_time))


def test_shelving_prints_the_times_the_run_used(capsys, tmp_path):
    samples = tmp_path / "samples.csv"
    _, out, _ = run_cli(capsys, "run", *SHELVING, "--n-outputs", "4", "--samples-out", str(samples))
    params = ShelvingParams(0.02)
    tmax = 2.0 * dark_time(params)
    (row,) = parse_rows(out)
    assert row["T"] == _fmt(tmax)
    assert f"dark_time_estimate={_fmt(dark_time(params))}" in out.splitlines()
    times = [line.split(",")[0] for line in samples.read_text().splitlines()[1:]]
    assert times == [_fmt(float(t)) for t in np.linspace(0.0, tmax, 5)]


RAMAN_SCAN = ("scan", "--scheme", "raman", "--sweep", "omega-weak", "--start", "0.03", "--stop", "0.05",
              "--count", "2")
# the whole stderr line, so that each option is named once and nothing else is
REJECTED = [
    (("run", *LAMBDA, "--delta", "5", "--omega-w", "3", "--tmax", "9"), "",
     "run --scheme lambda does not read --delta, --omega-w, --tmax"),
    (("validate", *LAMBDA, "--output", "x.csv", "--relax-window"), "",
     "validate --scheme lambda does not read --relax-window, --output"),
    (("converge", *LAMBDA, "--output", "x.csv"), "", "converge --scheme lambda does not read --output"),
    (("converge", *LAMBDA, "--n-outputs", "3"), "", "converge --scheme lambda does not read --n-outputs"),
    (("run", *LAMBDA, "--n-outputs", "3"), "", "run --scheme lambda does not read --n-outputs"),
    ((*SCAN, "--n-outputs", "3"), "", "scan --scheme lambda does not read --n-outputs"),
    (("run", "--scheme", "raman", "--n-outputs", "3"), "", "run --scheme raman does not read --n-outputs"),
    ((*RAMAN_SCAN, "--n-outputs", "3"), "", "scan --scheme raman does not read --n-outputs"),
    (("run", *SHELVING, "--n-max", "9"), "", "run --scheme shelving does not read --n-max"),
    (("run", *SHELVING, "--initial", "11"), "", "run --scheme shelving does not read --initial"),
    ((*SCAN, "--omega0", "0.3"), "", "scan --scheme lambda does not read --omega0 (--sweep sets it)"),
    ((*RAMAN_SCAN, "--omega21", "0.04"), "",
     "scan --scheme raman does not read --omega21 (--sweep sets it)"),
    (("run", "@{cfg}"), "scheme=lambda\nomega0=0.1\ndelta=5\n", "run --scheme lambda does not read --delta"),
    (("validate", "@{cfg}", "--omega-w", "3"), "scheme=lambda\nomega0=0.1\nomega-w=2\n",
     "validate --scheme lambda does not read --omega-w"),
    ((*SCAN, "@{cfg}"), "omega0=0.3\n", "scan --scheme lambda does not read --omega0 (--sweep sets it)"),
]


@pytest.mark.parametrize("argv,config,message", REJECTED, ids=[" ".join(r[0]) for r in REJECTED])
def test_option_the_run_would_not_read_exits_2(capsys, tmp_path, argv, config, message):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config)
    argv = [a.replace("{cfg}", str(cfg)).replace("x.csv", str(tmp_path / "x.csv")) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ("run", *LAMBDA, "--output"),
    (*SCAN, "--output"),
    ("run", *SHELVING, "--output"),
    ("run", *SHELVING, "--samples-out"),
], ids=" ".join)
def test_unwritable_path_exits_2_with_nothing_on_stdout(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv, str(tmp_path / "missing_dir" / "x.csv"))
    assert code == 2
    assert out == ""
    assert "missing_dir" in err


@pytest.mark.parametrize("before,config,after,echoed", [
    ((), "n-max=2\nthreshold=0.2\n", ("--n-max", "3"), "n_max=3 relax_window=False threshold=0.2"),
    ((), "n-max=2\nthreshold=0.2\n", (), "n_max=2 relax_window=False threshold=0.2"),
    (("--n-max", "3"), "n-max=2\nthreshold=0.2\n", (), "n_max=2 relax_window=False threshold=0.2"),
    ((), "", (), "n_max=3 relax_window=False threshold=0.1"),
], ids=["flag-after", "file", "flag-before", "default"])
def test_run_option_later_argument_overrides_earlier_and_default(capsys, tmp_path, before, config, after,
                                                                 echoed):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config)
    code, out, _ = run_cli(capsys, "run", *LAMBDA, *before, f"@{cfg}", *after)
    assert code == 0
    assert out.splitlines()[0].endswith(f" {echoed}")


@pytest.mark.parametrize("argv", [
    ("run", *LAMBDA, "--threshold", "nan"),
    ("run", *LAMBDA, "--threshold", "-1"),
    ("run", *LAMBDA, "--threshold", "inf"),
    ("run", *SHELVING, "--tmax", "0"),
    ("run", *SHELVING, "--tmax", "inf"),
    ("run", *SHELVING, "--n-outputs", "0"),
    ("run", *SHELVING, "--n-outputs", "-3"),
    (*SCAN[:-1], "0"),
])
def test_scale_threshold_horizon_and_counts_are_checked(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {argv[-2]}: expected" in err


@pytest.mark.parametrize("argv,config,message", [
    (("run", *LAMBDA, "--eps", "1e-9"), "", "unrecognized arguments: --eps"),
    (("run", "@{cfg}"), "scheme=lambda\nomega0=0.1\neps=1e-9\n", "unrecognized arguments: --eps=1e-9"),
    (("run", *LAMBDA, "--g", "2"), "", "unrecognized arguments: --g"),
    (("run", "@{cfg}"), "scheme=lambda\nomega0=0.1\ng=2\n", "unrecognized arguments: --g=2"),
], ids=["flag", "config", "g-flag", "g-config"])
def test_eps_is_not_an_option(capsys, tmp_path, argv, config, message):
    # every exponential is taken at unit roundoff, so there is no accuracy target to set;
    # nor is there a coupling g to set, since every rate and time is in units of g
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config)
    code, out, err = run_cli(capsys, *(a.replace("{cfg}", str(cfg)) for a in argv))
    assert code == 2
    assert out == ""
    assert message in err


def test_help_names_schemes_and_commands_of_every_option():
    actions = {action.option_strings[0]: action for action in _build_parser()._actions
               if action.option_strings}
    for row in _OPTIONS:
        help = actions[row.flag].help
        where = help[help.rindex("[") + 1:-1]
        schemes, commands = where.split("; ")
        assert schemes == "all schemes" or set(schemes.split(", ")) <= set(SCHEMES), row.flag
        assert commands == "all commands" or set(commands.split(", ")) <= set(COMMANDS), row.flag
    for key in ("delta0", "delta1", "delta2", "omega00", "omega11", "omega22",
                "gamma0", "gamma1", "gamma2"):
        assert actions[f"--{key}"].help.endswith("[raman; all commands]")
    assert actions["--tmax"].help.endswith("[shelving; run]")
    # scan and converge refuse shelving, so its rates are read by run and validate only
    for flag in ("--omega-w", "--omega-s", "--gamma-s"):
        assert actions[flag].help.endswith("[shelving; run, validate]")



def test_help_names_every_command_and_option(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    words = set(re.split(r"[\s\[\]{},:]+", out))
    assert set(COMMANDS) | {row.flag for row in _OPTIONS} <= words
    assert run_cli(capsys, "run", "--help") == (0, out, "")


def test_flag_before_the_command_runs_as_after_it(capsys):
    after = run_cli(capsys, "run", "--scheme", "lambda", "--omega0", "0.1")
    assert after[0] == 0
    assert run_cli(capsys, "--scheme", "lambda", "run", "--omega0", "0.1")[:2] == after[:2]

CONVERGE_HEADER = "quantity                               base                     refined                  |delta|"
GATE_ROWS = ("p0 n_max {n} -> {m}", "fidelity n_max {n} -> {m}")

# first stdout line and exit code of valid command lines; the # params: line
# echoes exactly the rates and run options the run reads
PINNED = [
    (("run", "--scheme", "lambda", "--omega0", "0.1"), 0,
     "# params: scheme=lambda omega0=0.1 kappa=1.0 gamma=0.0 initial=10 n_max=3 relax_window=False "
     "threshold=0.1"),
    (("run", "--scheme", "raman", "--omega20", "0.05", "--gamma", "0.2"), 1,
     "# params: scheme=raman omega20=0.05 omega21=0.05 kappa=0.001 delta=1000.0;1000.0;1000.0 "
     "omega_strong=2.0;2.0;2.0 gamma=0.2;0.2;0.2 initial=10 n_max=2 threshold=0.1"),
    (("run", "--scheme", "shelving", "--omega-w", "0.02", "--omega-s", "1", "--gamma-s", "1"), 0,
     "# params: scheme=shelving omega_w=0.02 omega_s=1.0 gamma_s=1.0 n_outputs=500 "
     "threshold=0.1 tmax=5000.0"),
    (("scan", "--scheme", "lambda", "--sweep", "omega0", "--start", "0.05", "--stop", "0.1",
      "--count", "2", "--spacing", "log"), 0,
     "# params: scheme=lambda omega0=0.05 kappa=1.0 gamma=0.0 initial=10 n_max=3 relax_window=False "
     "threshold=0.1 sweep=omega0 start=0.05 stop=0.1 count=2 spacing=log"),
    (("scan", "--scheme", "raman", "--sweep", "omega-weak", "--start", "0.03", "--stop", "0.05",
      "--count", "2"), 1,
     "# params: scheme=raman omega20=0.03 omega21=0.03 kappa=0.001 delta=1000.0;1000.0;1000.0 "
     "omega_strong=2.0;2.0;2.0 gamma=0.0;0.0;0.0 initial=10 n_max=2 "
     "threshold=0.1 sweep=omega-weak start=0.03 stop=0.05 count=2 spacing=linear"),
    (("run", "@{cfg}", "--threshold", "0.2"), 0,
     "# params: scheme=lambda omega0=0.05 kappa=1.0 gamma=0.001 initial=11 n_max=2 relax_window=True "
     "threshold=0.2"),
    (("run", "--scheme", "lambda", "--omega0", "0.1", "--gamma", "0.001", "--relax-window"), 0,
     "# params: scheme=lambda omega0=0.1 kappa=1.0 gamma=0.001 initial=10 n_max=3 relax_window=True "
     "threshold=0.1"),
    (("run", "--scheme", "raman", "--delta0", "700"), 2,
     "# params: scheme=raman omega20=0.05 omega21=0.05 kappa=0.001 delta=700.0;1000.0;1000.0 "
     "omega_strong=2.0;2.0;2.0 gamma=0.0;0.0;0.0 initial=10 n_max=2 threshold=0.1"),
    (("run", "--scheme", "shelving", "--omega-w", "0.02", "--tmax", "1000", "--n-outputs", "4",
      "--samples-out", "{samples}"), 0,
     "# params: scheme=shelving omega_w=0.02 omega_s=1.0 gamma_s=1.0 n_outputs=4 "
     "threshold=0.1 tmax=1000.0"),
    (("converge", "--scheme", "lambda", "--omega0", "0.1"), 0, CONVERGE_HEADER),
    (("converge", "--scheme", "raman", "--omega20", "0.05"), 1, CONVERGE_HEADER),
    (("validate", "--scheme", "lambda", "--omega0", "0.1"), 0,
     "regime report (lambda): all conditions satisfied\n"
     "[     pass] gamma_much_less_than_omega: ratio=0 threshold=0.1\n"
     "[     pass] omega_much_less_than_g2_over_kappa: ratio=0.07071 threshold=0.1\n"
     "[     pass] omega_much_less_than_kappa: ratio=0.07071 threshold=0.1\n"),
    (("validate", "--scheme", "lambda", "--omega0", "0.1", "--kappa", "0"), 2,
     "regime report (lambda): 0 warning(s), violation\n"
     "[     pass] gamma_much_less_than_omega: ratio=0 threshold=0.1\n"
     "[     pass] omega_much_less_than_g2_over_kappa: ratio=0 threshold=0.1\n"
     "[violation] omega_much_less_than_kappa: ratio=inf threshold=0.1 "
     "(denominator is not positive)\n"),
    (("validate", "--scheme", "raman", "--omega20", "0.05"), 1,
     "regime report (raman): 1 warning(s)\n"
     "[     pass] omega0_eff_equals_omega1_eff: ratio=0 threshold=1e-12\n"
     "[     pass] omega_eff_much_less_than_geff2_over_kappa: ratio=0.05 threshold=0.1\n"
     "[     pass] omega_eff_much_less_than_kappa: ratio=0.05 threshold=0.1\n"
     "[     pass] omega20_much_less_than_omega00: ratio=0.025 threshold=0.1\n"
     "[     pass] omega21_much_less_than_omega11: ratio=0.025 threshold=0.1\n"
     "[     warn] g_much_less_than_omega22: ratio=0.5 threshold=0.1\n"
     "[     pass] equal_ground_shifts: ratio=0 threshold=1e-12\n"
     "[     pass] equal_ground_shifts_2: ratio=0 threshold=1e-12\n"
     "[     pass] delta_much_greater_than_other_rates: ratio=0.002 threshold=0.1\n"),
    (("validate", "--scheme", "raman", "--kappa", "0"), 2,
     "regime report (raman): 1 warning(s), violation\n"
     "[     pass] omega0_eff_equals_omega1_eff: ratio=0 threshold=1e-12\n"
     "[     pass] omega_eff_much_less_than_geff2_over_kappa: ratio=0 threshold=0.1\n"
     "[violation] omega_eff_much_less_than_kappa: ratio=inf threshold=0.1 "
     "(denominator is not positive)\n"
     "[     pass] omega20_much_less_than_omega00: ratio=0.025 threshold=0.1\n"
     "[     pass] omega21_much_less_than_omega11: ratio=0.025 threshold=0.1\n"
     "[     warn] g_much_less_than_omega22: ratio=0.5 threshold=0.1\n"
     "[     pass] equal_ground_shifts: ratio=0 threshold=1e-12\n"
     "[     pass] equal_ground_shifts_2: ratio=0 threshold=1e-12\n"
     "[     pass] delta_much_greater_than_other_rates: ratio=0.002 threshold=0.1\n"),
    (("validate", "--scheme", "shelving", "--omega-w", "0.02"), 0,
     "regime report (shelving): all conditions satisfied\n"
     "[     pass] omega_w_much_less_than_omega_s2_over_gamma_s: ratio=0.02 threshold=0.1\n"
     "[     pass] omega_w_much_less_than_gamma_s: ratio=0.02 threshold=0.1\n"),
]

SAMPLES = ("t,p0\n0.0,1.0\n250.0,0.9055610120483178\n500.0,0.8193855011312482\n"
           "750.0,0.7414106730870205\n1000.0,0.6708561298783586\n")


@pytest.mark.parametrize("argv,code,expected", PINNED, ids=[" ".join(p[0]) for p in PINNED])
def test_valid_command_lines_echo_byte_identically(capsys, tmp_path, argv, code, expected):
    cfg, samples = tmp_path / "cfg.txt", tmp_path / "samples.csv"
    cfg.write_text("scheme=lambda\nomega0=0.05\nkappa=1.0\ninitial=11\nrelax-window\n"
                   "gamma=0.001\nn-max=2\n")
    argv = [a.format(cfg=cfg, samples=samples) for a in argv]
    got, out, _ = run_cli(capsys, *argv)
    assert got == code
    if argv[0] == "validate":
        assert out == expected
        return
    lines = out.splitlines()
    assert lines[0] == expected
    if argv[0] == "converge":
        n = {"lambda": 3, "raman": 2}[argv[2]]
        rows = [r.format(n=n, m=n + 1) for r in GATE_ROWS]
        assert [ln[:38].rstrip() for ln in lines[1:]] == rows
    if "--samples-out" in argv:
        assert samples.read_text() == SAMPLES


def _fresh_python(code: str) -> str:
    """Stdout of ``code`` run by a new interpreter that imports cavgate from this tree."""
    src = str(Path(cavgate.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True).stdout


NON_RUNTIME = "sorted({'scipy', 'mpmath', 'numba', 'hypothesis'} & set(sys.modules))"


def test_raman_and_shelving_runs_need_only_numpy():
    out = _fresh_python("import contextlib, io, sys\n"
                        "from cavgate.cli import main\n"
                        "with contextlib.redirect_stdout(io.StringIO()):\n"
                        "    codes = [main(['run', '--scheme', 'raman']),\n"
                        "             main(['run', '--scheme', 'shelving', '--omega-w', '0.02'])]\n"
                        f"print(*codes, *{NON_RUNTIME})")
    # the default raman point carries regime warnings, so it exits 1
    assert out.split() == ["1", "0"]


def test_importing_the_cli_needs_only_numpy():
    # the package depends on numpy alone; scipy, mpmath and hypothesis serve the tests and references
    assert _fresh_python(f"import sys, cavgate.cli; print(*{NON_RUNTIME})").strip() == ""
