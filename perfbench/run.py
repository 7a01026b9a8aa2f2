"""Closed-loop benchmark of cavgate: throughput, set-up time and p0 accuracy.

    python3 perfbench/run.py --workload raman_grid --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json): raman_grid, raman_long_pulse
and cli_cold, plus lambda_grid, which BENCHMARK.json leaves out because its
throughput follows the host's speed too closely to hold a regression bound
(see README.md).  One client drives the package from this
process; each operation starts when the previous one returns.  An
operation is one ``cavgate.metrics.gate_run`` call, or on cli_cold one
session of four cold ``python -m cavgate`` processes.  A run measures whole
passes over the workload's points, in an order drawn from ``--seed``, until
``--seconds`` have passed.

Every output is checked: an operation fails if it raises, if p0 or the
conditional fidelity is non-finite or outside [0, 1], if a CLI process exits
with 2 (or anything but 0 and 1; 1 only flags a regime warning), prints
stdout that differs from an earlier identical call, or prints the wrong
number of CSV rows.  Anchor points are compared with the committed
high-precision references in references.json.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the run measures half of its time untraced and half traced
and reports per-layer metrics instead.  Names and units are those that
BENCHMARK.json lists.  The line before it is a JSON record
of the environment and of details (tail percentile, failures, anchors).
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before numpy or cavgate load

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from decimal import Decimal, localcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402
from spans import Tracer, ancestors, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)
SETUP_PROBES = 4                              # extra cold set-ups per run, for a median of five
IMPORT_PROBES = 3
PROB_SLACK = 1e-9                             # roundoff allowed outside [0, 1]
ANCHOR_TOL = 1e-3                             # gross-error gate; accuracy is reported by p0_err_max
PERTURBATION = Decimal("1e-2")                # --inject perturb_ref shifts every reference p0
CHILD_TIMEOUT = 170
MAX_FAILURES_SHOWN = 5

# --------------------------------------------------------------------------- set-up

def require_checkout() -> None:
    if not (SRC / "cavgate" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'cavgate'} not found; run from a checkout of the repository")


def import_cavgate():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import cavgate
    import cavgate.cli
    if Path(cavgate.__file__).resolve().parent != (SRC / "cavgate").resolve():
        raise SystemExit(f"error: imported cavgate from {cavgate.__file__}, not from {SRC}")
    return cavgate


def load_references(perturb: bool) -> dict:
    """Reference (p0, fidelity) per anchor; refuses values computed for other parameters."""
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    out = {}
    for name, anchor in wl.ANCHORS.items():
        ref = refs.get(name)
        if ref is None or any(ref.get(k) != v for k, v in anchor.items()):
            raise SystemExit(f"error: references.json is stale for anchor {name}; rerun reference.py")
        out[name] = (Decimal(ref["p0"]) + (PERTURBATION if perturb else 0), Decimal(ref["fidelity"]))
    return out


def abs_error(value: float, ref: Decimal) -> float:
    """|value - ref| without rounding the reference to a float first."""
    with localcontext() as ctx:
        ctx.prec = 60
        return float(abs(Decimal(value) - ref))


def probability_problem(name: str, value):
    try:
        value = float(value)
    except ValueError:
        return f"{name}={value!r} is not a number"
    if not math.isfinite(value) or value < -PROB_SLACK or value > 1.0 + PROB_SLACK:
        return f"{name}={value!r} is not a probability"
    return None


class Tally:
    """Operation times, failures and anchor errors of one run."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.times = []
        self.attempted = 0
        self.failures = []
        self.anchor_err = {}

    def record(self, seconds: float, problem, timed: bool = True) -> None:
        self.attempted += 1
        if timed:
            self.times.append(seconds)
        if problem:
            self.failures.append(problem)

    def anchor(self, name: str, p0: float, fidelity: float) -> None:
        ref_p0, ref_fid = self.refs[name]
        p0_err, fid_err = abs_error(p0, ref_p0), abs_error(fidelity, ref_fid)
        old = self.anchor_err.get(name, (0.0, 0.0))
        self.anchor_err[name] = (max(old[0], p0_err), max(old[1], fid_err))


# --------------------------------------------------------------------------- gate workloads

class GateClient:
    """Runs gate_run on prepared inputs; the package sees only these inputs."""

    def __init__(self, cavgate, points: list):
        from cavgate.lambda_gate import LambdaParams
        from cavgate.raman_gate import RamanParams
        import numpy as np

        self.metrics = cavgate.metrics
        kinds = {"lambda": LambdaParams, "raman": RamanParams}
        self.items = []
        for pt in points:
            psis = []
            for label in pt.inputs:
                psi = np.zeros(4, dtype=np.complex128)
                psi[wl.QUBIT_INPUTS.index(label)] = 1.0
                psis.append((label, psi))
            self.items.append((pt, kinds[pt.scheme](**pt.params), psis))

    def op(self, tally: Tally, item, label, psi, timed: bool = True) -> None:
        pt, params, _ = item
        start = time.perf_counter()
        try:
            res = self.metrics.gate_run(pt.scheme, params, psi)
        except Exception as exc:  # any raise is a failed operation, not a crash of the benchmark
            tally.record(time.perf_counter() - start, f"{pt.params} {label}: {exc!r}", timed)
            return
        elapsed = time.perf_counter() - start
        problem = probability_problem("p0", res.p0) or probability_problem("fidelity", res.fidelity)
        tally.record(elapsed, problem and f"{pt.params} {label}: {problem}", timed)
        if pt.anchor and label == wl.ANCHORS[pt.anchor]["input"] and not problem:
            tally.anchor(pt.anchor, res.p0, res.fidelity)

    def warm_up(self, tally: Tally) -> None:
        item = self.items[0]
        self.op(tally, item, *item[2][0], timed=False)

    def run_pass(self, tally: Tally, order: list) -> None:
        for item in order:
            for label, psi in item[2]:
                self.op(tally, item, label, psi)


# --------------------------------------------------------------------------- CLI workload

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def csv_rows(stdout: str):
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("scheme,"):
            header = line.split(",")
            return [dict(zip(header, row.split(","))) for row in lines[i + 1:] if row.strip()]
    return []


class CliClient:
    """Runs a session of CLI commands, cold in child processes or in process when traced."""

    def __init__(self, inject: str | None, cli_module=None, tracer: Tracer | None = None):
        self.inject = inject
        self.cli = cli_module
        self.tracer = tracer
        self.env = child_env()
        self.seen = {}
        self.items = list(wl.CLI_SESSION)

    def _argv(self, cmd, timed: bool) -> list:
        argv = list(cmd.argv)
        if self.inject == "exit2" and timed and cmd.anchor:
            argv[argv.index("0.1")] = "-0.1"          # a negative Rabi frequency: exit code 2
        return argv

    def _execute(self, cmd, argv: list):
        if self.cli is None:
            proc = subprocess.run([sys.executable, "-m", "cavgate", *argv], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT)
            return proc.returncode, proc.stdout, proc.stderr
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = self.tracer.call("cli.main", self.cli.main, argv, info={"label": cmd.label})
            except SystemExit as exc:                 # argparse rejects bad flags this way
                rc = exc.code
            except Exception as exc:                  # a crash in process, as a cold run would show it
                rc = None
                err.write(repr(exc))
        return rc, out.getvalue(), err.getvalue()

    def _check(self, tally: Tally, cmd, rc, stdout: str, stderr: str):
        if rc not in (0, 1):
            tail = stderr.strip().splitlines()[-1:] or [""]
            return f"{cmd.label}: exit code {rc}: {tail[0]}"
        if self.seen.setdefault(cmd.label, stdout) != stdout:
            return f"{cmd.label}: stdout differs from an earlier identical call"
        rows = csv_rows(stdout)
        if len(rows) != cmd.rows:
            return f"{cmd.label}: {len(rows)} CSV rows, expected {cmd.rows}"
        for row in rows:
            for col in ("p0", "fidelity_conditional"):
                if row.get(col):
                    problem = probability_problem(col, row[col])
                    if problem:
                        return f"{cmd.label}: {problem}"
        if cmd.anchor:
            tally.anchor(cmd.anchor, float(rows[0]["p0"]), float(rows[0]["fidelity_conditional"]))
        return None

    def session(self, tally: Tally, order: list, timed: bool = True) -> None:
        start = time.perf_counter()
        problems = []
        for cmd in order:
            try:
                rc, stdout, stderr = self._execute(cmd, self._argv(cmd, timed))
            except subprocess.TimeoutExpired:
                problems.append(f"{cmd.label}: timed out after {CHILD_TIMEOUT} s")
                continue
            if self.inject == "stdout" and timed and cmd.anchor:
                stdout += "\n"
            problem = self._check(tally, cmd, rc, stdout, stderr)
            if problem:
                problems.append(problem)
        tally.record(time.perf_counter() - start, "; ".join(problems), timed)

    def warm_up(self, tally: Tally) -> None:
        self.session(tally, self.items, timed=False)

    def run_pass(self, tally: Tally, order: list) -> None:
        self.session(tally, order)


# --------------------------------------------------------------------------- measurement

def measure(client, tally: Tally, pass_iter, seconds: float, between=None) -> list:
    """Whole passes until ``seconds`` have passed; ``seconds`` 0 gives one pass.

    ``between(elapsed)``, if given, runs after each pass but the last, outside
    the timed passes.  Returns (wall seconds, operation seconds) per pass.
    """
    passes, elapsed = [], 0.0
    while True:
        first = len(tally.times)
        start = time.perf_counter()
        client.run_pass(tally, next(pass_iter))
        passes.append((time.perf_counter() - start, tally.times[first:]))
        elapsed += passes[-1][0]
        if elapsed >= seconds:
            return passes
        if between:
            between(elapsed)


def ms_per_op(passes: list) -> float:
    return sum(wall for wall, _ in passes) / sum(len(t) for _, t in passes) * 1e3


def tail_percentile(times: list):
    """(percentile, value, samples beyond) of the tail.

    The highest listed percentile (nearest rank) with at least ten samples
    beyond it; with fewer than 40 samples none qualifies, and the tail is
    the maximum (percentile 100, none beyond).
    """
    ordered = sorted(times)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(n * q / 100.0)
        if rank >= 1 and n - rank >= 10:
            return q, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def setup_probe(args) -> float:
    """Set-up time of a fresh process running this script with --setup-only."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def import_probes() -> list:
    """Cold ``import cavgate.cli`` times in fresh interpreters."""
    code = "import time; t = time.perf_counter(); import cavgate.cli; print(time.perf_counter() - t)"
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
        out.append(float(proc.stdout.strip()))
    return out


# --------------------------------------------------------------------------- tracing

def size_of_propagation(args, kwargs, result):
    """Steps that propagate(plan, state, t_grid) applied, from its arguments."""
    plan = args[0] if args else kwargs.get("p")
    t_grid = args[2] if len(args) > 2 else kwargs.get("t_grid")
    dt, matrix = getattr(plan, "dt", None), getattr(plan, "step_matrix", None)
    if dt is None or matrix is None or t_grid is None:
        return None
    import numpy as np
    return {"steps": int(round(float(np.max(t_grid)) / dt)), "dim": int(matrix.shape[0])}


def install_tracing(tracer: Tracer, cavgate) -> None:
    m, cli = cavgate.metrics, cavgate.cli
    shelving, propagator = cavgate.shelving, cavgate.propagator
    wraps = [
        (m, "gate_run", "metrics.gate_run"), (cli, "gate_run", "metrics.gate_run"),
        (m, "embed_qubit_state", "metrics.score"), (m, "conditional_fidelity", "metrics.score"),
        (m, "build_basis", "hilbert.build_basis"), (shelving, "build_basis", "hilbert.build_basis"),
        (m, "build_generator_lambda", "lambda_gate.build_generator"),
        (m, "validate_regime_lambda", "lambda_gate.validate_regime"),
        (cli, "validate_regime_lambda", "lambda_gate.validate_regime"),
        (m, "build_generator_raman", "raman_gate.build_generator"),
        (m, "validate_regime_raman", "raman_gate.validate_regime"),
        (cli, "validate_regime_raman", "raman_gate.validate_regime"),
        (propagator, "expm", "propagator.expm"),
        (shelving, "build_generator_shelving", "shelving.build_generator"),
        (shelving, "validate_regime_shelving", "shelving.validate_regime"),
        (cli, "validate_regime_shelving", "shelving.validate_regime"),
        (shelving, "survival_probability", "shelving.survival"),
        (cli, "survival_probability", "shelving.survival"),
        (cli, "fit_dark_time", "shelving.fit_dark_time"),
        (shelving, "dark_time", "shelving.dark_time"), (cli, "dark_time", "shelving.dark_time"),
    ]
    for module, attr, name in wraps:
        tracer.wrap(module, attr, name)
    tracer.wrap(m, "plan", "propagator.plan")
    tracer.wrap(m, "propagate", "propagator.propagate", describe=size_of_propagation)


def layer_metrics(spans: list, n_ops: int, import_s: float, overhead: float) -> dict:
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
    selfs = self_times(spans)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def per_op(x):
        return x / n_ops if n_ops else 0.0

    def total(name):
        return sum(dur(i) for i in by_name[name])

    def has_ancestor(i, test):
        return any(test(spans[a][0]) for a in ancestors(spans, i))

    in_shelving = {i for i in by_name["propagator.expm"]
                   if has_ancestor(i, lambda n: n.startswith("shelving."))}
    expm = [i for i in by_name["propagator.expm"] if i not in in_shelving]
    expm_in_plan = [i for i in expm if has_ancestor(i, lambda n: n == "propagator.plan")]
    plans_ok = sum(1 for i in by_name["propagator.plan"] if not spans[i][5])
    sized = [spans[i][5] for i in by_name["propagator.propagate"]
             if spans[i][5] and "steps" in spans[i][5]]
    steps = sum(s["steps"] for s in sized)
    prop_s = total("propagator.propagate")

    mains = by_name["cli.main"]
    labelled = defaultdict(list)
    for i in mains:
        labelled[spans[i][5]["label"]].append(dur(i) * 1e3)
    scans = [i for i in mains if spans[i][5]["label"].startswith("scan")]
    scan_gates = defaultdict(list)
    for j in by_name["metrics.gate_run"]:
        for a in ancestors(spans, j):
            if a in scans:
                scan_gates[a].append(j)

    values = {
        "hilbert.build_basis_s": per_op(total("hilbert.build_basis")),
        "hilbert.build_basis_calls": per_op(len(by_name["hilbert.build_basis"])),
        "lambda_gate.build_generator_s": per_op(total("lambda_gate.build_generator")),
        "lambda_gate.validate_regime_s": per_op(total("lambda_gate.validate_regime")),
        "raman_gate.build_generator_s": per_op(total("raman_gate.build_generator")),
        "propagator.plan_s": per_op(total("propagator.plan")),
        "propagator.plan_calls": per_op(len(by_name["propagator.plan"])),
        "propagator.expm_s": per_op(sum(dur(i) for i in expm)),
        "propagator.expm_calls": per_op(len(expm)),
        "propagator.plan_accept_ratio": plans_ok / (len(expm_in_plan) / 2) if expm_in_plan else 0.0,
        "propagator.propagate_s": per_op(prop_s),
        "propagator.total_steps": per_op(steps),
        "propagator.us_per_step": prop_s / steps * 1e6 if steps else 0.0,
        "propagator.block_dim": max((s["dim"] for s in sized), default=0),
        "propagator.step_flops_computed": per_op(sum(8 * s["dim"] ** 2 * s["steps"] for s in sized)),
        "metrics.self_s": per_op(sum(selfs[i] for i in by_name["metrics.gate_run"])),
        "metrics.score_s": per_op(total("metrics.score")),
        "shelving.survival_s": per_op(total("shelving.survival")),
        "shelving.fit_dark_time_s": per_op(total("shelving.fit_dark_time")),
        "shelving.expm_calls": per_op(len(in_shelving)),
        "cli.import_s": import_s,
        "cli.self_s": per_op(sum(selfs[i] for i in mains)),
        "cli.scan_jobs": max((len({spans[j][4] for j in g}) for g in scan_gates.values()), default=0),
        "cli.scan_overlap": (sum(dur(j) for g in scan_gates.values() for j in g)
                             / sum(dur(i) for i in scans)) if scans else 0.0,
        "trace.overhead_frac": overhead,
    }
    for cmd in wl.CLI_SESSION:
        times = labelled.get(cmd.label)
        values[f"cli.{cmd.label}_ms"] = statistics.median(times) if times else 0.0
    return values


def write_spans(spans: list, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = ("name", "start", "end", "parent", "thread", "info")
    with path.open("w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(dict(zip(keys, s))) + "\n")


# --------------------------------------------------------------------------- environment

def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be read."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            f = getattr(lib, fn, None)
            if f is not None:
                f.restype = ctypes.c_int
                return int(f())
    return None


def environment(seed: int) -> dict:
    import importlib
    import importlib.metadata as md
    import importlib.util
    import platform

    import numpy as np

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        kernels = importlib.import_module("cavgate._kernels")
    except ImportError:
        kernels = None
    enabled = getattr(kernels, "numba_enabled", None)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                        "MKL_NUM_THREADS") if k in os.environ},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_kernel_available": getattr(kernels, "NUMBA_AVAILABLE", None),
        "numba_kernel_enabled": enabled() if callable(enabled) else None,
        "python": platform.python_version(),
        "numpy": md.version("numpy"),
        "scipy": md.version("scipy"),
        "git_commit": commit,
        "seed": seed,
    }


# --------------------------------------------------------------------------- main

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("perturb_ref", "exit2", "stdout"),
                    help="fault injected to show that the correctness gates fire; used by smoke.py")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the set-up time and exit (the set-up probes)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    kind, points = wl.WORKLOADS[args.workload]
    require_checkout()
    cavgate = import_cavgate() if kind == "gate" or args.trace == 1 else None
    tally = Tally(load_references(args.inject == "perturb_ref"))
    tracer = Tracer()
    if kind == "gate":
        client = GateClient(cavgate, points)
    else:
        client = CliClient(args.inject, cavgate.cli if args.trace else None, tracer)
    client.warm_up(tally)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    pass_iter = wl.passes(client.items, args.seed)
    detail = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    if args.trace == 0:
        setup_samples = [setup_s]

        def probe_when_due(elapsed: float) -> None:
            # The probes are spread over the run, one at each fifth of it, so
            # that set-up sees the same spells of the host as the passes do.
            while (len(setup_samples) <= SETUP_PROBES
                   and elapsed >= len(setup_samples) * args.seconds / (SETUP_PROBES + 1)):
                setup_samples.append(setup_probe(args))

        passes = measure(client, tally, pass_iter, args.seconds, probe_when_due)
        probe_when_due(math.inf)                  # a run too short for all of them
        usage = resource.RUSAGE_CHILDREN if kind == "cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
        # Every figure is a median over passes.  A pass visits every point once,
        # so passes are alike, and the median pass discounts the slow spells of
        # a shared machine.
        pass_rate = [len(t) / wall for wall, t in passes]
        pass_p50 = [statistics.median(t) * 1e3 for _, t in passes]
        # The tail is taken per pass too.  A pass too short to have one
        # (raman_long_pulse, cli_cold) gives its slowest operation instead; on
        # cli_cold, one session a pass, that is the session itself.
        pass_tail = [tail_percentile([x * 1e3 for x in t]) for _, t in passes]
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": statistics.median(pass_rate),
            "op_ms_p50": statistics.median(pass_p50),
            "op_ms_tail": statistics.median(v for _, v, _ in pass_tail),
        }
        detail.update(setup_samples_s=setup_samples, measured_s=sum(w for w, _ in passes),
                      op_ms_tail={"percentile": pass_tail[0][0], "samples": len(passes[0][1]),
                                  "beyond": pass_tail[0][2], "passes": len(passes)},
                      pass_ops_per_s=[round(x, 4) for x in pass_rate],
                      pass_op_ms_p50=[round(x, 4) for x in pass_p50],
                      pass_op_ms_tail=[round(v, 4) for _, v, _ in pass_tail])
    else:
        half = args.seconds / 2.0
        base = measure(client, tally, pass_iter, half)
        install_tracing(tracer, cavgate)
        tracer.enabled = True
        traced = measure(client, tally, pass_iter, half)
        tracer.enabled = False
        tracer.restore()
        overhead = ms_per_op(traced) / ms_per_op(base) - 1.0
        import_s = statistics.median(import_probes()) if kind == "cli" else 0.0
        metrics = layer_metrics(tracer.spans, sum(len(t) for _, t in traced), import_s, overhead)
        spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(tracer.spans, spans_path)
        detail.update(untraced_ms_per_op=ms_per_op(base), traced_ms_per_op=ms_per_op(traced),
                      spans=len(tracer.spans), spans_file=str(spans_path.relative_to(ROOT)),
                      absent=tracer.absent)

    failed = len(tally.failures)
    anchors_ok = set(tally.anchor_err) == {p.anchor for p in points if p.anchor}
    errs = list(tally.anchor_err.values())
    if args.trace == 0:
        # an anchor without a valid result counts as the worst possible error, 1
        metrics.update(
            p0_err_max=max((e[0] for e in errs), default=1.0) if anchors_ok else 1.0,
            fidelity_err_max=max((e[1] for e in errs), default=1.0) if anchors_ok else 1.0,
            ops_ok_frac=(tally.attempted - failed) / tally.attempted,
            peak_rss_mb=peak_rss_mb,
        )
    correct = (failed == 0 and anchors_ok
               and all(p <= ANCHOR_TOL and f <= ANCHOR_TOL for p, f in errs))
    detail.update(
        attempted=tally.attempted, failed=failed, ops_failed_frac=failed / tally.attempted,
        failures=tally.failures[:MAX_FAILURES_SHOWN],
        anchors={k: {"p0_err": v[0], "fidelity_err": v[1]} for k, v in tally.anchor_err.items()},
        env=environment(args.seed),
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    result = {
        "correct": correct, "attempted": tally.attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
