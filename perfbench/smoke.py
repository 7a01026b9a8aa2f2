"""Smoke check of the benchmark itself: every workload at minimum size.

    python3 perfbench/smoke.py

Runs each workload for one pass, untraced and traced, and confirms that the
correctness gates fire when a fault is injected:

* a perturbed reference raises p0_err_max and makes the run incorrect;
* on cli_cold, a CLI call that exits with code 2, and a call whose stdout
  differs from an earlier identical call, each count as failed operations.

It also confirms that run.py, copied without the package next to it,
refuses to run and prints no result.  Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def bench(workload: str, *extra: str, script: Path = RUN, cwd: Path = ROOT):
    """(exit code, detail record, result record) of one minimum-size run."""
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if len(lines) < 2:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def value(result: dict, metric: str) -> float:
    return result["metrics"][metric]["value"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
        if not ok:
            failures.append(what)

    for w in sorted(wl.WORKLOADS):   # lambda_grid too, though BENCHMARK.json leaves it out
        rc, detail, base = bench(w, "--trace", "0")
        check(rc == 0 and base is not None and base["correct"] and base["failed"] == 0,
              f"{w}: clean run is correct with no failed operation")
        if base is None:
            continue
        check(end_to_end <= set(base["metrics"]), f"{w}: every end-to-end metric is reported")

        rc, detail, bad = bench(w, "--trace", "0", "--inject", "perturb_ref")
        check(bad is not None and not bad["correct"] and rc != 0
              and value(bad, "p0_err_max") > value(base, "p0_err_max"),
              f"{w}: a perturbed reference raises p0_err_max and fails the run")

        rc, detail, traced = bench(w, "--trace", "1")
        check(rc == 0 and traced is not None and traced["correct"]
              and set(traced["metrics"]) == per_layer,
              f"{w}: traced run is correct and reports every per-layer metric")

    for fault, reason in (("exit2", "exit code 2"), ("stdout", "stdout differs")):
        rc, detail, result = bench("cli_cold", "--trace", "0", "--inject", fault)
        check(result is not None and result["failed"] >= 1 and not result["correct"]
              and any(reason in f for f in detail["failures"]),
              f"cli_cold: injected {fault} counts as a failed operation ({reason})")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, detail, result = bench("raman_grid", "--trace", "0", script=bare / HERE.name / RUN.name,
                               cwd=bare)
    check(rc != 0 and result is None, "without the package, run.py exits non-zero with no result")
    shutil.rmtree(bare)

    print(f"\n{'all checks passed' if not failures else f'{len(failures)} check(s) failed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
