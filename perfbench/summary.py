"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/summary.py BASE_DIR [NEW_DIR]

Each directory holds files with the captured stdout of run.py, one run per
file (any name).  For every workload and metric the summary prints each
side's median and quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median.  With
two directories it also prints the change of the median and, for the
end-to-end metrics, whether the medians agree within the bound that
BENCHMARK.json fixes (``ok``), or the change is better or worse by more
than the bound (``better``, ``WORSE``).  With one directory the bound
column says whether the spread is within the bound, which is how the
benchmark's steadiness is judged.

A run with ``"correct": false`` or any failed operation on the change side
(the last directory given) marks its workload ``INCORRECT``, whatever the
bounds say, and a workload without runs there is ``MISSING``.  The exit
code is 1 if any metric is worse or any workload is incorrect or missing.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read_run(path: Path):
    """(workload, trace flag, metrics, correct and no failed operation) of one
    captured run, or None if it holds no result."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.startswith("{")]
    if len(lines) < 2:
        return None
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    if "workload" not in detail or "metrics" not in result:
        return None
    values = {k: v["value"] for k, v in result["metrics"].items()}
    clean = result["correct"] is True and result["failed"] == 0
    return detail["workload"], detail["trace"], values, clean


def collect(directory: Path) -> tuple:
    """{(workload, trace): {metric: [values]}} and {(workload, trace): [clean flags]}."""
    runs, flags = defaultdict(lambda: defaultdict(list)), defaultdict(list)
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        run = read_run(path)
        if run is None:
            continue
        workload, trace, values, clean = run
        for k, v in values.items():
            runs[(workload, trace)][k].append(v)
        flags[(workload, trace)].append(clean)
    return runs, flags


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    collected = [collect(Path(a)) for a in argv]
    sides = [runs for runs, _ in collected]
    worse = flagged = 0
    for key in sorted(set().union(*sides)):
        workload, trace = key
        counts = [f"{len(flags[key])} runs, {flags[key].count(False)} incorrect"
                  for _, flags in collected]
        change_flags = collected[-1][1][key]
        verdict = " MISSING" if not change_flags else " INCORRECT" if False in change_flags else ""
        flagged += bool(verdict)
        print(f"\n{workload} ({'traced' if trace else 'untraced'}; " + " vs ".join(counts) + ")"
              + verdict)
        print(f"  {'metric':<34}" + "".join(f"{'median [q1, q3] spread':>44}" for _ in sides)
              + ("  change  bound" if len(sides) == 2 else "  bound"))
        for metric in sorted(set().union(*(s[key].keys() for s in sides))):
            cols, meds = "", []
            for s in sides:
                vals = s[key].get(metric)
                if not vals:
                    cols += f"{'-':>44}"
                    meds.append(None)
                    continue
                q1, med, q3 = quartiles(vals)
                meds.append(med)
                cols += f"{med:>14.6g} [{q1:.4g}, {q3:.4g}] {spread(vals):6.3f}".rjust(44)
            line = f"  {metric:<34}{cols}"
            m = e2e.get(metric) if not trace else None
            if len(sides) == 2 and None not in meds and meds[0]:
                change = (meds[1] - meds[0]) / abs(meds[0])
                line += f"  {change:+7.3f}"
                if m:
                    bad = change if m["better"] == "lower" else -change
                    verdict = "WORSE" if bad > m["bound"] else "better" if -bad > m["bound"] else "ok"
                    worse += verdict == "WORSE"
                    line += f"  {m['bound']:.2f} {verdict}"
            elif len(sides) == 1 and m and meds[0] is not None:
                within = spread(sides[0][key][metric]) <= m["bound"]
                line += f"  {m['bound']:.2f} {'steady' if within else 'UNSTEADY'}"
            print(line)
    return 1 if worse or flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
