"""Compare two sets of benchmark runs, such as a parent commit and a change.

    python3 bench/compare.py PARENT CHANGE

PARENT and CHANGE are run records as run.py appends them to
results/runs.jsonl: a .jsonl file, or a directory whose .jsonl files are
read.  Untraced runs are compared on the end-to-end metrics, traced runs
on the per-layer metrics, each workload on its own rows.

For every workload and metric it prints each side's median and
quartiles, the share of pairs the change won (runs are paired by seed,
otherwise by order; ties count for neither side) and a verdict:

* improved   - the change won at least 9/10 of the pairs and its median is
               better by more than the parent's interquartile spread;
* worse      - the change's median is worse by more than the metric's bound
               in BENCHMARK.json (for per-layer metrics, which have none:
               lost 9/10 of the pairs by more than the parent's spread);
* unresolved - the parent's spread is wider than the bound, so no regression
               within the bound can be excluded, unless every change run
               reads better than every parent run;
* unchanged  - otherwise.

It reports only; its exit code does not depend on the verdicts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> list[dict]:
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    runs = []
    for file in files:
        with open(file, encoding="utf-8") as handle:
            runs += [json.loads(line) for line in handle if line.strip()]
    return runs


def series(runs: list[dict], workload: str, trace: int, metric: str) -> dict:
    """seed -> value (the latest run of a seed wins), in run order."""
    out: dict = {}
    for run in runs:
        if run["workload"] == workload and run["trace"] == trace:
            entry = run["result"]["metrics"].get(metric)
            if entry is not None:
                out[run["seed"]] = entry["value"]
    return out


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: dict, change: dict, better: str, bound) -> tuple[str, float, tuple, tuple]:
    sign = 1 if better == "higher" else -1
    shared = [s for s in parent if s in change]
    if shared:
        pairs = [(parent[s], change[s]) for s in shared]
    else:
        pairs = list(zip(parent.values(), change.values()))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p_q = quartiles(list(parent.values()))
    c_q = quartiles(list(change.values()))
    gap = sign * (c_q[1] - p_q[1])  # positive when the change is better
    spread = p_q[2] - p_q[0]
    share = wins / len(pairs) if pairs else 0.0
    if pairs and share >= 0.9 and gap > spread:
        word = "improved"
    elif bound is None:
        worse = pairs and losses / len(pairs) >= 0.9 and -gap > spread
        word = "worse" if worse else "unchanged"
    elif -gap > bound * abs(p_q[1]):
        word = "worse"
    elif spread > bound * abs(p_q[1]) and not all(
        sign * (c - p) > 0 for c in change.values() for p in parent.values()
    ):
        word = "unresolved"
    else:
        word = "unchanged"
    return word, share, p_q, c_q


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK)
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    workloads = [w["name"] for w in spec["workloads"]]
    header = (
        f"{'workload':<15} {'metric':<29} {'parent q1/median/q3':>32}"
        f" {'change q1/median/q3':>32} {'won':>5}  verdict"
    )
    print(header)
    for workload in workloads:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            for m in metrics:
                p = series(parent, workload, trace, m["name"])
                c = series(change, workload, trace, m["name"])
                if not p or not c:
                    continue
                word, share, p_q, c_q = verdict(p, c, m["better"], m.get("bound"))
                fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
                print(
                    f"{workload:<15} {m['name']:<29} {fmt(p_q):>32} {fmt(c_q):>32}"
                    f" {share:>5.0%}  {word} (n={len(p)}/{len(c)})"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
