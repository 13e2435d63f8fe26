"""Benchmark of scflogic: one workload, one seed, one fresh process.

    python3 bench/run.py --workload property-check --seed 1 --seconds 20 --trace 0

Imports scflogic from src/ next to this directory, sets it up
SETUP_REPEATS times (fresh import, input files, warm-up), then runs one
pass over the workload's seeded operation list, timing each operation
with calibration to the reference speed (see calib.py).  After the pass
it reads the peak RSS, checks every output against the benchmark's own
computations and prints raw and scaled figures, then, as the last line,
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

With --trace 1 it runs the pass untraced, imports scflogic afresh, runs
the same list traced (see tracing.py), prints the per-layer metrics and
writes the spans to results/trace-<workload>-s<seed>.json.gz.  Every run
appends its record to results/runs.jsonl for compare.py.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

import calib
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5
MODULES = ("core", "logic", "parser", "encodings", "game", "decision", "axioms", "files", "cli")


def fresh_import() -> types.SimpleNamespace:
    """Import scflogic from src/ with every module-level cache empty."""
    for name in list(sys.modules):
        if name == "scflogic" or name.startswith("scflogic."):
            del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("scflogic")
    if Path(package.__file__).resolve().parent != SRC / "scflogic":
        raise ImportError(f"scflogic imported from {package.__file__}, not from {SRC}")
    sc = types.SimpleNamespace(**{m: importlib.import_module(f"scflogic.{m}") for m in MODULES})
    sc.stacked = importlib.import_module("scflogic._stacked")
    return sc


def run_pass(work, sc, cal: calib.Calibrator, tracer=None) -> list:
    """One pass; per operation (label, check, output, error, raw seconds,
    calibration factor)."""
    records = []
    for index, (label, run, check) in enumerate(work.ops()):
        gc.collect()
        if tracer is None:
            fn = lambda run=run: run(sc)
        else:
            tracer.current_op = index
            fn = lambda run=run: tracer.call("op", run, sc)
        records.append((label, check, *cal.timed(fn)))
    return records


def verify(records) -> int:
    """Number of failed operations; reasons go to stderr."""
    failed = 0
    for label, check, output, error, _, _ in records:
        reason = f"raised {error!r}" if error is not None else None
        if reason is None:
            try:
                reason = check(output)
            except Exception as exc:  # malformed output counts as a failure
                reason = f"output not checkable: {exc!r}"
        if reason is not None:
            failed += 1
            print(f"FAILED {label}: {reason}", file=sys.stderr)
    return failed


def op_times(records) -> tuple[list, list]:
    raw = [secs for *_, secs, _ in records]
    scaled = [secs * factor for *_, secs, factor in records]
    return raw, scaled


def summary(times: list, setups: list, rss: float) -> dict:
    total = sum(times)
    return {
        "ops_per_s": len(times) / total,
        "op_p50_ms": statistics.median(times) * 1000,
        "op_p90_ms": statistics.quantiles(times, n=10)[8] * 1000,
        "peak_rss_mib": rss,
        "setup_s": statistics.median(setups),
    }


UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def layer_metrics(tracer: tracing.Tracer, traced, untraced) -> tuple[dict, dict]:
    """Per-layer metrics (times scaled by their operation's factor) and
    the consistency figures of the trace."""
    factors = [factor for *_, factor in traced]
    own = tracer.self_times()
    per_name: dict = {}
    for (op, name), secs in own.items():
        per_name[name] = per_name.get(name, 0.0) + secs * factors[op]
    metrics = {
        metric: sum(per_name.get(n, 0.0) for n in names) * 1000
        for metric, names in tracing.SELF_TIME_METRICS.items()
    }
    counts = dict(tracer.counts)
    available = counts.pop("decision.models_available")
    metrics.update(counts)
    metrics["encodings.sharing"] = (
        counts["encodings.nodes_by_structure"] / counts["encodings.nodes_by_identity"]
        if counts["encodings.nodes_by_identity"]
        else 1.0
    )
    metrics["decision.visited_share"] = (
        counts["decision.models_visited"] / available if available else 0.0
    )
    _, traced_scaled = op_times(traced)
    _, untraced_scaled = op_times(untraced)
    metrics["trace.overhead"] = sum(traced_scaled) / sum(untraced_scaled)
    op_spans = sum(secs * factors[op] for (op, name), secs in own.items())
    root = [0.0] * len(traced)
    for idx, nid in enumerate(tracer.name):
        if tracer.names[nid] == "op":
            root[tracer.op[idx]] = tracer.end[idx] - tracer.start[idx]
    op_total = sum(r * f for r, f in zip(root, factors))
    consistency = {
        "layer_self_sum_ms": op_spans * 1000,
        "op_span_sum_ms": op_total * 1000,
        "bench_self_ms": per_name.get("op", 0.0) * 1000,
    }
    return metrics, consistency


LAYER_UNITS = {
    "files.loads": "count",
    "parser.chars": "count",
    "encodings.builds": "count",
    "encodings.nodes_by_identity": "count",
    "encodings.nodes_by_structure": "count",
    "encodings.sharing": "ratio",
    "logic.evaluators_built": "count",
    "decision.models_visited": "count",
    "decision.visited_share": "ratio",
    "stacked.mask_bits": "bits",
    "axioms.instances": "count",
    "game.oracle_calls": "count",
    "trace.overhead": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scflogic" / "__init__.py").is_file():
        print(f"error: no scflogic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    kind = workloads.WORKLOADS[args.workload]
    rounds = max(1, min(kind.max_rounds, round(args.seconds / kind.round_seconds)))
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        work = kind(args.seed, rounds, workdir)
        clock = calib.Clock()
        cal = calib.Calibrator(clock)

        def set_up():
            sc = fresh_import()
            work.write_inputs()
            work.warm(sc)
            return sc

        setups = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            sc, error, secs, factor = cal.timed(set_up)
            if error is not None:
                raise error
            setups.append((secs, factor))
        records = run_pass(work, sc, cal)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = verify(records)

        tracer = traced = None
        if args.trace:
            del sc
            sc = fresh_import()
            work.warm(sc)
            tracer = tracing.Tracer(clock)
            tracing.install(tracer, sc)
            traced = run_pass(work, sc, cal, tracer)
            failed += verify(traced)
    except ImportError as exc:
        print(f"error: cannot import scflogic: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw_times, scaled_times = op_times(records)
    raw_setups = [secs for secs, _ in setups]
    scaled_setups = [secs * factor for secs, factor in setups]
    raw = summary(raw_times, raw_setups, rss)
    scaled = summary(scaled_times, scaled_setups, rss)
    refs = cal.samples
    print(f"workload {args.workload} seed {args.seed} rounds {rounds}: {len(records)} operations,"
          f" {failed} failed; {len(refs)} reference samples, median"
          f" {statistics.median(refs) * 1000:.3f} ms (nominal {calib.REF_NOMINAL_S * 1000:.3f} ms)")
    print(f"{'metric':<16} {'raw':>12} {'scaled':>12} unit")
    for name in UNITS:
        print(f"{name:<16} {raw[name]:>12.4f} {scaled[name]:>12.4f} {UNITS[name]}")

    correct = True
    if args.trace:
        metrics, consistency = layer_metrics(tracer, traced, records)
        gap = abs(consistency["layer_self_sum_ms"] - consistency["op_span_sum_ms"])
        if gap > 1e-6 * consistency["op_span_sum_ms"]:
            print(f"trace inconsistent: {consistency}", file=sys.stderr)
            correct = False
        print("trace: " + json.dumps(consistency))
        for name, value in metrics.items():
            print(f"{name:<30} {value:>14.4f} {LAYER_UNITS.get(name, 'ms')}")
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"trace-{args.workload}-s{args.seed}.json.gz")
        reported = {k: {"value": v, "unit": LAYER_UNITS.get(k, "ms")} for k, v in metrics.items()}
    else:
        reported = {k: {"value": v, "unit": UNITS[k]} for k, v in scaled.items()}

    result = {
        "correct": correct,
        "attempted": len(records) + (len(traced) if traced else 0),
        "failed": failed,
        "metrics": reported,
    }
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "time": time.time(),
        "raw": raw, "scaled": scaled, "result": result,
        "ops": [[r[0], t, u] for r, t, u in zip(records, raw_times, scaled_times)],
    }
    with open(RESULTS / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
