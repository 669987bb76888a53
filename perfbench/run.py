"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0

Run from the repository root (or any checkout of it).  With
``--trace 0`` the last stdout line is one JSON object carrying every
end-to-end metric; with ``--trace 1`` the package's layers are wrapped
in timing spans and the object carries every per-layer metric instead.
Human-readable lines (each metric with its unit, the tail percentile
and its sample count, the model-accuracy statement) come first.  The
exit code is 0 when every check passed, 1 when a check failed, and 2
when the run could not start.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch and output space inside the checkout (ignored by git).
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("paper-grid", "mesh-scale", "warm-replay")

#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "cell_s.p50": "s",
    "cell_s.tail": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "speedup.hybrid.mean": "x",
    "speedup.paper_err": "fraction",
}

#: span name -> (self-time metric, call-count metric or None)
SPAN_METRICS = {
    "sim.run": ("sim.run_s", "sim.runs"),
    "sim.init": ("sim.init_s", None),
    "compiler.compile": ("compiler.compile_s", "compiler.compiles"),
    "compiler.profile": ("compiler.profile_s", None),
    "isa.interp": ("isa.interp_s", "isa.interp_runs"),
    "workloads.build": ("workloads.build_s", "workloads.builds"),
    "cache.key": ("cache.key_s", "cache.keys"),
    "cache.load": ("cache.load_s", "cache.loads"),
    "cache.store": ("cache.store_s", "cache.stores"),
    "runner.decode": ("runner.decode_s", None),
    "runner.encode": ("runner.encode_s", None),
    "journal.replay": ("journal.replay_s", None),
    "journal.record": ("journal.record_s", "journal.records"),
    "runner.cell": ("runner.self_s", "runner.cells"),
}


def per_layer_names() -> List[str]:
    """Every per-layer metric, in report order."""
    from repro.sim.stats import STALL_CATEGORIES

    return [
        name for pair in SPAN_METRICS.values() for name in pair if name is not None
    ] + [
        "sim.cycles", "sim.ops", "sim.mode.coupled", "sim.mode.decoupled",
        *(f"sim.stall.{category}" for category in STALL_CATEGORIES),
        "sim.l1d_misses", "sim.l1i_misses", "sim.messages", "sim.tx_commits", "sim.tx_aborts",
        "sim.busy_frac", "sim.kcycles_per_s", "cache.hit_ratio", "cache.quarantined",
        "runner.failed_frac", "trace.cells_per_s", "trace.spans",
    ]


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "kcycles/s" if name.startswith("sim.") else "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "fraction"
    if name.startswith(("sim.stall.", "sim.mode.")) or name == "sim.cycles":
        return "cycles"
    return "count"


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed budget: whole passes run while another fits (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """Content hash of the package and benchmark sources: model results
    recorded under one digest are comparable run to run."""
    digest = hashlib.sha256()
    paths = sorted((SRC / "repro").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def setup_seconds(workload: str, seed: int, work: Path) -> float:
    """Median cold set-up time over fresh interpreters."""
    times = []
    for probe in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
             workload, str(seed), str(work / f"setup{probe}")],
            check=True, capture_output=True, text=True, timeout=120,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def record_path(args: argparse.Namespace, suffix: str) -> Path:
    """Where runs of this workload, seed and source tree leave what a
    later run compares against."""
    return WORK / "record" / f"{args.workload}-seed{args.seed}-{source_digest()}{suffix}"


def check_model_record(args: argparse.Namespace, model: Dict[str, float]) -> List[str]:
    """The exact model summary must not depend on tracing or on the run:
    the first run of a (workload, seed, sources) records it, every later
    one must match it."""
    path = record_path(args, ".model.json")
    if path.exists():
        recorded = json.loads(path.read_text())
        differ = sorted(k for k in set(recorded) | set(model) if recorded.get(k) != model.get(k))
        return [f"model differs from an earlier run of this seed: {differ}"] if differ else []
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(model, sort_keys=True))
    os.replace(tmp, path)
    return []


def measure(args: argparse.Namespace, work: Path) -> Dict[str, object]:
    from perfbench.arith import failed_frac, tail
    from perfbench.hostspeed import HostClock
    from perfbench.spans import Tracer, instrument
    from perfbench.workloads import WORKLOADS, model_counts

    setup_s = setup_seconds(args.workload, args.seed, work)
    workload = WORKLOADS[args.workload]()
    errors = workload.prime(args.seed, work)
    tracer, clock = Tracer(), HostClock()
    outcomes, models = [], []
    # per timed pass, in rescaled seconds: (cells per second, median
    # cell seconds, tail), plus the unscaled cells per second
    per_pass, raw_rates = [], []
    timed = 0.0
    quarantined = 0
    with instrument(tracer) if args.trace else contextlib.nullcontext():
        while True:
            pass_dir = workload.prepare(work, len(models))
            clock.sample()
            with tracer.recording() if args.trace else contextlib.nullcontext():
                out = workload.run_pass(args.seed, pass_dir, tracer, clock)
            clock.sample()
            raw = clock.raw(out.start, out.end)
            timed += raw
            outcomes.extend(out.outcomes)
            latencies = [o.seconds * clock.factor(o.start) for o in out.outcomes]
            per_pass.append((len(latencies) / clock.scaled(out.start, out.end),
                             statistics.median(latencies), tail(latencies)))
            raw_rates.append(len(latencies) / raw)
            quarantined += sum(r.failure_summary().cache_quarantined for r in out.runners)
            failed = [f"{o.cell}: {o.status}" for o in out.outcomes if o.status != "ok"]
            if failed:
                errors.append(f"failed cells: {failed}")
                break
            errors.extend(workload.check(out))
            counts = model_counts(r.stats for r in out.results.values())
            models.append({**workload.model(out), **counts})
            shutil.rmtree(pass_dir)
            if timed + raw > args.seconds:
                break
            del out  # release this pass's results before the next one runs
    if any(model != models[0] for model in models):
        errors.append("model summary changed between passes")
    if models:
        errors.extend(check_model_record(args, models[0]))

    passes = max(1, len(models))
    report: Dict[str, object] = {
        "errors": errors,
        "attempted": len(outcomes),
        "failed": sum(o.status != "ok" for o in outcomes),
        "passes": passes,
        "raw_cells_per_s": statistics.median(raw_rates),
        "host_factor": statistics.median(clock.factor(t) for t, _, _ in clock.samples),
    }
    if not args.trace:
        _, tail_pct, samples = per_pass[0][2]
        report["tail"] = (tail_pct, samples, len(per_pass))
        report["metrics"] = {
            "setup_s": setup_s,
            "cells_per_s": statistics.median(rate for rate, _, _ in per_pass),
            "cell_s.p50": statistics.median(p50 for _, p50, _ in per_pass),
            "cell_s.tail": statistics.median(cell_tail[0] for _, _, cell_tail in per_pass),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - failed_frac(o.status for o in outcomes),
            "speedup.hybrid.mean": models[0]["speedup.hybrid.mean"] if models else 0.0,
            "speedup.paper_err": models[0]["speedup.paper_err"] if models else 0.0,
        }
        return report

    tracer.dump(WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    self_times, calls = tracer.self_times(clock.factor), tracer.counts()
    layer: Dict[str, float] = {}
    for span, (time_name, count_name) in SPAN_METRICS.items():
        layer[time_name] = self_times.get(span, 0.0) / passes
        if count_name:
            layer[count_name] = calls.get(span, 0) / passes
    simulated = {
        key: value if key == "sim.busy_frac" else value / passes
        for key, value in model_counts(tracer.sim_stats).items()
    }
    if tracer.sim_stats and models and any(simulated[k] != models[0][k] for k in simulated):
        errors.append("traced simulator counts differ from the cells' results")
    layer.update(simulated)
    layer["sim.kcycles_per_s"] = (
        layer["sim.cycles"] / layer["sim.run_s"] / 1000 if layer["sim.run_s"] else 0.0
    )
    loads = calls.get("cache.load", 0)
    layer["cache.hit_ratio"] = tracer.cache_hits / loads if loads else 0.0
    layer["cache.quarantined"] = quarantined / passes
    layer["runner.failed_frac"] = failed_frac(o.status for o in outcomes)
    layer["trace.cells_per_s"] = statistics.median(rate for rate, _, _ in per_pass)
    layer["trace.spans"] = len(tracer.spans) / passes
    names = per_layer_names()
    if set(layer) != set(names):
        raise RuntimeError(f"per-layer metrics out of step: {sorted(set(layer) ^ set(names))}")
    report["metrics"] = {name: layer[name] for name in names}
    return report


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = perf_counter()
    try:
        report = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = report["metrics"]
    units = END_TO_END_UNITS if not args.trace else {k: per_layer_unit(k) for k in metrics}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {report['passes']}  cells {report['attempted']}  "
          f"wall {perf_counter() - started:.1f} s")
    for name, value in metrics.items():
        print(f"  {name:24s} {value:.6g} {units[name]}")
    if not args.trace:
        pct, samples, counted = report["tail"]
        print(f"  cell_s.tail is p{pct:.2f} over the {samples} cells of a pass; cells_per_s, "
              f"cell_s.p50 and cell_s.tail are medians over {counted} pass(es)")
        print(f"  host seconds are rescaled to the nominal host (median factor "
              f"{report['host_factor']:.3f}); unscaled cells_per_s {report['raw_cells_per_s']:.6g}")
        print("  model accuracy: speedup.paper_err is the mean |relative error| of the suite "
              "averages against the paper's Figs. 10, 11 and 13 averages cited in EXPERIMENTS.md; "
              "absolute cycle counts are not comparable to the paper's testbed.")
        if args.workload == "mesh-scale":
            print("  speedup.hybrid.mean is at 64 cores: unvalidated, the paper has no "
                  "reference at that size; paper_err here covers the six benchmarks' "
                  "Fig. 13 averages only.")
    throughput = record_path(args, ".cells_per_s")
    if not args.trace:
        throughput.parent.mkdir(parents=True, exist_ok=True)
        throughput.write_text(repr(metrics["cells_per_s"]))
    elif throughput.exists():
        untraced, traced = float(throughput.read_text()), metrics["trace.cells_per_s"]
        print(f"  tracing overhead: {untraced / traced - 1:+.1%} (untraced {untraced:.4g}, "
              f"traced {traced:.4g} cells/s at this seed)")
    for error in report["errors"]:
        print(f"  CHECK FAILED: {error}")
    correct = not report["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
