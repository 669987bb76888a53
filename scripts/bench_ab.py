"""Same-box A/B of the repository benchmark between two revisions.

    python3 scripts/bench_ab.py --base <rev> --workload warm-replay --seeds 1 7 --pairs 10

Exports fresh ``git archive`` copies of ``--base`` and ``HEAD``
(uncommitted edits are not included) into a temporary directory,
removed afterwards, then runs ``perfbench/run.py`` in each copy for
the ``run_seconds`` that ``BENCHMARK.json`` fixes, in alternating
pairs -- base first on even pairs, head first on odd ones -- so host
drift lands on both sides alike.  Both copies run with
``PYTHONDONTWRITEBYTECODE=1`` and without any ``__pycache__``: every
interpreter compiles the sources from scratch, so a stale or missing
bytecode cache on one side cannot masquerade as a ``setup_s`` gap.

For every seed it prints, per end-to-end metric of ``BENCHMARK.json``,
the median and interquartile range of each side, the ratio of the
medians, and in how many pairs the head was better.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

REPO = Path(__file__).resolve().parents[1]
SIDES = ("base", "head")


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision compared against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    return parser.parse_args(argv)


def export(rev: str, dest: Path) -> Path:
    """A fresh copy of ``rev`` at ``dest``, with no bytecode caches."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    for cache in dest.rglob("__pycache__"):
        shutil.rmtree(cache)
    return dest


def run_once(copy: Path, workload: str, seed: int, seconds: str) -> Dict[str, float]:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", "0"],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if report is None or not report["correct"]:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{copy.name}: seed {seed} run failed (exit {done.returncode})")
    return {name: entry["value"] for name, entry in report["metrics"].items()}


def spread(values: List[float]) -> Tuple[float, float]:
    """(median, interquartile range)."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def summarize(runs: Dict[str, List[Dict[str, float]]], declared: List[dict]) -> List[str]:
    lines = [f"  {'metric':22s} {'base median':>12s} {'IQR':>10s} {'head median':>12s} "
             f"{'IQR':>10s} {'head/base':>10s} {'head better':>12s}"]
    for metric in declared:
        name = metric["name"]
        base = [run[name] for run in runs["base"]]
        head = [run[name] for run in runs["head"]]
        (b_med, b_iqr), (h_med, h_iqr) = spread(base), spread(head)
        ratio = f"{h_med / b_med:.3f}" if b_med else "-"
        lower = metric["better"] == "lower"
        better = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        lines.append(f"  {name:22s} {b_med:12.6g} {b_iqr:10.3g} {h_med:12.6g} {h_iqr:10.3g} "
                     f"{ratio:>10s} {better:>6d}/{len(base):<5d}")
    return lines


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="bench_ab-"))
    try:
        copies = {
            "base": export(args.base, work / "base"),
            "head": export("HEAD", work / "head"),
        }
        benchmark = json.loads((copies["head"] / "BENCHMARK.json").read_text())
        declared, seconds = benchmark["end_to_end"], str(benchmark["run_seconds"])
        results: Dict[int, Dict[str, List[Dict[str, float]]]] = {}
        for seed in args.seeds:
            runs: Dict[str, List[Dict[str, float]]] = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    runs[side].append(run_once(copies[side], args.workload, seed, seconds))
                print(f"seed {seed} pair {pair + 1}/{args.pairs}: cells_per_s "
                      f"base {runs['base'][-1]['cells_per_s']:.4g} "
                      f"head {runs['head'][-1]['cells_per_s']:.4g}", flush=True)
            results[seed] = runs
        print(f"\n{args.workload}: {args.base} (base) vs HEAD (head), "
              f"{args.pairs} alternating pair(s) per seed, --seconds {seconds}")
        for seed, runs in results.items():
            print(f"seed {seed}")
            print("\n".join(summarize(runs, declared)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
