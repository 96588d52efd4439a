"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload local_study --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end metrics; with ``--trace 1`` they are the per-layer metrics
of a traced run. ``--workload all`` runs every workload in turn, each in
its own interpreter. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("local_study", "rwr_sweep", "embed_reduced")
CHILD_TIMEOUT_S = 600


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measured time per run (at least one trial runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _single_blas_thread() -> None:
    """One BLAS thread, set before numpy loads: the loop is one process, and
    a second thread would make the RWR solve follow other tenants' load."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh interpreter, so each has its own peak RSS."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: exited with code {child.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, entry in result["metrics"].items():
            metrics[f"{name}.{key}"] = (entry["value"], entry["unit"])
    print(_result_line(correct, attempted, failed, metrics))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "linkpred").is_dir():
        print(f"error: no linkpred package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    _single_blas_thread()
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy and every linkpred layer

    print("env " + json.dumps(workloads.environment(args.seed)))
    if args.trace:
        result = workloads.run_traced(args.workload, args.seed, args.seconds)
    else:
        result = workloads.run_untraced(args.workload, args.seed, args.seconds)
    for note in result.notes:
        print(f"{args.workload} {note}")
    for name, (value, unit) in result.metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for problem in result.problems[:20]:
        print(f"{args.workload} FAILED {problem}", file=sys.stderr)
    print(_result_line(result.failed == 0, result.attempted, result.failed, result.metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
