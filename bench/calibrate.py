"""Regenerate bench/references.json: the gate's reference AUC per level.

    python3 bench/calibrate.py > bench/references.json

For every workload, graph and level it runs TRIALS partitions on each of
SEEDS (graphs and partitions both follow the seed, as in a benchmark run)
and records:

- ``auc``: the mean AUC over all those trials, the level's reference;
- ``sd_trial``: the pooled standard deviation of one trial's AUC around its
  seed's mean (partition-to-partition spread);
- ``sd_seed``: the standard deviation of a seed's true mean around the
  reference (graph-to-graph spread), with the partition noise of the
  per-seed means taken out.

A run of n partitions passes a level when its mean AUC lies within
``max(min_tolerance, z * sqrt(sd_seed**2 + sd_trial**2 / n))`` of the
reference (see ``workloads.Gate``). The floor keeps a level whose sd_seed
estimate comes out near 0 from failing long runs on graph-to-graph spread
that 20 seeds did not show. Per level, stderr shows the largest distance of a
per-seed mean from the reference, in units of that tolerance at n=TRIALS.
Run this only when a change is meant to move AUC, and say so in the change.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from linkpred import datasets, evaluate  # noqa: E402

SEEDS = range(1, 21)
TRIALS = 10  # per seed
EMBED_TRIALS = 2  # per seed for embed_reduced, whose trials take seconds
TRIAL_TOLERANCE = 0.1  # one trial's AUC against the reference: gross errors only
Z = 5.0  # a run's mean AUC against the reference, in standard deviations
MIN_TOLERANCE = 0.02  # ... but never tighter than this


def main() -> None:
    out: dict[str, dict] = {}
    for workload in workloads.WORKLOADS.values():
        factories = workload.factories()
        trials = EMBED_TRIALS if workload.name == "embed_reduced" else TRIALS
        aucs: dict[tuple[str, str], list[list[float]]] = {}  # level -> per seed -> per trial
        for seed in SEEDS:
            for name in workload.graphs:
                result = evaluate.run_experiment(
                    getattr(datasets, name)(seed), factories, trials=trials,
                    test_fraction=workloads.TEST_FRACTION,
                    comparisons=workloads.COMPARISONS, base_seed=seed + 1,
                )
                for level in result.levels():
                    aucs.setdefault((name, level), []).append(list(result.aucs(level)))
        refs = out.setdefault(workload.name, {})
        for (name, level), per_seed in aucs.items():
            ref = statistics.fmean(v for values in per_seed for v in values)
            sd_trial = math.sqrt(statistics.fmean(statistics.variance(v) for v in per_seed))
            seed_means = [statistics.fmean(v) for v in per_seed]
            sd_seed = math.sqrt(max(0.0, statistics.variance(seed_means) - sd_trial**2 / trials))
            refs.setdefault(name, {})[level] = {
                "auc": round(ref, 4), "sd_seed": round(sd_seed, 4), "sd_trial": round(sd_trial, 4),
            }
            tolerance = max(MIN_TOLERANCE, Z * math.sqrt(sd_seed**2 + sd_trial**2 / trials))
            worst = max(abs(m - ref) for m in seed_means)
            print(f"{workload.name} {name} {level}: ref {ref:.4f} sd_seed {sd_seed:.4f} "
                  f"sd_trial {sd_trial:.4f} worst seed mean {worst / tolerance:.2f} tolerances",
                  file=sys.stderr)
    print(json.dumps({"trial_tolerance": TRIAL_TOLERANCE, "z": Z, "min_tolerance": MIN_TOLERANCE,
                      "workloads": out}, indent=2))


if __name__ == "__main__":
    main()
