"""Regenerate bench/baseline.json: every workload, untraced and traced, per seed.

    python3 bench/baseline.py

Runs run.py as a subprocess for each seed in SEEDS, untraced and traced,
for BENCHMARK.json's run_seconds, so each figure comes from exactly what
the benchmark command prints. Stores the per-seed results with the median
over seeds.
"""

import json
import statistics
import subprocess
import sys

import run
import worker

SEEDS = (1, 2, 3)


def main():
    seconds = json.loads((worker.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    per_seed = {}
    for seed in SEEDS:
        for trace in (0, 1):
            subprocess.run(
                [sys.executable, str(worker.HERE / "run.py"), "--workload", "all",
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                check=True, stdout=subprocess.DEVNULL,
            )
            for name in run.WORKLOADS:
                path = worker.OUT / f"result-{name}-seed{seed}-trace{trace}.json"
                result = json.loads(path.read_text())
                environment = result.pop("environment")
                environment.pop("seed")  # each run keeps its own seed
                del result["workers"]  # raw op samples stay in bench/out
                per_seed.setdefault(name, {}).setdefault(str(seed), {})[f"trace{trace}"] = result

    baseline = {"seconds": seconds, "seeds": list(SEEDS), "environment": environment,
                "workloads": {}}
    for name, seeds in per_seed.items():
        runs = list(seeds.values())
        median = {}
        for section, trace in (("end_to_end", "trace0"), ("per_layer", "trace1")):
            keys = runs[0][trace][section]
            median[section] = {k: statistics.median(r[trace][section][k] for r in runs) for k in keys}
        for ratio in ("false_fail_ratio", "error_ratio"):
            median[ratio] = statistics.median(r["trace0"][ratio] for r in runs)
        baseline["workloads"][name] = {"median": median, "runs": seeds}
    (worker.HERE / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
