"""dbrlab benchmark: end-to-end metrics per workload, or per-layer metrics traced.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each run starts WORKERS fresh worker processes one after another (one
caller, closed loop), splits --seconds of timed ops between them and pools
their samples. Set-up is timed per worker, from spawn to the end of its
warm-up op, and reported as the median. Every op's output goes through a
correctness gate; failed gates count in `failed`, and FAIL certificates of
true statements count in the verdict ratios. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import gen
import spans
import worker
from worker import OUT, SRC

WORKER = str(worker.HERE / "worker.py")

WORKLOADS = ("certify", "correspond", "cli")
WORKERS = 3
BLAS_THREADS = "1"  # one caller, one core: no BLAS thread contends with it
# a run must end within 180 s; a hung worker is killed before that
SLACK_S = 100
PROBE_TIMEOUT_S = 60
IMPORT_REPEATS = 3

END_TO_END = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verdict_ok_ratio": "ratio",
}
PER_LAYER = {
    "dirichlet.dmu_gram.self_s": "s",
    "dirichlet.dmu_gram.calls": "count",
    "dirichlet.gram_flops": "flop",
    "debranges.fplus.calls": "count",
    "debranges.fplus.self_s": "s",
    "debranges.hb_gram.self_s": "s",
    "debranges.hb_inner.self_s": "s",
    "operators.certify_nsd.self_s": "s",
    "operators.numerical_rank.self_s": "s",
    "operators.hyperexpansive_form.self_s": "s",
    "operators.rank1_defect_check.self_s": "s",
    "operators.ratio_identity_check.self_s": "s",
    "moments.recover_atoms.self_s": "s",
    "moments.recover_atoms.calls": "count",
    "hardy.calls": "count",
    "hardy.self_s": "s",
    "synthesis.verify_norm_equality.self_s": "s",
    "cli.import_s": "s",
    "cli.numpy_floor_s": "s",
    **{f"{layer}.share": "ratio" for layer in spans.LAYERS + ("cli",)},
    "linalg.eigensolve.calls": "count",
    "linalg.eigensolve.n3": "n3",
    "linalg.svd.calls": "count",
    "linalg.svd.n3": "n3",
    "trace.overhead_s": "s",
    "verdict.false_fail_ratio": "ratio",
    "verdict.error_ratio": "ratio",
    "operators.certify_nsd.false_fail_ratio": "ratio",
    "synthesis.verify_norm_equality.false_fail_ratio": "ratio",
}


def bench_env():
    """Environment of every process a run starts: BLAS pinned, this src/ first on the path."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_worker(env, workload, seed, seconds, trace, index, deadline):
    spawned = time.time()
    proc = subprocess.run(
        [sys.executable, WORKER, "work", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds / WORKERS), "--trace", str(trace),
         "--index", str(index), "--spawned", repr(spawned)],
        env=env, stdout=subprocess.PIPE, timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker {index} exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def median_wall(argv, env, repeats=IMPORT_REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timing(samples):
    """Median and the highest percentile with at least 10 samples beyond it."""
    s = sorted(samples)
    n = len(s)
    k = max(n - 11, 0)
    return {"n": n, "p50": statistics.median(s), "tail": s[k] if n > 10 else s[-1],
            "tail_pct": 100.0 * (k + 1) / n if n > 10 else 100.0}


def merge_counts(dicts):
    out = {}
    for d in dicts:
        for kind, (emitted, failed) in d.items():
            rec = out.setdefault(kind, [0, 0])
            rec[0] += emitted
            rec[1] += failed
    return out


def run_workload(name, seed, seconds, trace, env):
    deadline = time.monotonic() + seconds + SLACK_S
    results = [run_worker(env, name, seed, seconds, trace, k, deadline) for k in range(WORKERS)]
    ops = [o for r in results for o in r["ops"]]
    # an op that raised has no time; one that failed its gate still took its time
    timed = [o for o in ops if math.isfinite(o[1])]
    if not any(not o[2] for o in timed):
        raise RuntimeError(f"{name}: no untraced op completed")
    untraced = timing([o[1] for o in timed if not o[2]])
    verdicts = merge_counts(r["verdicts"] for r in results)
    emitted = sum(v[0] for v in verdicts.values())
    false_fails = sum(v[1] for v in verdicts.values())
    failed = sum(o[3] for o in ops)
    # the README promises byte-identical JSON for identical inputs
    mismatches = {}
    for r in results:
        for cmd, hashes in r.get("stdout_hashes", {}).items():
            mismatches.setdefault(cmd, set()).update(hashes)
    mismatched = {cmd: len(h) - 1 for cmd, h in mismatches.items() if len(h) > 1}
    failed = min(len(ops), failed + sum(mismatched.values()))
    errors = [e for r in results for e in r["errors"]]
    errors += [f"{cmd}: stdout differs across invocations" for cmd in mismatched]

    e2e = {
        "op_s.p50": untraced["p50"],
        "op_s.tail": untraced["tail"],
        "ops_per_s": untraced["n"] / sum(o[1] for o in timed if not o[2]),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in results) / 1024,
        "verdict_ok_ratio": 1 - false_fails / emitted,
    }
    out = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": len(ops),
        "failed": failed,
        "errors": errors[:10],
        "verdicts": verdicts,
        "samples": {
            "op_s": untraced["n"],
            "op_s.tail_percentile": untraced["tail_pct"],
            "setup_s": len(results),
            "peak_rss_mb": len(results),
            "certificates": emitted,
        },
        "end_to_end": e2e,
        "workers": [{"setup_s": r["setup_s"], "ops": r["ops"]} for r in results],
        "false_fail_ratio": false_fails / emitted,
        "error_ratio": failed / len(ops),
    }
    if trace:
        out["per_layer"] = per_layer(name, results, timed, untraced, verdicts, out, env)
    return out


def per_layer(name, results, timed, untraced, verdicts, out, env):
    traced = [o[1] for o in timed if o[2]]
    n_traced = len(traced)
    wall = sum(traced)
    names, layers = {}, {}
    for r in results:
        summary = r.get("trace", {}).get("all", {"names": {}, "layers": {}})
        for src, dst in ((summary["names"], names), (summary["layers"], layers)):
            for key, rec in src.items():
                acc = dst.setdefault(key, {"calls": 0, "self_s": 0.0})
                acc["calls"] += rec["calls"]
                acc["self_s"] += rec["self_s"]
    first = results[0].get("trace", {"first": {"names": {}, "layers": {}}, "first_ops": 1})
    first_ops = max(first["first_ops"], 1)
    work = [w for rec in first["first"]["names"].values() for w in rec["work"]]

    def self_s(key):
        table = names if key.count(".") else layers
        return table.get(key, {}).get("self_s", 0.0) / n_traced if n_traced else 0.0

    def calls(key):
        table = first["first"]["names"] if key.count(".") else first["first"]["layers"]
        return table.get(key, {}).get("calls", 0) / first_ops

    def ratio(kind):
        emitted, failed = verdicts.get(kind, [0, 0])
        return failed / emitted if emitted else 0.0

    import_s = median_wall([sys.executable, "-c", "import dbrlab"], env)
    m = {}
    for key in PER_LAYER:
        base, _, leaf = key.rpartition(".")
        if leaf == "self_s":
            m[key] = self_s(base)
        elif leaf == "calls" and base not in ("linalg.eigensolve", "linalg.svd"):
            m[key] = calls(base)
        elif leaf == "share" and base != "cli":
            m[key] = layers.get(base, {}).get("self_s", 0.0) / wall if wall else 0.0
    # a model of the dense V V^H product dmu_gram forms, 8 N^2 (N-1) real
    # flops per atom; not measured, so an algorithm change does not move it
    m["dirichlet.gram_flops"] = sum(8 * w[1] ** 2 * (w[1] - 1) * w[2] for w in work if w[0] == "gram") / first_ops
    # measured: every eigensolver and SVD call dbrlab made, with its size
    for kind, label in (("eig", "eigensolve"), ("svd", "svd")):
        sizes = [w[1] for w in work if w[0] == kind]
        m[f"linalg.{label}.calls"] = len(sizes) / first_ops
        m[f"linalg.{label}.n3"] = sum(s ** 3 for s in sizes) / first_ops
    m["cli.import_s"] = import_s
    m["cli.numpy_floor_s"] = median_wall([sys.executable, "-c", "import numpy"], env)
    m["cli.share"] = import_s / untraced["p50"] if name == "cli" else 0.0
    m["trace.overhead_s"] = statistics.median(traced) - untraced["p50"] if traced else 0.0
    m["verdict.false_fail_ratio"] = out["false_fail_ratio"]
    m["verdict.error_ratio"] = out["error_ratio"]
    m["operators.certify_nsd.false_fail_ratio"] = ratio("nsd")
    m["synthesis.verify_norm_equality.false_fail_ratio"] = ratio("norm-equality")
    out["samples"]["traced_ops"] = n_traced
    out["samples"]["count_ops"] = first_ops
    return {key: m[key] for key in PER_LAYER}


def report(res):
    s = res["samples"]
    lines = [f"== {res['workload']}  seed {res['seed']}  trace {res['trace']}  N={gen.N}  "
             f"workers={WORKERS} (closed loop, one caller)"]
    notes = {
        "op_s.p50": f"n={s['op_s']} ops",
        "op_s.tail": f"p{s['op_s.tail_percentile']:.1f}, n={s['op_s']} ops, 10 beyond",
        "ops_per_s": f"n={s['op_s']} ops",
        "setup_s": f"median of n={s['setup_s']} worker starts",
        "peak_rss_mb": f"median of n={s['peak_rss_mb']} workers",
        "verdict_ok_ratio": f"n={s['certificates']} certificates",
    }
    for key, value in res["end_to_end"].items():
        lines.append(f"  {key:<20} {value:>14.6g} {END_TO_END[key]:<6} ({notes[key]})")
    lines.append(f"  {'error_ratio':<20} {res['error_ratio']:>14.6g} {'ratio':<6} "
                 f"({res['failed']}/{res['attempted']} ops)")
    ff = sum(v[1] for v in res["verdicts"].values())
    lines.append(f"  {'false_fail_ratio':<20} {res['false_fail_ratio']:>14.6g} {'ratio':<6} "
                 f"({ff}/{s['certificates']} certificates; by kind "
                 + ", ".join(f"{k} {v[1]}/{v[0]}" for k, v in sorted(res["verdicts"].items())) + ")")
    for key, value in res.get("per_layer", {}).items():
        lines.append(f"  {key:<46} {value:>14.6g} {PER_LAYER[key]}")
    for e in res["errors"]:
        lines.append(f"  error: {e}")
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="timed seconds per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "dbrlab" / "__init__.py").is_file():
        print(f"error: no dbrlab sources under {SRC}", file=sys.stderr)
        return 2
    env = bench_env()
    # first import compiles the package, so no timed start pays for it
    probe = subprocess.run([sys.executable, WORKER, "env"], env=env,
                           stdout=subprocess.PIPE, timeout=PROBE_TIMEOUT_S)
    if probe.returncode != 0:
        print("error: dbrlab does not import from this checkout", file=sys.stderr)
        return 2
    environment = dict(json.loads(probe.stdout), seed=args.seed)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, args.trace, env) for n in names]
    OUT.mkdir(exist_ok=True)
    for res in results:
        res["environment"] = environment
        print(report(res))
        path = OUT / f"result-{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"environment": environment}, sort_keys=True))

    key = "per_layer" if args.trace else "end_to_end"
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for res in results:
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        for k, v in res[key].items():
            metrics[prefix + k] = {"value": v, "unit": units[k]}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
