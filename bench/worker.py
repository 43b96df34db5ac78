"""One benchmark worker process: set up, run timed ops in a closed loop, report.

Started by run.py, one at a time. Set-up is import, input generation and one
warm-up op; run.py times it from the moment it spawned this process. The
last line of stdout is the worker's result as JSON.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import clicmds
import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
OP_STRIDE = 100000  # op i = worker index * OP_STRIDE + position j
WARMUP = OP_STRIDE - 1


def import_dbrlab():
    """Import dbrlab from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import dbrlab

    if Path(dbrlab.__file__).resolve().parent != SRC / "dbrlab":
        raise SystemExit(f"dbrlab imported from {dbrlab.__file__}, not from {SRC}")
    return dbrlab


def environment():
    """What a result depends on besides the code: machine, versions, threads."""
    import_dbrlab()
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class InProcess:
    """certify / correspond: the op runs dbrlab in this process."""

    def __init__(self, workload, seed, trace):
        import_dbrlab()
        import inproc

        self.make, self.op, self.gate = inproc.WORKLOADS[workload]
        self.seed = seed
        self.tracer = spans.Tracer() if trace else None

    def input(self, i, j):
        return self.make(self.seed, i, j)

    def run(self, inp, traced):
        """(seconds, verdicts, errors) of one op; the gate runs after the clock stops."""
        undo = spans.install(self.tracer) if traced else None
        t0 = time.perf_counter()
        try:
            verdicts, out = self.tracer.root(self.op, inp) if traced else self.op(inp)
        finally:
            dt = time.perf_counter() - t0
            if undo:
                spans.uninstall(undo)
        return dt, verdicts, self.gate(inp, out)

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Cli:
    """cli: the op is one `python -m dbrlab.cli` subprocess; this process stays light."""

    def __init__(self, seed, index):
        self.tracer = None
        self.offset = 2 * index  # workers start the command cycle at different points
        self.workdir = OUT / f"tmp-{os.getpid()}"
        self.stdout_hashes = {}
        self.inp = gen.cli_input(seed)
        clicmds.write_inputs(self.inp, self.workdir)

    def input(self, i, j):
        """The command for position j; every command reads the run's one input set."""
        return (self.offset + j) % len(clicmds.COMMANDS)

    def run(self, cmd, traced):
        t0 = time.perf_counter()
        proc = clicmds.run(cmd, self.inp, self.workdir)
        dt = time.perf_counter() - t0
        name = clicmds.COMMANDS[cmd][0]
        self.stdout_hashes.setdefault(name, set()).add(hashlib.sha256(proc.stdout).hexdigest())
        verdicts, errors = clicmds.check(cmd, self.inp, proc)
        return dt, verdicts, errors

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def work(args):
    cli = args.workload == "cli"
    w = Cli(args.seed, args.index) if cli else InProcess(args.workload, args.seed, args.trace)
    base = args.index * OP_STRIDE
    try:
        # set-up ends with one warm-up op on the hardest stratum; not counted
        w.run(w.input(base + WARMUP, gen.STRATA - 1), False)
        setup_s = time.time() - args.spawned

        ops, verdicts, errors = [], {}, []
        first_cut = None
        t_loop = time.perf_counter()
        j = 0
        # a traced run always completes a traced block, whose work counts
        # must repeat exactly for a seed, and an untraced one to compare with
        while time.perf_counter() - t_loop < args.seconds or (args.trace and j < 2 * gen.STRATA):
            traced = bool(args.trace and not cli and (j // gen.STRATA) % 2 == 0)
            inp = w.input(base + j, j)
            try:
                dt, vs, errs = w.run(inp, traced)
            except Exception as e:  # one op failing must not end the run
                traceback.print_exc(file=sys.stderr)
                dt, vs, errs = float("nan"), [], [f"{type(e).__name__}: {e}"]
            ops.append([j, dt, int(traced), int(bool(errs))])
            for kind, passed in vs:
                rec = verdicts.setdefault(kind, [0, 0])
                rec[0] += 1
                rec[1] += not passed
            errors += errs
            j += 1
            if j == gen.STRATA and w.tracer:
                first_cut = len(w.tracer.spans)
        result = {
            "setup_s": setup_s,
            "ops": ops,
            "verdicts": verdicts,
            "errors": errors[:10],
            "peak_rss_kb": w.peak_rss_kb(),
        }
        if cli:
            result["stdout_hashes"] = {k: sorted(v) for k, v in w.stdout_hashes.items()}
        if w.tracer:
            result["trace"] = trace_summary(w, args, first_cut, write=args.index == 0)
        return result
    finally:
        if cli:
            w.close()


def trace_summary(w, args, first_cut, write):
    """Span totals over all traced ops and over the first block; may write the block's spans."""
    recorded = w.tracer.spans
    first = recorded[:first_cut]
    if write:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with path.open("w") as f:
            for k, s in enumerate(first):
                f.write(json.dumps({"id": k, "parent": s[1], "name": s[0],
                                    "start": s[2], "end": s[3], "work": s[4]}) + "\n")
    return {
        "all": spans.summarize(recorded),
        "first": spans.summarize(first),
        "first_ops": sum(1 for s in first if s[0] == spans.ROOT),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    sub = p.add_subparsers(dest="mode", required=True)
    sub.add_parser("env", help="print the environment record")
    w = sub.add_parser("work", help="run one worker")
    w.add_argument("--workload", required=True, choices=("certify", "correspond", "cli"))
    w.add_argument("--seed", type=int, required=True)
    w.add_argument("--seconds", type=float, required=True, help="timed-loop budget")
    w.add_argument("--trace", type=int, choices=(0, 1), required=True)
    w.add_argument("--index", type=int, required=True, help="worker number within the run")
    w.add_argument("--spawned", type=float, required=True,
                   help="time.time() when the parent spawned this process")
    args = p.parse_args(argv)
    print(json.dumps(environment() if args.mode == "env" else work(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
