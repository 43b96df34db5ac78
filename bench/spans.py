"""In-memory spans around every public dbrlab function, installed from outside.

`install` replaces each public function of the layer modules by a timing
wrapper on every dbrlab module object that holds it, including names one
module imports from another (`synthesis.hb_gram`, `moments.numerical_rank`),
so cross-layer calls nest as child spans. It also wraps the numpy and scipy
eigensolvers and SVD that dbrlab calls, so the work counts are the calls the
program really makes. Nothing under src/ is edited, and an untraced run
never calls `install`.
"""

import functools
import importlib
import inspect
import time

LAYERS = ("hardy", "dirichlet", "debranges", "operators", "moments", "synthesis")
ROOT = "op"  # the benchmark's own span around one op; not a layer


# The eigensolvers and SVDs dbrlab calls, counted with the shape they receive
# while a traced op runs: (module, attribute, kind).
LINALG = (
    ("numpy.linalg", "eigvalsh", "eig"),
    ("numpy.linalg", "eigh", "eig"),
    ("numpy.linalg", "eigvals", "eig"),
    ("scipy.linalg", "eigh", "eig"),
    ("numpy.linalg", "svd", "svd"),
)


def _gram_model(args, kwargs):
    """A model, not a measurement: the size and atom count dmu_gram receives.

    run.py turns it into 8 N^2 (N-1) flops per atom, the cost of the dense
    V V^H product dmu_gram forms today.
    """
    n = args[1] if len(args) > 1 else kwargs["n"]
    return ("gram", int(n), len(args[0]))


class Tracer:
    """Spans as [name, parent index, start, end, work] in call order.

    work lists the linalg calls made while the span was the innermost one
    open, as (kind, n), plus the Gram model on dmu_gram spans.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        model = _gram_model if name == "dirichlet.dmu_gram" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else None, 0.0, 0.0,
                    [model(args, kwargs)] if model else []]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()

        traced.bench_span = name
        return traced

    def count(self, kind, fn):
        """fn, recording (kind, n) on the innermost open span at each call."""

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if self._stack:
                self.spans[self._stack[-1]][4].append((kind, int(min(a.shape[-2:]))))
            return fn(a, *args, **kwargs)

        counted.bench_span = kind
        return counted

    def root(self, fn, *args):
        """Run one op under a root span; returns its result."""
        return self.wrap(ROOT, fn)(*args)


def _modules():
    pkg = importlib.import_module("dbrlab")
    return [pkg] + [importlib.import_module(f"dbrlab.{m}") for m in LAYERS]


def _linalg_modules():
    return [importlib.import_module(name) for name in sorted({m for m, _, _ in LINALG})]


def install(tracer):
    """Wrap every public layer function everywhere it is bound, and count the
    linalg calls; returns an undo list."""
    mods = _modules()
    wrappers = {}
    for mod in mods[1:]:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                wrappers[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    undo = []
    for mod in mods:
        for attr, fn in list(vars(mod).items()):
            if inspect.isfunction(fn) and fn in wrappers:
                undo.append((mod, attr, fn))
                setattr(mod, attr, wrappers[fn])
    for name, attr, kind in LINALG:
        mod = importlib.import_module(name)
        fn = getattr(mod, attr)
        undo.append((mod, attr, fn))
        setattr(mod, attr, tracer.count(kind, fn))
    return undo


def uninstall(undo):
    for mod, attr, fn in undo:
        setattr(mod, attr, fn)


def wrapped_names():
    """Names on dbrlab and linalg modules that currently hold a wrapper."""
    return sorted(
        f"{mod.__name__}.{attr}"
        for mod in _modules() + _linalg_modules()
        for attr, fn in vars(mod).items()
        if hasattr(fn, "bench_span")
    )


def self_times(spans):
    """Per-span self time: duration minus the durations of its direct children.

    Children run inside their parent and one after another, so their
    durations never overlap and their sum is the time they cover.
    """
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] is not None:
            out[s[1]] -= s[3] - s[2]
    return out


def summarize(spans):
    """Totals per span name and per layer: calls, self seconds, work records."""
    names = {}
    layers = {}
    for span, self_s in zip(spans, self_times(spans)):
        name = span[0]
        rec = names.setdefault(name, {"calls": 0, "self_s": 0.0, "work": []})
        rec["calls"] += 1
        rec["self_s"] += self_s
        rec["work"].extend(span[4])
        if name != ROOT:
            lrec = layers.setdefault(name.split(".", 1)[0], {"calls": 0, "self_s": 0.0})
            lrec["calls"] += 1
            lrec["self_s"] += self_s
    return {"names": names, "layers": layers}
