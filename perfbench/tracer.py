"""In-process span tracing of the hamlearn layers.

`Tracer.install()` wraps every public function of the layer modules and
patches the wrapper into the defining module and into every hamlearn module
that imported the function by name (``hamlearn.cli.load_dataset`` as well as
``hamlearn.taskgen.load_dataset``).  `uninstall()` puts the originals back.
No file of the package changes.

A span is ``[name, start, end, parent, error, note]``; spans stay in memory
and are aggregated after the run.  `note` is what the function's entry in
`notes` computed from its arguments and result (a row count, a path),
evaluated after the span's end time so it is not part of the span.

The program is single-threaded, so spans nest strictly and a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from time import perf_counter

# The product-path modules.  tape, _backend and network are not on any CLI
# path and are not traced.
LAYERS = ("cli", "config", "taskgen", "physics", "metalearn", "fastops",
          "evaluation")

NAME, START, END, PARENT, ERROR, NOTE = range(6)


def public_functions(module):
    """Functions defined in `module` whose names do not start with `_`."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, notes=None):
        self.spans = []
        self.notes = notes or {}  # span name -> f(args, kwargs, result)
        self._stack = []
        self._patched = []  # (namespace dict, attribute, original)

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        note = self.notes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            spans.append(span)
            stack.append(idx)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def install(self, package="hamlearn", layers=LAYERS):
        """Patch the public functions of `package.<layer>` for each layer."""
        wrappers = {}  # id(original) -> wrapper
        for layer in layers:
            module = importlib.import_module(f"{package}.{layer}")
            for fname, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn))
        prefix = package + "."
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package
                                      or modname.startswith(prefix)):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((namespace, attr, value))
                    namespace[attr] = hit[1]

    def uninstall(self):
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# -- aggregation --------------------------------------------------------------


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def by_name(spans, own):
    """name -> dict(calls, s, self_s, durations, errors, indices)."""
    out = {}
    for i, s in enumerate(spans):
        agg = out.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                       "durations": [], "errors": 0,
                                       "indices": []})
        d = s[END] - s[START]
        agg["calls"] += 1
        agg["s"] += d
        agg["self_s"] += own[i]
        agg["durations"].append(d)
        agg["indices"].append(i)
        if s[ERROR] is not None:
            agg["errors"] += 1
    return out


def enclosing(spans, idx, name=None, prefix=None):
    """Index of the innermost span around span `idx` that is called `name`
    (or whose name starts with `prefix`), or -1 when there is none."""
    p = spans[idx][PARENT]
    while p >= 0:
        n = spans[p][NAME]
        if n == name or (prefix is not None and n.startswith(prefix)):
            return p
        p = spans[p][PARENT]
    return -1


def quantile(values, q):
    """Inclusive quantile q (a whole percentage, 0.01-0.99) of a sample."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
