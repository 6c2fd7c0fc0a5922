"""Span tracing of the singular-weyl modules, installed from outside.

``Tracer.install`` wraps every public function of each module, plus the
methods listed in ``METHODS``, and rebinds the wrapper at every place the
name is looked up: the defining module, each module that imported it by
name, and the package namespace.  Spans are kept in memory as
(name, start, end, parent) and written out by ``dump``.  Besides spans, a
few wrappers count work at the boundary (points, distinct keys, Kummer
branch use, clipped steps); these counts are exact and repeat between runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = (
    "admissibility", "polynomials", "hypergeometric", "ktypes",
    "operators", "structure", "verify", "cli",
)

# span name -> (module, class, attribute)
METHODS = {
    "polynomials.poly_mul": ("polynomials", "Polynomial", "__mul__"),
    "ktypes.eval_compact": ("ktypes", "KTypeVector", "eval_compact"),
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        self._keys: set = set()

    # -- counters at the boundary ------------------------------------

    def _hooks(self, np, package):
        counts = self.counts
        DEFAULT_FD = package.config.DEFAULT_FD
        SpaceTimeFunction = package.ktypes.SpaceTimeFunction

        def hyp1f1(args, kwargs, out):
            z = np.asarray(_arg(args, kwargs, 2, "z"), dtype=np.complex128).ravel()
            c = counts["hypergeometric.hyp1f1"]
            c["points"] += z.size
            c["kummer"] += int(np.count_nonzero(z.real < 0))
            if z.size:
                c["max_abs_z"] = max(c["max_abs_z"], float(np.max(np.abs(z))))

        def eval_compact(args, kwargs, out):
            y = np.asarray(_arg(args, kwargs, 2, "y"), dtype=float)
            counts["ktypes.eval_compact"]["points"] += 1 if y.ndim == 1 else y.shape[0]

        def fd_apply_before(args, kwargs):
            # count the rows f is evaluated at inside the operator
            f = _arg(args, kwargs, 1, "f")
            inner = f.batch
            c = counts["operators.fd_apply"]

            def batch(pts):
                c["evals"] += int(np.shape(pts)[0])
                return inner(pts)

            counted = SpaceTimeFunction(f.n, batch)
            if len(args) > 1:
                return args[:1] + (counted,) + args[2:], kwargs
            return args, {**kwargs, "f": counted}

        def ktype_steps(args, kwargs, out):
            fd = _arg(args, kwargs, 3, "fd", DEFAULT_FD)
            c = counts["operators.ktype_steps"]
            c["entries"] += out.size
            c["clipped"] += int(np.count_nonzero((out == fd.min_step) | (out == fd.base_step * 10)))

        def decompose_yj(args, kwargs, out):
            self._keys.add((_arg(args, kwargs, 0, "h"), _arg(args, kwargs, 1, "j")))
            counts["polynomials.decompose_yj"]["distinct"] = len(self._keys)

        def ktype_lattice(args, kwargs, out):
            counts["structure.ktype_lattice"]["ktypes"] += len(out)

        return {
            "hypergeometric.hyp1f1": (None, hyp1f1),
            "ktypes.eval_compact": (None, eval_compact),
            "operators.fd_apply": (fd_apply_before, None),
            "operators.ktype_steps": (None, ktype_steps),
            "polynomials.decompose_yj": (None, decompose_yj),
            "structure.ktype_lattice": (None, ktype_lattice),
        }

    # -- wrapping -----------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def install(self, package) -> None:
        import numpy as np

        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        hooks = self._hooks(np, package)
        wrappers = {}  # id(original) -> (original, wrapper)
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(name, obj, *hooks.get(name, (None, None))))
        for name, (short, cls_name, attr) in METHODS.items():
            cls = getattr(modules[short], cls_name)
            setattr(cls, attr, self._wrap(name, getattr(cls, attr), *hooks.get(name, (None, None))))
        for mod in (*modules.values(), package):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    # -- results ------------------------------------------------------

    def layers(self, scale_at=lambda t: 1.0) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time, outermost inclusive time, and
        the boundary counters.  Each span's times are multiplied by
        ``scale_at(its start)``."""
        spans = self.spans
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self_time = [end - start for _, start, end, _ in spans]
        for name, start, end, parent in spans:
            if parent >= 0:
                self_time[parent] -= end - start
        for i, (name, start, end, parent) in enumerate(spans):
            d = out[name]
            scale = scale_at(start)
            d["calls"] += 1
            d["self_s"] += self_time[i] * scale
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                d["wall_s"] += (end - start) * scale
        for name, counters in self.counts.items():
            out[name].update(counters)
        return {name: dict(d) for name, d in out.items()}

    def dump(self, path: str, pass_index: int) -> None:
        """Write the spans as (name, start, end, parent, pass) rows."""
        names = sorted({s[0] for s in self.spans})
        ids = {name: i for i, name in enumerate(names)}
        rows = [[ids[n], start, end, parent, pass_index] for n, start, end, parent in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "pass"],
                       "names": names, "spans": rows}, fh)
