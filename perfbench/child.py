"""One pass of a workload in a fresh interpreter; started by ``run.py``.

    python3 perfbench/child.py SPAWN_TIME UNITS_JSON [SPANS_PATH PASS_INDEX]

SPAWN_TIME is the parent's ``time.perf_counter()`` just before the spawn
(CLOCK_MONOTONIC, so comparable across processes).  With SPANS_PATH the
modules are traced and the spans written there.  Around its units the
child times ``reference_work``, a fixed computation outside the package,
and scales each unit's times to a reference machine speed.
Prints one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy
import singular_weyl

ready = time.perf_counter()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402


REFERENCE_S = 0.1  # times are scaled to a machine where reference_work takes this


def reference_work() -> None:
    """Fixed interpreter and small-array numpy work, like the package's mix."""
    from fractions import Fraction

    acc, table = Fraction(0), {}
    for i in range(1, 12000):
        acc += Fraction(i % 97, i % 89 + 1)
        key = (i % 50, i % 7)
        table[key] = table.get(key, 0) + i
    z = numpy.linspace(0.1, 2.0, 50) + 0j
    for _ in range(3000):
        z = z * (1.0001 + 0.0001j) / (1.0 + 1e-5)
        float(numpy.abs(z).max())


def timed_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def main(argv: list[str]) -> dict:
    spawn, units = float(argv[0]), json.loads(argv[1])
    tracer = None
    if len(argv) > 2:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(singular_weyl)
    # reference_work is timed twice before the first unit, once between
    # units and twice after the last, so each unit is scaled by the host's
    # speed just around it
    marks = [[timed_reference(), timed_reference()]]
    outputs = []
    windows = []  # (start, end, cpu, scale) per unit
    for i, spec in enumerate(units):
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            outputs.append((workloads.call(spec), None))
        except Exception:  # a unit that raises is a failed unit; the pass goes on
            outputs.append((None, traceback.format_exc()))
        end, cpu = time.perf_counter(), time.process_time() - start_cpu
        marks.append([timed_reference() for _ in range(2 if i == len(units) - 1 else 1)])
        windows.append((start, end, cpu, REFERENCE_S / statistics.mean(marks[-2] + marks[-1])))
    if not units:
        marks.append([timed_reference(), timed_reference()])
    outer = REFERENCE_S / statistics.mean(marks[0] + marks[-1])
    results = []
    for spec, (out, error) in zip(units, outputs):
        if error is None:
            try:
                results.append(workloads.check(spec, out))
            except (KeyError, TypeError, ValueError):
                error = traceback.format_exc()
        if error is not None:
            results.append({"name": spec["name"], "ok": False, "problems": [error],
                            "margin": 0.0, "digest": None})
    result = {
        "setup_s": ready - spawn,
        "wall_s": sum(end - start for start, end, _, _ in windows),
        "cpu_s": sum(cpu for _, _, cpu, _ in windows),
        "scaled": {
            "setup_s": (ready - spawn) * outer,
            "wall_s": sum((end - start) * f for start, end, _, f in windows),
            "cpu_s": sum(cpu * f for _, _, cpu, f in windows),
        },
        "reference_s": [r for mark in marks for r in mark],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "package": os.path.abspath(singular_weyl.__file__),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "units": results,
    }
    if tracer is not None:
        result["layers"] = tracer.layers(
            lambda t: next((f for start, end, _, f in windows if start <= t <= end), outer)
        )
        result["spans"] = len(tracer.spans)
        tracer.dump(argv[2], int(argv[3]))
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
