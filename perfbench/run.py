"""Benchmark of singular-weyl: end-to-end pass metrics and traced per-layer
metrics for four workloads.

    python3 perfbench/run.py --workload verify-cli --seed 1 --seconds 28 --trace 0

Run from the repository root; the package is imported from ``src/``.  Load
is one parent running one child interpreter at a time (a closed loop with
one client).  Every pass is a fresh child, so no process-level cache carries
from one pass into the next, as for a user of the CLI or of pytest.  Passes
are started until the next one would end after ``--seconds``.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer ones
of the traced passes, plus the tracing overhead.  A human-readable summary
comes first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Full results, with the machine
and versions, are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = ".bench_out"
RUN_LIMIT_S = 170.0  # a run, timed-out children included, ends within this
MIN_PASSES = {0: 1, 1: 2}

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# stat -> (unit, value from one pass's layer dict); every stat but the
# times is an exact count that must repeat between traced passes
STATS = {
    "calls": ("count", lambda d: d.get("calls", 0)),
    "points": ("count", lambda d: d.get("points", 0)),
    "ktypes": ("count", lambda d: d.get("ktypes", 0)),
    "reuse_ratio": ("ratio", lambda d: _ratio(d.get("distinct", 0), d.get("calls", 0))),
    "kummer_share": ("ratio", lambda d: _ratio(d.get("kummer", 0), d.get("points", 0))),
    "max_abs_z": ("1", lambda d: d.get("max_abs_z", 0.0)),
    "evals_per_call": ("evals/call", lambda d: _ratio(d.get("evals", 0), d.get("calls", 0))),
    "clipped_ratio": ("ratio", lambda d: _ratio(d.get("clipped", 0), d.get("entries", 0))),
    "self_s": ("s", lambda d: d.get("self_s", 0.0)),
    "wall_s": ("s", lambda d: d.get("wall_s", 0.0)),
}
TIMES = ("self_s", "wall_s")

SWEEPS = ("contiguous", "harmonicity", "periodicity", "pde_kernel", "ladder", "heisenberg",
          "group_algebra")
LAYER_METRICS = [
    *(f"polynomials.{f}.{s}" for f in ("laplacian", "decompose_yj", "scaled_partial_harmonic",
                                       "harmonic_basis", "poly_mul") for s in ("calls", "self_s")),
    "polynomials.decompose_yj.reuse_ratio",
    *(f"hypergeometric.hyp1f1.{s}" for s in ("calls", "points", "self_s", "kummer_share",
                                              "max_abs_z")),
    "hypergeometric.hyp1f1_precise.calls",
    "hypergeometric.hyp1f1_precise.self_s",
    *(f"ktypes.eval_compact.{s}" for s in ("calls", "points", "self_s")),
    "ktypes.to_noncompact.calls",
    *(f"operators.fd_apply.{s}" for s in ("calls", "self_s", "evals_per_call")),
    "operators.ktype_steps.calls",
    "operators.ktype_steps.clipped_ratio",
    "operators.recover_E_coefficients.calls",
    "operators.recover_E_coefficients.self_s",
    "structure.ktype_lattice.ktypes",
    "structure.ktype_lattice.self_s",
    "admissibility.is_admissible.calls",
    "cli.main.self_s",
    *(f"verify.sweep_{s}.wall_s" for s in SWEEPS),
]
MODULE_TOTALS = [f"{m}.total.self_s" for m in (
    "admissibility", "polynomials", "hypergeometric", "ktypes", "operators", "structure",
    "verify", "cli")]
RUN_METRICS = {
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.self_s_sum": "s",
    "trace.spans": "count",
    "checks.residual_margin": "ratio",
    "checks.fail_ratio": "ratio",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    units = {name: STATS[name.rsplit(".", 1)[1]][0] for name in LAYER_METRICS}
    units.update({name: "s" for name in MODULE_TOTALS})
    units.update(RUN_METRICS)
    return units


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    # cli._resolve_seed lets this variable silently override --seed
    env.pop("SINGULAR_WEYL_SEED", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(root / "src")
    # a fixed string-hash seed keeps dict and set layouts, and so timings,
    # the same from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "platform": platform.platform()}


def spawn(units: list[dict], env: dict, deadline: float, spans_path: str | None = None,
          pass_index: int = 0) -> dict:
    """Run one child to completion or until ``deadline`` (a perf_counter
    value); a crash or timeout becomes a result whose units all failed."""
    args = [sys.executable, str(CHILD), repr(time.perf_counter()), json.dumps(units)]
    if spans_path is not None:
        args += [spans_path, str(pass_index)]
    proc = subprocess.Popen(args, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        stdout, stderr = "", "child timed out"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        problem = f"child exited {proc.returncode}: {stderr.strip()[-2000:]}"
        return {"crashed": True, "units": [
            {"name": u["name"], "ok": False, "problems": [problem], "margin": 0.0,
             "digest": None} for u in units]}
    if proc.returncode != 0:
        for unit in result["units"]:
            unit["ok"] = False
            unit["problems"].append(f"child exited {proc.returncode}")
    return result


def run_pass(plan: list[list[dict]], env: dict, root: Path, traced: bool, index: int,
             tag: str, deadline: float) -> dict:
    """All children of one pass, one after another."""
    children = []
    for c, units in enumerate(plan):
        spans_path = None
        if traced:
            spans_path = str(root / OUT_DIR / "spans" / f"{tag}-pass{index}-child{c}.json")
        children.append(spawn(units, env, deadline, spans_path, index))
    ok = [ch for ch in children if not ch.get("crashed")]
    record = {
        "traced": traced,
        "units": [u for ch in children for u in ch["units"]],
        "crashed": len(ok) < len(children),
    }
    if not record["crashed"]:
        record.update(
            children=[{k: ch[k] for k in ("setup_s", "wall_s", "cpu_s", "reference_s", "scaled")}
                      for ch in ok],
            setup_s=[ch["setup_s"] for ch in ok],
            pass_s=sum(ch["wall_s"] for ch in ok),
            cpu_s=sum(ch["cpu_s"] for ch in ok),
            scaled={
                "setup_s": [ch["scaled"]["setup_s"] for ch in ok],
                "pass_s": sum(ch["scaled"]["wall_s"] for ch in ok),
                "cpu_s": sum(ch["scaled"]["cpu_s"] for ch in ok),
            },
            peak_rss_mb=max(ch["rss_mb"] for ch in ok),
            versions={k: ok[0][k] for k in ("python", "numpy", "package")},
        )
        if traced:
            layers: dict[str, dict[str, float]] = {}
            for ch in ok:
                for name, stats in ch["layers"].items():
                    d = layers.setdefault(name, {})
                    for stat, value in stats.items():
                        if stat == "max_abs_z":
                            d[stat] = max(d.get(stat, 0.0), value)
                        else:
                            d[stat] = d.get(stat, 0) + value
            record["layers"] = layers
            record["spans"] = sum(ch["spans"] for ch in ok)
    return record


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def layer_values(layers: dict) -> dict[str, float]:
    """Per-layer metric values of one traced pass."""
    out = {}
    for name in LAYER_METRICS:
        span, stat = name.rsplit(".", 1)
        out[name] = STATS[stat][1](layers.get(span, {}))
    for name in MODULE_TOTALS:
        module = name.split(".", 1)[0]
        out[name] = sum(d.get("self_s", 0.0) for span, d in layers.items()
                        if span.startswith(module + "."))
    return out


def run_passes(args, plan: list[list[dict]], env: dict, root: Path, tag: str,
               deadline: float) -> list[dict]:
    """Start passes until the next one would end after --seconds; with
    --trace 1, untraced and traced passes alternate."""
    start = time.perf_counter()
    passes: list[dict] = []
    durations: dict[bool, list[float]] = {False: [], True: []}
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        began = time.perf_counter()
        passes.append(run_pass(plan, env, root, traced, len(passes), tag, deadline))
        durations[traced].append(time.perf_counter() - began)
        if any("timed out" in p for u in passes[-1]["units"] for p in u["problems"]):
            return passes
        traced_next = bool(args.trace) and len(passes) % 2 == 1
        expected = max(durations[traced_next] or durations[traced])
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES[args.trace] and elapsed + expected > args.seconds:
            return passes


def judge(passes: list[dict]) -> tuple[list[dict], list[str]]:
    """Every unit of the run, and the problems that make the run incorrect.
    Reports for equal inputs must be byte-identical across passes."""
    units = [u for p in passes for u in p["units"]]
    digests: dict[str, str] = {}
    for u in units:
        if u["digest"] is not None and digests.setdefault(u["name"], u["digest"]) != u["digest"]:
            u["ok"] = False
            u["problems"].append("report bytes differ from an earlier pass with the same seed")
    return units, [f"{u['name']}: {msg}" for u in units if not u["ok"] for msg in u["problems"]]


def end_to_end(untraced: list[dict]) -> tuple[dict, dict, float | None]:
    """Quartiles and count of each end-to-end metric, the unscaled medians,
    and the median reference_work time.

    Times are scaled, unit by unit, to a machine on which reference_work
    takes 0.1 s, timed in the same child just around the unit (see
    child.py), so that the host's speed drifting does not show as a change
    of the program.
    """
    scaled = {
        "setup_s": [s for p in untraced for s in p["scaled"]["setup_s"]],
        "pass_s": [p["scaled"]["pass_s"] for p in untraced],
        "cpu_s": [p["scaled"]["cpu_s"] for p in untraced],
        "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
    }
    raw = {
        "setup_s": [s for p in untraced for s in p["setup_s"]],
        "pass_s": [p["pass_s"] for p in untraced],
        "cpu_s": [p["cpu_s"] for p in untraced],
        "peak_rss_mb": scaled["peak_rss_mb"],
    }
    summary = {key: (*quartiles(values), len(values)) for key, values in scaled.items() if values}
    medians = {key: statistics.median(values) for key, values in raw.items() if values}
    references = [r for p in untraced for c in p["children"] for r in c["reference_s"]]
    return summary, medians, statistics.median(references) if references else None


def per_layer(traced: list[dict], untraced: list[dict], units: list[dict],
              problems: list[str]) -> dict[str, dict]:
    """Per-layer metrics of the traced passes: exact counts from the first
    (all must agree), times as medians, plus the tracing overhead."""
    if not traced:
        problems.append("no traced pass completed")
        return {}
    per_pass = [layer_values(p["layers"]) for p in traced]
    counts = [{k: v for k, v in values.items()
               if k.rsplit(".", 1)[1] not in TIMES and not k.endswith(".total.self_s")}
              for values in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("traced passes disagree on exact counts")
    metrics = {}
    for name, unit in per_layer_units().items():
        if name not in RUN_METRICS:
            values = [v[name] for v in per_pass]
            metrics[name] = {"value": statistics.median(values) if unit == "s" else values[0],
                             "unit": unit}
    self_sums = [sum(d.get("self_s", 0.0) for d in p["layers"].values()) for p in traced]
    for p, total in zip(traced, self_sums):
        if total > p["scaled"]["pass_s"] * (1 + 1e-9):
            problems.append(f"self times sum to {total:.4f} s > traced pass "
                            f"{p['scaled']['pass_s']:.4f} s")
    traced_s = statistics.median(p["scaled"]["pass_s"] for p in traced)
    self_sum = statistics.median(self_sums)
    failed = sum(not u["ok"] for u in units)
    values = {
        "trace.pass_s": traced_s,
        "trace.self_s_sum": self_sum,
        "trace.spans": traced[0]["spans"],
        "checks.residual_margin": max(u["margin"] for u in units),
        "checks.fail_ratio": _ratio(failed, len(units)),
    }
    if untraced:
        untraced_s = statistics.median(p["scaled"]["pass_s"] for p in untraced)
        values["trace.untraced_pass_s"] = untraced_s
        values["trace.overhead_s"] = traced_s - untraced_s
    else:
        problems.append("no untraced pass completed")
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": RUN_METRICS[name]}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                        help="input size; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    package = root / "src" / "singular_weyl" / "__init__.py"
    if not package.is_file():
        print(f"no src/singular_weyl under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    env = child_env(root)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_dir = root / OUT_DIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    for old in spans_dir.glob(f"{tag}-*.json"):
        old.unlink()
    plan = workloads.children(args.workload, args.seed, args.scale)

    # warm-up: compiles bytecode and fills the page cache; not measured
    deadline = time.perf_counter() + RUN_LIMIT_S
    warm = spawn([], env, deadline)
    if warm.get("crashed"):
        print(f"cannot start a child: {warm['units']}", file=sys.stderr)
        return 2
    if Path(warm["package"]).resolve() != package.resolve():
        print(f"child imported {warm['package']}, not {package}", file=sys.stderr)
        return 2

    passes = run_passes(args, plan, env, root, tag, deadline)
    units, problems = judge(passes)
    failed = sum(not u["ok"] for u in units)
    margin = max(u["margin"] for u in units)
    timed = [p for p in passes if not p["crashed"]]
    untraced = [p for p in timed if not p["traced"]]
    summary, raw, reference = end_to_end(untraced)
    if args.trace:
        metrics = per_layer([p for p in timed if p["traced"]], untraced, units, problems)
    else:
        metrics = {key: {"value": summary[key][1], "unit": unit}
                   for key, unit in END_TO_END.items() if key in summary}
    expected = per_layer_units() if args.trace else END_TO_END
    if metrics.keys() != expected.keys():
        problems.append(f"missing metrics: {sorted(expected.keys() - metrics.keys())}")

    env_info = {**machine(), **(timed[0]["versions"] if timed else {})}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  units {len(units)}")
    print("env " + json.dumps(env_info, sort_keys=True))
    if reference:
        print(f"  reference_work {reference:.4f} s median; times below are scaled to "
              f"0.1 s, unit by unit")
    for key, unit in END_TO_END.items():
        if key in summary:
            q1, q2, q3, n = summary[key]
            print(f"  {key:<16} {q2:12.4f} {unit:<6} median  (q1 {q1:.4f}, q3 {q3:.4f}, n={n}; "
                  f"unscaled median {raw[key]:.4f})")
    print(f"  {'residual_margin':<16} {margin:12.4g} {'ratio':<6} max residual / tolerance")
    print(f"  {'fail_ratio':<16} {_ratio(failed, len(units)):12.4f} {'ratio':<6} "
          f"{failed} of {len(units)} units failed")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<48} {m['value']:14.6g} {m['unit']}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "scale": args.scale, "env": env_info,
              "reference_s": reference, "unscaled": raw, "metrics": metrics,
              "problems": problems,
              "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes]}
    (root / OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not problems, "attempted": len(units), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
