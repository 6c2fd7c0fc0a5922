"""Workload definitions for the singular-weyl benchmark.

A workload is a list of children per pass; a child is a list of units; a
unit is one call into the package with inputs drawn from the benchmark seed.
The parent (``run.py``) only builds the unit specs, so it never imports the
package or numpy.  The child (``child.py``) runs them with ``call`` and
checks what they returned with ``check``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

WORKLOADS = ("verify-cli", "exact-harmonic", "pde-kernel", "contiguous-precise")

# (n, q, preset) of the two `singular-weyl verify` configurations users run.
VERIFY_CONFIGS = ((3, 0, "schrodinger"), (4, 2, "heat"))
PRESETS = ("schrodinger", "heat")

SIZES = {
    "full": {
        "verify-cli": {"lam_max": 12, "m_max": 6},
        "exact-harmonic": {"n_max": 5, "k_max": 4},
        "pde-kernel": {"n_max": 4, "lam_max": 30, "m_max": 14, "points": 50},
        "contiguous-precise": {"samples": 1000},
    },
    "tiny": {
        "verify-cli": {"lam_max": 4, "m_max": 2},
        "exact-harmonic": {"n_max": 3, "k_max": 3},
        "pde-kernel": {"n_max": 2, "lam_max": 6, "m_max": 4, "points": 5},
        "contiguous-precise": {"samples": 20},
    },
}

HARMONIC_CHECKS = (
    "harmonic/dimension-formula",
    "harmonic/laplacian-kernel",
    "harmonic/yj-decomposition",
)
# Every check name a `verify` report must carry, whatever the seed.
VERIFY_CHECK_PREFIXES = (
    "contiguous/",
    *HARMONIC_CHECKS,
    "ktypes/periodicity",
    "operators/pde-kernel",
    "operators/ladder-closed-form",
    "operators/eta-boundary-kills",
    "operators/heisenberg-lsq",
    "operators/heisenberg-rational-coefficients",
    "operators/heisenberg-shipped-match",
    "operators/eigenvalue-shifts",
    "operators/group-vs-algebra",
)


def children(workload: str, seed: int, scale: str = "full") -> list[list[dict]]:
    """The unit specs of one pass, grouped by child interpreter.

    The same (workload, seed, scale) always gives the same specs, so every
    pass of a run repeats the same work.  A unit's name carries the seed the
    package receives, so a failure line is enough to reproduce it.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    size = SIZES[scale][workload]
    rng = random.Random(f"{workload}/{seed}")

    def draw() -> int:
        return rng.randrange(1, 2**31)

    if workload == "verify-cli":
        # one child per CLI invocation, as a user running it twice pays
        out = []
        for n, q, preset in VERIFY_CONFIGS:
            unit_seed = draw()
            argv = [
                "verify", "--n", str(n), "--q", str(q), "--preset", preset,
                "--lambda-max", str(size["lam_max"]), "--m-max", str(size["m_max"]),
                "--seed", str(unit_seed),
            ]
            name = f"n{n}-q{q}-{preset}-seed{unit_seed}"
            out.append([{"kind": workload, "name": name, "argv": argv}])
        return out
    if workload == "exact-harmonic":
        return [[{"kind": workload, "name": "harmonicity", **size}]]
    if workload == "pde-kernel":
        units = []
        for preset in PRESETS:
            for n in range(1, size["n_max"] + 1):
                unit_seed = draw()
                units.append({
                    "kind": workload, "name": f"n{n}-{preset}-seed{unit_seed}", "n": n,
                    "q": n % 4, "preset": preset, "lam_max": size["lam_max"],
                    "m_max": size["m_max"], "points": size["points"], "seed": unit_seed,
                })
        return [units]
    unit_seed = draw()
    return [[{"kind": workload, "name": f"contiguous-seed{unit_seed}",
              "samples": size["samples"], "seed": unit_seed}]]


def call(spec: dict):
    """Run one unit; this is the timed region of a pass."""
    from singular_weyl import cli, verify
    from singular_weyl.admissibility import S_PRESETS, ParameterSet

    kind = spec["kind"]
    if kind == "verify-cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(spec["argv"])
        return {"rc": rc, "text": buf.getvalue()}
    if kind == "exact-harmonic":
        return verify.sweep_harmonicity(spec["n_max"], spec["k_max"])
    if kind == "pde-kernel":
        params = ParameterSet(n=spec["n"], q=spec["q"], s=S_PRESETS[spec["preset"]])
        return verify.sweep_pde_kernel(
            params, spec["lam_max"], spec["m_max"], spec["points"], spec["seed"]
        )
    return verify.sweep_contiguous(spec["samples"], spec["seed"])


def _check_list(checks: list[dict]) -> tuple[list[str], float]:
    """Problems found in a list of check dicts, and the largest
    max_residual / tolerance over the checks that have a tolerance."""
    problems = []
    margin = 0.0
    for c in checks:
        name, status = c.get("check"), c.get("status")
        res, tol = c.get("max_residual"), c.get("tolerance")
        if status not in ("PASS", "WARN", "FAIL") or res is None or tol is None:
            problems.append(f"{name}: malformed check")
            continue
        if status == "FAIL":
            problems.append(f"{name}: FAIL ({res:.3g} > {tol:.3g})")
        elif res > tol:
            problems.append(f"{name}: {status} with residual {res:.3g} above tolerance {tol:.3g}")
        if tol > 0:
            margin = max(margin, res / tol)
    return problems, margin


def check(spec: dict, out) -> dict:
    """Judge one unit's output: ok, the reasons it is not, its residual
    margin and, for reports, a digest of the report bytes."""
    from singular_weyl.hypergeometric import RELATIONS

    kind = spec["kind"]
    problems: list[str] = []
    digest = None
    if kind == "verify-cli":
        if out["rc"] != 0:
            problems.append(f"exit code {out['rc']}")
        digest = hashlib.sha256(out["text"].encode()).hexdigest()
        report = json.loads(out["text"])
        checks = report["checks"]
        argv = spec["argv"]
        echo = report["params"]
        if [echo["n"], echo["q"], echo["seed"]] != [
            int(argv[argv.index(flag) + 1]) for flag in ("--n", "--q", "--seed")
        ]:
            problems.append("report parameters differ from the command line")
        if report["ok"] is not True or report["summary"]["FAIL"] != 0:
            problems.append("report not ok")
        names = [c["check"] for c in checks]
        for prefix in VERIFY_CHECK_PREFIXES:
            if not any(name.startswith(prefix) for name in names):
                problems.append(f"missing check {prefix}")
    else:
        checks = out
        names = sorted(c["check"] for c in checks)
        if kind == "exact-harmonic":
            expected = list(HARMONIC_CHECKS)
        elif kind == "pde-kernel":
            expected = ["operators/pde-kernel"]
            if checks and (checks[0]["points"] != spec["points"] or checks[0]["ktypes"] < 1):
                problems.append("pde-kernel swept the wrong points or no K-types")
        else:
            expected = sorted(f"contiguous/{name}" for name in RELATIONS)
            if any(c["points"] != spec["samples"] for c in checks):
                problems.append("contiguous sweep used the wrong sample count")
        if names != expected:
            problems.append(f"checks {names} differ from {expected}")
    found, margin = _check_list(checks)
    problems += found
    return {
        "name": spec["name"],
        "ok": not problems,
        "problems": problems,
        "margin": margin,
        "digest": digest,
    }
