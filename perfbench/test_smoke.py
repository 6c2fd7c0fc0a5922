"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every declared metric is printed with its unit, that outputs
are judged correct, that a second traced run repeats every exact count, and
that the benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
EXACT_STATS = ("calls", "points", "ktypes", "reuse_ratio", "kummer_share", "max_abs_z",
               "evals_per_call", "clipped_ratio", "spans")


def run(workload: str, trace: int, cwd: Path = ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return out


def parse(out):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return lines[:-1], result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    summary, result = parse(run(workload, 0))
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    shown = {**declared, "residual_margin": "ratio", "fail_ratio": "ratio"}
    for name, unit in shown.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in summary), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    _, first = parse(run(workload, 1))
    _, second = parse(run(workload, 1))
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: m["unit"] for k, m in first["metrics"].items()} == declared
    exact = [k for k in declared if k.rsplit(".", 1)[1] in EXACT_STATS]
    assert len(exact) > 20
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    m = first["metrics"]
    assert m["trace.spans"]["value"] > 0
    assert m["trace.self_s_sum"]["value"] <= m["trace.pass_s"]["value"]


def test_tracer_rebinds_every_lookup_site():
    script = """
import singular_weyl
from singular_weyl import hypergeometric, ktypes, operators, polynomials, verify
from tracing import Tracer
Tracer().install(singular_weyl)
for fn in (verify.fd_apply, operators.fd_apply, operators.decompose_yj, polynomials.decompose_yj,
           ktypes.hyp1f1, hypergeometric.hyp1f1, singular_weyl.hyp1f1,
           ktypes.KTypeVector.eval_compact, polynomials.Polynomial.__mul__):
    assert hasattr(fn, "__wrapped__"), fn
assert verify.fd_apply is operators.fd_apply
"""
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT / "perfbench",
                         env={"PYTHONPATH": f"{ROOT / 'src'}:{ROOT / 'perfbench'}"},
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
