"""The benchmark still runs against the package.  A traced pass reads
package names and argument positions directly (the methods and hooked
arguments in ``perfbench/tracing.py``, ``config.DEFAULT_FD``), so renaming
one of them fails here rather than only in a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced_tiny_pass(workload: str) -> None:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1", "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stderr


def test_traced_verify_cli_pass_is_correct():
    _traced_tiny_pass("verify-cli")


def test_traced_pde_kernel_pass_is_correct():
    # the weight-string path through the fd_apply and ktype_steps hooks
    _traced_tiny_pass("pde-kernel")


def test_traced_exact_harmonic_pass_is_correct():
    # the exact layer through the Polynomial.__mul__ hook
    _traced_tiny_pass("exact-harmonic")
