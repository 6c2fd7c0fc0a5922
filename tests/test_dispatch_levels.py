"""The 1F1 kernel tests at lower SIMD dispatch levels of numpy.

numpy picks its complex ``abs`` and multiply loops by the host's SIMD
level, and a kernel that writes in place could round differently at one
level only.  Each case reruns ``tests/test_hypergeometric.py`` and
``TestEvalCompactAll`` in a child interpreter whose ``NPY_DISABLE_CPU_FEATURES``
turns the wider dispatch targets off: AVX-512 (leaving AVX2), and AVX2 too
(leaving the x86-64-v2 baseline).  Only the child's environment changes.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
LEVELS = {"avx2": AVX512, "x86-64-v2": ("X86_V3", *AVX512)}
TESTS = ["tests/test_hypergeometric.py", "tests/test_ktypes.py::TestEvalCompactAll"]

# exits 0 when numpy imports with the setting and every named feature is
# known to it and off; an unknown name would be ignored silently
PROBE = """
import sys
import numpy
try:
    from numpy._core._multiarray_umath import __cpu_features__ as features
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__ as features
sys.exit(any(features.get(name, True) for name in sys.argv[1:]))
"""


@pytest.mark.parametrize("level", sorted(LEVELS))
def test_kernel_tests_pass_at_lower_dispatch(level):
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"dispatch levels are x86-64 names; this host is {platform.machine()}")
    disabled = LEVELS[level]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    probe = subprocess.run(
        [sys.executable, "-c", PROBE, *disabled], env=env, capture_output=True, text=True
    )
    if probe.returncode != 0:
        reason = (probe.stderr.strip().splitlines() or ["a feature stays on"])[-1]
        pytest.skip(f"numpy does not take NPY_DISABLE_CPU_FEATURES={disabled}: {reason}")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-2000:]
