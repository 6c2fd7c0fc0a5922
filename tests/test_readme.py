"""The README's library example runs against the installed names."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library example\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert block is not None, "no python block under '## Library example'"
    exec(compile(block.group(1), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    # the eta and E images are exact; the PDE residual is finite-difference noise
    assert lines[0] == "(-7.75+0j) F[8,5,2]"
    assert lines[1] == (
        "(0+10j) F[6,4,3] + (-0-0.688889j) F[6,5,3] + (0+15j) F[6,5,1] + (-0-0.459259j) F[6,6,1]"
    )
    assert abs(complex(lines[2].strip("[]"))) <= 1e-6
