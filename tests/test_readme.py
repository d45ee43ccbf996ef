import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs():
    # The README's "Library use" example, run as written: the documented API
    # cannot drift from the package's.
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, f"{README}: Library use", "exec"), scope)
    x, trace = scope["x"], scope["trace"]
    assert x.shape == (32,) and np.isfinite(x).all()
    assert trace[0].iteration == 0 and trace[-1].iteration == 10_001
