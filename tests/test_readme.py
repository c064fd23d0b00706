"""The README's quick start runs as shown."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_start_prints_what_the_readme_shows():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```\s*```\n(.*?)```", readme, re.S)
    code, shown = block.group(1), block.group(2)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    ran = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, env=env, timeout=120)
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout == shown
