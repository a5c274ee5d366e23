"""The README's `## Library` example runs as printed, `lexaug.__all__`
names what it imports plus `merge`, and the README lists the control tokens
that `lexaug.augment` uses."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import lexaug
from lexaug.augment import LITERALS

_ROOT = Path(__file__).resolve().parent.parent


def _library_block() -> str:
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_comments():
    block = _library_block()
    expected = re.findall(r"^print\(.*?\)\s+# (.*)$", block, re.M)
    assert len(expected) == 2
    path = os.pathsep.join(filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == expected


def test_all_is_the_library_example_imports_plus_merge():
    imported = [
        alias.name
        for node in ast.walk(ast.parse(_library_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "lexaug"
        for alias in node.names
    ]
    assert sorted(lexaug.__all__) == sorted(imported + ["merge"])


def test_control_tokens_are_the_module_literals():
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    bullet = readme.split("\n- **Control tokens** (fixed): ", 1)[1]
    listed = re.findall(r"`([^`]+)`", bullet.split(".", 1)[0])
    assert listed == list(LITERALS)
