"""The README's library tour and CLI block run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_python_block_of_the_readme_runs():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert blocks
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for code in blocks:
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr


def test_every_cli_line_of_the_readme_runs(tmp_path):
    # Each line starting with "mccwe " runs in order, in one directory, so
    # later lines read the files earlier ones wrote.  A comment made of
    # key=value pairs names report lines the output must hold.
    lines = re.findall(r"^mccwe (.*)$", (ROOT / "README.md").read_text(), re.M)
    assert any(line.startswith("gap ") for line in lines)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for line in lines:
        command, _hash, comment = line.partition("#")
        done = subprocess.run(
            [sys.executable, "-m", "mccwe.cli", *shlex.split(command)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, (line, done.stderr)
        pairs = comment.split()
        if pairs and all(re.fullmatch(r"\w+=\S+", pair) for pair in pairs):
            assert set(pairs) <= set(done.stdout.splitlines()), (line, done.stdout)
