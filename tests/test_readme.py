"""README's "Library use" block runs as written, so the documented API
cannot drift from the code."""

import os
import re

from conftest import REPO_ROOT


def test_library_use_block_runs_from_the_repo_root(monkeypatch, capsys):
    with open(os.path.join(REPO_ROOT, "README.md")) as fh:
        section = fh.read().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(REPO_ROOT)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    documented_plan = re.search(r"print\(pipe\.mcts\.plan\)\s+# (.*)", code).group(1)
    assert printed[0] == documented_plan
    assert printed[1].startswith("If ego had")
