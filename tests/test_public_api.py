"""The public surface: every exported name resolves, and the README's
library quick start runs as written."""

import re
from pathlib import Path

import epnls

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert [name for name in epnls.__all__ if not hasattr(epnls, name)] == []
    namespace = {}
    exec("from epnls import *", namespace)
    assert set(epnls.__all__) <= set(namespace)


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    # one line per fitted alpha, then the meta-fit line
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert list(tmp_path.iterdir()) == []
