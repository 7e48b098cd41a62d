"""``tools/code_lines.py`` counts lines of code, not docstrings, comments or blank lines."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SNIPPET = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class A:
    """One line."""

    x = """a string that is not a docstring,
    over two lines"""

    def f(self): "a docstring beside its def"; return os.sep
'''


def tool():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_only():
    # import, class, both lines of x, def
    assert tool().code_lines(SNIPPET) == 5


def test_main_prints_each_file_and_total(tmp_path, capsys):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(SNIPPET)
    b.write_text("x = 1\n\ny = 2\n")
    tool().main([str(a), str(b)])
    assert capsys.readouterr().out.split() == ["5", str(a), "2", str(b), "7", "total"]


def test_closed_pipe_exits_quietly(tmp_path):
    """A reader that is gone before the tool writes (``| head -1``): no traceback on stderr."""
    (tmp_path / "a.py").write_text(SNIPPET)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path / "a.py")],
                              stdout=write, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write)
    assert proc.stderr == b""
