"""``tools/cli_matrix.py`` writes the same tree when it is run again.

Two runs of its phantom cases, from this checkout into two directories,
must agree file by file: stdout, stderr, exit codes and written files.
That is what lets two checkouts' trees be compared with ``diff -r``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_phantom_cases_rerun_identical(tmp_path):
    runs = [
        subprocess.Popen([sys.executable, str(ROOT / "tools" / "cli_matrix.py"), str(ROOT),
                          str(tmp_path / name), "--only", "phantom"])
        for name in ("a", "b")
    ]
    assert [run.wait(timeout=300) for run in runs] == [0, 0]
    a, b = tree(tmp_path / "a"), tree(tmp_path / "b")
    assert sorted(a) == sorted(b)
    assert [name for name in a if a[name] != b[name]] == []

    cases = [p for p in (tmp_path / "a").iterdir() if p.is_dir()]
    codes = {p.name: int((p / "code").read_text()) for p in cases}
    assert len(codes) > 40
    assert all(code != 0 for name, code in codes.items() if name.startswith("error-"))
    assert codes["uncertainty-output-flag"] == 2
    assert any(name.endswith(".ppm.sha256") for name in a)
