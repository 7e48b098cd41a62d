"""``tools/cli_matrix.py`` writes the same tree when it is run again.

Two runs of its phantom cases, from this checkout into two directories,
must agree file by file: stdout, stderr, exit codes and written files.
That is what lets two checkouts' trees be compared with ``diff -r``.
The run also checks the one exit-code rule on every case: exit 3 means
exactly a missing channel, and every other refusal exits 2 or 4.
"""

import json
import re
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
    # the one exit-code rule: 3 exactly for a missing channel, every other refusal 2 or 4
    missing_channel = re.compile(r"error: volume has no '[a-z_]+' channel\n")
    for p in cases:
        shown = missing_channel.fullmatch((p / "stderr").read_text()) is not None
        assert (codes[p.name] == 3) == shown, p.name
    assert all(code in (2, 3, 4) for name, code in codes.items() if name.startswith("error-"))
    # cli_matrix records a command that raised as exit 1; the CLI itself never exits 1
    assert [name for name, code in codes.items() if code == 1] == []
    assert codes["uncertainty-output-flag"] == 2
    assert codes["error-uncertainty-mixed-spacing"] == 2
    assert "ph/mixed_samples1/s1.json" in a["error-uncertainty-mixed-spacing/stderr"].decode()
    assert codes["evaluate-entry-without-prediction"] == 4
    scored = json.loads(a["evaluate-entry-without-prediction/stdout"])
    assert (scored["n_scans"], scored["failures"]) == (1, ["bare: entry lacks prediction"])
    assert any(name.endswith(".ppm.sha256") for name in a)
