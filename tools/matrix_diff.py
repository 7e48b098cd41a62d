"""Compare the CLI matrix of a git revision with this checkout's.

Usage::

    python3 tools/matrix_diff.py REF [--only GROUP ...]

Extracts ``git archive REF src`` into a temporary directory, runs this
checkout's ``tools/cli_matrix.py`` on that tree and on this checkout
(``--only`` is passed on), and compares the two result trees entry by
entry: each case directory, and ``inputs.sha256``. Prints each case that
differs, naming its differing files, and each that only one tree holds,
then ``identical: K of N cases``, N counting the cases of both trees, and
exits 1; if there is none, prints ``identical: N cases`` and exits 0. The
temporary directory is removed whatever happens, and nothing is written
in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("cli_matrix", ROOT / "tools" / "cli_matrix.py")
cli_matrix = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_matrix)


def _files(entry: Path) -> dict[str, bytes]:
    """The files of a case directory by relative path, or the one file ``entry`` by its name."""
    if entry.is_file():
        return {entry.name: entry.read_bytes()}
    return {str(p.relative_to(entry)): p.read_bytes() for p in sorted(entry.rglob("*")) if p.is_file()}


def compare(before: Path, after: Path, ref: str = "REF") -> dict[str, str]:
    """One line per entry of the two result trees that differs or that only one holds, by name.

    ``before`` is the tree of ``ref``, ``after`` the tree of this checkout.
    """
    lines = {}
    for name in sorted({p.name for p in before.iterdir()} | {p.name for p in after.iterdir()}):
        a, b = before / name, after / name
        if not a.exists():
            lines[name] = f"only in this checkout: {name}"
        elif not b.exists():
            lines[name] = f"only in {ref}: {name}"
        else:
            fa, fb = _files(a), _files(b)
            changed = sorted(f for f in fa.keys() | fb.keys() if fa.get(f) != fb.get(f))
            if changed:
                lines[name] = f"differs: {name} ({', '.join(changed)})"
    return lines


def _extract(ref: str, dest: Path) -> None:
    """Extract the ``src`` tree of git revision ``ref`` of this repository under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _matrix(src: Path, out: Path, only: list[str]) -> None:
    cmd = [sys.executable, str(ROOT / "tools" / "cli_matrix.py"), str(src), str(out), "--only", *only]
    subprocess.run(cmd, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git revision whose src/ is compared with this checkout's")
    parser.add_argument("--only", nargs="+", choices=cli_matrix.GROUPS, default=list(cli_matrix.GROUPS))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="matrix_diff_") as work:
        work = Path(work)
        _extract(args.ref, work / "ref")
        _matrix(work / "ref", work / "before", args.only)
        _matrix(ROOT, work / "after", args.only)
        lines = compare(work / "before", work / "after", args.ref)
        # a case is a directory; inputs.sha256 is the one file of a tree
        cases = {p.name for tree in ("before", "after") for p in (work / tree).iterdir() if p.is_dir()}
    if not lines:
        print(f"identical: {len(cases)} cases")
        return 0
    print("\n".join(lines.values()) + f"\nidentical: {len(cases - lines.keys())} of {len(cases)} cases")
    return 1


if __name__ == "__main__":
    sys.exit(main())
