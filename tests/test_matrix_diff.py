"""``tools/matrix_diff.py`` compares two CLI matrix result trees case by case.

The tests build small result trees by hand; none runs the matrix or git.
"""

import importlib.util
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def tool():
    spec = importlib.util.spec_from_file_location("matrix_diff", ROOT / "tools" / "matrix_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


BEFORE = {
    "inputs.sha256": "ab  ph/scene.json\n",
    "assess/code": "0\n",
    "assess/stdout": "{}\n",
    "assess/files/overlay/s_artery_z001.ppm.sha256": "cd\n",
    "error-loss/code": "3\n",
    "error-loss/stderr": "error: loss needs the tumor channel\n",
    "only-before/code": "0\n",
}


def test_identical_trees_give_no_line(tmp_path):
    write_tree(tmp_path / "a", BEFORE)
    write_tree(tmp_path / "b", BEFORE)
    assert tool().compare(tmp_path / "a", tmp_path / "b") == {}


def test_each_differing_and_one_sided_entry_named(tmp_path):
    after = dict(BEFORE, **{
        "inputs.sha256": "ef  ph/scene.json\n",
        "error-loss/stderr": "error: volume has no 'tumor' channel\n",
        "assess/files/overlay/s_vein_z001.ppm.sha256": "cd\n",
        "only-after/code": "0\n",
    })
    del after["only-before/code"]
    write_tree(tmp_path / "a", BEFORE)
    write_tree(tmp_path / "b", after)
    assert tool().compare(tmp_path / "a", tmp_path / "b", "ac3418a") == {
        "assess": "differs: assess (files/overlay/s_vein_z001.ppm.sha256)",
        "error-loss": "differs: error-loss (stderr)",
        "inputs.sha256": "differs: inputs.sha256 (inputs.sha256)",
        "only-after": "only in this checkout: only-after",
        "only-before": "only in ac3418a: only-before",
    }


@pytest.mark.parametrize("after, code, out", [
    (BEFORE, 0, "identical: 3 cases\n"),
    (dict(BEFORE, **{"assess/code": "1\n"}), 1, "differs: assess (code)\nidentical: 2 of 3 cases\n"),
    (dict(BEFORE, **{"inputs.sha256": "ef  ph/scene.json\n"}), 1,
     "differs: inputs.sha256 (inputs.sha256)\nidentical: 3 of 3 cases\n"),
    ({**{k: v for k, v in BEFORE.items() if not k.startswith("only-before/")},
      "error-loss/stderr": "error: x\n", "only-after/code": "0\n"}, 1,
     "differs: error-loss (stderr)\nonly in this checkout: only-after\nonly in HEAD: only-before\n"
     "identical: 1 of 4 cases\n"),
])
def test_main_reports_and_removes_its_directory(tmp_path, monkeypatch, capsys, after, code, out):
    module = tool()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(module, "_extract", lambda ref, dest: dest.mkdir())
    trees = iter([BEFORE, after])
    monkeypatch.setattr(module, "_matrix", lambda src, dest, only: write_tree(dest, next(trees)))
    assert module.main(["HEAD", "--only", "phantom"]) == code
    assert capsys.readouterr().out == out
    assert list(tmp_path.iterdir()) == []
