"""Tests for ``scripts/check_docs.py``: markdown citations in Python prose."""

from __future__ import annotations

import importlib.util
import os

import pytest

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "check_docs.py")


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_FIXTURE = '''"""A module that cites GONE.md and docs/present.md."""

OUTPUT = "report.md"  # not prose: a plain string literal is never checked


def helper():
    """See NOWHERE.md, section 2."""
    # Also see SIBLING.md and LOST.md.
    return OUTPUT
'''


def _write_fixture(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "present.md").write_text("# present\n")
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "SIBLING.md").write_text("# sibling\n")
    source = package / "module.py"
    source.write_text(_FIXTURE)
    return source


def test_dangling_names_are_flagged(check_docs, tmp_path):
    source = _write_fixture(tmp_path)
    problems = check_docs.check_python_file(str(source), str(tmp_path))
    cited = sorted((problem.split(":")[1], problem.split("'")[1]) for problem in problems)
    assert cited == [("1", "GONE.md"), ("7", "NOWHERE.md"), ("8", "LOST.md")]


def test_main_exits_nonzero_on_a_dangling_name(check_docs, tmp_path, capsys):
    source = _write_fixture(tmp_path)
    assert check_docs.main([str(source)]) == 1
    assert "GONE.md" in capsys.readouterr().out


def test_repository_tree_is_clean(check_docs, capsys):
    assert check_docs.main([]) == 0, capsys.readouterr().out
