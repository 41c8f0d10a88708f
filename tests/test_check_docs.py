"""Tests for ``scripts/check_docs.py``: markdown citations in Python prose and
environment variables cited in the reference docs."""

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


_READER = '''"""Reads one variable; REPRO_DOCSTRING_ONLY is only mentioned here."""

import os

LEVEL = os.environ.get("REPRO_READ_ME", "0")
'''

_GUIDE = """# Guide

Set `REPRO_READ_ME=1` to raise the level.
`REPRO_DOCSTRING_ONLY` and `REPRO_NEVER_READ` are cited but never read.
"""


def _write_env_fixture(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "reader.py").write_text(_READER)
    (tmp_path / "docs").mkdir()
    guide = tmp_path / "docs" / "guide.md"
    guide.write_text(_GUIDE)
    return guide


def test_unread_env_names_are_flagged(check_docs, tmp_path):
    guide = _write_env_fixture(tmp_path)
    read = check_docs.env_names_read(str(tmp_path))
    assert read == {"REPRO_READ_ME"}
    problems = check_docs.check_env_names(str(guide), read)
    cited = [(problem.split(":")[1], problem.split("'")[1]) for problem in problems]
    assert cited == [("4", "REPRO_DOCSTRING_ONLY"), ("4", "REPRO_NEVER_READ")]


def test_only_reference_docs_get_the_env_check(check_docs, tmp_path):
    root = str(tmp_path)
    assert check_docs.is_reference_doc(os.path.join(root, "README.md"), root)
    assert check_docs.is_reference_doc(os.path.join(root, "docs", "guide.md"), root)
    assert not check_docs.is_reference_doc(os.path.join(root, "CHANGES.md"), root)
