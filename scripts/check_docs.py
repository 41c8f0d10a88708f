"""Build/lint the documentation tree: markdown checks + link validation.

CI's docs job runs this over ``docs/``, the top-level markdown files and
the Python files under ``src/``, ``benchmarks/`` and ``scripts/``.
Checks, per markdown file:

* **relative links resolve** -- every ``[text](target)`` whose target is
  not an absolute URL or a pure in-page anchor must point at an existing
  file (anchors on relative links are checked against the target file's
  headings);
* **in-page anchors resolve** against the file's own headings;
* **fenced code blocks are balanced** (an unclosed fence swallows the rest
  of the document silently on most renderers);
* **no empty link targets** like ``[text]()``.

Per Python file:

* **cited markdown files exist** -- every markdown file name mentioned in
  a docstring or comment must resolve, relative to the repository root or
  to the citing file's directory.

Exit status 0 when clean, 1 with one line per problem otherwise::

    python scripts/check_docs.py            # checks the default tree
    python scripts/check_docs.py README.md  # or an explicit file list
"""

from __future__ import annotations

import ast
import functools
import glob
import io
import os
import re
import sys
import tokenize
from typing import Iterator, List, Tuple

#: ``[text](target)`` -- deliberately simple; nested brackets in link text
#: are not used in this repo's docs.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]*)\)")

_HEADING = re.compile(r"^#{1,6}\s+(.*)$")

#: A markdown file name cited in prose, e.g. ``DESIGN.md`` or ``docs/runtime.md``.
_MD_NAME = re.compile(r"(?<![\w./-])(\w[\w./-]*\.md)\b")

#: Top-level directories whose Python files are checked by default.
_PYTHON_TREES = ("src", "benchmarks", "scripts")


def _github_anchor(heading: str) -> str:
    """GitHub's anchor slug for a heading (the subset our docs need)."""
    text = heading.strip().lower()
    text = re.sub(r"[`*_~]", "", text)  # inline formatting
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links -> text
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _strip_code_blocks(lines: List[str]) -> List[str]:
    """Blank out fenced code blocks so links inside them are not checked."""
    stripped: List[str] = []
    in_fence = False
    for line in lines:
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            stripped.append("")
            continue
        stripped.append("" if in_fence else line)
    return stripped


@functools.lru_cache(maxsize=None)
def _anchors_of(path: str) -> set:
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    anchors = set()
    for line in _strip_code_blocks(lines):
        match = _HEADING.match(line)
        if match:
            anchors.add(_github_anchor(match.group(1)))
    return anchors


def check_file(path: str) -> List[str]:
    """All problems found in one markdown file."""
    problems: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        raw_lines = handle.read().splitlines()

    if sum(1 for line in raw_lines if line.lstrip().startswith("```")) % 2:
        problems.append(f"{path}: unbalanced fenced code block (odd number of ```)")

    base = os.path.dirname(os.path.abspath(path))
    for lineno, line in enumerate(_strip_code_blocks(raw_lines), start=1):
        for match in _LINK.finditer(line):
            target = match.group(1)
            if target == "":
                problems.append(f"{path}:{lineno}: empty link target")
                continue
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, https:, mailto:
                continue
            if target.startswith("#"):
                if _github_anchor(target[1:]) not in _anchors_of(path):
                    problems.append(
                        f"{path}:{lineno}: in-page anchor {target!r} has no heading"
                    )
                continue
            file_part, _, anchor = target.partition("#")
            resolved = os.path.normpath(os.path.join(base, file_part))
            if not os.path.exists(resolved):
                problems.append(
                    f"{path}:{lineno}: broken relative link {target!r} "
                    f"({resolved} does not exist)"
                )
                continue
            if anchor and resolved.endswith(".md"):
                if _github_anchor(anchor) not in _anchors_of(resolved):
                    problems.append(
                        f"{path}:{lineno}: anchor {('#' + anchor)!r} not found "
                        f"in {resolved}"
                    )
    return problems


def _python_prose(source: str) -> Iterator[Tuple[int, str]]:
    """``(line number, text)`` of every docstring line and comment in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            docstring = ast.get_docstring(node, clean=False)
            if docstring is not None:
                first = node.body[0].lineno
                for offset, line in enumerate(docstring.splitlines()):
                    yield first + offset, line
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string


def check_python_file(path: str, root: str) -> List[str]:
    """Markdown names cited in ``path``'s docstrings and comments that resolve to no file."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    bases = (root, os.path.dirname(os.path.abspath(path)))
    return [
        f"{path}:{lineno}: cites {name!r}, which resolves to no file"
        for lineno, text in _python_prose(source)
        for name in _MD_NAME.findall(text)
        if not any(os.path.exists(os.path.join(base, name)) for base in bases)
    ]


def default_targets(root: str) -> List[str]:
    targets = sorted(glob.glob(os.path.join(root, "*.md")))
    targets += sorted(glob.glob(os.path.join(root, "docs", "**", "*.md"), recursive=True))
    for tree in _PYTHON_TREES:
        targets += sorted(glob.glob(os.path.join(root, tree, "**", "*.py"), recursive=True))
    return targets


def main(argv: List[str]) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    targets = argv or default_targets(root)
    python = [path for path in targets if path.endswith(".py")]
    markdown = [path for path in targets if not path.endswith(".py")]
    problems: List[str] = []
    for path in markdown:
        problems.extend(check_file(path))
    for path in python:
        problems.extend(check_python_file(path, root))
    for problem in problems:
        print(problem)
    print(
        f"checked {len(markdown)} markdown and {len(python)} Python file(s): "
        + ("OK" if not problems else f"{len(problems)} problem(s)")
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
