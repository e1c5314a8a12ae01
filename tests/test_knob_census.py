"""The README's "Performance knobs" table is the census of ``REPRO_*``
environment variables: every variable the code names has a row, and
every row names a variable the code still reads.

The scan walks the AST of every module under ``src/``, ``benchmarks/``
and ``scripts/`` and collects ``REPRO_*`` names from string constants
(docstrings included), so a comment never counts.
"""

from __future__ import annotations

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
_NAME = re.compile(r"REPRO_[A-Z0-9_]+")
_ROW = re.compile(r"\| `(REPRO_[A-Z0-9_]+)` \|")


def _code_knobs() -> set:
    names = set()
    for top in ("src", "benchmarks", "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.update(_NAME.findall(node.value))
    return names


def _readme_knobs() -> list:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Performance knobs", 1)[1]
    rows = []
    for line in section.splitlines()[1:]:
        if line.startswith("#"):
            break
        match = _ROW.match(line)
        if match:
            rows.append(match.group(1))
    return rows


def test_readme_knob_table_matches_code():
    rows = _readme_knobs()
    assert len(rows) == len(set(rows)), "duplicate README knob rows"
    code = _code_knobs()
    assert sorted(code - set(rows)) == [], "knobs read but not documented"
    assert sorted(set(rows) - code) == [], "documented knobs nothing reads"
    assert len(rows) == 5
