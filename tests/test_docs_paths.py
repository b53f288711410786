"""Every repo path a document names in backticks must exist.

One check over the README, every guide under ``docs/`` and the verify
recipe: a deleted module, test or artifact that a document still points
at fails here, whichever document it is.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DOCUMENTS = [
    "README.md",
    ".claude/skills/verify/SKILL.md",
    *sorted(f"docs/{path.name}" for path in (REPO / "docs").glob("*.md")),
]
PATH = re.compile(r"`((?:src|tests|benchmarks|docs|examples)/[\w/.\-]+)`")


@pytest.mark.parametrize("document", DOCUMENTS)
def test_referenced_repo_paths_exist(document):
    text = (REPO / document).read_text()
    missing = [rel for rel in PATH.findall(text) if not (REPO / rel).exists()]
    assert not missing, f"{document} references missing paths: {missing}"
