"""The README's library-surface example stays runnable and exported, and
every exported name resolves."""

import re
from pathlib import Path

import shrubmine

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_import_block_runs_and_is_exported():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^from shrubmine import \((.*?)\)", text, re.MULTILINE | re.DOTALL)
    assert block is not None, "README has no 'from shrubmine import (...)' block"
    exec(block.group(0), {})
    names = [name.strip() for name in block.group(1).split(",") if name.strip()]
    assert names
    assert set(names) <= set(shrubmine.__all__)


def test_every_exported_name_resolves():
    missing = [name for name in shrubmine.__all__ if not hasattr(shrubmine, name)]
    assert missing == []
