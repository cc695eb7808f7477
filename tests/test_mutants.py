"""The edits of scripts/mutants.py still apply to the tree: each mutant's old
text occurs exactly once in its file, and each test expected to catch it
exists.  The mutant runs themselves are not part of the suite (each is one
run of pytest on a copy of the tree)."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(_SPEC)  # dataclasses look the module up
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_edit_applies_once(mutant):
    assert mutants.occurrences(mutant) == 1 and mutant.new != mutant.old
    for node in mutant.expected:
        path, *names = node.split("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        for name in names:
            assert (f"class {name}:" if name.startswith("Test") else f"def {name}(") in text, node
