"""Golden digests: every golden case reproduces its committed run output.

A failure here means trace, metrics, comparison table or assertion text
changed. Regenerate with scripts/update_goldens.py only when that change is
intended, and say so in CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "update_goldens", ROOT / "scripts" / "update_goldens.py")
update_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(update_goldens)

GOLDEN = json.loads(update_goldens.GOLDEN.read_text())
DOCS = update_goldens.case_docs()


def test_golden_cases_match_the_case_list():
    assert sorted(GOLDEN) == sorted(DOCS)


@pytest.mark.parametrize("case", sorted(DOCS))
def test_golden_digest(case):
    assert update_goldens.case_digests(DOCS[case], case) == GOLDEN[case]
