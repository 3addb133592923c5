"""Golden digests: every golden case reproduces its committed run output.

A failure here means trace, metrics, comparison table or assertion text
changed. Regenerate with scripts/update_goldens.py only when that change is
intended, and say so in CHANGES.md.
"""

import json

import pytest

from conftest import load_script

update_goldens = load_script("update_goldens")

GOLDEN = json.loads(update_goldens.GOLDEN.read_text())
DOCS = update_goldens.case_docs()


def test_golden_cases_match_the_case_list():
    assert sorted(GOLDEN) == sorted(DOCS)


@pytest.mark.parametrize("case", sorted(DOCS))
def test_golden_digest(case):
    assert update_goldens.case_digests(DOCS[case], case) == GOLDEN[case]
