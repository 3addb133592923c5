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


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--bogus"], 2)])
def test_update_goldens_parses_its_arguments_before_running_a_case(monkeypatch, tmp_path,
                                                                   argv, code):
    golden = tmp_path / "digests.json"
    monkeypatch.setattr(update_goldens, "GOLDEN", golden)
    monkeypatch.setattr(update_goldens, "case_docs", lambda: pytest.fail("a case ran"))
    with pytest.raises(SystemExit) as exit_info:
        update_goldens.main(argv)
    assert exit_info.value.code == code
    assert not golden.exists()
