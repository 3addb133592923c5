"""Golden digests: every golden case reproduces its committed run output.

A failure here means trace, metrics, comparison table or assertion text
changed. Regenerate with scripts/update_goldens.py only when that change is
intended, and say so in CHANGES.md.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import SCRIPTS, load_script

update_goldens = load_script("update_goldens")

GOLDEN = json.loads(update_goldens.GOLDEN.read_text())
DOCS = update_goldens.case_docs()


def test_golden_cases_match_the_case_list():
    assert sorted(GOLDEN) == sorted(DOCS)


@pytest.mark.parametrize("case", sorted(DOCS))
def test_golden_digest(case):
    assert update_goldens.case_digests(DOCS[case], case) == GOLDEN[case]


# Identical inputs give identical output in any process: str hashing, and
# with it the iteration order of str-keyed sets, changes with PYTHONHASHSEED,
# and the digests must not. Seeds 0 and 4242 were checked by hand; these
# are two others.
@pytest.mark.parametrize("hashseed", ["1", "2718"])
@pytest.mark.parametrize("case", ["generated@highest_connectivity", "churn50@drop0.05"])
def test_golden_digest_in_a_process_of_another_hash_seed(case, hashseed):
    code = ("import json, runpy, sys; g = runpy.run_path(sys.argv[1]); "
            "print(json.dumps(g['case_digests'](g['case_docs']()[sys.argv[2]], sys.argv[2])))")
    proc = subprocess.run([sys.executable, "-c", code, str(SCRIPTS / "update_goldens.py"), case],
                          env={**os.environ, "PYTHONHASHSEED": hashseed},
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout) == GOLDEN[case]


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
