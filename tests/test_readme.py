"""README's examples, run as written."""

import re
from pathlib import Path

from dssm.cli import main as cli_main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block_after(heading: str, fence: str) -> str:
    """The first fenced block opened by `fence` after the line `heading`."""
    after = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"^{re.escape(fence)}\n(.*?)^```$", after, re.M | re.S).group(1)


def test_library_use_example_runs():
    exec(compile(_block_after("## Library use", "```python"), "README.md", "exec"), {})


def test_compare_static_example_prints_its_output(capsys):
    command, *output = _block_after("Example:", "```").splitlines()
    assert command == "$ dssm-sim run agent_crash --compare-static"
    assert len(output) == 4
    assert cli_main(command.split()[2:]) == 0
    assert capsys.readouterr().out.splitlines() == output
