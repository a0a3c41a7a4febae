"""The canonical-output digests pinned in the CI workflow, run in-process.

Each ``test "$(python -m psl2cd ARGS | sha256sum | cut -d' ' -f1)" = HEX``
line of the workflow's "Canonical outputs are byte-identical" step becomes
one case: ARGS, split as the shell splits them, go through ``cli.main``
and the sha256 of what it writes to stdout must be HEX.  The shell lines
ignore the exit status, so the cases also pin it: 0, except where
``_EXIT_CODES`` says otherwise (``classify`` reports a degree mismatch
only through it, and a q or outer list rejected where it enters exits
2 with nothing on stdout).  The step's other lines pipe a pinned sweep or
check report through ``tests/recheck.py``, which ``tests/test_recheck.py``
tests.
"""

import contextlib
import hashlib
import re
import shlex
from pathlib import Path

import pytest

from psl2cd import cli

_WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"
_LINE = re.compile(r"""test "\$\(python -m psl2cd (.+) \| sha256sum \| cut -d' ' -f1\)" = ([0-9a-f]{64})$""")


def _step_lines() -> list[str]:
    """The lines of the workflow step after its name, up to the next step."""
    text = _WORKFLOW.read_text()
    _, _, step = text.partition("- name: Canonical outputs are byte-identical\n")
    return step.split("\n      - ")[0].splitlines()


_PINNED = [m.groups() for line in _step_lines() if (m := _LINE.search(line.strip()))]
_RECHECK = re.compile(r"""python -m psl2cd ((?:sweep|check) .+ --format json) \| python tests/recheck\.py$""")
_RECHECKED = [m.group(1) for line in _step_lines() if (m := _RECHECK.fullmatch(line.strip()))]
_EXIT_CODES = {  # each set has pairs that break the condition
    "check --degrees 1,12,24,60 --format json": 1,
    "check --degrees 40,10,1,20 --format json": 1,
    "check --degrees 1,8,16,9223372036854775808 --format json": 1,
    "cd --q 1022117 --format json": 2,  # 1009 * 1013 is not a prime power
    "cd --q 3 --format json": 2,  # q < 4
    "classify --q 5 --outer delta --format json": 2,  # the classification starts at q = 7
    "classify --q 8 --outer delta --format json": 2,  # no delta at p = 2
}


class _Digest:
    """A write-only stdout that keeps only the sha256 of what it is sent."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text: str) -> None:
        self.sha.update(text.encode())


def test_every_command_of_the_step_is_pinned():
    commands = [line for line in _step_lines() if "python -m psl2cd" in line]
    assert len(_PINNED) >= 82
    assert len(_PINNED) + len(_RECHECKED) == len(commands)
    assert set(_RECHECKED) <= {args for args, _ in _PINNED}  # a rechecked report is also pinned
    assert set(_EXIT_CODES) <= {args for args, _ in _PINNED}


@pytest.mark.parametrize("args, digest", _PINNED, ids=[args for args, _ in _PINNED])
def test_output_matches_the_pinned_digest(args, digest):
    out = _Digest()
    with contextlib.redirect_stdout(out):
        code = cli.main(shlex.split(args))
    assert out.sha.hexdigest() == digest
    assert code == _EXIT_CODES.get(args, 0)
