"""Byte-for-byte CLI output against recorded runs.

``golden/cli.json`` holds the argv, exit code and stdout of the README
command lines (on the README's example poset and batch file), of
``nc A5/B4/D5 --oracle --json``, of a batch of ``nc --oracle`` lines
that includes the over-cap ``A9``, and of ``poset --flags --rank-select
--certify --json`` on a generated face poset (``face.json``) and on the
colored subset poset of 3 points and 2 colors with a top adjoined
(``colored.json``), and of ``nc`` on exceptional, dihedral and type D
lines and ``words d 12``, recorded before those polynomials were
derived from the Coxeter degrees and the word recurrence, and of
``ant --colored`` at 2, 3 and 1000 colors (n = 9, 12 and 20), recorded
while the colored enumerator still read memoized unpacked rows, and
of ``poset --flags`` on a one-element poset (``point.json``), a chain
of 12 elements (``chain12.json``) and the Boolean lattice of rank 6
with a top adjoined (``boolean6.json``), recorded while the flag table
was still a depth-first walk over rank subsets.  The error records
(``poset square.json`` with an out-of-range selection, ``ant --brute
--colored --gessel``, ``certify --symdec 0`` and ``certify
--interlaces`` on a malformed polynomial) hold only the error line: a
failed command drops whatever it reported before failing.
Default output must not change, so any difference is a regression.
"""

import json
from pathlib import Path

import pytest

from chainpoly.cli import main

GOLDEN = Path(__file__).parent / "golden"
RECORDS = json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS]
)
def test_cli_output_unchanged(record, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(record["argv"])
    assert capsys.readouterr().out == record["stdout"]
    assert code == record["exit"]
