"""Byte-for-byte golden outputs of the fast README commands.

``tests/golden/commands.txt`` lists one case a line: a name, the exit code
and the arguments.  Each case stores the printed table (``<name>.stdout``)
and the ``--report`` JSON document (``<name>.json``) next to it.  A case's
``--fixture`` names a shipped fixture or a test-only workspace file by its
path from the repository root (``tests/workspaces/``); every case runs from
the repository root, so that path and the ``"fixture"`` string of the
report match.  ``tests/golden/slow-commands.txt`` lists, in the same format,
the cases that take seconds each (bound 3); tier-1 does not run them.  The CI
packaging check runs both lists through an installed ``morita-lab``.  After
a deliberate output change, regenerate the files of both lists with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import sys
from importlib import resources
from pathlib import Path

import pytest

from moritalab.cli import run
from moritalab.fixtures import SHIPPED

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def cases(listing: str) -> list:
    """(name, exit code, arguments) of each line of a command list."""
    return [(name, int(code), argv) for name, code, *argv in
            (line.split() for line in (GOLDEN / listing).read_text().splitlines())]


CASES = cases("commands.txt")


@pytest.mark.parametrize("name,code,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, code, argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    report = tmp_path / "report.json"
    got = run(argv + ["--report", str(report)])
    out, err = capsys.readouterr()
    assert (got, err) == (code, "")
    assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    assert report.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name,code,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_commands_reach_no_isomorphism_scan(name, code, argv, tmp_path,
                                                   capsys, monkeypatch):
    """Windows identify their kernel by rank and ``unpack`` compares the
    round trip exactly, so no golden command scans for an isomorphism.  Each
    runs on a fresh copy of its workspace file, whose objects carry no
    results memoised by earlier tests; a test-only workspace is parsed anew
    from its file on every run."""
    def refuse(*args, **kwargs):
        raise AssertionError("an isomorphism scan was reached")

    for module in list(sys.modules.values()):
        if (module.__name__.startswith("moritalab")
                and hasattr(module, "find_invertible_combination")):
            monkeypatch.setattr(module, "find_invertible_combination", refuse)
    monkeypatch.chdir(ROOT)
    argv = list(argv)
    at = argv.index("--fixture") + 1
    if argv[at] in SHIPPED:
        copy = tmp_path / f"{argv[at]}.txt"
        copy.write_text(resources.files("moritalab").joinpath(
            "data", f"{argv[at]}.txt").read_text())
        argv[at] = str(copy)
    else:
        assert argv[at].startswith("tests/workspaces/")
    got = run(argv)
    out, err = capsys.readouterr()
    assert (got, err) == (code, "")
    assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()


if __name__ == "__main__":
    import contextlib
    import io
    import os

    os.chdir(ROOT)
    for name, code, argv in CASES + cases("slow-commands.txt"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            got = run(argv + ["--report", str(GOLDEN / f"{name}.json")])
        if got != code:
            raise SystemExit(f"{name}: exit {got}, expected {code}")
        (GOLDEN / f"{name}.stdout").write_text(buf.getvalue())
