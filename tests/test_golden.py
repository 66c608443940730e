"""Byte-for-byte golden outputs of the fast README commands.

``tests/golden/commands.txt`` lists one case a line: a name, the exit code
and the arguments.  Each case stores the printed table (``<name>.stdout``)
and the ``--report`` JSON document (``<name>.json``) next to it.  The CI
packaging check runs the same list through an installed ``morita-lab``.
After a deliberate output change, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from pathlib import Path

import pytest

from moritalab.cli import run

GOLDEN = Path(__file__).parent / "golden"
CASES = [(name, int(code), argv) for name, code, *argv in
         (line.split() for line in (GOLDEN / "commands.txt").read_text().splitlines())]


@pytest.mark.parametrize("name,code,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, code, argv, tmp_path, capsys):
    report = tmp_path / "report.json"
    got = run(argv + ["--report", str(report)])
    out, err = capsys.readouterr()
    assert (got, err) == (code, "")
    assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    assert report.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    import contextlib
    import io

    for name, code, argv in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            got = run(argv + ["--report", str(GOLDEN / f"{name}.json")])
        if got != code:
            raise SystemExit(f"{name}: exit {got}, expected {code}")
        (GOLDEN / f"{name}.stdout").write_text(buf.getvalue())
