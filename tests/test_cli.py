"""Exit-code contract for the command line front end."""

import json
from importlib import resources
from pathlib import Path

import pytest

from moritalab import cli
from moritalab.cli import run
from moritalab.report import InternalCheckError

PASS, REFUTED, CONSISTENT, HYPOTHESIS_FAILURE, INPUT_ERROR = 0, 1, 2, 3, 4
BUDGET_EXCEEDED, INTERNAL_ERROR = 5, 6


WORKSPACES = Path(__file__).resolve().parent / "workspaces"


def fixture_file(tmp_path, name, p=2):
    """A shipped fixture written out with its field set to p; parsing a
    fresh file gives fresh objects, so no enumeration cache is reused."""
    text = resources.files("moritalab").joinpath("data", f"{name}.txt").read_text()
    path = tmp_path / f"{name}_gf{p}.txt"
    path.write_text(text.replace("field 2", f"field {p}", 1))
    return str(path)


def test_validate_fixture():
    assert run(["validate", "--fixture", "E1"]) == PASS


def test_duality_transfer_passes():
    assert run(["theorem", "3.3", "--fixture", "E1", "--bound", "1"]) == PASS


def test_window_transport_is_consistent_not_proved():
    code = run(["theorem", "4.3", "--fixture", "E2", "--window", "4"])
    assert code == CONSISTENT


def test_injective_structure_passes():
    assert run(["theorem", "4.7", "--fixture", "E1", "--bound", "2"]) == PASS


def test_classify_regular_tuple_projective():
    assert run(["classify", "proj", "Delta", "--fixture", "E2"]) == PASS


def test_classify_non_member_is_a_refutation():
    assert run(["classify", "proj", "probe.a", "--fixture", "E2"]) == REFUTED


def test_unknown_fixture_is_an_input_error(tmp_path):
    assert run(["validate", "--fixture", "nowhere"]) == INPUT_ERROR
    missing = tmp_path / "gone.txt"
    assert run(["validate", "--fixture", str(missing)]) == INPUT_ERROR


def test_missing_shipped_data_file_is_an_input_error(tmp_path, monkeypatch, capsys):
    # An installed tree without data/E1.txt: the loader reads from an empty
    # directory, and the parsed copy cached by earlier tests is set aside.
    from moritalab import fixtures

    monkeypatch.setattr(fixtures.resources, "files", lambda package: tmp_path)
    monkeypatch.delitem(fixtures._CACHE, "E1", raising=False)
    assert run(["validate", "--fixture", "E1"]) == INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "E1.txt" in err
    assert "Traceback" not in err


def test_a_tuple_whose_f_misses_the_tensor_relations_is_an_input_error(
        tmp_path, capsys):
    # In E1, M is killed by the first idempotent of A on the right, which
    # fixes the first basis vector of Delta.x; so f must vanish on it.
    text = resources.files("moritalab").joinpath("data", "E1.txt").read_text()
    bad = text.replace("f 0 1 0 ; 0 0 0 ; 0 0 0", "f 1 1 0 ; 0 0 0 ; 0 0 0")
    assert bad != text
    path = tmp_path / "bad_f.txt"
    path.write_text(bad)
    assert run(["validate", "--fixture", str(path)]) == INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "tensor relations" in err


def test_fields_at_or_above_the_bound_are_input_errors(tmp_path, capsys):
    # Below 2^15 every product and dot product of residues is exact in
    # int64; 32749 is the largest prime below it, 32771 the next prime.
    assert run(["validate", "--fixture", fixture_file(tmp_path, "E1", 32749)]) == PASS
    assert run(["validate", "--fixture", fixture_file(tmp_path, "E1", 32771)]) == INPUT_ERROR
    assert "field order must be below 2^15 = 32768" in capsys.readouterr().err
    assert run(["validate", "--fixture", fixture_file(tmp_path, "E1", 4)]) == INPUT_ERROR
    assert "field order must be prime, got 4" in capsys.readouterr().err


def test_functor_rejects_module_over_the_wrong_corner():
    assert run(["functor", "t_A", "probe.b", "--fixture", "E2"]) == INPUT_ERROR


def test_functor_applies_on_the_right_corner():
    assert run(["functor", "t_A", "probe.a", "--fixture", "E2"]) == PASS
    assert run(["functor", "h_B", "probe.b", "--fixture", "E2"]) == PASS


def test_bad_usage_is_an_input_error(capsys):
    assert run(["theorem", "9.9", "--fixture", "E1"]) == INPUT_ERROR
    assert run(["no-such-command"]) == INPUT_ERROR
    capsys.readouterr()


def test_unpack_round_trip_command():
    assert run(["unpack", "Delta", "--fixture", "E0"]) == PASS
    assert run(["pack", "Delta", "--fixture", "E2"]) == PASS


def test_dual_and_tensor_commands():
    assert run(["dual", "probe.a", "--fixture", "E2"]) == PASS
    assert run(["tensor", "M", "probe.a", "--fixture", "E2"]) == PASS


def test_enumerate_command():
    assert run(["enumerate", "--max-dim", "1", "--fixture", "E2"]) == PASS


def test_enumerate_bound_three_over_gf3(tmp_path, capsys):
    workspace = fixture_file(tmp_path, "E2", p=3)
    assert run(["enumerate", "--max-dim", "3", "--fixture", workspace]) == PASS
    capsys.readouterr()


def test_exhausted_budget_has_its_own_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MORITA_ENUM_BUDGET", "4")
    workspace = fixture_file(tmp_path, "E1")
    code = run(["enumerate", "--max-dim", "2", "--fixture", workspace])
    assert code == BUDGET_EXCEEDED
    assert capsys.readouterr().err.startswith("budget exceeded: ")
    # A shipped fixture whose classes are already known at the default
    # budget still runs out of the smaller one.
    monkeypatch.delenv("MORITA_ENUM_BUDGET")
    assert run(["enumerate", "--max-dim", "2", "--fixture", "E1"]) == PASS
    capsys.readouterr()
    monkeypatch.setenv("MORITA_ENUM_BUDGET", "4")
    code = run(["enumerate", "--max-dim", "2", "--fixture", "E1"])
    assert code == BUDGET_EXCEEDED
    assert capsys.readouterr().err.startswith("budget exceeded: ")


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_a_malformed_budget_is_an_input_error(value, capsys, monkeypatch):
    monkeypatch.setenv("MORITA_ENUM_BUDGET", value)
    assert run(["enumerate", "--fixture", "E1"]) == INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "MORITA_ENUM_BUDGET" in err
    assert "Traceback" not in err


def test_internal_check_failure_has_its_own_exit_code(capsys, monkeypatch):
    def disagree(ws, args):
        raise InternalCheckError("two routes disagree")

    monkeypatch.setitem(cli._COMMANDS, "validate", disagree)
    assert run(["validate", "--fixture", "E1"]) == INTERNAL_ERROR
    assert capsys.readouterr().err == "internal check failed: two routes disagree\n"


def test_duality_pair_command():
    code = run(["duality-pair", "--left", "flat", "--right", "injective",
                "--bound", "1", "--fixture", "E1"])
    assert code == PASS


def test_class_member_command():
    assert run(["class-member", "B", "Delta", "--fixture", "E2"]) == PASS


def test_report_json_is_written(tmp_path):
    out = tmp_path / "report.json"
    code = run(["theorem", "3.3", "--fixture", "E2", "--bound", "1",
                "--report", str(out)])
    assert code == PASS
    payload = json.loads(out.read_text())
    assert payload["command"] == "theorem"
    assert payload["exit-code"] == 0
    assert payload["verdict"] == "pass"
    assert payload["report"]["name"]


def test_report_json_on_refutation(tmp_path):
    out = tmp_path / "r.json"
    code = run(["classify", "inj", "probe.a", "--fixture", "E2",
                "--report", str(out)])
    payload = json.loads(out.read_text())
    assert code == REFUTED and payload["exit-code"] == 1


def _report_nodes(node):
    yield node
    for clause in node["clauses"]:
        yield from _report_nodes(clause)


@pytest.mark.parametrize("workspace", ["E0", "E1", "E2", "E2-simple-M",
                                       "T2-k", "T2-k-op"])
@pytest.mark.parametrize("number", ["3.3", "3.6", "4.3", "4.7", "4.8"])
def test_every_theorem_on_every_workspace_ends_with_a_documented_code(
        number, workspace, tmp_path, capsys, monkeypatch):
    """Each theorem on each shipped and test workspace, under a small
    budget, returns a code from the README table without raising, and
    refutes only with a witness and with no failed hypothesis in the
    report.  Shipped fixtures are fresh copies, so nothing memoised by
    other tests at the default budget is reused."""
    monkeypatch.setenv("MORITA_ENUM_BUDGET", "4096")
    shipped = workspace in ("E0", "E1", "E2")
    fixture = (fixture_file(tmp_path, workspace) if shipped
               else str(WORKSPACES / f"{workspace}.txt"))
    out = tmp_path / "report.json"
    code = run(["theorem", number, "--fixture", fixture, "--bound", "1",
                "--window", "2", "--report", str(out)])
    capsys.readouterr()
    assert code in (PASS, REFUTED, CONSISTENT, HYPOTHESIS_FAILURE, INPUT_ERROR,
                    BUDGET_EXCEEDED, INTERNAL_ERROR)
    if code == REFUTED:
        nodes = list(_report_nodes(json.loads(out.read_text())["report"]))
        assert any(node["witnesses"] for node in nodes)
        assert not [node["name"] for node in nodes
                    if node["verdict"] == "hypothesis-failure"]
