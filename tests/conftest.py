from importlib import resources

import pytest

from moritalab.fixtures import load_fixture
from moritalab.workspace import parse_workspace


@pytest.fixture(scope="session")
def ws_e0():
    return load_fixture("E0")


@pytest.fixture(scope="session")
def ws_e1():
    return load_fixture("E1")


@pytest.fixture(scope="session")
def ws_e2():
    return load_fixture("E2")


@pytest.fixture(scope="session")
def e0(ws_e0):
    return ws_e0.single_context()


@pytest.fixture(scope="session")
def e1(ws_e1):
    return ws_e1.single_context()


@pytest.fixture(scope="session")
def e2(ws_e2):
    return ws_e2.single_context()


@pytest.fixture(scope="session")
def fixture_over():
    """``fixture_over(name, p)``: the shipped workspace ``name`` with its
    ``field 2`` line set to ``field p``, parsed once per session.  For p = 2
    that is the shipped workspace itself, so enumerations made through the
    ``e0``/``e1``/``e2`` fixtures are shared."""
    made = {}

    def over(name, p):
        if (name, p) not in made:
            made[name, p] = load_fixture(name) if p == 2 else parse_workspace(
                resources.files("moritalab").joinpath("data", f"{name}.txt")
                .read_text().replace("field 2", f"field {p}", 1))
        return made[name, p]

    return over


@pytest.fixture(scope="session")
def fresh():
    """``fresh(name)``: the shipped workspace ``name`` parsed anew at every
    call.  Its rings are new objects, so its modules and tuples share no
    value with those of any other parse, and every verdict memoised by
    value (``memo(by_value=True)``) is computed on them, not read back."""
    def parse(name):
        return parse_workspace(resources.files("moritalab").joinpath(
            "data", f"{name}.txt").read_text())

    return parse
