"""Shipped example workspaces.

Three graded fixtures, each a single context plus probe modules and the
left regular tuple under the name Delta:

    E0  both corners the ground field, zero bimodules
    E1  k x k in both corners, one-dimensional connecting bimodules
    E2  dual numbers against the ground field, regular M, zero N

load_workspace accepts either a shipped name or a path to a definition file.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .workspace import Workspace, WorkspaceError, parse_workspace

SHIPPED = ("E0", "E1", "E2")

_CACHE: dict[str, Workspace] = {}


def load_fixture(name: str) -> Workspace:
    """Parse a shipped fixture by name, cached per process."""
    if name not in SHIPPED:
        raise WorkspaceError(
            f"no shipped fixture named {name!r}; have {', '.join(SHIPPED)}")
    if name not in _CACHE:
        path = resources.files("moritalab").joinpath("data", f"{name}.txt")
        try:
            text = path.read_text()
        except OSError as err:
            raise WorkspaceError(
                f"shipped fixture file {path} cannot be read: "
                f"{err.strerror or err}") from err
        _CACHE[name] = parse_workspace(text)
    return _CACHE[name]


def load_workspace(spec: str) -> Workspace:
    """A shipped fixture name, or a path to a workspace file."""
    if spec in SHIPPED:
        return load_fixture(spec)
    path = Path(spec)
    if not path.is_file():
        raise WorkspaceError(
            f"{spec!r} is neither a shipped fixture ({', '.join(SHIPPED)}) "
            f"nor a readable file")
    return parse_workspace(path.read_text())
