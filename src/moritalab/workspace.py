"""Line-oriented definition files for fields, algebras, bimodules and friends.

The format is deliberately dumb: one entity per block, one `key value` pair
per line, blocks separated by blank lines, comments from `#` to end of line.
Matrices are written as integer rows separated by `;`, or `zeros R C` when a
dimension is zero.  There is no expression language.  Every entity is built
eagerly as its block closes, so structural mistakes (a non-associative table,
actions that do not commute, a reference to a missing name) surface with the
line number of the offending block.

Kinds and their keys:

    field P
    algebra NAME        unit, one `mul` row matrix per basis element
    bimodule NAME       left, right, dim, leftact*, rightact*
    context NAME        a, b, m, n
    module NAME         algebra, side, dim, one `act` matrix per basis element
    tuple NAME          context, side, x, y, f, g
    oracle NAME         carrier, side, then either `kind BUILTIN` or `member`*

Line i of an algebra's `mul`, row j, holds the coordinates of b_i b_j in
the basis b_0, b_1, ...; reading it the other way round gives the opposite
algebra, which parses and validates just as well.

emit_workspace writes a workspace back out in canonical form; parsing the
emission yields an equal workspace, which the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg as la
from .algebra import (
    LEFT,
    RIGHT,
    Algebra,
    Bimodule,
    FieldSpec,
    Module,
)
from .classes import ClassOracle, builtin_oracles
from .morita import DeltaModule, MoritaContext
from .report import MoritaLabError, ValidationError


class WorkspaceError(MoritaLabError):
    """A parse or validation failure, carrying the source line."""


BUILTIN_KINDS = ("projective", "injective", "flat", "fp-injective", "all")


@dataclass
class Workspace:
    """Named entities loaded from one definition file."""

    p: int | None = None
    algebras: dict[str, Algebra] = dc_field(default_factory=dict)
    bimodules: dict[str, Bimodule] = dc_field(default_factory=dict)
    contexts: dict[str, MoritaContext] = dc_field(default_factory=dict)
    modules: dict[str, Module] = dc_field(default_factory=dict)
    tuples: dict[str, DeltaModule] = dc_field(default_factory=dict)
    oracles: dict[str, ClassOracle] = dc_field(default_factory=dict)
    oracle_specs: dict[str, dict] = dc_field(default_factory=dict)

    @property
    def field_spec(self) -> FieldSpec:
        if self.p is None:
            raise WorkspaceError("workspace declares no field")
        return FieldSpec(self.p)

    def object_named(self, name: str):
        """A module or tuple by name, for commands that accept either."""
        if name in self.modules:
            return self.modules[name]
        if name in self.tuples:
            return self.tuples[name]
        raise WorkspaceError(f"no module or tuple named {name!r}")

    def carrier_named(self, name: str) -> Algebra | MoritaContext | None:
        """The algebra or context of that name, or None."""
        if name in self.algebras:
            return self.algebras[name]
        return self.contexts.get(name)

    def single_context(self) -> MoritaContext:
        if len(self.contexts) != 1:
            raise WorkspaceError(
                f"expected exactly one context, found {len(self.contexts)}")
        return next(iter(self.contexts.values()))


# ---------------------------------------------------------------------------
# parsing

def _strip(line: str) -> str:
    cut = line.find("#")
    return (line if cut < 0 else line[:cut]).rstrip()


def _parse_matrix(text: str, where: str) -> np.ndarray:
    text = text.strip()
    parts = text.split()
    if parts and parts[0] == "zeros":
        if len(parts) != 3:
            raise WorkspaceError(f"{where}: zeros needs two dimensions")
        try:
            r, c = int(parts[1]), int(parts[2])
        except ValueError:
            raise WorkspaceError(f"{where}: zeros dimensions must be integers")
        if r < 0 or c < 0:
            raise WorkspaceError(f"{where}: zeros dimensions must be nonnegative")
        return la.zeros(r, c)
    rows = []
    for chunk in text.split(";"):
        try:
            rows.append([int(tok) for tok in chunk.split()])
        except ValueError:
            raise WorkspaceError(f"{where}: matrix entries must be integers")
    if not rows or not rows[0]:
        raise WorkspaceError(f"{where}: empty matrix; use `zeros R C`")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise WorkspaceError(f"{where}: ragged matrix rows")
    return np.array(rows, dtype=np.int64)


def _parse_vector(text: str, where: str) -> np.ndarray:
    try:
        return np.array([int(tok) for tok in text.split()], dtype=np.int64)
    except ValueError:
        raise WorkspaceError(f"{where}: vector entries must be integers")


@dataclass
class _Block:
    kind: str
    name: str
    line: int
    pairs: list  # (line_number, key, rest)


def _blocks(text: str):
    current = None
    for number, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line.strip():
            if current is not None:
                yield current
                current = None
            continue
        if raw[:1].isspace():
            head, _, rest = line.strip().partition(" ")
            if current is None:
                raise WorkspaceError(f"line {number}: key outside any block")
            current.pairs.append((number, head, rest.strip()))
            continue
        head, _, rest = line.partition(" ")
        if current is None:
            if head == "field":
                yield _Block("field", "", number, [(number, "field", rest.strip())])
                continue
            current = _Block(head, rest.strip(), number, [])
        else:
            current.pairs.append((number, head, rest.strip()))
    if current is not None:
        yield current


_BLOCK_KINDS = ("field", "algebra", "bimodule", "context", "module",
                "tuple", "oracle")


def parse_workspace(text: str) -> Workspace:
    """Build a validated workspace from definition text.

    Definition before use; every entity validates as its block closes, and
    failures carry the block's starting line.
    """
    ws = Workspace()
    for block in _blocks(text):
        where = f"line {block.line}"
        if block.kind not in _BLOCK_KINDS:
            raise WorkspaceError(f"{where}: unknown block kind {block.kind!r}")
        if block.kind != "field" and not block.name:
            raise WorkspaceError(f"{where}: {block.kind} block needs a name")
        if block.kind != "field" and ws.p is None:
            raise WorkspaceError(f"{where}: declare the field before any entity")
        try:
            _build_block(ws, block)
        except WorkspaceError:
            raise
        except (ValidationError, MoritaLabError) as err:
            raise WorkspaceError(f"{where}: {err}") from err
    return ws


def _pairs_map(block: _Block, *, multi: tuple = ()) -> dict:
    out: dict = {key: [] for key in multi}
    for number, key, rest in block.pairs:
        if key in multi:
            out[key].append((number, rest))
        elif key in out:
            raise WorkspaceError(f"line {number}: duplicate key {key!r}")
        else:
            out[key] = (number, rest)
    return out


def _need(pairs: dict, key: str, where: str):
    if key not in pairs or pairs[key] == []:
        raise WorkspaceError(f"{where}: missing key {key!r}")
    return pairs[key]


def _int_value(pairs: dict, key: str, where: str) -> int:
    number, rest = _need(pairs, key, where)
    try:
        return int(rest)
    except ValueError:
        raise WorkspaceError(f"line {number}: {key} must be an integer")


def _lookup(table: dict, name: str, what: str, where: str):
    if name not in table:
        raise WorkspaceError(f"{where}: unknown {what} {name!r}")
    return table[name]


def _register(table: dict, name: str, value, where: str, what: str):
    if name in table:
        raise WorkspaceError(f"{where}: duplicate {what} name {name!r}")
    table[name] = value


def _build_block(ws: Workspace, block: _Block) -> None:
    where = f"line {block.line}"
    if block.kind == "field":
        if ws.p is not None:
            raise WorkspaceError(f"{where}: field declared twice")
        _, rest = block.pairs[0][0], block.pairs[0][2]
        try:
            ws.p = int(rest)
        except ValueError:
            raise WorkspaceError(f"{where}: field characteristic must be an integer")
        FieldSpec(ws.p)
        return

    if block.kind == "algebra":
        pairs = _pairs_map(block, multi=("mul",))
        rows = pairs["mul"]
        if not rows:
            raise WorkspaceError(f"{where}: algebra needs `mul` rows")
        dim = len(rows)
        structure = np.stack([
            _parse_matrix(rest, f"line {number}") for number, rest in rows])
        if structure.shape != (dim, dim, dim):
            raise WorkspaceError(
                f"{where}: expected {dim} mul matrices of shape {dim}x{dim}")
        number, rest = _need(pairs, "unit", where)
        unit = _parse_vector(rest, f"line {number}")
        algebra = Algebra(ws.field_spec, dim, structure, unit, name=block.name)
        _register(ws.algebras, block.name, algebra, where, "algebra")
        return

    if block.kind == "bimodule":
        pairs = _pairs_map(block, multi=("leftact", "rightact"))
        left = _lookup(ws.algebras, _need(pairs, "left", where)[1], "algebra", where)
        right = _lookup(ws.algebras, _need(pairs, "right", where)[1], "algebra", where)
        dim = _int_value(pairs, "dim", where)
        lefts = [_parse_matrix(rest, f"line {number}")
                 for number, rest in pairs["leftact"]]
        rights = [_parse_matrix(rest, f"line {number}")
                  for number, rest in pairs["rightact"]]
        if len(lefts) != left.dim or len(rights) != right.dim:
            raise WorkspaceError(
                f"{where}: need one leftact per basis element of {left.name} "
                f"and one rightact per basis element of {right.name}")
        if any(m.shape != (dim, dim) for m in lefts + rights):
            raise WorkspaceError(f"{where}: action matrices must be {dim}x{dim}")
        stack_left = np.stack(lefts)
        stack_right = np.stack(rights)
        bim = Bimodule(left, right, dim, stack_left, stack_right, name=block.name)
        _register(ws.bimodules, block.name, bim, where, "bimodule")
        return

    if block.kind == "context":
        pairs = _pairs_map(block)
        a = _lookup(ws.algebras, _need(pairs, "a", where)[1], "algebra", where)
        b = _lookup(ws.algebras, _need(pairs, "b", where)[1], "algebra", where)
        m = _lookup(ws.bimodules, _need(pairs, "m", where)[1], "bimodule", where)
        n = _lookup(ws.bimodules, _need(pairs, "n", where)[1], "bimodule", where)
        ctx = MoritaContext(a, b, m, n, name=block.name)
        _register(ws.contexts, block.name, ctx, where, "context")
        return

    if block.kind == "module":
        pairs = _pairs_map(block, multi=("act",))
        algebra = _lookup(ws.algebras, _need(pairs, "algebra", where)[1],
                          "algebra", where)
        side = _need(pairs, "side", where)[1]
        if side not in (LEFT, RIGHT):
            raise WorkspaceError(f"{where}: side must be left or right")
        dim = _int_value(pairs, "dim", where)
        acts = [_parse_matrix(rest, f"line {number}")
                for number, rest in pairs["act"]]
        if len(acts) != algebra.dim:
            raise WorkspaceError(
                f"{where}: need one act matrix per basis element of {algebra.name}")
        if any(m.shape != (dim, dim) for m in acts):
            raise WorkspaceError(f"{where}: act matrices must be {dim}x{dim}")
        module = Module(algebra, side, dim, np.stack(acts), name=block.name)
        _register(ws.modules, block.name, module, where, "module")
        return

    if block.kind == "tuple":
        pairs = _pairs_map(block)
        ctx = _lookup(ws.contexts, _need(pairs, "context", where)[1],
                      "context", where)
        side = _need(pairs, "side", where)[1]
        if side not in (LEFT, RIGHT):
            raise WorkspaceError(f"{where}: side must be left or right")
        x = _lookup(ws.modules, _need(pairs, "x", where)[1], "module", where)
        y = _lookup(ws.modules, _need(pairs, "y", where)[1], "module", where)
        number_f, rest_f = _need(pairs, "f", where)
        number_g, rest_g = _need(pairs, "g", where)
        f_plain = _parse_matrix(rest_f, f"line {number_f}")
        g_plain = _parse_matrix(rest_g, f"line {number_g}")
        dm = DeltaModule(ctx, side, x, y, f_plain, g_plain, name=block.name)
        _register(ws.tuples, block.name, dm, where, "tuple")
        return

    if block.kind == "oracle":
        pairs = _pairs_map(block, multi=("member",))
        carrier_name = _need(pairs, "carrier", where)[1]
        carrier = ws.carrier_named(carrier_name)
        if carrier is None:
            raise WorkspaceError(
                f"{where}: unknown carrier {carrier_name!r} (algebra or context)")
        side = _need(pairs, "side", where)[1]
        if side not in (LEFT, RIGHT):
            raise WorkspaceError(f"{where}: side must be left or right")
        members = pairs["member"]
        if "kind" in pairs and members:
            raise WorkspaceError(f"{where}: give either a kind or members, not both")
        if "kind" in pairs:
            kind = pairs["kind"][1]
            if kind not in BUILTIN_KINDS:
                raise WorkspaceError(
                    f"{where}: unknown oracle kind {kind!r}; "
                    f"builtins are {', '.join(BUILTIN_KINDS)}")
            oracle = builtin_oracles(carrier, side)[kind]
            spec = {"carrier": carrier_name, "side": side, "kind": kind}
        elif members:
            resolved = []
            for number, member_name in members:
                try:
                    resolved.append(ws.object_named(member_name))
                except WorkspaceError as err:
                    raise WorkspaceError(f"line {number}: {err}") from err
            oracle = _list_oracle(block.name, carrier, side, resolved)
            spec = {"carrier": carrier_name, "side": side,
                    "members": [name for _, name in members]}
        else:
            raise WorkspaceError(f"{where}: oracle needs a kind or member lines")
        _register(ws.oracles, block.name, oracle, where, "oracle")
        ws.oracle_specs[block.name] = spec
        return


def _list_oracle(name: str, carrier, side: str, members: list) -> ClassOracle:
    """Membership by isomorphism with one of the listed objects."""

    def member(obj) -> bool:
        return any(candidate.ring is obj.ring
                   and obj.isomorphism(candidate) is not None
                   for candidate in members)

    return ClassOracle(f"list:{name}", carrier, side, member,
                       sampler=lambda bound: list(members))


# ---------------------------------------------------------------------------
# emission

def _emit_matrix(m: np.ndarray) -> str:
    if m.size == 0:
        return f"zeros {m.shape[0]} {m.shape[1]}"
    return " ; ".join(" ".join(str(int(v)) for v in row) for row in m)


def _emit_vector(v: np.ndarray) -> str:
    return " ".join(str(int(x)) for x in v)


def emit_workspace(ws: Workspace) -> str:
    """Canonical text for a workspace; parsing it back gives equal entities.

    Tuples can only be emitted when their component modules are registered
    in the workspace, because the format refers to them by name.
    """
    module_names = {id(m): name for name, m in ws.modules.items()}
    out: list[str] = []
    if ws.p is not None:
        out.append(f"field {ws.p}")
        out.append("")
    for name, algebra in ws.algebras.items():
        out.append(f"algebra {name}")
        out.append(f"unit {_emit_vector(algebra.unit)}")
        for i in range(algebra.dim):
            out.append(f"mul {_emit_matrix(algebra.structure[i])}")
        out.append("")
    for name, bim in ws.bimodules.items():
        out.append(f"bimodule {name}")
        out.append(f"left {bim.left_algebra.name}")
        out.append(f"right {bim.right_algebra.name}")
        out.append(f"dim {bim.dim}")
        for i in range(bim.left_algebra.dim):
            out.append(f"leftact {_emit_matrix(bim.left_actions[i])}")
        for i in range(bim.right_algebra.dim):
            out.append(f"rightact {_emit_matrix(bim.right_actions[i])}")
        out.append("")
    for name, ctx in ws.contexts.items():
        out.append(f"context {name}")
        out.append(f"a {ctx.algebra_a.name}")
        out.append(f"b {ctx.algebra_b.name}")
        out.append(f"m {ctx.m.name}")
        out.append(f"n {ctx.n.name}")
        out.append("")
    for name, module in ws.modules.items():
        out.append(f"module {name}")
        out.append(f"algebra {module.algebra.name}")
        out.append(f"side {module.side}")
        out.append(f"dim {module.dim}")
        for i in range(module.algebra.dim):
            out.append(f"act {_emit_matrix(module.actions[i])}")
        out.append("")
    for name, dm in ws.tuples.items():
        ctx_name = next((n for n, c in ws.contexts.items() if c is dm.context), None)
        if ctx_name is None:
            raise WorkspaceError(f"tuple {name!r} references an unregistered context")
        x_name = module_names.get(id(dm.x))
        y_name = module_names.get(id(dm.y))
        if x_name is None or y_name is None:
            raise WorkspaceError(
                f"tuple {name!r} references unregistered component modules")
        out.append(f"tuple {name}")
        out.append(f"context {ctx_name}")
        out.append(f"side {dm.side}")
        out.append(f"x {x_name}")
        out.append(f"y {y_name}")
        out.append(f"f {_emit_matrix(dm.f_plain)}")
        out.append(f"g {_emit_matrix(dm.g_plain)}")
        out.append("")
    for name, spec in ws.oracle_specs.items():
        out.append(f"oracle {name}")
        out.append(f"carrier {spec['carrier']}")
        out.append(f"side {spec['side']}")
        if "kind" in spec:
            out.append(f"kind {spec['kind']}")
        else:
            for member_name in spec["members"]:
                out.append(f"member {member_name}")
        out.append("")
    return "\n".join(out)


def workspaces_equal(first: Workspace, second: Workspace) -> bool:
    """Whether the two workspaces have the same canonical text
    (``emit_workspace``), as the round-trip tests compare them.

    Every block is compared, a tuple's context and component names among
    them.  The comparison is sensitive to the order in which blocks were
    registered, which parsing an emitted workspace keeps.
    """
    return emit_workspace(first) == emit_workspace(second)
