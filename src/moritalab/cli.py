"""Command line front end.

Every invocation loads one workspace (a shipped fixture name or a file path),
runs one command against it, prints a verdict table, and exits with the
contract codes:

    0  pass
    1  refuted, witness in the report
    2  consistent up to the stated bound or window
    3  a hypothesis of the check failed on this input
    4  input error: bad arguments, unparseable workspace, unknown names
    5  budget exceeded: an exhaustive scan needs more candidates than the
       budget allows, a hom system more entries than its cap, or the host
       ran out of memory, so no verdict was reached ("budget exceeded: ...")
    6  internal check failed: two routes that must agree did not, which is
       a defect of the program ("internal check failed: ...")

`--report PATH` additionally writes the full nested report as JSON.

The budget (MORITA_ENUM_BUDGET) and the hom-system cap are documented once,
in the README paragraph after its table of exit codes.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .algebra import LEFT, RIGHT, Module, scan_budget
from .classes import (
    DualityPairSpec,
    builtin_oracles,
    check_class_agreement,
    check_complete_transfer,
    check_duality_transfer,
    check_injective_structure,
    check_perfect_transfer,
    epi_class_oracle,
    in_component_class,
    in_epi_class,
    in_mono_class,
    require_component_classes,
    require_component_quad,
    verify_duality_pair,
)
from .enumeration import enumerate_delta_modules, enumerate_modules
from .fixtures import SHIPPED, load_workspace
from .functors import coinduce, induce
from .gorenstein import (
    check_ding_transport,
    check_window_transport_backward,
    check_window_transport_forward,
)
from .morita import CORNERS, DeltaModule, by_corner, pack, unpack
from .report import (AlgebraMismatchError, BudgetExceededError, CheckReport,
                     InputError, InternalCheckError, MoritaLabError,
                     ValidationError, Verdict)
from .tensor import tensor_over_algebra
from .workspace import BUILTIN_KINDS, Workspace, WorkspaceError

INPUT_ERROR = 4
BUDGET_EXCEEDED = 5
INTERNAL_ERROR = 6


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract reserves 4 for that."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--fixture", default="E1",
                     help="shipped fixture name (%s) or workspace file path"
                          % ", ".join(SHIPPED))
    sub.add_argument("--report", metavar="PATH",
                     help="write the JSON report document here")


def build_parser() -> _Parser:
    parser = _Parser(prog="morita-lab", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("validate", help="parse and validate a workspace")
    _common(sub)

    sub = commands.add_parser("dual", help="character dual of a module or tuple")
    sub.add_argument("name")
    _common(sub)

    sub = commands.add_parser("tensor", help="tensor a bimodule with a module")
    sub.add_argument("bimodule")
    sub.add_argument("module")
    _common(sub)

    sub = commands.add_parser("functor", help="apply a corner functor")
    sub.add_argument("which", choices=("t_A", "t_B", "h_A", "h_B"))
    sub.add_argument("name")
    _common(sub)

    sub = commands.add_parser("pack", help="glue a tuple into a module over "
                                           "the matrix ring")
    sub.add_argument("name")
    _common(sub)

    sub = commands.add_parser("unpack", help="split a tuple's glued module "
                                             "back and confirm the round trip")
    sub.add_argument("name")
    _common(sub)

    sub = commands.add_parser("classify", help="membership in a builtin class")
    sub.add_argument("kind", choices=("proj", "inj", "flat"))
    sub.add_argument("name")
    _common(sub)

    sub = commands.add_parser("class-member",
                              help="membership in a structured tuple class")
    sub.add_argument("which", choices=("A", "B", "J"),
                     help="componentwise, mono-maps, or epi-tilde class")
    sub.add_argument("tuple")
    sub.add_argument("--c1", default="flat", help="first class over the A corner")
    sub.add_argument("--c2", default="injective",
                     help="second class over the A corner")
    sub.add_argument("--d1", default="flat", help="first class over the B corner")
    sub.add_argument("--d2", default="injective",
                     help="second class over the B corner")
    _common(sub)

    sub = commands.add_parser("duality-pair", help="verify one duality pair")
    sub.add_argument("--left", required=True,
                     help="oracle: workspace name or kind[:carrier[:side]]")
    sub.add_argument("--right", required=True)
    sub.add_argument("--bound", type=int, default=2)
    _common(sub)

    sub = commands.add_parser("theorem", help="run a named theorem harness")
    sub.add_argument("number", choices=("3.3", "3.6", "4.3", "4.7", "4.8"))
    sub.add_argument("--bound", type=int, default=2)
    sub.add_argument("--window", type=int, default=4)
    sub.add_argument("--module", default="probe.a",
                     help="plain module fed to the transport checks")
    sub.add_argument("--functor", choices=CORNERS, default="a")
    sub.add_argument("--c1", default=None, help="override the first A-corner class")
    sub.add_argument("--c2", default=None)
    sub.add_argument("--d1", default=None)
    sub.add_argument("--d2", default=None)
    _common(sub)

    sub = commands.add_parser("enumerate",
                              help="list small objects up to isomorphism")
    sub.add_argument("--max-dim", type=int, default=2)
    _common(sub)

    return parser


# ---------------------------------------------------------------------------
# name and oracle resolution

def _object(ws: Workspace, name: str):
    try:
        return ws.object_named(name)
    except WorkspaceError as err:
        raise InputError(str(err))


def _resolve_oracle(ws: Workspace, token: str, carrier=None, side=None):
    """A workspace oracle by name, or kind[:carrier[:side]] builtin syntax."""
    if token in ws.oracles:
        return ws.oracles[token]
    parts = token.split(":")
    kind = parts[0]
    if kind not in BUILTIN_KINDS:
        raise InputError(
            f"{token!r} names no workspace oracle and {kind!r} is not a "
            f"builtin kind ({', '.join(BUILTIN_KINDS)})")
    if len(parts) > 1:
        carrier = ws.carrier_named(parts[1])
        if carrier is None:
            raise InputError(f"unknown carrier {parts[1]!r} in oracle {token!r}")
    if len(parts) > 2:
        side = parts[2]
        if side not in (LEFT, RIGHT):
            raise InputError(f"bad side {side!r} in oracle {token!r}")
    if carrier is None or side is None:
        raise InputError(f"oracle {token!r} needs an explicit carrier and side")
    return builtin_oracles(carrier, side)[kind]


def _fitting(build, *args):
    """``build(*args)``, a library check or constructor of classes named on
    the command line; classes that do not fit it are an input error."""
    try:
        return build(*args)
    except (AlgebraMismatchError, ValidationError) as err:
        raise InputError(str(err)) from None


def _corner_quad(ws: Workspace, ctx, args, defaults):
    """The four component-class oracles used by the transfer theorems."""
    c1, c2, d1, d2 = (getattr(args, key, None) or fallback
                      for key, fallback in zip(("c1", "c2", "d1", "d2"), defaults))
    quad = (_resolve_oracle(ws, c1, ctx.algebra_a, LEFT),
            _resolve_oracle(ws, c2, ctx.algebra_a, RIGHT),
            _resolve_oracle(ws, d1, ctx.algebra_b, LEFT),
            _resolve_oracle(ws, d2, ctx.algebra_b, RIGHT))
    _fitting(require_component_quad, ctx, *quad)
    return quad


def _plain_module(ws: Workspace, name: str) -> Module:
    obj = _object(ws, name)
    if isinstance(obj, DeltaModule):
        raise InputError(f"{name!r} is a tuple; this command needs a module")
    return obj


def _corner_module(ws: Workspace, ctx, name: str, corner: str,
                   label: str) -> Module:
    """The plain module ``name``, which must live over the ``corner``
    algebra of ``ctx``; ``label`` names the argument in the error."""
    module = _plain_module(ws, name)
    algebra, _ = by_corner(corner, ctx.algebra_a, ctx.algebra_b)
    if module.algebra is not algebra:
        raise InputError(
            f"{label}{name!r} lives over {module.algebra.name}, not the "
            f"{corner.upper()} corner")
    return module


# ---------------------------------------------------------------------------
# commands

def _cmd_validate(ws: Workspace, args) -> CheckReport:
    lines = [f"{len(ws.algebras)} algebras, {len(ws.bimodules)} bimodules, "
             f"{len(ws.contexts)} contexts, {len(ws.modules)} modules, "
             f"{len(ws.tuples)} tuples, {len(ws.oracles)} oracles"]
    for name, ctx in ws.contexts.items():
        lines.append(f"context {name}: glued ring dimension {ctx.delta.dim}")
    return CheckReport("workspace-valid", Verdict.PASS, detail="; ".join(lines))


def _cmd_dual(ws: Workspace, args) -> CheckReport:
    dual = _object(ws, args.name).dual
    if isinstance(dual, DeltaModule):
        detail = (f"tuple on the {dual.side} side, components "
                  f"{dual.x.dim} and {dual.y.dim}")
    else:
        detail = f"{dual.side} module of dimension {dual.dim}"
    return CheckReport("dual", Verdict.PASS, detail=detail,
                       meta={"of": args.name})


def _cmd_tensor(ws: Workspace, args) -> CheckReport:
    if args.bimodule not in ws.bimodules:
        raise InputError(f"unknown bimodule {args.bimodule!r}")
    bim = ws.bimodules[args.bimodule]
    module = _plain_module(ws, args.module)
    t = tensor_over_algebra(bim, module)
    return CheckReport(
        "tensor", Verdict.PASS,
        detail=f"dimension {t.module.dim} over {t.module.algebra.name} "
               f"({t.module.side} side)",
        meta={"bimodule": args.bimodule, "module": args.module,
              "dim": t.module.dim})


def _cmd_functor(ws: Workspace, args) -> CheckReport:
    ctx = ws.single_context()
    kind, _, corner = args.which.partition("_")
    module = _corner_module(ws, ctx, args.name, corner.lower(), "")
    out = {"t": induce, "h": coinduce}[kind](ctx, module, corner.lower())
    return CheckReport(
        "functor", Verdict.PASS,
        detail=f"{args.which} of {args.name}: tuple with components "
               f"{out.x.dim} and {out.y.dim} on the {out.side} side",
        meta={"functor": args.which, "x-dim": out.x.dim, "y-dim": out.y.dim})


def _tuple_arg(ws: Workspace, name: str) -> DeltaModule:
    obj = _object(ws, name)
    if not isinstance(obj, DeltaModule):
        raise InputError(f"{name!r} is a plain module; this command needs a tuple")
    return obj


def _cmd_pack(ws: Workspace, args) -> CheckReport:
    v = _tuple_arg(ws, args.name)
    packed = pack(v)
    return CheckReport(
        "pack", Verdict.PASS,
        detail=f"module of dimension {packed.dim} over {packed.algebra.name}",
        meta={"tuple": args.name, "dim": packed.dim})


def _cmd_unpack(ws: Workspace, args) -> CheckReport:
    v = _tuple_arg(ws, args.name)
    packed = pack(v)
    back = unpack(packed, v.context)
    ok = np.array_equal(pack(back).actions, packed.actions)
    return CheckReport(
        "unpack", Verdict.PASS if ok else Verdict.REFUTED,
        detail=f"components {back.x.dim} and {back.y.dim}; round trip "
               f"{'recovers the tuple up to isomorphism' if ok else 'FAILS'}",
        witnesses=[] if ok else [{"tuple": args.name}],
        meta={"tuple": args.name})


def _cmd_classify(ws: Workspace, args) -> CheckReport:
    obj = _object(ws, args.name)
    kind = {"proj": "projective", "inj": "injective", "flat": "flat"}[args.kind]
    member = builtin_oracles(obj.ring, obj.side)[kind].contains(obj)
    return CheckReport(
        f"classify-{args.kind}", Verdict.PASS if member else Verdict.REFUTED,
        detail=f"{args.name} is{'' if member else ' not'} {args.kind}",
        witnesses=[] if member else [{"object": args.name}])


def _cmd_class_member(ws: Workspace, args) -> CheckReport:
    v = _tuple_arg(ws, args.tuple)
    ctx = v.context
    if v.side == LEFT:
        class_a = _resolve_oracle(ws, args.c1, ctx.algebra_a, LEFT)
        class_b = _resolve_oracle(ws, args.d1, ctx.algebra_b, LEFT)
    else:
        class_a = _resolve_oracle(ws, args.c2, ctx.algebra_a, RIGHT)
        class_b = _resolve_oracle(ws, args.d2, ctx.algebra_b, RIGHT)
    _fitting(require_component_classes, v, class_a, class_b)
    table = {"A": in_component_class, "B": in_mono_class, "J": in_epi_class}
    member = table[args.which](v, class_a, class_b)
    return CheckReport(
        f"class-member-{args.which}",
        Verdict.PASS if member else Verdict.REFUTED,
        detail=f"{args.tuple} is{'' if member else ' not'} in the "
               f"{args.which} class built from ({class_a.name}, {class_b.name})",
        witnesses=[] if member else [{"object": args.tuple}])


def _cmd_duality_pair(ws: Workspace, args) -> CheckReport:
    carrier = ws.single_context() if ws.contexts else None
    left = _resolve_oracle(ws, args.left, carrier, LEFT)
    right = _resolve_oracle(ws, args.right, carrier, RIGHT)
    return verify_duality_pair(
        _fitting(DualityPairSpec, left, right, args.bound))


def _theorem_3_3(ws: Workspace, ctx, args) -> CheckReport:
    quad = _corner_quad(ws, ctx, args, ("flat", "injective", "flat", "injective"))
    return check_duality_transfer(ctx, *quad, args.bound)


def _theorem_3_6(ws: Workspace, ctx, args) -> CheckReport:
    quad = _corner_quad(ws, ctx, args,
                        ("flat", "fp-injective", "flat", "fp-injective"))
    perfect = check_perfect_transfer(ctx, *quad, args.bound)
    complete = check_complete_transfer(ctx, *quad, args.bound)
    return CheckReport.combine(
        "perfect-and-complete-transfer", [perfect, complete],
        detail=f"both transfer harnesses at bound {args.bound}",
        meta={"bound": args.bound})


def _theorem_4_3(ws: Workspace, ctx, args) -> CheckReport:
    module = _corner_module(ws, ctx, args.module, args.functor, "--module ")
    class_a = _resolve_oracle(ws, args.c1 or "flat", ctx.algebra_a, LEFT)
    class_b = _resolve_oracle(ws, args.d1 or "flat", ctx.algebra_b, LEFT)
    forward = check_window_transport_forward(
        ctx, module, class_a, class_b, args.window, args.bound,
        functor=args.functor)
    clauses = [forward]
    image = getattr(forward, "window_complex", None)
    if image is not None:
        backward = check_window_transport_backward(
            ctx, induce(ctx, module, args.functor), class_a, class_b, args.window,
            args.bound, functor=args.functor, window=image)
        clauses.append(backward)
    else:
        clauses.append(CheckReport(
            "window-transport-backward", Verdict.HYPOTHESIS_FAILURE,
            detail="forward direction produced no window to restrict"))
    return CheckReport.combine(
        "window-transport", clauses,
        detail=f"both transport directions at window {args.window}, "
               f"bound {args.bound}",
        meta={"window": args.window, "bound": args.bound,
              "module": args.module, "functor": args.functor})


def _theorem_4_7(ws: Workspace, ctx, args) -> CheckReport:
    return check_injective_structure(ctx, args.bound)


def _theorem_4_8(ws: Workspace, ctx, args) -> CheckReport:
    ding = check_ding_transport(ctx, args.window, args.bound)
    flat_left = builtin_oracles(ctx, LEFT)["flat"]
    injective_right = builtin_oracles(ctx, RIGHT)["injective"]
    fp_a = builtin_oracles(ctx.algebra_a, RIGHT)["fp-injective"]
    fp_b = builtin_oracles(ctx.algebra_b, RIGHT)["fp-injective"]
    agreement = check_class_agreement(
        flat_left, injective_right, epi_class_oracle(ctx, fp_a, fp_b),
        args.bound)
    return CheckReport.combine(
        "ding-transport-and-uniqueness", [ding, agreement],
        detail=f"window {args.window}, bound {args.bound}",
        meta={"window": args.window, "bound": args.bound})


def _cmd_theorem(ws: Workspace, args) -> CheckReport:
    ctx = ws.single_context()
    table = {"3.3": _theorem_3_3, "3.6": _theorem_3_6, "4.3": _theorem_4_3,
             "4.7": _theorem_4_7, "4.8": _theorem_4_8}
    return table[args.number](ws, ctx, args)


def _cmd_enumerate(ws: Workspace, args) -> CheckReport:
    ctx = ws.single_context()
    rows = []
    for label, algebra in (("A", ctx.algebra_a), ("B", ctx.algebra_b)):
        found = enumerate_modules(algebra, LEFT, args.max_dim)
        rows.append(CheckReport(
            f"modules-over-{label}", Verdict.PASS,
            detail=f"{len(found)} isomorphism classes up to dimension "
                   f"{args.max_dim} over {algebra.name}: "
                   + ", ".join(m.describe() for m in found)))
        if ctx.algebra_b is ctx.algebra_a:
            break
    tuples = enumerate_delta_modules(ctx, LEFT, args.max_dim)
    rows.append(CheckReport(
        "tuples", Verdict.PASS,
        detail=f"{len(tuples)} isomorphism classes with component dimensions "
               f"up to {args.max_dim}: "
               + ", ".join(v.describe() for v in tuples)))
    return CheckReport.combine(
        "enumerate", rows, detail=f"max dimension {args.max_dim}",
        meta={"max-dim": args.max_dim,
              "tuple-classes": len(tuples)})


_COMMANDS = {
    "validate": _cmd_validate,
    "dual": _cmd_dual,
    "tensor": _cmd_tensor,
    "functor": _cmd_functor,
    "pack": _cmd_pack,
    "unpack": _cmd_unpack,
    "classify": _cmd_classify,
    "class-member": _cmd_class_member,
    "duality-pair": _cmd_duality_pair,
    "theorem": _cmd_theorem,
    "enumerate": _cmd_enumerate,
}


def _print_table(report: CheckReport) -> None:
    rows = report.rows()
    width = min(58, max(len(name) for name, _, _ in rows) + 2)
    for name, verdict, detail in rows:
        print(f"{name:<{width}} {verdict:<22} {detail}")


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        scan_budget()           # a malformed MORITA_ENUM_BUDGET is an input error
        ws = load_workspace(args.fixture)
        report = _COMMANDS[args.command](ws, args)
    except (InputError, WorkspaceError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return INPUT_ERROR
    except BudgetExceededError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return BUDGET_EXCEEDED
    except MemoryError as err:
        print("budget exceeded: out of memory" + (f": {err}" if str(err) else ""),
              file=sys.stderr)
        return BUDGET_EXCEEDED
    except InternalCheckError as err:
        print(f"internal check failed: {err}", file=sys.stderr)
        return INTERNAL_ERROR
    except MoritaLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return INPUT_ERROR
    _print_table(report)
    if args.report:
        document = {
            "command": args.command,
            "fixture": args.fixture,
            "verdict": report.verdict.value,
            "exit-code": report.exit_code,
            "report": report.to_dict(),
        }
        with open(args.report, "w") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
    return report.exit_code


def entry() -> None:
    sys.exit(run())
