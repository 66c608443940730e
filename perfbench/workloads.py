"""The three benchmark workloads: what each runs, and how its verdicts are checked.

A workload is built after `moritalab` is imported.  `setup` parses its
workspaces, `run` is the timed interval that asks for every verdict, and
`check` (outside the timed interval) compares the verdicts against counts
computed without the package (see counts.py) or against properties the
mathematics forces.  `attempted` and `failed` count operations; `digest`
hashes the verdicts so that two runs can be compared.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from importlib import resources
from pathlib import Path

import numpy as np

import counts
from moritalab import cli
from moritalab.algebra import LEFT, dual_module
from moritalab.classes import (builtin_oracles, in_component_class,
                               in_epi_class, in_mono_class)
from moritalab.enumeration import enumerate_delta_modules, enumerate_modules
from moritalab.fixtures import load_fixture
from moritalab.functors import check_adjunction, induce_from_a
from moritalab.gorenstein import (is_ding_projective_window,
                                  is_gorenstein_projective_window)
from moritalab.morita import (delta_direct_sum, delta_dual, delta_is_isomorphic,
                              is_flat_delta, is_injective_delta,
                              is_projective_delta, pack, unpack)
from moritalab.report import BudgetExceededError, Verdict
from moritalab.workspace import emit_workspace, parse_workspace, workspaces_equal

BOUND = 2


class CliCommand:
    """One README command run through `moritalab.cli.run` with `--report`."""

    def __init__(self, argv: list[str], report_path: Path):
        self.argv = argv + ["--report", str(report_path)]
        self.report_path = report_path
        self.attempted = self.failed = 0

    def setup(self) -> None:
        # cli.run reuses this parse: shipped fixtures are cached per process.
        self.context = load_fixture("E1").single_context()

    def run(self) -> None:
        table = io.StringIO()
        with contextlib.redirect_stdout(table):
            self.exit_code = cli.run(self.argv)
        self.table = table.getvalue()
        self.attempted = 1

    def check(self) -> list[str]:
        problems = []
        if self.exit_code != 0:
            problems.append(f"exit code {self.exit_code}, expected 0 (pass)")
            return problems
        document = json.loads(self.report_path.read_text())
        if document["verdict"] != "pass" or document["exit-code"] != 0:
            problems.append(f"report verdict {document['verdict']!r}")
        return problems + self.check_report(document)

    def digest(self) -> str:
        return hashlib.sha256(
            (self.table + self.report_path.read_text()).encode()).hexdigest()


class TransferE1(CliCommand):
    """`theorem 3.3 --fixture E1 --bound 2`: closure scans dominate.

    Every hypothesis clause holds on E1, so Theorem 3.3 predicts pass; the
    scanned universes must have the closed-form size on both sides.
    """

    def __init__(self, report_path: Path):
        super().__init__(["theorem", "3.3", "--fixture", "E1",
                          "--bound", str(BOUND)], report_path)

    def check_report(self, document: dict) -> list[str]:
        problems = []
        statements = document["report"]["meta"]["statements"]
        if not all(statements.values()):
            problems.append(f"pair statements not all true: {statements}")
        expected = counts.e1_tuple_classes(BOUND)
        for side in ("left", "right"):
            found = len(enumerate_delta_modules(self.context, side, BOUND))
            if found != expected:
                problems.append(f"{side} tuple universe has {found} classes, "
                                f"closed form gives {expected}")
        return problems


class EnumerateE1D3(CliCommand):
    """`enumerate --max-dim 3 --fixture E1`: the pairwise iso dedupe dominates."""

    MAX_DIM = 3

    def __init__(self, report_path: Path):
        super().__init__(["enumerate", "--max-dim", str(self.MAX_DIM),
                          "--fixture", "E1"], report_path)

    def check_report(self, document: dict) -> list[str]:
        problems = []
        tuples = document["report"]["meta"]["tuple-classes"]
        expected = counts.e1_tuple_classes(self.MAX_DIM)
        if tuples != expected:
            problems.append(f"{tuples} tuple classes, closed form gives {expected}")
        rows = {c["name"]: c["detail"] for c in document["report"]["clauses"]}
        modules = counts.semisimple_pair_module_classes(self.MAX_DIM)
        # A and B are the same algebra in E1, so the CLI prints one row.
        if not rows.get("modules-over-A", "").startswith(
                f"{modules} isomorphism classes"):
            problems.append(f"modules-over-A row {rows.get('modules-over-A')!r}, "
                            f"expected {modules} classes")
        return problems


class _Failed:
    """The answer of an operation that raised BudgetExceededError."""

    def __init__(self, message: str):
        self.message = message


def _gf3_text(name: str) -> str:
    text = resources.files("moritalab").joinpath("data", f"{name}.txt").read_text()
    lines = text.splitlines()
    if lines.count("field 2") != 1:
        raise ValueError(f"shipped {name} does not declare exactly one 'field 2'")
    return "\n".join("field 3" if line == "field 2" else line for line in lines) + "\n"


def _same_tuple(u, v) -> bool:
    """Equal structure data; isomorphic tuples otherwise count as equal too."""
    if (u.x.dim, u.y.dim, u.side) != (v.x.dim, v.y.dim, v.side):
        return False
    if all(np.array_equal(a, b) for a, b in (
            (u.x.actions, v.x.actions), (u.y.actions, v.y.actions),
            (u.f_plain, v.f_plain), (u.g_plain, v.g_plain))):
        return True
    return delta_is_isomorphic(u, v) is not None


class SessionGF3:
    """A library session over GF(3) copies of E1 and E2.

    Queries are many and short and each is asked twice, over the same
    objects, in an order drawn from the seed.  The seeded direct sums come
    from a separate sum seed, so the sums whose classification exceeds the
    isomorphism budget are the same for every run seed.
    """

    WORKSPACES = ("E1", "E2")
    SUMS = {"E1": 40, "E2": 20}
    WINDOW = 4
    DING_BOUND = 1
    ADJUNCTIONS = (("induce-a", "x"), ("induce-b", "y"),
                   ("coinduce-a", "x"), ("coinduce-b", "y"))

    def __init__(self, seed: int, sum_seed: int):
        self.seed, self.sum_seed = seed, sum_seed
        self.attempted = self.failed = 0

    def setup(self) -> None:
        self.texts = {name: _gf3_text(name) for name in self.WORKSPACES}
        self.workspaces = {name: parse_workspace(text)
                           for name, text in self.texts.items()}

    def _ask(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except BudgetExceededError as err:
            self.failed += 1
            return _Failed(str(err))

    def run(self) -> None:
        self.objects: dict = {}
        queries: list = []
        sum_rng = random.Random(self.sum_seed)
        for name, ws in self.workspaces.items():
            ctx = ws.single_context()
            tuples = self._ask(enumerate_delta_modules, ctx, LEFT, BOUND)
            modules = self._ask(enumerate_modules, ctx.algebra_a, LEFT, BOUND)
            pairs = [(sum_rng.randrange(len(tuples)), sum_rng.randrange(len(tuples)))
                     for _ in range(self.SUMS[name])]
            sums = [self._ask(lambda u, v: delta_direct_sum([u, v])[0],
                              tuples[i], tuples[j]) for i, j in pairs]
            induced = [self._ask(induce_from_a, ctx, x) for x in modules]
            self.objects[name] = (ctx, tuples, modules, pairs, sums, induced)
            queries += self._queries(name, ctx, tuples, modules, sums, induced)
        order = random.Random(self.seed)
        self.answers = []
        for _ in range(2):
            order.shuffle(queries)
            self.answers.append({key: self._ask(fn, *args)
                                 for key, fn, args in queries})

    def _queries(self, name, ctx, tuples, modules, sums, induced) -> list:
        flat_a = builtin_oracles(ctx.algebra_a, LEFT)["flat"]
        flat_b = builtin_oracles(ctx.algebra_b, LEFT)["flat"]
        projective_a = builtin_oracles(ctx.algebra_a, LEFT)["projective"]
        out = []
        for t, v in enumerate(tuples):
            out += [
                ((name, "proj", t), is_projective_delta, (v,)),
                ((name, "inj", t), is_injective_delta, (v,)),
                ((name, "flat", t), is_flat_delta, (v,)),
                ((name, "class-A", t), in_component_class, (v, flat_a, flat_b)),
                ((name, "class-B", t), in_mono_class, (v, flat_a, flat_b)),
                ((name, "class-J", t), in_epi_class, (v, flat_a, flat_b)),
                ((name, "dual", t),
                 lambda v: (delta_dual(v), unpack(dual_module(pack(v)), ctx)), (v,)),
                ((name, "roundtrip", t), lambda v: unpack(pack(v), ctx), (v,)),
            ]
            out += [((name, pair, t), check_adjunction,
                     (ctx, getattr(v, component), v, pair))
                    for pair, component in self.ADJUNCTIONS]
        for i, s in enumerate(sums):
            out += [((name, "sum-proj", i), is_projective_delta, (s,)),
                    ((name, "sum-inj", i), is_injective_delta, (s,))]
        for k, (x, tx) in enumerate(zip(modules, induced)):
            out += [((name, "gp-window", k), is_gorenstein_projective_window,
                     (x, projective_a, self.WINDOW, BOUND)),
                    ((name, "ding-window", k), is_ding_projective_window,
                     (tx, self.WINDOW, self.DING_BOUND))]
        return out

    @staticmethod
    def _canonical(answer):
        if isinstance(answer, _Failed):
            return "budget-exceeded"
        if isinstance(answer, (bool, np.bool_)):
            return bool(answer)
        if hasattr(answer, "consistent"):                 # WindowVerdict
            return [bool(answer.consistent), answer.report.verdict.value]
        if hasattr(answer, "verdict"):                    # CheckReport
            return answer.verdict.value
        items = answer if isinstance(answer, tuple) else (answer,)
        return [[v.x.actions.tolist(), v.y.actions.tolist(),
                 v.f_plain.tolist(), v.g_plain.tolist()] for v in items]

    def digest(self) -> str:
        first = {"/".join(map(str, key)): self._canonical(answer)
                 for key, answer in self.answers[0].items()}
        return hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest()

    def check(self) -> list[str]:
        problems = []
        for name, ws in self.workspaces.items():
            if ws.p != 3 or not workspaces_equal(parse_workspace(emit_workspace(ws)), ws):
                problems.append(f"{name}/GF(3) workspace fails validation")
        first, second = self.answers
        for key, answer in first.items():
            if self._canonical(answer) != self._canonical(second[key]):
                problems.append(f"{key}: second ask disagrees with the first")
            if isinstance(answer, _Failed) and key[1] not in ("sum-proj", "sum-inj"):
                problems.append(f"{key}: unexpected failure: {answer.message}")
        for name in self.WORKSPACES:
            problems += self._check_workspace(name, first)
        return problems

    def _check_workspace(self, name: str, ans: dict) -> list[str]:
        _, tuples, modules, pairs, _, _ = self.objects[name]
        problems = []

        def expect(what, found, expected):
            if found != expected:
                problems.append(f"{name}: {what} is {found}, expected {expected}")

        def answered(kind):
            return sum(ans[name, kind, t] for t in range(len(tuples)))

        if name == "E1":
            expect("tuple classes", len(tuples), counts.e1_tuple_classes(BOUND))
            expect("A-module classes", len(modules),
                   counts.semisimple_pair_module_classes(BOUND))
            expect("projective tuples", answered("proj"),
                   counts.e1_projective_classes(BOUND))
            expect("injective tuples", answered("inj"),
                   counts.e1_injective_classes(BOUND))
        else:
            expect("tuple classes", len(tuples), counts.e2_tuple_classes(3, BOUND))
            expect("A-module classes", len(modules),
                   counts.dual_numbers_module_classes(BOUND))
            expect("projective tuples", answered("proj"),
                   counts.e2_tuple_classes(3, BOUND, projective_only=True))
        for t, v in enumerate(tuples):
            proj, inj, flat = (ans[name, k, t] for k in ("proj", "inj", "flat"))
            # Both corners are self-injective, so flat = projective = injective
            # there: the mono class B is the flat tuples, the epi class J the
            # injective ones, and the componentwise class A asks that X be
            # free over A (always, for k x k).
            x_flat = name == "E1" or 2 * counts.rank_mod_p(v.x.actions[1], 3) == v.x.dim
            expect(f"tuple {t}: flat", flat, proj)
            expect(f"tuple {t}: class B", ans[name, "class-B", t], flat)
            expect(f"tuple {t}: class J", ans[name, "class-J", t], inj)
            expect(f"tuple {t}: class A", ans[name, "class-A", t], x_flat)
            via_tuple, via_packed = ans[name, "dual", t]
            if not _same_tuple(via_tuple, via_packed):
                problems.append(f"{name}: tuple {t}: dual does not commute with pack")
            if not _same_tuple(ans[name, "roundtrip", t], v):
                problems.append(f"{name}: tuple {t}: unpack(pack(v)) is not v")
            for pair, _ in self.ADJUNCTIONS:
                expect(f"tuple {t}: {pair}", ans[name, pair, t].verdict, Verdict.PASS)
        for i, (a, b) in enumerate(pairs):
            for kind in ("proj", "inj"):
                answer = ans[name, f"sum-{kind}", i]
                if not isinstance(answer, _Failed):
                    expect(f"sum {i}: {kind}", answer,
                           ans[name, kind, a] and ans[name, kind, b])
        # Every module over a self-injective algebra is Gorenstein projective,
        # and induction from A preserves that here, so each window must be
        # consistent: never refuted, and never a proof.
        for k in range(len(modules)):
            for kind in ("gp-window", "ding-window"):
                expect(f"{kind} {k}", self._canonical(ans[name, kind, k]),
                       [True, Verdict.CONSISTENT.value])
        return problems


def make(name: str, report_path: Path, seed: int, sum_seed: int):
    """The named workload.  The two CLI workloads run a fixed command on the
    shipped fixture and have no random input, so only the session uses seeds."""
    if name == "transfer-e1":
        return TransferE1(report_path)
    if name == "enumerate-e1-d3":
        return EnumerateE1D3(report_path)
    if name == "session-gf3":
        return SessionGF3(seed, sum_seed)
    raise ValueError(f"unknown workload {name!r}")
