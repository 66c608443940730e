"""Module classes and duality pairs.

A class oracle is a named membership predicate for modules on one side of a
ring, together with a sampler.  Oracles over a Morita context classify
four-tuples instead of plain modules; everything downstream (duality pairs,
perfection, the transfer harnesses) is written against the method surface
that modules and tuples share (``ring``, ``side``, ``dual``, ``plus``,
``describe``), so the same verification code runs at both levels.  The few
operations that live above a carrier's own module dispatch here:
``universe_of``, ``extensions_of``, the member table of ``builtin_oracles``
and ``_twist``.

A duality pair couples a class on one side with a class on the other through
the character module: membership on the left must match membership of the
dual on the right, and the right class must be closed under summands and
finite sums.  The harnesses at the bottom of this file check that the tuple
classes built from component classes form duality pairs exactly when the
component classes do, and that perfection and completeness transfer the same
way.  Their closure clauses share one walk over each universe's pairs,
``_closure_witnesses``: a pair's sum is built once and every right class
over that universe is asked about it, so no sum is built twice and only one
is alive at a time.

Verdict discipline: clauses that quantify over modules up to the requested
bound and are fully decided there report "pass"; clauses that sample an
infinite closure condition (direct sums of arbitrary families) report
"consistent-up-to-bound" and never "pass".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg as la
from .algebra import (LEFT, RIGHT, is_flat, is_injective, is_projective,
                      submodule)
from .enumeration import (delta_short_exact_sequences, enumerate_delta_modules,
                          enumerate_modules, short_exact_sequences)
from .functors import coinduce, induce, tilde_kernel
from .memo import memo
from .morita import (CORNERS, DeltaModule, MoritaContext, by_corner,
                     corner_parts, delta_submodule, is_flat_delta,
                     is_injective_delta, is_projective_delta,
                     structural_cokernel)
from .report import (AlgebraMismatchError, CheckReport, ValidationError,
                     Verdict)
from .tensor import tor_one_dimension

__all__ = [
    "ClassOracle", "DualityPairSpec", "builtin_oracles", "verify_oracle",
    "in_component_class", "in_mono_class", "in_epi_class",
    "component_class_oracle", "mono_class_oracle", "epi_class_oracle",
    "verify_duality_pair", "verify_perfection", "check_perfect_pair",
    "check_symmetric_pair", "check_complete_pair",
    "check_functor_membership", "check_duality_transfer",
    "check_perfect_transfer", "check_complete_transfer",
    "check_class_agreement", "check_injective_structure",
]


# ---------------------------------------------------------------------------
# what a ring's modules are


def universe_of(ring, side: str, bound: int) -> list:
    """Every isomorphism class up to the bound, one representative each."""
    if isinstance(ring, MoritaContext):
        return enumerate_delta_modules(ring, side, bound)
    return enumerate_modules(ring, side, bound)


def extensions_of(obj) -> list:
    """All (sub, quotient) pairs arising from submodules of the object."""
    if isinstance(obj, DeltaModule):
        return [(sub, quot) for sub, _, quot, _ in delta_short_exact_sequences(obj)]
    return [(sub, quot) for sub, _, quot, _ in short_exact_sequences(obj)]


def _as_input(report: CheckReport) -> CheckReport:
    """Mark a sub-report as an input to an equivalence, not a decision."""
    return CheckReport("input:" + report.name, report.verdict, report.detail,
                       report.witnesses, report.hypotheses, report.clauses,
                       report.meta)


def _ring_name(ring) -> str:
    return getattr(ring, "name", "") or "<ring>"


# ---------------------------------------------------------------------------
# oracles


@dataclass(eq=False)
class ClassOracle:
    """A named class of modules on one side of a ring.

    ``ring`` is an Algebra (objects are plain modules) or a MoritaContext
    (objects are four-tuples).  ``member`` must be an isomorphism invariant
    and must accept the zero module; verify_oracle spot-checks both.  The
    default sampler filters the enumerated universe through the predicate.
    """

    name: str
    ring: object
    side: str
    member: Callable
    sampler: Callable | None = None

    @memo("obj")
    def contains(self, obj) -> bool:
        if obj.ring is not self.ring or obj.side != self.side:
            raise AlgebraMismatchError(
                f"oracle {self.name!r} got an object over the wrong ring or side")
        return bool(self.member(obj))

    def sample(self, bound: int) -> list:
        if self.sampler is not None:
            return list(self.sampler(bound))
        return [obj for obj in universe_of(self.ring, self.side, bound)
                if self.contains(obj)]


@memo("ring")
def builtin_oracles(ring, side: str) -> dict[str, ClassOracle]:
    """The stock classes: projective, injective, flat, fp-injective, all.

    Over a finite-dimensional algebra every module is finitely presented and
    the ring is noetherian and perfect, so flat coincides with projective and
    fp-injective with injective; the oracles keep separate names because the
    pairings treat them as different classes.
    """
    if isinstance(ring, MoritaContext):
        members = {
            "projective": is_projective_delta,
            "injective": is_injective_delta,
            "flat": is_flat_delta,
            "fp-injective": is_injective_delta,
            "all": lambda v: True,
        }
    else:
        members = {
            "projective": is_projective,
            "injective": is_injective,
            "flat": is_flat,
            "fp-injective": is_injective,
            "all": lambda m: True,
        }
    tag = f"{_ring_name(ring)}/{side}"
    return {kind: ClassOracle(f"{kind}:{tag}", ring, side, fn)
            for kind, fn in members.items()}


def _unitriangular(d: int, p: int) -> np.ndarray:
    m = la.eye(d)
    for i in range(1, d):
        m[i, i - 1] = 1 % p
    return m


def _twist(obj):
    """An isomorphic copy in a different basis (lower unitriangular change)."""
    if isinstance(obj, DeltaModule):
        px = _unitriangular(obj.x.dim, obj.p)
        py = _unitriangular(obj.y.dim, obj.p)
        return delta_submodule(obj, px, py)[0]
    return submodule(obj, _unitriangular(obj.dim, obj.p))[0]


def verify_oracle(oracle: ClassOracle, bound: int) -> CheckReport:
    """Spot-check the oracle invariants on the enumerated universe."""
    clauses = []
    ok = oracle.contains(universe_of(oracle.ring, oracle.side, 0)[0])
    clauses.append(CheckReport(
        "zero-module", Verdict.PASS if ok else Verdict.REFUTED,
        detail="the zero module belongs to every class used here"))
    witness = None
    for obj in universe_of(oracle.ring, oracle.side, bound):
        if oracle.contains(obj) != oracle.contains(_twist(obj)):
            witness = obj
            break
    clauses.append(CheckReport(
        "isomorphism-invariance",
        Verdict.PASS if witness is None else Verdict.REFUTED,
        detail=f"membership compared against a rebased copy, bound {bound}",
        witnesses=[] if witness is None else [{"object": witness.describe()}]))
    return CheckReport.combine(f"oracle({oracle.name})", clauses)


# ---------------------------------------------------------------------------
# tuple classes built from component classes


def _require_component_classes(v: DeltaModule, class_a: ClassOracle,
                               class_b: ClassOracle) -> None:
    ctx = v.context
    for cls, algebra, ordinal in ((class_a, ctx.algebra_a, "first"),
                                  (class_b, ctx.algebra_b, "second")):
        if cls.ring is not algebra or cls.side != v.side:
            raise AlgebraMismatchError(
                f"{cls.name!r} does not classify {v.side} modules over the {ordinal} algebra")


def in_component_class(v: DeltaModule, class_a: ClassOracle,
                       class_b: ClassOracle) -> bool:
    """Both components belong to their classes; the maps are unconstrained."""
    _require_component_classes(v, class_a, class_b)
    return class_a.contains(v.x) and class_b.contains(v.y)


def in_mono_class(v: DeltaModule, class_a: ClassOracle,
                  class_b: ClassOracle) -> bool:
    """Structure maps injective with cokernels in the component classes."""
    _require_component_classes(v, class_a, class_b)
    parts = corner_parts(v, structural_cokernel)
    return (parts is not None and class_a.contains(parts[0][0])
            and class_b.contains(parts[1][0]))


def in_epi_class(v: DeltaModule, class_a: ClassOracle,
                 class_b: ClassOracle) -> bool:
    """Transposed maps surjective with kernels in the component classes."""
    _require_component_classes(v, class_a, class_b)
    parts = corner_parts(v, tilde_kernel)
    return (parts is not None and class_a.contains(parts[0][0])
            and class_b.contains(parts[1][0]))


@memo("ctx")
def _tuple_oracle(kind: str, predicate, ctx: MoritaContext,
                  class_a: ClassOracle, class_b: ClassOracle) -> ClassOracle:
    if class_a.side != class_b.side:
        raise AlgebraMismatchError("component classes live on different sides")
    if class_a.ring is not ctx.algebra_a or class_b.ring is not ctx.algebra_b:
        raise AlgebraMismatchError("component classes do not match the context")
    name = f"{kind}[{class_a.name}, {class_b.name}]"
    return ClassOracle(name, ctx, class_a.side,
                       lambda v: predicate(v, class_a, class_b))


def component_class_oracle(ctx, class_a, class_b) -> ClassOracle:
    return _tuple_oracle("comp", in_component_class, ctx, class_a, class_b)


def mono_class_oracle(ctx, class_a, class_b) -> ClassOracle:
    return _tuple_oracle("mono", in_mono_class, ctx, class_a, class_b)


def epi_class_oracle(ctx, class_a, class_b) -> ClassOracle:
    return _tuple_oracle("epi", in_epi_class, ctx, class_a, class_b)


# ---------------------------------------------------------------------------
# duality pairs


@dataclass(eq=False)
class DualityPairSpec:
    """A candidate duality pair with the enumeration bound for checking it."""

    left: ClassOracle
    right: ClassOracle
    bound: int

    def __post_init__(self):
        if self.left.ring is not self.right.ring:
            raise AlgebraMismatchError("pair classes live over different rings")
        if self.left.side == self.right.side:
            raise ValidationError("pair classes must sit on opposite sides")

    @property
    def name(self) -> str:
        return f"{self.left.name} | {self.right.name}"

    def swapped(self) -> "DualityPairSpec":
        return DualityPairSpec(self.right, self.left, self.bound)


def verify_duality_pair(spec: DualityPairSpec) -> CheckReport:
    """Definition check: character biconditional plus right-class closure.

    Both clauses quantify over the enumerated universes up to the bound and
    are fully decided there, so they report pass or refuted.  The closure
    clause checks each unordered pair biconditionally: sum in the class iff
    both summands are, which covers finite sums and summands at once.  Its
    pairs are scanned by ``_closure_witnesses``, the scan every harness
    shares, for this one right class; the transfer harnesses ask it once per
    universe for all the right classes they report on.
    """
    return _duality_pair_reports([spec])[0]


def _duality_pair_reports(specs: list[DualityPairSpec]) -> list[CheckReport]:
    """The duality-pair report of each spec: the character clauses in spec
    order, then one closure scan for all the right classes that share a
    universe, in the order they first appear."""
    characters = [_character_clause(spec.left, spec.right, spec.bound)
                  for spec in specs]
    universes: dict = {}
    for spec in specs:
        right = spec.right
        universes.setdefault((right.ring, right.side, spec.bound),
                             {})[right] = None
    witnesses = {}
    for (ring, side, bound), classes in universes.items():
        found = _closure_witnesses(ring, side, bound, *classes)
        witnesses.update(((cls, bound), pair)
                         for cls, pair in zip(classes, found))
    return [_duality_pair_report(spec, character,
                                 witnesses[spec.right, spec.bound])
            for spec, character in zip(specs, characters)]


def _duality_pair_report(spec: DualityPairSpec, character: CheckReport,
                         pair_witness) -> CheckReport:
    closure = CheckReport(
        "sum-and-summand-closure",
        Verdict.PASS if pair_witness is None else Verdict.REFUTED,
        detail="u+v in the right class iff u and v are, over all pairs",
        witnesses=[] if pair_witness is None else [
            {"first": pair_witness[0].describe(),
             "second": pair_witness[1].describe()}])
    return CheckReport.combine(f"duality-pair({spec.name})",
                               [character, closure], meta={"bound": spec.bound})


@memo("left")
def _character_clause(left: ClassOracle, right: ClassOracle,
                      bound: int) -> CheckReport:
    witness = None
    for obj in universe_of(left.ring, left.side, bound):
        if left.contains(obj) != right.contains(obj.dual()):
            witness = obj
            break
    return CheckReport(
        "character-biconditional",
        Verdict.PASS if witness is None else Verdict.REFUTED,
        detail=f"membership against dual membership, bound {bound}",
        witnesses=[] if witness is None else [
            {"object": witness.describe(),
             "left": left.contains(witness),
             "dual-right": right.contains(witness.dual())}])


@memo("ring")
def _closure_witnesses(ring, side: str, bound: int,
                       *classes: ClassOracle) -> tuple:
    """For each class, the first pair (u, v) of the universe, u at or before
    v, where "u + v is in the class" and "u and v both are" disagree; None
    if there is none.

    One walk over the pairs serves every class.  Each pair's sum is built
    once, while some class has no witness yet, and every such class is asked
    about it in the order given, with the short-circuit of a scan of its own:
    a class evaluates exactly what that scan would and finds the same pair.
    Only the current pair's sum is alive.
    """
    objs = universe_of(ring, side, bound)
    pairs = ((u, v) for i, u in enumerate(objs) for v in objs[i:])
    witnesses: dict = {}
    pending = list(classes)
    for u, v in pairs:
        if not pending:
            break
        total = u.plus(v)
        for cls in pending:
            if (cls.contains(u) and cls.contains(v)) != cls.contains(total):
                witnesses[cls] = (u, v)
        del total
        pending = [cls for cls in pending if cls not in witnesses]
    return tuple(witnesses.get(cls) for cls in classes)


def verify_perfection(spec: DualityPairSpec) -> CheckReport:
    """Left class contains the ring, closed under direct sums and extensions.

    Sum closure is an infinite condition; it is sampled pairwise over the
    members found at the bound and therefore never reports better than
    consistent-up-to-bound.  Extension closure runs over every short exact
    sequence of every enumerated module, which is complete at the bound.
    """
    return _verify_perfection(spec.left, spec.bound)


@memo("left")
def _verify_perfection(left: ClassOracle, bound: int) -> CheckReport:
    clauses = []
    reg = left.ring.regular_module(left.side)
    has_ring = left.contains(reg)
    clauses.append(CheckReport(
        "contains-regular",
        Verdict.PASS if has_ring else Verdict.REFUTED,
        detail="the ring as a module over itself belongs to the left class",
        witnesses=[] if has_ring else [{"object": reg.describe()}]))

    members = [obj for obj in universe_of(left.ring, left.side, bound)
               if left.contains(obj)]
    bad = None
    for i, u in enumerate(members):
        for v in members[i:]:
            if not left.contains(u.plus(v)):
                bad = (u, v)
                break
        if bad:
            break
    clauses.append(CheckReport(
        "direct-sum-closure",
        Verdict.CONSISTENT if bad is None else Verdict.REFUTED,
        detail="pairwise sums of members at the bound; arbitrary families "
               "are not finitely checkable",
        witnesses=[] if bad is None else [
            {"first": bad[0].describe(), "second": bad[1].describe()}]))

    ext_bad = None
    for whole in universe_of(left.ring, left.side, bound):
        if left.contains(whole):   # a member is the middle term of no witness
            continue
        for sub, quot in extensions_of(whole):
            if left.contains(sub) and left.contains(quot):
                ext_bad = (sub, whole, quot)
                break
        if ext_bad:
            break
    clauses.append(CheckReport(
        "extension-closure",
        Verdict.PASS if ext_bad is None else Verdict.REFUTED,
        detail="middle terms of all enumerated short exact sequences",
        witnesses=[] if ext_bad is None else [
            {"sub": ext_bad[0].describe(), "middle": ext_bad[1].describe(),
             "quotient": ext_bad[2].describe()}]))
    return CheckReport.combine(f"perfection({left.name})", clauses,
                               meta={"bound": bound})


def check_perfect_pair(spec: DualityPairSpec) -> CheckReport:
    return _perfect_pairs([spec])[0]


def _perfect_pairs(specs: list[DualityPairSpec]) -> list[CheckReport]:
    """The perfection report of each spec, its pair verified with one
    closure scan per universe."""
    return [CheckReport.combine(f"perfect({spec.name})",
                                [duality, verify_perfection(spec)])
            for spec, duality in zip(specs, _duality_pair_reports(specs))]


def check_symmetric_pair(spec: DualityPairSpec) -> CheckReport:
    """Both orientations of the pair verify."""
    forward, backward = _duality_pair_reports([spec, spec.swapped()])
    return _symmetric_pair(spec, forward, backward)


def _symmetric_pair(spec: DualityPairSpec, forward: CheckReport,
                    backward: CheckReport) -> CheckReport:
    return CheckReport.combine(f"symmetric({spec.name})", [forward, backward])


def check_complete_pair(spec: DualityPairSpec) -> CheckReport:
    """Symmetric and perfect at once."""
    return _complete_pairs([spec])[0]


def _complete_pairs(specs: list[DualityPairSpec]) -> list[CheckReport]:
    """The completeness report of each spec, both orientations of all of
    them verified with one closure scan per universe."""
    reports = _duality_pair_reports(specs + [spec.swapped() for spec in specs])
    return [CheckReport.combine(
                f"complete({spec.name})",
                [_symmetric_pair(spec, forward, backward),
                 verify_perfection(spec)])
            for spec, forward, backward in zip(specs, reports,
                                               reports[len(specs):])]


# ---------------------------------------------------------------------------
# transfer harnesses


def _component_quad(ctx: MoritaContext, c1, c2, d1, d2) -> None:
    checks = [(c1, ctx.algebra_a, LEFT), (c2, ctx.algebra_a, None),
              (d1, ctx.algebra_b, LEFT), (d2, ctx.algebra_b, None)]
    for oracle, alg, side in checks:
        if oracle.ring is not alg:
            raise AlgebraMismatchError(
                f"oracle {oracle.name!r} is not a class over {_ring_name(alg)}")
        if side is not None and oracle.side != side:
            raise AlgebraMismatchError(
                f"oracle {oracle.name!r} must classify {side} modules")
    if c1.side == c2.side or d1.side == d2.side:
        raise ValidationError("component classes must come in opposite-side pairs")
    if c1.side != d1.side:
        raise ValidationError("the two left-hand classes must share a side")


def _holds(report: CheckReport) -> bool:
    return report.verdict is not Verdict.REFUTED


def check_functor_membership(ctx: MoritaContext, c1, c2, d1, d2,
                             bound: int) -> CheckReport:
    """Eight biconditionals tying plain-module classes to tuple classes.

    For every enumerated left module X over the first algebra (and Y over the
    second): inducing lands in the mono class iff the module was in its
    class, coinducing lands in the epi class likewise, and the duals land in
    the transposed classes over the opposite side.
    """
    _component_quad(ctx, c1, c2, d1, d2)
    side = c1.side
    if side != LEFT:
        raise ValidationError("the functor checks run from left-module classes")

    pools = [enumerate_modules(ctx.algebra_a, LEFT, bound),
             enumerate_modules(ctx.algebra_b, LEFT, bound)]
    # (functor, class its images are tested in, whether both sides are dualised)
    cases = [(induce, "mono", False), (induce, "epi", True),
             (coinduce, "epi", False), (coinduce, "mono", True)]
    tests = {"mono": in_mono_class, "epi": in_epi_class}
    clauses = []
    for functor, kind, dualised in cases:
        classes = (c2, d2) if dualised else (c1, d1)
        for corner, pool in zip(CORNERS, pools):
            own, _ = by_corner(corner, *classes)
            witness = None
            for obj in pool:
                plain, image = obj, functor(ctx, obj, corner)
                if dualised:
                    plain, image = plain.dual(), image.dual()
                if own.contains(plain) != tests[kind](image, *classes):
                    witness = obj
                    break
            name = f"{functor.__name__}-{corner}-{'dual-' if dualised else ''}{kind}"
            clauses.append(CheckReport(
                name, Verdict.PASS if witness is None else Verdict.REFUTED,
                witnesses=[] if witness is None else [{"object": witness.describe()}]))
    hyp = [{"statement": "inner bimodules finite dimensional on both sides",
            "m-dim": ctx.m.dim, "n-dim": ctx.n.dim}]
    report = CheckReport.combine(
        "functor-class-membership", clauses,
        detail=f"exhaustive over component modules up to dim {bound}",
        meta={"bound": bound})
    report.hypotheses = hyp
    return report


def _transfer_specs(ctx, c1, c2, d1, d2, bound) -> list[DualityPairSpec]:
    """The pairs the transfer harnesses compare, always in this order, so
    that harnesses over the same classes share their closure scans: the two
    component pairs, then the mono/epi, componentwise and epi/mono tuple
    pairs."""
    return [
        DualityPairSpec(c1, c2, bound),
        DualityPairSpec(d1, d2, bound),
        DualityPairSpec(mono_class_oracle(ctx, c1, d1),
                        epi_class_oracle(ctx, c2, d2), bound),
        DualityPairSpec(component_class_oracle(ctx, c1, d1),
                        component_class_oracle(ctx, c2, d2), bound),
        DualityPairSpec(epi_class_oracle(ctx, c1, d1),
                        mono_class_oracle(ctx, c2, d2), bound),
    ]


def check_duality_transfer(ctx: MoritaContext, c1, c2, d1, d2,
                           bound: int) -> CheckReport:
    """The four pair statements hold or fail together.

    Statements: (a) both component pairs are duality pairs; (b) the
    mono/epi tuple pair is; (c) the componentwise tuple pair is; (d) the
    epi/mono tuple pair is.  The decision clause compares the four truth
    values; the pair reports themselves are attached as inputs.
    """
    _component_quad(ctx, c1, c2, d1, d2)
    r_a, r_b, r_mono_epi, r_comp, r_epi_mono = _duality_pair_reports(
        _transfer_specs(ctx, c1, c2, d1, d2, bound))

    statements = {
        "components": _holds(r_a) and _holds(r_b),
        "mono-epi": _holds(r_mono_epi),
        "componentwise": _holds(r_comp),
        "epi-mono": _holds(r_epi_mono),
    }
    agree = len(set(statements.values())) == 1
    disagreeing = [k for k, val in statements.items()
                   if val != statements["components"]]
    equivalence = CheckReport(
        "statement-equivalence",
        Verdict.PASS if agree else Verdict.REFUTED,
        detail="; ".join(f"{k}={v}" for k, v in statements.items()),
        witnesses=[] if agree else [{"disagree": disagreeing}])

    return CheckReport(
        name="duality-pair-transfer",
        verdict=equivalence.verdict,
        detail=f"four pair statements compared at bound {bound}",
        clauses=[_as_input(r_a), _as_input(r_b), _as_input(r_mono_epi),
                 _as_input(r_comp), _as_input(r_epi_mono), equivalence],
        hypotheses=[{"statement": "inner bimodules finite dimensional, so "
                                  "finitely presented on either side",
                     "m-dim": ctx.m.dim, "n-dim": ctx.n.dim}],
        meta={"bound": bound, "statements": statements})


def _tor_hypothesis(ctx: MoritaContext, c1, d1, bound: int) -> CheckReport:
    """Vanishing of the first torsion of the inner bimodules on class members.

    Interchanges with finite sums and every object the perfection clauses
    touch stays within the bound, so a clean scan certifies the hypothesis
    for the whole run.
    """
    witness = None
    for d in d1.sample(bound):
        if tor_one_dimension(ctx.n, d):
            witness = ("second-inner", d)
            break
    if witness is None:
        for c in c1.sample(bound):
            if tor_one_dimension(ctx.m, c):
                witness = ("first-inner", c)
                break
    return CheckReport(
        "torsion-vanishing",
        Verdict.PASS if witness is None else Verdict.HYPOTHESIS_FAILURE,
        detail="first torsion of the inner bimodules against class members",
        witnesses=[] if witness is None else [
            {"bimodule": witness[0], "object": witness[1].describe()}])


def check_perfect_transfer(ctx: MoritaContext, c1, c2, d1, d2,
                           bound: int) -> CheckReport:
    """Perfection transfers between component pairs and tuple pairs.

    Two equivalences are decided: the mono/epi pair is perfect iff both
    component pairs are (under the torsion-vanishing hypothesis), and the
    componentwise pair is perfect iff additionally both inner bimodules
    belong to the left component classes.  Perfection involves closure under
    arbitrary direct sums, so the equivalences never report better than
    consistent-up-to-bound.
    """
    _component_quad(ctx, c1, c2, d1, d2)
    tor = _tor_hypothesis(ctx, c1, d1, bound)

    perfect_a, perfect_b, perfect_mono_epi, perfect_comp = _perfect_pairs(
        _transfer_specs(ctx, c1, c2, d1, d2, bound)[:4])
    components_perfect = _holds(perfect_a) and _holds(perfect_b)

    if tor.verdict is Verdict.PASS:
        agree = _holds(perfect_mono_epi) == components_perfect
        eq_mono = CheckReport(
            "perfect-equivalence(mono-epi)",
            Verdict.CONSISTENT if agree else Verdict.REFUTED,
            detail=f"tuple-side={_holds(perfect_mono_epi)}, "
                   f"component-side={components_perfect}")
    else:
        eq_mono = CheckReport(
            "perfect-equivalence(mono-epi)", Verdict.HYPOTHESIS_FAILURE,
            detail="torsion hypothesis failed; equivalence not guaranteed")

    m_left = ctx.m.as_left_module
    n_left = ctx.n.as_left_module
    conditions = d1.contains(m_left) and c1.contains(n_left)
    condition_row = CheckReport(
        "input:bimodule-membership",
        Verdict.PASS if conditions else Verdict.REFUTED,
        detail="first inner bimodule in the second left class and second "
               "inner bimodule in the first left class",
        witnesses=[] if conditions else [
            {"object": obj.describe(), "class": oracle.name}
            for obj, oracle in ((m_left, d1), (n_left, c1))
            if not oracle.contains(obj)])
    comp_side = conditions and components_perfect
    agree2 = _holds(perfect_comp) == comp_side
    eq_comp = CheckReport(
        "perfect-equivalence(componentwise)",
        Verdict.CONSISTENT if agree2 else Verdict.REFUTED,
        detail=f"tuple-side={_holds(perfect_comp)}, component-side={comp_side} "
               f"(membership conditions {conditions})")

    decision = [tor, eq_mono, eq_comp]
    folded = CheckReport.combine("perfect-transfer", decision)
    return CheckReport(
        name="perfect-transfer",
        verdict=folded.verdict,
        detail=f"perfection equivalences at bound {bound}",
        clauses=[_as_input(perfect_a), _as_input(perfect_b),
                 _as_input(perfect_mono_epi), _as_input(perfect_comp),
                 condition_row, tor, eq_mono, eq_comp],
        meta={"bound": bound})


def check_complete_transfer(ctx: MoritaContext, c1, c2, d1, d2,
                            bound: int) -> CheckReport:
    """Completeness transfers like perfection, under projectivity hypotheses.

    The mono/epi equivalence needs both inner bimodules finitely generated
    projective on their one-sided ring; the componentwise equivalence again
    trades that for membership of the bimodules in the left classes.
    """
    _component_quad(ctx, c1, c2, d1, d2)

    n_right_proj = is_projective(ctx.n.as_right_module)
    m_right_proj = is_projective(ctx.m.as_right_module)
    hyp = CheckReport(
        "inner-bimodules-projective",
        Verdict.PASS if (n_right_proj and m_right_proj)
        else Verdict.HYPOTHESIS_FAILURE,
        detail=f"second-inner right projective: {n_right_proj}, "
               f"first-inner right projective: {m_right_proj}")

    complete_a, complete_b, complete_mono_epi, complete_comp = _complete_pairs(
        _transfer_specs(ctx, c1, c2, d1, d2, bound)[:4])
    components_complete = _holds(complete_a) and _holds(complete_b)

    if hyp.verdict is Verdict.PASS:
        agree = _holds(complete_mono_epi) == components_complete
        eq_mono = CheckReport(
            "complete-equivalence(mono-epi)",
            Verdict.CONSISTENT if agree else Verdict.REFUTED,
            detail=f"tuple-side={_holds(complete_mono_epi)}, "
                   f"component-side={components_complete}")
    else:
        eq_mono = CheckReport(
            "complete-equivalence(mono-epi)", Verdict.HYPOTHESIS_FAILURE,
            detail="projectivity hypothesis failed; equivalence not guaranteed")

    conditions = d1.contains(ctx.m.as_left_module) \
        and c1.contains(ctx.n.as_left_module)
    comp_side = conditions and components_complete
    agree2 = _holds(complete_comp) == comp_side
    eq_comp = CheckReport(
        "complete-equivalence(componentwise)",
        Verdict.CONSISTENT if agree2 else Verdict.REFUTED,
        detail=f"tuple-side={_holds(complete_comp)}, component-side={comp_side} "
               f"(membership conditions {conditions})")

    folded = CheckReport.combine("complete-transfer", [hyp, eq_mono, eq_comp])
    return CheckReport(
        name="complete-transfer",
        verdict=folded.verdict,
        detail=f"completeness equivalences at bound {bound}",
        clauses=[_as_input(complete_a), _as_input(complete_b),
                 _as_input(complete_mono_epi), _as_input(complete_comp),
                 hyp, eq_mono, eq_comp],
        meta={"bound": bound})


def check_class_agreement(left: ClassOracle, first: ClassOracle,
                          second: ClassOracle, bound: int) -> CheckReport:
    """Two right halves completing the same left class coincide.

    The agreement scan always runs; if either input pair fails its
    completeness check the verdict degrades to hypothesis-failure instead of
    pass, but a genuine disagreement is still reported as refuted.
    """
    complete_first, complete_second = _complete_pairs(
        [DualityPairSpec(left, first, bound),
         DualityPairSpec(left, second, bound)])

    witness = None
    for obj in universe_of(first.ring, first.side, bound):
        if first.contains(obj) != second.contains(obj):
            witness = obj
            break
    if witness is not None:
        verdict = Verdict.REFUTED
    elif _holds(complete_first) and _holds(complete_second):
        verdict = Verdict.PASS
    else:
        verdict = Verdict.HYPOTHESIS_FAILURE
    agreement = CheckReport(
        "membership-agreement", Verdict.PASS if witness is None
        else Verdict.REFUTED,
        detail=f"both right classes scanned up to the bound {bound}",
        witnesses=[] if witness is None else [
            {"object": witness.describe(),
             "first": first.contains(witness),
             "second": second.contains(witness)}])
    return CheckReport(
        name=f"right-half-uniqueness({first.name} vs {second.name})",
        verdict=verdict,
        detail="completeness of both pairs is a hypothesis, agreement is the claim",
        clauses=[_as_input(complete_first), _as_input(complete_second),
                 agreement],
        meta={"bound": bound})


def check_injective_structure(ctx: MoritaContext, bound: int) -> CheckReport:
    """Absolutely pure tuples on the co-module side match the epi class.

    Over these finite-dimensional algebras absolute purity coincides with
    injectivity, so the check compares injectivity of each enumerated tuple
    against epi-class membership with injective component classes on the
    opposite side of the base ring.
    """
    n_right_proj = is_projective(ctx.n.as_right_module)
    m_right_proj = is_projective(ctx.m.as_right_module)
    hyp = CheckReport(
        "inner-bimodules-projective",
        Verdict.PASS if (n_right_proj and m_right_proj)
        else Verdict.HYPOTHESIS_FAILURE,
        detail=f"second-inner right projective: {n_right_proj}, "
               f"first-inner right projective: {m_right_proj}; coherence is "
               "automatic at finite dimension")
    class_a = builtin_oracles(ctx.algebra_a, RIGHT)["fp-injective"]
    class_b = builtin_oracles(ctx.algebra_b, RIGHT)["fp-injective"]
    witness = None
    for v in enumerate_delta_modules(ctx, RIGHT, bound):
        if is_injective_delta(v) != in_epi_class(v, class_a, class_b):
            witness = v
            break
    decision = CheckReport(
        "injective-iff-epi-class",
        Verdict.PASS if witness is None else Verdict.REFUTED,
        detail=f"exhaustive over tuples with component dims up to {bound}",
        witnesses=[] if witness is None else [{"object": witness.describe()}])
    if hyp.verdict is not Verdict.PASS and decision.verdict is Verdict.PASS:
        decision = CheckReport(decision.name, Verdict.HYPOTHESIS_FAILURE,
                               decision.detail)
    return CheckReport.combine(
        "injective-tuple-structure", [hyp, decision],
        detail="transposed maps surjective with absolutely pure kernels",
        meta={"bound": bound})
