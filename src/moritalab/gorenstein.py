"""Truncated complete resolutions and relative-projectivity window checks.

A complete resolution is a doubly infinite exact complex of projectives that
stays exact after Hom into every member of a chosen test class.  Nothing
doubly infinite fits in memory, so every check here works on a window: a
finite stretch of positions centred on the kernel being classified.  A clean
window yields the verdict "consistent up to this width", never a proof; a
dirty window yields an honest refutation that names the failing position and
test module, relative to the canonically constructed complex.

Windows over a glued matrix ring are built either by transporting component
windows through the induction functors (when the tuple splits as a sum of
induced pieces) or by the generic splice of a cover resolution with the dual
of a cover resolution of the dual, both read off one lazy walk,
``cover_steps``.  The splice raises WindowConstructionError at the first
coresolution term that is not projective, as soon as the walk makes it;
that is a fact about the ring, not a refutation, and is reported as such.
A spliced window that then fails its own re-verification is a defect of the
program and raises InternalCheckError.

A window around x carries its coaugmentation c : x -> T^0, the map that
identifies x with the kernel leaving position 0.  Every construction keeps
it: the splice stores the coresolution's, induction induces it, restriction
takes its corner component, and transport composes the sum of the pieces'
with the inverse of the splitting isomorphism.  The kernel is identified by
rank, with no isomorphism scan: c is a module map with d^0 c = 0 and
rank c = dim x = dim T^0 - rank d^0, so c is one-to-one onto ker d^0.

Modules and tuples, and their maps, share one surface (``ring``, ``dual``,
``cover``, ``homs``; ``matrix``, ``kernel``, ``dual``), so complexes,
resolutions and window checks are written once for both.  ``dual`` is an
attribute, built once and self-inverse: the dual of an object's dual is the
object itself.  Only the transport route and the widened flat test sample
are tuple-only constructions.

The transport harnesses check that window verdicts travel along the
induction and restriction functors, with an adjunction dimension comparison
at every level as an independent cross-check.  The Ding variants are the
same checks run against the flat test class.  The harnesses take the
corner as "a" or "b" and index their class pair with ``morita.by_corner``;
each hypothesis row (inner projectivity, tensor base change, inner-hom
injective dimension) is built by one row builder that all three use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import linalg as la
from .algebra import LEFT, RIGHT, Module, is_projective
from .classes import ClassOracle, _as_input, builtin_oracles, in_mono_class
from .enumeration import enumerate_delta_modules, enumerate_modules
from .functors import component, induce, induce_map
from .memo import memo
from .morita import (
    CORNERS,
    DeltaModule,
    DeltaModuleMap,
    MoritaContext,
    by_corner,
    delta_sum,
    induced_isomorphism,
    tuple_layout,
)
from .report import (
    CheckReport,
    InternalCheckError,
    ValidationError,
    Verdict,
    WindowConstructionError,
)
from .tensor import hom_over_algebra

DIM_CUTOFF = 8


# ---------------------------------------------------------------------------
# complexes

@dataclass(eq=False)
class ChainComplex:
    """A finite stretch of a cochain complex over integer positions.

    terms[i] sits at position lo + i and maps[i] joins terms[i] to
    terms[i + 1].  Consecutive maps must compose to zero and map endpoints
    must be the stored term objects themselves.  A window around an object
    x also holds its coaugmentation, the map from x into the term at
    position 0; other complexes hold None.
    """

    lo: int
    terms: list
    maps: list
    coaugmentation: object = None

    def __post_init__(self):
        if not self.terms:
            raise ValidationError("a window needs at least one term")
        if len(self.maps) != len(self.terms) - 1:
            raise ValidationError("a window with n terms needs n - 1 differentials")
        for i, d in enumerate(self.maps):
            if d.source is not self.terms[i] or d.target is not self.terms[i + 1]:
                raise ValidationError(
                    f"differential at position {self.lo + i} does not join its terms")
        p = self.terms[0].p
        for i in range(len(self.maps) - 1):
            squared = (self.maps[i + 1].matrix @ self.maps[i].matrix) % p
            if np.any(squared):
                raise ValidationError(
                    f"consecutive differentials at position {self.lo + i} "
                    "do not compose to zero")
        if (self.coaugmentation is not None
                and self.coaugmentation.target is not self.term(0)):
            raise ValidationError(
                "the coaugmentation does not land in the term at position 0")

    @property
    def hi(self) -> int:
        return self.lo + len(self.terms) - 1

    def positions(self) -> range:
        return range(self.lo, self.hi + 1)

    def term(self, pos: int):
        return self.terms[pos - self.lo]

    def diff(self, pos: int):
        """The differential leaving the given position."""
        return self.maps[pos - self.lo]

    def dims(self) -> list[int]:
        return [t.dim for t in self.terms]


def exactness_table(cx: ChainComplex) -> list[tuple[int, bool]]:
    """(position, exact) at every inner position, by the rank identity."""
    p = cx.terms[0].p
    rows = []
    for pos in range(cx.lo + 1, cx.hi):
        arriving = la.rank(cx.diff(pos - 1).matrix, p)
        leaving = la.rank(cx.diff(pos).matrix, p)
        rows.append((pos, arriving + leaving == cx.term(pos).dim))
    return rows


def _projective(term) -> bool:
    """Projectivity through the memoised builtin oracle, so a window term
    is classified once however many checks look at it."""
    return builtin_oracles(term.ring, term.side)["projective"].contains(term)


def cover_steps(x):
    """The cover resolution of x, one step at a time.

    Yields (cover, epi, d) for x and then for each kernel in turn: epi maps
    the cover onto x or onto the kernel of the step before, and d is the
    differential into the previous cover, the kernel's inclusion after epi
    (None at the first step).  A kernel is taken only when the next step is
    asked for, so n steps cost n covers and n - 1 kernels.  Every cover is
    projective, and the covers with these differentials are exact at every
    inner position.
    """
    target, inclusion = x, None
    while True:
        cover, epi = target.cover()
        yield cover, epi, None if inclusion is None else inclusion.compose(epi)
        target, inclusion = epi.kernel()


def projective_dimension_within(x) -> int | None:
    """Steps until a syzygy turns projective, or None past ``DIM_CUTOFF``.
    The n-th syzygy is the target of the n-th epi of the cover walk."""
    for n, (_, epi, _) in enumerate(islice(cover_steps(x), DIM_CUTOFF + 1)):
        if _projective(epi.target):
            return n
    return None


def injective_dimension_within(x) -> int | None:
    """Injective dimension through the dual; duality swaps the two kinds."""
    return projective_dimension_within(x.dual)


def complete_resolution_window(x, w: int) -> ChainComplex:
    """A width-w stretch of a complete resolution with x as the kernel at 0.

    Positions run -w .. w and x is the kernel of the differential leaving
    position 0.  Tuples are first attempted by transport: when the tuple is a
    sum of pieces induced from its structural cokernels, component windows
    are induced levelwise and summed.  Otherwise (and always for plain
    modules) the window splices a cover resolution with the dualised cover
    resolution of the dual; that route needs every coresolution term to be
    projective and raises WindowConstructionError when one is not.
    """
    if w < 1:
        raise ValidationError("window width must be at least 1")
    if isinstance(x, DeltaModule):
        split = induced_isomorphism(x)
        if split is not None:
            try:
                return _transported_window(x, split, w)
            except WindowConstructionError:
                pass
    return _spliced_window(x, w)


def _spliced_window(x, w: int) -> ChainComplex:
    """The splice of a cover resolution of x and the dual of one of x.dual.

    Terms 0 .. w, the duals of the covers of the walk over ``x.dual``, are
    tested projective as they are made: an object rejected at position i
    costs i + 1 covers of its dual, i kernels and no cover of its own.  Only
    then is x walked w steps, joined on by the coaugmentation, the dual of
    the first epi.  Exact with projective terms and kernel im(coaugmentation)
    by construction, so failing the re-verification is a defect.
    """
    terms, maps = [], []
    for pos, (cover, epi, d) in enumerate(islice(cover_steps(x.dual), w + 1)):
        if not _projective(cover.dual):
            raise WindowConstructionError(
                "no projective coresolution within window: the term at "
                f"position {pos} ({cover.dual.describe()}) is not projective")
        terms.append(cover.dual)
        if d is None:
            coaug = epi.dual
        else:
            maps.append(d.dual)
    for cover, epi, d in islice(cover_steps(x), w):
        terms.insert(0, cover)
        maps.insert(0, coaug.compose(epi) if d is None else d)
    cx = ChainComplex(-w, terms, maps, coaug)
    _verify_window(cx, x, InternalCheckError)
    return cx


def _induced_window(ctx: MoritaContext, cx: ChainComplex,
                    corner: str) -> ChainComplex:
    """The levelwise induction of a component window from ``corner``."""
    terms = [induce(ctx, t, corner) for t in cx.terms]
    maps = [induce_map(ctx, d, corner) for d in cx.maps]
    coaug = cx.coaugmentation
    if coaug is not None:
        coaug = induce_map(ctx, coaug, corner)
    return ChainComplex(cx.lo, terms, maps, coaug)


def _block_sum(first, second) -> list[np.ndarray]:
    """The component matrices of the sum of two tuple maps."""
    return [la.block_diagonal([first.a_matrix, second.a_matrix]),
            la.block_diagonal([first.b_matrix, second.b_matrix])]


def _transported_window(v: DeltaModule, split, w: int) -> ChainComplex:
    """The sum of the windows induced from the pieces of ``split``, the
    value of ``induced_isomorphism`` on v.  Its coaugmentation is the sum
    of theirs after the inverse of the isomorphism from their sum to v.

    No map is checked again: a block sum of tuple maps is a tuple map, and
    the coaugmentation is a composite of tuple maps with the inverse of the
    tuple isomorphism ``joined``, itself a tuple map."""
    ctx, p = v.context, v.p
    pieces, joined = split
    ta, tb = [_induced_window(ctx, _spliced_window(piece, w), corner)
              for corner, piece in zip(CORNERS, pieces)]
    terms = [delta_sum([u, t]) for u, t in zip(ta.terms, tb.terms)]
    maps = [DeltaModuleMap._intertwining(terms[i], terms[i + 1],
                                         *_block_sum(d, e))
            for i, (d, e) in enumerate(zip(ta.maps, tb.maps))]
    inverses = [la.inverse(np.hstack([phi.a_matrix for phi in joined]), p),
                la.inverse(np.hstack([phi.b_matrix for phi in joined]), p)]
    coaug = DeltaModuleMap._intertwining(v, terms[w], *[
        (block @ inverse) % p for block, inverse in
        zip(_block_sum(ta.coaugmentation, tb.coaugmentation), inverses)])
    cx = ChainComplex(-w, terms, maps, coaug)
    _verify_window(cx, v, WindowConstructionError)
    return cx


@memo("cx")
def _structural_clauses(cx: ChainComplex, x) -> tuple[list, list[CheckReport]]:
    """The exactness table of cx and the three clauses that make it a
    window around x: exact at every inner position, projective terms, and
    the kernel leaving position 0 identified with x by its coaugmentation
    c, a module map with d^0 c = 0 and rank c = dim x = dim T^0 - rank d^0.
    Memoised on cx, so the check a window passes at construction is the
    one its report shows.
    """
    exact_rows = exactness_table(cx)
    bad_exact = [pos for pos, ok in exact_rows if not ok]
    clause_exact = CheckReport(
        "window-exactness",
        Verdict.PASS if not bad_exact else Verdict.REFUTED,
        detail=f"rank identities at positions {cx.lo + 1}..{cx.hi - 1}",
        witnesses=[{"position": pos} for pos in bad_exact])

    bad_proj = [pos for pos in cx.positions() if not _projective(cx.term(pos))]
    clause_proj = CheckReport(
        "window-terms-projective",
        Verdict.PASS if not bad_proj else Verdict.REFUTED,
        witnesses=[{"position": pos, "term": cx.term(pos).describe()}
                   for pos in bad_proj])

    coaug, d0 = cx.coaugmentation, cx.diff(0)
    p = cx.terms[0].p
    kernel_ok = (coaug is not None and coaug.source is x
                 and not np.any((d0.matrix @ coaug.matrix) % p)
                 and la.rank(coaug.matrix, p) == x.dim
                 == cx.term(0).dim - la.rank(d0.matrix, p))
    clause_kernel = CheckReport(
        "window-kernel-identification",
        Verdict.PASS if kernel_ok else Verdict.REFUTED,
        detail="the kernel leaving position 0 is isomorphic to the checked object")
    return exact_rows, [clause_exact, clause_proj, clause_kernel]


def _verify_window(cx: ChainComplex, x, error: type) -> None:
    """Raise ``error`` naming the first structural clause cx fails."""
    for clause in _structural_clauses(cx, x)[1]:
        if clause.verdict is not Verdict.PASS:
            raise error(f"window around {x.describe()} fails {clause.name}"
                        + (f" at {clause.witnesses}" if clause.witnesses else ""))


# ---------------------------------------------------------------------------
# window verdicts

@dataclass(eq=False)
class WindowVerdict:
    """Outcome of a relative-projectivity window check.

    consistent means the window is clean up to its width; it is never a
    proof.  A refutation names the first failing position and, when the Hom
    stage failed, the test module together with the homology dimension seen
    there.  The refutation refers to the canonically constructed window.
    """

    width: int
    consistent: bool
    exactness: list[tuple[int, bool]] = field(default_factory=list)
    hom_exactness: list[tuple[str, bool]] = field(default_factory=list)
    failing_position: int | None = None
    failing_test: str | None = None
    homology: dict | None = None
    window: ChainComplex | None = None
    test_modules: list = field(default_factory=list)
    report: CheckReport | None = None


def _hom_complex_data(cx: ChainComplex, test):
    """Hom bases levelwise and the homology dimensions of Hom(cx, test).

    Applying Hom(-, test) reverses the differentials; homology is reported
    at inner positions of the original window.
    """
    p = test.p
    bases = [t.homs(test) for t in cx.terms]
    vec_bases = [[b.coord_vector() for b in basis] for basis in bases]
    induced = []
    for i, d in enumerate(cx.maps):
        mat = la.zeros(len(bases[i]), len(bases[i + 1]))
        for k, psi in enumerate(bases[i + 1]):
            coords = la.coords_in_span(vec_bases[i], psi.compose(d).coord_vector(), p)
            if coords is None:
                raise InternalCheckError("hom basis failed to span a composite")
            mat[:, k] = coords
        induced.append(mat)
    homology = []
    for j in range(1, len(bases) - 1):
        arriving = la.rank(induced[j], p)
        leaving = la.rank(induced[j - 1], p)
        h = len(bases[j]) - arriving - leaving
        if h < 0:
            raise InternalCheckError("negative homology dimension")
        homology.append((cx.lo + j, h))
    return bases, homology


def _regular_hom_exact(cx: ChainComplex) -> bool:
    """Whether Hom(cx, R) is exact at every inner position, R the ring of
    the window's terms as a module (or tuple) over itself on their side."""
    term = cx.terms[0]
    _, homology = _hom_complex_data(cx, term.ring.regular_module(term.side))
    return not any(h for _, h in homology)


def _window_report(x, cx: ChainComplex, test_class: ClassOracle,
                   bound: int) -> WindowVerdict:
    """Verdict for a given window against the sampled test class.

    Every projective test P is a summand of some R^n, R the regular module,
    and Hom(cx, -) commutes with finite sums, so the homology of
    Hom(cx, P) is a summand of n copies of that of Hom(cx, R).  When
    Hom(cx, R) is exact, which is decided once at the first projective test
    over the window's ring, every projective test's row is clean and its
    own complex is not built.  Otherwise, and for every test that is not
    projective, the test's complex is built, so a refutation names its
    first failing test as before.
    """
    width = cx.hi
    exact_rows, structural = _structural_clauses(cx, x)
    bad_exact = [pos for pos, ok in exact_rows if not ok]

    tests = test_class.sample(bound)
    hom_rows = []
    failing = None
    certified = None    # Hom(cx, R) exact; decided at the first projective test
    ring, side = cx.terms[0].ring, cx.terms[0].side
    for test in tests:
        if (certified is not False and test.ring is ring
                and test.side == side and _projective(test)):
            if certified is None:
                certified = _regular_hom_exact(cx)
            if certified:
                hom_rows.append((test.describe(), True))
                continue
        _, homology = _hom_complex_data(cx, test)
        dirty = [(pos, h) for pos, h in homology if h]
        hom_rows.append((test.describe(), not dirty))
        if dirty and failing is None:
            failing = {"test": test.describe(),
                       "position": dirty[0][0],
                       "homology-dimension": dirty[0][1]}
    clause_hom = CheckReport(
        "window-hom-exactness",
        Verdict.CONSISTENT if failing is None else Verdict.REFUTED,
        detail=f"{len(tests)} test modules sampled at bound {bound}; "
               "a clean window is consistency, not proof",
        witnesses=[failing] if failing else [])

    report = CheckReport.combine(
        f"window[{x.describe()}]",
        structural + [clause_hom],
        detail=f"width {width}, test class {test_class.name}",
        meta={"width": width, "dims": cx.dims(), "tests": len(tests)})
    consistent = report.verdict in (Verdict.PASS, Verdict.CONSISTENT)
    first_bad = bad_exact[0] if bad_exact else (
        failing["position"] if failing else None)
    return WindowVerdict(
        width=width,
        consistent=consistent,
        exactness=exact_rows,
        hom_exactness=hom_rows,
        failing_position=first_bad,
        failing_test=failing["test"] if failing else None,
        homology=failing,
        window=cx,
        test_modules=tests,
        report=report)


@memo("x")
def is_gorenstein_projective_window(x, test_class: ClassOracle, w: int,
                                    bound: int) -> WindowVerdict:
    """Window check for relative projectivity against a test class.

    Builds the canonical width-w window around x, re-verifies exactness and
    term projectivity, identifies the kernel at position 0, and checks
    Hom-exactness against every sampled member of the test class.  Window
    construction failures propagate as WindowConstructionError.
    """
    return _window_report(x, complete_resolution_window(x, w),
                          test_class, bound)


def flat_test_oracle(obj) -> ClassOracle:
    """The flat test class of the carrier of obj.

    For a tuple carrier the sample is widened with inductions of flat
    components and their pairwise sums; all candidates are filtered through
    the flatness oracle itself, so the widening never changes the class.
    """
    if not isinstance(obj, DeltaModule):
        return builtin_oracles(obj.ring, obj.side)["flat"]
    return _widened_flat_oracle(obj.context, obj.side)


@memo("ctx")
def _widened_flat_oracle(ctx: MoritaContext, side: str) -> ClassOracle:
    base = builtin_oracles(ctx, side)["flat"]
    flat_a = builtin_oracles(ctx.algebra_a, side)["flat"]
    flat_b = builtin_oracles(ctx.algebra_b, side)["flat"]

    def sample(bound: int) -> list:
        pool = (_induced_test_pool(ctx, flat_a, flat_b, bound)
                + enumerate_delta_modules(ctx, side, bound))
        return [v for v in pool if base.contains(v)]

    return ClassOracle(base.name + "/widened", ctx, side, base.member, sample)


@memo("ctx")
def _induced_test_pool(ctx: MoritaContext, class_a: ClassOracle,
                       class_b: ClassOracle, bound: int) -> list:
    """Inductions of sampled members of the component classes, plus sums.

    Memoised, so repeated samples return the same sums and the membership
    and projectivity memos on them hit; callers must not extend it."""
    singles = [induce(ctx, c, corner)
               for corner, cls in zip(CORNERS, (class_a, class_b))
               for c in cls.sample(bound)]
    pool = list(singles)
    for i in range(len(singles)):
        for j in range(i + 1, len(singles)):
            pool.append(delta_sum([singles[i], singles[j]]))
    return pool


@memo("ctx")
def mono_class_test_oracle(ctx: MoritaContext, class_a: ClassOracle,
                           class_b: ClassOracle) -> ClassOracle:
    """Test oracle for the mono-structured tuple class over the components.

    Membership is the structural test; the sample pools inductions of
    component members, their pairwise sums, and enumerated tuples, then
    filters through membership.  Inductions of members land in the class
    because their structure maps are isomorphisms onto one component.
    """
    side = class_a.side

    def member(v: DeltaModule) -> bool:
        return in_mono_class(v, class_a, class_b)

    def sample(bound: int) -> list:
        pool = (_induced_test_pool(ctx, class_a, class_b, bound)
                + enumerate_delta_modules(ctx, side, bound))
        return [v for v in pool if member(v)]

    name = f"mono-class[{class_a.name}, {class_b.name}]/widened"
    return ClassOracle(name, ctx, side, member, sample)


def is_ding_projective_window(x, w: int, bound: int) -> WindowVerdict:
    """The window check taken against the flat test class of the carrier."""
    return is_gorenstein_projective_window(x, flat_test_oracle(x), w, bound)


# ---------------------------------------------------------------------------
# transport harnesses

def _class_row(name: str, ok: bool, detail: str = "",
               witnesses: list | None = None) -> CheckReport:
    return CheckReport(name, Verdict.PASS if ok else Verdict.HYPOTHESIS_FAILURE,
                       detail=detail, witnesses=witnesses or [])


def _inner_projective_row(ctx: MoritaContext, side: str,
                          detail: str = "") -> CheckReport:
    """Hypothesis row: both inner bimodules are projective on ``side``."""
    ok = all(is_projective(b.as_left_module if side == LEFT else b.as_right_module)
             for b in (ctx.n, ctx.m))
    return _class_row(f"inner-bimodules-projective-on-the-{side}", ok,
                      detail=detail)


def _base_change_row(name: str, ctx: MoritaContext, corner: str,
                     classes: tuple, bound: int, detail: str) -> CheckReport:
    """Hypothesis row: tensoring with the bimodule entering ``corner``
    carries the sample of the other corner's class into this corner's.
    ``classes`` holds the component classes in (A, B) order."""
    own, other = by_corner(corner, *classes)
    lay = tuple_layout(ctx, own.side)
    _, inner = by_corner(corner, lay.f_bimodule, lay.g_bimodule)
    bad = []
    for d in other.sample(bound):
        image = lay.tensor(inner, d).module
        if not own.contains(image):
            bad.append({"object": d.describe(), "image": image.describe()})
    return _class_row(name, not bad, detail=detail, witnesses=bad)


def _hom_dimension_row(name: str, ctx: MoritaContext, corner: str,
                       classes: tuple, bound: int) -> CheckReport:
    """Hypothesis row: Hom out of the bimodule entering ``corner`` into each
    sampled member of this corner's class has an injective coresolution
    that terminates within DIM_CUTOFF."""
    own, _ = by_corner(corner, *classes)
    lay = tuple_layout(ctx, own.side)
    _, inner = by_corner(corner, lay.f_bimodule, lay.g_bimodule)
    bad, rows = [], []
    for c in own.sample(bound):
        depth = injective_dimension_within(hom_over_algebra(inner, c).module)
        rows.append({"object": c.describe(),
                     "injective-dimension": depth if depth is not None
                     else f"exceeds cutoff {DIM_CUTOFF}"})
        if depth is None:
            bad.append(rows[-1])
    return CheckReport(
        name, Verdict.PASS if not bad else Verdict.HYPOTHESIS_FAILURE,
        detail=f"coresolution termination within cutoff {DIM_CUTOFF}",
        witnesses=bad, meta={"dimensions": rows})


def _under_hypotheses(report: CheckReport, hyp_rows: list[CheckReport],
                      unconditional: tuple = ()) -> CheckReport:
    """``report`` with the verdict hypothesis-failure when a hypothesis row
    failed and no ``unconditional`` row refutes: its window clauses, the
    conclusion, keep their verdicts and witnesses but decide nothing, as
    the equivalences of ``classes._relative_transfer`` do."""
    if any(row.verdict is not Verdict.PASS for row in hyp_rows):
        refuted = any(row.verdict is Verdict.REFUTED for row in unconditional)
        report.verdict = (Verdict.REFUTED if refuted
                          else Verdict.HYPOTHESIS_FAILURE)
    return report


def check_window_transport_forward(ctx: MoritaContext, x: Module,
                                   class_a: ClassOracle, class_b: ClassOracle,
                                   w: int, bound: int,
                                   functor: str = "a") -> CheckReport:
    """Induction carries a clean component window to a clean tuple window.

    Builds the canonical window of x over its component algebra, applies the
    induction functor from the ``functor`` corner levelwise, and re-verifies
    the image complex: terms projective over the glued ring, exact, kernel
    identified with the induced tuple, Hom-exact against the widened
    mono-class sample.  An adjunction dimension comparison at every level
    for every test tuple cross-checks the Hom computations.  Hypothesis
    failures are reported separately from conclusion failures: a failed
    hypothesis makes the harness hypothesis-failure unless the cross-check,
    which needs no hypothesis, refutes.  A component window that cannot be
    built fails the premise, naming the rejected term.
    """
    classes = (class_a, class_b)
    own_class, _ = by_corner(functor, *classes)
    hyp_rows = [
        _inner_projective_row(
            ctx, RIGHT, detail="finitely generated is automatic at finite dimension"),
        _base_change_row(
            "inner-tensor-stays-in-component-class", ctx, functor, classes,
            bound, detail=f"checked on the class sample at bound {bound}")]

    try:
        premise = is_gorenstein_projective_window(x, own_class, w, bound)
    except WindowConstructionError as err:   # a fact about the ring
        premise = None
        premise_gate = CheckReport(
            "component-window-premise", Verdict.HYPOTHESIS_FAILURE,
            detail=f"no component window to transport: {err}")
    else:
        premise_gate = CheckReport(
            "component-window-premise",
            Verdict.PASS if premise.consistent else Verdict.HYPOTHESIS_FAILURE,
            detail="the transport is only probed on a clean component window",
            clauses=[_as_input(premise.report)])
    if premise is None or not premise.consistent:
        return CheckReport.combine(
            "window-transport-forward", hyp_rows + [premise_gate],
            meta={"functor": functor, "width": w, "bound": bound})

    cx = premise.window
    image_cx = _induced_window(ctx, cx, functor)
    target = induce(ctx, x, functor)

    test_class = mono_class_test_oracle(ctx, class_a, class_b)
    image_verdict = _window_report(target, image_cx, test_class, bound)

    bad_adjunction = []
    for test in image_verdict.test_modules:
        restricted = component(test, functor)
        for i, term in enumerate(image_cx.terms):
            glued_dim = len(term.homs(test))
            plain_dim = len(cx.terms[i].homs(restricted))
            if glued_dim != plain_dim:
                bad_adjunction.append({
                    "position": cx.lo + i, "test": test.describe(),
                    "glued-side": glued_dim, "component-side": plain_dim})
    clause_adjunction = CheckReport(
        "adjunction-dimension-cross-check",
        Verdict.PASS if not bad_adjunction else Verdict.REFUTED,
        detail="hom spaces out of induced terms match hom spaces out of the "
               "component terms into the restriction, at every level",
        witnesses=bad_adjunction[:4])

    out = _under_hypotheses(CheckReport.combine(
        "window-transport-forward",
        hyp_rows + [premise_gate] + list(image_verdict.report.clauses)
        + [clause_adjunction],
        detail=f"functor t_{functor}, width {w}, bound {bound}",
        meta={"functor": functor, "width": w, "bound": bound,
              "image-dims": image_cx.dims()}),
        hyp_rows, (clause_adjunction,))
    out.window_complex = image_cx
    return out


def check_window_transport_backward(ctx: MoritaContext, v: DeltaModule,
                                    class_a: ClassOracle, class_b: ClassOracle,
                                    w: int, bound: int,
                                    functor: str = "a", *,
                                    window: ChainComplex) -> CheckReport:
    """Restriction carries a clean tuple window back to a component window.

    Takes a window around v, such as the exact complex the forward harness
    produced, restricts it levelwise to the ``functor`` corner, and
    re-verifies the restricted complex as a window for that component of v.
    The inner-hom injective dimension hypothesis is operationalised as
    termination of a coresolution within DIM_CUTOFF, which is reported.  A
    failed hypothesis makes the harness hypothesis-failure.
    """
    classes = (class_a, class_b)
    own_class, _ = by_corner(functor, *classes)
    # The tensor hypothesis runs from this corner's class into the other's.
    _, other_corner = by_corner(functor, *CORNERS)
    hyp_rows = [
        _inner_projective_row(ctx, LEFT),
        _base_change_row(
            "inner-tensor-stays-in-component-class", ctx, other_corner, classes,
            bound, detail=f"checked on the class sample at bound {bound}"),
        _hom_dimension_row("inner-hom-injective-dimension", ctx, functor,
                           classes, bound)]

    tuple_class = mono_class_test_oracle(ctx, class_a, class_b)
    premise = _window_report(v, window, tuple_class, bound)
    premise_gate = CheckReport(
        "tuple-window-premise",
        Verdict.PASS if premise.consistent else Verdict.HYPOTHESIS_FAILURE,
        detail="the restriction is only probed on a clean tuple window",
        clauses=[_as_input(premise.report)])
    if not premise.consistent:
        return CheckReport.combine(
            "window-transport-backward", hyp_rows + [premise_gate],
            meta={"functor": functor, "width": w, "bound": bound})

    def corner_map(d):
        return by_corner(functor, d.a_map, d.b_map)[0]

    coaug = window.coaugmentation
    restricted = ChainComplex(
        window.lo, [component(t, functor) for t in window.terms],
        [corner_map(d) for d in window.maps],
        None if coaug is None else corner_map(coaug))
    conclusion = _window_report(component(v, functor), restricted, own_class,
                                bound)

    return _under_hypotheses(CheckReport.combine(
        "window-transport-backward",
        hyp_rows + [premise_gate] + list(conclusion.report.clauses),
        detail=f"restriction u_{functor}, width {w}, bound {bound}, "
               f"cutoff {DIM_CUTOFF}",
        meta={"functor": functor, "width": w, "bound": bound,
              "restricted-dims": restricted.dims()}), hyp_rows)


def check_ding_transport(ctx: MoritaContext, w: int, bound: int) -> CheckReport:
    """Ding window verdicts travel along induction and restriction.

    Four clause groups: inductions of flat-clean component modules stay
    clean over the glued ring (both sides), and restrictions of clean
    tuples have clean components (both sides), each under its own
    hypothesis row.  Samples are enumerated up to the bound; candidates
    whose window cannot be constructed are recorded and skipped rather
    than counted either way.
    """
    side = LEFT
    algebras = (ctx.algebra_a, ctx.algebra_b)
    flats = tuple(builtin_oracles(algebra, side)["flat"] for algebra in algebras)
    ordinal = dict(zip(CORNERS, ("first", "second")))

    hyp_rows = [_inner_projective_row(ctx, RIGHT)]
    hyp_rows += [_base_change_row(
        f"flat-base-change-through-{ordinal[corner]}-inner", ctx, corner, flats,
        bound, detail=f"flat sample at bound {bound}") for corner in CORNERS]
    hyp_rows.append(_inner_projective_row(ctx, LEFT))
    hyp_rows += [_hom_dimension_row(
        f"inner-hom-injective-dimension-{ordinal[corner]}", ctx, corner, flats,
        bound) for corner in CORNERS]

    skipped = []

    def ding_or_none(obj):
        try:
            return is_ding_projective_window(obj, w, bound)
        except WindowConstructionError as err:
            entry = {"object": obj.describe(), "reason": str(err)}
            if entry not in skipped:
                skipped.append(entry)
            return None

    clean_tuples = []

    def induced_clause(corner, universe):
        bad, checked = [], 0
        for m in universe:
            component_verdict = ding_or_none(m)
            if component_verdict is None or not component_verdict.consistent:
                continue
            image = induce(ctx, m, corner)
            image_verdict = ding_or_none(image)
            if image_verdict is None:
                continue
            checked += 1
            clean_tuples.append(image)
            if not image_verdict.consistent:
                bad.append({"object": m.describe(),
                            "image": image.describe(),
                            "position": image_verdict.failing_position,
                            "test": image_verdict.failing_test})
        return CheckReport(
            f"induced-ding({corner})",
            Verdict.CONSISTENT if not bad else Verdict.REFUTED,
            detail=f"{checked} clean component modules transported",
            witnesses=bad)

    def component_clause(corner):
        bad, checked = [], 0
        pool = clean_tuples + [
            v for v in enumerate_delta_modules(ctx, side, bound)
            if (verdict := ding_or_none(v)) is not None and verdict.consistent]
        for v in pool:
            piece = component(v, corner)
            piece_verdict = ding_or_none(piece)
            if piece_verdict is None:
                continue
            checked += 1
            if not piece_verdict.consistent:
                bad.append({"object": v.describe(),
                            "component": piece.describe(),
                            "position": piece_verdict.failing_position,
                            "test": piece_verdict.failing_test})
        return CheckReport(
            f"component-ding({corner})",
            Verdict.CONSISTENT if not bad else Verdict.REFUTED,
            detail=f"{checked} clean tuples restricted",
            witnesses=bad)

    clauses = [induced_clause(corner, enumerate_modules(algebra, side, bound))
               for corner, algebra in zip(CORNERS, algebras)]
    clauses += [component_clause(corner) for corner in CORNERS]

    return CheckReport.combine(
        "ding-window-transport",
        hyp_rows + clauses,
        detail=f"width {w}, bound {bound}",
        meta={"width": w, "bound": bound, "skipped": skipped})
