"""Functors between component module categories and tuple categories.

Three functors for each corner, in each direction of sidedness:

* induce(ctx, X, "a") : X |-> (X, M (x) X) with the canonical map on the
  second component and zero structure the other way; left adjoint to
  component(-, "a").
* component(v, corner) : forget down to one corner.
* coinduce(ctx, X, "a") : X |-> (X, Hom(N, X)) with evaluation as
  structure map; right adjoint to component(-, "a").

Co-induction is induction read through the character dual: by the
tensor-Hom adjunction Hom(N, X) is (X^+ (x) N)^+, so ``coinduce`` is
``induce(ctx, X.dual, c).dual`` and ``coinduced_adjoint`` is the dual of
an ``induced_adjoint``.  Induction is written once for both corners,
against the swap ``morita.by_corner`` (corner "b" gives Y |-> (N (x) Y, Y)
and so (Hom(M, Y), Y)), and once for both sides, against
``morita.TupleLayout``.  ``induce_from_a``, ``coinduce_from_b``,
``component_a`` and the other ``_a``/``_b`` names are shorthands for one
corner.  check_adjunction verifies the bijections of induction on concrete
hom-space bases, and those of co-induction as the ones of induction on the
duals.  The epi classes read the transposed structure maps x -> Hom(M, y)
through the dual as well (``classes.in_epi_class``).
"""

from __future__ import annotations

import numpy as np

from . import linalg as la
from .algebra import Module, ModuleMap, hom_space
from .memo import memo
from .morita import (CORNERS, DeltaModule, DeltaModuleMap, MoritaContext,
                     TupleLayout, by_corner, delta_hom_space, tuple_layout)
from .report import AlgebraMismatchError, CheckReport, Verdict


def _corner_layout(ctx: MoritaContext, module: Module,
                   corner: str) -> TupleLayout:
    """The layout of the side of ``module``, a module over ``corner``."""
    algebra, _ = by_corner(corner, ctx.algebra_a, ctx.algebra_b)
    if module.algebra is not algebra:
        raise AlgebraMismatchError(
            f"module does not live over the {corner.upper()} corner")
    return tuple_layout(ctx, module.side)


@memo("module")
def induce(ctx: MoritaContext, module: Module, corner: str) -> DeltaModule:
    """The tuple induced from a module over the ``corner`` algebra.

    From the A corner, X |-> (X, M (x) X) on the left and (X, X (x) N) on
    the right, with the canonical map into the tensor component and zero
    structure the other way; the B corner mirrors it.

    The tuple is derived (``DeltaModule._derived``).  The canonical map is
    the projection of plain tensor coordinates onto the product, which
    vanishes on the relations by construction and intertwines, since the
    product's actions are the ones the projection induces; the zero map
    obeys every law.
    """
    lay = _corner_layout(ctx, module, corner)
    own, other = by_corner(corner, lay.f_bimodule, lay.g_bimodule)
    t = lay.tensor(own, module)
    return DeltaModule._derived(ctx, module.side,
                                *by_corner(corner, module, t.module),
                                *by_corner(corner, t.projection,
                                           la.zeros(module.dim, other.dim * t.dim)),
                                f"ind_{corner}[{module.describe()}]")


def induce_map(ctx: MoritaContext, phi: ModuleMap, corner: str) -> DeltaModuleMap:
    """induce on a map: the component map plus its tensored image, between
    the (memoised) induced tuples of its source and target.

    Not checked again (``DeltaModuleMap._intertwining``): id (x) phi of a
    module map carries relations into relations and intertwines, so it
    descends to a module map of the products that commutes with their
    canonical projections, and the other structure maps are zero.
    """
    source = induce(ctx, phi.source, corner)
    target = induce(ctx, phi.target, corner)
    lay = source.layout
    own, _ = by_corner(corner, lay.f_bimodule, lay.g_bimodule)
    ts, tt = lay.tensor(own, phi.source), lay.tensor(own, phi.target)
    plain = lay.lift(own, phi.matrix)
    image = (tt.projection @ plain @ ts.section) % ctx.p
    return DeltaModuleMap._intertwining(source, target,
                                        *by_corner(corner, phi.matrix, image))


def component(v: DeltaModule, corner: str) -> Module:
    return by_corner(corner, v.x, v.y)[0]


def coinduce(ctx: MoritaContext, module: Module, corner: str) -> DeltaModule:
    """The tuple co-induced from a module over the ``corner`` algebra:
    induction read through the dual, ``induce(ctx, X^+, corner)^+``.

    From the A corner, X |-> (X, Hom(N, X)) on the left and (X, Hom(M, X))
    on the right; the structure map into X is evaluation and the other is
    zero.  The B corner mirrors it.  By the tensor-Hom adjunction with the
    character dual, (X^+ (x) N)^+ is Hom(N, X) and the dual of the
    canonical map is evaluation, so this is that tuple, written in the
    basis dual to that of the tensor product.  Its corner component is X
    itself, the dual of X's dual.  It is built once per module, and not
    checked again: ``induce`` is memoised on the cached ``X.dual``, and
    ``delta_dual`` derives the induced tuple's dual and keeps it.
    """
    return induce(ctx, module.dual, corner).dual


def induced_adjoint(ind: DeltaModule, v: DeltaModule, mat: np.ndarray,
                    corner: str) -> DeltaModuleMap:
    """The map ind -> v adjoint to a component map mat into v.

    ``ind`` is induced from the ``corner`` algebra and mat, a module map,
    maps into that component of v.  On the other component the map is the
    structure map of v leaving the corner, after id (x) mat.  It is
    computed on plain tensor coordinates, read through the section of the
    induced product: the plain structure map vanishes on the relations, so
    it equals its descended map after the projection.

    Not checked again (``DeltaModuleMap._intertwining``): both components
    are module maps, the square through the leaving structure maps holds by
    this definition, and the other square is zero on both sides, since the
    structure map of v entering the corner kills the image of the leaving
    one (the two bimodule corners multiply to zero in the glued algebra).
    """
    lay = v.layout
    bimodule, _ = by_corner(corner, lay.f_bimodule, lay.g_bimodule)
    leaving, _ = by_corner(corner, v.f_plain, v.g_plain)
    induced = lay.tensor(bimodule, component(ind, corner))
    other = (leaving @ lay.lift(bimodule, mat) @ induced.section) % v.p
    return DeltaModuleMap._intertwining(ind, v, *by_corner(corner, mat, other))


def coinduced_adjoint(v: DeltaModule, coind: DeltaModule, mat: np.ndarray,
                      corner: str) -> DeltaModuleMap:
    """The map v -> coind adjoint to a component map mat out of v.

    ``coind`` is co-induced from the ``corner`` algebra, so its dual is
    the induced tuple ``coind.dual``, and mat, a module map, maps out of
    that component of v.  The map is the dual of the adjoint of the
    transpose mat^T into ``v.dual``: dualising takes maps ``v -> coind`` to
    maps ``coind.dual -> v.dual`` bijectively and keeps corner blocks up to
    transposition.
    """
    return induced_adjoint(coind.dual, v.dual, mat.T, corner).dual


def induce_from_a(ctx: MoritaContext, x: Module) -> DeltaModule:
    return induce(ctx, x, "a")


def induce_from_b(ctx: MoritaContext, y: Module) -> DeltaModule:
    return induce(ctx, y, "b")


def component_a(v: DeltaModule) -> Module:
    return component(v, "a")


def component_b(v: DeltaModule) -> Module:
    return component(v, "b")


def coinduce_from_a(ctx: MoritaContext, x: Module) -> DeltaModule:
    return coinduce(ctx, x, "a")


def coinduce_from_b(ctx: MoritaContext, y: Module) -> DeltaModule:
    return coinduce(ctx, y, "b")


def check_adjunction(ctx: MoritaContext, plain: Module, v: DeltaModule,
                     pair: str) -> CheckReport:
    """Verify one of the four hom-space bijections on a concrete instance.

    pair "induce-a": maps (induce_from_a plain) -> v against maps
    plain -> v.x.  pair "coinduce-a": maps v.x -> plain against maps
    v -> coinduce_from_a plain.  The b variants mirror through the other
    corner.  A co-induction pair is the induction pair of the duals:
    co-induction is ``induce(ctx, X^+, corner)^+``, and dualising maps
    Hom(v, coinduce X) onto Hom(induce X^+, v^+) and Hom(v_c, X) onto
    Hom(X^+, (v^+)_c), transposing corner blocks, so both dimensions and
    the round trip carry over.

    The bijection is checked on whole hom-space bases, not just by
    dimension counts.  Taking the corner block (forward) and
    ``induced_adjoint`` (backward) are linear, and backward builds its
    tuple maps unchecked; the verdict does not depend on a check of them.
    One round suffices: it shows backward . forward = id on the tuple hom
    basis, so forward is one-to-one on the tuple homs; the two hom spaces
    have equal dimension, so forward is a bijection onto the plain homs
    with inverse backward, and backward lands in the tuple homs.  The other
    round holds by construction: the adjoint's corner block is its argument.

    The verdict and detail are memoised by value (``_adjunction_outcome``),
    so equal objects are checked once; the report is built on every call.
    """
    kind, _, corner = pair.partition("-")
    if kind not in ("induce", "coinduce") or corner not in CORNERS:
        raise ValueError(f"unknown adjunction pair {pair!r}")
    return CheckReport(f"adjunction-{pair}",
                       *_adjunction_outcome(v, ctx, plain, pair))


@memo("v", by_value=True)
def _adjunction_outcome(v: DeltaModule, ctx: MoritaContext, plain: Module,
                        pair: str) -> tuple[Verdict, str]:
    """The verdict and detail of ``check_adjunction``."""
    kind, _, corner = pair.partition("-")
    if kind == "coinduce":
        plain, v = plain.dual, v.dual
    ind = induce(ctx, plain, corner)
    tuple_homs = delta_hom_space(ind, v)
    plain_homs = hom_space(plain, component(v, corner))
    if len(tuple_homs) != len(plain_homs):
        return (Verdict.REFUTED,
                f"hom dimensions differ: {len(tuple_homs)} vs {len(plain_homs)}")

    def restored(dm: DeltaModuleMap) -> bool:
        forward = by_corner(corner, dm.a_matrix, dm.b_matrix)[0]
        return np.array_equal(induced_adjoint(ind, v, forward, corner).matrix,
                              dm.matrix)

    if all(restored(dm) for dm in tuple_homs):
        return (Verdict.PASS,
                f"bijection verified on hom spaces of dim {len(plain_homs)}")
    return Verdict.REFUTED, "composites are not mutually inverse"
