"""Functors between component module categories and tuple categories.

Three functors for each corner, in each direction of sidedness:

* induce(ctx, X, "a") : X |-> (X, M (x) X) with the canonical map on the
  second component and zero structure the other way; left adjoint to
  component(-, "a").
* component(v, corner) : forget down to one corner.
* coinduce(ctx, X, "a") : X |-> (X, Hom(N, X)) with evaluation as
  structure map; right adjoint to component(-, "a").

Each is written once for both corners, against the swap
``morita.by_corner`` (corner "b" gives Y |-> (N (x) Y, Y) and
(Hom(M, Y), Y)), and once for both sides, against ``morita.TupleLayout``.
``induce_from_a``, ``coinduce_from_b``, ``component_a`` and the other
``_a``/``_b`` names are shorthands for one corner.  ``tilde`` transposes a
structure map into X -> Hom(M, Y) ("a") or Y -> Hom(N, X) ("b") for left
tuples.  Its kernels, which ``tilde_kernel`` reads off the stacked blocks
of the structure map without building the transposed map, control the
epi-style membership tests.  check_adjunction verifies the unit/counit
bijections on concrete hom-space bases.
"""

from __future__ import annotations

import numpy as np

from . import linalg as la
from .algebra import Module, ModuleMap, hom_space, submodule
from .memo import memo
from .morita import (CORNERS, DeltaModule, DeltaModuleMap, MoritaContext,
                     TupleLayout, by_corner, delta_hom_space, summand_arrays,
                     tuple_layout)
from .report import AlgebraMismatchError, CheckReport, Verdict
from .tensor import HomModule, hom_over_algebra


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


def _evaluation_plain(hom: HomModule, lay: TupleLayout) -> np.ndarray:
    """Evaluation on plain tensor coordinates: in the block of bimodule
    basis vector i, column k is the value of basis map k at i."""
    blocks = np.zeros((hom.source.dim, hom.target.dim, hom.dim), dtype=np.int64)
    for k, mat in enumerate(hom.basis):
        blocks[:, :, k] = mat.T
    return lay.unblocks(blocks) % hom.p


@memo("module")
def coinduce(ctx: MoritaContext, module: Module, corner: str) -> DeltaModule:
    """The tuple co-induced from a module over the ``corner`` algebra.

    From the A corner, X |-> (X, Hom(N, X)) on the left and (X, Hom(M, X))
    on the right; the structure map into X is evaluation and the other is
    zero.  The B corner mirrors it.

    The tuple is derived (``DeltaModule._derived``).  Each basis map phi of
    the hom module is a module map, so evaluation n (x) phi |-> phi(n) is
    one; and the hom module's action is precomposition with the bimodule's
    other action, (b phi)(n) = phi(n b) on the left, so evaluation vanishes
    on the relations n b (x) phi - n (x) b phi.  The zero map obeys every
    law.
    """
    lay = _corner_layout(ctx, module, corner)
    own, other = by_corner(corner, lay.f_bimodule, lay.g_bimodule)
    hom = hom_over_algebra(other, module)
    return DeltaModule._derived(ctx, module.side,
                                *by_corner(corner, module, hom.module),
                                *by_corner(corner,
                                           la.zeros(hom.dim, own.dim * module.dim),
                                           _evaluation_plain(hom, lay)),
                                f"coind_{corner}[{module.describe()}]")


def tilde(v: DeltaModule, corner: str) -> ModuleMap:
    """Transpose of the structure map leaving the ``corner`` component: for
    a left tuple x -> Hom(M, y) from f ("a") and y -> Hom(N, x) from g
    ("b"); on the right Hom(N, y) and Hom(M, x)."""
    own, other = by_corner(corner, v.x, v.y)
    bimodule, _ = by_corner(corner, v.layout.f_bimodule, v.layout.g_bimodule)
    blocks, _ = by_corner(corner, v.f_blocks, v.g_blocks)
    hom = hom_over_algebra(bimodule, other)
    return ModuleMap(own, hom.module, _transposed(blocks, hom))


@memo("v")
def _tilde_kernel_arrays(v: DeltaModule, corner: str) \
        -> tuple[np.ndarray, np.ndarray] | None:
    """The actions and inclusion of ``tilde_kernel(v, corner)``."""
    if v.summands:
        return summand_arrays(v, corner, _tilde_kernel_arrays)
    own, other = by_corner(corner, v.x, v.y)
    bimodule, _ = by_corner(corner, v.layout.f_bimodule, v.layout.g_bimodule)
    leaving, _ = by_corner(corner, v.f_blocks, v.g_blocks)
    n, rows, cols = leaving.shape
    kernel = la.kernel_basis(leaving.reshape(n * rows, cols), v.p)
    if cols - len(kernel) != hom_over_algebra(bimodule, other).dim:
        return None
    ker, incl = submodule(own, kernel)
    return ker.actions, incl.matrix


def tilde_kernel(v: DeltaModule, corner: str) \
        -> tuple[Module, ModuleMap] | None:
    """The kernel of ``tilde(v, corner)`` with its inclusion, X' for "a"
    and Y' for "b", or None when that map is not onto.

    Both are read off the blocks of the structure map leaving the corner,
    stacked into one matrix S with a row per bimodule basis vector and row
    of the other component.  The matrix of ``tilde`` takes each column of
    S to its coordinates on the basis of the hom module, a linear
    one-to-one map, so the two matrices have the same row space: the same
    echelon kernel basis (``linalg.kernel_basis``), and the same rank, its
    number of columns less the kernel's dimension, which is the dimension
    of the hom module exactly when tilde is onto.

    As in ``morita.structural_cokernel``, the arrays are memoised on v, each
    call returns a new module and map on them, and a sum is assembled from
    its summands' results, equal entry for entry to the eliminated one: up
    to row order S of a sum is block-diagonal on the summands' S, and hom
    dimensions add over a sum, so the block-diagonal argument there holds.
    """
    arrays = _tilde_kernel_arrays(v, corner)
    if arrays is None:
        return None
    actions, inclusion = arrays
    own = component(v, corner)
    sub = Module._derived(own.algebra, own.side, inclusion.shape[1], actions,
                          f"sub[{own.describe()}]")
    return sub, ModuleMap._intertwining(sub, own, inclusion)


def _transposed(blocks: np.ndarray, hom: HomModule) -> np.ndarray:
    """Matrix sending component basis vector j to the element of ``hom``
    whose value at bimodule basis vector i is column j of block i."""
    return hom.coords_of(blocks.transpose(2, 1, 0))


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

    ``coind`` is co-induced from the ``corner`` algebra and mat, a module
    map, maps out of that component of v.  On the other component an
    element goes through the structure map of v entering the corner and
    then through mat, read as an element of the hom module.

    Not checked again (``DeltaModuleMap._intertwining``): the other
    component is a module map because the hom module's action is
    precomposition, the square through evaluation holds by this
    definition, and the other square is zero on both sides, since the
    entering structure map of v kills the image of the leaving one.
    """
    _, entering = by_corner(corner, v.f_blocks, v.g_blocks)
    _, hommed_from = by_corner(corner, coind.layout.f_bimodule,
                               coind.layout.g_bimodule)
    hom = hom_over_algebra(hommed_from, component(coind, corner))
    other = _transposed((mat @ entering) % v.p, hom)
    return DeltaModuleMap._intertwining(v, coind, *by_corner(corner, mat, other))


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
    corner.  Both composites are checked to be mutually inverse linear
    bijections on whole hom-space bases, not just dimension counts.

    ``backward`` builds its tuple maps unchecked, and the verdict does not
    depend on a check of them.  ``backward`` is linear; the second round
    shows backward . forward = id on the tuple hom basis, so forward is
    one-to-one on the tuple homs; the two hom spaces have equal dimension,
    so forward is a bijection onto the plain homs with inverse backward,
    and backward lands in the tuple homs.
    """
    name = f"adjunction-{pair}"
    kind, _, corner = pair.partition("-")
    if kind not in ("induce", "coinduce") or corner not in CORNERS:
        raise ValueError(f"unknown adjunction pair {pair!r}")
    own = component(v, corner)

    if kind == "induce":
        ind = induce(ctx, plain, corner)
        tuple_homs = delta_hom_space(ind, v)
        plain_homs = hom_space(plain, own)

        def backward(mat: np.ndarray) -> DeltaModuleMap:
            return induced_adjoint(ind, v, mat, corner)
    else:
        coind = coinduce(ctx, plain, corner)
        tuple_homs = delta_hom_space(v, coind)
        plain_homs = hom_space(own, plain)

        def backward(mat: np.ndarray) -> DeltaModuleMap:
            return coinduced_adjoint(v, coind, mat, corner)

    if len(tuple_homs) != len(plain_homs):
        return CheckReport(name, Verdict.REFUTED,
                           f"hom dimensions differ: {len(tuple_homs)} vs {len(plain_homs)}")

    def forward(dm: DeltaModuleMap) -> np.ndarray:
        return by_corner(corner, dm.a_matrix, dm.b_matrix)[0]

    round_one = all(np.array_equal(forward(backward(h.matrix)), h.matrix)
                    for h in plain_homs)
    def restored(dm: DeltaModuleMap) -> bool:
        back = backward(forward(dm))
        return (np.array_equal(back.a_matrix, dm.a_matrix)
                and np.array_equal(back.b_matrix, dm.b_matrix))

    round_two = all(restored(dm) for dm in tuple_homs)

    if round_one and round_two:
        return CheckReport(name, Verdict.PASS,
                           f"bijection verified on hom spaces of dim {len(plain_homs)}")
    return CheckReport(name, Verdict.REFUTED, "composites are not mutually inverse")
