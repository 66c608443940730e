"""Functors between component module categories and tuple categories.

Six functors in each direction of sidedness:

* induce_from_a : X |-> (X, M (x) X) with the canonical map on the second
  component and zero structure the other way; left adjoint to component_a.
* induce_from_b : Y |-> (N (x) Y, Y), mirrored.
* component_a / component_b : forget down to one corner.
* coinduce_from_a : X |-> (X, Hom(N, X)) with evaluation as structure map;
  right adjoint to component_a.
* coinduce_from_b : Y |-> (Hom(M, Y), Y), mirrored.

Each is written once for both sides: ``morita.TupleLayout`` says which
bimodule a structure map tensors with and how its plain coordinates are
ordered.  The tilde maps transpose the structure maps of a tuple into maps
X -> Hom(M, Y) and Y -> Hom(N, X) (for left tuples); they control the
epi-style membership tests and the injective structure theory.
check_adjunction verifies the unit/counit bijections on concrete hom-space
bases.
"""

from __future__ import annotations

import numpy as np

from . import linalg as la
from .algebra import Module, ModuleMap
from .memo import memo
from .morita import (DeltaModule, DeltaModuleMap, MoritaContext, TupleLayout,
                     delta_hom_space, tuple_layout)
from .report import AlgebraMismatchError, CheckReport, Verdict
from .tensor import HomModule, hom_over_algebra


@memo("x")
def induce_from_a(ctx: MoritaContext, x: Module) -> DeltaModule:
    """The tuple (X, M (x) X) for left X, (X, X (x) N) for right X."""
    if x.algebra is not ctx.algebra_a:
        raise AlgebraMismatchError("module does not live over the A corner")
    lay = tuple_layout(ctx, x.side)
    t = lay.tensor(lay.f_bimodule, x)
    out = DeltaModule(ctx, x.side, x, t.module, t.projection,
                      la.zeros(x.dim, lay.g_bimodule.dim * t.dim),
                      name=f"ind_a[{x.describe()}]")
    out.tensor_data = t
    return out


@memo("y")
def induce_from_b(ctx: MoritaContext, y: Module) -> DeltaModule:
    """The tuple (N (x) Y, Y) for left Y, (Y (x) M, Y) for right Y."""
    if y.algebra is not ctx.algebra_b:
        raise AlgebraMismatchError("module does not live over the B corner")
    lay = tuple_layout(ctx, y.side)
    t = lay.tensor(lay.g_bimodule, y)
    out = DeltaModule(ctx, y.side, t.module, y,
                      la.zeros(y.dim, lay.f_bimodule.dim * t.dim), t.projection,
                      name=f"ind_b[{y.describe()}]")
    out.tensor_data = t
    return out


def induce_from_a_map(ctx: MoritaContext, phi: ModuleMap,
                      source: DeltaModule | None = None,
                      target: DeltaModule | None = None) -> DeltaModuleMap:
    """induce_from_a on a map: the component map plus its tensored image."""
    source = source if source is not None else induce_from_a(ctx, phi.source)
    target = target if target is not None else induce_from_a(ctx, phi.target)
    ts, tt, lay = source.tensor_f, target.tensor_f, source.layout
    plain = lay.lift(lay.f_bimodule, phi.matrix)
    b = (tt.projection @ plain @ ts.section) % ctx.p
    return DeltaModuleMap(source, target, phi.matrix, b)


def induce_from_b_map(ctx: MoritaContext, phi: ModuleMap,
                      source: DeltaModule | None = None,
                      target: DeltaModule | None = None) -> DeltaModuleMap:
    """induce_from_b on a map: the component map plus its tensored image."""
    source = source if source is not None else induce_from_b(ctx, phi.source)
    target = target if target is not None else induce_from_b(ctx, phi.target)
    ts, tt, lay = source.tensor_g, target.tensor_g, source.layout
    plain = lay.lift(lay.g_bimodule, phi.matrix)
    a = (tt.projection @ plain @ ts.section) % ctx.p
    return DeltaModuleMap(source, target, a, phi.matrix)


def component_a(v: DeltaModule) -> Module:
    return v.x


def component_b(v: DeltaModule) -> Module:
    return v.y


def _evaluation_plain(hom: HomModule, lay: TupleLayout) -> np.ndarray:
    """Evaluation on plain tensor coordinates: in the block of bimodule
    basis vector i, column k is the value of basis map k at i."""
    blocks = np.zeros((hom.source.dim, hom.target.dim, hom.dim), dtype=np.int64)
    for k, mat in enumerate(hom.basis):
        blocks[:, :, k] = mat.T
    return lay.unblocks(blocks) % hom.p


def coinduce_from_a(ctx: MoritaContext, x: Module) -> DeltaModule:
    """The tuple (X, Hom(N, X)) for left X, (X, Hom(M, X)) for right X.

    The structure map into X is evaluation; the other is zero.
    """
    if x.algebra is not ctx.algebra_a:
        raise AlgebraMismatchError("module does not live over the A corner")
    lay = tuple_layout(ctx, x.side)
    hom = hom_over_algebra(lay.g_bimodule, x)
    out = DeltaModule(ctx, x.side, x, hom.module,
                      la.zeros(hom.dim, lay.f_bimodule.dim * x.dim),
                      _evaluation_plain(hom, lay),
                      name=f"coind_a[{x.describe()}]")
    out.hom_data = hom
    return out


def coinduce_from_b(ctx: MoritaContext, y: Module) -> DeltaModule:
    """The tuple (Hom(M, Y), Y) for left Y, (Hom(N, Y), Y) for right Y."""
    if y.algebra is not ctx.algebra_b:
        raise AlgebraMismatchError("module does not live over the B corner")
    lay = tuple_layout(ctx, y.side)
    hom = hom_over_algebra(lay.f_bimodule, y)
    out = DeltaModule(ctx, y.side, hom.module, y, _evaluation_plain(hom, lay),
                      la.zeros(hom.dim, lay.g_bimodule.dim * y.dim),
                      name=f"coind_b[{y.describe()}]")
    out.hom_data = hom
    return out


def tilde_f(v: DeltaModule) -> ModuleMap:
    """Transpose of f: the map x -> Hom(M, y) (left) or x -> Hom(N, y) (right)."""
    hom = hom_over_algebra(v.layout.f_bimodule, v.y)
    return ModuleMap(v.x, hom.module, _transposed(v.f_blocks, hom))


def tilde_g(v: DeltaModule) -> ModuleMap:
    """Transpose of g: the map y -> Hom(N, x) (left) or y -> Hom(M, x) (right)."""
    hom = hom_over_algebra(v.layout.g_bimodule, v.x)
    return ModuleMap(v.y, hom.module, _transposed(v.g_blocks, hom))


def _transposed(blocks: np.ndarray, hom: HomModule) -> np.ndarray:
    """Matrix sending component basis vector j to the element of ``hom``
    whose value at bimodule basis vector i is column j of block i."""
    matrix = la.zeros(hom.dim, blocks.shape[2])
    for j in range(blocks.shape[2]):
        matrix[:, j] = hom.coords_of(blocks[:, :, j].T)
    return matrix


def induced_adjoint(ind: DeltaModule, v: DeltaModule, mat: np.ndarray,
                    corner: str) -> DeltaModuleMap:
    """The map ind -> v adjoint to a component map mat into v.

    ``ind`` is induced from the A corner (``corner`` "a", mat into v.x) or
    the B corner ("b", mat into v.y).  On the other component the map is
    the structure map of v after id (x) mat.
    """
    lay, p = v.layout, v.p
    if corner == "a":
        move = lay.lift(lay.f_bimodule, mat)
        other = (v.f_map.matrix @ v.tensor_f.projection @ move
                 @ ind.tensor_data.section) % p
        return DeltaModuleMap(ind, v, mat, other)
    move = lay.lift(lay.g_bimodule, mat)
    other = (v.g_map.matrix @ v.tensor_g.projection @ move
             @ ind.tensor_data.section) % p
    return DeltaModuleMap(ind, v, other, mat)


def coinduced_adjoint(v: DeltaModule, coind: DeltaModule, mat: np.ndarray,
                      corner: str) -> DeltaModuleMap:
    """The map v -> coind adjoint to a component map mat out of v.

    ``coind`` is co-induced from the A corner (``corner`` "a", mat out of
    v.x) or the B corner ("b", mat out of v.y).  On the other component an
    element goes through the structure map of v and then through mat, read
    as an element of the hom module.
    """
    p = v.p
    if corner == "a":
        other = _transposed((mat @ v.g_blocks) % p, coind.hom_data)
        return DeltaModuleMap(v, coind, mat, other)
    other = _transposed((mat @ v.f_blocks) % p, coind.hom_data)
    return DeltaModuleMap(v, coind, other, mat)


def _maps_equal_on_basis(pairs) -> bool:
    return all(np.array_equal(lhs, rhs) for lhs, rhs in pairs)


def check_adjunction(ctx: MoritaContext, plain: Module, v: DeltaModule,
                     pair: str) -> CheckReport:
    """Verify one of the four hom-space bijections on a concrete instance.

    pair "induce-a": maps (induce_from_a plain) -> v against maps
    plain -> v.x.  pair "coinduce-a": maps v.x -> plain against maps
    v -> coinduce_from_a plain.  The b variants mirror through the other
    corner.  Both composites are checked to be mutually inverse linear
    bijections on whole hom-space bases, not just dimension counts.
    """
    from .algebra import hom_space

    name = f"adjunction-{pair}"
    corner = pair[-1]
    comp = component_a if corner == "a" else component_b

    if pair in ("induce-a", "induce-b"):
        ind = (induce_from_a if corner == "a" else induce_from_b)(ctx, plain)
        tuple_homs = delta_hom_space(ind, v)
        plain_homs = hom_space(plain, comp(v))

        def backward(mat: np.ndarray) -> DeltaModuleMap:
            return induced_adjoint(ind, v, mat, corner)
    elif pair in ("coinduce-a", "coinduce-b"):
        coind = (coinduce_from_a if corner == "a" else coinduce_from_b)(ctx, plain)
        tuple_homs = delta_hom_space(v, coind)
        plain_homs = hom_space(comp(v), plain)

        def backward(mat: np.ndarray) -> DeltaModuleMap:
            return coinduced_adjoint(v, coind, mat, corner)
    else:
        raise ValueError(f"unknown adjunction pair {pair!r}")

    if len(tuple_homs) != len(plain_homs):
        return CheckReport(name, Verdict.REFUTED,
                           f"hom dimensions differ: {len(tuple_homs)} vs {len(plain_homs)}")

    def forward(dm: DeltaModuleMap) -> np.ndarray:
        return dm.a_matrix if corner == "a" else dm.b_matrix

    round_one = _maps_equal_on_basis(
        (forward(backward(h.matrix)), h.matrix) for h in plain_homs)
    round_two = all(
        np.array_equal(backward(forward(dm)).a_matrix, dm.a_matrix)
        and np.array_equal(backward(forward(dm)).b_matrix, dm.b_matrix)
        for dm in tuple_homs)

    if round_one and round_two:
        return CheckReport(name, Verdict.PASS,
                           f"bijection verified on hom spaces of dim {len(plain_homs)}")
    return CheckReport(name, Verdict.REFUTED, "composites are not mutually inverse")
