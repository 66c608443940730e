"""Functors between component module categories and tuple categories.

Six functors in each direction of sidedness:

* induce_from_a : X |-> (X, M (x) X) with the canonical map on the second
  component and zero structure the other way; left adjoint to component_a.
* induce_from_b : Y |-> (N (x) Y, Y), mirrored.
* component_a / component_b : forget down to one corner.
* coinduce_from_a : X |-> (X, Hom(N, X)) with evaluation as structure map;
  right adjoint to component_a.
* coinduce_from_b : Y |-> (Hom(M, Y), Y), mirrored.

All are implemented for both sidedness conventions of tuples.  The tilde
maps transpose the structure maps of a tuple into maps X -> Hom(M, Y) and
Y -> Hom(N, X); they control the epi-style membership tests and the
injective structure theory.  check_adjunction verifies the unit/counit
bijections on concrete hom-space bases.
"""

from __future__ import annotations

import numpy as np

from . import linalg as la
from .algebra import LEFT, Module, ModuleMap
from .memo import memo
from .morita import DeltaModule, DeltaModuleMap, MoritaContext, delta_hom_space
from .report import AlgebraMismatchError, CheckReport, Verdict
from .tensor import HomModule, hom_over_algebra, tensor_over_algebra


@memo("x")
def induce_from_a(ctx: MoritaContext, x: Module) -> DeltaModule:
    """The tuple (X, M (x) X) for left X, (X, X (x) N) for right X."""
    if x.algebra is not ctx.algebra_a:
        raise AlgebraMismatchError("module does not live over the A corner")
    if x.side == LEFT:
        t = tensor_over_algebra(ctx.m, x)
        f_plain = t.projection
        g_plain = la.zeros(x.dim, ctx.n.dim * t.dim)
    else:
        t = tensor_over_algebra(x, ctx.n)
        f_plain = t.projection
        g_plain = la.zeros(x.dim, t.dim * ctx.m.dim)
    out = DeltaModule(ctx, x.side, x, t.module, f_plain, g_plain,
                      name=f"ind_a[{x.describe()}]")
    out.tensor_data = t
    return out


@memo("y")
def induce_from_b(ctx: MoritaContext, y: Module) -> DeltaModule:
    """The tuple (N (x) Y, Y) for left Y, (Y (x) M, Y) for right Y."""
    if y.algebra is not ctx.algebra_b:
        raise AlgebraMismatchError("module does not live over the B corner")
    if y.side == LEFT:
        t = tensor_over_algebra(ctx.n, y)
        g_plain = t.projection
        f_plain = la.zeros(y.dim, ctx.m.dim * t.dim)
    else:
        t = tensor_over_algebra(y, ctx.m)
        g_plain = t.projection
        f_plain = la.zeros(y.dim, t.dim * ctx.n.dim)
    out = DeltaModule(ctx, y.side, t.module, y, f_plain, g_plain,
                      name=f"ind_b[{y.describe()}]")
    out.tensor_data = t
    return out


def induce_from_a_map(ctx: MoritaContext, phi: ModuleMap,
                      source: DeltaModule | None = None,
                      target: DeltaModule | None = None) -> DeltaModuleMap:
    """induce_from_a on a map: the component map plus its tensored image."""
    source = source if source is not None else induce_from_a(ctx, phi.source)
    target = target if target is not None else induce_from_a(ctx, phi.target)
    ts, tt = source.tensor_f, target.tensor_f
    if phi.source.side == LEFT:
        plain = la.kron(la.eye(ctx.m.dim), phi.matrix, ctx.p)
    else:
        plain = la.kron(phi.matrix, la.eye(ctx.n.dim), ctx.p)
    b = (tt.projection @ plain @ ts.section) % ctx.p
    return DeltaModuleMap(source, target, phi.matrix, b)


def induce_from_b_map(ctx: MoritaContext, phi: ModuleMap,
                      source: DeltaModule | None = None,
                      target: DeltaModule | None = None) -> DeltaModuleMap:
    """induce_from_b on a map: the component map plus its tensored image."""
    source = source if source is not None else induce_from_b(ctx, phi.source)
    target = target if target is not None else induce_from_b(ctx, phi.target)
    ts, tt = source.tensor_g, target.tensor_g
    if phi.source.side == LEFT:
        plain = la.kron(la.eye(ctx.n.dim), phi.matrix, ctx.p)
    else:
        plain = la.kron(phi.matrix, la.eye(ctx.m.dim), ctx.p)
    a = (tt.projection @ plain @ ts.section) % ctx.p
    return DeltaModuleMap(source, target, a, phi.matrix)


def component_a(v: DeltaModule) -> Module:
    return v.x


def component_b(v: DeltaModule) -> Module:
    return v.y


def _evaluation_plain(hom: HomModule, inner_dim: int, inner_first: bool,
                      p: int) -> np.ndarray:
    """Evaluation on plain tensor coordinates.

    inner_first selects the index layout: (inner i, hom k) -> i * h + k when
    True (left tuples), (hom k, inner i) -> k * inner_dim + i when False
    (right tuples).  Column (i, k) is the value of basis map k at basis
    vector i.
    """
    h = hom.dim
    out = la.zeros(hom.target.dim, inner_dim * h)
    for k, mat in enumerate(hom.basis):
        for i in range(inner_dim):
            col = i * h + k if inner_first else k * inner_dim + i
            out[:, col] = mat[:, i]
    return out % p


def coinduce_from_a(ctx: MoritaContext, x: Module) -> DeltaModule:
    """The tuple (X, Hom(N, X)) for left X, (X, Hom(M, X)) for right X.

    The structure map into X is evaluation; the other is zero.
    """
    if x.algebra is not ctx.algebra_a:
        raise AlgebraMismatchError("module does not live over the A corner")
    if x.side == LEFT:
        hom = hom_over_algebra(ctx.n, x)
        g_plain = _evaluation_plain(hom, ctx.n.dim, True, ctx.p)
        f_plain = la.zeros(hom.dim, ctx.m.dim * x.dim)
    else:
        hom = hom_over_algebra(ctx.m, x)
        g_plain = _evaluation_plain(hom, ctx.m.dim, False, ctx.p)
        f_plain = la.zeros(hom.dim, x.dim * ctx.n.dim)
    out = DeltaModule(ctx, x.side, x, hom.module, f_plain, g_plain,
                      name=f"coind_a[{x.describe()}]")
    out.hom_data = hom
    return out


def coinduce_from_b(ctx: MoritaContext, y: Module) -> DeltaModule:
    """The tuple (Hom(M, Y), Y) for left Y, (Hom(N, Y), Y) for right Y."""
    if y.algebra is not ctx.algebra_b:
        raise AlgebraMismatchError("module does not live over the B corner")
    if y.side == LEFT:
        hom = hom_over_algebra(ctx.m, y)
        f_plain = _evaluation_plain(hom, ctx.m.dim, True, ctx.p)
        g_plain = la.zeros(hom.dim, ctx.n.dim * y.dim)
    else:
        hom = hom_over_algebra(ctx.n, y)
        f_plain = _evaluation_plain(hom, ctx.n.dim, False, ctx.p)
        g_plain = la.zeros(hom.dim, y.dim * ctx.m.dim)
    out = DeltaModule(ctx, y.side, hom.module, y, f_plain, g_plain,
                      name=f"coind_b[{y.describe()}]")
    out.hom_data = hom
    return out


def tilde_f(v: DeltaModule) -> ModuleMap:
    """Transpose of f: the map x -> Hom(M, y) (left) or x -> Hom(N, y) (right)."""
    ctx = v.context
    dx = v.x.dim
    if v.side == LEFT:
        hom = hom_over_algebra(ctx.m, v.y)
        inner = ctx.m.dim
        cols = [np.stack([v.f_plain[:, i * dx + j] for i in range(inner)], axis=1)
                if inner else la.zeros(v.y.dim, 0) for j in range(dx)]
    else:
        hom = hom_over_algebra(ctx.n, v.y)
        inner = ctx.n.dim
        cols = [v.f_plain[:, j * inner:(j + 1) * inner] for j in range(dx)]
    matrix = la.zeros(hom.dim, dx)
    for j, mat in enumerate(cols):
        matrix[:, j] = hom.coords_of(mat)
    return ModuleMap(v.x, hom.module, matrix)


def tilde_g(v: DeltaModule) -> ModuleMap:
    """Transpose of g: the map y -> Hom(N, x) (left) or y -> Hom(M, x) (right)."""
    ctx = v.context
    dy = v.y.dim
    if v.side == LEFT:
        hom = hom_over_algebra(ctx.n, v.x)
        inner = ctx.n.dim
        cols = [np.stack([v.g_plain[:, i * dy + j] for i in range(inner)], axis=1)
                if inner else la.zeros(v.x.dim, 0) for j in range(dy)]
    else:
        hom = hom_over_algebra(ctx.m, v.x)
        inner = ctx.m.dim
        cols = [v.g_plain[:, j * inner:(j + 1) * inner] for j in range(dy)]
    matrix = la.zeros(hom.dim, dy)
    for j, mat in enumerate(cols):
        matrix[:, j] = hom.coords_of(mat)
    return ModuleMap(v.y, hom.module, matrix)


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

    p = ctx.p
    name = f"adjunction-{pair}"

    if pair in ("induce-a", "induce-b"):
        induce = induce_from_a if pair == "induce-a" else induce_from_b
        comp = component_a if pair == "induce-a" else component_b
        ind = induce(ctx, plain)
        tuple_homs = delta_hom_space(ind, v)
        plain_homs = hom_space(plain, comp(v))
        if len(tuple_homs) != len(plain_homs):
            return CheckReport(name, Verdict.REFUTED,
                               f"hom dimensions differ: {len(tuple_homs)} vs {len(plain_homs)}")

        def forward(dm: DeltaModuleMap) -> np.ndarray:
            return dm.a_matrix if pair == "induce-a" else dm.b_matrix

        def backward(mat: np.ndarray) -> DeltaModuleMap:
            t = ind.tensor_data
            if pair == "induce-a":
                vt = v.tensor_f
                if plain.side == LEFT:
                    move = la.kron(la.eye(ctx.m.dim), mat, p)
                else:
                    move = la.kron(mat, la.eye(ctx.n.dim), p)
                other = (v.f_map.matrix @ vt.projection @ move @ t.section) % p
                return DeltaModuleMap(ind, v, mat, other)
            vt = v.tensor_g
            if plain.side == LEFT:
                move = la.kron(la.eye(ctx.n.dim), mat, p)
            else:
                move = la.kron(mat, la.eye(ctx.m.dim), p)
            other = (v.g_map.matrix @ vt.projection @ move @ t.section) % p
            return DeltaModuleMap(ind, v, other, mat)

        round_one = _maps_equal_on_basis(
            (forward(backward(h.matrix)), h.matrix) for h in plain_homs)
        round_two = all(
            np.array_equal(backward(forward(dm)).a_matrix, dm.a_matrix)
            and np.array_equal(backward(forward(dm)).b_matrix, dm.b_matrix)
            for dm in tuple_homs)
    elif pair in ("coinduce-a", "coinduce-b"):
        coinduce = coinduce_from_a if pair == "coinduce-a" else coinduce_from_b
        comp = component_a if pair == "coinduce-a" else component_b
        coind = coinduce(ctx, plain)
        hom_data: HomModule = coind.hom_data
        tuple_homs = delta_hom_space(v, coind)
        plain_homs = hom_space(comp(v), plain)
        if len(tuple_homs) != len(plain_homs):
            return CheckReport(name, Verdict.REFUTED,
                               f"hom dimensions differ: {len(tuple_homs)} vs {len(plain_homs)}")

        def forward(dm: DeltaModuleMap) -> np.ndarray:
            return dm.a_matrix if pair == "coinduce-a" else dm.b_matrix

        def backward(mat: np.ndarray) -> DeltaModuleMap:
            # The other component sends an element through the structure map
            # of v and then through mat, read as a hom-space element.
            if pair == "coinduce-a":
                src_dim, inner = v.y.dim, \
                    (ctx.n.dim if v.side == LEFT else ctx.m.dim)
                other = la.zeros(hom_data.dim, src_dim)
                for j in range(src_dim):
                    if v.side == LEFT:
                        val = np.stack(
                            [(mat @ v.g_plain[:, i * src_dim + j]) % p
                             for i in range(inner)], axis=1) \
                            if inner else la.zeros(plain.dim, 0)
                    else:
                        val = (mat @ v.g_plain[:, j * inner:(j + 1) * inner]) % p
                    other[:, j] = hom_data.coords_of(val)
                return DeltaModuleMap(v, coind, mat, other)
            src_dim, inner = v.x.dim, \
                (ctx.m.dim if v.side == LEFT else ctx.n.dim)
            other = la.zeros(hom_data.dim, src_dim)
            for j in range(src_dim):
                if v.side == LEFT:
                    val = np.stack(
                        [(mat @ v.f_plain[:, i * src_dim + j]) % p
                         for i in range(inner)], axis=1) \
                        if inner else la.zeros(plain.dim, 0)
                else:
                    val = (mat @ v.f_plain[:, j * inner:(j + 1) * inner]) % p
                other[:, j] = hom_data.coords_of(val)
            return DeltaModuleMap(v, coind, other, mat)

        round_one = _maps_equal_on_basis(
            (forward(backward(h.matrix)), h.matrix) for h in plain_homs)
        round_two = all(
            np.array_equal(backward(forward(dm)).a_matrix, dm.a_matrix)
            and np.array_equal(backward(forward(dm)).b_matrix, dm.b_matrix)
            for dm in tuple_homs)
    else:
        raise ValueError(f"unknown adjunction pair {pair!r}")

    if round_one and round_two:
        return CheckReport(name, Verdict.PASS,
                           f"bijection verified on hom spaces of dim {len(plain_homs)}")
    return CheckReport(name, Verdict.REFUTED, "composites are not mutually inverse")
